"""In-memory span tracer that wraps each layer's public entry points.

A traced pass installs :class:`Tracer` around the calls into every layer
(SQL parse/bind, optimizer, pipeline lowering, executors, hash join,
tiered store, sessions, server) by swapping the module or class
attribute the callers look up for a wrapper that records a span.  The
program itself is not modified: :meth:`Tracer.uninstall` restores every
original attribute, so untraced passes run the unwrapped code.

Each span records its name, start, end, parent and request id.  Spans
stay in memory; :meth:`Tracer.dump` writes them out once, at the end of
the run.  A layer's *self* time is its span's duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: Optional[int] = None
    #: Counts observed at this boundary (e.g. pairs a join emitted).
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _entry_points() -> List[tuple]:
    """(owner, attribute, span name, result hook) for every wrapped call.

    A function imported by name into another module is wrapped where the
    caller looks it up, so every call site of one entry point shares its
    span name.
    """
    import repro.hetero.executor as hetero_executor
    import repro.query.compiled as compiled
    import repro.query.optimizer as optimizer
    import repro.query.pipeline as pipeline
    import repro.serve.server as server
    import repro.sql as sql
    import repro.sql.binder as binder
    from repro.hetero.executor import HeterogeneousExecutor
    from repro.query.executor import QueryExecutor
    from repro.query.session import GpuSession
    from repro.relational.hashjoin import SimulatedHashJoin
    from repro.serve.server import QueryServer
    from repro.storage.tiered import TieredColumnStore

    def pipelines(span: Span, program: Any) -> None:
        span.info["pipelines"] = len(program)

    def pairs(span: Span, result: Any) -> None:
        span.info["pairs"] = len(result)

    return [
        (sql, "parse", "sql.parse", None),
        (binder, "parse", "sql.parse", None),
        (sql, "bind", "sql.bind", None),
        (binder, "bind", "sql.bind", None),
        (optimizer, "optimize", "query.optimizer.optimize", None),
        (binder, "optimize", "query.optimizer.optimize", None),
        (server, "optimize", "query.optimizer.optimize", None),
        (server, "estimate_plan_cost", "query.optimizer.estimate", None),
        (server, "estimate_working_set", "query.optimizer.estimate", None),
        (pipeline, "lower_plan", "query.pipeline.lower", pipelines),
        (compiled, "lower_plan", "query.pipeline.lower", pipelines),
        (hetero_executor, "lower_plan", "query.pipeline.lower", pipelines),
        (hetero_executor, "place_pipelines", "hetero.place", None),
        (QueryExecutor, "execute", "query.execute", None),
        (HeterogeneousExecutor, "execute", "hetero.execute", None),
        (SimulatedHashJoin, "join", "relational.hashjoin.join", pairs),
        (TieredColumnStore, "fetch", "storage.fetch", None),
        (TieredColumnStore, "fetch_many", "storage.fetch", None),
        (GpuSession, "execute", "query.session.execute", None),
        (QueryServer, "run", "serve.run", None),
        (QueryServer, "update_table", "serve.update", None),
    ]


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        #: Request id stamped on spans opened from now on.
        self.request: Optional[int] = None

    # -- span recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent,
                 request=self.request)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, original: Callable, name: str, hook) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self.spans[index], result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point (idempotent per install/uninstall pair)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in _entry_points():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, hook))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries over the recorded spans ---------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def assign_request(self, since: int, request: int) -> None:
        """Stamp ``request`` on spans opened since ``since`` without one."""
        for span in self.spans[since:]:
            if span.request is None:
                span.request = request

    def totals(self, since: int, until: int) -> Dict[str, float]:
        """Seconds per span name over spans ``[since, until)``, counting
        only the outermost span of a name (a nested span of the same name
        is already inside it)."""
        out: Dict[str, float] = {}
        for index in range(since, until):
            span = self.spans[index]
            if self._has_ancestor_named(index, span.name, since):
                continue
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def self_times(self, since: int, until: int) -> Dict[str, float]:
        """Seconds per span name of duration minus direct-child time."""
        child_time = [0.0] * (until - since)
        for index in range(since, until):
            parent = self.spans[index].parent
            if parent >= since:
                child_time[parent - since] += self.spans[index].duration
        out: Dict[str, float] = {}
        for index in range(since, until):
            span = self.spans[index]
            own = span.duration - child_time[index - since]
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def child_time(self, since: int, until: int, parent_name: str,
                   child_name: str) -> float:
        """Seconds of ``child_name`` spans directly under ``parent_name``."""
        total = 0.0
        for span in self.spans[since:until]:
            if (
                span.name == child_name
                and span.parent >= since
                and self.spans[span.parent].name == parent_name
            ):
                total += span.duration
        return total

    def info_sums(self, since: int, until: int) -> Dict[str, float]:
        """Per-name call counts and sums of every ``info`` count, keyed
        ``name.calls`` and ``name.count``."""
        out: Dict[str, float] = {}
        for span in self.spans[since:until]:
            key = f"{span.name}.calls"
            out[key] = out.get(key, 0) + 1
            for count, value in span.info.items():
                key = f"{span.name}.{count}"
                out[key] = out.get(key, 0) + value
        return out

    def _has_ancestor_named(self, index: int, name: str, since: int) -> bool:
        parent = self.spans[index].parent
        while parent >= since:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
