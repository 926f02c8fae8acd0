"""Pipeline-IR interpreter for the compiled fused-pipeline backend.

:class:`CompiledPlanRunner` executes a plan by lowering it to the
pipeline IR (:mod:`repro.query.pipeline`) and running each pipeline
front to back.  Per pipeline it picks one of two executions:

* **fused** — the whole segment (scan → filters → projects → probes →
  partial aggregation) becomes ONE simulated kernel priced as a single
  DRAM pass (:meth:`~repro.core.compiled_backend.CompiledBackend.launch_fused`,
  a ``FUSED[...]`` event), after a JIT-codegen charge on the first use of
  the segment's signature (cached thereafter);
* **eager** — the segment replays the eager executor's own relation
  transformations (``_apply_*``), charging exactly the per-operator
  kernels :class:`~repro.query.executor.QueryExecutor` would.

The choice is the backend's ``fusion`` mode: ``"on"``/``"off"`` force
it, ``"auto"`` asks the optimizer's fusion-boundary cost model
(:func:`~repro.query.optimizer.fusion_decision`) per segment.

**Bit-identity.**  The fused path computes result values host-side with
the same NumPy semantics the eager operators use — ``predicate.evaluate``
+ ``flatnonzero`` for filters, ``expr.evaluate`` for projections,
:func:`~repro.relational.hashjoin.match_pairs` for probes, the shared
:func:`~repro.core.handwritten_backend.group_rows`,
:func:`~repro.core.handwritten_backend.grouped_aggregate_host` and
:func:`~repro.core.handwritten_backend.reduction_host` helpers for
aggregation — and reuses the executor's own key decomposition, so every
mode produces byte-identical tables; only the cost events differ.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.expr import ColRef, Expr, Lit
from repro.core.handwritten_backend import (
    _predicate_cost,
    group_rows,
    grouped_aggregate_host,
    reduction_host,
)
from repro.errors import PlanError
from repro.query.executor import ColumnMeta, QueryExecutor, _HostColumn, _Relation
from repro.query.optimizer import FusionDecision, fusion_decision
from repro.query.pipeline import (
    FilterStage,
    GroupBySink,
    Pipeline,
    ProbeStage,
    ProjectStage,
    SemiProbeStage,
    Sink,
    SortSink,
    Source,
    TableSource,
    TopKSink,
    lower_plan,
)
from repro.query.plan import GroupBy, PlanNode, Scan
from repro.relational.hashjoin import match_pairs
from repro.relational.types import ColumnType


class CompiledPlanRunner:
    """One plan execution through the pipeline IR."""

    def __init__(self, executor: QueryExecutor) -> None:
        self.executor = executor
        self.backend = executor.backend

    # -- driver -------------------------------------------------------------------

    def run(self, plan: PlanNode, needed) -> _Relation:
        program = lower_plan(
            plan, columns_of=self.executor._output_columns, needed=needed
        )
        outputs: Dict[int, _Relation] = {}
        for pipeline in program.pipelines:
            outputs[pipeline.pid] = self._run_pipeline(pipeline, outputs)
        return outputs[program.result_pid]

    def _run_pipeline(
        self, pipeline: Pipeline, outputs: Dict[int, _Relation]
    ) -> _Relation:
        if self._should_fuse(pipeline):
            return self._run_fused(pipeline, outputs)
        return self._run_eager(pipeline, outputs)

    # -- fusion decision ----------------------------------------------------------

    def _should_fuse(self, pipeline: Pipeline) -> bool:
        if not pipeline.fusable:
            return False
        mode = getattr(self.backend, "fusion", "auto")
        if mode == "off":
            return False
        if mode == "on":
            return True
        return self.decide(pipeline).fuse

    def _signature(self, pipeline: Pipeline) -> str:
        """Program-cache key: the segment's full structure (operators,
        predicates, expressions, pruned column lists)."""
        return repr((pipeline.source, pipeline.stages, pipeline.sink))

    def decide(self, pipeline: Pipeline) -> FusionDecision:
        """The "auto"-mode call into the optimizer's fusion cost model."""
        assert isinstance(pipeline.source, TableSource)
        table = self.executor.catalog.get(pipeline.source.table)
        if table is None:
            # Unknown table: stay eager so the scan raises the executor's
            # usual PlanError.
            return FusionDecision(fuse=False, fused_seconds=0.0, eager_seconds=0.0)
        names = (
            list(pipeline.source.columns)
            if pipeline.source.columns is not None
            else list(table.column_names)
        )

        def width(columns) -> float:
            total = 0.0
            for name in columns:
                try:
                    total += table.column(name).data.dtype.itemsize
                except Exception:
                    total += 8.0  # derived / unknown: assume float64
            return total

        fused_read = width(names)
        stages = pipeline.stages
        if stages and isinstance(stages[0], FilterStage):
            eager_first = width(sorted(stages[0].plan.predicate.columns()))
        else:
            eager_first = fused_read
        num_filters = sum(isinstance(s, FilterStage) for s in stages)
        launches = 0
        for stage in stages:
            if isinstance(stage, FilterStage):
                kept = len(stage.keep) if stage.keep is not None else len(names)
                launches += 1 + kept  # selection + one gather per column
            elif isinstance(stage, ProjectStage):
                launches += sum(
                    0 if isinstance(expr, ColRef) else 1
                    for _name, expr in stage.plan.outputs
                )
            elif isinstance(stage, ProbeStage):
                kept = (
                    len(stage.keep) if stage.keep is not None else len(names) + 1
                )
                launches += 2 + kept  # build + probe + output gathers
            elif isinstance(stage, SemiProbeStage):
                kept = len(stage.keep) if stage.keep is not None else len(names)
                launches += 2 + kept  # build + membership + left gathers
        if isinstance(pipeline.sink, GroupBySink):
            aggregates = len(pipeline.sink.plan.aggregates)
            if pipeline.sink.plan.keys:
                launches += 2 * aggregates + 1  # per-agg hash pass + key math
            else:
                launches += aggregates  # one reduction each
        compile_share = 0.0
        if hasattr(self.backend, "amortized_compile_seconds"):
            compile_share = self.backend.amortized_compile_seconds(
                self._signature(pipeline), pipeline.operator_count
            )
        return fusion_decision(
            table.num_rows,
            fused_read,
            eager_first,
            fused_read,
            num_filters,
            max(launches, 1),
            compile_share,
        )

    # -- eager segment ------------------------------------------------------------

    def _source_relation(
        self, source: Source, outputs: Dict[int, _Relation]
    ) -> _Relation:
        if isinstance(source, TableSource):
            return self.executor._execute_scan(
                Scan(source.table), source.columns
            )
        return outputs[source.pid]

    def _run_eager(
        self, pipeline: Pipeline, outputs: Dict[int, _Relation]
    ) -> _Relation:
        ex = self.executor
        relation = self._source_relation(pipeline.source, outputs)
        for stage in pipeline.stages:
            if isinstance(stage, FilterStage):
                relation = ex._apply_filter(relation, stage.plan, stage.keep)
            elif isinstance(stage, ProjectStage):
                relation = ex._apply_project(relation, stage.plan)
            elif isinstance(stage, ProbeStage):
                relation = ex._apply_join(
                    relation, outputs[stage.build_pid], stage.plan, stage.keep
                )
            elif isinstance(stage, SemiProbeStage):
                relation = ex._apply_semi_join(
                    relation, outputs[stage.build_pid], stage.plan, stage.keep
                )
            else:
                relation = ex._apply_limit(relation, stage.plan.n)
        return self._apply_sink(relation, pipeline.sink)

    def _apply_sink(self, relation: _Relation, sink: Sink) -> _Relation:
        if isinstance(sink, GroupBySink):
            return self.executor._apply_group_by(relation, sink.plan)
        if isinstance(sink, SortSink):
            return self.executor._apply_order_by(relation, sink.plan)
        if isinstance(sink, TopKSink):
            return self.executor._apply_top_k(relation, sink.plan)
        return relation  # Build/Result sinks: already materialised

    # -- fused segment ------------------------------------------------------------

    def _run_fused(
        self, pipeline: Pipeline, outputs: Dict[int, _Relation]
    ) -> _Relation:
        ex = self.executor
        backend = self.backend
        assert isinstance(pipeline.source, TableSource)
        scan = ex._execute_scan(
            Scan(pipeline.source.table), pipeline.source.columns
        )
        backend.ensure_program(
            self._signature(pipeline), pipeline.operator_count
        )

        host: Dict[str, np.ndarray] = {
            name: handle.peek() for name, handle in scan.columns.items()
        }
        meta: Dict[str, ColumnMeta] = dict(scan.meta)
        num_rows = scan.num_rows
        row_limit: Optional[int] = None
        n_input = scan.num_rows
        read_per_row = float(
            sum(handle.itemsize for handle in scan.columns.values())
        )
        flops = 0.0
        fixed_flops = 0.0
        fixed_bytes = 0.0
        ops: List[str] = [f"scan {pipeline.source.table}"]

        for stage in pipeline.stages:
            if isinstance(stage, FilterStage):
                predicate = stage.plan.predicate
                mask = predicate.evaluate(
                    {name: host[name] for name in predicate.columns()}
                )
                ids = np.flatnonzero(mask).astype(np.int64)
                keep = (
                    list(stage.keep) if stage.keep is not None else list(host)
                )
                host = {name: host[name][ids] for name in keep}
                meta = {name: meta[name] for name in keep}
                num_rows = len(ids)
                predicate_flops, _cols = _predicate_cost(predicate)
                flops += predicate_flops + 1.0
                ops.append("filter")
            elif isinstance(stage, ProjectStage):
                new_host: Dict[str, np.ndarray] = {}
                new_meta: Dict[str, ColumnMeta] = {}
                for name, expr in stage.plan.outputs:
                    if isinstance(expr, ColRef):
                        if expr.name not in host:
                            raise PlanError(
                                f"column {expr.name!r} not available "
                                f"(have: {', '.join(host)})"
                            )
                        new_host[name] = host[expr.name]
                        new_meta[name] = meta[expr.name]
                    else:
                        new_host[name] = np.asarray(expr.evaluate(host))
                        new_meta[name] = ColumnMeta(ctype=ColumnType.FLOAT64)
                        flops += expr.flops
                host, meta = new_host, new_meta
                ops.append("project")
            elif isinstance(stage, ProbeStage):
                plan = stage.plan
                build = outputs[stage.build_pid]
                left_ids, right_ids = match_pairs(
                    host[plan.left_on], build.handle(plan.right_on).peek()
                )
                needed = stage.keep
                new_host, new_meta = {}, {}
                for name in host:
                    if needed is not None and name not in needed:
                        continue
                    new_host[name] = host[name][left_ids]
                    new_meta[name] = meta[name]
                for name, handle in build.columns.items():
                    if needed is not None and name not in needed:
                        continue
                    new_host[name] = handle.peek()[right_ids]
                    new_meta[name] = build.meta[name]
                host, meta = new_host, new_meta
                num_rows = len(left_ids)
                row_limit = None  # joins drop the annotation, like eager
                table_bytes = (
                    backend.HASH_SLOT_BYTES
                    * backend.HASH_TABLE_OVERALLOC
                    * max(build.num_rows, 1)
                )
                flops += 6.0  # hash + probe chain per streamed row
                fixed_flops += 10.0 * build.num_rows  # table build
                fixed_bytes += 2.0 * table_bytes + float(
                    sum(
                        handle.itemsize * len(handle)
                        for handle in build.columns.values()
                    )
                )
                ops.append(f"probe[{plan.left_on}={plan.right_on}]")
            elif isinstance(stage, SemiProbeStage):
                plan = stage.plan
                build = outputs[stage.build_pid]
                key_handle = build.handle(plan.right_on)
                build_keys = (
                    key_handle.data
                    if isinstance(key_handle, _HostColumn)
                    else key_handle.peek()
                )
                mask = np.isin(host[plan.left_on], build_keys)
                if plan.anti:
                    mask = ~mask
                # Ascending row ids: the same order the eager path's
                # unique/setdiff1d over matched ids produces.
                ids = np.flatnonzero(mask).astype(np.int64)
                needed = stage.keep
                new_host, new_meta = {}, {}
                for name in host:
                    if needed is not None and name not in needed:
                        continue
                    new_host[name] = host[name][ids]
                    new_meta[name] = meta[name]
                host, meta = new_host, new_meta
                num_rows = len(ids)
                row_limit = None  # joins drop the annotation, like eager
                table_bytes = (
                    backend.HASH_SLOT_BYTES
                    * backend.HASH_TABLE_OVERALLOC
                    * max(build.num_rows, 1)
                )
                flops += 6.0  # hash + membership chain per streamed row
                fixed_flops += 10.0 * build.num_rows  # table build
                fixed_bytes += 2.0 * table_bytes + float(
                    sum(
                        handle.itemsize * len(handle)
                        for handle in build.columns.values()
                    )
                )
                kind = "anti" if plan.anti else "semi"
                ops.append(f"{kind}[{plan.left_on}={plan.right_on}]")
            else:  # LimitStage
                n = stage.plan.n
                row_limit = n if row_limit is None else min(n, row_limit)
                ops.append(f"limit {n}")

        sink = pipeline.sink
        if isinstance(sink, GroupBySink):
            return self._fused_group_by(
                sink.plan,
                host,
                meta,
                num_rows,
                n_input,
                read_per_row,
                flops,
                fixed_flops,
                fixed_bytes,
                ops,
            )
        # Stream the surviving rows out: the kernel's only DRAM writes.
        out_bytes = float(sum(array.nbytes for array in host.values()))
        ops.append("stream-out")
        backend.launch_fused(
            "|".join(ops),
            n_input,
            flops=flops,
            read=read_per_row,
            written=out_bytes / max(n_input, 1),
            fixed_flops=fixed_flops,
            fixed_bytes=fixed_bytes,
        )
        columns = {
            name: backend._wrap(array, f"compiled::{name}")
            for name, array in host.items()
        }
        relation = _Relation(
            columns=columns, meta=meta, num_rows=num_rows, row_limit=row_limit
        )
        if isinstance(sink, SortSink):
            return ex._apply_order_by(relation, sink.plan)
        if isinstance(sink, TopKSink):
            return ex._apply_top_k(relation, sink.plan)
        return relation

    # -- fused aggregation --------------------------------------------------------

    def _expr_values(
        self, expr: Optional[Expr], host: Dict[str, np.ndarray]
    ) -> np.ndarray:
        assert expr is not None
        if isinstance(expr, ColRef):
            if expr.name not in host:
                raise PlanError(
                    f"column {expr.name!r} not available "
                    f"(have: {', '.join(host)})"
                )
            return host[expr.name]
        return np.asarray(expr.evaluate(host))

    def _composite_key_host(
        self,
        keys: Tuple[str, ...],
        host: Dict[str, np.ndarray],
        meta: Dict[str, ColumnMeta],
    ) -> Tuple[np.ndarray, List[int]]:
        """Host mirror of ``QueryExecutor._composite_key`` (same strides,
        same expression arithmetic, same derived-key guard)."""
        if keys[0] not in host:
            raise PlanError(
                f"column {keys[0]!r} not available (have: {', '.join(host)})"
            )
        if len(keys) == 1:
            return host[keys[0]], [1]
        for key in keys[1:]:
            if meta[key].max_value < 0:
                raise PlanError(
                    f"group-by key {key!r} has no known value bound (it is "
                    "a derived column); place it first in the key list or "
                    "group by the base columns it derives from"
                )
        strides = [meta[k].max_value + 1 for k in keys]
        expr: Expr = ColRef(keys[0])
        for key, stride in zip(keys[1:], strides[1:]):
            expr = expr * Lit(stride) + ColRef(key)
        return np.asarray(expr.evaluate(host)), strides

    def _fused_group_by(
        self,
        plan: GroupBy,
        host: Dict[str, np.ndarray],
        meta: Dict[str, ColumnMeta],
        num_rows: int,
        n_input: int,
        read_per_row: float,
        flops: float,
        fixed_flops: float,
        fixed_bytes: float,
        ops: List[str],
    ) -> _Relation:
        ex = self.executor
        backend = self.backend
        aggregates = plan.aggregates
        if not plan.keys:
            # Global aggregation: the reductions ride inside the fused
            # kernel; only the scalar results cross back to the host.
            columns: Dict[str, _HostColumn] = {}
            out_meta: Dict[str, ColumnMeta] = {}
            for aggregate in aggregates:
                if aggregate.kind == "count" and aggregate.expr is None:
                    scalar = float(num_rows)
                else:
                    values = self._expr_values(aggregate.expr, host)
                    scalar = reduction_host(values, aggregate.kind)
                    flops += 1.0
                if aggregate.kind == "count":
                    columns[aggregate.name] = _HostColumn(
                        np.asarray([int(scalar)], dtype=np.int64)
                    )
                    out_meta[aggregate.name] = ColumnMeta(ctype=ColumnType.INT64)
                else:
                    columns[aggregate.name] = _HostColumn(
                        np.asarray([scalar], dtype=np.float64)
                    )
                    out_meta[aggregate.name] = ColumnMeta(
                        ctype=ColumnType.FLOAT64
                    )
            ops.append(f"agg[{len(aggregates)}]")
            backend.launch_fused(
                "|".join(ops),
                n_input,
                flops=flops,
                read=read_per_row,
                written=0.0,
                fixed_flops=fixed_flops,
                fixed_bytes=fixed_bytes + 8.0 * len(aggregates),
            )
            backend.device.transfer_to_host(
                8 * max(len(aggregates), 1), "fused_agg_result"
            )
            return _Relation(columns=columns, meta=out_meta, num_rows=1)

        key_data, strides = self._composite_key_host(plan.keys, host, meta)
        agg_columns: Dict[str, np.ndarray] = {}
        agg_meta: Dict[str, ColumnMeta] = {}
        # Every aggregate groups by the same key: group once.
        grouping = group_rows(key_data)
        unique_keys = grouping[0]
        for aggregate in aggregates:
            if aggregate.kind == "count" and aggregate.expr is None:
                values = key_data  # values are ignored for counts
            else:
                values = self._expr_values(aggregate.expr, host)
            agg_columns[aggregate.name] = grouped_aggregate_host(
                key_data, values, aggregate.kind, grouping
            )[1]
            agg_meta[aggregate.name] = ColumnMeta(
                ctype=ColumnType.INT64
                if aggregate.kind == "count"
                else ColumnType.FLOAT64
            )
        groups = len(unique_keys)
        # The partial aggregation is INSIDE the fused kernel (per-tile
        # hash tables); only the partial-merge breaks the pipeline.
        group_row_bytes = 8.0 + 8.0 * len(aggregates)
        table_bytes = (
            backend.HASH_SLOT_BYTES
            * backend.HASH_TABLE_OVERALLOC
            * max(groups, 1)
        )
        ops.append(f"partial-agg[{len(aggregates)}]")
        backend.launch_fused(
            "|".join(ops),
            n_input,
            flops=flops + 10.0 + 2.0 * len(aggregates),
            read=read_per_row,
            written=groups * group_row_bytes / max(n_input, 1),
            fixed_flops=fixed_flops,
            fixed_bytes=fixed_bytes + 2.0 * table_bytes,
        )
        backend.runtime._charge(
            f"groupmerge[{len(aggregates)} aggs]",
            groups,
            flops=2.0 * len(aggregates),
            read=group_row_bytes,
            written=group_row_bytes,
            passes=2,
        )
        # Same host round-trip as the eager group-by: composite keys come
        # down, decomposed per-column keys go back up.
        out_keys = backend._wrap(unique_keys, "compiled::group_keys")
        composite = backend.download(out_keys).astype(np.int64)
        shim = _Relation(columns={}, meta=meta, num_rows=groups)
        key_columns = ex._decompose_keys(plan.keys, composite, strides, shim)
        ordered: Dict[str, object] = {}
        ordered_meta: Dict[str, ColumnMeta] = {}
        for name, (data, key_meta) in key_columns.items():
            ordered[name] = backend.upload(data, label=f"groupkey.{name}")
            ordered_meta[name] = key_meta
        for name, values in agg_columns.items():
            ordered[name] = backend._wrap(values, "compiled::group_values")
        ordered_meta.update(agg_meta)
        return _Relation(columns=ordered, meta=ordered_meta, num_rows=groups)
