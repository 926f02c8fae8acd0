"""Streams, events, and per-engine timelines for the simulated GPU.

Real CUDA devices expose asynchronous *streams*: FIFO queues of work whose
items execute concurrently with other streams as long as the hardware
engines allow it.  The hardware has a small, fixed set of engines — one
DMA copy engine per direction and the compute (SM) engine — and each
engine executes at most one work item at a time.  ``cudaMemcpyAsync`` on
one stream therefore overlaps with a kernel on another stream, which is
the first-order tuning knob for PCIe-bound database scans.

The simulator mirrors that model:

* an :class:`EngineTimeline` per engine enforces mutual exclusion — a new
  item starts no earlier than the engine's previous item finished;
* a :class:`Stream` keeps FIFO order — each enqueued item starts no
  earlier than the stream's previous item finished;
* :class:`StreamEvent` carries a completion timestamp from
  :meth:`Stream.record_event` to :meth:`Stream.wait_event`, ordering work
  *across* streams.

Scheduling is eager: because simulated durations are known at enqueue
time, each item's start/end is resolved immediately as
``start = max(stream cursor, engine free time, waited events)``.  The
global :class:`~repro.gpu.clock.SimulatedClock` only ever advances to the
maximum end time seen so far, so it stays monotonic while independent
work interleaves *behind* it on the per-engine timelines.

Work submitted without a stream uses the *legacy default stream*
(CUDA's stream 0): it first drains every engine, runs exclusively, and
bars later async work from starting before it finished.  In a program
that never creates a stream this degenerates to the strictly serial
timeline the simulator had before streams existed — bit-for-bit, which
``tests/gpu/test_stream_properties.py`` pins down.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import List, TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.device import Device

#: Engine identifiers.  Discrete GPUs have one DMA engine per transfer
#: direction plus the SM array; compiles happen on the host driver.
ENGINE_COMPUTE = "compute"
ENGINE_H2D = "copy_h2d"
ENGINE_D2H = "copy_d2h"

#: All engine names, in trace-row order.
ENGINES = (ENGINE_COMPUTE, ENGINE_H2D, ENGINE_D2H)

#: Stream id of the legacy default stream.
DEFAULT_STREAM_ID = 0


@dataclass
class EngineTimeline:
    """Occupancy timeline of one hardware engine.

    ``busy_until`` is the completion time of the engine's latest item;
    ``busy_seconds`` accumulates total occupied time (for utilisation
    reports in the overlap benchmark).
    """

    name: str
    busy_until: float = 0.0
    busy_seconds: float = 0.0
    item_count: int = 0

    def schedule(self, earliest: float, duration: float) -> Tuple[float, float]:
        """Place one item: starts at ``max(earliest, busy_until)``.

        Returns the resolved ``(start, end)``.  Exclusivity is structural:
        every item starts at or after the previous item's end.
        """
        if duration < 0.0:
            raise ValueError(f"work item duration cannot be negative: {duration}")
        start = max(earliest, self.busy_until)
        end = start + duration
        self.busy_until = end
        self.busy_seconds += duration
        self.item_count += 1
        return start, end

    def reset(self) -> None:
        """Clear the timeline (between benchmark repetitions)."""
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.item_count = 0


@dataclass
class StreamEvent:
    """A marker recorded into a stream (``cudaEventRecord``).

    The timestamp is the simulated time at which all work enqueued on the
    recording stream *before* the record call completes.  Events are
    single-shot: recorded once, waited on any number of times.
    """

    name: str
    stream_id: int
    timestamp: float
    #: Device epoch at record time; a device reset invalidates the event.
    epoch: int = 0


class Stream:
    """An ordered (FIFO) work queue on a simulated device.

    Streams are created through :meth:`~repro.gpu.device.Device.create_stream`
    and passed to ``Device.launch`` / ``Device.transfer_*`` (or installed
    as the scope default with ``Device.stream_scope``).  Work on distinct
    streams overlaps whenever the engines allow it.

    The stream holds its device weakly: the device owns its streams, and
    a strong back-pointer would make every device with a stream a
    reference cycle that only the cyclic garbage collector could free.
    """

    def __init__(self, device: "Device", stream_id: int, name: str) -> None:
        self._device = weakref.ref(device)
        self.stream_id = stream_id
        self.name = name
        #: Completion time of the latest item enqueued on this stream.
        self._cursor = 0.0
        self._epoch = device.epoch

    @property
    def device(self) -> "Device":
        """The device this stream queues work on."""
        device = self._device()
        if device is None:
            raise ReferenceError(f"the device of stream {self.name!r} is gone")
        return device

    @property
    def cursor(self) -> float:
        """Simulated completion time of the stream's latest work item."""
        return self._cursor

    def _check_epoch(self) -> None:
        if self._epoch != self.device.epoch:
            # The device was reset after this stream was created; restart
            # the stream's timeline from zero (CUDA streams survive only
            # within one measurement run of the simulator).
            self._epoch = self.device.epoch
            self._cursor = 0.0

    def _advance(self, end: float) -> None:
        """Move the FIFO cursor to ``end`` (monotonic)."""
        self._cursor = max(self._cursor, end)

    # -- events ------------------------------------------------------------

    def record_event(self, name: str = "event") -> StreamEvent:
        """Record an event capturing the stream's current position."""
        self._check_epoch()
        return StreamEvent(
            name=name,
            stream_id=self.stream_id,
            timestamp=self._cursor,
            epoch=self._epoch,
        )

    def wait_event(self, event: StreamEvent) -> None:
        """Make all *later* work on this stream wait for ``event``."""
        self._check_epoch()
        if event.epoch != self.device.epoch:
            raise ValueError(
                f"event {event.name!r} was recorded before a device reset "
                "and cannot be waited on"
            )
        self._cursor = max(self._cursor, event.timestamp)

    def raise_floor(self, timestamp: float) -> None:
        """Bar work enqueued later on this stream from starting before
        ``timestamp`` (monotonic; past timestamps are no-ops).

        The serving layer uses this to anchor a request's first work item
        at its dispatch time: a query arriving at t must not be priced as
        if it had been submitted at stream creation."""
        self._check_epoch()
        if timestamp > self._cursor:
            self._cursor = timestamp

    # -- synchronisation ---------------------------------------------------

    def synchronize(self) -> float:
        """Block the host until the stream drains: the global clock
        advances to the stream's cursor.  Returns the new clock time.

        The wait also becomes a submission floor: work enqueued after the
        host resumed — on any stream — cannot start before this point.
        """
        self._check_epoch()
        self.device._raise_submit_floor(self._cursor)
        return self.device.clock.advance_to(self._cursor)

    def __repr__(self) -> str:
        return (
            f"Stream(id={self.stream_id}, name={self.name!r}, "
            f"cursor={self._cursor * 1e3:.3f}ms)"
        )


class StreamPool:
    """A fixed set of streams shared by concurrent queries.

    The multi-query serving layer dispatches each admitted request onto
    the pool stream that frees up earliest (ties broken by stream id, so
    scheduling is deterministic).  Per-stream dispatch counts and busy
    time are tracked for the serving metrics: they show how evenly the
    scheduler spreads requests across the device's queues.
    """

    def __init__(self, device: "Device", size: int, name: str = "serve") -> None:
        if size < 1:
            raise ValueError(f"stream pool needs at least one stream: {size}")
        self.streams: List[Stream] = [
            device.create_stream(f"{name}-{i}") for i in range(size)
        ]
        #: Requests dispatched per stream (index-aligned with ``streams``).
        self.dispatch_counts: List[int] = [0] * size
        #: Simulated seconds each stream spent occupied by its requests.
        self.busy_seconds: List[float] = [0.0] * size

    def __len__(self) -> int:
        return len(self.streams)

    def earliest_available(self) -> float:
        """The soonest time any pool stream can accept new work."""
        return min(stream.cursor for stream in self.streams)

    def acquire(self) -> Stream:
        """The stream that frees up earliest (lowest id on ties)."""
        return min(self.streams, key=lambda s: (s.cursor, s.stream_id))

    def account(self, stream: Stream, busy: float) -> None:
        """Charge one dispatched request's occupancy to ``stream``."""
        index = self.streams.index(stream)
        self.dispatch_counts[index] += 1
        self.busy_seconds[index] += max(busy, 0.0)


@dataclass
class StreamStats:
    """Engine occupancy summary for overlap reporting."""

    makespan: float
    busy_by_engine: dict
    items_by_engine: dict
    #: Sum of per-engine busy time over the makespan; values above 1.0
    #: mean engines genuinely ran concurrently.
    overlap_factor: float = field(default=0.0)


def engine_stats(engines: List[EngineTimeline], makespan: float) -> StreamStats:
    """Summarise engine occupancy over a run of length ``makespan``."""
    busy = {engine.name: engine.busy_seconds for engine in engines}
    items = {engine.name: engine.item_count for engine in engines}
    total_busy = sum(busy.values())
    factor = (total_busy / makespan) if makespan > 0.0 else 0.0
    return StreamStats(
        makespan=makespan,
        busy_by_engine=busy,
        items_by_engine=items,
        overlap_factor=factor,
    )
