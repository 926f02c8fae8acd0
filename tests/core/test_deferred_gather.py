"""Deferred, composed gathers on the handwritten-family backends.

``HandwrittenBackend.gather`` (inherited by ``compiled`` and
``cpu-simd``) checks bounds and charges its kernel eagerly but returns a
handle whose host mirror is the pair (base array, int64 index),
materialized on first host read.  Gathering from such a handle composes
the indexes instead of copying rows.  These tests pin that the deferral
is invisible: same values and dtypes as eager fancy indexing, same
errors at the same point, and the same profiler events as the eager
implementation, recorded in ``golden/q8_handwritten_family_events.json``.

Regenerate the golden after an *intentional* cost or event change with::

    PYTHONPATH=src python tests/core/test_deferred_gather.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import HandwrittenBackend
from repro.core.compiled_backend import CompiledBackend
from repro.core.handwritten_backend import _compose
from repro.cpu.backend import CpuSimdBackend
from repro.gpu import Device
from repro.query import QueryExecutor
from repro.tpch import TpchGenerator, q8

GOLDEN = Path(__file__).parent / "golden" / "q8_handwritten_family_events.json"

#: Backends whose Q8 event streams are pinned, by golden-file key.
_GOLDEN_BACKENDS = {
    "handwritten": lambda: HandwrittenBackend(Device()),
    "compiled-fusion-off": lambda: CompiledBackend(Device(), fusion="off"),
}


def _q8_events(make_backend):
    catalog = TpchGenerator(scale_factor=0.002, seed=7).generate()
    backend = make_backend()
    QueryExecutor(backend, catalog).execute(q8.plan(catalog))
    return [
        [event.kind, event.name, event.start, event.duration, event.payload]
        for event in backend.device.profiler.events
    ]


def _render():
    return {key: _q8_events(make) for key, make in _GOLDEN_BACKENDS.items()}


def _deferred(handle):
    return handle.deferred_parts()[1] is not None


#: The handwritten family: the backend and the two that inherit gather.
_FAMILY = {
    "handwritten": lambda: HandwrittenBackend(Device()),
    "compiled": lambda: CompiledBackend(Device(), fusion="off"),
    "cpu-simd": CpuSimdBackend,
}


@pytest.fixture(params=sorted(_FAMILY))
def backend(request):
    return _FAMILY[request.param]()


class TestEagerSemantics:
    def test_out_of_range_ids_raise_at_gather_time(self, backend):
        source = backend.upload(np.arange(10, dtype=np.int32))
        ids = backend.upload(np.array([0, 10], dtype=np.int64))
        before = len(backend.device.profiler.events)
        with pytest.raises(IndexError):
            backend.gather(source, ids)
        # Nothing is charged or allocated for a rejected gather.
        assert len(backend.device.profiler.events) == before

    def test_negative_ids_raise_at_gather_time(self, backend):
        source = backend.upload(np.arange(10, dtype=np.int32))
        ids = backend.upload(np.array([-1], dtype=np.int64))
        with pytest.raises(IndexError):
            backend.gather(source, ids)

    def test_out_of_range_ids_into_a_deferred_source_raise(self, backend):
        base = backend.upload(np.arange(10, dtype=np.int32))
        deferred = backend.gather(base, backend.upload(np.array([1, 2, 3])))
        with pytest.raises(IndexError):
            backend.gather(deferred, backend.upload(np.array([3])))

    def test_filter_join_sort_chain_equals_eager_indexing(self, backend, rng):
        columns = {
            "i32": rng.integers(-50, 50, 500).astype(np.int32),
            "f64": rng.normal(size=500),
            "u32": rng.integers(0, 9, 500).astype(np.uint32),
        }
        handles = {name: backend.upload(data) for name, data in columns.items()}
        filter_ids = np.flatnonzero(columns["i32"] > 0)
        join_ids = rng.integers(0, len(filter_ids), 700)
        order = np.argsort(rng.normal(size=700), kind="stable")
        ids_handles = [
            backend.upload(ids) for ids in (filter_ids, join_ids, order)
        ]
        for name, data in columns.items():
            handle = handles[name]
            expected = data
            for ids, ids_handle in zip(
                (filter_ids, join_ids, order), ids_handles
            ):
                handle = backend.gather(handle, ids_handle)
                expected = expected[ids]
            assert handle.dtype == expected.dtype
            assert handle.peek().dtype == expected.dtype
            np.testing.assert_array_equal(handle.peek(), expected)
            np.testing.assert_array_equal(backend.download(handle), expected)

    def test_int32_ids_gather_like_int64(self, backend):
        source = backend.upload(np.arange(100, 200, dtype=np.int64))
        ids = np.array([5, 0, 99, 5], dtype=np.int32)
        once = backend.gather(source, backend.upload(ids))
        twice = backend.gather(once, backend.upload(np.array([3, 1], np.int32)))
        np.testing.assert_array_equal(once.peek(), np.arange(100, 200)[ids])
        np.testing.assert_array_equal(twice.peek(), [105, 100])

    def test_empty_gathers(self, backend):
        source = backend.upload(np.arange(4, dtype=np.float32))
        empty = backend.gather(source, backend.upload(np.empty(0, np.int64)))
        assert len(empty) == 0 and empty.dtype == np.float32
        again = backend.gather(empty, backend.upload(np.empty(0, np.int64)))
        assert again.peek().shape == (0,)
        assert again.peek().dtype == np.float32


class TestMaterialization:
    def test_introspection_does_not_materialize(self, backend):
        source = backend.upload(np.arange(1_000, dtype=np.int32))
        ids = backend.upload(np.arange(0, 1_000, 3))
        gathered = backend.gather(source, ids)
        assert _deferred(gathered)
        assert len(gathered) == 334
        assert gathered.dtype == np.int32
        assert gathered.itemsize == 4
        assert gathered.nbytes == 334 * 4
        assert _deferred(gathered)

    def test_materializes_at_most_once(self, backend):
        source = backend.upload(np.arange(50, dtype=np.int64))
        gathered = backend.gather(source, backend.upload(np.arange(10)))
        first = gathered.peek()
        assert not _deferred(gathered)
        assert gathered.peek() is first
        assert gathered.data is first
        assert backend.download(gathered) is not first

    def test_mirrors_are_read_only(self, backend):
        source = backend.upload(np.arange(8, dtype=np.int64))
        gathered = backend.gather(source, backend.upload(np.array([1, 2])))
        for handle in (source, gathered, backend.iota(4)):
            with pytest.raises(ValueError):
                handle.peek()[0] = 7
        # Downloads are private copies and stay writable.
        host = backend.download(gathered)
        host[0] = 7
        np.testing.assert_array_equal(gathered.peek(), [1, 2])

    def test_carried_columns_share_one_composition(self, backend):
        """k columns carried through one join compose their index once."""
        data = [np.arange(i, i + 40, dtype=np.int64) for i in range(3)]
        first_ids = backend.upload(np.arange(0, 40, 2))
        second_ids = backend.upload(np.array([9, 0, 4]))
        carried = [
            backend.gather(backend.upload(d), first_ids) for d in data
        ]
        outputs = [backend.gather(c, second_ids) for c in carried]
        indexes = {id(out.deferred_parts()[1]) for out in outputs}
        assert len(indexes) == 1
        for out, d in zip(outputs, data):
            np.testing.assert_array_equal(out.peek(), d[0:40:2][[9, 0, 4]])

    def test_composition_memo_is_not_fooled_by_a_reused_id(self, backend):
        """A memo entry keyed by a dead index's ``id()`` must not be
        served to a different index that happens to reuse the address."""
        ids = backend.upload(np.array([1, 0]))
        for step in range(20):
            base = backend.upload(np.arange(step, step + 30, dtype=np.int64))
            inner = np.array([step % 7, (step + 3) % 11, 29 - step % 5])
            deferred = backend.gather(base, backend.upload(inner))
            out = backend.gather(deferred, ids)
            np.testing.assert_array_equal(
                out.peek(), np.arange(step, step + 30)[inner][[1, 0]]
            )
            del base, deferred, out

    def test_stale_memo_entry_with_the_same_id_is_ignored(self):
        """The guard itself: an entry whose key matches ``id(inner)`` but
        which was made for another array is recomputed, not served."""
        inner = np.array([4, 3, 2, 1, 0])
        outer = np.array([0, 4])
        impostor = np.array([0, 1, 2, 3, 4])
        memo = {("compose", id(inner)): (impostor, impostor[outer])}
        composed = _compose(memo, inner, outer)
        np.testing.assert_array_equal(composed, [4, 0])
        assert memo[("compose", id(inner))][0] is inner
        assert _compose(memo, inner, outer) is composed

    def test_writable_foreign_mirror_is_gathered_eagerly(self, backend):
        """A source handle whose mirror someone may still write (not made
        by the backend) is copied at gather time, never deferred."""
        data = np.arange(6, dtype=np.int64)
        foreign = backend.runtime._materialize(data, "foreign")
        gathered = backend.gather(foreign, backend.upload(np.array([5, 1])))
        assert not _deferred(gathered)
        data[5] = -1
        np.testing.assert_array_equal(gathered.peek(), [5, 1])


class TestEventParity:
    @pytest.mark.parametrize("key", sorted(_GOLDEN_BACKENDS))
    def test_q8_events_equal_the_recorded_sequence(self, key):
        assert GOLDEN.exists(), (
            f"golden file missing: {GOLDEN}; regenerate with "
            "`PYTHONPATH=src python tests/core/test_deferred_gather.py`"
        )
        recorded = json.loads(GOLDEN.read_text())[key]
        assert _q8_events(_GOLDEN_BACKENDS[key]) == recorded


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rendered = _render()
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(key)}: [\n"
            + ",\n".join(json.dumps(event) for event in events)
            + "\n]"
            for key, events in rendered.items()
        )
        + "\n}\n"
    )
    print(f"wrote {GOLDEN}")
