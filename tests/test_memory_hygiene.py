"""Device-memory hygiene: intermediates are released, sessions pin only
what they cache, and repeated query workloads do not leak."""

import gc
import inspect
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core import col_lt
from repro.errors import DeviceMemoryError
from repro.gpu import GTX_1080TI, Device
from repro.query import GpuSession, QueryExecutor, scan
from repro.relational import Column, Table
from repro.serve import OpenLoopWorkload, QueryServer, QuerySpec, ServerConfig
from repro.tpch import ALL_QUERIES, TpchGenerator, q1, q3, q6, q8, q9, q12


@pytest.fixture
def catalog(rng):
    return {
        "t": Table("t", [
            Column.from_values("a", rng.integers(0, 100, 5_000).astype(np.int32)),
            Column.from_values("b", rng.random(5_000)),
        ])
    }


@pytest.mark.parametrize("backend_name", ["thrust", "boost.compute",
                                          "arrayfire", "handwritten"])
class TestNoLeaks:
    def test_query_intermediates_are_collected(self, catalog, framework,
                                               backend_name):
        backend = framework.create(backend_name)
        executor = QueryExecutor(backend, catalog)
        result = executor.execute(
            scan("t").filter(col_lt("a", 50)).build()
        )
        del result
        gc.collect()
        assert backend.device.memory.used_bytes == 0
        assert backend.device.memory.live_buffer_count == 0

    def test_repeated_queries_do_not_grow_memory(self, catalog, framework,
                                                 backend_name):
        backend = framework.create(backend_name)
        executor = QueryExecutor(backend, catalog)
        plan = scan("t").filter(col_lt("a", 50)).build()
        executor.execute(plan)
        gc.collect()
        baseline = backend.device.memory.used_bytes
        for _ in range(5):
            executor.execute(plan)
        gc.collect()
        assert backend.device.memory.used_bytes <= baseline

    def test_operator_results_freed_on_drop(self, framework, backend_name,
                                            rng):
        backend = framework.create(backend_name)
        data = rng.integers(0, 100, 10_000).astype(np.int32)
        handle = backend.upload(data)
        sorted_handle = backend.sort(handle)
        gc.collect()
        in_use = backend.device.memory.used_bytes
        del sorted_handle
        gc.collect()
        assert backend.device.memory.used_bytes < in_use
        del handle
        gc.collect()
        assert backend.device.memory.used_bytes == 0


class TestSessionPinning:
    def test_session_pins_only_cached_columns(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        session = GpuSession(backend, catalog)
        session.execute(q6.plan())
        session.execute(q1.plan())
        gc.collect()
        # Device usage equals exactly the resident columns' bytes
        # (alignment rounds each buffer up to 256B).
        resident = session.resident_bytes
        used = backend.device.memory.used_bytes
        assert used >= resident
        assert used <= resident + 256 * len(session.resident_columns)

    def test_eviction_returns_to_zero(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        session = GpuSession(backend, catalog)
        session.execute(q6.plan())
        session.evict()
        gc.collect()
        assert backend.device.memory.used_bytes == 0

    def test_close_releases_everything_and_is_idempotent(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        session = GpuSession(backend, catalog)
        session.execute(q6.plan())
        session.close()
        session.close()  # idempotent
        gc.collect()
        assert backend.device.memory.used_bytes == 0
        with pytest.raises(RuntimeError):
            session.execute(q6.plan())

    def test_context_manager_closes_the_session(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        with GpuSession(backend, catalog) as session:
            session.execute(q6.plan())
            assert session.resident_bytes > 0
        gc.collect()
        assert backend.device.memory.used_bytes == 0

    def test_peak_memory_reported_per_query(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        backend = framework.create("thrust")
        executor = QueryExecutor(backend, catalog)
        report = executor.execute(q1.plan()).report
        assert report.peak_device_bytes > 0
        # Peak must cover at least the uploaded scan columns.
        lineitem = catalog["lineitem"]
        needed = sum(
            lineitem.column(c).nbytes
            for c in ("l_returnflag", "l_linestatus", "l_quantity",
                      "l_extendedprice", "l_discount", "l_tax",
                      "l_shipdate")
        )
        assert report.peak_device_bytes >= needed


class TestPooledDeviceHygiene:
    """The full TPC-H suite on a pooled device leaks nothing.

    Pool blocks parked in freelists are *cached*, not leaked — but after
    ``session.close()`` (evict + trim) the device must be back to zero
    used bytes with zero live buffers, and the pool must hold nothing.
    """

    @pytest.mark.parametrize("backend_name", ["thrust", "handwritten"])
    def test_full_suite_leaves_no_pool_blocks(self, framework, backend_name):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        device = Device(GTX_1080TI, allocator="pool")
        backend = framework.create(backend_name, device=device)
        session = GpuSession(backend, catalog)
        for module in ALL_QUERIES.values():
            if "catalog" in inspect.signature(module.plan).parameters:
                plan = module.plan(catalog)
            else:
                plan = module.plan()
            result = session.execute(plan)
            assert result.table.num_rows >= 0
        del result
        session.close()
        gc.collect()
        device.trim_pool()  # anything finalizers returned post-close
        assert device.pool.in_use_blocks == 0
        assert device.pool.cached_blocks == 0
        assert device.memory.used_bytes == 0
        assert device.memory.live_buffer_count == 0
        assert device.memory.leaked_buffers() == ()

    def test_pool_reuses_blocks_across_queries(self, framework):
        catalog = TpchGenerator(scale_factor=0.003, seed=23).generate()
        device = Device(GTX_1080TI, allocator="pool")
        backend = framework.create("thrust", device=device)
        executor = QueryExecutor(backend, catalog)
        executor.execute(q6.plan())
        gc.collect()
        first = device.pool.stats()
        executor.execute(q6.plan())
        gc.collect()
        second = device.pool.stats()
        # The repeat run is served mostly from freelists.
        assert second.hits - first.hits > second.misses - first.misses


class TestDeviceRefcountHygiene:
    """A dropped device is freed by reference counting alone.

    A reference cycle through the device (say device -> stream -> device)
    would keep it, and every profiler event it recorded, alive until a
    full cyclic collection — a memory high-water mark that grows with
    each served pass instead of staying flat.
    """

    def test_dropped_server_frees_device_hygiene(self, framework):
        catalog = TpchGenerator(scale_factor=0.002, seed=5).generate()
        specs = [QuerySpec("q1", q1.plan()), QuerySpec("q3", q3.plan(catalog)),
                 QuerySpec("q6", q6.plan())]
        gc.collect()
        gc.disable()
        try:
            device = Device(GTX_1080TI)
            server = QueryServer(
                framework.create("handwritten", device), catalog,
                ServerConfig(num_streams=2, plan_cache=False,
                             result_cache=False),
            )
            report = server.run(
                OpenLoopWorkload(specs, rate=1000.0, num_requests=6, seed=1)
            )
            assert sum(record.completed for record in report.records) == 6
            assert len(device.profiler.events) > 0
            server.close()
            dropped = weakref.ref(device)
            del device, server, report
            assert dropped() is None
        finally:
            gc.enable()


class TestOomRetryHygiene:
    """An OOM'd attempt's device buffers are freed by reference counting.

    The chunked retry runs with no full collection, so neither a failed
    whole-plan attempt nor a failed chunked attempt may leave its
    buffers in a reference cycle: with the collector disabled, every
    execution, recovered or not, returns the device to its pre-attempt
    buffer count.
    """

    @pytest.mark.parametrize("backend_name", [
        "handwritten", "compiled", "thrust", "boost.compute", "arrayfire",
        "cudf",
    ])
    def test_oom_retry_frees_failed_attempts_hygiene(self, framework,
                                                     backend_name):
        catalog = TpchGenerator(scale_factor=0.002, seed=5).generate()
        memory = sum(table.nbytes for table in catalog.values()) // 4
        plans = [q1.plan(), q3.plan(catalog), q8.plan(catalog),
                 q9.plan(catalog), q12.plan(catalog)]
        recovered = 0
        gc.collect()
        gc.disable()
        try:
            for plan in plans:
                device = Device(replace(GTX_1080TI, memory_bytes=memory))
                executor = QueryExecutor(
                    framework.create(backend_name, device), catalog
                )
                before = device.memory.live_buffer_count
                try:
                    result = executor.execute(plan)
                except DeviceMemoryError:
                    pass
                else:
                    recovered += result.report.oom_recovery_chunks is not None
                    del result
                assert device.memory.live_buffer_count == before
        finally:
            gc.enable()
        assert recovered >= 3  # the retry path ran, and succeeded
