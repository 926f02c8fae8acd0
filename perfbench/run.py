"""Benchmark of record: one workload, one seed, one measuring window.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpch-resident --seed 1 \
        --seconds 20 --trace 0

Workloads: ``tpch-resident``, ``tpch-spill``, ``serve-open``,
``serve-updates`` (see ``perfbench/workloads.py``).  With ``--trace 0``
the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  Every metric is printed by
name with its unit, the full result (environment, failure causes,
deterministic figures) is written under ``.perfbench/results/``, and the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Host-time metrics are scaled to a reference machine speed by a speed
probe timed between operations (see ``speed_probe``); the unscaled
figures are printed and recorded beside them.

The launcher pins NumPy/BLAS to one thread before NumPy is imported and
loads the program from ``src/`` of the current directory; it exits with
code 2, printing no result, when that directory holds no program.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Set-ups before the first pass, and the share of the measuring window
#: spent timing set-up again between operations; ``setup_s`` is the
#: median of them all, so its samples spread over the whole window.
SETUP_FIRST = 3
SETUP_SHARE = 0.1

#: Seconds between speed probes (see ``speed_probe``).
PROBE_INTERVAL_S = 0.5

OUT_DIR = Path(".perfbench")

#: Host times in the end-to-end metrics are scaled to a reference machine
#: speed: multiplied by this over the time the speed probe took next to
#: them (about its time on an idle 2-core x86-64 VM).
REFERENCE_PROBE_S = 0.0125

#: (name, unit) of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ms_p50", "ms"),
    ("sim_ms_p99", "ms"),
    ("host_ms_p50", "ms"),
    ("host_ms_p99", "ms"),
    ("host_qps", "1/s"),
    ("sim_qps", "1/s"),
)

#: (name, unit) of the per-layer metrics, reported with ``--trace 1``.
#: ``*_ms`` host times are per request (one query execution or one
#: served request) except ``serve.update_ms``, which is per update;
#: counts and simulated times are per pass.
PER_LAYER = (
    ("tpch.generate_s", "s"),
    ("sql.parse_ms", "ms"),
    ("sql.bind_ms", "ms"),
    ("query.optimizer.optimize_ms", "ms"),
    ("query.optimizer.estimate_ms", "ms"),
    ("query.pipeline.lower_ms", "ms"),
    ("query.pipeline.pipelines", "count"),
    ("query.pipeline.fused_segments", "count"),
    ("query.execute_self_ms", "ms"),
    ("query.oom_recovery_chunks", "count"),
    ("relational.hashjoin.join_ms", "ms"),
    ("relational.hashjoin.calls", "count"),
    ("relational.hashjoin.pairs_out", "count"),
    ("gpu.kernel_launches", "count"),
    ("gpu.sim_ms.kernel", "ms"),
    ("gpu.sim_ms.transfer_h2d", "ms"),
    ("gpu.sim_ms.transfer_d2h", "ms"),
    ("gpu.sim_ms.compile", "ms"),
    ("gpu.sim_ms.alloc", "ms"),
    ("gpu.sim_ms.host_io", "ms"),
    ("gpu.kernel_bw_frac", "ratio"),
    ("gpu.h2d_bytes", "bytes"),
    ("gpu.events_per_request", "count"),
    ("hetero.place_ms", "ms"),
    ("hetero.gpu_segments", "count"),
    ("hetero.cpu_segments", "count"),
    ("hetero.staged_bytes", "bytes"),
    ("storage.fetch_ms", "ms"),
    ("storage.promotes", "count"),
    ("storage.spills", "count"),
    ("storage.decoded_bytes", "bytes"),
    ("storage.effective_bandwidth_gain", "ratio"),
    ("query.session.execute_ms", "ms"),
    ("query.session.uploads", "count"),
    ("query.session.evictions", "count"),
    ("serve.self_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.admission_waits", "count"),
    ("serve.stream_busy_frac", "ratio"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.result_cache_hit_rate", "ratio"),
    ("serve.result_cache_invalidations", "count"),
    ("serve.update_ms", "ms"),
    ("sim_suite_ms.handwritten", "ms"),
    ("sim_suite_ms.compiled", "ms"),
    ("sim_suite_ms.thrust", "ms"),
    ("sim_suite_ms.hetero-auto", "ms"),
    ("slo_max_rate", "1/s"),
    ("fail_ratio", "ratio"),
    ("fail.typed_errors", "count"),
    ("fail.shed", "count"),
    ("fail.mismatches", "count"),
    ("trace.overhead_frac", "ratio"),
)

#: Workload figures printed beside the end-to-end metrics of an untraced
#: run, where the workload has them (they are per-layer metrics too).
WORKLOAD_FIGURES = {
    "tpch-resident": ("sim_suite_ms.handwritten", "sim_suite_ms.compiled",
                      "sim_suite_ms.thrust", "sim_suite_ms.hetero-auto",
                      "fail_ratio"),
    "tpch-spill": ("sim_suite_ms.handwritten", "sim_suite_ms.compiled",
                   "fail_ratio"),
    "serve-open": ("slo_max_rate", "fail_ratio"),
    "serve-updates": ("fail_ratio",),
}

#: Span totals (seconds, outermost span of the name) -> per-request metric.
SPAN_TOTALS = {
    "sql.parse": "sql.parse_ms",
    "sql.bind": "sql.bind_ms",
    "query.optimizer.optimize": "query.optimizer.optimize_ms",
    "query.optimizer.estimate": "query.optimizer.estimate_ms",
    "query.pipeline.lower": "query.pipeline.lower_ms",
    "relational.hashjoin.join": "relational.hashjoin.join_ms",
    "hetero.place": "hetero.place_ms",
    "storage.fetch": "storage.fetch_ms",
    "query.session.execute": "query.session.execute_ms",
}

#: Counts the tracer observes at span boundaries -> per-layer metric.
SPAN_COUNTS = {
    "query.pipeline.lower.pipelines": "query.pipeline.pipelines",
    "relational.hashjoin.join.calls": "relational.hashjoin.calls",
    "relational.hashjoin.join.pairs": "relational.hashjoin.pairs_out",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=OUT_DIR / "results",
        help="directory for the full result file",
    )
    return parser.parse_args(argv)


def load_program() -> None:
    """Pin thread pools, then put ``src/`` on the import path."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def environment() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def speed_probe() -> float:
    """Seconds a fixed piece of work takes, best of 3: a NumPy sort,
    gather, reduce and filter over 60k rows and an interpreter loop of
    dict updates, the kinds of work the program's host time is made of.

    It shares no code with the program, so only the machine moves it.
    On a shared virtual machine a core's speed drifts by tens of percent
    over seconds to minutes, and the program's host times drift with it;
    dividing them by the probe's time next to them cancels most of that
    drift.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    values = rng.random(60_000)
    keys = rng.integers(0, 1000, 60_000)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        order = np.argsort(values, kind="stable")
        np.bincount(keys, weights=values[order])
        np.unique(keys)
        _ = values[values > 0.3] * 2.0
        sums: dict = {}
        for i in range(20_000):
            sums[i % 101] = sums.get(i % 101, 0.0) + i * 0.5
        best = min(best, time.perf_counter() - start)
    return best


class Window:
    """Runs a workload's passes until the measuring window is used.

    Untraced only, or (with a tracer) alternating untraced/traced pairs
    whose order flips each pair.  Before every pass, and through the
    workload's ``tick`` between operations whenever ``PROBE_INTERVAL_S``
    has passed since the last probe, the speed probe runs and set-up is
    timed again until it has taken ``SETUP_SHARE`` of the window so far,
    so set-up samples spread over the whole window; that time is taken
    out of the pass's host time.  Traced passes skip the ticks, which
    would otherwise land inside their spans.
    """

    def __init__(self, workload, tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.untraced: list = []
        self.traced: list = []
        #: (``time.perf_counter()`` at its middle, seconds) of each probe.
        self.probes: list = []
        #: (set-up s, catalog generation s, ``time.perf_counter()`` at end).
        self.setups: list = []
        self._paused = 0.0
        self._tracing = False
        self._start = time.perf_counter()
        self._setup_s = 0.0
        #: The workload's state the passes run on, once prepared.
        self._state = None
        workload.tick = self._tick

    def _probe(self) -> None:
        start = time.perf_counter()
        seconds = speed_probe()
        self.probes.append(((start + time.perf_counter()) / 2, seconds))

    def _set_up(self, at_least: int = 0) -> None:
        count = 0
        while (count < at_least or self._setup_s
               < SETUP_SHARE * (time.perf_counter() - self._start)):
            start = time.perf_counter()
            self.workload.setup()
            end = time.perf_counter()
            self._setup_s += end - start
            self.setups.append((end - start, self.workload.generate_s, end))
            if self._state is not None:
                # The passes keep the objects they were prepared with; a
                # later set-up's objects live only while it is timed.
                vars(self.workload).update(self._state)
            count += 1

    def _tick(self) -> None:
        start = time.perf_counter()
        if self._tracing or start - self.probes[-1][0] < PROBE_INTERVAL_S:
            return
        self._probe()
        self._set_up()
        self._paused += time.perf_counter() - start

    def _pass(self, traced: bool) -> None:
        self._probe()
        self._set_up()
        self._paused = 0.0
        self._tracing = traced
        if traced:
            since = self.tracer.mark()
            self.tracer.install()
            try:
                result = self.workload.run_pass(self.tracer)
            finally:
                self.tracer.uninstall()
                self._tracing = False
            self.traced.append(((since, self.tracer.mark()), result))
        else:
            result = self.workload.run_pass()
            self.untraced.append(result)
        result.host_s -= self._paused

    def measure(self, seconds: float) -> None:
        self._probe()
        self._set_up(SETUP_FIRST)
        self.workload.prepare()
        self._state = dict(vars(self.workload))
        self._start = time.perf_counter()
        pair = 0
        while True:
            if self.tracer is None:
                self._pass(False)
            else:
                for traced in ((False, True) if pair % 2 == 0
                               else (True, False)):
                    self._pass(traced)
                pair += 1
            elapsed = time.perf_counter() - self._start
            done = len(self.untraced) + len(self.traced)
            per_step = elapsed / done * (1 if self.tracer is None else 2)
            if elapsed + per_step > seconds:
                self._probe()
                return

    def slowness(self, start: float, end: float) -> float:
        """How much slower than the reference the machine ran over
        ``[start, end]``: the mean of the last probe before its middle and
        the first after it, over ``REFERENCE_PROBE_S``."""
        times = [at for at, _seconds in self.probes]
        after = bisect.bisect(times, (start + end) / 2)
        before = max(after - 1, 0)
        after = min(after, len(times) - 1)
        return ((self.probes[before][1] + self.probes[after][1]) / 2
                / REFERENCE_PROBE_S)


def determinism_errors(reference, passes):
    """Every pass must repeat the reference pass's simulated figures and
    counts exactly (keys both carry)."""
    errors = []
    for index, result in enumerate(passes):
        for field_name in ("sim", "counts", "failures"):
            want = getattr(reference, field_name)
            got = getattr(result, field_name)
            for key in want.keys() & got.keys():
                if want[key] != got[key]:
                    errors.append(
                        f"pass {index}: {field_name} {key} "
                        f"{got[key]!r} != {want[key]!r}"
                    )
    return errors


def pass_qps(result) -> float:
    """Measured reads per host second of one pass; the host time of the
    operations left out (known-defect executions) is not counted."""
    measured = [op for op in result.ops if op.read and op.measured]
    left_out = sum(op.host_s for op in result.ops if not op.measured)
    return len(measured) / (result.host_s - left_out)


def host_metrics(passes, slowness, setup_s):
    """Host-time metrics over the measured reads (every read but the
    known-defect executions the workload leaves out), each operation's
    time divided by ``slowness(op)``.

    Every pass runs the same operations in the same order, so the
    percentiles are taken over each operation's median time across the
    passes: a moment the machine ran slow moves one pass's sample of an
    operation, not the tail of the pooled samples.
    """
    from workloads import central, smoothed

    per_pass = [[op.host_s * 1e3 / slowness(op)
                 for op in result.ops if op.read and op.measured]
                for result in passes]
    host_ms = [statistics.median(times) for times in zip(*per_pass)]
    qps = []
    for result in passes:
        raw = sum(op.host_s for op in result.ops)
        scaled = sum(op.host_s / slowness(op) for op in result.ops)
        qps.append(pass_qps(result) * raw / scaled)
    return {
        "setup_s": setup_s,
        "host_ms_p50": central(host_ms),
        "host_ms_p99": smoothed(host_ms, 0.99, 0.01),
        "host_qps": statistics.median(qps),
    }


def end_to_end(window):
    """End-to-end metrics, host times scaled to the reference speed, and
    the same host metrics unscaled."""
    passes = window.untraced
    metrics = host_metrics(
        passes,
        lambda op: window.slowness(op.at - op.host_s, op.at),
        statistics.median(
            took / window.slowness(end - took, end)
            for took, _gen, end in window.setups
        ),
    )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    metrics.update(passes[0].sim)
    unscaled = host_metrics(
        passes, lambda op: 1.0,
        statistics.median(took for took, _gen, _end in window.setups),
    )
    return metrics, unscaled


def pass_figures(result):
    """Deterministic per-pass figures: counts plus failure accounting.
    ``fail_ratio`` is over reads (updates are not in its denominator)."""
    figures = dict(result.counts)
    figures["fail_ratio"] = result.failed / result.reads
    figures["fail.typed_errors"] = result.failures.get("typed_error", 0)
    figures["fail.shed"] = result.failures.get("shed", 0)
    figures["fail.mismatches"] = result.failures.get("mismatch", 0)
    return figures


def per_layer(untraced, traced, tracer, generate_s):
    """Per-layer metrics: span times (median over traced passes, per
    request), span counts (checked equal on every traced pass), and the
    deterministic pass figures."""
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    metrics.update(pass_figures(traced[0][1]))
    metrics["tpch.generate_s"] = generate_s
    samples = {name: [] for name in list(SPAN_TOTALS.values()) + [
        "query.execute_self_ms", "serve.self_ms", "serve.update_ms"]}
    span_counts = []
    for window, result in traced:
        requests = max(result.reads, 1)
        totals = tracer.totals(*window)
        for span, metric in SPAN_TOTALS.items():
            samples[metric].append(totals.get(span, 0.0) * 1e3 / requests)
        samples["query.execute_self_ms"].append(
            tracer.self_times(*window).get("query.execute", 0.0) * 1e3
            / requests
        )
        serve_self = totals.get("serve.run", 0.0) - tracer.child_time(
            *window, "serve.run", "query.session.execute"
        )
        samples["serve.self_ms"].append(serve_self * 1e3 / requests)
        updates = sum(1 for op in result.ops if not op.read)
        samples["serve.update_ms"].append(
            totals.get("serve.update", 0.0) * 1e3 / updates if updates else 0.0
        )
        span_counts.append(tracer.info_sums(*window))
    for metric, values in samples.items():
        metrics[metric] = statistics.median(values)
    for span_key, metric in SPAN_COUNTS.items():
        metrics[metric] = span_counts[0].get(span_key, 0)
    errors = [
        f"traced pass {index}: span count {key} {counts.get(key)!r} != "
        f"{span_counts[0].get(key)!r}"
        for index, counts in enumerate(span_counts)
        for key in sorted(counts.keys() | span_counts[0].keys())
        if counts.get(key) != span_counts[0].get(key)
    ]
    untraced_s = statistics.median(r.host_s for r in untraced)
    traced_s = statistics.median(r.host_s for _window, r in traced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, errors, span_counts[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    tracer = Tracer() if args.trace else None
    window = Window(workload, tracer)
    window.measure(args.seconds)
    untraced, traced = window.untraced, window.traced
    probes = [seconds for _at, seconds in window.probes]
    everything = untraced + [result for _window, result in traced]
    first = everything[0]
    errors = determinism_errors(first, everything)
    unexplained = sorted({note for r in everything for note in r.unexplained})

    deterministic = {"sim": first.sim, "figures": pass_figures(first)}
    coverage = {
        "reads_per_pass": first.reads,
        "measured_reads_per_pass": sum(
            1 for op in first.ops if op.read and op.measured
        ),
        "left_out": list(workload.excluded),
    }
    if args.trace:
        unscaled = None
        metrics, span_errors, span_counts = per_layer(
            untraced, traced, tracer,
            statistics.median(gen for _took, gen, _p in window.setups),
        )
        errors += span_errors
        names = PER_LAYER
        traced_first = traced[0][1]
        deterministic["traced"] = {
            "sim": traced_first.sim,
            "figures": pass_figures(traced_first),
            "span_counts": span_counts,
        }
    else:
        metrics, unscaled = end_to_end(window)
        names = END_TO_END
    figures = deterministic["figures"]
    attempted = sum(len(r.ops) for r in everything)
    failed = sum(r.failed for r in everything)
    correct = not errors and not unexplained

    env = environment()
    units = dict(END_TO_END + PER_LAYER)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} traced "
          f"requests/pass={first.reads} cores={env['cores']} "
          f"python={env['python']} numpy={env['numpy']} threads=1")
    for name, unit in names:
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print(f"  host metrics unscaled (speed probe median "
              f"{statistics.median(probes) * 1e3:.2f} ms, reference "
              f"{REFERENCE_PROBE_S * 1e3:.2f} ms): " + ", ".join(
                  f"{key} {value:.6g}" for key, value in unscaled.items()))
        for name in WORKLOAD_FIGURES[args.workload]:
            print(f"  {name:36s} {figures[name]:14.6g} {units[name]}")
        rungs = [(int(key.split("_")[1].split(".")[0]), key, value)
                 for key, value in first.counts.items()
                 if key.startswith("serve.rung_")]
        for _rate, key, value in sorted(rungs):
            print(f"  {key:36s} {value:14.6g} ms")
        print(f"  end-to-end metrics cover "
              f"{coverage['measured_reads_per_pass']} of "
              f"{coverage['reads_per_pass']} reads per pass"
              + (f"; left out (known defect): "
                 f"{', '.join(coverage['left_out'])}"
                 if coverage["left_out"] else ""))
    causes = sorted(getattr(workload, "failure_log", ()))
    stale = getattr(workload, "stale_queries", [])
    print(f"  failed {failed}/{attempted}: typed errors "
          f"{figures['fail.typed_errors']}, shed {figures['fail.shed']}, "
          f"mismatches {figures['fail.mismatches']} per pass")
    for cause in causes:
        print(f"    typed error: {cause}")
    if stale:
        print(f"    stale reads after update_table: {', '.join(stale)}")
    for problem in errors + unexplained:
        print(f"    CHECK FAILED: {problem}")

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": sum(r.reads for r in untraced),
        "coverage": coverage,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failure_causes": {"typed_errors": causes, "stale_reads": stale},
        "check_errors": errors + unexplained,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in units},
        "deterministic": deterministic,
        "setup_samples": window.setups,
        "speed_probes": window.probes,
        "unscaled_host_metrics": unscaled,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        spans_dir = args.out.parent / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{stem}.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
