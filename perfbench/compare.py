"""Compare two sets of benchmark results, or check the spread of one.

Usage, from the repository root::

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the result files ``run.py`` writes
(``<workload>.seed<n>.trace0.json``; ``--out`` picks the directory).
For every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints the median and quartiles of each set (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.

With one directory, a metric whose spread reaches a third of its bound
is marked ``unsteady``.  With two, it prints the change's delta against
the bound: ``worse`` beyond the bound, ``better`` when the medians
differ by more than the base's spread in the good direction,
``unresolved`` when either side's spread is wider than the bound (unless
every change run beats every base run), and ``unchanged`` otherwise.
Simulated figures of seeds present in both sets are compared exactly,
and the failure counts (``fail_ratio`` and ``fail.*``) must not rise:
per shared seed, or, when no seed is shared, the change's median must
not exceed every base run.  A change that makes more operations fail is
never read as a speed-up.  The
coverage of the end-to-end metrics (reads measured per pass and the
known-defect executions left out) is printed for each set.
The exit code is 1 when any metric is worse or unsteady, or when
failures rise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path):
    """workload -> seed -> result (untraced runs only)."""
    runs = defaultdict(dict)
    for path in sorted(directory.glob("*.trace0.json")):
        result = json.loads(path.read_text())
        runs[result["workload"]][result["seed"]] = result
    return runs


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def worse_by(base, change, better):
    """Relative change, positive when ``change`` is worse than ``base``."""
    if not base:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(metric, base_values, change_values):
    bound = metric.get("bound", 0.0)
    better = metric["better"]
    base_med, _, _, base_spread = summary(base_values)
    change_med, _, _, change_spread = summary(change_values)
    delta = worse_by(base_med, change_med, better)
    if max(base_spread, change_spread) > bound:
        if better == "lower":
            wins = max(change_values) < min(base_values)
        else:
            wins = min(change_values) > max(base_values)
        return ("better" if wins else "unresolved"), delta
    if delta > bound:
        return "worse", delta
    if -delta > base_spread:
        return "better", delta
    return "unchanged", delta


FAILURE_FIGURES = ("fail_ratio", "fail.typed_errors", "fail.shed",
                   "fail.mismatches")


def failures_risen(base_runs, change_runs):
    """Failure figures that rose from base to change: per shared seed
    (they are deterministic per seed), or, when the sets share no seed,
    the change's median above every base run (they vary with the seed)."""
    def figure(run, key):
        return run["deterministic"]["figures"][key]

    shared = sorted(base_runs.keys() & change_runs.keys())
    risen = []
    for key in FAILURE_FIGURES:
        if shared:
            risen += [
                f"{key} seed {seed}: {figure(base_runs[seed], key):g} -> "
                f"{figure(change_runs[seed], key):g}"
                for seed in shared
                if figure(change_runs[seed], key)
                > figure(base_runs[seed], key)
            ]
            continue
        base = max(figure(r, key) for r in base_runs.values())
        change = statistics.median(
            figure(r, key) for r in change_runs.values()
        )
        if change > base:
            risen.append(f"{key}: base max {base:g} -> change median "
                         f"{change:g}")
    return risen


def coverage(runs):
    kinds = {json.dumps(run["coverage"], sort_keys=True)
             for run in runs.values()}
    return "; ".join(sorted(kinds))


def fmt(median, q1, q3, spread):
    return f"{median:12.5g} [{q1:.5g}, {q3:.5g}] {spread * 100:5.1f}%"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--benchmark", type=Path,
                        default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base = load(args.base)
    change = load(args.change) if args.change else None
    failing = False
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base or (change is not None and name not in change):
            print(f"{name}: no results")
            continue
        sides = [base[name]] + ([change[name]] if change is not None else [])
        counts = " vs ".join(str(len(side)) for side in sides)
        print(f"== {name} ({counts} runs)")
        for label, side in zip(("base", "change"), sides):
            print(f"  {label} coverage: {coverage(side)}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [
                [run["metrics"][key]["value"] for run in side.values()]
                for side in sides
            ]
            line = f"  {key:14s} {fmt(*summary(values[0]))}"
            if change is None:
                steady = summary(values[0])[3] < metric["bound"] / 3
                failing |= not steady
                line += "" if steady else "  unsteady"
            else:
                word, delta = verdict(metric, values[0], values[1])
                failing |= word == "worse"
                line += (f"  -> {fmt(*summary(values[1]))}  "
                         f"{delta * 100:+6.1f}% worse (bound "
                         f"{metric['bound'] * 100:.0f}%): {word}")
            print(line)
        if change is not None:
            shared = base[name].keys() & change[name].keys()
            differ = [
                seed for seed in sorted(shared)
                if base[name][seed]["deterministic"]
                != change[name][seed]["deterministic"]
            ]
            if shared:
                print(f"  simulated figures of {len(shared)} shared seeds: "
                      + (f"differ on seeds {differ}" if differ
                         else "identical"))
            risen = failures_risen(base[name], change[name])
            for line in risen:
                print(f"  MORE FAILURES: {line}")
            failing |= bool(risen)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
