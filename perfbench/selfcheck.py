"""Determinism self-check of the benchmark.

Usage, from the repository root::

    python3 perfbench/selfcheck.py [--workloads W ...] [--seeds 1 2]
                                   [--seconds 1]

For each workload and each of two seeds it runs ``run.py`` three times
(untraced twice, traced once, each in its own process) and requires:

* the simulated end-to-end figures and every per-pass count to be
  bit-identical between the two untraced reruns;
* the traced pass to repeat the untraced figures exactly, which shows
  tracing adds no simulated time;
* the span counts (calls, pipelines, join pairs) to be identical on
  both seeds' reruns of the traced pass, and the two seeds to give
  different inputs (their figures differ).

Within a run, ``run.py`` already fails its correctness check when any
pass disagrees with the first.  The exit code is 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench") / "selfcheck"
WORKLOADS = ("tpch-resident", "tpch-spill", "serve-open", "serve-updates")


def run(workload: str, seed: int, seconds: float, trace: int, tag: str):
    out = OUT / tag
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n"
                           f"{completed.stdout}\n{completed.stderr}")
    result = json.loads(
        (out / f"{workload}.seed{seed}.trace{trace}.json").read_text()
    )
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: "
                           f"{result['check_errors']}")
    return result["deterministic"]


def differences(want: dict, got: dict, label: str):
    """Keys present in both whose values are not bit-identical."""
    return [
        f"{label}: {key} {got[key]!r} != {want[key]!r}"
        for key in sorted(want.keys() & got.keys())
        if want[key] != got[key]
    ]


def check(workload: str, seeds, seconds: float):
    problems = []
    per_seed = {}
    for seed in seeds:
        first = run(workload, seed, seconds, 0, "a")
        again = run(workload, seed, seconds, 0, "b")
        traced = run(workload, seed, seconds, 1, "a")["traced"]
        label = f"{workload} seed {seed}"
        for part in ("sim", "figures"):
            problems += differences(first[part], again[part],
                                    f"{label} rerun {part}")
            problems += differences(first[part], traced[part],
                                    f"{label} traced {part}")
        per_seed[seed] = (first, traced["span_counts"])
    for seed in seeds:
        again = run(workload, seed, seconds, 1, "b")["traced"]
        problems += differences(per_seed[seed][1], again["span_counts"],
                                f"{workload} seed {seed} span counts")
    (one, _), (two, _) = (per_seed[seed] for seed in seeds[:2])
    if one["sim"] == two["sim"]:
        problems.append(f"{workload}: seeds {seeds[:2]} gave the same inputs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs=2, type=int, default=[1, 2])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workloads:
        found = check(workload, args.seeds, args.seconds)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        for problem in found:
            print(f"  {problem}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
