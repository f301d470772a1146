"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 benchmarks/suite/spread.py [--workload W ...]
        [--out benchmarks/suite/results/baseline.json]

For every workload and each of 2 sets, runs the benchmark once per seed
0..9 with BENCHMARK.json's ``run_seconds``, plus one traced run of seed
0.  Per (metric, workload) it reports each set's median and its spread:
the distance between the first and third quartile
(``statistics.quantiles`` with n=4) as a share of the median.  It flags
a spread above the metric's bound, a median that worsens between sets
by more than the bound, and any per-layer count that differs between
the traced runs.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, ROOT, WORKLOADS  # noqa: E402

#: Seeds per set, and sets compared.
SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed")
    return result


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}

    runs: Dict[str, List[Dict]] = {}
    for workload in args.workload or WORKLOADS:
        runs[workload] = []
        for index in range(SETS):
            values = {name: [] for name in bounds}
            for seed in range(SEEDS):
                metrics = run_once(workload, seed, spec["run_seconds"],
                                   0)["metrics"]
                for name in bounds:
                    values[name].append(metrics[name]["value"])
                print(f"{workload} set {index} seed {seed}: " + ", ".join(
                    f"{name} {values[name][-1]:.4f}" for name in bounds),
                    flush=True)
            traced = run_once(workload, 0, spec["run_seconds"], 1)
            runs[workload].append({
                "values": values,
                "per_layer": {name: metric["value"] for name, metric
                              in traced["metrics"].items()}})

    flagged: List[str] = []
    summary: Dict[str, Dict] = {}
    for workload, sets in runs.items():
        summary[workload] = {}
        for name, bound in bounds.items():
            medians = [statistics.median(s["values"][name]) for s in sets]
            spreads = [spread(s["values"][name]) for s in sets]
            sign = 1.0 if bound["better"] == "lower" else -1.0
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            summary[workload][name] = {
                "medians": medians, "spreads": spreads,
                "worsening": drift, "bound": bound["bound"]}
            print(f"{workload:<15}{name:<13} medians "
                  + " ".join(f"{m:.4f}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + f"  worsening {drift:+.3f}  bound {bound['bound']}")
            if max(spreads) > bound["bound"]:
                flagged.append(f"{workload} {name} spread")
            if drift > bound["bound"]:
                flagged.append(f"{workload} {name} median moved")
        for name in sorted(counts):
            layer_values = {s["per_layer"][name] for s in sets}
            if len(layer_values) > 1:
                flagged.append(f"{workload} {name} count differs")
    for flag in flagged:
        print(f"FLAGGED {flag}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"run_seconds": spec["run_seconds"], "seeds": SEEDS,
                       "summary": summary, "runs": runs}, handle, indent=1)
            handle.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
