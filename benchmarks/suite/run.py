"""Repository benchmark: four STA workloads, host-speed-calibrated times.

Run from the repository root::

    python3 benchmarks/suite/run.py                       # all workloads
    python3 benchmarks/suite/run.py --workload decoder-cached --seed 1
    python3 benchmarks/suite/run.py --workload sta-cli --trace 1
    python -m benchmarks.suite --trace 1 --out /path/result.json

This process never imports ``repro``.  It spawns one child at a time
(``worker.py``, or ``repro sta`` under ``probe.py`` for the sta-cli
samples), each with BLAS pinned to one thread.  Each child samples the
host's speed while it works (:mod:`probe`), and every gated time is
scaled to a reference host speed with it.  Every metric is printed
by name with its unit, every output is checked, and the last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics, or the per-layer metrics with
``--trace 1``.  The exit code is non-zero when a check fails.  See
README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (END_TO_END, HERE, MIN_ROUNDS,  # noqa: E402
                    REFERENCE_SEEDS, ROOT, SRC, UNITS_PER_ROUND, WALL_KEYS, WORKLOADS,
                    check_sta_output, load_reference, percentile,
                    reference_mismatches, sta_args, write_reference)
from layers import PER_LAYER  # noqa: E402
from probe import PROBE_REF_S, calibrated  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
PROBE_SCRIPT = os.path.join(HERE, "probe.py")
#: Each workload's children are killed once this many seconds have
#: passed since the workload started (a run of one workload must end
#: within 180 s).
WORKLOAD_DEADLINE_S = 170.0
#: Default of --seconds, the same as BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 30.0


class BenchError(RuntimeError):
    """A child failed to produce a result; its workload has no metrics.

    ``args[0]`` is the workload's :class:`Run`, whose counts include the
    failed child.
    """


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class Child:
    """One child process, killed if still running at ``deadline`` (a
    ``time.monotonic`` value) and always reaped on leaving the ``with``.

    ``finish`` reaps it with ``os.wait4`` for its own ``ru_maxrss``
    (which covers its reaped descendants).
    """

    def __init__(self, args: List[str], deadline: float,
                 interactive: bool = False):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=ROOT, stdin=subprocess.PIPE if interactive else None)
        self.killer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                      self.proc.kill)
        self.killer.start()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.killer.cancel()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()

    def request(self, line: Optional[str] = None) -> Optional[Dict]:
        """Send ``line``, if any; the child's next JSON line, or None."""
        try:
            if line is not None:
                self.proc.stdin.write(line + "\n")
                self.proc.stdin.flush()
            return json.loads(self.proc.stdout.readline())
        except (OSError, ValueError):
            return None

    def finish(self) -> Tuple[int, str, float]:
        """Close its stdin and wait: (exit code, rest of stdout, RSS MB)."""
        if self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        out = self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, out, usage.ru_maxrss / 1024


class Run:
    """One (workload, seed) run: its children, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.deadline = time.monotonic() + WORKLOAD_DEADLINE_S
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Arrivals of the first timed ``repro sta`` process (sta-cli).
        self.cli_first: Optional[Dict[str, float]] = None

    def check(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def worker(self, round_index: int) -> Child:
        spec = {"workload": self.workload, "seed": self.seed,
                "round": round_index, "trace": self.trace,
                "smoke": self.smoke}
        if self.trace:
            spec["budget"] = self.seconds
        return Child([sys.executable, WORKER, json.dumps(spec)],
                     self.deadline, interactive=not self.trace)

    def request(self, child: Child, line: Optional[str] = None) -> Dict:
        """The worker's reply to ``line``; a worker that does not reply
        is a failed check."""
        reply = child.request(line)
        if reply is None:
            code, _, _ = child.finish()
            self.check([f"worker exited {code} instead of replying"])
            raise BenchError(self)
        return reply

    def finish(self, child: Child) -> Dict:
        """Reap a worker and count its checks; returns its result."""
        code, out, rss = child.finish()
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code != 0 or not out.strip():
            self.check([f"worker exited {code}"])
            raise BenchError(self)
        result = json.loads(out.strip().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        return result

    def time_cli(self, deck: str) -> Tuple[float, Dict]:
        """Time one whole ``repro sta`` process; check its report.

        The process runs the ``repro`` module under ``probe.py``, as
        ``python -m repro`` would; returns its time and probe reading.
        """
        with Child([sys.executable, PROBE_SCRIPT, "repro", *sta_args(deck)],
                   self.deadline) as child:
            code, out, rss = child.finish()
            elapsed = time.perf_counter() - child.started
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        report, _, reading = out.rstrip().rpartition("\n")
        arrivals, problems = check_sta_output(code, report, self.cli_first)
        if self.cli_first is None:
            self.cli_first = arrivals
        self.check(problems)
        try:
            return elapsed, json.loads(reading)
        except ValueError:  # killed before the probe line: already failed
            return elapsed, {"probe_s": None, "probes": 0}

    def compare(self, values: Optional[Dict], update: bool) -> None:
        """Check one round's outputs against the committed reference.

        Seeds with a reference must match it within 1 %; any other seed
        must at least produce the same events (or circuits) as seed 0.
        """
        if self.smoke:
            return
        if values is None:
            self.check(["no outputs to compare with the reference"])
            return
        if update and self.seed in REFERENCE_SEEDS:
            write_reference(self.workload, self.seed, values)
            return
        reference = load_reference(self.workload, self.seed)
        if reference is not None:
            self.check(reference_mismatches(values, reference))
            return
        shape = load_reference(self.workload, 0)
        if shape is not None:
            self.check([] if set(values) == set(shape) else
                       ["outputs have other keys than seed 0's reference"])


class Step:
    """One timed step: its time, the probe's reading over it, and the
    time at the reference host speed."""

    def __init__(self, elapsed: float, reading: Dict):
        self.elapsed = elapsed
        self.probe_s = reading["probe_s"]
        self.calibrated = calibrated(elapsed, self.probe_s)


class Samples:
    """What an untraced run measured."""

    def __init__(self):
        self.setups: List[Step] = []
        self.units: List[Step] = []
        #: Raw per-part timings reported by workers, by sample name.
        self.parts: Dict[str, List[float]] = defaultdict(list)
        self.rounds: List[Dict] = []


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, update: bool) -> Dict:
    """Run one workload: fresh-worker rounds until ``seconds`` is spent.

    A round is a timed set-up, then up to UNITS_PER_ROUND timed units
    (for sta-cli: whole CLI processes after the set-up-only worker).
    After the first MIN_ROUNDS rounds and the first unit of each round,
    a new round or unit starts only if the last ones of its kind would
    still end within ``seconds``, so a run on a slow host measures fewer
    of them rather than running long.
    """
    run = Run(workload, seed, seconds, trace, smoke)
    if trace:
        with run.worker(0) as child:
            return report_traced(run, run.finish(child))
    prefix = WALL_KEYS[workload]
    measured = Samples()
    end = time.monotonic() + seconds
    setup_step = unit_step = 0.0

    def units(next_unit) -> None:
        nonlocal unit_step
        for index in range(UNITS_PER_ROUND[workload]):
            if index and time.monotonic() + unit_step >= end:
                return
            step_start = time.monotonic()
            measured.units.append(Step(*next_unit()))
            unit_step = time.monotonic() - step_start

    def worker_unit(child: Child) -> Tuple[float, Dict]:
        reply = run.request(child, "unit")
        timings = reply["timings"]
        for timing in timings:
            for key, value in timing.items():
                measured.parts[key].append(value)
        return sum(value for timing in timings
                   for key, value in timing.items()
                   if key.startswith(prefix)) / len(timings), reply

    while (len(measured.rounds) < MIN_ROUNDS
           or time.monotonic() + setup_step + unit_step < end):
        step_start = time.monotonic()
        first_unit = len(measured.units)
        with run.worker(len(measured.rounds)) as child:
            ready = run.request(child)
            measured.setups.append(
                Step(time.perf_counter() - child.started, ready))
            setup_step = time.monotonic() - step_start
            if workload != "sta-cli":
                units(lambda: worker_unit(child))
            result = run.finish(child)
        for key, value in result["extra"].items():
            measured.parts[key].append(value)
        if workload == "sta-cli":
            deck = result["outputs"]["deck"]
            units(lambda: run.time_cli(deck))
        steps = [measured.setups[-1], *measured.units[first_unit:]]
        measured.rounds.append(dict(
            result, setup_s=steps[0].elapsed,
            probe_us=[step.probe_s * 1e6 if step.probe_s else 0.0
                      for step in steps]))
    if workload == "sta-cli":
        measured.parts["cli"] = [step.elapsed for step in measured.units]
        run.compare(run.cli_first, update)
    else:
        baseline = measured.rounds[0]["outputs"]["values"]
        for result in measured.rounds[1:]:
            run.check([] if result["outputs"]["values"] == baseline else
                      ["outputs differ between rounds"])
        run.compare(baseline, update)
    return report_untraced(run, measured)


def distribution(values: List[float]) -> Dict[str, float]:
    return {"min": min(values), "median": statistics.median(values),
            "p75": percentile(values, 75.0), "n": len(values)}


def untraced_info(workload: str, measured: Samples) -> Dict:
    """Ungated numbers printed beside the metrics (per workload)."""
    outputs = measured.rounds[0]["outputs"]
    parts = measured.parts
    info: Dict[str, object] = {}
    if workload == "decoder-cached":
        info["warm_s"] = distribution(parts["warm"])
        info["cold_cache"] = {"hits": outputs["cold_hits"],
                              "misses": outputs["cold_misses"]}
    elif workload == "paper-stacks":
        errors = outputs["errors_pct"]
        circuits = {
            name: {"qwm_s": min(parts[f"qwm:{name}"]),
                   "spice_1ps_s": min(parts[f"spice:{name}"]),
                   "error_pct": errors[name]} for name in errors}
        info["speedup_1ps"] = statistics.mean(
            c["spice_1ps_s"] / c["qwm_s"] for c in circuits.values())
        info["delay_err_mean_pct"] = statistics.mean(errors.values())
        info["delay_err_max_pct"] = max(errors.values())
        info["circuits"] = circuits
    elif workload == "decoder-eco":
        info["arcs_per_edit"] = outputs["arcs_per_edit"]
        info["edit_min_s"] = [min(parts[key]) for key in sorted(parts)
                              if key.startswith("edit:")]
    return info


def report_untraced(run: Run, measured: Samples) -> Dict:
    values = {
        "setup_s": statistics.median(s.calibrated for s in measured.setups),
        "wall_s": statistics.median(s.calibrated for s in measured.units),
        "peak_rss_mb": run.peak_rss_mb,
    }
    units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name, _ in END_TO_END}
    how = {"setup_s": f"median of {len(measured.setups)} calibrated "
                      "set-ups",
           "wall_s": f"median of {len(measured.units)} calibrated units",
           "peak_rss_mb": "largest child process"}
    print(f"== {run.workload}  seed {run.seed}  {run.seconds:g} s  "
          f"untraced ==")
    print(f"versions: {json.dumps(measured.rounds[0]['versions'])}")
    for index, result in enumerate(measured.rounds):
        probe = "/".join(f"{us:.0f}" for us in result["probe_us"])
        print(f"round {index}: set-up {result['setup_s']:.3f} s, "
              f"host.probe_us {probe} (set-up/units), "
              f"rss {result['maxrss_mb']:.1f} MB")
    print(f"{'metric':<14}{'value':>12}  {'unit':<5} how")
    for name, unit in END_TO_END:
        print(f"{name:<14}{values[name]:>12.4f}  {unit:<5} {how[name]}")
    raw = {"units_s": distribution([s.elapsed for s in measured.units]),
           "setups_s": distribution([s.elapsed for s in measured.setups])}
    for name, spread in raw.items():
        print(f"raw {name}: min {spread['min']:.4f}, median "
              f"{spread['median']:.4f}, p75 {spread['p75']:.4f}, "
              f"n {spread['n']} (not gated)")
    info = untraced_info(run.workload, measured)
    for name, value in info.items():
        print(f"info {name}: {json.dumps(value)}")
    detail = {"info": info, "how": how, "raw": raw,
              "probe_ref_s": PROBE_REF_S,
              "steps": {kind: [vars(step) for step in steps] for kind, steps
                        in (("setups", measured.setups),
                            ("units", measured.units))},
              "parts": dict(measured.parts),
              "rounds": [{key: result[key] for key in
                          ("setup_s", "probe_us", "maxrss_mb", "versions")}
                         for result in measured.rounds]}
    return finish(run, metrics, detail)


def report_traced(run: Run, result: Dict) -> Dict:
    from_worker = result["layers"]
    metrics = {name: {"value": from_worker[name], "unit": unit}
               for name, unit in PER_LAYER}
    print(f"== {run.workload}  seed {run.seed}  traced ==")
    print(f"versions: {json.dumps(result['versions'])}, host.probe_us "
          f"{result['probe_us']:.0f}")
    for name, unit in PER_LAYER:
        print(f"{name:<34}{from_worker[name]:>16.6g}  {unit}")
    details = result["layer_details"]
    print(f"info layer_details: {json.dumps(details)}")
    return finish(run, metrics, {"layer_details": details,
                                 "probe_us": result["probe_us"]})


def finish(run: Run, metrics: Dict, detail: Dict) -> Dict:
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"checks: {run.attempted} attempted, {run.failed} failed "
          f"(failed_frac {failed_frac:.4f})")
    for problem in run.problems[:10]:
        print(f"  FAILED {problem}")
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics,
            "detail": dict(detail, workload=run.workload, seed=run.seed,
                           seconds=run.seconds, trace=run.trace,
                           problems=run.problems)}


def host() -> Dict[str, object]:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "python": platform.python_version()}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py",
        description="Repository benchmark (see benchmarks/suite/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 and 1 have committed "
                             "references (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds per workload: rounds repeat until "
                             f"they are spent (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: one traced round that prints the "
                             "per-layer metrics")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write every sample and detail as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny designs (for the tests)")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite the committed references of seeds "
                             "0/1 instead of checking them")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Byte-compile up front so no worker's set-up pays for it.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    print(f"host: {json.dumps(host())}")
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace),
                args.smoke, args.update_reference)
    except BenchError as exc:
        failed_run = exc.args[0]
        print(f"error: {failed_run.workload}: {failed_run.problems[-1]}",
              file=sys.stderr)
        counted = [*results.values(), vars(failed_run)]
        print(json.dumps({
            "correct": False,
            "attempted": sum(r["attempted"] for r in counted),
            "failed": sum(r["failed"] for r in counted),
            "metrics": {}}))
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"host": host(), "results": results}, handle,
                      indent=1)
    if len(results) == 1:
        final = dict(results[workloads[0]])
        final.pop("detail")
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{workload}.{name}": metric
                             for workload, result in results.items()
                             for name, metric in result["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
