"""Shared experiment harness for the paper-reproduction benchmarks.

Each table/figure benchmark builds its circuits here, runs the reference
SPICE-like engine at the paper's two step sizes (1 ps and 10 ps) and the
QWM engine, and emits a paper-style row: runtimes, speedups and the
delay error against the 1 ps reference.  Formatted tables are printed
and also written under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuit.netlist import LogicStage
from repro.core import QWMSolution, WaveformEvaluator
from repro.obs import frame, ledger
from repro.spice import (
    ConstantSource,
    StepSource,
    TransientOptions,
    TransientResult,
    TransientSimulator,
)

#: Input switching instant for every experiment [s].
T_SWITCH = 20e-12

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Append-only run ledger: one JSON line per benchmark run (git SHA,
#: timestamp, headline metrics).  ``repro bench-diff`` compares the
#: last two entries and flags >10 % regressions.
HISTORY_FILE = os.path.join(RESULTS_DIR, "BENCH_history.jsonl")

#: The accuracy analogue: per-case delay errors from the golden suite,
#: shadow-SPICE audits and the ``BENCH_ACCURACY=1`` bench section.
#: ``repro accuracy-diff`` compares the last two entries per run.
ACCURACY_HISTORY_FILE = os.path.join(RESULTS_DIR,
                                     "ACCURACY_history.jsonl")


@dataclass
class ExperimentRow:
    """One row of a Table I/II style comparison."""

    name: str
    spice_1ps_time: float
    spice_10ps_time: float
    qwm_time: float
    spice_delay: float
    qwm_delay: float

    @property
    def speedup_1ps(self) -> float:
        return self.spice_1ps_time / self.qwm_time

    @property
    def speedup_10ps(self) -> float:
        return self.spice_10ps_time / self.qwm_time

    @property
    def error_percent(self) -> float:
        return abs(self.qwm_delay - self.spice_delay) \
            / self.spice_delay * 100.0


def stack_inputs(tech, k: int) -> Dict[str, object]:
    """Paper stack stimulus: bottom gate steps, the rest held high."""
    inputs: Dict[str, object] = {"g1": StepSource(0.0, tech.vdd, T_SWITCH)}
    inputs.update({f"g{j}": ConstantSource(tech.vdd)
                   for j in range(2, k + 1)})
    return inputs


def gate_inputs(tech, n: int) -> Dict[str, object]:
    """Worst-case NAND stimulus: bottom input switches last."""
    inputs: Dict[str, object] = {"a0": StepSource(0.0, tech.vdd, T_SWITCH)}
    inputs.update({f"a{i}": ConstantSource(tech.vdd)
                   for i in range(1, n)})
    return inputs


def run_spice(stage: LogicStage, tech, inputs, dt: float, t_stop: float,
              initial: Optional[Dict[str, float]] = None
              ) -> TransientResult:
    """One reference transient run at a fixed step size."""
    with frame("bench.spice", stage=stage.name, dt=dt):
        sim = TransientSimulator(stage, tech,
                                 TransientOptions(t_stop=t_stop, dt=dt))
        return sim.run(inputs, initial=initial)


def compare_engines(stage: LogicStage, tech,
                    evaluator: WaveformEvaluator,
                    inputs, output: str, t_stop: float,
                    initial: Optional[Dict[str, float]] = None,
                    direction: str = "fall",
                    precharge: str = "full",
                    name: str = "") -> ExperimentRow:
    """Run both step sizes of the reference plus QWM; build a row."""
    with frame("bench.compare", circuit=name or stage.name):
        res_1ps = run_spice(stage, tech, inputs, 1e-12, t_stop, initial)
        res_10ps = run_spice(stage, tech, inputs, 10e-12, t_stop,
                             initial)
        solution = evaluator.evaluate(stage, output, direction, inputs,
                                      precharge=precharge,
                                      initial=initial)
    d_spice = res_1ps.delay_50(output, tech.vdd, t_input=T_SWITCH,
                               direction=direction)
    d_qwm = solution.delay(t_input=T_SWITCH)
    if d_spice is None or d_qwm is None:
        raise RuntimeError(f"{name}: missing 50% crossing "
                           f"(spice={d_spice}, qwm={d_qwm})")
    return ExperimentRow(
        name=name or stage.name,
        spice_1ps_time=res_1ps.stats.wall_time,
        spice_10ps_time=res_10ps.stats.wall_time,
        qwm_time=solution.stats.wall_time,
        spice_delay=d_spice,
        qwm_delay=d_qwm)


def evaluate_qwm(stage: LogicStage, evaluator: WaveformEvaluator,
                 inputs, output: str, direction: str = "fall",
                 precharge: str = "full",
                 initial: Optional[Dict[str, float]] = None
                 ) -> QWMSolution:
    """QWM-only evaluation (the callable the timing benchmark wraps)."""
    return evaluator.evaluate(stage, output, direction, inputs,
                              precharge=precharge, initial=initial)


def format_table(title: str, header: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width ASCII table."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(header)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def comparison_table(title: str, rows: Sequence[ExperimentRow]) -> str:
    """Paper Table I/II layout."""
    header = ["Circuit", "Spice(1ps) s", "Speedup", "Spice(10ps) s",
              "Speedup", "QWM s", "Error"]
    body = [[
        r.name,
        f"{r.spice_1ps_time:.4f}",
        f"{r.speedup_1ps:.1f}x",
        f"{r.spice_10ps_time:.4f}",
        f"{r.speedup_10ps:.1f}x",
        f"{r.qwm_time:.4f}",
        f"{r.error_percent:.2f}%",
    ] for r in rows]
    avg = [
        "AVERAGE",
        "",
        f"{np.mean([r.speedup_1ps for r in rows]):.1f}x",
        "",
        f"{np.mean([r.speedup_10ps for r in rows]):.1f}x",
        "",
        f"{np.mean([r.error_percent for r in rows]):.2f}%",
    ]
    return format_table(title, header, body + [avg])


def save_result(filename: str, content: str) -> str:
    """Write a result artifact under benchmarks/results/ and echo it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    with open(path, "w") as handle:
        handle.write(content + "\n")
    print("\n" + content)
    return path


def save_metrics(filename: str,
                 phases: Optional[Dict[str, float]] = None,
                 accuracy: Optional[Dict] = None) -> str:
    """Dump the current metrics registry under benchmarks/results/.

    The CI bench job uploads these dumps (``BENCH_headline.json``) as
    artifacts so the perf trajectory accumulates across commits.  When
    the run profiled itself, ``phases`` (frame label -> exclusive
    seconds, see :func:`repro.obs.frames.phase_self_seconds`) is
    embedded as a top-level ``phases`` section so the artifact carries
    the cost attribution alongside the counters; ``accuracy`` (the
    ``BENCH_ACCURACY=1`` per-circuit error section) embeds the same
    way.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    ledger().metrics.export_json(path)
    if phases or accuracy:
        with open(path) as handle:
            document = json.load(handle)
        if phases:
            document["phases"] = {
                name: float(value)
                for name, value in sorted(phases.items())}
        if accuracy:
            document["accuracy"] = accuracy
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return path


def save_speedscope(filename: str) -> str:
    """Write the current profile view as a speedscope artifact."""
    from repro.obs.frames import export_speedscope

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    return export_speedscope(ledger(), path, name=filename)


def _git_sha() -> str:
    """HEAD commit of the repo this file lives in ("unknown" outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def append_history(run: str, metrics: Dict[str, float],
                   path: Optional[str] = None,
                   phases: Optional[Dict[str, float]] = None) -> str:
    """Append one run entry to the benchmark history ledger.

    Args:
        run: benchmark name (``"headline"``).
        metrics: headline metric name -> value for this run.
        path: history file override (default :data:`HISTORY_FILE`).
        phases: optional phase self-time section (frame label ->
            exclusive seconds); ``repro bench-diff`` uses consecutive
            profiled entries to attribute a regression to the phase
            whose self time grew the most.

    Returns:
        The history file path.
    """
    path = path or HISTORY_FILE
    os.makedirs(os.path.dirname(path), exist_ok=True)
    entry = {
        "run": run,
        "git_sha": _git_sha(),
        "timestamp_unix": time.time(),
        "smoke": bool(os.environ.get("BENCH_SMOKE")),
        "metrics": {name: float(value)
                    for name, value in sorted(metrics.items())},
    }
    if phases:
        entry["phases"] = {name: float(value)
                           for name, value in sorted(phases.items())}
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def append_accuracy_history(run: str, cases: Dict[str, Dict],
                            path: Optional[str] = None) -> str:
    """Append one entry to the accuracy history ledger.

    Thin wrapper over :func:`repro.obs.accuracy.history_entry` /
    ``append_history_entry`` that fills in the git SHA and the default
    ledger path, mirroring :func:`append_history` for the bench side.
    """
    from repro.obs.accuracy import append_history_entry, history_entry

    entry = history_entry(run, cases, git_sha=_git_sha())
    return append_history_entry(entry, path or ACCURACY_HISTORY_FILE)


def load_history(path: Optional[str] = None) -> List[Dict]:
    """All entries of the benchmark history ledger (oldest first)."""
    path = path or HISTORY_FILE
    if not os.path.exists(path):
        return []
    entries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under the benchmark fixture.

    Data-generation tests use this so they still run (and report a
    wall time) under ``pytest --benchmark-only``, which skips any test
    that never touches the fixture.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def save_csv(filename: str, header: Sequence[str],
             columns: Sequence[np.ndarray]) -> str:
    """Write aligned columns as CSV under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    data = np.column_stack([np.asarray(c) for c in columns])
    np.savetxt(path, data, delimiter=",", header=",".join(header),
               comments="")
    return path
