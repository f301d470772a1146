"""Shared experiment harness for the paper-reproduction benchmarks.

Each table/figure benchmark builds its circuits here, runs the reference
SPICE-like engine at the paper's two step sizes (1 ps and 10 ps) and the
QWM engine, and emits a paper-style row: runtimes, speedups and the
delay error against the 1 ps reference.  Formatted tables are printed
and also written under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

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


def save_metrics(filename: str) -> str:
    """Dump the current metrics registry under benchmarks/results/.

    The CI bench job uploads these dumps (``BENCH_headline.json``) as
    artifacts.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    return ledger().metrics.export_json(path)


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
