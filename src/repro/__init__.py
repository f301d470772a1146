"""repro — Transistor-level STA by piecewise Quadratic Waveform Matching.

A from-scratch reproduction of Wang & Zhu, "Transistor-Level Static
Timing Analysis by Piecewise Quadratic Waveform Matching" (DATE 2003),
including every substrate the paper depends on:

* :mod:`repro.core` — the QWM engine (the paper's contribution).
* :mod:`repro.devices` — golden analytic MOSFET models and the
  characterized tabular models QWM consumes.
* :mod:`repro.circuit` — logic stages as polar graphs, plus builders for
  every benchmark circuit (gates, stacks, Manchester carry chain,
  memory decoder tree).
* :mod:`repro.spice` — a SPICE-like Newton-Raphson transient engine
  (the HSPICE stand-in the paper compares against).
* :mod:`repro.interconnect` — Elmore/AWE/π-model interconnect reduction.
* :mod:`repro.linalg` — Thomas + Sherman-Morrison structured solves.
* :mod:`repro.analysis` — delay metrics, accuracy accounting, and a
  longest-path STA built on QWM.
* :mod:`repro.baselines` — switch-level (Crystal/IRSIM) and
  successive-chords (TETA) related-work baselines.
* :mod:`repro.lint` — static pre-simulation analysis: rule-based ERC,
  model, solver-preflight and interconnect checks with structured
  diagnostics (also the ``repro lint`` CLI subcommand).
* :mod:`repro.obs` — observability: one frame ledger whose views are
  hierarchical tracing, the phase profile, a metrics registry keyed
  to the paper's cost model and the solver flight recorder (also the
  ``repro stats`` CLI subcommand).

Quickstart::

    from repro import CMOSP35, WaveformEvaluator, builders, StepSource

    tech = CMOSP35
    stage = builders.nand_gate(tech, 3)
    evaluator = WaveformEvaluator(tech)
    solution = evaluator.evaluate(
        stage, output="out", direction="fall",
        inputs={"a0": StepSource(0, tech.vdd, 0), "a1": tech.vdd,
                "a2": tech.vdd},
        precharge="degraded")
    print(solution.delay())
"""

from repro.devices import (
    CMOSP35,
    MosfetModel,
    TableDeviceModel,
    TableModelLibrary,
    Technology,
    characterize_device,
    nmos_model,
    pmos_model,
)
from repro.circuit import (
    FlatNetlist,
    LogicStage,
    StageGraph,
    builders,
    extract_stages,
)
from repro.spice import (
    ConstantSource,
    PulseSource,
    PWLSource,
    RampSource,
    StepSource,
    TransientOptions,
    TransientResult,
    TransientSimulator,
)
from repro.core import (
    PiecewiseQuadraticWaveform,
    QWMOptions,
    QWMSolution,
    QWMSolver,
    WaveformEvaluator,
    extract_path,
)
from repro.analysis import (
    AccuracyReport,
    StaticTimingAnalyzer,
    accuracy_percent,
    measure_delay,
    measure_slew,
)
from repro.baselines import SuccessiveChordsSimulator, SwitchLevelTimer
from repro.lint import (
    Diagnostic,
    LintReport,
    PreflightError,
    Severity,
    lint_netlist,
    lint_stage,
)
from repro.obs import ObsConfig, configure, disable, ledger

__version__ = "1.0.0"

__all__ = [
    "CMOSP35",
    "MosfetModel",
    "TableDeviceModel",
    "TableModelLibrary",
    "Technology",
    "characterize_device",
    "nmos_model",
    "pmos_model",
    "FlatNetlist",
    "LogicStage",
    "StageGraph",
    "builders",
    "extract_stages",
    "ConstantSource",
    "PulseSource",
    "PWLSource",
    "RampSource",
    "StepSource",
    "TransientOptions",
    "TransientResult",
    "TransientSimulator",
    "PiecewiseQuadraticWaveform",
    "QWMOptions",
    "QWMSolution",
    "QWMSolver",
    "WaveformEvaluator",
    "extract_path",
    "AccuracyReport",
    "StaticTimingAnalyzer",
    "accuracy_percent",
    "measure_delay",
    "measure_slew",
    "SuccessiveChordsSimulator",
    "SwitchLevelTimer",
    "Diagnostic",
    "LintReport",
    "PreflightError",
    "Severity",
    "lint_netlist",
    "lint_stage",
    "ObsConfig",
    "configure",
    "disable",
    "ledger",
    "__version__",
]
