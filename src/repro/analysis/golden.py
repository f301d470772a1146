"""Differential QWM-vs-SPICE golden reference suite.

The paper's central claim is accuracy *and* speed: a QWM stage solve
should land within a few percent of a fine-step SPICE transient while
doing orders of magnitude less work.  This module pins that claim down
as data.  A :class:`GoldenCase` describes one timing arc of a library
gate (circuit, switching input, output direction) at one point of a
slew x load grid; :func:`generate` runs *both* engines on it and
records the measured delays and slews.  The records are stored as JSON
under ``tests/golden/`` and regenerated with ``repro golden --update``;
the regression test (``tests/test_golden_differential.py``) re-runs
only the cheap QWM side and checks it against the stored SPICE
reference, so drift in either the solver or the device models shows up
as a failing diff without paying for SPICE on every CI run.  The
stored QWM numbers are the committed accuracy baseline: the report
marks a case whose fresh delay error grew by more than
:data:`DRIFT_PP` over its record's, and names the solver phase the
worst one is attributed to.

Both engines use DC initial conditions (``precharge="dc"``) and measure
delay from the input's 50% crossing (``T_SWITCH + slew/2``), so the
numbers are directly comparable.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.circuit import builders
from repro.circuit.netlist import LogicStage
from repro.core import WaveformEvaluator
from repro.devices import TableModelLibrary, Technology
from repro.spice import (ConstantSource, RampSource, Source, StepSource,
                         TransientOptions, TransientSimulator)

#: Input switching instant [s] (matches benchmarks/harness.py).
T_SWITCH = 20e-12
#: SPICE reference step [s] — fine enough that the reference error is
#: negligible next to the tolerance band.
SPICE_DT = 1e-12
#: Transient horizon [s]; generous for the largest load in the grid.
T_STOP = 600e-12
#: Acceptance band for |QWM - SPICE| delay error.  The paper reports
#: 1-2 % average / 3.66 % worst on its gate set; the band leaves head
#: room for the ramped-input and light-load corners of the grid (the
#: 2 fF step-input inverter corner sits at ~8.3 %).
DELAY_TOLERANCE_PCT = 10.0
#: Output-slew band is looser: 10/90 transition times amplify tail
#: shape differences that barely move the 50 % crossing.
SLEW_TOLERANCE_PCT = 35.0
#: Delay-error growth over the committed record [percentage points]
#: that marks a case ``DRIFT``.  The golden errors are small (1-9 %),
#: so one point of growth matters; shrinking error never marks.
DRIFT_PP = 1.0

GOLDEN_VERSION = 1

#: The slew x load grid every arc is swept over.
GRID_SLEWS = (0.0, 40e-12)
GRID_LOADS = (2e-15, 10e-15)

#: circuit name -> stage factory (load-parameterized).
CIRCUITS = {
    "inv": lambda tech, load: builders.inverter(tech, load=load),
    "nand2": lambda tech, load: builders.nand_gate(tech, 2, load=load),
    "nand3": lambda tech, load: builders.nand_gate(tech, 3, load=load),
    "nor2": lambda tech, load: builders.nor_gate(tech, 2, load=load),
}

#: (circuit, output direction, switching input, held level of the other
#: inputs).  NAND pull-down needs the rest of the stack on (held high);
#: NOR pull-up needs the rest of the PMOS chain on (held low).
ARCS = (
    ("inv", "fall", "a", None),
    ("inv", "rise", "a", None),
    ("nand2", "fall", "a0", "high"),
    ("nand3", "fall", "a0", "high"),
    ("nor2", "rise", "a0", "low"),
)


@dataclass(frozen=True)
class GoldenCase:
    """One timing arc at one (slew, load) grid point."""

    circuit: str
    direction: str
    switching_input: str
    held: Optional[str]
    input_slew: float
    load: float

    @property
    def name(self) -> str:
        slew = int(round(self.input_slew * 1e12))
        load = int(round(self.load * 1e15))
        return (f"{self.circuit}_{self.direction}_"
                f"{self.switching_input}_s{slew}p_l{load}f")

    def build(self, tech: Technology) -> LogicStage:
        return CIRCUITS[self.circuit](tech, self.load)

    def sources(self, tech: Technology) -> Dict[str, Source]:
        """Driving sources: output *direction* fixes the input edge."""
        vdd = tech.vdd
        v0, v1 = (0.0, vdd) if self.direction == "fall" else (vdd, 0.0)
        if self.input_slew > 0:
            switching: Source = RampSource(v0, v1, T_SWITCH,
                                           self.input_slew)
        else:
            switching = StepSource(v0, v1, T_SWITCH)
        held_level = vdd if self.held == "high" else 0.0
        sources: Dict[str, Source] = {self.switching_input: switching}
        stage = self.build(tech)
        for name in stage.inputs:
            sources.setdefault(name, ConstantSource(held_level))
        return sources

    @property
    def t_input(self) -> float:
        """The input's 50 % crossing — the delay reference point."""
        return T_SWITCH + 0.5 * self.input_slew


def golden_cases(slews: Sequence[float] = GRID_SLEWS,
                 loads: Sequence[float] = GRID_LOADS
                 ) -> List[GoldenCase]:
    """The full arc x slew x load grid (20 cases by default)."""
    cases = []
    for circuit, direction, switching, held in ARCS:
        for slew in slews:
            for load in loads:
                cases.append(GoldenCase(
                    circuit=circuit, direction=direction,
                    switching_input=switching, held=held,
                    input_slew=float(slew), load=float(load)))
    return cases


@dataclass
class GoldenRecord:
    """Measured reference data for one case."""

    case: GoldenCase
    spice_delay: float
    spice_slew: Optional[float]
    qwm_delay: float
    qwm_slew: Optional[float]

    @property
    def delay_error_pct(self) -> float:
        return 100.0 * abs(self.qwm_delay - self.spice_delay) \
            / abs(self.spice_delay)

    @property
    def slew_error_pct(self) -> Optional[float]:
        if self.spice_slew is None or self.qwm_slew is None \
                or self.spice_slew == 0:
            return None
        return 100.0 * abs(self.qwm_slew - self.spice_slew) \
            / abs(self.spice_slew)

    @property
    def margin_to_band_pct(self) -> float:
        """Headroom to the delay band (negative = outside the band).

        Stored per case so near-band corners — the 2 fF step-input
        inverter sits at ~8.3 % of a 10 % band — are visible in the
        golden JSON rather than silently passing.
        """
        return DELAY_TOLERANCE_PCT - self.delay_error_pct

    def to_json(self) -> Dict:
        payload = asdict(self.case)
        payload.update({
            "name": self.case.name,
            "spice_delay": self.spice_delay,
            "spice_slew": self.spice_slew,
            "qwm_delay": self.qwm_delay,
            "qwm_slew": self.qwm_slew,
            "delay_error_pct": self.delay_error_pct,
            "slew_error_pct": self.slew_error_pct,
            "margin_to_band_pct": self.margin_to_band_pct,
        })
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "GoldenRecord":
        case = GoldenCase(
            circuit=payload["circuit"], direction=payload["direction"],
            switching_input=payload["switching_input"],
            held=payload["held"],
            input_slew=float(payload["input_slew"]),
            load=float(payload["load"]))
        return cls(case=case,
                   spice_delay=float(payload["spice_delay"]),
                   spice_slew=(None if payload["spice_slew"] is None
                               else float(payload["spice_slew"])),
                   qwm_delay=float(payload["qwm_delay"]),
                   qwm_slew=(None if payload["qwm_slew"] is None
                             else float(payload["qwm_slew"])))


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def qwm_measure(case: GoldenCase, tech: Technology,
                evaluator: WaveformEvaluator):
    """(delay, output slew) of the arc per the QWM engine."""
    from repro.analysis.delay import measure_slew

    stage = case.build(tech)
    solution = evaluator.evaluate(stage, "out", case.direction,
                                  case.sources(tech), precharge="dc")
    delay = solution.delay(t_input=case.t_input)
    if delay is None:
        raise ValueError(f"QWM produced no 50% crossing for "
                         f"{case.name}")
    slew = measure_slew(solution.output_waveform, tech.vdd,
                        case.direction)
    return float(delay), (None if slew is None else float(slew))


def spice_measure(case: GoldenCase, tech: Technology):
    """(delay, output slew) of the arc per the reference simulator."""
    stage = case.build(tech)
    simulator = TransientSimulator(
        stage, tech, TransientOptions(t_stop=T_STOP, dt=SPICE_DT))
    result = simulator.run(case.sources(tech))
    delay = result.delay_50("out", tech.vdd, t_input=case.t_input,
                            direction=case.direction)
    if delay is None:
        raise ValueError(f"SPICE produced no 50% crossing for "
                         f"{case.name}")
    slew = result.slew("out", tech.vdd, case.direction)
    return float(delay), (None if slew is None else float(slew))


def generate(tech: Technology,
             evaluator: Optional[WaveformEvaluator] = None,
             cases: Optional[Sequence[GoldenCase]] = None,
             progress=None) -> List[GoldenRecord]:
    """Run both engines over the grid (the expensive direction)."""
    if evaluator is None:
        evaluator = WaveformEvaluator(tech,
                                      library=TableModelLibrary(tech))
    records = []
    for case in cases if cases is not None else golden_cases():
        spice_delay, spice_slew = spice_measure(case, tech)
        qwm_delay, qwm_slew = qwm_measure(case, tech, evaluator)
        record = GoldenRecord(case=case, spice_delay=spice_delay,
                              spice_slew=spice_slew,
                              qwm_delay=qwm_delay, qwm_slew=qwm_slew)
        if progress is not None:
            progress(record)
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Storage: one JSON file per circuit under the golden directory.
# ----------------------------------------------------------------------
def default_golden_dir() -> str:
    """``tests/golden`` next to the repository's test suite."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "golden")


def save(records: Sequence[GoldenRecord], directory: str) -> List[str]:
    """Write one ``<circuit>.json`` per circuit; returns the paths."""
    by_circuit: Dict[str, List[GoldenRecord]] = {}
    for record in records:
        by_circuit.setdefault(record.case.circuit, []).append(record)
    os.makedirs(directory, exist_ok=True)
    paths = []
    for circuit in sorted(by_circuit):
        document = {
            "version": GOLDEN_VERSION,
            "circuit": circuit,
            "t_switch": T_SWITCH,
            "spice_dt": SPICE_DT,
            "cases": [r.to_json()
                      for r in sorted(by_circuit[circuit],
                                      key=lambda r: r.case.name)],
        }
        path = os.path.join(directory, f"{circuit}.json")
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def load(directory: str) -> List[GoldenRecord]:
    """Load every ``*.json`` golden file under ``directory``."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(
            f"golden directory {directory!r} does not exist "
            f"(run `repro golden --update` to generate it)")
    records = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry)) as handle:
            document = json.load(handle)
        if document.get("version") != GOLDEN_VERSION:
            raise ValueError(
                f"golden file {entry!r} has version "
                f"{document.get('version')!r}, expected {GOLDEN_VERSION}")
        records.extend(GoldenRecord.from_json(payload)
                       for payload in document["cases"])
    if not records:
        raise FileNotFoundError(
            f"no golden files under {directory!r} "
            f"(run `repro golden --update` to generate them)")
    return records


# ----------------------------------------------------------------------
# Comparison (the cheap direction: QWM live vs stored SPICE).
# ----------------------------------------------------------------------
@dataclass
class GoldenDiff:
    """Outcome of re-checking one stored case.

    ``attribution`` is the accuracy observatory's error-budget roll-up
    of the fresh QWM solve (dominant ``phase:tag`` cell by summed
    residual norm) — populated by :func:`check`, None when the record
    was not re-measured through it.  :attr:`ok` is the band verdict
    alone; :attr:`drift_pp` is reported, never gated on.
    """

    record: GoldenRecord
    fresh_delay: float
    fresh_slew: Optional[float]
    attribution: Optional[Dict] = None

    @property
    def delay_error_pct(self) -> float:
        return 100.0 * abs(self.fresh_delay - self.record.spice_delay) \
            / abs(self.record.spice_delay)

    @property
    def slew_error_pct(self) -> Optional[float]:
        if self.fresh_slew is None or self.record.spice_slew in (None,
                                                                 0.0):
            return None
        return 100.0 * abs(self.fresh_slew - self.record.spice_slew) \
            / abs(self.record.spice_slew)

    @property
    def margin_to_band_pct(self) -> float:
        """Headroom to the delay band (negative = outside the band)."""
        return DELAY_TOLERANCE_PCT - self.delay_error_pct

    @property
    def drift_pp(self) -> float:
        """Fresh delay error minus the committed record's [pp]."""
        return self.delay_error_pct - self.record.delay_error_pct

    @property
    def drifted(self) -> bool:
        """The error grew by more than :data:`DRIFT_PP`."""
        return self.drift_pp > DRIFT_PP

    @property
    def ok(self) -> bool:
        if self.delay_error_pct > DELAY_TOLERANCE_PCT:
            return False
        slew_err = self.slew_error_pct
        return slew_err is None or slew_err <= SLEW_TOLERANCE_PCT


def check(records: Sequence[GoldenRecord], tech: Technology,
          evaluator: Optional[WaveformEvaluator] = None
          ) -> List[GoldenDiff]:
    """Re-measure every case with QWM against its stored SPICE numbers.

    When the flight view is capturing bundles, every band
    violation triggers a forced re-evaluation of the offending case so
    a self-contained debug bundle (netlist, table slices, ledger) lands
    in the configured bundle directory for offline replay.
    """
    from repro.obs.accuracy import attribute_regions, capture_regions

    if evaluator is None:
        evaluator = WaveformEvaluator(tech,
                                      library=TableModelLibrary(tech))
    diffs = []
    for record in records:
        with capture_regions() as capture:
            delay, slew = qwm_measure(record.case, tech, evaluator)
        diff = GoldenDiff(record=record, fresh_delay=delay,
                          fresh_slew=slew,
                          attribution=attribute_regions(capture.notes))
        if not diff.ok:
            _capture_violation(diff, tech, evaluator)
        diffs.append(diff)
    return diffs


def _capture_violation(diff: GoldenDiff, tech: Technology,
                       evaluator: WaveformEvaluator) -> None:
    """Re-run a failing case in a frame that forces bundle capture."""
    from repro.obs import frame, ledger

    led = ledger()
    if not led.recording or not led.flight_config.capture_bundles:
        return
    case = diff.record.case
    with frame("golden.capture", case.name,
               ctx={"golden_case": case.name,
                    "delay_error_pct": diff.delay_error_pct,
                    "spice_delay": diff.record.spice_delay,
                    "qwm_delay": diff.fresh_delay,
                    "capture": "golden_band_violation"}):
        try:
            qwm_measure(case, tech, evaluator)
        except Exception:
            # The diagnostic re-run must never turn a band violation
            # into a crash; the original diff is still reported.
            pass


def format_report(diffs: Sequence[GoldenDiff]) -> str:
    """Human-readable pass/fail table over the grid, with drift.

    Each row shows the fresh error's drift from the committed record
    and ``DRIFT`` where it grew by more than :data:`DRIFT_PP`; the last
    line names the worst-drifting case and its dominant ``phase:tag``.
    """
    lines = [f"{'case':<28}{'spice':>10}{'qwm':>10}{'err%':>8}"
             f"{'drift':>10}  status",
             "-" * 74]
    worst = 0.0
    for diff in diffs:
        err = diff.delay_error_pct
        worst = max(worst, err)
        status = "ok" if diff.ok else "FAIL"
        if diff.drifted:
            status += "  DRIFT"
        # round(..) + 0.0 turns a -0.00 residue into +0.00.
        drift = round(diff.drift_pp, 2) + 0.0
        lines.append(
            f"{diff.record.case.name:<28}"
            f"{diff.record.spice_delay * 1e12:>8.2f}ps"
            f"{diff.fresh_delay * 1e12:>8.2f}ps"
            f"{err:>7.2f}%"
            f"{drift:>+8.2f}pp  {status}")
    failed = sum(1 for d in diffs if not d.ok)
    lines.append("-" * 74)
    lines.append(f"{len(diffs)} cases, worst delay error "
                 f"{worst:.2f}% (band {DELAY_TOLERANCE_PCT:.1f}%), "
                 f"{failed} failing")
    drifted = [d for d in diffs if d.drifted]
    if not drifted:
        lines.append(f"no case drifted more than {DRIFT_PP:+.1f}pp "
                     f"from its committed record")
    else:
        worst_drift = max(drifted, key=lambda d: d.drift_pp)
        dominant = (worst_drift.attribution or {}).get("dominant")
        lines.append(f"{len(drifted)} case(s) drifted more than "
                     f"{DRIFT_PP:+.1f}pp; worst: "
                     f"{worst_drift.record.case.name} "
                     f"({worst_drift.drift_pp:+.2f}pp, attributed to "
                     f"{dominant or 'unknown'})")
    return "\n".join(lines)
