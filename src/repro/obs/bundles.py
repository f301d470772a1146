"""Self-contained debug bundles with deterministic replay.

A bundle freezes everything one failing (or suspicious) QWM solve
needs to be re-run on another machine with nothing but this repo: the
stage netlist, the characterized device-table slices the path actually
used, the input waveforms, the solver options, the RNG seed (reserved
for stochastic callers — the QWM schedule itself is deterministic), the
solve's own flight events, and — for solve failures — the exact
region-start state of the failing region.

Replay is *bit-for-bit*: every float is serialized through Python's
shortest-repr JSON round-trip, the failing region's Newton calls are
re-issued with the recorded initial guess and equivalent caps, and the
resulting iteration trajectories are compared for exact equality
(NaN-aware).  A mismatch means the environment, not the input, changed.

Format: a single JSON file, ``"format": "repro-flight-bundle/1"``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "stage_to_json", "stage_from_json", "source_to_json",
    "source_from_json", "options_to_json", "options_from_json",
    "tech_to_json", "tech_from_json", "grid_to_json", "grid_from_json",
    "collect_grids", "ReplayLibrary", "build_bundle", "save_bundle",
    "load_bundle", "ReplayAttempt", "ReplayResult", "replay_bundle",
]

BUNDLE_FORMAT = "repro-flight-bundle/1"


# ----------------------------------------------------------------------
# Stage netlist
# ----------------------------------------------------------------------
def stage_to_json(stage: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.circuit.netlist.LogicStage`."""
    return {
        "name": stage.name,
        "vdd": stage.vdd,
        "nodes": [{"name": n.name, "load_cap": n.load_cap,
                   "is_output": n.is_output} for n in stage.nodes],
        "edges": [{"name": e.name, "kind": e.kind.value,
                   "src": e.src.name, "snk": e.snk.name,
                   "w": e.w, "l": e.l, "gate": e.gate_input}
                  for e in stage.edges],
    }


def stage_from_json(data: Dict[str, Any]) -> Any:
    """Rebuild a LogicStage from :func:`stage_to_json` output."""
    from repro.circuit.netlist import GND_NODE, VDD_NODE, LogicStage

    stage = LogicStage(data["name"], data["vdd"])
    for node in data["nodes"]:
        if node["name"] in (VDD_NODE, GND_NODE):
            if node["load_cap"]:
                stage.set_load(node["name"], node["load_cap"])
            continue
        stage.add_node(node["name"], load_cap=node["load_cap"])
    for edge in data["edges"]:
        if edge["kind"] == "nmos":
            stage.add_nmos(edge["name"], edge["src"], edge["snk"],
                           edge["gate"], edge["w"], edge["l"])
        elif edge["kind"] == "pmos":
            stage.add_pmos(edge["name"], edge["src"], edge["snk"],
                           edge["gate"], edge["w"], edge["l"])
        else:
            stage.add_wire(edge["name"], edge["src"], edge["snk"],
                           edge["w"], edge["l"])
    for node in data["nodes"]:
        if node["is_output"]:
            stage.mark_output(node["name"])
    return stage


# ----------------------------------------------------------------------
# Input sources
# ----------------------------------------------------------------------
def source_to_json(source: Any) -> Dict[str, Any]:
    """Serialize any :class:`~repro.spice.sources.Source` subclass."""
    from repro.spice import sources as mod

    if isinstance(source, mod.PWLSource):
        return {"kind": "pwl",
                "points": [[t, v] for t, v in zip(source.times,
                                                  source.values)]}
    for kind, cls in _SOURCE_CLASSES().items():
        if type(source) is cls:
            return {"kind": kind, **asdict(source)}
    raise TypeError(f"cannot serialize source {type(source).__name__}")


def source_from_json(data: Dict[str, Any]) -> Any:
    from repro.spice import sources as mod

    kind = data["kind"]
    if kind == "pwl":
        return mod.PWLSource(data["points"])
    cls = _SOURCE_CLASSES().get(kind)
    if cls is None:
        raise ValueError(f"unknown source kind {kind!r}")
    fields = {k: v for k, v in data.items() if k != "kind"}
    return cls(**fields)


def _SOURCE_CLASSES() -> Dict[str, type]:
    from repro.spice import sources as mod

    return {"constant": mod.ConstantSource, "step": mod.StepSource,
            "ramp": mod.RampSource, "pulse": mod.PulseSource}


# ----------------------------------------------------------------------
# Solver options
# ----------------------------------------------------------------------
def options_to_json(options: Any) -> Dict[str, Any]:
    """Serialize :class:`~repro.core.qwm.QWMOptions` (incl. Newton)."""
    data = asdict(options)
    data["milestone_fractions"] = list(options.milestone_fractions)
    return data


def options_from_json(data: Dict[str, Any]) -> Any:
    from repro.core.qwm import QWMOptions
    from repro.linalg.newton import NewtonOptions

    data = dict(data)
    newton = NewtonOptions(**data.pop("newton"))
    data["milestone_fractions"] = tuple(data["milestone_fractions"])
    return QWMOptions(newton=newton, **data)


# ----------------------------------------------------------------------
# Technology and characterized device tables
# ----------------------------------------------------------------------
def tech_to_json(tech: Any) -> Dict[str, Any]:
    return {
        "name": tech.name, "vdd": tech.vdd, "lmin": tech.lmin,
        "wmin": tech.wmin, "temperature": tech.temperature,
        "nmos": asdict(tech.nmos), "pmos": asdict(tech.pmos),
        "wire": asdict(tech.wire),
    }


def tech_from_json(data: Dict[str, Any]) -> Any:
    from repro.devices.technology import (MosParams, Technology,
                                          WireParams)

    return Technology(
        name=data["name"], vdd=data["vdd"], lmin=data["lmin"],
        wmin=data["wmin"], temperature=data["temperature"],
        nmos=MosParams(**data["nmos"]), pmos=MosParams(**data["pmos"]),
        wire=WireParams(**data["wire"]))


def grid_to_json(grid: Any) -> Dict[str, Any]:
    """Serialize a CharacterizationGrid; ``fits`` holds its table rows."""
    return {
        "polarity": grid.polarity,
        "w_ref": grid.w_ref,
        "l_ref": grid.l_ref,
        "vdd": grid.vdd,
        "vs_values": [float(v) for v in grid.vs_values],
        "vg_values": [float(v) for v in grid.vg_values],
        "fits": [[list(point) for point in row] for row in grid.table],
    }


def grid_from_json(data: Dict[str, Any]) -> Any:
    from repro.devices.characterize import CharacterizationGrid

    return CharacterizationGrid(
        polarity=data["polarity"], w_ref=data["w_ref"],
        l_ref=data["l_ref"], vdd=data["vdd"],
        vs_values=data["vs_values"], vg_values=data["vg_values"],
        table=data["fits"])


def collect_grids(path: Any) -> List[Dict[str, Any]]:
    """The device-table slices a path's transistors actually use."""
    seen: Dict[Tuple[str, float], Dict[str, Any]] = {}
    for device in path.devices:
        if device.table is None:
            continue
        grid = device.table.grid
        key = (grid.polarity, round(device.l, 12))
        if key not in seen:
            entry = grid_to_json(grid)
            entry["length"] = device.l
            seen[key] = entry
    return list(seen.values())


class ReplayLibrary:
    """Frozen table-model library rebuilt from bundled grids.

    Implements the slice of the :class:`TableModelLibrary` contract the
    path extractor consumes (``tech``, ``grid_step``, ``get``), backed
    by exactly the grids the bundle recorded — no re-characterization,
    so replayed currents match the original run bit-for-bit.
    """

    def __init__(self, tech: Any, grid_step: float,
                 grids: List[Dict[str, Any]]):
        self.tech = tech
        self.grid_step = grid_step
        self._grids: Dict[Tuple[str, float], Any] = {}
        for entry in grids:
            key = (entry["polarity"], round(entry["length"], 12))
            self._grids[key] = grid_from_json(entry)
        self._models: Dict[Tuple[str, float], Any] = {}

    def get(self, polarity: str, l: Optional[float] = None) -> Any:
        from repro.devices.table_model import TableDeviceModel

        length = self.tech.lmin if l is None else l
        key = (polarity, round(length, 12))
        if key not in self._models:
            if key not in self._grids:
                raise KeyError(
                    f"bundle has no table for polarity={polarity!r} "
                    f"L={length:.3e}; it is not self-contained for this "
                    "query")
            params = (self.tech.nmos if polarity == "n"
                      else self.tech.pmos)
            self._models[key] = TableDeviceModel(self._grids[key], params)
        return self._models[key]


# ----------------------------------------------------------------------
# Bundle build / save / load
# ----------------------------------------------------------------------
def build_bundle(path: Any, inputs: Dict[str, Any],
                 initial: Dict[str, float], t_start: float,
                 options: Any, reason: str, tech: Any,
                 grid_step: float,
                 failure: Optional[Dict[str, Any]] = None,
                 ledger: Optional[Dict[str, Any]] = None,
                 extra: Optional[Dict[str, Any]] = None,
                 rng_seed: Optional[int] = None) -> Dict[str, Any]:
    """Assemble a self-contained bundle for one solve.

    Args:
        path: the :class:`DischargePath` that was solved.
        inputs: gate input name -> Source (actual domain).
        initial: node name -> initial actual voltage [V].
        t_start: schedule start time [s].
        options: the QWMOptions in effect.
        reason: ``"solve_failure"`` or ``"golden_band_violation"``.
        tech: the Technology the tables were characterized against.
        grid_step: the library grid pitch the tables were built with.
        failure: the ``region_failed`` event data (None for band
            violations, where the whole solve replays instead).
        ledger: the solve's flight-ledger slice
            (``FrameLedger.flight_json(solve_id=...)``).
        extra: caller context (golden diff numbers, arc identity...).
        rng_seed: seed for stochastic callers; None for QWM itself.
    """
    from repro.spice.sources import as_source

    return {
        "format": BUNDLE_FORMAT,
        "created_unix": time.time(),
        "reason": reason,
        "rng_seed": rng_seed,
        "stage": stage_to_json(path.stage),
        "output": path.output,
        "direction": path.direction,
        "sources": {name: source_to_json(as_source(src))
                    for name, src in inputs.items()},
        "initial": dict(initial),
        "t_start": t_start,
        "options": options_to_json(options),
        "tech": tech_to_json(tech),
        "grid_step": grid_step,
        "grids": collect_grids(path),
        "failure": failure,
        "ledger": ledger or {},
        "extra": extra or {},
    }


def save_bundle(bundle: Dict[str, Any], directory: str,
                label: str = "bundle") -> str:
    """Write a bundle under ``directory`` and return its path."""
    os.makedirs(directory, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-_." else "_"
                   for c in label)[:80]
    base = f"{safe}-{os.getpid()}"
    filename = os.path.join(directory, f"{base}.json")
    counter = 1
    while os.path.exists(filename):
        filename = os.path.join(directory, f"{base}-{counter}.json")
        counter += 1
    with open(filename, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=1)
    return filename


def load_bundle(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    if bundle.get("format") != BUNDLE_FORMAT:
        raise ValueError(
            f"{path}: not a flight bundle (format="
            f"{bundle.get('format')!r}, expected {BUNDLE_FORMAT!r})")
    return bundle


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class ReplayAttempt:
    """One replayed Newton call vs. its recording."""

    index: int
    recorded_outcome: str
    replayed_outcome: str
    recorded_trajectory: List[Dict[str, float]]
    replayed_trajectory: List[Dict[str, float]]

    @property
    def identical(self) -> bool:
        return (self.recorded_outcome == self.replayed_outcome
                and _trajectories_equal(self.recorded_trajectory,
                                        self.replayed_trajectory))


@dataclass
class ReplayResult:
    """Outcome of :func:`replay_bundle`."""

    mode: str  # "region" (failure replay) or "solve" (full re-run)
    attempts: List[ReplayAttempt] = field(default_factory=list)
    solution_delay: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return all(a.identical for a in self.attempts)

    def render(self) -> str:
        lines = [f"replay mode: {self.mode}"]
        for note in self.notes:
            lines.append(f"  {note}")
        for attempt in self.attempts:
            verdict = ("IDENTICAL" if attempt.identical
                       else "DIVERGED")
            lines.append(
                f"attempt {attempt.index}: recorded="
                f"{attempt.recorded_outcome} replayed="
                f"{attempt.replayed_outcome} "
                f"iters={max(len(attempt.replayed_trajectory) - 1, 0)} "
                f"-> {verdict}")
            if not attempt.identical:
                lines.extend(_diff_trajectories(
                    attempt.recorded_trajectory,
                    attempt.replayed_trajectory))
        if self.solution_delay is not None:
            lines.append(f"re-run 50% delay: {self.solution_delay:.6e} s")
        if self.attempts:
            lines.append("trajectories bit-for-bit identical: "
                         f"{self.identical}")
        return "\n".join(lines)


def _float_equal(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) and np.isnan(b):
            return True
        return a == b
    return a == b


def _trajectories_equal(rec: List[Dict[str, float]],
                        rep: List[Dict[str, float]]) -> bool:
    if len(rec) != len(rep):
        return False
    for r1, r2 in zip(rec, rep):
        if set(r1) != set(r2):
            return False
        for key in r1:
            if not _float_equal(r1[key], r2[key]):
                return False
    return True


def _diff_trajectories(rec: List[Dict[str, float]],
                       rep: List[Dict[str, float]]) -> List[str]:
    lines = [f"    recorded {len(rec)} entries, replayed {len(rep)}"]
    for idx in range(min(len(rec), len(rep))):
        if not _trajectories_equal([rec[idx]], [rep[idx]]):
            lines.append(f"    first divergence at iteration {idx}:")
            lines.append(f"      recorded: {rec[idx]}")
            lines.append(f"      replayed: {rep[idx]}")
            break
    return lines


def condition_from_json(data: Dict[str, Any]) -> Any:
    from repro.core.matching import (CrossingCondition, TimeCondition,
                                     TurnOnCondition)

    kind = data["kind"]
    if kind == "crossing":
        return CrossingCondition(data["target"])
    if kind == "time":
        return TimeCondition(data["t_end"])
    if kind == "turn_on":
        return TurnOnCondition(data["device_index"])
    raise ValueError(f"unknown condition kind {kind!r}")


def rebuild_path(bundle: Dict[str, Any]) -> Tuple[Any, Dict[str, Any]]:
    """Reconstruct the DischargePath and sources from a bundle."""
    from repro.core.path import extract_path

    stage = stage_from_json(bundle["stage"])
    tech = tech_from_json(bundle["tech"])
    sources = {name: source_from_json(src)
               for name, src in bundle["sources"].items()}
    library = ReplayLibrary(tech, bundle["grid_step"], bundle["grids"])
    options = options_from_json(bundle["options"])
    path = extract_path(stage, bundle["output"], bundle["direction"],
                        sources, library, t_final=options.t_stop)
    return path, sources


def replay_bundle(bundle: Dict[str, Any],
                  verbose: bool = False) -> ReplayResult:
    """Deterministically re-run the solve a bundle captured.

    For a solve-failure bundle the failing region's recorded Newton
    calls are re-issued one by one (recorded guess + caps) and the
    trajectories compared bit-for-bit.  For a band-violation bundle
    (no failing region) the full schedule is re-run and the measured
    delay reported.
    """
    from repro.core.matching import RegionSystem
    from repro.core.qwm import QWMSolver

    options = options_from_json(bundle["options"])
    path, sources = rebuild_path(bundle)
    failure = bundle.get("failure")

    if not failure:
        solver = QWMSolver(path, options)
        solution = solver.solve(sources, bundle["initial"],
                                bundle["t_start"])
        result = ReplayResult(mode="solve",
                              solution_delay=solution.delay(
                                  t_input=bundle["t_start"]))
        result.notes.append(
            f"regions solved: {solution.stats.steps}, newton "
            f"iterations: {solution.stats.newton_iterations}")
        return result

    # Region replay: every recorded Newton call of the failing region
    # of the failing solve.
    events = [e for e in bundle.get("ledger", {}).get("events", [])
              if e["kind"] == "newton"
              and e["solve_id"] == failure.get("solve_id")
              and e["data"].get("active") == failure["active"]
              and _float_equal(e["data"].get("tau"), failure["tau"])]
    result = ReplayResult(mode="region")
    result.notes.append(
        f"failing region: active={failure['active']} "
        f"tau={failure['tau']:.6e} "
        f"condition={failure.get('condition')}")
    if not events:
        result.notes.append("bundle ledger has no newton events for the "
                            "failing region (event_limit too small?)")
        return result

    for index, event in enumerate(events):
        data = event["data"]
        condition = condition_from_json(data["condition"])
        u = np.asarray(data["u"], dtype=float)
        i = np.asarray(data["i"], dtype=float)
        caps = np.asarray(data["caps"], dtype=float)
        guess = np.asarray(data["guess"], dtype=float)
        system = RegionSystem(path, sources, data["active"],
                              data["tau"], u, i, condition, caps=caps,
                              order=int(data["order"]))
        trajectory: List[Dict[str, float]] = []
        outcome = "converged"
        try:
            res = system.newton_solve(
                guess, options=options.newton,
                use_sherman_morrison=options.use_sherman_morrison,
                trajectory=trajectory)
            if not float(res.x[data["active"]]) > data["tau"]:
                outcome = "non_advancing_time"
        except Exception as exc:  # NewtonConvergenceError
            outcome = getattr(exc, "reason", "error")
        attempt = ReplayAttempt(
            index=index,
            recorded_outcome=data.get("outcome", "?"),
            replayed_outcome=outcome,
            recorded_trajectory=data.get("trajectory", []),
            replayed_trajectory=trajectory)
        result.attempts.append(attempt)
        if verbose:
            for entry in trajectory:
                result.notes.append(
                    f"  attempt {index} it={int(entry['iteration'])} "
                    f"|F|={entry['residual_norm']:.6e} "
                    f"|dx|={entry['step_norm']:.6e} "
                    f"shrink={entry['shrink']:.3g}")
    return result
