"""The QWM region scheduler: transient solution at K critical points.

Implements the paper's piecewise strategy (Section IV-A): "divide the
transient process into K regions according to the critical points; then
solve for the parameters of each region by matching currents at the
corresponding critical point."

The schedule for a pull path of K devices:

1. **Activation** — find when the switching input turns the first path
   transistor on (for a step, the step instant).
2. **Cascade regions** — while transistors above the moving frontier are
   still off, each region ends at the next turn-on critical point: the
   frame gate drive of the device above equals its threshold (the
   single-current-peak observation of Fig. 7).  Devices that are already
   (marginally) on — and wire macros, which are always on — advance the
   frontier with a zero-length region.
3. **Milestone regions** — once every device conducts, matching
   continues at fixed output-voltage crossings so the full waveform and
   any delay metric are available.

Every region is one small Newton solve (paper: "complexity equivalent to
only K DC operating point calculations").
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.matching import (
    CrossingCondition,
    RegionSystem,
    TimeCondition,
    TurnOnCondition,
)
from repro.circuit.elements import DeviceKind
from repro.core.path import DischargePath
from repro.core.waveforms import PiecewiseQuadraticWaveform, QuadraticPiece
from repro.linalg.newton import NewtonConvergenceError, NewtonOptions
from repro.obs import frame, inc, ledger, observe
from repro.obs.accuracy import note_region
from repro.spice.results import SimulationStats, TransientResult
from repro.spice.sources import SourceLike, as_source


#: Milestone fractions above this are considered out of range (the
#: default schedule starts slightly above the rail at 1.10).
MAX_MILESTONE_FRACTION = 1.5


def check_milestone_fractions(fractions) -> List[str]:
    """Problems with a milestone-fraction schedule (empty list = ok).

    Shared between ``QWMOptions.__post_init__`` and the SOL002 lint
    rule (:mod:`repro.lint.rules_solver`) so the constructor and the
    preflight can never disagree about what "degenerate" means.
    """
    problems: List[str] = []
    fractions = tuple(fractions)
    if not fractions:
        problems.append("milestone_fractions is empty: the schedule "
                        "would stop at the end of the turn-on cascade")
        return problems
    bad = [f for f in fractions
           if not isinstance(f, (int, float)) or not math.isfinite(f)]
    if bad:
        problems.append(f"milestone_fractions contains non-finite "
                        f"values: {bad}")
        return problems
    out_of_range = [f for f in fractions
                    if f <= 0.0 or f > MAX_MILESTONE_FRACTION]
    if out_of_range:
        problems.append(
            f"milestone fractions {out_of_range} outside "
            f"(0, {MAX_MILESTONE_FRACTION}]: targets at or below "
            "ground (or far above the rail) can never be matched")
    if any(b >= a for a, b in zip(fractions, fractions[1:])):
        problems.append(
            f"milestone_fractions {fractions} must be strictly "
            "decreasing: the scheduler pops targets in order and "
            "silently skips any already above the waveform")
    return problems


@dataclass
class QWMOptions:
    """Controls for :class:`QWMSolver`.

    Attributes:
        milestone_fractions: output frame-voltage crossings (fractions of
            vdd) matched after the turn-on cascade completes.
        newton: Newton controls for the per-region solves.
        turn_on_margin: drive margin [V] under which a device counts as
            already on (zero-length region).
        cascade_substeps: matching points per turn-on region.  1 is the
            paper's baseline (one critical point per transistor); higher
            values insert intermediate voltage-crossing matches inside
            each region, trading solves for accuracy (the paper's
            closing remark: "more sophisticated ... critical point model
            may help further improve speed and accuracy").
        t_stop: absolute time bound for the schedule [s].
        use_sherman_morrison: solve regions with the O(K) bordered-
            tridiagonal path (False = dense LU, for the ablation bench).
        max_retries: initial-guess perturbations tried per region before
            giving up.
    """

    milestone_fractions: Tuple[float, ...] = (
        1.10, 1.00, 0.90, 0.80, 0.70, 0.60, 0.50, 0.40, 0.30, 0.20,
        0.12, 0.06)
    newton: NewtonOptions = field(default_factory=lambda: NewtonOptions(
        abstol=1e-10, xtol=1e-16, max_iterations=40))
    turn_on_margin: float = 2e-3
    cascade_substeps: int = 2
    waveform_order: int = 2
    t_stop: float = 5e-9
    use_sherman_morrison: bool = True
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.waveform_order not in (1, 2):
            raise ValueError("waveform_order must be 1 (piecewise linear)"
                             " or 2 (piecewise quadratic)")
        problems = check_milestone_fractions(self.milestone_fractions)
        if problems:
            raise ValueError("; ".join(problems))
        if self.t_stop <= 0:
            raise ValueError("t_stop must be positive")
        if self.turn_on_margin < 0:
            raise ValueError("turn_on_margin must be non-negative")
        if self.cascade_substeps < 1:
            raise ValueError("cascade_substeps must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


@dataclass
class QWMSolution:
    """Result of a QWM evaluation.

    Attributes:
        path: the evaluated pull path.
        waveforms: node name -> piecewise-quadratic waveform in *actual*
            volts (frame conversion already applied).
        critical_times: solved region boundaries [s].
        stats: cost accounting (steps = regions solved).
    """

    path: DischargePath
    waveforms: Dict[str, PiecewiseQuadraticWaveform]
    critical_times: List[float]
    stats: SimulationStats

    @property
    def output_waveform(self) -> PiecewiseQuadraticWaveform:
        return self.waveforms[self.path.node_names[-1]]

    def delay(self, t_input: float = 0.0,
              fraction: float = 0.5) -> Optional[float]:
        """Propagation delay to the output's ``fraction * vdd`` crossing."""
        level = fraction * self.path.vdd
        crossing = self.output_waveform.crossing_time(level)
        if crossing is None:
            return None
        return crossing - t_input

    def to_transient_result(self,
                            times: Optional[np.ndarray] = None
                            ) -> TransientResult:
        """Sample the piecewise waveforms into a TransientResult.

        By default samples exactly at the critical points — the paper
        plots QWM "as straight solid lines connecting the critical
        points calculated by QWM".
        """
        if times is None:
            times = self.output_waveform.breakpoints
        times = np.asarray(times, dtype=float)
        voltages = {name: wave.sample(times)
                    for name, wave in self.waveforms.items()}
        return TransientResult(times=times, voltages=voltages,
                               stats=self.stats, label="qwm")


def _condition_json(condition) -> Dict[str, object]:
    """Serialize a region end condition for the flight ledger."""
    if isinstance(condition, TimeCondition):
        return {"kind": "time", "t_end": float(condition.t_end)}
    if isinstance(condition, CrossingCondition):
        return {"kind": "crossing", "target": float(condition.target)}
    if isinstance(condition, TurnOnCondition):
        return {"kind": "turn_on",
                "device_index": int(condition.device_index)}
    return {"kind": type(condition).__name__}


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip`` of one scalar, without numpy's per-call cost.

    Numpy's rule, checked against numpy 2.4's ``np.clip`` on NaNs,
    infinities and signed zeros: a NaN anywhere gives NaN, a value equal
    to a bound is kept (``-0.0`` clipped at ``0.0`` stays ``-0.0``), and
    ``lo > hi`` gives ``hi``.
    """
    if x != x:
        return x
    if lo != lo or hi != hi:
        return math.nan
    if x < lo:
        x = lo
    if x > hi:
        x = hi
    return x


#: Region-kind frame tags (the profile and accuracy taxonomy's middle
#: axis).
_CONDITION_TAGS = {"TurnOnCondition": "turn_on",
                   "CrossingCondition": "crossing",
                   "TimeCondition": "time"}


class _TableQueryMeter:
    """Incremental drain of a path's table-model query counters.

    ``SimulationStats.device_evaluations`` is accumulated *during* the
    schedule (after every region attempt, plus a final sweep) instead of
    recomputed once at the end, so evaluations spent on retried or
    abandoned regions are counted even if the schedule aborts early.
    The ``device.table.evaluations`` metric is fed the same drained
    deltas, keeping the two views consistent by construction.
    """

    def __init__(self, path: DischargePath):
        self._tables = list({id(d.table): d.table
                             for d in path.devices if d.table}.values())
        self._seen = sum(t.query_count for t in self._tables)

    def drain(self, stats: SimulationStats) -> int:
        """Move new queries into ``stats`` and the metrics counter."""
        now = sum(t.query_count for t in self._tables)
        delta = now - self._seen
        if delta:
            self._seen = now
            stats.device_evaluations += delta
            inc("device.table.evaluations", delta)
        return delta


class QWMSolver:
    """Piecewise quadratic waveform matching on one pull path.

    Args:
        path: extracted by :func:`repro.core.path.extract_path`.
        options: scheduler controls.
    """

    def __init__(self, path: DischargePath,
                 options: Optional[QWMOptions] = None):
        self.path = path
        self.options = options or QWMOptions()
        # The ledger while the flight view records this solve (else
        # None), the solve's id and the last region failure it recorded.
        self._fl = None
        self.solve_id = 0
        self.failure: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def solve(self, inputs: Dict[str, SourceLike],
              initial: Dict[str, float],
              t_start: float = 0.0) -> QWMSolution:
        """Run the QWM schedule.

        Args:
            inputs: gate input name -> source (actual domain).
            initial: node name -> initial *actual* voltage [V] for every
                path node.
            t_start: schedule start time [s].

        Returns:
            The solved :class:`QWMSolution`.
        """
        led = ledger()
        self.failure = None
        if led.recording:
            self._fl = led
            self.solve_id = led.begin_solve(
                k=self.path.length, direction=self.path.direction,
                output=self.path.output, t_start=t_start)
        else:
            self._fl = None
            self.solve_id = 0
        with frame("qwm.solve",
                   ctx={"rung": "qwm", "stage": self.path.stage.name},
                   k=self.path.length,
                   direction=self.path.direction) as sp:
            solution = self._run_schedule(inputs, initial, t_start)
            sp.set(regions=solution.stats.steps,
                   newton_iterations=solution.stats.newton_iterations)
        inc("qwm.solves")
        if self._fl is not None:
            self._fl.record(
                "solve_end", solve_id=self.solve_id,
                regions=solution.stats.steps,
                newton_iterations=solution.stats.newton_iterations,
                table_queries=solution.stats.device_evaluations,
                wall_seconds=solution.stats.wall_time)
        return solution

    def _run_schedule(self, inputs: Dict[str, SourceLike],
                      initial: Dict[str, float],
                      t_start: float) -> QWMSolution:
        path = self.path
        opts = self.options
        sources = {name: as_source(src) for name, src in inputs.items()}
        for dev in path.devices:
            if dev.is_transistor and dev.gate not in sources:
                raise ValueError(f"missing source for input {dev.gate!r}")

        k_total = path.length
        u = np.array([path.to_frame(initial[name])
                      for name in path.node_names])
        i = np.zeros(k_total)
        pieces: List[List[QuadraticPiece]] = [[] for _ in range(k_total)]
        critical_times: List[float] = [t_start]
        stats = SimulationStats()
        meter = _TableQueryMeter(path)

        wall_start = time.perf_counter()
        tau = t_start
        frontier = 0
        # A step exactly at the schedule start couples its Miller charge
        # immediately (later steps are handled at their activation time).
        u += path.coupling_kick(sources, t_start,
                                path.equivalent_caps(u, u))

        def record(tau0: float, tau1: float, u_new: np.ndarray,
                   i_new: np.ndarray, active: int,
                   caps: Optional[np.ndarray] = None,
                   order: Optional[int] = None) -> None:
            duration = tau1 - tau0
            if duration <= 0:
                return
            if caps is None:
                caps = path.node_caps
            if order is None:
                order = opts.waveform_order
            for k in range(k_total):
                if k >= active:
                    pieces[k].append(QuadraticPiece(
                        t0=tau0, t1=tau1, v0=u[k], slope=0.0, curve=0.0))
                elif order == 1:
                    pieces[k].append(QuadraticPiece(
                        t0=tau0, t1=tau1, v0=u[k],
                        slope=(u_new[k] - u[k]) / duration, curve=0.0))
                else:
                    alpha = (i_new[k] - i[k]) / duration
                    pieces[k].append(QuadraticPiece(
                        t0=tau0, t1=tau1, v0=u[k],
                        slope=i[k] / caps[k],
                        curve=0.5 * alpha / caps[k]))

        # ------------------------------------------------------------
        # Phase 1 + 2: activation and the turn-on cascade.  Whenever the
        # frontier moves without a solve (wire macros, devices already
        # on, the input-driven activation itself), the node currents are
        # re-seeded from the device model: the matching equations make
        # this a no-op at solved boundaries, and it captures the current
        # discontinuity a step input causes.
        # ------------------------------------------------------------
        while frontier < k_total and tau < opts.t_stop:
            next_idx = frontier + 1
            device = path.devices[next_idx - 1]
            if not device.is_transistor:
                frontier = next_idx
                i = self._model_currents(sources, frontier, tau, u)
                continue
            u_src = u[frontier - 1] if frontier >= 1 else 0.0
            if self._drive(device, sources, tau, u_src) >= -opts.turn_on_margin:
                frontier = next_idx
                i = self._model_currents(sources, frontier, tau, u)
                continue
            active_current = (float(np.max(np.abs(i[:frontier])))
                              if frontier > 0 else 0.0)
            if frontier == 0 or active_current < 1e-9:
                # Nothing below the frontier is (meaningfully) moving:
                # the turn-on is purely input-driven, and for a step
                # gate the condition is a discontinuity Newton cannot
                # cross — resolve the instant by bisection instead.
                tau_on = self._activation_time(device, sources, tau,
                                               opts.t_stop, u_src)
                if tau_on is None:
                    break
                record(tau, tau_on, u, i, active=0)
                tau = tau_on
                critical_times.append(tau)
                frontier = next_idx
                # Ideal steps at the activation instant couple charge
                # into the path nodes through the gate (Miller) caps.
                caps_now = path.equivalent_caps(u, u)
                u += path.coupling_kick(sources, tau, caps_now)
                i = self._model_currents(sources, frontier, tau, u)
                continue
            # Solve the turn-on region for the current frontier, with
            # optional intermediate matching points along the way.
            failed = False
            for condition in self._cascade_conditions(
                    device, sources, tau, u, frontier, next_idx):
                solved = self._solve_region(sources, frontier, tau, u, i,
                                            condition, stats, meter)
                if solved is None:
                    failed = True
                    break
                tau_new, u_new, i_new, caps_used, order_used = solved
                record(tau, tau_new, u_new, i_new, active=frontier,
                       caps=caps_used, order=order_used)
                u[:frontier] = u_new[:frontier]
                i[:frontier] = i_new[:frontier]
                tau = tau_new
                critical_times.append(tau)
            if failed:
                if self._fl is not None:
                    self._fl.record("fallback", solve_id=self.solve_id,
                                    fallback="cascade_abort",
                                    frontier=frontier, tau=tau)
                break
            frontier = next_idx
            i = self._model_currents(sources, frontier, tau, u,
                                     fallback=i)

        # ------------------------------------------------------------
        # Phase 3: milestone matching on the output node.
        # ------------------------------------------------------------
        if frontier == k_total:
            # While an input is still ramping, match at fixed instants
            # subdividing the rest of the ramp.  Device current grows
            # convexly with the gate overdrive, so a single region whose
            # linear-in-time current is pinned at the endpoints
            # overestimates the discharged charge; short time-anchored
            # regions bound that error, and no milestone region is left
            # spanning the ramp-end break where the Miller injection
            # switches off discontinuously.
            floor = min(opts.milestone_fractions) * path.vdd
            brk = self._next_input_break(sources, tau)
            while (brk is not None and brk < opts.t_stop
                   and u[k_total - 1] > floor + 1e-6):
                n_sub = max(2 * opts.cascade_substeps, 2)
                ramp_start = tau
                ok = True
                for j in range(1, n_sub + 1):
                    t_j = ramp_start + (brk - ramp_start) * j / n_sub
                    if t_j <= tau + 1e-15:
                        continue
                    solved = self._solve_region(sources, k_total, tau,
                                                u, i, TimeCondition(t_j),
                                                stats, meter,
                                                phase="qwm.phase3")
                    if solved is None:
                        ok = False
                        break
                    tau_new, u_new, i_new, caps_used, order_used = solved
                    record(tau, tau_new, u_new, i_new, active=k_total,
                           caps=caps_used, order=order_used)
                    u[:] = u_new
                    i[:] = i_new
                    tau = tau_new
                    critical_times.append(tau)
                if not ok:
                    break
                brk = self._next_input_break(sources, tau)
            worklist = [f * path.vdd for f in opts.milestone_fractions]
            # Deep-tail targets can sit arbitrarily close to the slow
            # exponential floor; a bounded failure budget keeps a few
            # hard crossings from consuming the whole retry machinery.
            failure_budget = 3
            while worklist and tau < opts.t_stop and failure_budget > 0:
                target = worklist.pop(0)
                if target >= u[k_total - 1] - 1e-6:
                    continue
                condition = CrossingCondition(target)
                solved = self._solve_region(sources, k_total, tau, u, i,
                                            condition, stats, meter,
                                            phase="qwm.phase3")
                # An input-waveform break (a ramp ending) inside the
                # region makes the Miller-injection term discontinuous,
                # which the quadratic link cannot represent — for fast
                # ramps Newton fails outright or converges onto a
                # spurious slow root on the far side.  On failure,
                # anchor a region exactly at the break and retry the
                # milestone from the settled input.
                if solved is None:
                    brk = self._next_input_break(sources, tau)
                    if brk is not None and brk < opts.t_stop:
                        anchored = self._solve_region(
                            sources, k_total, tau, u, i,
                            TimeCondition(brk), stats, meter,
                            phase="qwm.phase3")
                        if self._fl is not None:
                            self._fl.record(
                                "fallback", solve_id=self.solve_id,
                                fallback="ramp_break_anchor", tau=tau,
                                t_break=brk, target=target,
                                recovered=anchored is not None)
                        if anchored is not None:
                            solved = anchored
                            worklist.insert(0, target)
                if solved is None:
                    failure_budget -= 1
                    # Split the crossing: aim for the midpoint first.
                    mid = 0.5 * (u[k_total - 1] + target)
                    if u[k_total - 1] - mid > 5e-3:
                        if self._fl is not None:
                            self._fl.record(
                                "fallback", solve_id=self.solve_id,
                                fallback="region_subdivision", tau=tau,
                                target=target, midpoint=mid)
                        worklist[:0] = [mid, target]
                        continue
                    break
                tau_new, u_new, i_new, caps_used, order_used = solved
                record(tau, tau_new, u_new, i_new, active=k_total,
                       caps=caps_used, order=order_used)
                u[:] = u_new
                i[:] = i_new
                tau = tau_new
                critical_times.append(tau)

        stats.wall_time = time.perf_counter() - wall_start
        meter.drain(stats)

        waveforms: Dict[str, PiecewiseQuadraticWaveform] = {}
        for k, name in enumerate(path.node_names):
            node_pieces = pieces[k]
            if not node_pieces:
                node_pieces = [QuadraticPiece(
                    t0=t_start, t1=max(tau, t_start + 1e-15),
                    v0=u[k], slope=0.0, curve=0.0)]
            if path.direction == "rise":
                node_pieces = [QuadraticPiece(
                    t0=p.t0, t1=p.t1, v0=path.vdd - p.v0,
                    slope=-p.slope, curve=-p.curve) for p in node_pieces]
            waveforms[name] = PiecewiseQuadraticWaveform(node_pieces)

        return QWMSolution(path=path, waveforms=waveforms,
                           critical_times=critical_times, stats=stats)

    # ------------------------------------------------------------------
    def _model_currents(self, sources, frontier: int, tau: float,
                        u: np.ndarray,
                        fallback: Optional[np.ndarray] = None) -> np.ndarray:
        """Node currents implied by the device model at a frontier state.

        ``I_k = J_{k+1} - J_k`` for the active nodes (evaluating the
        device just above the frontier too, which carries only its
        sub-threshold current there); frozen nodes keep zero (or their
        ``fallback`` value).
        """
        path = self.path
        k_total = path.length
        i = np.zeros(k_total) if fallback is None else fallback.copy()
        top = min(frontier + 1, k_total)
        currents = np.zeros(k_total + 2)
        for k in range(1, top + 1):
            device = path.devices[k - 1]
            gate_v = (sources[device.gate].value(tau)
                      if device.gate else 0.0)
            u_inner = u[k - 2] if k >= 2 else 0.0
            currents[k], _, _, _ = device.frame_current(
                gate_v, u_inner, u[k - 1], path.vdd)
        injection = path.coupling_injection(sources, tau)
        for k in range(1, frontier + 1):
            i[k - 1] = currents[k + 1] - currents[k] + injection[k - 1]
        return i

    def _cascade_conditions(self, device, sources, tau: float,
                            u: np.ndarray, frontier: int,
                            next_idx: int) -> List[object]:
        """Conditions for one turn-on region (with optional substeps).

        The final condition is always the exact turn-on of device
        ``next_idx``; with ``cascade_substeps > 1``, intermediate
        crossings of the frontier node are matched first, splitting the
        voltage gap evenly.
        """
        n_sub = max(self.options.cascade_substeps, 1)
        conditions: List[object] = []
        if n_sub > 1:
            gate_v = sources[device.gate].value(tau)
            u_now = u[frontier - 1]
            vth = device.threshold(gate_v, u_now, self.path.vdd)
            u_target = device.frame_gate(gate_v, self.path.vdd) - vth
            gap = u_target - u_now
            # Substeps only make sense for a node-driven turn-on (the
            # source node falling toward a non-negative target); an
            # input-driven turn-on (gate still ramping, target below
            # ground) is resolved purely by the final condition's time
            # axis.
            if gap < -5e-3 and u_target >= 0.0:
                for j in range(1, n_sub):
                    conditions.append(
                        CrossingCondition(u_now + gap * j / n_sub))
        conditions.append(TurnOnCondition(next_idx))
        return conditions

    def _drive(self, device, sources, t: float, u_src: float) -> float:
        """Frame gate drive minus threshold for a path transistor."""
        gate_v = sources[device.gate].value(t)
        vth = device.threshold(gate_v, u_src, self.path.vdd)
        return device.frame_gate(gate_v, self.path.vdd) - u_src - vth

    def _activation_time(self, device, sources, t0: float, t1: float,
                         u_src: float) -> Optional[float]:
        """Earliest t in [t0, t1] where the device's drive reaches zero."""
        if self._drive(device, sources, t1, u_src) < 0:
            return None
        lo, hi = t0, t1
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self._drive(device, sources, mid, u_src) >= 0:
                hi = mid
            else:
                lo = mid
        return hi

    def _next_input_break(self, sources, t: float) -> Optional[float]:
        """Earliest upcoming waveform break over the path's gates."""
        earliest = None
        for device in self.path.devices:
            if not device.is_transistor:
                continue
            brk = sources[device.gate].next_break(t)
            if brk is not None and (earliest is None or brk < earliest):
                earliest = brk
        return earliest

    def _initial_guess(self, sources, active: int, tau: float,
                       u: np.ndarray, i: np.ndarray, condition,
                       scale: float = 1.0) -> np.ndarray:
        """Rate-based extrapolation seed for a region solve."""
        path = self.path
        vdd = path.vdd
        # Instantaneous device currents at the region start.
        top = min(active + 1, path.length)
        currents = np.zeros(path.length + 2)
        for k in range(1, top + 1):
            device = path.devices[k - 1]
            gate_v = (sources[device.gate].value(tau)
                      if device.gate else 0.0)
            u_inner = u[k - 2] if k >= 2 else 0.0
            currents[k], _, _, _ = device.frame_current(
                gate_v, u_inner, u[k - 1], vdd)
        rates = np.array([
            (currents[k + 1] - currents[k]) / path.node_caps[k - 1]
            for k in range(1, active + 1)])

        if isinstance(condition, TimeCondition):
            # The end time is pinned; only the voltages are unknown.
            delta0 = max(condition.t_end - tau, 1e-14) * scale
            guess = np.empty(active + 1)
            for k in range(active):
                guess[k] = _clip(u[k] + rates[k] * delta0, 0.0, u[k])
            self._couple_wire_nodes(guess, u, active)
            guess[active] = condition.t_end
            return guess
        if isinstance(condition, CrossingCondition):
            target = condition.target
        else:
            device = path.devices[condition.device_index - 1]
            gate_v = sources[device.gate].value(tau)
            vth = device.threshold(gate_v, u[active - 1], vdd)
            target = device.frame_gate(gate_v, vdd) - vth
            if target <= u[active - 1] - 2.0 * vdd or target < -0.1:
                target = u[active - 1]  # degenerate; rely on time guess
            # If the gate itself is still moving (a ramping input), the
            # turn-on is (partly) input-driven: estimate the time by
            # bisection with the source node frozen and take the gate
            # level there as the target.
            if abs(sources[device.gate].slope(tau)) > 1e6:
                t_on = self._activation_time(
                    device, sources, tau, self.options.t_stop,
                    u[active - 1])
                if t_on is not None and t_on > tau:
                    gate_on = sources[device.gate].value(t_on)
                    vth_on = device.threshold(gate_on, u[active - 1],
                                              vdd)
                    target = device.frame_gate(gate_on, vdd) - vth_on
                    delta0 = (t_on - tau) * scale
                    delta0 = min(max(delta0, 1e-14), 2e-9)
                    guess = np.empty(active + 1)
                    for k in range(active):
                        guess[k] = _clip(u[k] + rates[k] * delta0, 0.0,
                                         u[k])
                    guess[active - 1] = _clip(target, 0.0, 1.5 * vdd)
                    guess[active] = tau + delta0
                    return guess
        rate_top = rates[active - 1]
        gap = target - u[active - 1]
        if rate_top < -1e-3 and gap < 0:
            delta0 = gap / rate_top
        else:
            # Crude RC estimate from the bottom device's on current.
            i_on = max(abs(currents[1]), 1e-7)
            delta0 = abs(gap) * path.node_caps[active - 1] / i_on + 1e-13
        # A still-ramping bottom gate makes both estimates above badly
        # pessimistic: the start-of-region current is barely above
        # threshold, so the implied rate is orders of magnitude below
        # the drive the region will actually see, ballooning the seed
        # toward the clamp and stranding Newton far past the crossing.
        # Bound the seed by "rest of the ramp, then traverse the gap at
        # the fully-ramped current".
        bottom = path.devices[0]
        if bottom.is_transistor \
                and abs(sources[bottom.gate].slope(tau)) > 1e6:
            gate_end = sources[bottom.gate].value(self.options.t_stop)
            i_end, _, _, _ = bottom.frame_current(gate_end, 0.0, u[0],
                                                  vdd)
            if abs(i_end) > 1e-7:
                ramp_left = (abs(gate_end
                                 - sources[bottom.gate].value(tau))
                             / abs(sources[bottom.gate].slope(tau)))
                delta_on = (ramp_left
                            + abs(gap) * path.node_caps[active - 1]
                            / abs(i_end) + 1e-13)
                delta0 = min(delta0, delta_on)
        delta0 *= scale
        delta0 = min(max(delta0, 1e-14), 2e-9)

        guess = np.empty(active + 1)
        for k in range(active):
            guess[k] = _clip(u[k] + rates[k] * delta0, 0.0, u[k])
        guess[active - 1] = _clip(target, 0.0, 1.5 * vdd)
        self._couple_wire_nodes(guess, u, active)
        guess[active] = tau + delta0
        return guess

    def _couple_wire_nodes(self, guess: np.ndarray, u: np.ndarray,
                           active: int) -> None:
        """Seed wire-connected neighbors together (stiff coupling).

        A collapsed pi wire has ohms of resistance; leaving one end at
        its old voltage while the other jumps to the target hands
        Newton an ampere-scale residual it may not recover from.
        """
        for k in range(active - 1, 0, -1):
            device = self.path.devices[k]
            if device.kind is not DeviceKind.WIRE:
                continue
            coupled = min(guess[k], u[k - 1])
            guess[k - 1] = _clip(coupled, 0.0, u[k - 1])

    def _solve_region(self, sources, active: int, tau: float,
                      u: np.ndarray, i: np.ndarray, condition,
                      stats: SimulationStats,
                      meter: _TableQueryMeter,
                      phase: str = "qwm.phase12"
                      ) -> Optional[Tuple[float, np.ndarray, np.ndarray,
                                          np.ndarray, int]]:
        """Solve one region with retries.

        Returns ``(tau', u', i', caps_used, order_used)`` or None on
        failure.  The solve runs twice when needed: once with
        capacitances matched to the *predicted* voltage span, then
        refined with the solved span (junction caps are bias dependent).

        If every attempt with the configured waveform order fails, the
        region is retried with the order-1 (constant-current) link: the
        trapezoidal order-2 link is inconsistent for *long* regions
        whose nodes carry sustained pass-through current (it forces the
        end current toward minus the start current), while the order-1
        link degrades gracefully to the quasi-static limit.
        """
        path = self.path
        opts = self.options
        rec = self._fl
        scales = [(s, opts.waveform_order)
                  for s in [1.0, 0.3, 3.0, 0.1][:max(opts.max_retries, 1)]]
        if opts.waveform_order != 1:
            scales += [(1.0, 1), (0.3, 1)]
        tag = _CONDITION_TAGS.get(type(condition).__name__, "region")
        region_start = time.perf_counter()
        attempts = 0
        reasons: List[str] = []
        failed_iterations = 0
        region_queries = 0
        # One frame per region, labelled (solver phase, region kind): op
        # counts are accumulated locally and flushed once at frame exit,
        # never inside the Newton iteration loop (see lint rule SOL006).
        with frame(phase, tag, kind=type(condition).__name__,
                   active=active) as region:
            for scale, order in scales:
                attempts += 1
                region_iterations = 0
                guess = self._initial_guess(sources, active, tau, u, i,
                                            condition, scale)
                u_predicted = u.copy()
                u_predicted[:active] = guess[:active]
                caps = path.equivalent_caps(u, u_predicted)
                for _refine in range(2):
                    system = RegionSystem(path, sources, active, tau, u,
                                          i, condition, caps=caps,
                                          order=order)
                    trajectory = [] if rec is not None else None
                    outcome = "converged"
                    if rec is not None:
                        guess_rec = [float(v) for v in guess]
                        caps_rec = [float(c) for c in caps]
                    try:
                        result = system.newton_solve(
                            guess, options=opts.newton,
                            use_sherman_morrison=opts.use_sherman_morrison,
                            trajectory=trajectory)
                    except NewtonConvergenceError as exc:
                        result = None
                        outcome = exc.reason
                    else:
                        # Residual export for an armed accuracy capture
                        # (one thread-local read otherwise).
                        note_region(phase, tag, active,
                                    result.residual_norm,
                                    result.iterations)
                    if result is not None:
                        tau_new = float(result.x[active])
                        if not tau_new > tau:
                            result = None
                            outcome = "non_advancing_time"
                    if rec is not None:
                        rec.record(
                            "newton", solve_id=self.solve_id,
                            active=active, tau=float(tau),
                            condition=_condition_json(condition),
                            scale=scale, order=order, refine=_refine,
                            u=[float(v) for v in u],
                            i=[float(v) for v in i],
                            caps=caps_rec, guess=guess_rec,
                            trajectory=trajectory, outcome=outcome,
                            iterations=(result.iterations
                                        if result is not None
                                        else max(len(trajectory) - 1, 0)))
                    if result is None:
                        reasons.append(outcome)
                        if trajectory is not None:
                            failed_iterations += max(len(trajectory) - 1,
                                                     0)
                        break
                    u_new = u.copy()
                    u_new[:active] = np.clip(result.x[:active], -0.1,
                                             1.5 * path.vdd)
                    refined = path.equivalent_caps(u, u_new)
                    stats.newton_iterations += result.iterations
                    region_iterations += result.iterations
                    drift = np.max(np.abs(refined - caps)
                                   / np.maximum(caps, 1e-18))
                    if drift < 5e-3:
                        break
                    caps = refined
                    guess = result.x.copy()
                drained = meter.drain(stats)
                region_queries += drained
                region.count("table_evaluations", drained)
                if result is None:
                    inc("newton.convergence.failures")
                    region.count("newton_failures")
                    continue
                delta = tau_new - tau
                order_f = float(order)
                i_new = i.copy()
                i_new[:active] = (order_f * caps[:active]
                                  * (u_new[:active] - u[:active]) / delta
                                  - (order_f - 1.0) * i[:active])
                stats.steps += 1
                if attempts > 1:
                    inc("qwm.region.retries", attempts - 1)
                observe("qwm.newton.iterations", region_iterations)
                observe("qwm.region.wall_seconds",
                        time.perf_counter() - region_start)
                region.count("regions")
                region.count("newton_iterations", region_iterations)
                region.count("attempts", attempts)
                region.set(iterations=region_iterations,
                           attempts=attempts, order=order)
                if rec is not None:
                    rec.record(
                        "region_solved", solve_id=self.solve_id,
                        active=active, tau=float(tau),
                        tau_new=tau_new,
                        condition=_condition_json(condition),
                        milestone=[float(v) for v in u_new[:active]],
                        order=order, attempts=attempts,
                        iterations=region_iterations,
                        table_queries=region_queries)
                return tau_new, u_new, i_new, caps, order
        if rec is not None:
            data = {"active": active, "tau": float(tau),
                    "condition": _condition_json(condition),
                    "u": [float(v) for v in u],
                    "i": [float(v) for v in i],
                    "attempts": attempts, "reasons": reasons,
                    "iterations": failed_iterations,
                    "table_queries": region_queries}
            rec.record("region_failed", solve_id=self.solve_id, **data)
            self.failure = dict(data, solve_id=self.solve_id)
        return None
