"""LTE-controlled adaptive transient analysis.

Real SPICE engines do not run at fixed 1 ps steps: they grow the step
when the solution is smooth and shrink it through fast transitions,
keeping the local truncation error (LTE) near a target.  This engine
implements the standard predictor/corrector scheme on top of the same
stage equations as the fixed-step engine:

1. predict the next solution by linear extrapolation of the history,
2. correct with a backward-Euler Newton solve,
3. estimate the LTE from the predictor/corrector gap and accept or
   retry with a smaller step, rescaling ``dt`` by the usual
   ``sqrt(tol / lte)`` rule.

It exists both as a library feature and as a benchmark reference: the
paper's fixed 1 ps / 10 ps comparisons bracket what an adaptive run
achieves (see ``benchmarks/bench_adaptive.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.circuit.netlist import LogicStage
from repro.devices.technology import Technology
from repro.linalg.newton import (
    NewtonConvergenceError,
    NewtonOptions,
    NewtonSolver,
)
from repro.obs import frame, inc
from repro.spice.dc import logic_initial_condition, solve_dc
from repro.spice.mna import StageEquations
from repro.spice.results import SimulationStats, TransientResult
from repro.spice.sources import SourceLike, as_source


class TransientBudgetExceeded(RuntimeError):
    """The adaptive engine exhausted its step or wall-clock budget.

    Step halving around a non-smooth point can otherwise attempt an
    unbounded number of steps (each rejection is a full Newton solve);
    the budget turns that pathology into a structured, catchable
    failure carrying how far the analysis got.
    """

    def __init__(self, message: str, attempts: int,
                 wall_seconds: float, t_reached: float):
        super().__init__(message)
        self.attempts = attempts
        self.wall_seconds = wall_seconds
        self.t_reached = t_reached


@dataclass
class AdaptiveOptions:
    """Controls for :class:`AdaptiveTransientSimulator`.

    Attributes:
        t_stop: analysis window [s].
        dt_min: smallest allowed step [s].
        dt_max: largest allowed step [s].
        dt_initial: starting step [s].
        lte_tol: accepted local truncation error per step [V].
        grow_limit: maximum step growth factor per accepted step.
        shrink_limit: minimum step shrink factor per rejected step.
        newton: per-step Newton controls.
        max_steps: budget on step *attempts* (accepted + LTE-rejected +
            Newton-failed); exceeding it raises
            :class:`TransientBudgetExceeded`.
        max_wall_seconds: optional wall-clock budget for one run [s].
    """

    t_stop: float = 500e-12
    dt_min: float = 10e-15
    dt_max: float = 20e-12
    dt_initial: float = 0.5e-12
    lte_tol: float = 2e-3
    grow_limit: float = 2.0
    shrink_limit: float = 0.25
    newton: NewtonOptions = field(default_factory=lambda: NewtonOptions(
        abstol=1e-9, xtol=1e-7, max_iterations=40, max_step=0.5))
    max_steps: int = 200_000
    max_wall_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.dt_min <= self.dt_initial <= self.dt_max:
            raise ValueError("need dt_min <= dt_initial <= dt_max")
        if self.lte_tol <= 0:
            raise ValueError("lte_tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive or None")


class AdaptiveTransientSimulator:
    """Variable-step backward-Euler transient engine for one stage."""

    def __init__(self, stage: LogicStage, tech: Technology,
                 options: Optional[AdaptiveOptions] = None):
        self.stage = stage
        self.tech = tech
        self.options = options or AdaptiveOptions()
        self.equations = StageEquations(stage, tech)

    def run(self, inputs: Dict[str, SourceLike],
            initial: Optional[Dict[str, float]] = None) -> TransientResult:
        """Run the adaptive analysis (same interface as the fixed engine)."""
        with frame("spice.adaptive", self.stage.name,
                   ctx={"rung": "spice", "stage": self.stage.name}) as fr:
            result = self._run(inputs, initial)
            fr.count("steps", result.stats.steps)
            fr.count("newton_iterations", result.stats.newton_iterations)
            fr.count("device_evaluations",
                     result.stats.device_evaluations)
            return result

    def _run(self, inputs: Dict[str, SourceLike],
             initial: Optional[Dict[str, float]]) -> TransientResult:
        opts = self.options
        eq = self.equations
        sources = {name: as_source(src) for name, src in inputs.items()}
        v = self._initial_state(sources, initial)

        times: List[float] = [0.0]
        history: List[np.ndarray] = [v.copy()]
        stats = SimulationStats()
        eq.device_evaluations = 0
        solver = NewtonSolver(opts.newton)
        gate_prev = eq.gate_values(sources, 0.0)

        t = 0.0
        dt = opts.dt_initial
        prev_dt: Optional[float] = None
        attempts = 0
        t_start = time.perf_counter()
        while t < opts.t_stop - 1e-18:
            attempts += 1
            wall = time.perf_counter() - t_start
            if attempts > opts.max_steps or (
                    opts.max_wall_seconds is not None
                    and wall > opts.max_wall_seconds):
                inc("spice.budget.exceeded")
                what = ("step budget" if attempts > opts.max_steps
                        else "wall-clock budget")
                raise TransientBudgetExceeded(
                    f"adaptive transient exceeded its {what} "
                    f"({attempts - 1} attempts, {wall:.3g}s) at "
                    f"t={t:.3e}s of {opts.t_stop:.3e}s",
                    attempts=attempts - 1, wall_seconds=wall,
                    t_reached=t)
            dt = min(dt, opts.t_stop - t)
            # Break the step at input discontinuities (SPICE-style
            # breakpoints): land exactly on the edge, and since that
            # step necessarily contains the discontinuity, the LTE test
            # is waived for it and integration restarts small after.
            dt, at_breakpoint = self._limit_to_source_edges(sources, t, dt)
            t_new = t + dt
            gate_new = eq.gate_values(sources, t_new)
            caps = eq.node_capacitances(v)
            v_old = v.copy()

            miller = np.zeros(eq.n)
            for idx, gate, cap in eq.gate_couplings:
                dvg = (gate_new[gate] - gate_prev[gate]) / dt
                miller[idx] -= cap * dvg

            def residual(x: np.ndarray) -> np.ndarray:
                f, _ = eq.static_residual(x, gate_new)
                return f + caps * (x - v_old) / dt + miller

            def jacobian(x: np.ndarray) -> np.ndarray:
                _, jac = eq.static_residual(x, gate_new)
                jac = jac.copy()
                jac[np.diag_indices(eq.n)] += caps / dt
                return jac

            predictor = self._predict(history, times, dt, prev_dt)
            try:
                result = solver.solve(residual, jacobian, predictor)
            except NewtonConvergenceError:
                if dt <= opts.dt_min * 1.001:
                    raise
                dt = max(dt * opts.shrink_limit, opts.dt_min)
                continue

            v_new = np.clip(result.x, -2.0, self.stage.vdd + 2.0)
            lte = float(np.max(np.abs(v_new - predictor))) \
                if prev_dt is not None else 0.0
            if (lte > opts.lte_tol and dt > opts.dt_min * 1.001
                    and not at_breakpoint):
                dt = max(dt * max(np.sqrt(opts.lte_tol / lte) * 0.8,
                                  opts.shrink_limit), opts.dt_min)
                continue

            # Accept.
            prev_dt = dt
            t = t_new
            v = v_new
            gate_prev = gate_new
            times.append(t)
            history.append(v.copy())
            stats.steps += 1
            stats.newton_iterations += result.iterations
            if at_breakpoint:
                # Restart small after the discontinuity; the history is
                # not smooth across it, so the predictor resets too.
                dt = opts.dt_initial
                prev_dt = None
            elif lte > 0:
                dt = min(dt * min(np.sqrt(opts.lte_tol / lte),
                                  opts.grow_limit), opts.dt_max)
            else:
                dt = min(dt * opts.grow_limit, opts.dt_max)
        stats.wall_time = time.perf_counter() - t_start
        stats.device_evaluations = eq.device_evaluations

        stacked = np.vstack(history)
        voltages = {name: stacked[:, eq.node_index(name)]
                    for name in eq.node_names}
        return TransientResult(times=np.asarray(times), voltages=voltages,
                               stats=stats, label="spice-adaptive")

    # ------------------------------------------------------------------
    def _predict(self, history: List[np.ndarray], times: List[float],
                 dt: float, prev_dt: Optional[float]) -> np.ndarray:
        if prev_dt is None or len(history) < 2:
            return history[-1].copy()
        slope = (history[-1] - history[-2]) / prev_dt
        return history[-1] + slope * dt

    def _limit_to_source_edges(self, sources, t: float, dt: float):
        """Shrink the step so it lands on (not across) a step edge.

        Returns ``(dt, at_breakpoint)``; ``at_breakpoint`` is True when
        the step ends exactly on a source discontinuity.
        """
        limit = dt
        breakpoint_hit = False
        approach = 1.5 * self.options.dt_initial
        for src in sources.values():
            t_step = getattr(src, "t_step", None)
            if t_step is None or not t < t_step <= t + limit:
                continue
            gap = t_step - t
            if gap > approach:
                # Walk up to the edge first; backward Euler evaluates
                # the whole step at its end time, so the edge-containing
                # step must stay short or the device conducts for the
                # entire (pre-edge) span.
                limit = gap - self.options.dt_initial
                breakpoint_hit = False
            else:
                limit = gap
                breakpoint_hit = True
        return limit, breakpoint_hit

    def _initial_state(self, sources, initial) -> np.ndarray:
        eq = self.equations
        levels = eq.gate_values(sources, 0.0)
        seed = logic_initial_condition(self.stage, levels)
        if initial is not None:
            seed.update(initial)
            return np.array([seed[name] for name in eq.node_names])
        if eq.n == 0:
            return np.zeros(0)
        guess = np.array([seed[name] for name in eq.node_names])
        return solve_dc(eq, levels, initial_guess=guess)
