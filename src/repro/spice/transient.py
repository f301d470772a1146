"""Fixed-step transient analysis with Newton-Raphson at every step.

This is the cost model the paper measures HSPICE against: the user picks
a step size (1 ps or 10 ps in the paper's tables) and the engine performs
one nonlinear solve per step.  Backward-Euler and trapezoidal
integration are supported; capacitances may follow the node voltages
(evaluated at the last accepted solution, explicit-in-C) or stay at
their large-signal equivalents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuit.netlist import LogicStage
from repro.devices.technology import Technology
from repro.linalg.newton import NewtonOptions, NewtonSolver
from repro.obs import frame, inc
from repro.spice.dc import logic_initial_condition, solve_dc
from repro.spice.mna import StageEquations
from repro.spice.results import SimulationStats, TransientResult
from repro.spice.sources import SourceLike, as_source


@dataclass
class TransientOptions:
    """Controls for :class:`TransientSimulator`.

    Attributes:
        t_stop: end of the analysis window [s].
        dt: fixed time step [s] (the paper uses 1e-12 and 1e-11).
        method: ``"be"`` (backward Euler) or ``"trap"`` (trapezoidal).
        voltage_dependent_caps: see :class:`StageEquations`.
        newton: Newton-Raphson controls for the per-step solves.

    Without an explicit initial condition the run starts from the DC
    operating point at t=0.
    """

    t_stop: float = 500e-12
    dt: float = 1e-12
    method: str = "be"
    voltage_dependent_caps: bool = True
    newton: NewtonOptions = field(default_factory=lambda: NewtonOptions(
        abstol=1e-9, xtol=1e-7, max_iterations=50, max_step=0.5))

    def __post_init__(self) -> None:
        if self.t_stop <= 0 or self.dt <= 0:
            raise ValueError("t_stop and dt must be positive")
        if self.method not in ("be", "trap"):
            raise ValueError("method must be 'be' or 'trap'")


class TransientSimulator:
    """SPICE-style transient engine for one logic stage.

    Args:
        stage: the stage to simulate.
        tech: technology (golden device models).
        options: analysis controls.
    """

    def __init__(self, stage: LogicStage, tech: Technology,
                 options: Optional[TransientOptions] = None):
        self.stage = stage
        self.tech = tech
        self.options = options or TransientOptions()
        self.equations = StageEquations(
            stage, tech,
            voltage_dependent_caps=self.options.voltage_dependent_caps)

    def run(self, inputs: Dict[str, SourceLike],
            initial: Optional[Dict[str, float]] = None) -> TransientResult:
        """Run the transient analysis.

        Args:
            inputs: gate input name -> driving source (or constant level).
            initial: optional node name -> initial voltage [V]; missing
                nodes take a switch-level estimate.  Without it every
                node starts at the t=0 DC operating point.

        Returns:
            Waveforms for every internal node, with solver statistics.
        """
        with frame("spice.transient", self.stage.name,
                   method=self.options.method, dt=self.options.dt) as fr:
            result = self._run(inputs, initial)
            fr.set(steps=result.stats.steps,
                   newton_iterations=result.stats.newton_iterations)
            fr.count("steps", result.stats.steps)
            fr.count("newton_iterations", result.stats.newton_iterations)
            fr.count("device_evaluations",
                     result.stats.device_evaluations)
        stats = result.stats
        inc("spice.steps", stats.steps)
        inc("spice.newton.iterations", stats.newton_iterations)
        inc("spice.device.evaluations", stats.device_evaluations)
        return result

    def _run(self, inputs: Dict[str, SourceLike],
             initial: Optional[Dict[str, float]]) -> TransientResult:
        opts = self.options
        eq = self.equations
        sources = {name: as_source(src) for name, src in inputs.items()}
        missing = sorted(
            {e.gate_input for e in self.stage.transistors} - set(sources))
        if missing:
            raise ValueError(f"missing input sources for {missing}")

        v = self._initial_state(sources, initial)

        n_steps = int(round(opts.t_stop / opts.dt))
        times = np.linspace(0.0, n_steps * opts.dt, n_steps + 1)
        history = np.empty((n_steps + 1, eq.n))
        history[0] = v

        stats = SimulationStats()
        eq.device_evaluations = 0
        solver = NewtonSolver(opts.newton)
        gate_prev = eq.gate_values(sources, 0.0)
        if opts.method == "trap":
            # Static residual at t=0 for the trapezoidal history term.
            f_static_prev, _ = eq.static_residual(v, gate_prev)

        t_start = time.perf_counter()
        for step in range(1, n_steps + 1):
            t_new = times[step]
            gate_new = eq.gate_values(sources, t_new)
            caps = eq.node_capacitances(v)
            v_old = v.copy()
            dt = opts.dt

            # Gate-coupling (Miller) injection from moving inputs: the
            # known d(vg)/dt drives current into the coupled nodes.
            miller = np.zeros(eq.n)
            for idx, gate, cap in eq.gate_couplings:
                dvg = (gate_new[gate] - gate_prev[gate]) / dt
                miller[idx] = miller[idx] - cap * dvg

            if opts.method == "be":
                def system(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
                    f, jac = eq.static_residual(x, gate_new)
                    jac[np.diag_indices(eq.n)] += caps / dt
                    return f + caps * (x - v_old) / dt + miller, jac
            else:
                # Trapezoidal: C*(v'-v)/dt = -(f(v') + f(v))/2 + inj.
                def system(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
                    f, jac = eq.static_residual(x, gate_new)
                    jac *= 0.5
                    jac[np.diag_indices(eq.n)] += caps / dt
                    return (0.5 * (f + f_static_prev)
                            + caps * (x - v_old) / dt + miller), jac

            result = solver.solve(system, v)
            # Loose divergence guard only: Miller kicks legitimately push
            # floating nodes past the rails (no junction diodes in the
            # device model), so the bounds must not clip real charge.
            v = np.clip(result.x, -2.0, self.stage.vdd + 2.0)
            history[step] = v
            stats.steps += 1
            stats.newton_iterations += result.iterations
            if opts.method == "trap":
                f_static_prev, _ = eq.static_residual(v, gate_new)
            gate_prev = gate_new
        stats.wall_time = time.perf_counter() - t_start
        stats.device_evaluations = eq.device_evaluations

        voltages = {name: history[:, eq.node_index(name)]
                    for name in eq.node_names}
        return TransientResult(times=times, voltages=voltages,
                               stats=stats, label="spice")

    # ------------------------------------------------------------------
    def _initial_state(self, sources, initial) -> np.ndarray:
        eq = self.equations
        levels = eq.gate_values(sources, 0.0)
        if initial is not None:
            estimate = logic_initial_condition(self.stage, levels)
            estimate.update(initial)
            return np.array([estimate[name] for name in eq.node_names])
        if eq.n > 0:
            seed = logic_initial_condition(self.stage, levels)
            guess = np.array([seed[name] for name in eq.node_names])
            return solve_dc(eq, levels, initial_guess=guess)
        seed = logic_initial_condition(self.stage, levels)
        return np.array([seed[name] for name in eq.node_names])
