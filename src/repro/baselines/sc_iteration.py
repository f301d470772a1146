"""TETA-style successive-chords transient baseline.

TETA (Dartu & Pileggi) keeps an accurate, tabular device model and a
time-domain integrator, but replaces Newton-Raphson with *successive
chords* (SC) iteration: the admittance matrix is linearized once with
fixed chord conductances and reused every iteration and every timestep,
so each iteration is a cheap back-substitution instead of a fresh
matrix build + factorization.  Convergence is linear rather than
quadratic ("with a theoretically inferior convergence rate, SC can
evaluate each iteration much faster").

This implementation factors the chord matrix once per run (dense LU via
scipy, imported by :meth:`SuccessiveChordsSimulator.run` so that nothing
else in the package loads it) and iterates ``v <- v - A_chord^{-1} F(v)``
at every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuit.netlist import LogicStage
from repro.devices.technology import Technology
from repro.spice.dc import logic_initial_condition
from repro.spice.mna import StageEquations
from repro.spice.results import SimulationStats, TransientResult
from repro.spice.sources import SourceLike, as_source


@dataclass
class SCOptions:
    """Controls for :class:`SuccessiveChordsSimulator`.

    Attributes:
        t_stop: analysis window [s].
        dt: fixed step [s].
        abstol: residual tolerance per step [A].
        max_iterations: SC iterations per step before giving up.
        chord_conductance: fixed chord value stamped for every device
            terminal pair [S]; ``None`` derives one from the on-current
            of a reference device.
    """

    t_stop: float = 500e-12
    dt: float = 1e-12
    abstol: float = 1e-8
    max_iterations: int = 200
    chord_conductance: Optional[float] = None


class SuccessiveChordsSimulator:
    """Fixed-matrix (successive chords) transient engine for one stage.

    Args:
        stage: the logic stage.
        tech: technology (golden device models).
        options: solver controls.
    """

    def __init__(self, stage: LogicStage, tech: Technology,
                 options: Optional[SCOptions] = None):
        self.stage = stage
        self.tech = tech
        self.options = options or SCOptions()
        self.equations = StageEquations(stage, tech,
                                        voltage_dependent_caps=False)

    def _chord_matrix(self, caps: np.ndarray) -> np.ndarray:
        """The constant SC iteration matrix: chords + C/dt diagonal."""
        eq = self.equations
        opts = self.options
        g_chord = opts.chord_conductance
        if g_chord is None:
            # A representative on-conductance: Ion/vdd of a reference
            # NMOS at full drive.
            from repro.devices.mosfet import nmos_model

            model = nmos_model(self.tech)
            ion = model.ids(2.0 * self.tech.wmin, self.tech.lmin,
                            self.tech.vdd, self.tech.vdd, 0.0)
            g_chord = ion / self.tech.vdd
        # Build a conservative chord stamp: every transistor couples its
        # terminals with g_chord; wires keep their exact conductance.
        matrix = np.zeros((eq.n, eq.n))
        vdd = self.stage.vdd
        probe = np.full(eq.n, 0.5 * vdd)
        # Use the structural Jacobian at mid-rail to find the coupling
        # pattern, then overwrite transistor couplings with the chord.
        levels = {name: 0.5 * vdd for name in
                  {e.gate_input for e in self.stage.transistors}}
        _, pattern = eq.static_residual(probe, levels)
        for a in range(eq.n):
            for b in range(eq.n):
                if a == b:
                    continue
                if pattern[a, b] != 0.0:
                    matrix[a, b] = -g_chord
        row_sums = -matrix.sum(axis=1)
        matrix[np.diag_indices(eq.n)] = row_sums + g_chord
        matrix[np.diag_indices(eq.n)] += caps / self.options.dt
        return matrix

    def run(self, inputs: Dict[str, SourceLike],
            initial: Optional[Dict[str, float]] = None) -> TransientResult:
        """Run the SC transient analysis (backward Euler)."""
        import scipy.linalg

        eq = self.equations
        opts = self.options
        sources = {name: as_source(src) for name, src in inputs.items()}
        levels = eq.gate_values(sources, 0.0)
        seed = logic_initial_condition(self.stage, levels)
        if initial:
            seed.update(initial)
        v = np.array([seed[name] for name in eq.node_names])

        n_steps = int(round(opts.t_stop / opts.dt))
        times = np.linspace(0.0, n_steps * opts.dt, n_steps + 1)
        history = np.empty((n_steps + 1, eq.n))
        history[0] = v
        caps = eq.node_capacitances(v)
        chord = self._chord_matrix(caps)
        lu, piv = scipy.linalg.lu_factor(chord)

        stats = SimulationStats()
        eq.device_evaluations = 0
        gate_prev = eq.gate_values(sources, 0.0)
        t_start = time.perf_counter()
        for step in range(1, n_steps + 1):
            t_new = times[step]
            gates = eq.gate_values(sources, t_new)
            v_old = v.copy()
            # Gate-coupling (Miller) injection from moving inputs, as in
            # the Newton-Raphson engine.
            miller = np.zeros(eq.n)
            for idx, gate, cap in eq.gate_couplings:
                dvg = (gates[gate] - gate_prev[gate]) / opts.dt
                miller[idx] -= cap * dvg
            x = v.copy()
            for iteration in range(opts.max_iterations):
                f_static, _ = eq.static_residual(x, gates)
                residual = (f_static + caps * (x - v_old) / opts.dt
                            + miller)
                if float(np.max(np.abs(residual))) < opts.abstol:
                    break
                x = x - scipy.linalg.lu_solve((lu, piv), residual)
                stats.newton_iterations += 1
            gate_prev = gates
            v = np.clip(x, -2.0, self.stage.vdd + 2.0)
            history[step] = v
            stats.steps += 1
        stats.wall_time = time.perf_counter() - t_start
        stats.device_evaluations = eq.device_evaluations

        voltages = {name: history[:, eq.node_index(name)]
                    for name in eq.node_names}
        return TransientResult(times=times, voltages=voltages,
                               stats=stats, label="sc")
