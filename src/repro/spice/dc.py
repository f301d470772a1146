"""DC operating-point analysis.

Solves the static nodal equations of a stage at fixed input levels.
Convergence is aided by *gmin stepping*: a shunt conductance from every
node to ground is swept down decade by decade, each solution seeding the
next — the standard SPICE continuation method.  Floating nodes (e.g. the
internal nodes of an off NMOS stack, which only connect through
sub-threshold leakage) settle at the leakage-balanced voltage, exactly
as they do in HSPICE.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuit.elements import DeviceKind
from repro.circuit.netlist import LogicStage
from repro.linalg.newton import NewtonConvergenceError, NewtonOptions, NewtonSolver
from repro.spice.mna import StageEquations
from repro.spice.sources import SourceLike, as_source


def solve_dc(equations: StageEquations,
             input_levels: Dict[str, float],
             initial_guess: Optional[np.ndarray] = None,
             gmin_start: float = 1e-3,
             gmin_final: float = 1e-12,
             abstol: float = 1e-12) -> np.ndarray:
    """Solve the DC operating point of a stage.

    Args:
        equations: assembled stage equations.
        input_levels: gate input name -> DC voltage [V].
        initial_guess: starting node voltages; defaults to mid-rail.
        gmin_start: initial shunt conductance for the continuation [S].
        gmin_final: final (residual) shunt conductance [S].
        abstol: Newton residual tolerance at the final gmin [A].

    Returns:
        Internal node voltages.

    Raises:
        NewtonConvergenceError: if the continuation fails to converge.
    """
    n = equations.n
    if n == 0:
        return np.zeros(0)
    v = (np.full(n, 0.5 * equations.vdd) if initial_guess is None
         else np.array(initial_guess, dtype=float))

    gmin = gmin_start
    solver = NewtonSolver(NewtonOptions(
        abstol=1e-9, xtol=1e-12, max_iterations=200,
        max_step=0.3 * equations.vdd))
    while True:
        def system(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return equations.static_residual(x, input_levels, gmin=gmin)

        if gmin <= gmin_final:
            solver = NewtonSolver(NewtonOptions(
                abstol=abstol, xtol=1e-12, max_iterations=200,
                max_step=0.3 * equations.vdd))
        try:
            result = solver.solve(system, v)
            v = result.x
        except NewtonConvergenceError:
            # Pseudo-transient continuation: the model's vds = 0 body-
            # effect kink (a pass device whose terminals float together)
            # can trap plain Newton in a cycle.  Backward-Euler settling
            # regularizes the Jacobian with C/dt and walks through it.
            v = pseudo_transient_dc(equations, input_levels, v,
                                    gmin=gmin)
        if gmin <= gmin_final:
            return v
        gmin = max(gmin * 1e-2, gmin_final)


def pseudo_transient_dc(equations: StageEquations,
                        input_levels: Dict[str, float],
                        v0: np.ndarray,
                        gmin: float = 0.0,
                        dt_start: float = 1e-12,
                        dt_max: float = 1e-9,
                        max_steps: int = 400,
                        settle_tol: float = 1e-6) -> np.ndarray:
    """DC by backward-Euler settling (pseudo-transient continuation).

    Integrates the stage with frozen inputs until the state stops
    moving, growing the step geometrically; the C/dt diagonal keeps the
    per-step Newton solves well conditioned even across the device
    model's non-smooth points.  This is the classic SPICE fallback when
    the plain operating-point Newton fails.

    Raises:
        NewtonConvergenceError: if even the settling steps fail.
    """
    v = np.array(v0, dtype=float, copy=True)
    dt = dt_start
    solver = NewtonSolver(NewtonOptions(
        abstol=1e-9, xtol=1e-10, max_iterations=80,
        max_step=0.3 * equations.vdd))
    for _ in range(max_steps):
        caps = equations.node_capacitances(v)
        v_old = v.copy()

        def system(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            f, jac = equations.static_residual(x, input_levels, gmin=gmin)
            jac[np.diag_indices(equations.n)] += caps / dt
            return f + caps * (x - v_old) / dt, jac

        try:
            result = solver.solve(system, v)
        except NewtonConvergenceError:
            dt *= 0.25
            if dt < 1e-16:
                raise
            continue
        moved = float(np.max(np.abs(result.x - v))) if equations.n else 0.0
        v = result.x
        if moved < settle_tol and dt >= dt_max:
            return v
        dt = min(dt * 2.0, dt_max)
    return v


def logic_initial_condition(stage: LogicStage,
                            input_levels: Dict[str, SourceLike],
                            default: Optional[float] = None
                            ) -> Dict[str, float]:
    """Switch-level estimate of the node voltages for given input levels.

    Propagates strong rail connections through conducting elements
    (:meth:`~repro.circuit.netlist.CircuitEdge.conducts`).  Nodes
    reachable from ground get 0; nodes reachable from the supply only
    through NMOS get the threshold-degraded level ``vdd - vth``;
    through PMOS, full ``vdd``.  Unreachable (floating) nodes get
    ``default`` (mid-rail if omitted).  A fight between the rails
    resolves to ground, so the value is a DC seed, not a logic
    verdict.

    This is the seed a transient run uses before an exact DC solve, and
    doubles as a tiny switch-level simulator for tests.
    """
    vdd = stage.vdd
    default = 0.5 * vdd if default is None else default
    levels = {name: as_source(src).value(0.0) for name, src in
              input_levels.items()}

    # BFS from each pole over conducting elements.
    values: Dict[str, float] = {}

    def sweep(start_node, value: float, nmos_degrade: bool) -> None:
        frontier = [(start_node, value)]
        seen = set()
        while frontier:
            node, val = frontier.pop()
            if node.name in seen:
                continue
            seen.add(node.name)
            if node is not stage.source and node is not stage.sink:
                prev = values.get(node.name)
                if prev is None or (value == 0.0):
                    values[node.name] = val if prev is None else min(prev, val)
            for edge in node.edges:
                if not edge.conducts(levels, vdd):
                    continue
                nxt = edge.other(node)
                if nxt is stage.source or nxt is stage.sink:
                    continue
                nxt_val = val
                if (nmos_degrade and edge.kind is DeviceKind.NMOS):
                    vth = 0.55  # first-order; exact values come from DC
                    nxt_val = min(val, levels[edge.gate_input] - vth)
                frontier.append((nxt, nxt_val))

    sweep(stage.sink, 0.0, nmos_degrade=False)
    sweep(stage.source, vdd, nmos_degrade=True)

    return {node.name: values.get(node.name, default)
            for node in stage.internal_nodes}
