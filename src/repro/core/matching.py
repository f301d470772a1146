"""The per-region matching system (paper Eq. 7 and 9).

One QWM region spans ``[tau, tau']``.  The unknowns are the end-of-region
frame voltages of the ``M`` active nodes plus the end time itself,

    x = [u_1', ..., u_M', tau'].

Linear-current / quadratic-voltage waveforms link the end-of-region
current to the voltages,

    I_k' = 2 C_k (u_k' - u_k) / (tau' - tau) - I_k,

and the matching equations demand that these capacitor currents equal
the difference of the device currents the tabular model predicts,

    F_k = I_k' - (J_{k+1}' - J_k') = 0,          k = 1..M,

closed by a *condition* row that pins tau': either the turn-on of the
next transistor up the path (``gate drive = threshold``) or an output
voltage crossing (the milestone regions after the cascade completes).

The Jacobian is tridiagonal except for its last column (the tau'
derivatives of rows 1..M-1); :meth:`RegionSystem.newton_solve` exploits
this via the Thomas + Sherman-Morrison combination of
:mod:`repro.linalg`, exactly as the paper's Section IV-B prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.path import DischargePath
from repro.obs import count, inc
from repro.linalg.sherman_morrison import solve_bordered_tridiagonal
from repro.linalg.tridiagonal import TridiagonalMatrix
from repro.linalg.newton import (
    NewtonConvergenceError,
    NewtonOptions,
    NewtonResult,
    NewtonSolver,
)
from repro.spice.sources import Source


@dataclass(frozen=True)
class TurnOnCondition:
    """Region ends when device ``device_index`` (1-based) turns on.

    The condition is paper Eq. 7's last line: the frame gate drive of
    the next transistor equals its threshold,
    ``G_frame(tau') - u_source(tau') = vth``.
    """

    device_index: int


@dataclass(frozen=True)
class CrossingCondition:
    """Region ends when the last active node reaches ``target`` (frame V)."""

    target: float


@dataclass(frozen=True)
class TimeCondition:
    """Region ends at the fixed instant ``t_end``.

    Used to anchor a region boundary on an input-waveform break (a ramp
    ending, a step firing): the Miller injection of a moving gate is
    discontinuous there, so the quadratic link must not span it.
    """

    t_end: float


class RegionSystem:
    """Assembles and solves one region's matching equations.

    Args:
        path: the extracted pull path.
        sources: gate input name -> actual-domain Source.
        active: number of active nodes M (1..K); nodes above M are
            frozen at their region-start values.
        tau: region start time [s].
        u_start: frame voltages of *all* K nodes at tau.
        i_start: frame node currents of all K nodes at tau [A]
            (``I_k = C_k du_k/dt``; negative while discharging).
        condition: the row closing the system.
        caps: per-node capacitances to use for this region [F]; defaults
            to the path's full-swing equivalents.  The solver passes
            span-matched equivalents here (see
            :meth:`DischargePath.equivalent_caps`).
        order: waveform order — 2 (default) is the paper's linear-
            current / quadratic-voltage model with the trapezoidal link
            ``I' = 2C(u'-u)/d - I``; 1 is the constant-current /
            linear-voltage ablation with ``I' = C(u'-u)/d``.
    """

    def __init__(self, path: DischargePath, sources: Dict[str, Source],
                 active: int, tau: float, u_start: np.ndarray,
                 i_start: np.ndarray,
                 condition, caps: Optional[np.ndarray] = None,
                 order: int = 2) -> None:
        if not 1 <= active <= path.length:
            raise ValueError("active node count out of range")
        self.path = path
        self.sources = sources
        self.m = active
        self.tau = float(tau)
        # Float lists: the residual reads them once per Newton iterate.
        self.u_start = np.asarray(u_start, dtype=float).tolist()
        self.i_start = np.asarray(i_start, dtype=float).tolist()
        self.condition = condition
        self.caps = np.asarray(path.node_caps if caps is None else caps,
                               dtype=float).tolist()
        if order not in (1, 2):
            raise ValueError("waveform order must be 1 or 2")
        self.order = order
        self.vdd = path.vdd
        self._min_delta = 1e-16
        if isinstance(condition, TurnOnCondition):
            if not (2 <= condition.device_index <= path.length):
                raise ValueError("turn-on device index out of range")
            if condition.device_index != active + 1:
                raise ValueError(
                    "turn-on condition must target the device just above "
                    "the active frontier")

    # ------------------------------------------------------------------
    def residual_and_parts(self, x: np.ndarray) -> Tuple[
            np.ndarray, TridiagonalMatrix, np.ndarray]:
        """Residual, in-band Jacobian, and the extra last-column vector.

        Returns ``(F, A, u_col)`` where the full Jacobian is
        ``A + u_col e_{M+1}^T`` (``u_col`` is zero in its last two rows,
        whose tau' entries live inside the band).
        """
        # Runs once per Newton trial point (start, full step, line-search
        # probe): it works on Python floats and builds each array once at
        # the end.
        m = self.m
        values = np.asarray(x, dtype=float).tolist()
        tau_new = values[m]
        delta = max(tau_new - self.tau, self._min_delta)
        path = self.path
        sources = self.sources
        caps = self.caps
        u_start = self.u_start
        i_start = self.i_start
        vdd = self.vdd

        # Miller injection from moving gates (zero for step inputs away
        # from the step instant; the scheduler handles step kicks).
        injection = path.coupling_injection(sources, tau_new)

        # Device currents J_k (device k connects node k-1 and node k).
        # We evaluate devices 1..min(m+1, K): device m+1 (just above the
        # frontier) sees a frozen outer node but still injects current
        # into node m (it is usually sub-threshold there).  Node 0 is
        # the rail; nodes above the frontier keep their start values.
        top_device = min(m + 1, path.length)
        u_nodes = [0.0] + values[:m] + u_start[m:top_device]
        gates: List[Tuple[float, float]] = []
        currents: List[Tuple[float, float, float, float]] = []
        for k, device in enumerate(path.devices[:top_device]):
            if device.gate is None:
                gate_v = gate_slope = 0.0
            else:
                source = sources[device.gate]
                gate_v = source.value(tau_new)
                gate_slope = source.slope(tau_new)
            gates.append((gate_v, gate_slope))
            j, dj_inner, dj_outer, dj_gate = device.frame_current(
                gate_v, u_nodes[k], u_nodes[k + 1], vdd)
            currents.append((j, dj_inner, dj_outer, dj_gate * gate_slope))

        order = float(self.order)
        f: List[float] = []
        diag: List[float] = []
        lower: List[float] = []
        upper: List[float] = []
        last_col: List[float] = []
        for row in range(m):
            c_k = caps[row]
            du = values[row] - u_start[row]
            i_new = order * c_k * du / delta - (order - 1.0) * i_start[row]
            j_k, djk_in, djk_out, djk_tau = currents[row]
            if row + 1 < top_device:
                j_up, dju_in, dju_out, dju_tau = currents[row + 1]
            else:
                j_up, dju_in, dju_out, dju_tau = 0.0, 0.0, 0.0, 0.0
            f.append(i_new - (j_up - j_k) - injection[row])
            diag.append(order * c_k / delta + djk_out - dju_in)
            if row >= 1:
                lower.append(djk_in)
            d_tau = (-order * c_k * du / (delta * delta) + djk_tau
                     - dju_tau)
            if row + 1 < m:
                upper.append(-dju_out)
                last_col.append(d_tau)
            else:
                upper.append(d_tau)  # in-band: row m, column m+1
                last_col.append(0.0)
        last_col.append(0.0)

        # Condition row (row index m, 1-based row m+1).
        condition = self.condition
        if isinstance(condition, CrossingCondition):
            f.append(values[m - 1] - condition.target)
            lower.append(1.0)
            diag.append(0.0)
        elif isinstance(condition, TimeCondition):
            f.append(tau_new - condition.t_end)
            lower.append(0.0)
            diag.append(1.0)
        else:
            idx = condition.device_index
            device = path.devices[idx - 1]
            gate_v, gate_slope = gates[idx - 1]
            u_src = values[m - 1]
            vth = device.threshold(gate_v, u_src, vdd)
            h = 1e-3
            vth_hi = device.threshold(gate_v, u_src + h, vdd)
            dvth_du = (vth_hi - vth) / h
            g_frame = device.frame_gate(gate_v, vdd)
            g_slope = device.frame_gate_slope_sign() * gate_slope
            f.append(u_src + vth - g_frame)
            lower.append(1.0 + dvth_du)
            diag.append(-g_slope)

        matrix = TridiagonalMatrix(lower=lower, diag=diag, upper=upper)
        return np.array(f), matrix, np.array(last_col)

    def dense_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Full dense Jacobian (for testing)."""
        _, matrix, last_col = self.residual_and_parts(x)
        return _dense(matrix, last_col)

    # ------------------------------------------------------------------
    def newton_solve(self, x0: np.ndarray,
                     options: Optional[NewtonOptions] = None,
                     use_sherman_morrison: bool = True,
                     trajectory: Optional[list] = None) -> NewtonResult:
        """Solve the region system from an initial guess.

        The linear solves use the O(K) Thomas + Sherman-Morrison path by
        default, falling back to dense LU if the structured solve hits a
        singular pivot.  ``trajectory`` (a list, when provided) receives
        the per-iteration Newton record — see
        :meth:`repro.linalg.newton.NewtonSolver.solve`.

        Raises:
            NewtonConvergenceError: if Newton fails to converge.
        """
        opts = options or NewtonOptions(
            abstol=1e-10, xtol=1e-15, max_iterations=60)
        solver = NewtonSolver(opts)

        def system(x: np.ndarray):
            f, matrix, last_col = self.residual_and_parts(x)
            return f, (matrix, last_col)

        # Linear-solve kinds are tallied in plain ints here and counted
        # on the region's frame once per solve — never per Newton
        # iteration (see lint rule SOL006).
        sm_solves = 0
        lu_solves = 0

        def linear_solve(jac, rhs: np.ndarray) -> np.ndarray:
            nonlocal sm_solves, lu_solves
            matrix, last_col = jac
            if use_sherman_morrison:
                try:
                    out = solve_bordered_tridiagonal(matrix, last_col,
                                                     rhs)
                    sm_solves += 1
                    return out
                except np.linalg.LinAlgError:
                    pass
            lu_solves += 1
            inc("linalg.solve.dense_lu")
            return np.linalg.solve(_dense(matrix, last_col), rhs)

        try:
            return solver.solve(system, x0, linear_solve=linear_solve,
                                trajectory=trajectory)
        finally:
            if sm_solves:
                count("sherman_morrison", sm_solves)
            if lu_solves:
                count("dense_lu", lu_solves)


def _dense(matrix: TridiagonalMatrix, last_col: np.ndarray) -> np.ndarray:
    """The full Jacobian ``A + u_col e_{M+1}^T`` as a dense array."""
    dense = matrix.to_dense()
    dense[:, -1] += last_col
    return dense
