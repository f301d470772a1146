"""The tabular device model consumed by QWM.

Implements the paper's ``DeviceModel`` interface (Definition 2): ``iv``,
``threshold``, ``srccap``, ``snkcap`` and ``inputcap``, backed by a
characterized :class:`~repro.devices.characterize.CharacterizationGrid`.

Off-grid queries bilinearly interpolate the (Vs, Vg) plane; the Vd
dependence comes from each corner's fitted polynomials, so the
derivatives ``dIds/dVd`` and ``dIds/dVs`` needed for the QWM Jacobian
"can be computed very fast" (paper Section V-A) — polynomial slopes plus
interpolation-weight gradients, no re-sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.devices.capacitance import equivalent_junction_cap, gate_capacitance
from repro.devices.characterize import CharacterizationGrid, characterize_device
from repro.devices.mosfet import MosfetModel, nmos_model, pmos_model
from repro.devices.technology import MosParams, Technology
from repro.obs import frame, inc


@dataclass(frozen=True)
class IVQuery:
    """Result of a tabular I/V evaluation with derivatives.

    Attributes:
        ids: current from the structural src node to the snk node [A].
        g_gate: d(ids)/d(v_gate) [S].
        g_src: d(ids)/d(v_src) [S].
        g_snk: d(ids)/d(v_snk) [S].
    """

    ids: float
    g_gate: float
    g_src: float
    g_snk: float


class TableDeviceModel:
    """Paper-style tabular device model for one polarity and channel length.

    Args:
        grid: characterized fit grid (conduction frame).
        params: matching MOS parameters (used only for capacitances).
        length_tolerance: relative tolerance when checking that a query's
            channel length matches the characterized length.
    """

    def __init__(self, grid: CharacterizationGrid, params: MosParams,
                 length_tolerance: float = 1e-6):
        self.grid = grid
        self.params = params
        self.length_tolerance = length_tolerance
        self._vs_axis = grid.vs_values
        self._vg_axis = grid.vg_values
        self._vdd = grid.vdd
        self._sign = 1.0 if grid.polarity == "n" else -1.0
        #: Number of iv_query evaluations (cost accounting for benchmarks).
        self.query_count = 0
        # Uniform-axis fast path for cell lookup (the characterization
        # grid is a fixed-pitch sweep; avoid searchsorted per query).
        self._vs_step = self._uniform_step(self._vs_axis)
        self._vg_step = self._uniform_step(self._vg_axis)

    @staticmethod
    def _uniform_step(axis: np.ndarray) -> Optional[float]:
        if axis.size < 2:
            return None
        steps = np.diff(axis)
        step = float(steps[0])
        if step > 0 and np.allclose(steps, step, rtol=1e-9):
            return step
        return None

    # ------------------------------------------------------------------
    # Frame helpers
    # ------------------------------------------------------------------
    def _to_frame(self, v: float) -> float:
        return v if self.grid.polarity == "n" else self._vdd - v

    def _check_length(self, l: float) -> None:
        if abs(l - self.grid.l_ref) > self.length_tolerance * self.grid.l_ref:
            raise ValueError(
                f"table characterized at L={self.grid.l_ref:.3e} m, queried "
                f"with L={l:.3e} m; use TableModelLibrary for multi-length "
                "designs")

    def _cell(self, axis: np.ndarray, value: float,
              step: Optional[float]) -> Tuple[int, float]:
        """Locate the interpolation cell: returns (index, fraction)."""
        lo = float(axis[0])
        hi = float(axis[-1])
        clipped = lo if value < lo else (hi if value > hi else value)
        if step is not None:
            idx = int((clipped - lo) / step)
            idx = min(max(idx, 0), axis.size - 2)
            return idx, (clipped - lo - idx * step) / step
        idx = int(np.searchsorted(axis, clipped, side="right")) - 1
        idx = min(max(idx, 0), axis.size - 2)
        span = float(axis[idx + 1] - axis[idx])
        return idx, (clipped - float(axis[idx])) / span

    def _frame_query(self, vg_f: float, vs_f: float,
                     vds: float) -> Tuple[float, float, float, float]:
        """Interpolated forward current and frame derivatives.

        Returns ``(q, dq_dg, dq_ds, dq_dd)`` where the derivatives are
        with respect to the frame gate, source and drain node voltages.
        """
        i, u = self._cell(self._vs_axis, vs_f, self._vs_step)
        j, v = self._cell(self._vg_axis, vg_f, self._vg_step)
        dvs = float(self._vs_axis[i + 1] - self._vs_axis[i])
        dvg = float(self._vg_axis[j + 1] - self._vg_axis[j])

        fits = self.grid.fits
        corners = (fits[i][j], fits[i][j + 1], fits[i + 1][j],
                   fits[i + 1][j + 1])
        vals = [f.current(vds) for f in corners]
        slopes = [f.slope(vds) for f in corners]

        w00 = (1.0 - u) * (1.0 - v)
        w01 = (1.0 - u) * v
        w10 = u * (1.0 - v)
        w11 = u * v
        q = (w00 * vals[0] + w01 * vals[1] + w10 * vals[2] + w11 * vals[3])
        dq_dvds = (w00 * slopes[0] + w01 * slopes[1]
                   + w10 * slopes[2] + w11 * slopes[3])
        # Gradient of the bilinear weights along each grid axis.
        dq_dvs_axis = ((1.0 - v) * (vals[2] - vals[0])
                       + v * (vals[3] - vals[1])) / dvs
        dq_dvg_axis = ((1.0 - u) * (vals[1] - vals[0])
                       + u * (vals[3] - vals[2])) / dvg

        dq_dg = dq_dvg_axis
        dq_ds = -dq_dvds + dq_dvs_axis
        dq_dd = dq_dvds
        return q, dq_dg, dq_ds, dq_dd

    # ------------------------------------------------------------------
    # Paper Definition 2 interface
    # ------------------------------------------------------------------
    def iv(self, w: float, l: float, v_gate: float, v_src: float,
           v_snk: float) -> float:
        """Channel current from the src node to the snk node [A]."""
        return self.iv_query(w, l, v_gate, v_src, v_snk).ids

    def iv_query(self, w: float, l: float, v_gate: float, v_src: float,
                 v_snk: float) -> IVQuery:
        """Current plus node-voltage derivatives (for the QWM Jacobian)."""
        self.query_count += 1
        self._check_length(l)
        scale = w / self.grid.w_ref
        g = self._to_frame(v_gate)
        a = self._to_frame(v_src)
        b = self._to_frame(v_snk)
        if a >= b:
            q, dq_dg, dq_ds, dq_dd = self._frame_query(g, b, a - b)
            ids = self._sign * q
            d_src, d_snk, d_gate = dq_dd, dq_ds, dq_dg
        else:
            q, dq_dg, dq_ds, dq_dd = self._frame_query(g, a, b - a)
            ids = -self._sign * q
            d_src, d_snk, d_gate = -dq_ds, -dq_dd, -dq_dg
        # Frame sign and value sign cancel in the derivative chain for
        # PMOS, so node derivatives are frame-agnostic (see module tests).
        return IVQuery(ids=ids * scale, g_gate=d_gate * scale,
                       g_src=d_src * scale, g_snk=d_snk * scale)

    def threshold(self, v_gate: float, v_src: float, v_snk: float) -> float:
        """Threshold magnitude for the effective source (paper Def. 2)."""
        a = self._to_frame(v_src)
        b = self._to_frame(v_snk)
        g = self._to_frame(v_gate)
        vs_f = min(a, b)
        return self._interp_plane(self.grid.vth_plane, vs_f, g)

    def vdsat(self, v_gate: float, v_src: float, v_snk: float) -> float:
        """Saturation voltage at the effective bias [V]."""
        a = self._to_frame(v_src)
        b = self._to_frame(v_snk)
        g = self._to_frame(v_gate)
        return self._interp_plane(self.grid.vdsat_plane, min(a, b), g)

    def _interp_plane(self, plane: np.ndarray, vs_f: float,
                      vg_f: float) -> float:
        i, u = self._cell(self._vs_axis, vs_f, self._vs_step)
        j, v = self._cell(self._vg_axis, vg_f, self._vg_step)
        return float((1.0 - u) * (1.0 - v) * plane[i, j]
                     + (1.0 - u) * v * plane[i, j + 1]
                     + u * (1.0 - v) * plane[i + 1, j]
                     + u * v * plane[i + 1, j + 1])

    def srccap(self, w: float, l: float) -> float:
        """Equivalent source-junction capacitance over the full swing [F]."""
        return equivalent_junction_cap(self.params, w, 0.0, self._vdd)

    def snkcap(self, w: float, l: float) -> float:
        """Equivalent sink-junction capacitance over the full swing [F]."""
        return equivalent_junction_cap(self.params, w, 0.0, self._vdd)

    def inputcap(self, w: float, l: float) -> float:
        """Gate input capacitance [F]."""
        return gate_capacitance(self.params, w, l)


class TableModelLibrary:
    """Lazy cache of :class:`TableDeviceModel` per (polarity, length).

    The paper's tables are bound to one channel length; real stages mix
    lengths, so the library characterizes a fresh grid the first time a
    new length is seen and reuses it afterwards.

    Args:
        tech: technology to characterize against.
        grid_step: Vs/Vg grid pitch forwarded to characterization [V].
    """

    def __init__(self, tech: Technology, grid_step: float = 0.1):
        self.tech = tech
        self.grid_step = grid_step
        self._golden = {"n": nmos_model(tech), "p": pmos_model(tech)}
        self._cache: Dict[Tuple[str, float], TableDeviceModel] = {}

    def golden(self, polarity: str) -> MosfetModel:
        """The underlying golden analytic model (for baselines/tests)."""
        return self._golden[polarity]

    def get(self, polarity: str, l: Optional[float] = None) -> TableDeviceModel:
        """Fetch (characterizing lazily) the table for a polarity/length."""
        if polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {polarity!r}")
        length = self.tech.lmin if l is None else l
        key = (polarity, round(length, 12))
        if key not in self._cache:
            inc("device.table.cache", result="miss")
            with frame("device.characterize", polarity, length=length):
                grid = characterize_device(
                    self._golden[polarity], self.tech, l=length,
                    grid_step=self.grid_step)
            params = (self.tech.nmos if polarity == "n" else self.tech.pmos)
            self._cache[key] = TableDeviceModel(grid, params)
        else:
            inc("device.table.cache", result="hit")
        return self._cache[key]

    def __len__(self) -> int:
        return len(self._cache)
