"""The tabular device model consumed by QWM.

Implements the paper's ``DeviceModel`` interface (Definition 2): ``iv``,
``threshold``, ``srccap``, ``snkcap`` and ``inputcap``, backed by the
table of a characterized
:class:`~repro.devices.characterize.CharacterizationGrid`: seven
parameters per (Vs, Vg) point, read in place on every query.

Off-grid queries bilinearly interpolate the (Vs, Vg) plane; the Vd
dependence comes from each corner row's fitted polynomials
(:func:`~repro.devices.characterize.point_iv`), so the
derivatives ``dIds/dVd`` and ``dIds/dVs`` needed for the QWM Jacobian
"can be computed very fast" (paper Section V-A) — polynomial slopes plus
interpolation-weight gradients, no re-sampling.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.devices.capacitance import equivalent_junction_cap, gate_capacitance
from repro.devices.characterize import (
    CharacterizationGrid,
    characterize_device,
    point_iv,
)
from repro.devices.mosfet import MosfetModel, nmos_model, pmos_model
from repro.devices.technology import MosParams, Technology
from repro.obs import frame, inc

#: Relative tolerance when checking that a query's channel length
#: matches the characterized length.
LENGTH_TOLERANCE = 1e-6
#: Table columns of the threshold and saturation voltages.
_VTH, _VDSAT = 5, 6

#: A grid axis as :meth:`TableDeviceModel._axis` stores it.
_Axis = Tuple[float, float, float, List[float]]


class IVQuery(NamedTuple):
    """Result of a tabular I/V evaluation with derivatives.

    A named tuple: the QWM residual unpacks it positionally, once per
    device per Newton iterate, so it costs no attribute lookups.

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
        grid: characterized table (conduction frame).
        params: matching MOS parameters (used only for capacitances).
    """

    def __init__(self, grid: CharacterizationGrid, params: MosParams):
        self.grid = grid
        self.params = params
        self._vdd = grid.vdd
        self._sign = 1.0 if grid.polarity == "n" else -1.0
        #: Number of iv_query evaluations (cost accounting for benchmarks).
        self.query_count = 0
        self._vs_axis = self._axis(grid.vs_values)
        self._vg_axis = self._axis(grid.vg_values)

    @staticmethod
    def _axis(values: np.ndarray) -> _Axis:
        """An axis as Python floats: first, last, pitch, cell widths.

        The grid checked that the axis has a fixed pitch, so a cell is
        found by one division.
        """
        widths = np.diff(values)
        return (float(values[0]), float(values[-1]), float(widths[0]),
                widths.tolist())

    # ------------------------------------------------------------------
    # Frame helpers
    # ------------------------------------------------------------------
    def _to_frame(self, v_gate: float, v_src: float,
                  v_snk: float) -> Tuple[float, float, float]:
        """Gate, source and sink voltages in the conduction frame."""
        if self._sign > 0.0:
            return v_gate, v_src, v_snk
        vdd = self._vdd
        return vdd - v_gate, vdd - v_src, vdd - v_snk

    @staticmethod
    def _cell(axis: _Axis, value: float) -> Tuple[int, float, float]:
        """Locate the interpolation cell: (index, fraction, width)."""
        lo, hi, step, widths = axis
        clipped = lo if value < lo else (hi if value > hi else value)
        # ``clipped >= lo``, so only the top needs a bound.
        idx = int((clipped - lo) / step)
        if idx >= len(widths):
            idx = len(widths) - 1
        return idx, (clipped - lo - idx * step) / step, widths[idx]

    def _frame_query(self, vg_f: float, vs_f: float,
                     vds: float) -> Tuple[float, float, float, float]:
        """Interpolated forward current and frame derivatives.

        Returns ``(q, dq_dg, dq_ds, dq_dd)`` where the derivatives are
        with respect to the frame gate, source and drain node voltages.
        """
        i, u, dvs = self._cell(self._vs_axis, vs_f)
        j, v, dvg = self._cell(self._vg_axis, vg_f)
        row0 = self.grid.table[i]
        row1 = self.grid.table[i + 1]
        c00, g00 = point_iv(row0[j], vds)
        c01, g01 = point_iv(row0[j + 1], vds)
        c10, g10 = point_iv(row1[j], vds)
        c11, g11 = point_iv(row1[j + 1], vds)

        w00 = (1.0 - u) * (1.0 - v)
        w01 = (1.0 - u) * v
        w10 = u * (1.0 - v)
        w11 = u * v
        q = (w00 * c00 + w01 * c01 + w10 * c10 + w11 * c11)
        dq_dvds = (w00 * g00 + w01 * g01 + w10 * g10 + w11 * g11)
        # Gradient of the bilinear weights along each grid axis.
        dq_dvs_axis = ((1.0 - v) * (c10 - c00) + v * (c11 - c01)) / dvs
        dq_dvg_axis = ((1.0 - u) * (c01 - c00) + u * (c11 - c10)) / dvg

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
        grid = self.grid
        if abs(l - grid.l_ref) > LENGTH_TOLERANCE * grid.l_ref:
            raise ValueError(
                f"table characterized at L={grid.l_ref:.3e} m, queried "
                f"with L={l:.3e} m; use TableModelLibrary for multi-length "
                "designs")
        # float(): a numpy width would make every product below a
        # numpy scalar.
        scale = float(w) / grid.w_ref
        g, a, b = self._to_frame(v_gate, v_src, v_snk)
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
        return IVQuery(ids * scale, d_gate * scale, d_src * scale,
                       d_snk * scale)

    def threshold(self, v_gate: float, v_src: float, v_snk: float) -> float:
        """Threshold magnitude for the effective source (paper Def. 2)."""
        g, a, b = self._to_frame(v_gate, v_src, v_snk)
        return self._interp_column(_VTH, min(a, b), g)

    def vdsat(self, v_gate: float, v_src: float, v_snk: float) -> float:
        """Saturation voltage at the effective bias [V]."""
        g, a, b = self._to_frame(v_gate, v_src, v_snk)
        return self._interp_column(_VDSAT, min(a, b), g)

    def _interp_column(self, column: int, vs_f: float,
                       vg_f: float) -> float:
        """Bilinear interpolation of one parameter of the table rows."""
        i, u, _ = self._cell(self._vs_axis, vs_f)
        j, v, _ = self._cell(self._vg_axis, vg_f)
        row0 = self.grid.table[i]
        row1 = self.grid.table[i + 1]
        return ((1.0 - u) * (1.0 - v) * row0[j][column]
                + (1.0 - u) * v * row0[j + 1][column]
                + u * (1.0 - v) * row1[j][column]
                + u * v * row1[j + 1][column])

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
