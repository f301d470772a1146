"""Device characterization: sweep the golden model, fit, compress.

Paper Section V-A: "To characterize transistor I/V relation, we sweep Vs
and Vg from 0 volt to 3.3 volt with a step size of 0.1 volt.  For each
Vs/Vg pair, we then generate polynomial functions to capture the
dependence of channel current on drain voltage Vd using curve fitting.
We use a linear function for the saturation region and a quadratic
function for the triode region.  Together with the threshold voltage and
saturation voltage, we store 7 parameters for each Vs/Vg pair."

This module reproduces that flow against the golden analytic model
(standing in for HSPICE/BSIM3); the grid's table of those 7 parameters
is the device model itself, evaluated row by row by :func:`point_iv`.
PMOS devices are characterized in the *conduction frame* (voltages
mirrored about vdd), which renders them NMOS-like; the mirroring is
undone at query time by
:class:`repro.devices.table_model.TableDeviceModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.devices.mosfet import MosfetModel
from repro.devices.technology import Technology


#: Below this vds a fit is blended linearly through the origin: the
#: physical current is exactly zero at vds = 0, and without the blend
#: the least-squares intercept t0 would make the current jump by 2*t0
#: under a source/drain swap — a kink that derails Newton when adjacent
#: stack nodes sit within millivolts of each other.
BLEND_VDS = 0.05


def point_iv(row: Sequence[float], vds: float) -> Tuple[float, float]:
    """Fitted forward current [A] and ``d(ids)/d(vds)`` [S] of one row.

    ``row`` is one grid point's seven parameters in :class:`FittedIV`
    field order, ``vds >= 0``.  Below :data:`BLEND_VDS` the current is
    the line through the origin and the fit's value at
    :data:`BLEND_VDS`.
    """
    s1, s0, t2, t1, t0, _, vdsat = row
    if vds < BLEND_VDS:
        if BLEND_VDS <= vdsat:
            raw = t2 * BLEND_VDS * BLEND_VDS + t1 * BLEND_VDS + t0
        else:
            raw = s1 * BLEND_VDS + s0
        slope = raw / BLEND_VDS
        return vds * slope, slope
    if vds <= vdsat:
        return t2 * vds * vds + t1 * vds + t0, 2.0 * t2 * vds + t1
    return s1 * vds + s0, s1


class FittedIV(NamedTuple):
    """The paper's seven stored parameters for one (Vs, Vg) grid point.

    A record view of one :class:`CharacterizationGrid` table row, which
    holds the same seven floats in this order.  The polynomials are in
    ``vds`` (drain-source voltage, forward convention ``vds >= 0``):

    * triode  (``vds <= vdsat``):  ``ids = t2*vds^2 + t1*vds + t0``
    * saturation (``vds > vdsat``): ``ids = s1*vds + s0``

    Attributes:
        s1: saturation-region slope [A/V].
        s0: saturation-region intercept [A].
        t2: triode quadratic coefficient [A/V^2].
        t1: triode linear coefficient [A/V].
        t0: triode intercept [A].
        vth: threshold voltage at this source bias [V].
        vdsat: saturation voltage at this (Vs, Vg) [V].
    """

    s1: float
    s0: float
    t2: float
    t1: float
    t0: float
    vth: float
    vdsat: float

    def current(self, vds: float) -> float:
        """Fitted forward current at ``vds`` [A] (zero at vds = 0)."""
        return point_iv(self, vds)[0]

    def slope(self, vds: float) -> float:
        """Fitted ``d(ids)/d(vds)`` [S]."""
        return point_iv(self, vds)[1]


def fit_iv_curve(vds_samples: Sequence[float], ids_samples: Sequence[float],
                 vth: float, vdsat: float) -> FittedIV:
    """Fit the paper's two-piece polynomial model to sampled I/V data.

    Args:
        vds_samples: forward drain-source voltages (>= 0), ascending.
        ids_samples: corresponding currents from the golden model.
        vth: threshold voltage to store alongside the fit.
        vdsat: saturation voltage separating the two fit regions.

    Returns:
        The seven-parameter :class:`FittedIV`.
    """
    vds = np.asarray(vds_samples, dtype=float)
    ids = np.asarray(ids_samples, dtype=float)
    if vds.shape != ids.shape or vds.size < 2:
        raise ValueError("need matching sample arrays with at least 2 points")

    triode_mask = vds <= vdsat
    sat_mask = ~triode_mask

    # Triode quadratic fit (pin to the available degree if samples are few).
    if int(triode_mask.sum()) >= 3:
        t2, t1, t0 = np.polyfit(vds[triode_mask], ids[triode_mask], 2)
    elif int(triode_mask.sum()) == 2:
        t1, t0 = np.polyfit(vds[triode_mask], ids[triode_mask], 1)
        t2 = 0.0
    else:
        # Degenerate (device effectively off below vdsat ~ 0).
        t2, t1, t0 = 0.0, 0.0, float(ids[0])

    # Saturation linear fit.
    if int(sat_mask.sum()) >= 2:
        s1, s0 = np.polyfit(vds[sat_mask], ids[sat_mask], 1)
    elif int(sat_mask.sum()) == 1:
        # One point: take the triode slope at vdsat for continuity.
        s1 = 2.0 * t2 * vdsat + t1
        s0 = float(ids[sat_mask][0]) - s1 * float(vds[sat_mask][0])
    else:
        # Device never saturates inside the sweep; extrapolate the triode
        # polynomial's tangent at the last sample.
        v_end = float(vds[-1])
        s1 = 2.0 * t2 * v_end + t1
        s0 = (t2 * v_end * v_end + t1 * v_end + t0) - s1 * v_end

    return FittedIV(s1=float(s1), s0=float(s0), t2=float(t2),
                    t1=float(t1), t0=float(t0), vth=float(vth),
                    vdsat=float(vdsat))


def _uniform_axis(values: Sequence[float], name: str) -> np.ndarray:
    """A grid axis as floats; it must ascend at a fixed pitch."""
    axis = np.asarray(values, dtype=float)
    steps = np.diff(axis)
    if axis.ndim != 1 or axis.size < 2 or not steps[0] > 0 \
            or not np.allclose(steps, steps[0], rtol=1e-9):
        raise ValueError(f"{name} must ascend at a fixed pitch through "
                         "at least 2 points")
    return axis


@dataclass
class CharacterizationGrid:
    """One device's characterized table over a (Vs, Vg) grid.

    Attributes:
        polarity: ``"n"`` or ``"p"``.
        w_ref: width the grid was characterized at [m].
        l_ref: channel length the grid was characterized at [m].
        vdd: supply voltage (also the mirror point for PMOS) [V].
        vs_values: grid axis of source voltages (conduction frame) [V].
        vg_values: grid axis of gate voltages (conduction frame) [V].
        table: ``table[i][j]`` holds the seven parameters at
            ``(vs_values[i], vg_values[j])`` in :class:`FittedIV` field
            order.  Given as any ``(Nvs, Nvg, 7)`` array-like, stored
            as a copy in nested lists of floats, the form the scalar
            query reads fastest; the only stored copy, so a cell
            written in place is what every query sees.
    """

    polarity: str
    w_ref: float
    l_ref: float
    vdd: float
    vs_values: np.ndarray
    vg_values: np.ndarray
    table: List[List[List[float]]]

    def __post_init__(self) -> None:
        self.vs_values = _uniform_axis(self.vs_values, "vs_values")
        self.vg_values = _uniform_axis(self.vg_values, "vg_values")
        table = np.asarray(self.table, dtype=float)
        if table.shape != (self.vs_values.size, self.vg_values.size, 7):
            raise ValueError("table shape does not match grid axes")
        self.table = table.tolist()

    @property
    def n_parameters(self) -> int:
        """Total stored fit parameters (7 per grid point, as in the paper)."""
        return 7 * self.vs_values.size * self.vg_values.size


def _polyfit_batch(x: np.ndarray, y: np.ndarray, mask: np.ndarray,
                   deg: int) -> np.ndarray:
    """``np.polyfit(x[k][mask[k]], y[k][mask[k]], deg)`` for every row k.

    ``x``, ``y`` and ``mask`` are ``(K, M)`` arrays; every row needs at
    least ``deg + 1`` distinct masked samples.  As in polyfit, each
    Vandermonde column is scaled to unit norm; masked-out samples become
    zero rows, and all rows' least-squares problems are solved by one
    stacked QR factorization.

    Returns:
        ``(K, deg + 1)`` coefficients, highest power first.
    """
    weight = mask.astype(float)
    lhs = np.stack([weight * x ** k for k in range(deg, -1, -1)], axis=-1)
    scale = np.sqrt((lhs * lhs).sum(axis=1))
    lhs /= scale[:, None, :]
    q, r = np.linalg.qr(lhs)
    rhs = q.transpose(0, 2, 1) @ (weight * y)[..., None]
    return np.linalg.solve(r, rhs)[..., 0] / scale


def characterize_device(model: MosfetModel, tech: Technology,
                        w: float = None, l: float = None,
                        grid_step: float = 0.1,
                        vds_step: float = 0.05) -> CharacterizationGrid:
    """Characterize one device into a (Vs, Vg) table of fitted I/V curves.

    Sweeps Vs and Vg from 0 to vdd with ``grid_step`` (the paper's 0.1 V),
    samples the golden model's Vd dependence at ``vds_step`` resolution,
    and fits the two-piece polynomial model at every grid point.

    The whole grid is sampled in one array call and fitted in one
    batched solve, into the paper's packed ``(Nvs, Nvg, 7)`` table,
    which the returned grid keeps as its table; the fits match
    per-point :func:`fit_iv_curve` to rounding.  A point with
    too few samples for either fit goes through :func:`fit_iv_curve`
    itself, which owns the degenerate cases.

    Args:
        model: the golden analytic model to sample (plays HSPICE/BSIM3).
        tech: technology (supplies vdd and default geometry).
        w: characterization width [m]; defaults to ``2 * tech.wmin``.
        l: channel length [m]; defaults to ``tech.lmin``.  Tables are
            exact in width (current scales linearly) but bound to this
            length.
        grid_step: Vs/Vg grid pitch [V].
        vds_step: Vd sampling pitch for the fits [V].
    """
    w = 2.0 * tech.wmin if w is None else w
    l = tech.lmin if l is None else l
    vdd = tech.vdd
    axis = np.round(np.arange(0.0, vdd + 0.5 * grid_step, grid_step), 9)
    n = axis.size
    vs = axis[:, None]
    vg = axis[None, :]

    # Conduction frame: the identity for NMOS.  PMOS voltages mirror
    # about vdd, so the frame drain (high frame voltage) is the actual
    # low node and the frame-forward current flows out of the actual
    # high node.
    vd_probe = vs + np.maximum(vdd - vs, 0.1)
    if model.polarity == "n":
        vth = [model.threshold(v) for v in axis]
        vdsat = model.vdsat_array(w, l, vg, v_src=vd_probe, v_snk=vs)
    else:
        vth = [model.threshold(vdd - v) for v in axis]
        vdsat = model.vdsat_array(w, l, vdd - vg, v_src=vdd - vd_probe,
                                  v_snk=vdd - vs)

    # Each point samples its row's Vd sweep plus the region boundary
    # and half of it (so both fits anchor there), clipped to the sweep
    # and de-duplicated: sorted, NaN-padded to one (n, n, M) array.
    vds_max = np.maximum(vdd - axis, grid_step)
    sweeps = [np.arange(0.0, top + 0.5 * vds_step, vds_step)
              for top in vds_max]
    vds = np.full((n, n, max(s.size for s in sweeps) + 2), np.nan)
    for i, sweep in enumerate(sweeps):
        vds[i, :, :sweep.size] = sweep
    vds[..., -2] = vdsat
    vds[..., -1] = np.minimum(vdsat * 0.5, vds_max[:, None])
    vds = np.sort(np.clip(vds, 0.0, vds_max[:, None, None]), axis=-1)
    valid = ~np.isnan(vds)
    valid[..., 1:] &= vds[..., 1:] != vds[..., :-1]
    vds[~valid] = 0.0

    # The bias planes, broadcast over each point's samples.
    vs3, vg3 = vs[..., None], vg[..., None]
    if model.polarity == "n":
        ids = model.ids_array(w, l, vg3, v_src=vs3 + vds, v_snk=vs3)
    else:
        ids = model.ids_array(w, l, vdd - vg3, v_src=vdd - vs3,
                              v_snk=vdd - (vs3 + vds))

    # The paper's seven parameters per point, in FittedIV field order.
    table = np.empty((n, n, 7))
    table[..., 5] = np.array(vth)[:, None]
    table[..., 6] = vdsat
    triode = valid & (vds <= vdsat[..., None])
    sat = valid & ~triode
    batched = (triode.sum(axis=-1) >= 3) & (sat.sum(axis=-1) >= 2)
    table[batched, 2:5] = _polyfit_batch(vds[batched], ids[batched],
                                         triode[batched], 2)
    table[batched, 0:2] = _polyfit_batch(vds[batched], ids[batched],
                                         sat[batched], 1)
    for i, j in zip(*np.nonzero(~batched)):
        fit = fit_iv_curve(vds[i, j][valid[i, j]], ids[i, j][valid[i, j]],
                           vth[i], vdsat[i, j])
        table[i, j] = fit

    return CharacterizationGrid(
        polarity=model.polarity, w_ref=w, l_ref=l, vdd=vdd,
        vs_values=axis, vg_values=axis.copy(), table=table)
