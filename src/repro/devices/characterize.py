"""Device characterization: sweep the golden model, fit, compress.

Paper Section V-A: "To characterize transistor I/V relation, we sweep Vs
and Vg from 0 volt to 3.3 volt with a step size of 0.1 volt.  For each
Vs/Vg pair, we then generate polynomial functions to capture the
dependence of channel current on drain voltage Vd using curve fitting.
We use a linear function for the saturation region and a quadratic
function for the triode region.  Together with the threshold voltage and
saturation voltage, we store 7 parameters for each Vs/Vg pair."

This module reproduces that flow against the golden analytic model
(standing in for HSPICE/BSIM3).  PMOS devices are characterized in the
*conduction frame* (voltages mirrored about vdd), which renders them
NMOS-like; the mirroring is undone at query time by
:class:`repro.devices.table_model.TableDeviceModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.devices.mosfet import MosfetModel
from repro.devices.technology import Technology


@dataclass(frozen=True)
class FittedIV:
    """The paper's seven stored parameters for one (Vs, Vg) grid point.

    The polynomials are in ``vds`` (drain-source voltage, forward
    convention ``vds >= 0``):

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

    #: Below this vds the fit is blended linearly through the origin:
    #: the physical current is exactly zero at vds = 0, and without the
    #: blend the least-squares intercept t0 would make the current jump
    #: by 2*t0 under a source/drain swap — a kink that derails Newton
    #: when adjacent stack nodes sit within millivolts of each other.
    BLEND_VDS = 0.05

    def _raw_current(self, vds: float) -> float:
        if vds <= self.vdsat:
            return self.t2 * vds * vds + self.t1 * vds + self.t0
        return self.s1 * vds + self.s0

    def _blend_slope(self) -> float:
        return self._raw_current(self.BLEND_VDS) / self.BLEND_VDS

    def current(self, vds: float) -> float:
        """Fitted forward current at ``vds`` [A] (zero at vds = 0)."""
        if vds < self.BLEND_VDS:
            return vds * self._blend_slope()
        return self._raw_current(vds)

    def slope(self, vds: float) -> float:
        """Fitted ``d(ids)/d(vds)`` [S]."""
        if vds < self.BLEND_VDS:
            return self._blend_slope()
        if vds <= self.vdsat:
            return 2.0 * self.t2 * vds + self.t1
        return self.s1


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


@dataclass
class CharacterizationGrid:
    """A full (Vs, Vg) grid of :class:`FittedIV` entries for one device.

    Attributes:
        polarity: ``"n"`` or ``"p"``.
        w_ref: width the grid was characterized at [m].
        l_ref: channel length the grid was characterized at [m].
        vdd: supply voltage (also the mirror point for PMOS) [V].
        vs_values: grid axis of source voltages (conduction frame) [V].
        vg_values: grid axis of gate voltages (conduction frame) [V].
        fits: ``fits[i][j]`` is the fit at ``(vs_values[i], vg_values[j])``.
    """

    polarity: str
    w_ref: float
    l_ref: float
    vdd: float
    vs_values: np.ndarray
    vg_values: np.ndarray
    fits: List[List[FittedIV]]
    # Vectorized parameter planes, filled by __post_init__.
    vth_plane: np.ndarray = field(init=False)
    vdsat_plane: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.vs_values = np.asarray(self.vs_values, dtype=float)
        self.vg_values = np.asarray(self.vg_values, dtype=float)
        n_vs, n_vg = self.vs_values.size, self.vg_values.size
        if len(self.fits) != n_vs or any(len(row) != n_vg for row in self.fits):
            raise ValueError("fits shape does not match grid axes")
        self.vth_plane = np.array(
            [[f.vth for f in row] for row in self.fits])
        self.vdsat_plane = np.array(
            [[f.vdsat for f in row] for row in self.fits])

    @property
    def n_parameters(self) -> int:
        """Total stored fit parameters (7 per grid point, as in the paper)."""
        return 7 * self.vs_values.size * self.vg_values.size


def _conduction_currents(model: MosfetModel, vdd: float, w: float,
                         l: float, vg_f: float, vs_f: float,
                         vd_f: np.ndarray) -> np.ndarray:
    """Forward currents in the conduction frame (NMOS-like, ``vd_f >= vs_f``).

    For NMOS the frame is the identity.  For PMOS, frame voltage ``u``
    maps to actual voltage ``vdd - u``; the frame drain (high frame
    voltage) is the actual *low* node, so the frame-forward current is
    the current flowing out of the actual high node into the low one.
    One array call samples a grid point's whole Vd sweep, bit-identical
    to querying :meth:`MosfetModel.ids` per sample.
    """
    if model.polarity == "n":
        return model.ids_array(w, l, vg_f, v_src=vd_f, v_snk=vs_f)
    return model.ids_array(w, l, vdd - vg_f, v_src=vdd - vs_f,
                           v_snk=vdd - vd_f)


def _conduction_threshold(model: MosfetModel, vdd: float, vs_f: float) -> float:
    """Threshold at a conduction-frame source voltage."""
    if model.polarity == "n":
        return model.threshold(vs_f)
    return model.threshold(vdd - vs_f)


def _conduction_vdsat(model: MosfetModel, vdd: float, w: float, l: float,
                      vg_f: float, vs_f: float) -> float:
    """Saturation voltage at a conduction-frame bias point."""
    vd_probe = vs_f + max(vdd - vs_f, 0.1)
    if model.polarity == "n":
        return model.vdsat(w, l, vg_f, v_src=vd_probe, v_snk=vs_f)
    return model.vdsat(w, l, vdd - vg_f, v_src=vdd - vd_probe,
                       v_snk=vdd - vs_f)


def characterize_device(model: MosfetModel, tech: Technology,
                        w: float = None, l: float = None,
                        grid_step: float = 0.1,
                        vds_step: float = 0.05) -> CharacterizationGrid:
    """Characterize one device into a (Vs, Vg) grid of fitted I/V curves.

    Sweeps Vs and Vg from 0 to vdd with ``grid_step`` (the paper's 0.1 V),
    samples the golden model's Vd dependence at ``vds_step`` resolution,
    and fits the two-piece polynomial model at every grid point.

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

    fits: List[List[FittedIV]] = []
    for vs_f in axis:
        row: List[FittedIV] = []
        vds_max = max(vdd - vs_f, grid_step)
        base = np.arange(0.0, vds_max + 0.5 * vds_step, vds_step)
        for vg_f in axis:
            vth = _conduction_threshold(model, vdd, float(vs_f))
            vdsat = _conduction_vdsat(model, vdd, w, l, float(vg_f),
                                      float(vs_f))
            # Always sample the region boundary so both fits anchor there.
            vds_samples = np.unique(
                np.clip(np.append(base, [vdsat, min(vdsat * 0.5, vds_max)]),
                        0.0, vds_max))
            ids_samples = _conduction_currents(
                model, vdd, w, l, float(vg_f), float(vs_f),
                vs_f + vds_samples)
            row.append(fit_iv_curve(vds_samples, ids_samples, vth, vdsat))
        fits.append(row)

    return CharacterizationGrid(
        polarity=model.polarity, w_ref=w, l_ref=l, vdd=vdd,
        vs_values=axis, vg_values=axis.copy(), fits=fits)
