"""Golden analytic MOSFET model (the repository's "silicon truth").

A level-3-style model with:

* body effect (``vth = vth0 + gamma*(sqrt(phi+vsb) - sqrt(phi))``),
* velocity saturation (critical field ``ecrit``; the triode current is
  degraded by ``1 + vds/(ecrit*l)`` and ``vdsat`` solves ``dI/dVds = 0``
  so the triode/saturation join is C1),
* channel-length modulation scaled by the reference length,
* a C1 smoothing of the cutoff boundary so Newton-Raphson never sees a
  derivative jump at ``vgs = vth``,
* full source/drain symmetry (terminals swap automatically when the
  structural sink rises above the structural source).

The SPICE reference engine evaluates this model directly.  The QWM engine
never does: it sees only the tabular model characterized from sampled
sweeps of this model (see :mod:`repro.devices.characterize`), mirroring
the paper's characterize-from-BSIM3 flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devices.technology import MosParams, Technology


@dataclass(frozen=True)
class MosOperatingPoint:
    """Current and small-signal derivatives of one device, in node terms.

    The current ``ids`` flows from the *structural* source node to the
    *structural* sink node (positive when the source node is at the higher
    potential for NMOS).  Derivatives are with respect to the node
    voltages, suitable for direct MNA stamping.

    Attributes:
        ids: channel current from src node to snk node [A].
        g_gate: d(ids)/d(v_gate) [S].
        g_src: d(ids)/d(v_src) [S].
        g_snk: d(ids)/d(v_snk) [S].
        vth: threshold voltage seen by the effective source [V].
        vdsat: saturation drain-source voltage [V].
        saturated: True if operating past vdsat.
        swapped: True if the structural snk node acted as the drain.
    """

    ids: float
    g_gate: float
    g_src: float
    g_snk: float
    vth: float
    vdsat: float
    saturated: bool
    swapped: bool


def _forward(params: MosParams, lref: float, w: float, l: float,
             vgs: float, vds: float, vsb: float):
    """Core forward-mode evaluation (n-type convention, ``vds >= 0``).

    Returns ``(i, gm, gds, gmb, vth, vdsat, saturated)`` where the
    derivatives are with respect to ``vgs``, ``vds`` and ``vsb``.
    """
    if vds < 0:
        raise ValueError("_forward requires vds >= 0")
    vsb_clamped = max(vsb, 0.0)
    sqrt_term = math.sqrt(params.phi + vsb_clamped)
    vth = params.vth0 + params.gamma * (sqrt_term - math.sqrt(params.phi))
    dvth_dvsb = params.gamma / (2.0 * sqrt_term) if vsb > 0.0 else 0.0

    # C1 smoothing of the cutoff corner: vgt -> (vgt + sqrt(vgt^2+4d^2))/2.
    delta = params.smoothing
    vgt_raw = vgs - vth
    root = math.sqrt(vgt_raw * vgt_raw + 4.0 * delta * delta)
    vgt = 0.5 * (vgt_raw + root)
    dvgt = 0.5 * (1.0 + vgt_raw / root)

    beta = params.kp * (w / l)
    ecl = params.ecrit * l
    lam = params.lambda_ * (lref / l)

    sat_root = math.sqrt(1.0 + 2.0 * vgt / ecl)
    vdsat = ecl * (sat_root - 1.0)
    dvdsat_dvgt = 1.0 / sat_root

    # The channel-length-modulation factor applies in both regions so
    # the triode/saturation join is C1 in both I and its derivatives.
    clm = 1.0 + lam * vds
    if vds <= vdsat:
        u = vgt * vds - 0.5 * vds * vds
        d = 1.0 + vds / ecl
        i0 = beta * u / d
        i = i0 * clm
        gds = (beta * ((vgt - vds) * d - u / ecl) / (d * d)) * clm \
            + i0 * lam
        dI_dvgt = (beta * vds / d) * clm
        saturated = False
    else:
        u_star = vgt * vdsat - 0.5 * vdsat * vdsat
        d_star = 1.0 + vdsat / ecl
        isat = beta * u_star / d_star
        i = isat * clm
        gds = isat * lam
        # dI/dvgt of isat collapses to beta*vdsat/d_star because
        # dI/dVds = 0 at vdsat (envelope theorem); the clm factor no
        # longer depends on vdsat, so no extra term appears.
        dI_dvgt = (beta * vdsat / d_star) * clm
        saturated = True

    gm = dI_dvgt * dvgt
    gmb = -dI_dvgt * dvgt * dvth_dvsb
    return i, gm, gds, gmb, vth, vdsat, saturated


def _forward_vdsat(params: MosParams, l: float, vgs, vsb):
    """Array twin of :func:`_forward`'s ``(vgt, vdsat)``, in its order."""
    vsb_clamped = np.maximum(vsb, 0.0)
    sqrt_term = np.sqrt(params.phi + vsb_clamped)
    vth = params.vth0 + params.gamma * (sqrt_term - math.sqrt(params.phi))

    delta = params.smoothing
    vgt_raw = vgs - vth
    root = np.sqrt(vgt_raw * vgt_raw + 4.0 * delta * delta)
    vgt = 0.5 * (vgt_raw + root)

    ecl = params.ecrit * l
    sat_root = np.sqrt(1.0 + 2.0 * vgt / ecl)
    vdsat = ecl * (sat_root - 1.0)
    return vgt, vdsat


def _forward_current(params: MosParams, lref: float, w: float, l: float,
                     vgs, vds: np.ndarray, vsb) -> np.ndarray:
    """Array twin of :func:`_forward`'s current, elementwise over ``vds``.

    Every float operation runs in :func:`_forward`'s order, so each
    element is bit-identical to the scalar result; both branches are
    evaluated and the region test picks one per element.
    """
    vgt, vdsat = _forward_vdsat(params, l, vgs, vsb)

    beta = params.kp * (w / l)
    ecl = params.ecrit * l
    lam = params.lambda_ * (lref / l)

    clm = 1.0 + lam * vds
    u = vgt * vds - 0.5 * vds * vds
    d = 1.0 + vds / ecl
    i_triode = (beta * u / d) * clm
    u_star = vgt * vdsat - 0.5 * vdsat * vdsat
    d_star = 1.0 + vdsat / ecl
    i_sat = (beta * u_star / d_star) * clm
    return np.where(vds <= vdsat, i_triode, i_sat)


def _ncore_bias(v_gate, v_src, v_snk, v_bulk: float):
    """Array twin of :func:`_ncore`'s terminal swap.

    Returns ``(forward, vgs, vds, vsb)``; ``forward`` is False where the
    structural sink acts as the drain.
    """
    forward = v_src >= v_snk
    vgs = np.where(forward, v_gate - v_snk, v_gate - v_src)
    vds = np.where(forward, v_src - v_snk, v_snk - v_src)
    vsb = np.where(forward, v_snk - v_bulk, v_src - v_bulk)
    return forward, vgs, vds, vsb


def _ncore_current(params: MosParams, lref: float, w: float, l: float,
                   v_gate, v_src, v_snk, v_bulk: float) -> np.ndarray:
    """Array twin of ``_ncore(...)[0]`` (ids) with the same terminal swap."""
    forward, vgs, vds, vsb = _ncore_bias(v_gate, v_src, v_snk, v_bulk)
    i = _forward_current(params, lref, w, l, vgs, vds, vsb)
    return np.where(forward, i, -i)


def _ncore_vdsat(params: MosParams, l: float, v_gate, v_src, v_snk,
                 v_bulk: float) -> np.ndarray:
    """Array twin of ``_ncore(...)[5]`` (vdsat), same terminal swap."""
    _, vgs, _, vsb = _ncore_bias(v_gate, v_src, v_snk, v_bulk)
    return _forward_vdsat(params, l, vgs, vsb)[1]


def _ncore(params: MosParams, lref: float, w: float, l: float,
           v_gate: float, v_src: float, v_snk: float,
           v_bulk: float) -> tuple:
    """Evaluate an n-type core in node terms, handling terminal swap.

    Returns the eight :class:`MosOperatingPoint` fields, in field order,
    as a plain tuple.
    """
    if v_src >= v_snk:
        # Structural source node is the drain; structural sink is the source.
        vgs = v_gate - v_snk
        vds = v_src - v_snk
        vsb = v_snk - v_bulk
        i, gm, gds, gmb, vth, vdsat, saturated = _forward(
            params, lref, w, l, vgs, vds, vsb)
        # v_src only enters vds; v_snk enters vgs (-), vds (-), vsb (+).
        return i, gm, gds, -gm - gds + gmb, vth, vdsat, saturated, False
    vgs = v_gate - v_src
    vds = v_snk - v_src
    vsb = v_src - v_bulk
    i, gm, gds, gmb, vth, vdsat, saturated = _forward(
        params, lref, w, l, vgs, vds, vsb)
    return -i, -gm, gm + gds - gmb, -gds, vth, vdsat, saturated, True


@dataclass(frozen=True)
class MosfetModel:
    """Analytic MOSFET model bound to one polarity of a technology.

    Attributes:
        polarity: ``"n"`` or ``"p"``.
        params: the process parameters for this polarity.
        lref: reference channel length for channel-length-modulation
            scaling (the technology's ``lmin``).
        v_bulk: bulk terminal voltage (0 for NMOS, vdd for PMOS).
    """

    polarity: str
    params: MosParams
    lref: float
    v_bulk: float

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")

    def evaluate(self, w: float, l: float, v_gate: float,
                 v_src: float, v_snk: float) -> MosOperatingPoint:
        """Full operating point: current plus node-voltage derivatives.

        Args:
            w: channel width [m].
            l: channel length [m].
            v_gate: gate node voltage [V].
            v_src: structural source node voltage [V].
            v_snk: structural sink node voltage [V].
        """
        return MosOperatingPoint(
            *self.evaluate_fields(w, l, v_gate, v_src, v_snk))

    def evaluate_fields(self, w: float, l: float, v_gate: float,
                        v_src: float, v_snk: float) -> tuple:
        """:meth:`evaluate`'s eight fields, in order, as a plain tuple.

        The stage residual reads this form: it builds no record.
        """
        if w <= 0 or l <= 0:
            raise ValueError("device geometry must be positive")
        if self.polarity == "n":
            return _ncore(self.params, self.lref, w, l,
                          v_gate, v_src, v_snk, self.v_bulk)
        # PMOS by symmetry: I_p(vg, a, b) = -I_ncore(-vg, -a, -b) with the
        # bulk negated too; node-voltage derivatives carry over unchanged
        # because the two sign flips cancel.
        fields = _ncore(self.params, self.lref, w, l,
                        -v_gate, -v_src, -v_snk, -self.v_bulk)
        return (-fields[0],) + fields[1:]

    def ids(self, w: float, l: float, v_gate: float,
            v_src: float, v_snk: float) -> float:
        """Channel current from the src node to the snk node [A]."""
        return self.evaluate_fields(w, l, v_gate, v_src, v_snk)[0]

    def ids_array(self, w: float, l: float, v_gate, v_src,
                  v_snk) -> np.ndarray:
        """:meth:`ids` over broadcast arrays of node voltages.

        Bit-identical to calling :meth:`ids` per element: the same
        operation order, terminal swap and PMOS mirroring, in numpy.
        """
        if w <= 0 or l <= 0:
            raise ValueError("device geometry must be positive")
        if self.polarity == "n":
            return _ncore_current(self.params, self.lref, w, l,
                                  v_gate, v_src, v_snk, self.v_bulk)
        return -_ncore_current(self.params, self.lref, w, l,
                               -v_gate, -v_src, -v_snk, -self.v_bulk)

    def threshold(self, v_source: float) -> float:
        """Threshold voltage magnitude for a given effective-source voltage.

        For NMOS the body-to-source reverse bias is ``v_source - v_bulk``;
        for PMOS it is ``v_bulk - v_source``.
        """
        if self.polarity == "n":
            vsb = max(v_source - self.v_bulk, 0.0)
        else:
            vsb = max(self.v_bulk - v_source, 0.0)
        return self.params.vth0 + self.params.gamma * (
            math.sqrt(self.params.phi + vsb) - math.sqrt(self.params.phi))

    def vdsat(self, w: float, l: float, v_gate: float,
              v_src: float, v_snk: float) -> float:
        """Saturation voltage at the given bias [V]."""
        return self.evaluate_fields(w, l, v_gate, v_src, v_snk)[5]

    def vdsat_array(self, w: float, l: float, v_gate, v_src,
                    v_snk) -> np.ndarray:
        """:meth:`vdsat` over broadcast arrays of node voltages.

        Bit-identical to calling :meth:`vdsat` per element, as
        :meth:`ids_array` is to :meth:`ids`.
        """
        if w <= 0 or l <= 0:
            raise ValueError("device geometry must be positive")
        if self.polarity == "n":
            return _ncore_vdsat(self.params, l, v_gate, v_src, v_snk,
                                self.v_bulk)
        return _ncore_vdsat(self.params, l, -v_gate, -v_src, -v_snk,
                            -self.v_bulk)


def nmos_model(tech: Technology) -> MosfetModel:
    """The golden NMOS model of a technology (bulk grounded)."""
    return MosfetModel(polarity="n", params=tech.nmos,
                       lref=tech.lmin, v_bulk=0.0)


def pmos_model(tech: Technology) -> MosfetModel:
    """The golden PMOS model of a technology (bulk at vdd)."""
    return MosfetModel(polarity="p", params=tech.pmos,
                       lref=tech.lmin, v_bulk=tech.vdd)
