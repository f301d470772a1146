"""Parasitic capacitance models.

The paper's device model (Definition 2) exposes three capacitance
contributions per element — ``srccap``, ``snkcap`` and ``inputcap`` — that
"depend not only on the device geometry, but also the terminal voltages",
with Miller capacitances included.  This module provides:

* voltage-dependent junction capacitance (standard graded-junction form),
* a charge-based *equivalent* junction capacitance over a voltage swing
  (what QWM uses as its constant per-region node capacitance),
* Meyer-style gate capacitance splits (cutoff / triode / saturation),
* wire R and C from geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.technology import MosParams, Technology, WireParams


def junction_capacitance(params: MosParams, w: float,
                         v_reverse: float) -> float:
    """Small-signal junction capacitance of one source/drain diffusion [F].

    Uses default junction geometry from the diffusion extent: area
    ``w * ldiff`` and perimeter ``2 * (w + ldiff)``.

    Args:
        params: MOS parameters (junction coefficients).
        w: device width [m].
        v_reverse: reverse bias across the junction [V]; clamped at
            slight forward bias to keep the expression finite.
    """
    if w <= 0:
        raise ValueError("width must be positive")
    area = w * params.ldiff
    perim = 2.0 * (w + params.ldiff)
    vr = max(v_reverse, -0.5 * params.pb)
    area_term = params.cj * area / (1.0 + vr / params.pb) ** params.mj
    sw_term = params.cjsw * perim / (1.0 + vr / params.pb) ** params.mjsw
    return area_term + sw_term


def _junction_charge(params: MosParams, w: float, v_reverse: float) -> float:
    """Integral of the junction capacitance from 0 to ``v_reverse`` [C].

    Area plus sidewall term, each
    ``d/dv [c0*pb/(1-m) * (1+v/pb)^(1-m)] = c0*(1+v/pb)^-m``.
    """
    pb = params.pb
    base = 1.0 + max(v_reverse, -0.5 * pb) / pb
    m_area, m_side = params.mj, params.mjsw
    return (params.cj * (w * params.ldiff) * pb / (1.0 - m_area)
            * (base ** (1.0 - m_area) - 1.0)
            + params.cjsw * (2.0 * (w + params.ldiff)) * pb / (1.0 - m_side)
            * (base ** (1.0 - m_side) - 1.0))


def equivalent_junction_cap(params: MosParams, w: float,
                            v_from: float, v_to: float) -> float:
    """Large-signal equivalent junction capacitance over a swing [F].

    ``Ceq = (Q(v_to) - Q(v_from)) / (v_to - v_from)`` — the constant
    capacitance that transfers the same charge over the transition.  This
    is what the QWM engine uses as its per-node capacitance, consistent
    with the paper's observation that its implementation does not assume
    constant parasitics yet the per-region model does.
    """
    if abs(v_to - v_from) < 1e-12:
        return junction_capacitance(params, w, v_from)
    dq = _junction_charge(params, w, v_to) - _junction_charge(params, w, v_from)
    return dq / (v_to - v_from)


@dataclass(frozen=True)
class MosCapacitances:
    """Meyer-style gate capacitance split plus junction caps for one device.

    Attributes:
        cgs: gate-to-source capacitance [F] (includes overlap).
        cgd: gate-to-drain capacitance [F] (includes overlap; this is the
            Miller coupling term).
        cgb: gate-to-bulk capacitance [F].
        csb: source-junction capacitance to bulk [F].
        cdb: drain-junction capacitance to bulk [F].
    """

    cgs: float
    cgd: float
    cgb: float
    csb: float
    cdb: float

    @property
    def gate_total(self) -> float:
        """Total capacitance presented at the gate terminal [F]."""
        return self.cgs + self.cgd + self.cgb


def gate_capacitance(params: MosParams, w: float, l: float) -> float:
    """Total (worst-case) input capacitance of a gate terminal [F]."""
    if w <= 0 or l <= 0:
        raise ValueError("geometry must be positive")
    return params.cox * w * l + 2.0 * params.cov * w


def mosfet_capacitances(params: MosParams, w: float, l: float,
                        region: str = "triode",
                        v_src_reverse: float = 0.0,
                        v_drain_reverse: float = 0.0) -> MosCapacitances:
    """Gate-capacitance split and junction caps for one operating region.

    Args:
        params: MOS parameters.
        w: width [m].
        l: length [m].
        region: ``"cutoff"``, ``"triode"`` or ``"saturation"`` (Meyer model).
        v_src_reverse: reverse bias of the source junction [V].
        v_drain_reverse: reverse bias of the drain junction [V].
    """
    cox_total = params.cox * w * l
    cov = params.cov * w
    if region == "cutoff":
        cgs, cgd, cgb = cov, cov, cox_total
    elif region == "triode":
        cgs, cgd, cgb = 0.5 * cox_total + cov, 0.5 * cox_total + cov, 0.0
    elif region == "saturation":
        cgs, cgd, cgb = (2.0 / 3.0) * cox_total + cov, cov, 0.0
    else:
        raise ValueError(f"unknown region {region!r}")
    return MosCapacitances(
        cgs=cgs,
        cgd=cgd,
        cgb=cgb,
        csb=junction_capacitance(params, w, v_src_reverse),
        cdb=junction_capacitance(params, w, v_drain_reverse),
    )


def wire_resistance(wire: WireParams, w: float, l: float) -> float:
    """Wire resistance from geometry: ``rsheet * l / w`` [ohm]."""
    if w <= 0 or l < 0:
        raise ValueError("wire geometry invalid")
    return wire.sheet_resistance * l / w


def wire_capacitance(wire: WireParams, w: float, l: float) -> float:
    """Wire capacitance to substrate: area plus two fringe edges [F]."""
    if w <= 0 or l < 0:
        raise ValueError("wire geometry invalid")
    return wire.cap_area * w * l + 2.0 * wire.cap_fringe * l


def stage_node_capacitance(tech: Technology, *,
                           nmos_widths: tuple = (),
                           pmos_widths: tuple = (),
                           gate_loads: tuple = (),
                           extra: float = 0.0,
                           v_swing: float = None) -> float:
    """Sum the equivalent capacitance at a circuit node [F].

    Convenience used by builders and tests: junction contributions from
    each attached NMOS/PMOS diffusion (large-signal equivalent over the
    supply swing), gate loads ``(w, l, polarity)``, and any extra lumped
    load.
    """
    swing = tech.vdd if v_swing is None else v_swing
    total = extra
    for w in nmos_widths:
        total += equivalent_junction_cap(tech.nmos, w, 0.0, swing)
    for w in pmos_widths:
        total += equivalent_junction_cap(tech.pmos, w, 0.0, swing)
    for w, l, polarity in gate_loads:
        params = tech.nmos if polarity == "n" else tech.pmos
        total += gate_capacitance(params, w, l)
    return total
