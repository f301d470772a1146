"""Switch-level timing baseline (Crystal / IRSIM style).

Transistors become switched resistors, the conducting pull path becomes
an RC ladder, and the delay estimate is the Elmore delay scaled to the
50% crossing of a single-pole response (``t_50 = ln(2) * T_elmore``).
This is the fastest — and least accurate — methodology the paper's
related-work section describes; it serves as the speed/accuracy anchor
opposite SPICE in the benchmark suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.circuit.elements import DeviceKind
from repro.circuit.netlist import LogicStage
from repro.core.path import DischargePath, extract_path
from repro.devices.table_model import TableModelLibrary
from repro.devices.technology import MosParams, Technology
from repro.interconnect.elmore import elmore_delays
from repro.interconnect.rc_network import RCTree
from repro.spice.sources import SourceLike, as_source


def effective_resistance(params: MosParams, w: float, l: float,
                         vdd: float) -> float:
    """Effective switching resistance of a transistor [ohm].

    The classic average of the saturated-current resistance at ``vdd``
    and at ``vdd/2`` for a device with full gate drive — the standard
    switch-level calibration (Rabaey's ``R_eq``), evaluated on the
    square-law part of the model for simplicity:

        I_dsat ~= 0.5 * kp * (w/l) * (vdd - vth)^2
        R_eq ~= 3/4 * vdd / I_dsat * (1 - 7/9 * lambda * vdd)
    """
    if w <= 0 or l <= 0:
        raise ValueError("geometry must be positive")
    vgt = vdd - params.vth0
    if vgt <= 0:
        raise ValueError("device never turns on at this supply")
    # Velocity-saturation-degraded saturation current.
    ecl = params.ecrit * l
    vdsat = ecl * (math.sqrt(1.0 + 2.0 * vgt / ecl) - 1.0)
    idsat = (params.kp * (w / l)
             * (vgt * vdsat - 0.5 * vdsat * vdsat)
             / (1.0 + vdsat / ecl))
    return 0.75 * vdd / idsat * (1.0 - (7.0 / 9.0) * params.lambda_ * vdd)


@dataclass
class SwitchLevelEstimate:
    """Result of a switch-level evaluation.

    Attributes:
        delay: estimated 50% propagation delay [s].
        elmore: raw Elmore delay of the pull path [s].
        path_length: number of series devices.
    """

    delay: float
    elmore: float
    path_length: int


class SwitchLevelTimer:
    """Crystal/IRSIM-style stage timing.

    Args:
        tech: process technology.
        library: table library (reused for path extraction only; the
            resistances come from the analytic ``R_eq``).
    """

    def __init__(self, tech: Technology,
                 library: Optional[TableModelLibrary] = None):
        self.tech = tech
        self.library = (library if library is not None
                        else TableModelLibrary(tech))

    def path_to_rc(self, path: DischargePath) -> RCTree:
        """Convert a pull path into the equivalent RC ladder."""
        tree = RCTree("rail")
        parent = "rail"
        for device, name, cap in zip(path.devices, path.node_names,
                                     path.node_caps):
            if device.kind is DeviceKind.WIRE:
                r = device.resistance
            else:
                params = (self.tech.nmos
                          if device.kind is DeviceKind.NMOS
                          else self.tech.pmos)
                r = effective_resistance(params, device.w, device.l,
                                         path.vdd)
            tree.add_node(name, parent=parent, resistance=r, cap=cap)
            parent = name
        return tree

    def estimate(self, stage: LogicStage, output: str, direction: str,
                 inputs: Dict[str, SourceLike]) -> SwitchLevelEstimate:
        """Switch-level delay estimate for one output transition."""
        path = extract_path(stage, output, direction,
                            {k: as_source(v) for k, v in inputs.items()},
                            self.library)
        tree = self.path_to_rc(path)
        elmore = elmore_delays(tree)[output]
        return SwitchLevelEstimate(delay=math.log(2.0) * elmore,
                                   elmore=elmore,
                                   path_length=path.length)
