"""Nodal equations for a logic stage (residual/Jacobian assembly).

The unknowns are the internal node voltages of a stage; the polar source
and sink are fixed at vdd and 0, and gate inputs are driven by known
source waveforms.  :class:`StageEquations` assembles

* the *static* residual (transistor channel currents via the golden
  analytic model, wire resistive currents) and its dense Jacobian, and
* the node capacitance vector (voltage-dependent junction caps, wire
  caps split half per end, external loads) plus gate-coupling (Miller)
  capacitances to the driven inputs,

which the DC and transient solvers combine with their own companion
terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.elements import DeviceKind
from repro.circuit.netlist import LogicStage
from repro.devices.capacitance import (
    equivalent_junction_cap,
    junction_capacitance,
    wire_capacitance,
    wire_resistance,
)
from repro.devices.mosfet import MosfetModel, nmos_model, pmos_model
from repro.devices.technology import Technology


@dataclass
class _TransistorRef:
    """Pre-resolved transistor bookkeeping for fast evaluation."""

    model: MosfetModel
    w: float
    l: float
    gate: str
    src_index: int  # -1 for VDD, -2 for GND
    snk_index: int
    gate_half_cap: float  # 0.5*Cox*W*L + Cov*W, each channel terminal


@dataclass
class _WireRef:
    resistance: float
    src_index: int
    snk_index: int


def _polarity_params(tech: Technology, kind: DeviceKind):
    return tech.nmos if kind is DeviceKind.NMOS else tech.pmos


class StageEquations:
    """Residual/Jacobian assembler for one logic stage.

    Args:
        stage: the logic stage to simulate.
        tech: technology providing the golden device models.
        voltage_dependent_caps: if True, junction capacitances follow the
            instantaneous node voltage (evaluated at the previous accepted
            solution, explicit-in-capacitance); if False, the large-signal
            equivalent capacitance over the full swing is used.
    """

    VDD_INDEX = -1
    GND_INDEX = -2

    def __init__(self, stage: LogicStage, tech: Technology,
                 voltage_dependent_caps: bool = True):
        self.stage = stage
        self.tech = tech
        self.vdd = stage.vdd
        self.voltage_dependent_caps = voltage_dependent_caps
        self.node_names: List[str] = [n.name for n in stage.internal_nodes]
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)}
        self.n = len(self.node_names)
        self.device_evaluations = 0

        models = {"n": nmos_model(tech), "p": pmos_model(tech)}
        self._transistors: List[_TransistorRef] = []
        self._wires: List[_WireRef] = []
        # Per-node fixed capacitance (wire halves + loads) and junction
        # attachment lists for the voltage-dependent part.
        self._fixed_cap = np.zeros(self.n)
        self._junctions: List[List[Tuple[DeviceKind, float]]] = [
            [] for _ in range(self.n)]
        # Gate-coupling caps: (node_index, gate_signal, cap_value).
        self.gate_couplings: List[Tuple[int, str, float]] = []

        for node in stage.internal_nodes:
            self._fixed_cap[self._index[node.name]] += node.load_cap

        for edge in stage.edges:
            src_idx = self._node_index(edge.src.name)
            snk_idx = self._node_index(edge.snk.name)
            if edge.kind is DeviceKind.WIRE:
                r = wire_resistance(tech.wire, edge.w, edge.l)
                c = wire_capacitance(tech.wire, edge.w, edge.l)
                self._wires.append(_WireRef(r, src_idx, snk_idx))
                for idx in (src_idx, snk_idx):
                    if idx >= 0:
                        self._fixed_cap[idx] += 0.5 * c
                continue
            params = _polarity_params(tech, edge.kind)
            half_gate = 0.5 * params.cox * edge.w * edge.l + params.cov * edge.w
            ref = _TransistorRef(
                model=models[edge.kind.polarity],
                w=edge.w, l=edge.l, gate=edge.gate_input,
                src_index=src_idx, snk_index=snk_idx,
                gate_half_cap=half_gate)
            self._transistors.append(ref)
            for idx in (src_idx, snk_idx):
                if idx >= 0:
                    self._junctions[idx].append((edge.kind, edge.w))
                    self.gate_couplings.append(
                        (idx, edge.gate_input, half_gate))

    # ------------------------------------------------------------------
    def _node_index(self, name: str) -> int:
        if name == self.stage.source.name:
            return self.VDD_INDEX
        if name == self.stage.sink.name:
            return self.GND_INDEX
        return self._index[name]

    def node_index(self, name: str) -> int:
        """Index of an internal node in the unknown vector."""
        return self._index[name]

    def dc_key(self, gate_values: Dict[str, float],
               guess: np.ndarray) -> Tuple[Tuple, bytes]:
        """Hashable key of everything the DC solvers read.

        :func:`repro.spice.dc.solve_dc` and its pseudo-transient
        fallback see the stage only through :meth:`static_residual` and
        :meth:`node_capacitances`.  Those read vdd, the ordered
        transistors (polarity, W, L, gate level, terminal indices; the
        gate-coupling caps follow from these), the wires (R, indices),
        the fixed node caps and junction lists — and the solve starts
        from ``guess``.  The key holds exactly these, with every float
        as its exact bytes, and no node names: stages that are
        isomorphic and identically ordered share a key.  The technology
        is not in the key; memoize per technology.
        """
        structure = (
            self.voltage_dependent_caps,
            tuple((t.model.polarity, t.src_index, t.snk_index)
                  for t in self._transistors),
            tuple((wire.src_index, wire.snk_index) for wire in self._wires),
            tuple(tuple(kind.polarity for kind, _ in node)
                  for node in self._junctions))
        values = [self.vdd]
        for t in self._transistors:
            values += (t.w, t.l, gate_values[t.gate])
        values += [wire.resistance for wire in self._wires]
        values += [width for node in self._junctions for _, width in node]
        floats = np.concatenate([values, self._fixed_cap, guess])
        return structure, floats.tobytes()

    # ------------------------------------------------------------------
    def static_residual(self, v: np.ndarray,
                        gate_values: Dict[str, float],
                        gmin: float = 0.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Sum of element currents leaving each internal node, + Jacobian.

        Args:
            v: internal node voltages.
            gate_values: input-signal name -> gate voltage at this instant.
            gmin: optional shunt conductance from every node to ground
                (DC convergence aid).

        Returns:
            ``(residual, jacobian)``: residual[i] is the net current
            leaving node i through resistive/channel elements; jacobian
            is its dense derivative.  Both arrays are new on every call,
            so the DC and transient solvers add their companion terms
            to them in place.
        """
        n = self.n
        # Stamps run on Python floats (DESIGN §15); with ground and vdd
        # appended, the rail indices -2 and -1 read the rails directly.
        volts = v.tolist()
        volts += (0.0, self.vdd)
        f = [0.0] * n
        jac = [[0.0] * n for _ in range(n)]

        for t in self._transistors:
            src, snk = t.src_index, t.snk_index
            ids, _, g_src, g_snk, _, _, _, _ = t.model.evaluate_fields(
                t.w, t.l, gate_values[t.gate], volts[src], volts[snk])
            self.device_evaluations += 1
            # Current src -> snk leaves the src node and enters the snk.
            if src >= 0:
                f[src] += ids
                jac[src][src] += g_src
                if snk >= 0:
                    jac[src][snk] += g_snk
            if snk >= 0:
                f[snk] -= ids
                jac[snk][snk] -= g_snk
                if src >= 0:
                    jac[snk][src] -= g_src

        for wire in self._wires:
            src, snk = wire.src_index, wire.snk_index
            g = 1.0 / wire.resistance
            current = g * (volts[src] - volts[snk])
            if src >= 0:
                f[src] += current
                jac[src][src] += g
                if snk >= 0:
                    jac[src][snk] -= g
            if snk >= 0:
                f[snk] -= current
                jac[snk][snk] += g
                if src >= 0:
                    jac[snk][src] -= g

        if gmin > 0.0:
            for i in range(n):
                f[i] += gmin * volts[i]
                jac[i][i] += gmin

        # The reshape keeps a stage without internal nodes at (0, 0).
        return np.array(f), np.array(jac).reshape(n, n)

    # ------------------------------------------------------------------
    def node_capacitances(self, v: np.ndarray) -> np.ndarray:
        """Per-node capacitance to ground [F] at the given voltages.

        Includes junction caps (voltage dependent if enabled), wire cap
        halves, external loads and the channel-side halves of the gate
        capacitances (their coupling to moving inputs is handled
        separately via :attr:`gate_couplings`).
        """
        caps = self._fixed_cap.copy()
        for idx in range(self.n):
            for kind, w in self._junctions[idx]:
                params = _polarity_params(self.tech, kind)
                if kind is DeviceKind.NMOS:
                    v_reverse = float(v[idx])
                else:
                    v_reverse = self.vdd - float(v[idx])
                if self.voltage_dependent_caps:
                    caps[idx] += junction_capacitance(params, w, v_reverse)
                else:
                    caps[idx] += equivalent_junction_cap(
                        params, w, 0.0, self.vdd)
        for idx, _gate, cap in self.gate_couplings:
            caps[idx] += cap
        return caps

    def gate_values(self, sources: Dict[str, "object"], t: float
                    ) -> Dict[str, float]:
        """Evaluate every input source at time ``t``."""
        return {name: src.value(t) for name, src in sources.items()}
