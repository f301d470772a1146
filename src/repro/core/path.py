"""Charge/discharge path extraction from a logic stage.

Static timing analysis evaluates the *worst case*: "charging/discharging
along the longest paths" (paper Section III-C).  This module extracts
that path from a :class:`~repro.circuit.netlist.LogicStage`:

1. Build the conduction subgraph at the final input levels (transistors
   whose gates end up driving them on, plus all wires).
2. Trace the path from the output node to the pulling rail (ground for a
   falling output, the supply for a rising one).
3. Collapse runs of consecutive wire segments into AWE/O'Brien-Savarino
   π macromodels (the paper's treatment of the decoder tree's long
   wires), leaving a chain of devices and nodes.
4. Attach per-node capacitances per paper Eq. 1: the junction
   contributions of *every* incident element (on-path or not), the wire
   caps, the channel-side gate-capacitance halves, and the external
   load.

QWM then works in the *conduction frame* (frame voltage ``u = V`` for a
pull-down path, ``u = vdd - V`` for a pull-up), where every path looks
like an NMOS discharge stack: frame voltages collapse from vdd to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.elements import DeviceKind
from repro.circuit.netlist import CircuitEdge, CircuitNode, LogicStage
from repro.devices.capacitance import (
    equivalent_junction_cap,
    wire_capacitance,
    wire_resistance,
)
from repro.devices.table_model import TableDeviceModel, TableModelLibrary
from repro.interconnect.pi_model import wire_chain_pi
from repro.spice.sources import Source


@dataclass
class PathDevice:
    """One element along the extracted path, rail side first.

    Attributes:
        name: element name (π macros are named after their wire run).
        kind: NMOS/PMOS transistor or a resistive wire macro.
        gate: gate input-signal name (transistors only).
        w: width [m] (transistors only).
        l: length [m] (transistors only).
        resistance: series resistance [ohm] (wire macros only).
        table: tabular device model (transistors only).
    """

    name: str
    kind: DeviceKind
    gate: Optional[str] = None
    w: float = 0.0
    l: float = 0.0
    resistance: float = 0.0
    table: Optional[TableDeviceModel] = None

    @property
    def is_transistor(self) -> bool:
        return self.kind.is_transistor

    # ------------------------------------------------------------------
    # Frame-domain evaluation.  ``u_inner`` is the frame voltage of the
    # node on the rail side of this device, ``u_outer`` the node on the
    # output side; the returned current J flows outer -> inner (toward
    # the rail) and is positive while the path is pulling.
    # ------------------------------------------------------------------
    def frame_current(self, gate_value: float, u_inner: float,
                      u_outer: float, vdd: float
                      ) -> Tuple[float, float, float, float]:
        """Frame current and derivatives.

        Args:
            gate_value: the *actual* gate voltage at this instant [V]
                (ignored for wires).
            u_inner: frame voltage of the rail-side node.
            u_outer: frame voltage of the output-side node.
            vdd: supply (frame mirror point).

        Returns:
            ``(J, dJ_du_inner, dJ_du_outer, dJ_dgate_actual)``.
        """
        if self.kind is DeviceKind.WIRE:
            g = 1.0 / self.resistance
            return (g * (u_outer - u_inner), -g, g, 0.0)
        if self.kind is DeviceKind.NMOS:
            ids, g_gate, g_src, g_snk = self.table.iv_query(
                self.w, self.l, gate_value, u_outer, u_inner)
            return (ids, g_snk, g_src, g_gate)
        # PMOS pull-up: actual voltages are vdd - u; the frame current is
        # the actual current flowing from the rail-side (high) node into
        # the output-side node.
        ids, g_gate, g_src, g_snk = self.table.iv_query(
            self.w, self.l, gate_value, vdd - u_inner, vdd - u_outer)
        return (ids, -g_src, -g_snk, g_gate)

    def frame_gate(self, gate_value: float, vdd: float) -> float:
        """Gate voltage in the conduction frame."""
        if self.kind is DeviceKind.PMOS:
            return vdd - gate_value
        return gate_value

    def frame_gate_slope_sign(self) -> float:
        """Sign mapping d(actual gate)/dt to d(frame gate)/dt."""
        return -1.0 if self.kind is DeviceKind.PMOS else 1.0

    def threshold(self, gate_value: float, u_source: float,
                  vdd: float) -> float:
        """Threshold magnitude at a frame source voltage (transistors)."""
        if self.kind is DeviceKind.NMOS:
            return self.table.threshold(gate_value, u_source, u_source)
        return self.table.threshold(gate_value, vdd - u_source,
                                    vdd - u_source)


@dataclass
class DischargePath:
    """The worst-case pull path of a stage, ready for QWM.

    Node ``k`` (1-based) sits between devices ``k`` and ``k+1``; node 0
    is the pulling rail, node K the stage output.  All voltages carried
    here are frame quantities except ``initial`` handling in the solver.

    Attributes:
        stage: originating logic stage.
        output: output node name.
        direction: ``"fall"`` or ``"rise"`` of the actual output.
        devices: K path devices, rail side first.
        node_names: K node names, rail side first (last = output).
        node_caps: K per-node full-swing equivalent capacitances [F].
        vdd: supply voltage [V].
        fixed_caps: voltage-independent part of each node cap [F]
            (loads, wire caps, gate halves).
        junctions: per node, the incident diffusion junctions as
            ``(polarity, mos_params, width)`` triples — the
            voltage-dependent part.
        gate_couplings: per node, the incident gate-coupling (Miller)
            capacitances as ``(gate_signal, cap)`` pairs.  Their static
            halves are inside ``fixed_caps``; the solver additionally
            injects the charge a *moving* gate couples in.
    """

    stage: LogicStage
    output: str
    direction: str
    devices: List[PathDevice]
    node_names: List[str]
    node_caps: np.ndarray
    vdd: float
    fixed_caps: np.ndarray
    junctions: List[List[Tuple[str, object, float]]]
    gate_couplings: List[List[Tuple[str, float]]]

    def __post_init__(self) -> None:
        if len(self.devices) != len(self.node_names):
            raise ValueError("device/node count mismatch")
        self.node_caps = np.asarray(self.node_caps, dtype=float)
        if np.any(self.node_caps <= 0):
            raise ValueError("every path node needs positive capacitance")
        self.fixed_caps = np.asarray(self.fixed_caps, dtype=float)

    def equivalent_caps(self, u_from: np.ndarray,
                        u_to: np.ndarray) -> np.ndarray:
        """Per-node equivalent capacitance over a frame-voltage span [F].

        Junction capacitance is bias dependent; the charge-equivalent
        value over the span each region actually traverses keeps QWM's
        constant-per-region capacitances faithful (the paper: "all
        parasitic capacitances are constant ... our implementation does
        not make these assumptions").
        """
        vdd = self.vdd
        fall = self.direction == "fall"
        caps = self.fixed_caps.tolist()
        for k, (u_a, u_b, junctions) in enumerate(zip(
                np.asarray(u_from, dtype=float).tolist(),
                np.asarray(u_to, dtype=float).tolist(), self.junctions)):
            v_a = u_a if fall else vdd - u_a
            v_b = u_b if fall else vdd - u_b
            if abs(v_b - v_a) < 1e-6:
                v_b = v_a + 1e-3
            total = caps[k]
            for polarity, params, width in junctions:
                # NMOS junctions reverse-bias with the node voltage;
                # PMOS junctions sit in an n-well tied to vdd.
                if polarity == "p":
                    r_a, r_b = vdd - v_a, vdd - v_b
                else:
                    r_a, r_b = v_a, v_b
                total += abs(equivalent_junction_cap(
                    params, width, r_a, r_b))
            caps[k] = total
        return np.array(caps)

    @property
    def length(self) -> int:
        """K: the number of series devices (and nodes) on the path."""
        return len(self.devices)

    @property
    def transistor_count(self) -> int:
        return sum(1 for d in self.devices if d.is_transistor)

    @property
    def frame_sign(self) -> float:
        """Sign mapping actual voltage changes to frame changes."""
        return 1.0 if self.direction == "fall" else -1.0

    def coupling_injection(self, sources: Dict[str, Source],
                           t: float) -> List[float]:
        """Frame current injected into each node by moving gates [A].

        ``S_k = sum_m C_m * d(G_frame_m)/dt`` over the node's incident
        gate couplings, one float per node.  Each source's slope is read
        once per call.
        """
        sign = self.frame_sign
        slopes = {gate: src.slope(t) for gate, src in sources.items()}
        s = []
        for couplings in self.gate_couplings:
            total = 0.0
            for gate, cap in couplings:
                slope = slopes.get(gate)
                if slope is not None:
                    total += cap * sign * slope
            s.append(total)
        return s

    def coupling_kick(self, sources: Dict[str, Source], t: float,
                      caps: np.ndarray) -> np.ndarray:
        """Frame voltage jump caused by gate *steps* at time ``t`` [V].

        An ideal step couples ``C_m * dG`` of charge instantaneously;
        the returned per-node deltas are ``sum_m C_m dG_frame_m / C_k``.
        """
        k = len(self.node_names)
        dv = np.zeros(k)
        eps = 1e-15
        for idx, couplings in enumerate(self.gate_couplings):
            for gate, cap in couplings:
                src = sources.get(gate)
                if src is None:
                    continue
                jump = src.value(t + eps) - src.value(t - eps)
                if abs(jump) > 1e-3:
                    dv[idx] += cap * self.frame_sign * jump / caps[idx]
        return dv

    def to_frame(self, v_actual: float) -> float:
        """Actual node voltage -> frame voltage."""
        return v_actual if self.direction == "fall" else self.vdd - v_actual

    def from_frame(self, u: float) -> float:
        """Frame voltage -> actual node voltage."""
        return u if self.direction == "fall" else self.vdd - u


class NoConductingPath(ValueError):
    """No conducting path joins the output to the pulling rail.

    A property of the stage and its input levels, not a solver failure:
    STA reads it as "this sensitization cannot make the transition".
    """


def _final_level(source_like, t_probe: float) -> float:
    if isinstance(source_like, Source):
        return source_like.value(t_probe)
    return float(source_like)


def conducting_path(stage: LogicStage, start: CircuitNode,
                    goal: CircuitNode, usable
                    ) -> Optional[List[Tuple[CircuitEdge, CircuitNode]]]:
    """BFS from ``start`` to ``goal`` over the edges ``usable`` accepts,
    never through a rail; returns [(edge, next_node), ...] or None."""
    from collections import deque

    queue = deque([start])
    came: Dict[str, Tuple[CircuitEdge, CircuitNode]] = {}
    seen = {start.name}
    while queue:
        node = queue.popleft()
        if node is goal:
            path: List[Tuple[CircuitEdge, CircuitNode]] = []
            cur = goal
            while cur is not start:
                edge, prev = came[cur.name]
                path.append((edge, cur))
                cur = prev
            path.reverse()
            return path
        for edge in node.edges:
            if not usable(edge):
                continue
            nxt = edge.other(node)
            if nxt.name in seen:
                continue
            # Never route through the opposite rail.
            if nxt is not goal and (nxt is stage.source or nxt is stage.sink):
                continue
            seen.add(nxt.name)
            came[nxt.name] = (edge, node)
            queue.append(nxt)
    return None


def _node_capacitance(node: CircuitNode, library: TableModelLibrary,
                      stage: LogicStage):
    """Paper Eq. 1: sum of incident-element caps plus the external load.

    Returns ``(fixed, junctions)``: the voltage-independent capacitance
    and the incident diffusion junctions as ``(polarity, params, width)``
    triples.
    """
    tech = library.tech
    fixed = node.load_cap
    junctions: List[Tuple[str, object, float]] = []
    couplings: List[Tuple[str, float]] = []
    for edge in node.edges:
        if edge.kind is DeviceKind.WIRE:
            fixed += 0.5 * wire_capacitance(tech.wire, edge.w, edge.l)
            continue
        params = tech.nmos if edge.kind is DeviceKind.NMOS else tech.pmos
        junctions.append((edge.kind.polarity, params, edge.w))
        # Channel-side half of the gate capacitance (the Miller term's
        # static part), matching the reference engine's cap accounting;
        # the dynamic part (injection from a moving gate) is recorded as
        # a coupling.
        half_gate = 0.5 * params.cox * edge.w * edge.l + params.cov * edge.w
        fixed += half_gate
        couplings.append((edge.gate_input, half_gate))
    return fixed, junctions, couplings


def pull_hops(stage: LogicStage, output: str, direction: str,
              levels: Dict[str, float]
              ) -> List[Tuple[CircuitEdge, CircuitNode]]:
    """The conducting hops from the pulling rail to ``output`` at static
    gate ``levels``, rail side first.

    Raises:
        NoConductingPath: if no conducting path reaches the rail.
    """
    rail = stage.sink if direction == "fall" else stage.source
    hops = conducting_path(stage, rail, stage.node(output),
                           lambda edge: edge.conducts(levels, stage.vdd))
    if hops is None:
        raise NoConductingPath(
            f"no conducting {direction} path from {output!r} to "
            f"{rail.name!r} at the given input levels")
    return hops


def extract_path(stage: LogicStage, output: str, direction: str,
                 input_levels: Dict[str, object],
                 library: TableModelLibrary,
                 t_final: float = 1.0) -> DischargePath:
    """Extract the pull path for one output transition.

    Args:
        stage: the logic stage.
        output: output node name.
        direction: ``"fall"`` (pull-down to ground) or ``"rise"``
            (pull-up to the supply).
        input_levels: gate input name -> final level (Source or float);
            the conduction subgraph is built at these levels.
        library: table-model library for device lookups.
        t_final: probe time for evaluating Source final levels [s].

    Returns:
        The extracted :class:`DischargePath`.

    Raises:
        NoConductingPath: if no conducting path reaches the rail (a
            ``ValueError``).
        ValueError: if ``direction`` is neither ``"fall"`` nor
            ``"rise"``.
    """
    if direction not in ("fall", "rise"):
        raise ValueError("direction must be 'fall' or 'rise'")
    rail = stage.sink if direction == "fall" else stage.source
    levels = {name: _final_level(src, t_final)
              for name, src in input_levels.items()}

    hops = pull_hops(stage, output, direction, levels)

    def usable(edge: CircuitEdge) -> bool:
        return edge.conducts(levels, stage.vdd)

    out_node = stage.node(output)

    # Collapse consecutive wire edges into pi macromodels.
    devices: List[PathDevice] = []
    nodes: List[CircuitNode] = []
    extra_caps: Dict[str, float] = {}
    pending_wires: List[CircuitEdge] = []
    collapsed_edges: set = set()
    tech = library.tech

    def flush_wires(end_node: CircuitNode) -> None:
        if not pending_wires:
            return
        rs = [wire_resistance(tech.wire, e.w, e.l) for e in pending_wires]
        cs = [wire_capacitance(tech.wire, e.w, e.l) for e in pending_wires]
        pi = wire_chain_pi(rs, cs)
        name = "+".join(e.name for e in pending_wires)
        collapsed_edges.update(e.name for e in pending_wires)
        inner_name = nodes[-1].name if nodes else rail.name
        extra_caps[inner_name] = extra_caps.get(inner_name, 0.0) + pi.c_near
        extra_caps[end_node.name] = (extra_caps.get(end_node.name, 0.0)
                                     + pi.c_far)
        devices.append(PathDevice(name=f"pi({name})", kind=DeviceKind.WIRE,
                                  resistance=max(pi.r, 1e-3)))
        nodes.append(end_node)
        pending_wires.clear()

    for edge, nxt in hops:
        if edge.kind is DeviceKind.WIRE:
            pending_wires.append(edge)
            continue
        # A transistor hop: first flush any wire run ending at its inner
        # terminal (the node we are arriving from is already recorded).
        if pending_wires:
            inner = edge.other(nxt)
            flush_wires(inner)
        table = library.get(edge.kind.polarity, edge.l)
        devices.append(PathDevice(name=edge.name, kind=edge.kind,
                                  gate=edge.gate_input, w=edge.w, l=edge.l,
                                  table=table))
        nodes.append(nxt)
    flush_wires(out_node)

    fixed_caps = np.zeros(len(nodes))
    junctions: List[List[Tuple[str, object, float]]] = []
    couplings: List[List[Tuple[str, float]]] = []
    for i, node in enumerate(nodes):
        fixed, node_junctions, node_couplings = _node_capacitance(
            node, library, stage)
        fixed_caps[i] = fixed + extra_caps.get(node.name, 0.0)
        junctions.append(node_junctions)
        couplings.append(node_couplings)

    # Conducting side branches: a node reachable from a path node
    # through *on* off-path devices (e.g. the internal node of a
    # de-selected parallel branch whose series device still conducts)
    # tracks the path node and loads it with its full capacitance.
    path_names = {node.name for node in nodes}
    absorbed = set(path_names) | {stage.source.name, stage.sink.name}
    for i, node in enumerate(nodes):
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for edge in current.edges:
                if not usable(edge):
                    continue
                neighbor = edge.other(current)
                if neighbor.name in absorbed:
                    continue
                absorbed.add(neighbor.name)
                side_fixed, side_junctions, side_couplings = \
                    _node_capacitance(neighbor, library, stage)
                fixed_caps[i] += side_fixed
                junctions[i].extend(side_junctions)
                couplings[i].extend(side_couplings)
                frontier.append(neighbor)
        # Wire caps of collapsed runs live inside the pi end caps, but
        # the accounting above also added the half-caps of incident wire
        # edges belonging to those runs.  Remove the double count.
        for edge in node.edges:
            if (edge.kind is DeviceKind.WIRE
                    and edge.name in collapsed_edges):
                fixed_caps[i] -= 0.5 * wire_capacitance(
                    tech.wire, edge.w, edge.l)

    caps = fixed_caps.copy()
    for i, node_junctions in enumerate(junctions):
        for polarity, params, width in node_junctions:
            caps[i] += equivalent_junction_cap(params, width, 0.0, stage.vdd)

    return DischargePath(stage=stage, output=output, direction=direction,
                         devices=devices, node_names=[n.name for n in nodes],
                         node_caps=caps, vdd=stage.vdd,
                         fixed_caps=fixed_caps, junctions=junctions,
                         gate_couplings=couplings)
