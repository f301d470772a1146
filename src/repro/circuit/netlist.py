"""Logic-stage graph model (paper Definition 1).

A :class:`LogicStage` is a polar directed graph: nodes are circuit nodes
(the supply ``VDD`` is the polar source, ground ``GND`` the polar sink),
edges are circuit elements characterized by geometry, transistor edges
carry a gate input signal, and a subset of nodes are stage outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

from repro.circuit.elements import DeviceKind

#: Reserved node names for the polar source and sink.
VDD_NODE = "VDD"
GND_NODE = "GND"


@dataclass
class CircuitNode:
    """A circuit node.

    Attributes:
        name: unique node name within the stage.
        incoming: edges whose ``snk`` is this node.
        outgoing: edges whose ``src`` is this node.
        load_cap: lumped external load capacitance to ground [F]
            (``C_L`` in the paper's waveform-evaluation problem).
        is_output: True if the node is a stage output.
    """

    name: str
    incoming: List["CircuitEdge"] = field(default_factory=list)
    outgoing: List["CircuitEdge"] = field(default_factory=list)
    load_cap: float = 0.0
    is_output: bool = False

    @property
    def edges(self) -> List["CircuitEdge"]:
        """All incident edges."""
        return self.incoming + self.outgoing

    @property
    def degree(self) -> int:
        return len(self.incoming) + len(self.outgoing)

    def other_edges(self, edge: "CircuitEdge") -> List["CircuitEdge"]:
        """Incident edges excluding ``edge``."""
        return [e for e in self.edges if e is not edge]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitNode({self.name!r}, degree={self.degree})"


@dataclass
class CircuitEdge:
    """A circuit element: NMOS, PMOS or wire segment.

    Attributes:
        name: unique element name within the stage.
        kind: element type.
        src: source-side node (paper convention: the node nearer the
            polar source for pull-up elements; purely structural).
        snk: sink-side node.
        w: width [m].
        l: length [m] (channel length for transistors, wire length for
            wires).
        gate_input: gate input-signal name (transistors only).
    """

    name: str
    kind: DeviceKind
    src: CircuitNode
    snk: CircuitNode
    w: float
    l: float
    gate_input: Optional[str] = None

    def other(self, node: CircuitNode) -> CircuitNode:
        """The terminal opposite ``node``."""
        if node is self.src:
            return self.snk
        if node is self.snk:
            return self.src
        raise ValueError(f"node {node.name!r} is not a terminal of {self.name!r}")

    def conducts(self, levels: Mapping[str, float], vdd: float) -> bool:
        """Switch-level conduction at static gate ``levels`` [V].

        The one conduction rule of the package: a wire always conducts,
        an NMOS with its gate above mid-rail, a PMOS with its gate
        below.  A transistor whose gate has no level is off.
        """
        if self.kind is DeviceKind.WIRE:
            return True
        gate_v = levels.get(self.gate_input) if self.gate_input else None
        if gate_v is None:
            return False
        if self.kind is DeviceKind.NMOS:
            return gate_v > 0.5 * vdd
        return gate_v < 0.5 * vdd

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        gate = f", gate={self.gate_input!r}" if self.gate_input else ""
        return (f"CircuitEdge({self.name!r}, {self.kind.value}, "
                f"{self.src.name}->{self.snk.name}{gate})")


class LogicStage:
    """A CMOS logic stage: polar directed graph ``(N, E, s, t, I, O)``.

    Args:
        name: stage name.
        vdd: supply voltage of the stage [V].

    The polar source (``VDD``) and sink (``GND``) nodes are created
    automatically.
    """

    def __init__(self, name: str, vdd: float):
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        self.name = name
        self.vdd = vdd
        self._nodes: Dict[str, CircuitNode] = {}
        self._edges: Dict[str, CircuitEdge] = {}
        self.source = self.add_node(VDD_NODE)
        self.sink = self.add_node(GND_NODE)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, load_cap: float = 0.0) -> CircuitNode:
        """Add (or fetch) a node by name."""
        if name in self._nodes:
            node = self._nodes[name]
            node.load_cap += load_cap
            return node
        node = CircuitNode(name=name, load_cap=load_cap)
        self._nodes[name] = node
        return node

    def _add_edge(self, name: str, kind: DeviceKind, src: str, snk: str,
                  w: float, l: float,
                  gate_input: Optional[str]) -> CircuitEdge:
        if name in self._edges:
            raise ValueError(f"duplicate edge name {name!r}")
        if w <= 0 or l <= 0:
            raise ValueError(f"edge {name!r}: geometry must be positive")
        if kind.is_transistor and not gate_input:
            raise ValueError(f"transistor {name!r} needs a gate input")
        if not kind.is_transistor and gate_input:
            raise ValueError(f"wire {name!r} cannot have a gate input")
        src_node = self.add_node(src)
        snk_node = self.add_node(snk)
        if src_node is snk_node:
            raise ValueError(f"edge {name!r} is a self-loop on {src!r}")
        edge = CircuitEdge(name=name, kind=kind, src=src_node, snk=snk_node,
                           w=w, l=l, gate_input=gate_input)
        src_node.outgoing.append(edge)
        snk_node.incoming.append(edge)
        self._edges[name] = edge
        return edge

    def add_nmos(self, name: str, src: str, snk: str, gate: str,
                 w: float, l: float) -> CircuitEdge:
        """Add an NMOS transistor between nodes ``src`` and ``snk``."""
        return self._add_edge(name, DeviceKind.NMOS, src, snk, w, l, gate)

    def add_pmos(self, name: str, src: str, snk: str, gate: str,
                 w: float, l: float) -> CircuitEdge:
        """Add a PMOS transistor between nodes ``src`` and ``snk``."""
        return self._add_edge(name, DeviceKind.PMOS, src, snk, w, l, gate)

    def add_wire(self, name: str, src: str, snk: str,
                 w: float, l: float) -> CircuitEdge:
        """Add a wire segment between nodes ``src`` and ``snk``."""
        return self._add_edge(name, DeviceKind.WIRE, src, snk, w, l, None)

    def mark_output(self, node_name: str) -> CircuitNode:
        """Designate a node as a stage output."""
        node = self.node(node_name)
        node.is_output = True
        return node

    def set_load(self, node_name: str, cap: float) -> None:
        """Set the external load capacitance of a node [F]."""
        if cap < 0:
            raise ValueError("load capacitance must be non-negative")
        self.node(node_name).load_cap = cap

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, name: str) -> CircuitNode:
        """Fetch a node by name (KeyError if absent)."""
        return self._nodes[name]

    def edge(self, name: str) -> CircuitEdge:
        """Fetch an edge by name (KeyError if absent)."""
        return self._edges[name]

    @property
    def nodes(self) -> List[CircuitNode]:
        """All nodes, including the polar source and sink."""
        return list(self._nodes.values())

    @property
    def internal_nodes(self) -> List[CircuitNode]:
        """Nodes excluding the polar source and sink."""
        return [n for n in self._nodes.values()
                if n is not self.source and n is not self.sink]

    @property
    def edges(self) -> List[CircuitEdge]:
        return list(self._edges.values())

    @property
    def transistors(self) -> List[CircuitEdge]:
        return [e for e in self._edges.values() if e.kind.is_transistor]

    @property
    def wires(self) -> List[CircuitEdge]:
        return [e for e in self._edges.values()
                if e.kind is DeviceKind.WIRE]

    @property
    def inputs(self) -> List[str]:
        """Distinct gate input-signal names, in first-use order."""
        seen: Dict[str, None] = {}
        for edge in self._edges.values():
            if edge.gate_input is not None:
                seen.setdefault(edge.gate_input, None)
        return list(seen)

    @property
    def outputs(self) -> List[CircuitNode]:
        return [n for n in self._nodes.values() if n.is_output]

    def edges_with_gate(self, input_name: str) -> List[CircuitEdge]:
        """All transistors driven by a given input signal."""
        return [e for e in self._edges.values()
                if e.gate_input == input_name]

    def __iter__(self) -> Iterator[CircuitEdge]:
        return iter(self._edges.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LogicStage({self.name!r}, nodes={len(self._nodes)}, "
                f"edges={len(self._edges)}, inputs={self.inputs}, "
                f"outputs={[n.name for n in self.outputs]})")
