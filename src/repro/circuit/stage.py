"""Channel-connected component extraction (logic-stage partitioning).

The paper's introduction: "Circuit partitioning is used so that
differential equation solving is confined within small circuit
partitions, called logic stages.  Typically, a logic stage is a set of
channel-connected transistors and wire segments."  And: "a logic stage
has to be constructed dynamically, depending on how it is connected to
the rest of the circuit" — a cell output feeding a pass transistor's
diffusion merges both cells into one stage (Example 1/2).

:func:`extract_stages` performs that partitioning on a flat transistor
netlist: nets connected through source/drain terminals or wires belong
to one stage; gate terminals are the cut points between stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.circuit.netlist import GND_NODE, VDD_NODE, LogicStage


@dataclass
class FlatTransistor:
    """One transistor of a flat netlist (nets referenced by name)."""

    name: str
    polarity: str
    gate: str
    src: str
    snk: str
    w: float
    l: float

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"{self.name}: polarity must be 'n' or 'p'")


@dataclass
class FlatWire:
    """One wire segment of a flat netlist."""

    name: str
    a: str
    b: str
    w: float
    l: float


class FlatNetlist:
    """A flat transistor-level netlist prior to stage partitioning.

    Args:
        name: design name.
        vdd: supply voltage [V].
    """

    def __init__(self, name: str, vdd: float):
        self.name = name
        self.vdd = vdd
        self.transistors: List[FlatTransistor] = []
        self.wires: List[FlatWire] = []
        self.primary_inputs: Set[str] = set()
        self.primary_outputs: Set[str] = set()
        self.load_caps: Dict[str, float] = {}

    def add_nmos(self, name: str, gate: str, src: str, snk: str,
                 w: float, l: float) -> None:
        self.transistors.append(
            FlatTransistor(name, "n", gate, src, snk, w, l))

    def add_pmos(self, name: str, gate: str, src: str, snk: str,
                 w: float, l: float) -> None:
        self.transistors.append(
            FlatTransistor(name, "p", gate, src, snk, w, l))

    def add_wire(self, name: str, a: str, b: str, w: float, l: float) -> None:
        self.wires.append(FlatWire(name, a, b, w, l))

    def mark_input(self, net: str) -> None:
        self.primary_inputs.add(net)

    def mark_output(self, net: str) -> None:
        self.primary_outputs.add(net)

    def set_load(self, net: str, cap: float) -> None:
        self.load_caps[net] = self.load_caps.get(net, 0.0) + cap

    @property
    def nets(self) -> List[str]:
        """Every net referenced anywhere, in first-use order.

        Insertion-ordered by construction (a dict, not a set) so any
        consumer iterating it — report builders, cache keys — is stable
        without having to remember to sort.
        """
        nets: Dict[str, None] = {}
        for t in self.transistors:
            for net in (t.gate, t.src, t.snk):
                nets.setdefault(net, None)
        for w in self.wires:
            for net in (w.a, w.b):
                nets.setdefault(net, None)
        return list(nets)


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self._parent.setdefault(item, item)
        if parent != item:
            parent = self.find(parent)
            self._parent[item] = parent
        return parent

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


@dataclass
class StageGraph:
    """The stage-level view of a design after partitioning.

    Attributes:
        name: design name.
        stages: extracted logic stages.
        stage_of_net: maps each non-supply channel net to its stage.
        driver_of: maps a net to the stage that produces it (if any).
        fanin: for every stage name, the stages whose outputs drive one
            of its gate inputs, in first-connection order, no repeats.
        fanout: for every stage name, the stages it drives, likewise.
    """

    name: str
    stages: List[LogicStage]
    stage_of_net: Dict[str, LogicStage]
    driver_of: Dict[str, LogicStage] = field(default_factory=dict)
    fanin: Dict[str, List[str]] = field(default_factory=dict)
    fanout: Dict[str, List[str]] = field(default_factory=dict)

    def stage(self, name: str) -> LogicStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def topological_order(self) -> List[LogicStage]:
        """Stages in evaluation order (inputs before consumers).

        Kahn's algorithm by generations.  The first generation is every
        stage without fan-in, in stage order.  Each generation is
        scanned in order, each stage's fan-out in order, and a stage
        joins the next generation when its last fan-in is consumed.
        In-process dispatch follows this order, so it decides which of
        two isomorphic stages is solved first and where an
        ``nth``-armed fault lands.

        Raises:
            ValueError: on a combinational loop; the message names the
                stages left with unresolved fan-in, in stage order.
        """
        pending = {name: len(preds) for name, preds in self.fanin.items()
                   if preds}
        generation = [s.name for s in self.stages
                      if not self.fanin[s.name]]
        order: List[str] = []
        while generation:
            order.extend(generation)
            ready: List[str] = []
            for name in generation:
                for successor in self.fanout[name]:
                    pending[successor] -= 1
                    if not pending[successor]:
                        del pending[successor]
                        ready.append(successor)
            generation = ready
        if pending:
            stuck = [s.name for s in self.stages if s.name in pending]
            raise ValueError(
                f"combinational loop: stages {', '.join(stuck)} are "
                "left with unresolved fan-in")
        by_name = {s.name: s for s in self.stages}
        return [by_name[n] for n in order]


def extract_stages(netlist: FlatNetlist,
                   tech=None) -> StageGraph:
    """Partition a flat netlist into channel-connected logic stages.

    Nets are merged when connected through transistor source/drain
    terminals or through wire segments; the supply nets never merge
    components (they touch every stage).  Each component becomes a
    :class:`LogicStage`; its inputs are the gate nets of its transistors,
    its outputs the nets that drive other stages' gates or are marked as
    primary outputs.

    Args:
        netlist: the flat design.
        tech: optional :class:`~repro.devices.technology.Technology`;
            when given, each stage output's load capacitance includes
            the gate capacitance of every consumer transistor (the
            inter-stage loading a timing run needs).
    """
    supply = {VDD_NODE, GND_NODE}
    uf = _UnionFind()
    for t in netlist.transistors:
        if t.src not in supply and t.snk not in supply:
            uf.union(t.src, t.snk)
        else:
            # Still register the non-supply terminal as a component seed.
            for net in (t.src, t.snk):
                if net not in supply:
                    uf.find(net)
    for w in netlist.wires:
        if w.a in supply or w.b in supply:
            raise ValueError(
                f"wire {w.name!r} touches a supply net; model supply "
                "routing as load capacitance instead")
        uf.union(w.a, w.b)

    # Group devices by the component of their channel nets.
    def component_of(*nets: str) -> Optional[str]:
        for net in nets:
            if net not in supply:
                return uf.find(net)
        return None

    members: Dict[str, Dict[str, list]] = {}
    for t in netlist.transistors:
        comp = component_of(t.src, t.snk)
        if comp is None:
            raise ValueError(
                f"transistor {t.name!r} connects supply to supply")
        members.setdefault(comp, {"t": [], "w": []})["t"].append(t)
    for w in netlist.wires:
        comp = component_of(w.a, w.b)
        members.setdefault(comp, {"t": [], "w": []})["w"].append(w)

    stages: List[LogicStage] = []
    stage_of_net: Dict[str, LogicStage] = {}
    for index, comp in enumerate(sorted(members)):
        stage = LogicStage(name=f"{netlist.name}.stage{index}",
                           vdd=netlist.vdd)
        for t in members[comp]["t"]:
            adder = stage.add_nmos if t.polarity == "n" else stage.add_pmos
            adder(t.name, src=t.src, snk=t.snk, gate=t.gate, w=t.w, l=t.l)
        for w in members[comp]["w"]:
            stage.add_wire(w.name, src=w.a, snk=w.b, w=w.w, l=w.l)
        for node in stage.internal_nodes:
            stage_of_net[node.name] = stage
            if node.name in netlist.load_caps:
                node.load_cap += netlist.load_caps[node.name]
        stages.append(stage)

    # Wire up outputs and the stage-level fan-in / fan-out.
    gate_uses: Dict[str, List[LogicStage]] = {}
    for stage in stages:
        for input_net in stage.inputs:
            gate_uses.setdefault(input_net, []).append(stage)

    driver_of: Dict[str, LogicStage] = {}
    fanin: Dict[str, List[str]] = {stage.name: [] for stage in stages}
    fanout: Dict[str, List[str]] = {stage.name: [] for stage in stages}
    for net, stage in stage_of_net.items():
        drives = gate_uses.get(net, [])
        is_primary_out = net in netlist.primary_outputs
        if drives or is_primary_out:
            stage.mark_output(net)
            driver_of[net] = stage
        for consumer in drives:
            if consumer is not stage \
                    and consumer.name not in fanout[stage.name]:
                fanout[stage.name].append(consumer.name)
                fanin[consumer.name].append(stage.name)
        if tech is not None and drives:
            # Inter-stage loading: consumer gate caps load this output.
            from repro.devices.capacitance import gate_capacitance

            extra = 0.0
            for consumer in drives:
                for edge in consumer.edges_with_gate(net):
                    params = (tech.nmos if edge.kind.polarity == "n"
                              else tech.pmos)
                    extra += gate_capacitance(params, edge.w, edge.l)
            stage.node(net).load_cap += extra

    return StageGraph(name=netlist.name, stages=stages,
                      stage_of_net=stage_of_net, driver_of=driver_of,
                      fanin=fanin, fanout=fanout)
