"""Tests for the logic-stage graph model (paper Definition 1)."""

import pytest

from repro.circuit import DeviceKind, LogicStage
from repro.circuit.netlist import GND_NODE, VDD_NODE


@pytest.fixture
def stage():
    return LogicStage("test", vdd=3.3)


class TestConstruction:
    def test_poles_exist(self, stage):
        assert stage.source.name == VDD_NODE
        assert stage.sink.name == GND_NODE

    def test_rejects_nonpositive_vdd(self):
        with pytest.raises(ValueError):
            LogicStage("bad", vdd=0.0)

    def test_add_nmos_creates_nodes(self, stage):
        edge = stage.add_nmos("M1", src="a", snk=GND_NODE, gate="in",
                              w=1e-6, l=0.35e-6)
        assert edge.kind is DeviceKind.NMOS
        assert stage.node("a") is edge.src
        assert edge in stage.node("a").outgoing
        assert edge in stage.sink.incoming

    def test_duplicate_edge_name_rejected(self, stage):
        stage.add_nmos("M1", "a", GND_NODE, "x", 1e-6, 1e-6)
        with pytest.raises(ValueError):
            stage.add_nmos("M1", "b", GND_NODE, "x", 1e-6, 1e-6)

    def test_transistor_requires_gate(self, stage):
        with pytest.raises(ValueError):
            stage._add_edge("M1", DeviceKind.NMOS, "a", "b", 1e-6, 1e-6,
                            None)

    def test_wire_cannot_have_gate(self, stage):
        with pytest.raises(ValueError):
            stage._add_edge("W1", DeviceKind.WIRE, "a", "b", 1e-6, 1e-6,
                            "x")

    def test_self_loop_rejected(self, stage):
        with pytest.raises(ValueError):
            stage.add_wire("W1", "a", "a", 1e-6, 1e-6)

    def test_nonpositive_geometry_rejected(self, stage):
        with pytest.raises(ValueError):
            stage.add_nmos("M1", "a", "b", "x", 0.0, 1e-6)

    def test_load_accumulates(self, stage):
        stage.add_node("n", load_cap=1e-15)
        stage.add_node("n", load_cap=2e-15)
        assert stage.node("n").load_cap == pytest.approx(3e-15)

    def test_set_load_replaces(self, stage):
        stage.add_node("n", load_cap=1e-15)
        stage.set_load("n", 5e-15)
        assert stage.node("n").load_cap == pytest.approx(5e-15)

    def test_negative_load_rejected(self, stage):
        stage.add_node("n")
        with pytest.raises(ValueError):
            stage.set_load("n", -1.0)


class TestQueries:
    @pytest.fixture
    def inv(self, stage):
        stage.add_pmos("MP", VDD_NODE, "out", "a", 2e-6, 0.35e-6)
        stage.add_nmos("MN", "out", GND_NODE, "a", 1e-6, 0.35e-6)
        stage.mark_output("out")
        return stage

    def test_inputs_deduplicated(self, inv):
        assert inv.inputs == ["a"]

    def test_outputs(self, inv):
        assert [n.name for n in inv.outputs] == ["out"]

    def test_internal_nodes_exclude_poles(self, inv):
        assert [n.name for n in inv.internal_nodes] == ["out"]

    def test_transistors_and_wires(self, inv):
        inv.add_wire("W", "out", "far", 1e-6, 1e-5)
        assert len(inv.transistors) == 2
        assert len(inv.wires) == 1

    def test_edges_with_gate(self, inv):
        assert {e.name for e in inv.edges_with_gate("a")} == {"MP", "MN"}

    def test_edge_other(self, inv):
        edge = inv.edge("MN")
        assert edge.other(inv.node("out")) is inv.sink
        with pytest.raises(ValueError):
            edge.other(inv.source)

    def test_iteration(self, inv):
        assert {e.name for e in inv} == {"MP", "MN"}

    def test_node_degree_and_other_edges(self, inv):
        out = inv.node("out")
        assert out.degree == 2
        mn = inv.edge("MN")
        assert inv.edge("MP") in out.other_edges(mn)
        assert mn not in out.other_edges(mn)
