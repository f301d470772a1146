"""Tests for channel-connected stage extraction."""

import pytest

from repro.circuit import FlatNetlist, builders, extract_stages
from repro.circuit.netlist import GND_NODE, VDD_NODE


def _inverter_netlist(tech, name="inv", inp="a", out="y"):
    net = FlatNetlist(name, vdd=tech.vdd)
    net.add_pmos(f"{name}_p", gate=inp, src=VDD_NODE, snk=out,
                 w=2e-6, l=tech.lmin)
    net.add_nmos(f"{name}_n", gate=inp, src=out, snk=GND_NODE,
                 w=1e-6, l=tech.lmin)
    net.mark_input(inp)
    net.mark_output(out)
    return net


class TestSingleStage:
    def test_inverter_is_one_stage(self, tech):
        graph = extract_stages(_inverter_netlist(tech))
        assert len(graph.stages) == 1
        stage = graph.stages[0]
        assert len(stage.transistors) == 2
        assert [n.name for n in stage.outputs] == ["y"]

    def test_load_caps_transferred(self, tech):
        net = _inverter_netlist(tech)
        net.set_load("y", 7e-15)
        graph = extract_stages(net)
        assert graph.stages[0].node("y").load_cap == pytest.approx(7e-15)


class TestChain:
    def test_two_inverters_two_stages(self, tech):
        net = FlatNetlist("chain", vdd=tech.vdd)
        net.add_pmos("p1", "a", VDD_NODE, "m", 2e-6, tech.lmin)
        net.add_nmos("n1", "a", "m", GND_NODE, 1e-6, tech.lmin)
        net.add_pmos("p2", "m", VDD_NODE, "y", 2e-6, tech.lmin)
        net.add_nmos("n2", "m", "y", GND_NODE, 1e-6, tech.lmin)
        net.mark_input("a")
        net.mark_output("y")
        graph = extract_stages(net)
        assert len(graph.stages) == 2
        # m drives a gate -> it is an output of its stage.
        driver = graph.driver_of["m"]
        assert "m" in [n.name for n in driver.outputs]
        order = [s.name for s in graph.topological_order()]
        assert order.index(driver.name) < order.index(
            graph.stage_of_net["y"].name)

    def test_graph_edges(self, tech):
        net = FlatNetlist("chain", vdd=tech.vdd)
        net.add_nmos("n1", "a", "m", GND_NODE, 1e-6, tech.lmin)
        net.add_pmos("p1", "a", VDD_NODE, "m", 1e-6, tech.lmin)
        net.add_nmos("n2", "m", "y", GND_NODE, 1e-6, tech.lmin)
        net.add_pmos("p2", "m", VDD_NODE, "y", 1e-6, tech.lmin)
        net.mark_output("y")
        graph = extract_stages(net)
        assert sum(len(drives) for drives in graph.fanout.values()) == 1


def _inverter(net, name, inp, out, tech):
    net.add_pmos(f"{name}p", inp, VDD_NODE, out, 2e-6, tech.lmin)
    net.add_nmos(f"{name}n", inp, out, GND_NODE, 1e-6, tech.lmin)


class TestTopologicalOrder:
    """The order serial dispatch follows, pinned to literals.

    Both literals were recorded from ``networkx.topological_sort`` before
    the stage graph dropped networkx: the dispatch order decides which of
    two isomorphic stages is solved first and where an ``nth``-armed
    fault lands, so it must not drift.
    """

    def test_later_index_in_earlier_generation(self, tech):
        # Stage indices follow sorted component names, not logic depth:
        # the inverter driving "z" is stage4 but has no fan-in, so it
        # joins the first generation ahead of stage1 and stage2.
        net = FlatNetlist("gen", vdd=tech.vdd)
        _inverter(net, "A", "a", "z", tech)
        _inverter(net, "B", "c", "d", tech)
        _inverter(net, "C", "z", "m", tech)
        net.add_pmos("Dp1", "m", VDD_NODE, "q", 2e-6, tech.lmin)
        net.add_pmos("Dp2", "d", VDD_NODE, "q", 2e-6, tech.lmin)
        net.add_nmos("Dn1", "m", "q", "qx", 1e-6, tech.lmin)
        net.add_nmos("Dn2", "d", "qx", GND_NODE, 1e-6, tech.lmin)
        _inverter(net, "E", "d", "e", tech)
        for pin in ("a", "c"):
            net.mark_input(pin)
        for pin in ("q", "e"):
            net.mark_output(pin)
        graph = extract_stages(net, tech=tech)
        assert graph.stage_of_net["z"].name == "gen.stage4"
        assert graph.fanout == {
            "gen.stage0": ["gen.stage1", "gen.stage3"],
            "gen.stage1": [],
            "gen.stage2": ["gen.stage3"],
            "gen.stage3": [],
            "gen.stage4": ["gen.stage2"],
        }
        assert graph.fanin["gen.stage3"] == ["gen.stage0", "gen.stage2"]
        assert [s.name for s in graph.topological_order()] == [
            "gen.stage0", "gen.stage4", "gen.stage1", "gen.stage2",
            "gen.stage3"]

    def test_decoder3_order(self, tech):
        graph = extract_stages(builders.decoder_netlist(tech, bits=3),
                               tech=tech)
        expected = [0, 1, 2, 10, 9, 7, 8, 3, 4, 5, 6,
                    18, 17, 15, 16, 11, 12, 13, 14]
        assert [s.name for s in graph.topological_order()] == [
            f"decoder3.stage{i}" for i in expected]

    def test_ring_raises_naming_the_loop(self, tech):
        net = FlatNetlist("ring", vdd=tech.vdd)
        for k in range(3):
            _inverter(net, f"x{k}", f"x{k}", f"x{(k + 1) % 3}", tech)
        net.mark_output("x0")
        graph = extract_stages(net)
        with pytest.raises(ValueError, match="combinational loop") as info:
            graph.topological_order()
        assert "ring.stage0, ring.stage1, ring.stage2" in str(info.value)


class TestPassTransistorMerge:
    def test_fig1_merges_nand_wire_pass(self, tech):
        net = builders.pass_transistor_netlist(tech)
        graph = extract_stages(net)
        assert len(graph.stages) == 2
        big = max(graph.stages, key=lambda s: len(s.transistors))
        # NAND (4 devices) + pass transistor, joined through the wire.
        assert len(big.transistors) == 5
        assert len(big.wires) == 1
        assert "z" in [n.name for n in big.outputs]

    def test_pass_gate_net_still_cuts(self, tech):
        # sel drives only a gate: it must NOT merge stages.
        net = builders.pass_transistor_netlist(tech)
        graph = extract_stages(net)
        assert "sel" not in graph.stage_of_net


class TestErrors:
    def test_wire_to_supply_rejected(self, tech):
        net = FlatNetlist("bad", vdd=tech.vdd)
        net.add_wire("w", VDD_NODE, "x", 1e-6, 1e-6)
        net.add_nmos("n", "g", "x", GND_NODE, 1e-6, tech.lmin)
        with pytest.raises(ValueError):
            extract_stages(net)

    def test_supply_to_supply_transistor_rejected(self, tech):
        net = FlatNetlist("bad", vdd=tech.vdd)
        net.add_nmos("n", "g", VDD_NODE, GND_NODE, 1e-6, tech.lmin)
        with pytest.raises(ValueError):
            extract_stages(net)


class TestNets:
    def test_nets_collects_everything(self, tech):
        net = builders.pass_transistor_netlist(tech)
        nets = net.nets
        for expected in ("a", "b", "sel", "x", "y", "z", "out",
                         VDD_NODE, GND_NODE):
            assert expected in nets
