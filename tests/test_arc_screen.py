"""The arc sweep's switch-level screen, and arcs too slow to time.

``repro.resilience.ladder.can_switch`` rules out a side-input
assignment before its DC pre-state and transient are solved.  It may
only rule out what the solved pre-state rejects anyway, so every arc's
(delay, slew) must be the same with the screen and without it.  The
oracle tests check that on every arc and every assignment of a zoo of
stages.
"""

import pytest

from repro.analysis import StaticTimingAnalyzer
from repro.analysis.audit import ArcSample, audit_arc
from repro.analysis.parallel import canonical_stage_form
from repro.circuit import builders, extract_stages
from repro.circuit.netlist import GND_NODE, VDD_NODE
from repro.circuit.stage import FlatNetlist
from repro.cli import main
from repro.core import WaveformEvaluator
from repro.core.path import NoConductingPath
from repro.resilience import ladder
from repro.resilience.ladder import (
    SPICE_SETTLE,
    adaptive_spice_arc,
    can_switch,
    input_edge,
    is_transition,
    qwm_arc,
    sensitizations,
)
from repro.spice.adaptive import AdaptiveOptions, AdaptiveTransientSimulator


def ratioed_pair(tech):
    """An inverter on ``a`` with an extra pull-down on ``b``: with ``b``
    high and ``a`` low the output ``q`` is contested, ratioed high."""
    net = FlatNetlist("pair", vdd=tech.vdd)
    net.add_pmos("p0", gate="a", src=VDD_NODE, snk="q",
                 w=2e-6, l=tech.lmin)
    net.add_nmos("n0", gate="a", src="q", snk=GND_NODE,
                 w=1e-6, l=tech.lmin)
    net.add_nmos("n1", gate="b", src="q", snk=GND_NODE,
                 w=0.5e-6, l=tech.lmin)
    net.mark_output("q")
    return extract_stages(net, tech=tech).stages[0]


def slow_inverters(tech):
    """Two inverters ``a -> q -> z`` with 5 pF on ``q``: the ``q``
    edges take longer than the QWM and SPICE windows to cross
    mid-rail."""
    net = FlatNetlist("slow", vdd=tech.vdd)
    for name, gate, out in (("i1", "a", "q"), ("i2", "q", "z")):
        net.add_pmos(f"{name}p", gate=gate, src=VDD_NODE, snk=out,
                     w=2e-6, l=tech.lmin)
        net.add_nmos(f"{name}n", gate=gate, src=out, snk=GND_NODE,
                     w=1e-6, l=tech.lmin)
    net.set_load("q", 5e-12)
    net.mark_input("a")
    net.mark_output("z")
    return extract_stages(net, tech=tech)


@pytest.fixture(scope="module")
def zoo(tech):
    """Distinct stages: the 2- to 4-bit decoders, Fig. 1, NAND2-4,
    NOR2-3, an inverter, AOI21, OAI21, a Manchester chain, a decoder
    tree and the ratioed pair."""
    stages = []
    seen = set()
    candidates = []
    for bits in (2, 3, 4):
        candidates += extract_stages(
            builders.decoder_netlist(tech, bits=bits), tech=tech).stages
    candidates += extract_stages(builders.pass_transistor_netlist(tech),
                                 tech=tech).stages
    candidates += [builders.nand_gate(tech, n) for n in (2, 3, 4)]
    candidates += [builders.nor_gate(tech, n) for n in (2, 3)]
    candidates += [builders.inverter(tech), builders.aoi21_gate(tech),
                   builders.oai21_gate(tech),
                   builders.manchester_carry_chain(tech),
                   builders.decoder_tree(tech), ratioed_pair(tech)]
    for stage in candidates:
        fingerprint = canonical_stage_form(stage).fingerprint
        if fingerprint not in seen:
            seen.add(fingerprint)
            stages.append(stage)
    return stages


def arcs(stages):
    for stage in stages:
        for node in stage.outputs:
            for direction in ("rise", "fall"):
                for switching_input in stage.inputs:
                    yield stage, node.name, direction, switching_input


class TestCanSwitch:
    def test_nand_rise_held_high_by_a_side_input_is_ruled_out(self, tech):
        nand = builders.nand_gate(tech, 2)
        assert not can_switch(nand, "out", "rise", "a0", {"a1": 0.0})
        assert can_switch(nand, "out", "rise", "a0", {"a1": tech.vdd})
        assert can_switch(nand, "out", "fall", "a0", {"a1": tech.vdd})

    def test_contested_output_stays_a_candidate(self, tech):
        # q is tied to ground through n1 and to the supply through p0;
        # its DC pre-state is ratioed high, so the fall arc is real.
        assert can_switch(ratioed_pair(tech), "q", "fall", "a",
                          {"b": tech.vdd})

    def test_floating_output_stays_a_candidate(self, tech):
        # With the pass gate off, Fig. 1's z reaches neither rail.
        fig1 = extract_stages(builders.pass_transistor_netlist(tech),
                              tech=tech).stage_of_net["z"]
        assert can_switch(fig1, "z", "fall", "a",
                          {"b": tech.vdd, "sel": 0.0})

    def test_output_held_through_a_degrading_device_stays_a_candidate(
            self, tech):
        # z is held high only through the NMOS pass gate: not a
        # full-strength hold, so the solve decides.
        fig1 = extract_stages(builders.pass_transistor_netlist(tech),
                              tech=tech).stage_of_net["z"]
        assert can_switch(fig1, "z", "rise", "b",
                          {"a": 0.0, "sel": tech.vdd})


class TestScreenOracle:
    def test_screen_rules_out_only_what_the_solve_rejects(self, zoo,
                                                           evaluator):
        ruled_out = assignments = 0
        for stage, output, direction, switching_input in arcs(zoo):
            source, _ = input_edge(stage.vdd, direction)
            for levels in sensitizations(stage, switching_input,
                                         direction):
                assignments += 1
                if can_switch(stage, output, direction, switching_input,
                              levels):
                    continue
                ruled_out += 1
                try:
                    solution = evaluator.evaluate(
                        stage, output, direction,
                        ladder._sensitized_inputs(source, switching_input,
                                                  levels),
                        precharge="dc")
                except NoConductingPath:
                    continue
                assert not is_transition(
                    solution.output_waveform.value(0.0), direction,
                    stage.vdd), (stage.name, output, direction,
                                 switching_input, levels)
        assert (len(zoo), assignments, ruled_out) == (18, 3384, 1047)

    def test_qwm_arc_is_bit_equal_without_the_screen(self, zoo, evaluator,
                                                     monkeypatch):
        every = list(arcs(zoo))
        screened = [qwm_arc(evaluator, *arc) for arc in every]
        monkeypatch.setattr(ladder, "can_switch", lambda *args: True)
        unscreened = [qwm_arc(evaluator, *arc) for arc in every]
        assert screened == unscreened
        assert sum(arc is not None for arc in screened) == 117

    @pytest.mark.parametrize("arc_of", [
        lambda tech: (builders.nand_gate(tech, 3), "out", "rise", "a0"),
        lambda tech: (builders.nor_gate(tech, 2), "out", "fall", "a0"),
        lambda tech: (extract_stages(builders.pass_transistor_netlist(tech),
                                     tech=tech).stage_of_net["z"],
                      "z", "rise", "b"),
        lambda tech: (ratioed_pair(tech), "q", "fall", "a"),
    ], ids=["nand3-rise", "nor2-fall", "fig1-z-rise", "ratioed-q-fall"])
    def test_adaptive_spice_arc_agrees(self, tech, library, monkeypatch,
                                       arc_of):
        stage, output, direction, switching_input = arc_of(tech)
        analyzer = StaticTimingAnalyzer(tech, library=library)
        source, _ = input_edge(stage.vdd, direction, t_edge=SPICE_SETTLE)
        pre_state = AdaptiveTransientSimulator(
            stage, tech, AdaptiveOptions(t_stop=SPICE_SETTLE))
        for levels in sensitizations(stage, switching_input, direction):
            if can_switch(stage, output, direction, switching_input,
                          levels):
                continue
            result = pre_state.run(ladder._sensitized_inputs(
                source, switching_input, levels))
            assert not is_transition(float(result.voltages[output][0]),
                                     direction, stage.vdd), levels
        screened = adaptive_spice_arc(analyzer, stage, output, direction,
                                      switching_input)
        monkeypatch.setattr(ladder, "can_switch", lambda *args: True)
        assert screened is not None
        assert screened == adaptive_spice_arc(
            analyzer, stage, output, direction, switching_input)


def test_repro_sta_bits3_solves_ten_assignments(monkeypatch, capsys):
    # The screen rules out the three assignments of each NAND3 rise
    # arc in which a low side input holds the output high.
    calls = []
    original = WaveformEvaluator.evaluate

    def counting(self, *args, **kwargs):
        calls.append(args[0].name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WaveformEvaluator, "evaluate", counting)
    assert main(["sta", "--bits", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 10


class TestSlowStage:
    def test_arcs_that_never_cross_escalate_to_the_bound(self, tech,
                                                         library):
        result = StaticTimingAnalyzer(tech, library=library).analyze(
            slow_inverters(tech))
        assert set(result.arrivals) == {
            (net, edge) for net in ("a", "q", "z")
            for edge in ("rise", "fall")}
        degraded = result.degraded()
        assert set(degraded) == {(net, edge) for net in ("q", "z")
                                 for edge in ("rise", "fall")}
        assert {arrival.quality for arrival in degraded.values()} \
            == {"bounded"}
        assert result.arrivals[("q", "rise")].time > 5e-9

    def test_audit_records_a_slow_reference_as_no_crossing(self, tech,
                                                           library):
        graph = slow_inverters(tech)
        stage = graph.stage_of_net["q"]
        analyzer = StaticTimingAnalyzer(tech, library=library)
        sample = ArcSample(stage=stage.name, output="q", direction="rise",
                           switching_input="a", input_slew=None,
                           fingerprint="x")
        record = audit_arc(analyzer, stage, sample)
        assert record["status"] == "no-crossing"
        assert record["qwm"]["quality"] == "bounded"
        assert record["spice"]["delay"] is None
