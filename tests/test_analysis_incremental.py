"""Tests for incremental STA and sizing sensitivity."""

import pytest

from repro.analysis import (
    IncrementalTimer,
    SizingSensitivity,
    clone_stage,
)
from repro.circuit import builders, extract_stages
from repro.circuit.netlist import GND_NODE, VDD_NODE
from repro.circuit.stage import FlatNetlist
from repro.core import WaveformEvaluator
from repro.resilience import faults
from repro.spice import ConstantSource, StepSource


def _inverter_chain(tech, stages=4):
    net = FlatNetlist("chain", vdd=tech.vdd)
    prev = "a"
    for i in range(stages):
        out = f"n{i}" if i < stages - 1 else "y"
        net.add_pmos(f"p{i}", gate=prev, src=VDD_NODE, snk=out,
                     w=2e-6, l=tech.lmin)
        net.add_nmos(f"m{i}", gate=prev, src=out, snk=GND_NODE,
                     w=1e-6, l=tech.lmin)
        prev = out
    net.mark_input("a")
    net.mark_output("y")
    net.set_load("y", 5e-15)
    return extract_stages(net, tech=tech)


class TestIncrementalTimer:
    @pytest.fixture
    def timer(self, tech, library):
        return IncrementalTimer(tech, _inverter_chain(tech),
                                library=library)

    def test_first_pass_shares_isomorphic_stages(self, timer):
        result = timer.analyze()
        assert result.worst is not None
        # The first three inverters drive equal gate loads, so they
        # share one canonical form: only the first and the last stage
        # solve their two arcs.
        stats = timer.last_stats
        assert (stats.arcs_evaluated, stats.arcs_cached) == (4, 4)

    def test_cached_arcs_keep_their_quality_tag(self, timer):
        driver = timer.graph.stage_of_net["y"].name
        plan = faults.FaultPlan((faults.FaultSpec(
            "newton_nonconverge", stage=driver, rungs=("qwm",)),))
        with faults.installed(plan):
            first = timer.analyze()
        assert first.arrival("y", "fall").quality == "qwm-retry"
        second = timer.analyze()
        # ArrivalTime equality: the retry tag survives the cache.
        assert second.arrivals == first.arrivals
        assert second.degraded()
        stats = timer.last_stats
        assert (stats.arcs_evaluated, stats.arcs_cached) == (0, 8)

    def test_repeat_pass_is_fully_cached(self, timer):
        first = timer.analyze()
        second = timer.analyze()
        assert timer.last_stats.arcs_evaluated == 0
        assert timer.last_stats.arcs_cached > 0
        assert second.worst.time == pytest.approx(first.worst.time)

    def test_resize_invalidates_locally(self, timer):
        timer.analyze()
        total = timer.last_stats.total
        # Resize a device in the LAST stage of the 4-inverter chain.
        graph = timer.graph
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 2e-6)
        timer.analyze()
        # Dirty: the resized stage + its upstream driver (load change);
        # the first two stages of the chain stay cached.
        assert timer.last_stats.arcs_evaluated < total
        assert timer.last_stats.arcs_cached > 0

    def test_resize_changes_worst_arrival(self, timer):
        before = timer.analyze().worst.time
        graph = timer.graph
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 4e-6)
        after = timer.analyze().worst.time
        assert after != pytest.approx(before, rel=1e-3)

    def test_incremental_matches_full_reanalysis(self, tech, library,
                                                 timer):
        timer.analyze()
        graph = timer.graph
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 3e-6)
        incremental = timer.analyze()
        fresh = IncrementalTimer(tech, graph, library=library).analyze()
        assert incremental.worst.time == pytest.approx(fresh.worst.time,
                                                       rel=1e-9)

    def test_set_load_dirties_driver(self, timer):
        timer.analyze()
        timer.set_load("y", 20e-15)
        timer.analyze()
        assert timer.last_stats.arcs_evaluated > 0

    def test_set_load_unknown_net_rejected(self, timer):
        with pytest.raises(KeyError):
            timer.set_load("ghost", 1e-15)

    def test_resize_validation(self, timer):
        graph = timer.graph
        last = graph.stage_of_net["y"]
        with pytest.raises(ValueError):
            timer.resize_transistor(last.name, "m3", -1.0)


class TestDecoderEco:
    """Edits on the 3-bit decoder, re-timed against one stage cache."""

    @staticmethod
    def _decoder(tech):
        return extract_stages(builders.decoder_netlist(tech, bits=3),
                              tech=tech)

    @staticmethod
    def _edits(graph):
        """Forward edits then their inverses, as (method, args)."""
        stage_of = {edge.name: stage for stage in graph.stages
                    for edge in stage.edges}
        forward, inverse = [], []
        for device, factor in (("MN5_0", 1.3), ("MPW2", 0.8)):
            stage = stage_of[device]
            width = stage.edge(device).w
            forward.append(("resize_transistor",
                            (stage.name, device, factor * width)))
            inverse.append(("resize_transistor",
                            (stage.name, device, width)))
        load = graph.stage_of_net["w6"].node("w6").load_cap
        forward.append(("set_load", ("w6", 2.0 * load)))
        inverse.append(("set_load", ("w6", load)))
        return forward, inverse[::-1]

    def test_edits_match_fresh_timer_bit_for_bit(self, tech, library):
        timer = IncrementalTimer(tech, self._decoder(tech),
                                 library=library)
        initial = timer.analyze().arrivals
        forward, inverse = self._edits(timer.graph)
        for method, args in forward:
            getattr(timer, method)(*args)
        edited = timer.analyze().arrivals
        # Re-solved: the resized NAND (6 arcs), the resized driver (2)
        # and the NAND it loads (6), and the driver of w6 (2).
        stats = timer.last_stats
        assert (stats.arcs_evaluated, stats.arcs_cached) == (16, 54)

        fresh = IncrementalTimer(tech, self._decoder(tech),
                                 library=library)
        for method, args in self._edits(fresh.graph)[0]:
            getattr(fresh, method)(*args)
        assert edited == fresh.analyze().arrivals
        assert edited != initial

        for method, args in inverse:
            getattr(timer, method)(*args)
        assert timer.analyze().arrivals == initial
        stats = timer.last_stats
        assert (stats.arcs_evaluated, stats.arcs_cached) == (0, 70)


class TestCloneStage:
    def test_clone_is_independent(self, tech):
        stage = builders.nand_gate(tech, 2)
        copy = clone_stage(stage, {"MN0": 5e-6})
        assert copy.edge("MN0").w == pytest.approx(5e-6)
        assert stage.edge("MN0").w != pytest.approx(5e-6)
        assert copy.node("out").load_cap == stage.node("out").load_cap
        assert [n.name for n in copy.outputs] == ["out"]

    def test_unknown_device_rejected(self, tech):
        with pytest.raises(KeyError):
            clone_stage(builders.inverter(tech), {"ghost": 1e-6})


class TestSensitivity:
    @pytest.fixture(scope="class")
    def sens(self, tech, library):
        return SizingSensitivity(WaveformEvaluator(tech, library=library))

    def _inputs(self, tech, k):
        inputs = {"g1": StepSource(0, tech.vdd, 0)}
        inputs.update({f"g{j}": ConstantSource(tech.vdd)
                       for j in range(2, k + 1)})
        return inputs

    def test_upsizing_path_device_helps(self, tech, sens):
        st = builders.nmos_stack(tech, 3, widths=[1e-6] * 3,
                                 load=10e-15)
        result = sens.device(st, "M1", "out", "fall",
                             self._inputs(tech, 3))
        assert result.sensitivity < 0  # wider -> faster
        assert result.nominal_delay > 0

    def test_bottom_device_most_sensitive(self, tech, sens):
        st = builders.nmos_stack(tech, 4, widths=[1e-6] * 4,
                                 load=10e-15)
        results = sens.all_path_devices(st, "out", "fall",
                                        self._inputs(tech, 4))
        by_name = {r.device: abs(r.normalized) for r in results}
        assert by_name["M1"] == max(by_name.values())

    def test_non_transistor_rejected(self, tech, sens):
        stage = builders.decoder_tree(tech, levels=1)
        with pytest.raises(ValueError):
            sens.device(stage, "W1", "t1", "fall", {
                "phi": ConstantSource(tech.vdd),
                "A0": ConstantSource(tech.vdd),
                "A0b": ConstantSource(0.0)})

    def test_rel_step_validated(self, tech, library):
        with pytest.raises(ValueError):
            SizingSensitivity(WaveformEvaluator(tech, library=library),
                              rel_step=0.9)
