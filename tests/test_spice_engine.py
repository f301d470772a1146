"""Tests for the SPICE-like engine: MNA assembly, DC, transient."""

import itertools

import numpy as np
import pytest

from repro.circuit import LogicStage, builders, extract_stages
from repro.circuit.netlist import GND_NODE, VDD_NODE
from repro.spice import (
    ConstantSource,
    StageEquations,
    StepSource,
    TransientOptions,
    TransientSimulator,
    logic_initial_condition,
    solve_dc,
)


class TestStageEquations:
    def test_residual_zero_at_consistent_state(self, tech):
        # Inverter with input low: out at vdd carries no channel current
        # beyond leakage.
        inv = builders.inverter(tech)
        eq = StageEquations(inv, tech)
        f, _ = eq.static_residual(np.array([tech.vdd]), {"a": 0.0})
        assert abs(f[0]) < 1e-6

    def test_jacobian_matches_fd(self, tech):
        nd = builders.nand_gate(tech, 3)
        eq = StageEquations(nd, tech)
        gates = {"a0": 1.8, "a1": 2.5, "a2": 3.0}
        v = np.array([1.0, 2.0, 0.7])
        f0, jac = eq.static_residual(v, gates)
        h = 1e-7
        for j in range(3):
            vp = v.copy()
            vp[j] += h
            fp, _ = eq.static_residual(vp, gates)
            fd_col = (fp - f0) / h
            np.testing.assert_allclose(jac[:, j], fd_col, rtol=1e-3,
                                       atol=1e-9)

    def test_gmin_adds_diagonal(self, tech):
        inv = builders.inverter(tech)
        eq = StageEquations(inv, tech)
        _, j0 = eq.static_residual(np.array([1.0]), {"a": 1.0}, gmin=0.0)
        _, j1 = eq.static_residual(np.array([1.0]), {"a": 1.0}, gmin=1e-3)
        assert j1[0, 0] == pytest.approx(j0[0, 0] + 1e-3)

    def test_node_capacitance_positive(self, tech):
        nd = builders.nand_gate(tech, 2)
        eq = StageEquations(nd, tech)
        caps = eq.node_capacitances(np.array([1.0, 2.0]))
        assert np.all(caps > 0)

    def test_voltage_dependent_caps_shrink_with_bias(self, tech):
        # An NMOS-only node: junction caps shrink monotonically as the
        # node voltage (reverse bias) grows.
        st = builders.nmos_stack(tech, 2, widths=[1e-6, 1e-6])
        eq = StageEquations(st, tech, voltage_dependent_caps=True)
        idx = eq.node_index("n1")
        c_low = eq.node_capacitances(np.array([0.0, 0.0]))[idx]
        c_high = eq.node_capacitances(np.array([3.3, 3.3]))[idx]
        assert c_high < c_low

    def test_wire_stamped_as_pi(self, tech):
        s = LogicStage("rc", tech.vdd)
        s.add_nmos("MN", "a", GND_NODE, "g", 1e-6, tech.lmin)
        s.add_wire("W", "a", "b", 1e-6, 100e-6)
        s.mark_output("b")
        eq = StageEquations(s, tech)
        f, jac = eq.static_residual(np.array([1.0, 0.0]), {"g": 0.0})
        # Wire current flows a -> b.
        from repro.devices.capacitance import wire_resistance

        g = 1.0 / wire_resistance(tech.wire, 1e-6, 100e-6)
        assert f[eq.node_index("b")] == pytest.approx(-g * 1.0)


class TestDC:
    def test_inverter_vtc_endpoints(self, tech):
        inv = builders.inverter(tech)
        eq = StageEquations(inv, tech)
        v_low_in = solve_dc(eq, {"a": 0.0})
        assert v_low_in[eq.node_index("out")] == pytest.approx(tech.vdd,
                                                               abs=0.01)
        v_high_in = solve_dc(eq, {"a": tech.vdd})
        assert v_high_in[eq.node_index("out")] == pytest.approx(0.0,
                                                                abs=0.01)

    def test_inverter_switching_region(self, tech):
        inv = builders.inverter(tech)
        eq = StageEquations(inv, tech)
        v = solve_dc(eq, {"a": 1.4})
        assert 0.2 < v[eq.node_index("out")] < tech.vdd - 0.2

    def test_nand_internal_node_degraded_level(self, tech):
        nd = builders.nand_gate(tech, 2)
        eq = StageEquations(nd, tech)
        v = solve_dc(eq, {"a0": 0.0, "a1": tech.vdd})
        out = v[eq.node_index("out")]
        n1 = v[eq.node_index("n1")]
        assert out == pytest.approx(tech.vdd, abs=0.01)
        # Internal node floats one threshold (or leakage balance) below.
        assert 1.5 < n1 < tech.vdd

    @pytest.mark.parametrize("highs", list(itertools.product(
        (False, True), repeat=3)))
    def test_nand3_pre_states_do_not_stall(self, tech, highs):
        """The STA pre-state solve of a decoder NAND3, all 8 assignments.

        With a0b or a1b alone low, the gmin ladder's Newton steps on
        the threshold-degraded stack nodes run to about -8 V.  Clipping
        each component to the step limit turned them into a uniform
        shift that raised the residual, and Newton crept a few mV per
        iteration (486 and 738 residual evaluations).  Scaling the
        whole step keeps the Newton direction: at most 37.
        """
        graph = extract_stages(builders.decoder_netlist(tech, bits=3),
                               tech=tech)
        stage = next(s for s in graph.stages
                     if s.name == "decoder3.stage3")
        levels = {name: tech.vdd if high else 0.0
                  for name, high in zip(stage.inputs, highs)}
        eq = StageEquations(stage, tech)
        seed = logic_initial_condition(stage, levels)
        guess = np.array([seed[name] for name in eq.node_names])
        evaluations = []
        static_residual = eq.static_residual

        def counted(*args, **kwargs):
            evaluations.append(1)
            return static_residual(*args, **kwargs)

        eq.static_residual = counted
        v = solve_dc(eq, levels, initial_guess=guess)
        assert len(evaluations) <= 50
        residual, _ = static_residual(v, levels, gmin=1e-12)
        assert float(np.max(np.abs(residual))) < 1e-12


class TestLogicInitialCondition:
    def test_inverter_levels(self, tech):
        inv = builders.inverter(tech)
        est = logic_initial_condition(inv, {"a": 0.0})
        assert est["out"] > tech.vdd - 1.3
        est2 = logic_initial_condition(inv, {"a": tech.vdd})
        assert est2["out"] == pytest.approx(0.0)

    def test_floating_gets_default(self, tech):
        st = builders.nmos_stack(tech, 2, widths=[1e-6, 1e-6])
        est = logic_initial_condition(st, {"g1": 0.0, "g2": 0.0},
                                      default=1.1)
        assert est["n1"] == pytest.approx(1.1)
        assert est["out"] == pytest.approx(1.1)


class TestTransient:
    def test_rc_discharge_matches_analytic(self, tech):
        # A wire-only RC from a held node: build NMOS switch fully on
        # with long channel to act as a resistor is messy; instead use
        # the engine on an inverter with a strong step and compare decay
        # monotonicity + endpoint.
        inv = builders.inverter(tech, load=20e-15)
        sim = TransientSimulator(
            inv, tech, TransientOptions(t_stop=300e-12, dt=2e-12))
        res = sim.run({"a": StepSource(0.0, tech.vdd, 20e-12)})
        out = res.voltage("out")
        assert out[0] == pytest.approx(tech.vdd, abs=0.02)
        assert res.final_value("out") < 0.2
        # After the Miller bump settles the waveform is monotone down.
        tail = out[res.times > 40e-12]
        assert np.all(np.diff(tail) < 1e-3)

    def test_trap_close_to_be_at_small_step(self, tech):
        inv = builders.inverter(tech)
        src = {"a": StepSource(0.0, tech.vdd, 10e-12)}
        be = TransientSimulator(inv, tech, TransientOptions(
            t_stop=150e-12, dt=1e-12, method="be")).run(src)
        trap = TransientSimulator(inv, tech, TransientOptions(
            t_stop=150e-12, dt=1e-12, method="trap")).run(src)
        d_be = be.delay_50("out", tech.vdd, t_input=10e-12)
        d_trap = trap.delay_50("out", tech.vdd, t_input=10e-12)
        assert d_trap == pytest.approx(d_be, rel=0.05)

    def test_missing_source_rejected(self, tech):
        nd = builders.nand_gate(tech, 2)
        sim = TransientSimulator(nd, tech)
        with pytest.raises(ValueError, match="missing input"):
            sim.run({"a0": 0.0})

    def test_explicit_initial_condition_respected(self, tech):
        st = builders.nmos_stack(tech, 3, widths=[1e-6] * 3)
        sim = TransientSimulator(st, tech, TransientOptions(
            t_stop=20e-12, dt=1e-12))
        res = sim.run({"g1": 0.0, "g2": 0.0, "g3": 0.0},
                      initial={"n1": 2.0, "n2": 2.5, "out": 3.3})
        assert res.voltage("n1")[0] == pytest.approx(2.0)
        # With all gates off, nothing moves.
        assert res.voltage("n1")[-1] == pytest.approx(2.0, abs=0.05)

    def test_stats_populated(self, tech):
        inv = builders.inverter(tech)
        sim = TransientSimulator(inv, tech, TransientOptions(
            t_stop=50e-12, dt=1e-12))
        res = sim.run({"a": StepSource(0, tech.vdd, 5e-12)})
        assert res.stats.steps == 50
        assert res.stats.newton_iterations > 0
        assert res.stats.device_evaluations > 0
        assert res.stats.wall_time > 0

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            TransientOptions(t_stop=-1.0)
        with pytest.raises(ValueError):
            TransientOptions(method="rk4")

    def test_stack_cascade_order(self, tech):
        # The Fig. 7 mechanism: lower nodes cross thresholds first.
        st = builders.nmos_stack(tech, 4, widths=[1e-6] * 4, load=10e-15)
        inputs = {"g1": StepSource(0, tech.vdd, 0)}
        inputs.update({f"g{k}": ConstantSource(tech.vdd)
                       for k in range(2, 5)})
        sim = TransientSimulator(st, tech, TransientOptions(
            t_stop=400e-12, dt=2e-12))
        res = sim.run(inputs, initial={n.name: tech.vdd
                                       for n in st.internal_nodes})
        crossings = [res.crossing_time(name, 0.5 * tech.vdd, "fall")
                     for name in ("n1", "n2", "n3", "out")]
        assert all(c is not None for c in crossings)
        assert crossings == sorted(crossings)


class TestPseudoTransientDC:
    def test_matches_plain_newton_on_inverter(self, tech):
        from repro.spice.dc import pseudo_transient_dc

        inv = builders.inverter(tech)
        eq = StageEquations(inv, tech)
        levels = {"a": 0.0}
        plain = solve_dc(eq, levels)
        ptc = pseudo_transient_dc(eq, levels,
                                  np.full(eq.n, 0.5 * tech.vdd))
        np.testing.assert_allclose(ptc, plain, atol=5e-3)

    @staticmethod
    def _pass_gate_dc(tech, plan):
        """DC of paper Fig. 1's merged stage at a floating pass-net
        bias, under ``plan``; returns the KCL residual norm."""
        from repro.circuit.builders import pass_transistor_netlist
        from repro.circuit.stage import extract_stages
        from repro.resilience import faults

        graph = extract_stages(pass_transistor_netlist(tech), tech=tech)
        stage = graph.stage_of_net["z"]
        eq = StageEquations(stage, tech)
        levels = {"a": 0.0, "b": tech.vdd, "sel": tech.vdd}
        with faults.installed(plan):
            v = solve_dc(eq, levels)
        residual, _ = eq.static_residual(v, levels)
        return float(np.max(np.abs(residual)))

    def test_settles_hard_pass_gate_bias(self, tech):
        from repro.resilience import faults

        assert self._pass_gate_dc(tech, faults.FaultPlan()) < 1e-6

    def test_ptc_fallback_settles_hard_pass_gate_bias(self, tech):
        # A forced Newton failure on the first gmin rung hands the same
        # bias to the PTC fallback, which must satisfy KCL too.
        from repro.resilience import faults

        plan = faults.FaultPlan(
            (faults.FaultSpec("newton_nonconverge", nth=1),))
        assert self._pass_gate_dc(tech, plan) < 1e-6
        assert plan.fired() == 1


class TestMultiLengthDevices:
    def test_qwm_on_long_channel_stack(self, tech, library):
        # A stack with non-minimum channel length characterizes its own
        # table through the library and still matches the reference.
        from repro.circuit.netlist import GND_NODE
        from repro.circuit import LogicStage
        from repro.core import WaveformEvaluator
        from repro.spice import ConstantSource as CS, StepSource as SS

        long_l = 2.0 * tech.lmin
        stage = LogicStage("longL", vdd=tech.vdd)
        stage.add_nmos("M2", src="out", snk="n1", gate="g2",
                       w=2e-6, l=long_l)
        stage.add_nmos("M1", src="n1", snk=GND_NODE, gate="g1",
                       w=2e-6, l=long_l)
        stage.mark_output("out")
        stage.set_load("out", 10e-15)
        inputs = {"g1": SS(0, tech.vdd, 20e-12), "g2": CS(tech.vdd)}
        evaluator = WaveformEvaluator(tech, library=library)
        sol = evaluator.evaluate(stage, "out", "fall", inputs)
        d_q = sol.delay(t_input=20e-12)

        sim = TransientSimulator(stage, tech, TransientOptions(
            t_stop=500e-12, dt=1e-12))
        res = sim.run(inputs, initial={"n1": tech.vdd,
                                       "out": tech.vdd})
        d_s = res.delay_50("out", tech.vdd, t_input=20e-12)
        assert abs(d_q - d_s) / d_s < 0.07
        # The library now caches a second NMOS length.
        assert ("n", round(long_l, 12)) in library._cache
