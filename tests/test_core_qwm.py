"""Tests for the QWM scheduler and public evaluator."""

import itertools
import math

import numpy as np
import pytest

from repro.circuit import builders
from repro.core import QWMOptions, QWMSolver, WaveformEvaluator, extract_path
from repro.spice import ConstantSource, StepSource
from repro.spice.sources import as_source


def _stack_inputs(tech, k, t0=0.0):
    inputs = {"g1": StepSource(0.0, tech.vdd, t0)}
    inputs.update({f"g{j}": ConstantSource(tech.vdd)
                   for j in range(2, k + 1)})
    return inputs


class TestScheduler:
    def test_stack_critical_points_ordered(self, tech, evaluator):
        st = builders.nmos_stack(tech, 5, widths=[1e-6] * 5, load=10e-15)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 5))
        times = sol.critical_times
        assert times == sorted(times)
        assert len(times) >= 5

    def test_stack_cascade_monotone_nodes(self, tech, evaluator):
        st = builders.nmos_stack(tech, 4, widths=[1e-6] * 4, load=10e-15)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 4))
        # Each node ends below where it started and the 50% crossings
        # are ordered bottom-up (the Fig. 7 cascade).
        crossings = []
        for name in ("n1", "n2", "n3", "out"):
            wave = sol.waveforms[name]
            assert wave.final_value() < 1.0
            crossings.append(wave.crossing_time(0.5 * tech.vdd))
        assert all(c is not None for c in crossings)
        assert crossings == sorted(crossings)

    def test_number_of_solves_scales_with_k(self, tech, evaluator):
        # "complexity equivalent to only K DC operating point
        # calculations": regions grow linearly, not with 1/dt.
        st3 = builders.nmos_stack(tech, 3, widths=[1e-6] * 3)
        st8 = builders.nmos_stack(tech, 8, widths=[1e-6] * 8)
        s3 = evaluator.evaluate(st3, "out", "fall", _stack_inputs(tech, 3))
        s8 = evaluator.evaluate(st8, "out", "fall", _stack_inputs(tech, 8))
        assert s8.stats.steps > s3.stats.steps
        assert s8.stats.steps < 60  # small multiple of K, never 1/dt

    def test_delayed_step_shifts_schedule(self, tech, evaluator):
        st = builders.nmos_stack(tech, 3, widths=[1e-6] * 3)
        sol0 = evaluator.evaluate(st, "out", "fall",
                                  _stack_inputs(tech, 3, t0=0.0))
        sol50 = evaluator.evaluate(st, "out", "fall",
                                   _stack_inputs(tech, 3, t0=50e-12))
        d0 = sol0.delay(t_input=0.0)
        d50 = sol50.delay(t_input=50e-12)
        assert d50 == pytest.approx(d0, rel=1e-6)

    def test_output_never_rises_during_fall(self, tech, evaluator):
        st = builders.nmos_stack(tech, 4, widths=[1e-6] * 4, load=10e-15)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 4))
        t = np.linspace(0.0, sol.critical_times[-1], 200)
        v = sol.output_waveform.sample(t)
        assert np.all(np.diff(v) < 1e-3)

    def test_missing_input_rejected(self, tech, library):
        st = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        sources = {"g1": as_source(StepSource(0, tech.vdd, 0)),
                   "g2": as_source(ConstantSource(tech.vdd))}
        path = extract_path(st, "out", "fall", sources, library)
        solver = QWMSolver(path)
        with pytest.raises(ValueError, match="missing source"):
            solver.solve({"g1": StepSource(0, tech.vdd, 0)},
                         {"n1": tech.vdd, "out": tech.vdd})

    def test_never_activating_input_gives_flat_output(self, tech,
                                                      library):
        # Extract with conducting levels, then drive with a source that
        # never turns the bottom device on: the schedule must bail out
        # at activation and leave the output untouched.
        st = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        extract_sources = {"g1": as_source(ConstantSource(tech.vdd)),
                           "g2": as_source(ConstantSource(tech.vdd))}
        path = extract_path(st, "out", "fall", extract_sources, library)
        solver = QWMSolver(path, QWMOptions(t_stop=200e-12))
        sol = solver.solve({"g1": ConstantSource(0.0),
                            "g2": ConstantSource(tech.vdd)},
                           {"n1": tech.vdd, "out": tech.vdd})
        assert sol.output_waveform.final_value() == pytest.approx(
            tech.vdd, abs=1e-6)

    def test_stats_populated(self, tech, evaluator):
        st = builders.nmos_stack(tech, 3, widths=[1e-6] * 3)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 3))
        assert sol.stats.steps > 0
        assert sol.stats.newton_iterations >= sol.stats.steps
        assert sol.stats.device_evaluations > 0
        assert sol.stats.wall_time > 0


class TestSolutionApi:
    def test_to_transient_result_default_breakpoints(self, tech,
                                                     evaluator):
        st = builders.nmos_stack(tech, 3, widths=[1e-6] * 3)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 3))
        res = sol.to_transient_result()
        assert res.label == "qwm"
        assert set(res.node_names) == {"n1", "n2", "out"}
        assert res.times.shape == res.voltage("out").shape

    def test_to_transient_result_custom_times(self, tech, evaluator):
        st = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 2))
        t = np.linspace(0.0, 300e-12, 31)
        res = sol.to_transient_result(t)
        assert res.times.shape == (31,)

    def test_delay_fraction(self, tech, evaluator):
        st = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 2))
        d90 = sol.delay(fraction=0.9)
        d10 = sol.delay(fraction=0.1)
        assert d90 < sol.delay() < d10


class TestEvaluatorApi:
    def test_rise_direction(self, tech, evaluator):
        inv = builders.inverter(tech)
        sol = evaluator.evaluate(inv, "out", "rise",
                                 {"a": StepSource(tech.vdd, 0.0, 0.0)})
        wave = sol.output_waveform
        # The falling gate step couples the output below ground first
        # (Miller kick; no junction diodes in the model), then the PMOS
        # pulls it to the rail.
        assert -1.5 < wave.value(0.0) < 0.1
        assert wave.final_value() > 0.9 * tech.vdd

    def test_degraded_precharge_levels(self, tech, evaluator):
        nd = builders.nand_gate(tech, 3)
        inputs = {"a0": StepSource(0, tech.vdd, 0),
                  "a1": ConstantSource(tech.vdd),
                  "a2": ConstantSource(tech.vdd)}
        path = evaluator.extract(nd, "out", "fall", inputs)
        init = evaluator.default_initial(path, "degraded")
        assert init["out"] == pytest.approx(tech.vdd)
        # Internal nodes one body-affected threshold down, consistent
        # with the fixed point u = vdd - vth(u).
        assert 2.0 < init["n1"] < 2.5

    def test_explicit_initial_overrides(self, tech, evaluator):
        # Step at 20 ps so t=0 shows the unkicked initial condition.
        st = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        sol = evaluator.evaluate(st, "out", "fall",
                                 _stack_inputs(tech, 2, t0=20e-12),
                                 initial={"n1": 2.0})
        assert sol.waveforms["n1"].value(0.0) == pytest.approx(2.0)

    def test_invalid_precharge_rejected(self, tech, evaluator):
        st = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        path = evaluator.extract(st, "out", "fall",
                                 _stack_inputs(tech, 2))
        with pytest.raises(ValueError):
            evaluator.default_initial(path, "mystery")

    def test_delay_helper(self, tech, evaluator):
        inv = builders.inverter(tech)
        d = evaluator.delay(inv, "out", "fall",
                            {"a": StepSource(0, tech.vdd, 0)})
        assert 5e-12 < d < 200e-12

    def test_substeps_option_increases_regions(self, tech, library):
        st = builders.nmos_stack(tech, 5, widths=[1e-6] * 5)
        e1 = WaveformEvaluator(tech, library=library,
                               options=QWMOptions(cascade_substeps=1))
        e3 = WaveformEvaluator(tech, library=library,
                               options=QWMOptions(cascade_substeps=3))
        s1 = e1.evaluate(st, "out", "fall", _stack_inputs(tech, 5))
        s3 = e3.evaluate(st, "out", "fall", _stack_inputs(tech, 5))
        assert s3.stats.steps > s1.stats.steps
        # And the answers agree to a few percent.
        assert s3.delay() == pytest.approx(s1.delay(), rel=0.05)


def test_scalar_clip_matches_np_clip():
    """``qwm._clip`` stands in for scalar ``np.clip`` in the initial
    guess: the same value, zero sign included, for NaNs, infinities,
    zeros and ``lo > hi``."""
    from repro.core.qwm import _clip

    def bits(x):
        return "nan" if math.isnan(x) else (x, math.copysign(1.0, x))

    # A value equal to a bound is kept, zero sign included.
    assert bits(_clip(-0.0, 0.0, 1.0)) == bits(-0.0)
    assert bits(_clip(0.0, -1.0, -0.0)) == bits(0.0)
    values = (-1.0, -0.0, 0.0, 0.5, 2.0, math.inf, -math.inf, math.nan)
    for x, lo, hi in itertools.product(values, repeat=3):
        assert bits(_clip(x, lo, hi)) == bits(float(np.clip(x, lo, hi))), (
            x, lo, hi)
