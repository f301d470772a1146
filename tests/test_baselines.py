"""Tests for the related-work baselines."""

import pytest

from repro.analysis import StaticTimingAnalyzer
from repro.baselines import SwitchLevelTimer, effective_resistance
from repro.baselines.sc_iteration import SCOptions, SuccessiveChordsSimulator
from repro.circuit import builders
from repro.devices import TableModelLibrary
from repro.spice import (
    ConstantSource,
    StepSource,
    TransientOptions,
    TransientSimulator,
)


class TestEffectiveResistance:
    def test_plausible_magnitude(self, tech):
        # A 1 um NMOS in a 0.35 um process: a few kilo-ohms.
        r = effective_resistance(tech.nmos, 1e-6, tech.lmin, tech.vdd)
        assert 1e3 < r < 2e4

    def test_scales_inversely_with_width(self, tech):
        r1 = effective_resistance(tech.nmos, 1e-6, tech.lmin, tech.vdd)
        r2 = effective_resistance(tech.nmos, 2e-6, tech.lmin, tech.vdd)
        assert r2 == pytest.approx(r1 / 2.0, rel=1e-9)

    def test_pmos_weaker(self, tech):
        rn = effective_resistance(tech.nmos, 1e-6, tech.lmin, tech.vdd)
        rp = effective_resistance(tech.pmos, 1e-6, tech.lmin, tech.vdd)
        assert rp > rn

    def test_rejects_bad_geometry(self, tech):
        with pytest.raises(ValueError):
            effective_resistance(tech.nmos, 0.0, tech.lmin, tech.vdd)


class TestSwitchLevel:
    def _inputs(self, tech, k):
        inputs = {"g1": StepSource(0, tech.vdd, 0)}
        inputs.update({f"g{j}": ConstantSource(tech.vdd)
                       for j in range(2, k + 1)})
        return inputs

    def test_stack_estimate_in_ballpark(self, tech, library):
        # Switch-level should land within ~2x of the reference engine.
        st = builders.nmos_stack(tech, 4, widths=[1e-6] * 4, load=10e-15)
        inputs = self._inputs(tech, 4)
        est = SwitchLevelTimer(tech, library).estimate(
            st, "out", "fall", inputs)
        sim = TransientSimulator(st, tech, TransientOptions(
            t_stop=500e-12, dt=2e-12))
        res = sim.run(inputs, initial={n.name: tech.vdd
                                       for n in st.internal_nodes})
        ref = res.delay_50("out", tech.vdd)
        assert 0.4 * ref < est.delay < 2.5 * ref

    def test_elmore_grows_quadratically_with_stack(self, tech, library):
        timer = SwitchLevelTimer(tech, library)
        delays = []
        for k in (2, 4, 8):
            st = builders.nmos_stack(tech, k, widths=[1e-6] * k,
                                     load=0.0)
            est = timer.estimate(st, "out", "fall",
                                 self._inputs(tech, k))
            delays.append(est.elmore)
        # Roughly quadratic: doubling K should ~4x the delay (within 2x
        # slack for end effects).
        assert 2.5 < delays[1] / delays[0] < 6.0
        assert 2.5 < delays[2] / delays[1] < 6.0

    def test_path_length_reported(self, tech, library):
        st = builders.nmos_stack(tech, 5, widths=[1e-6] * 5)
        est = SwitchLevelTimer(tech, library).estimate(
            st, "out", "fall", self._inputs(tech, 5))
        assert est.path_length == 5

    def test_bound_arc_characterizes_the_analyzers_library(self, tech):
        # An empty library is falsy (it has a __len__); the bound rung
        # must still fill the analyzer's own library, at its grid.
        library = TableModelLibrary(tech, grid_step=0.3)
        analyzer = StaticTimingAnalyzer(tech, library=library)
        arc = analyzer.stage_arc(builders.inverter(tech), "out", "fall",
                                 "a", clamp="bound")
        assert arc is not None and arc[2] == "bounded"
        assert len(library) > 0
        assert analyzer._ladder._switch_timer.library is library


class TestSuccessiveChords:
    def test_matches_newton_engine_on_inverter(self, tech):
        inv = builders.inverter(tech)
        src = {"a": StepSource(0, tech.vdd, 10e-12)}
        nr = TransientSimulator(inv, tech, TransientOptions(
            t_stop=200e-12, dt=1e-12,
            voltage_dependent_caps=False)).run(src)
        sc = SuccessiveChordsSimulator(inv, tech, SCOptions(
            t_stop=200e-12, dt=1e-12)).run(src)
        d_nr = nr.delay_50("out", tech.vdd, t_input=10e-12)
        d_sc = sc.delay_50("out", tech.vdd, t_input=10e-12)
        assert d_sc == pytest.approx(d_nr, rel=0.08)

    def test_more_iterations_than_newton(self, tech):
        # Linear convergence: SC needs more iterations per step.
        inv = builders.inverter(tech)
        src = {"a": StepSource(0, tech.vdd, 10e-12)}
        nr = TransientSimulator(inv, tech, TransientOptions(
            t_stop=100e-12, dt=1e-12,
            voltage_dependent_caps=False)).run(src)
        sc = SuccessiveChordsSimulator(inv, tech, SCOptions(
            t_stop=100e-12, dt=1e-12)).run(src)
        assert sc.stats.newton_iterations > nr.stats.newton_iterations

    def test_stack_discharge(self, tech):
        st = builders.nmos_stack(tech, 3, widths=[1e-6] * 3, load=10e-15)
        inputs = {"g1": StepSource(0, tech.vdd, 0),
                  "g2": ConstantSource(tech.vdd),
                  "g3": ConstantSource(tech.vdd)}
        sc = SuccessiveChordsSimulator(st, tech, SCOptions(
            t_stop=400e-12, dt=2e-12))
        res = sc.run(inputs, initial={n.name: tech.vdd
                                      for n in st.internal_nodes})
        assert res.final_value("out") < 0.8
        assert res.label == "sc"
