"""Tests for the analysis layer: delay metrics, accuracy, STA."""

import numpy as np
import pytest

from repro.analysis import (
    AccuracyReport,
    StaticTimingAnalyzer,
    accuracy_percent,
    measure_delay,
    measure_slew,
)
from repro.analysis.accuracy import compare_delays, waveform_rms_error
from repro.circuit import builders, extract_stages
from repro.core import PiecewiseQuadraticWaveform, QuadraticPiece
from repro.spice import StepSource, TransientResult


@pytest.fixture
def linear_fall():
    # 3.3 V falling at 33 V/ns from t = 0.
    return PiecewiseQuadraticWaveform([
        QuadraticPiece(0.0, 100e-12, 3.3, -3.3 / 100e-12, 0.0)])


@pytest.fixture
def linear_result():
    t = np.linspace(0.0, 100e-12, 101)
    return TransientResult(times=t,
                           voltages={"out": 3.3 * (1 - t / 100e-12)})


class TestMeasureDelay:
    def test_on_piecewise_waveform(self, linear_fall):
        m = measure_delay(linear_fall, vdd=3.3, direction="fall")
        assert m.delay == pytest.approx(50e-12, rel=1e-9)

    def test_on_transient_result(self, linear_result):
        m = measure_delay(linear_result, vdd=3.3, direction="fall",
                          node="out")
        assert m.delay == pytest.approx(50e-12, rel=1e-6)

    def test_t_input_offset(self, linear_fall):
        m = measure_delay(linear_fall, vdd=3.3, direction="fall",
                          t_input=10e-12)
        assert m.delay == pytest.approx(40e-12, rel=1e-9)

    def test_custom_fraction(self, linear_fall):
        m = measure_delay(linear_fall, vdd=3.3, direction="fall",
                          fraction=0.1)
        assert m.delay == pytest.approx(90e-12, rel=1e-9)

    def test_missing_crossing_returns_none(self, linear_fall):
        # Crossing before t_input is filtered out.
        assert measure_delay(linear_fall, vdd=3.3, direction="fall",
                             t_input=90e-12) is None

    def test_node_required_for_transient(self, linear_result):
        with pytest.raises(ValueError):
            measure_delay(linear_result, vdd=3.3, direction="fall")


class TestMeasureSlew:
    def test_linear_fall_slew(self, linear_fall):
        s = measure_slew(linear_fall, vdd=3.3, direction="fall")
        assert s == pytest.approx(80e-12, rel=1e-9)

    def test_transient_slew(self, linear_result):
        s = measure_slew(linear_result, vdd=3.3, direction="fall",
                         node="out")
        assert s == pytest.approx(80e-12, rel=1e-6)


class TestAccuracy:
    def test_compare_delays(self):
        outcome = compare_delays(1.1e-10, 1.0e-10)
        assert outcome.ok and outcome.status == "ok"
        assert outcome.error_percent == pytest.approx(10.0)
        assert compare_delays(0.9e-10, 1.0e-10).error_percent \
            == pytest.approx(10.0)

    def test_compare_degrades_on_odd_inputs(self):
        missing = compare_delays(None, 1.0)
        assert not missing.ok
        assert missing.status == "no-crossing"
        assert missing.error_percent is None
        zero = compare_delays(1.0, 0.0)
        assert zero.status == "zero-reference"
        assert zero.error_percent is None

    def test_accuracy_percent(self):
        assert accuracy_percent(1.01e-10, 1.0e-10) == pytest.approx(99.0)

    def test_report_aggregates(self):
        report = AccuracyReport.from_errors([1.0, 2.0, 3.0])
        assert report.average_error_percent == pytest.approx(2.0)
        assert report.worst_error_percent == pytest.approx(3.0)
        assert report.accuracy_percent == pytest.approx(98.0)

    def test_report_rejects_empty(self):
        with pytest.raises(ValueError):
            AccuracyReport.from_errors([])

    def test_waveform_rms(self, linear_fall, linear_result):
        rms = waveform_rms_error(linear_fall, linear_result, "out")
        assert rms == pytest.approx(0.0, abs=1e-9)
        rms_rel = waveform_rms_error(linear_fall, linear_result, "out",
                                     normalize=3.3)
        assert rms_rel == pytest.approx(0.0, abs=1e-9)


class TestSta:
    @pytest.fixture(scope="class")
    def fig1_graph(self, tech):
        return extract_stages(builders.pass_transistor_netlist(tech))

    def test_arrivals_cover_outputs(self, tech, library, fig1_graph):
        sta = StaticTimingAnalyzer(tech, library=library)
        result = sta.analyze(fig1_graph)
        assert result.worst is not None
        assert result.worst.time > 0
        assert result.arrival("z", "fall") is not None

    def test_critical_path_starts_at_primary_input(self, tech, library,
                                                   fig1_graph):
        sta = StaticTimingAnalyzer(tech, library=library)
        result = sta.analyze(fig1_graph)
        first_net = result.critical_path[0][0]
        assert first_net in {"a", "b", "sel"}
        # Path alternates directions through inverting stages.
        assert result.critical_path[-1] == (result.worst.net,
                                            result.worst.direction)

    def test_input_arrival_offsets_shift_worst(self, tech, library,
                                               fig1_graph):
        sta = StaticTimingAnalyzer(tech, library=library)
        base = sta.analyze(fig1_graph)
        cause_net, cause_dir = base.critical_path[0]
        shifted = sta.analyze(fig1_graph, input_arrivals={
            (cause_net, cause_dir): 100e-12})
        assert shifted.worst.time >= base.worst.time + 50e-12

    def test_stage_delay_positive(self, tech, library):
        sta = StaticTimingAnalyzer(tech, library=library)
        nd = builders.nand_gate(tech, 2)
        arc = sta.stage_arc(nd, "out", "fall", "a0")
        assert arc is not None and arc[0] > 0

    def test_unsensitizable_arc_returns_none(self, tech, library):
        sta = StaticTimingAnalyzer(tech, library=library)
        st = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        # A pure NMOS stack cannot pull its output up.
        assert sta.stage_arc(st, "out", "rise", "g1") is None
