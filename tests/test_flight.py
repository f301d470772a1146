"""Flight recorder: ledger, debug bundles, deterministic replay, reports."""

import copy
import importlib
import math

import numpy as np
import pytest

from repro.circuit import builders
from repro.core import WaveformEvaluator
from repro.core.qwm import QWMOptions
from repro.linalg.newton import FAILURE_REASONS, NewtonOptions
from repro.obs import (
    FlightConfig,
    FlightRecorder,
    configure_flight,
    disable_flight,
    flight,
    render_report,
    summarize_ledger,
)
from repro.obs import bundles as fb
from repro.spice import ConstantSource, PWLSource, RampSource, StepSource

# ``repro.obs.flight`` the attribute is the accessor function; the
# module holds the constants the cap tests patch.
flight_mod = importlib.import_module("repro.obs.flight")


@pytest.fixture(autouse=True)
def clean_flight():
    """Every test starts and ends with the disabled default recorder."""
    disable_flight()
    yield
    disable_flight()


def nand_inputs(tech, n):
    """Worst-case NAND stimulus: bottom input steps, rest held high."""
    inputs = {"a0": StepSource(0.0, tech.vdd, 0.0)}
    inputs.update({f"a{i}": ConstantSource(tech.vdd)
                   for i in range(1, n)})
    return inputs


# ----------------------------------------------------------------------
# Recorder mechanics
# ----------------------------------------------------------------------
class TestRecorder:
    def test_disabled_by_default(self):
        assert not flight().enabled

    def test_config_validation(self):
        with pytest.raises(ValueError, match="event_limit"):
            FlightConfig(event_limit=0)
        # None means unbounded, explicitly legal.
        FlightConfig(event_limit=None)

    def test_event_limit_drops_and_counts(self):
        rec = FlightRecorder(FlightConfig(enabled=True, event_limit=3))
        for i in range(5):
            rec.record("x", value=i)
        stats = rec.stats()
        assert stats["recorded"] == 3
        assert stats["dropped"] == 2
        assert rec.to_json()["dropped"] == 2

    def test_context_frames_merge_and_unwind(self):
        rec = FlightRecorder(FlightConfig(enabled=True))
        with rec.context(stage="s1", output="out"):
            with rec.context(arc_input="a0"):
                sid = rec.begin_solve(direction="fall")
            assert rec.current_context() == {"stage": "s1",
                                             "output": "out"}
        assert rec.current_context() == {}
        (begin,) = [e for e in rec.events() if e.kind == "solve_begin"]
        assert begin.solve_id == sid
        assert begin.data["stage"] == "s1"
        assert begin.data["arc_input"] == "a0"
        assert begin.data["direction"] == "fall"

    def test_force_capture_consumed_once(self):
        rec = FlightRecorder(FlightConfig(enabled=True))
        rec.force_capture("golden_band_violation")
        assert rec.consume_force_capture() == "golden_band_violation"
        assert rec.consume_force_capture() is None

    def test_solve_failure_stash_consumed_once(self):
        rec = FlightRecorder(FlightConfig(enabled=True))
        rec.note_solve_failure(7, {"active": 1, "tau": 0.0})
        failure = rec.take_solve_failure()
        assert failure["solve_id"] == 7
        assert failure["active"] == 1
        assert rec.take_solve_failure() is None

    def test_arc_provenance_half_open_range(self):
        rec = FlightRecorder(FlightConfig(enabled=True))
        first = rec.next_solve_id()
        rec.begin_solve()
        rec.begin_solve()
        rec.note_arc_result("fp/arc", first, rec.next_solve_id())
        rec.note_cache_hit("fp/arc")
        rec.note_cache_hit("fp/arc")
        prov = rec.provenance()["fp/arc"]
        assert prov["solve_ids"] == [1, 2]
        assert prov["hits"] == 2
        (hit, _) = [e for e in rec.events() if e.kind == "cache_hit"]
        assert hit.data["origin_solve_ids"] == [1, 2]

    def test_bundle_slot_budget(self, monkeypatch):
        monkeypatch.setattr(flight_mod, "MAX_BUNDLES", 2)
        rec = FlightRecorder(FlightConfig(enabled=True))
        assert rec.claim_bundle_slot()
        assert rec.claim_bundle_slot()
        assert not rec.claim_bundle_slot()
        assert rec.stats()["bundles"] == 2


# ----------------------------------------------------------------------
# Ledger capture on a real solve + report aggregation
# ----------------------------------------------------------------------
class TestLedgerAndReport:
    def test_solve_records_full_lifecycle(self, tech, library):
        rec = configure_flight(FlightConfig(enabled=True))
        stage = builders.nand_gate(tech, 2)
        evaluator = WaveformEvaluator(tech, library=library)
        evaluator.evaluate(stage, "out", "fall", nand_inputs(tech, 2))
        kinds = {e.kind for e in rec.events()}
        assert {"solve_begin", "newton", "region_solved",
                "solve_end"} <= kinds
        (begin,) = [e for e in rec.events() if e.kind == "solve_begin"]
        assert begin.data["stage"] == "nand2"
        assert begin.data["direction"] == "fall"
        newtons = [e for e in rec.events() if e.kind == "newton"]
        # Every newton event carries the exact region-start state a
        # replay needs, plus the full iteration trajectory.
        for event in newtons:
            for key in ("u", "i", "caps", "guess", "trajectory",
                        "outcome", "tau", "active", "order"):
                assert key in event.data
        converged = [e for e in newtons
                     if e.data["outcome"] == "converged"]
        assert converged
        entry = converged[0].data["trajectory"][0]
        assert set(entry) == {"iteration", "residual_norm",
                              "step_norm", "shrink"}

    def test_summary_and_report_render(self, tech, library):
        rec = configure_flight(FlightConfig(enabled=True))
        stage = builders.nand_gate(tech, 2)
        evaluator = WaveformEvaluator(tech, library=library)
        evaluator.evaluate(stage, "out", "fall", nand_inputs(tech, 2))
        summary = summarize_ledger(rec)
        assert summary["solves"] == 1
        assert summary["regions_solved"] > 0
        assert summary["regions_failed"] == 0
        assert summary["iteration_distribution"]["mean"] > 0
        assert summary["worst_regions"]
        text = render_report(summary)
        for section in ("fallback histogram", "newton iterations",
                        "worst regions", "cache attribution"):
            assert section in text

    def test_disabled_recorder_stays_empty(self, tech, library):
        stage = builders.nand_gate(tech, 2)
        evaluator = WaveformEvaluator(tech, library=library)
        evaluator.evaluate(stage, "out", "fall", nand_inputs(tech, 2))
        assert flight().events() == []
        assert flight().stats()["solves"] == 0


# ----------------------------------------------------------------------
# Bundle serialization round-trips
# ----------------------------------------------------------------------
class TestBundleSerialization:
    def test_stage_round_trip(self, tech):
        stage = builders.aoi21_gate(tech)
        rebuilt = fb.stage_from_json(fb.stage_to_json(stage))
        assert rebuilt.name == stage.name
        assert rebuilt.vdd == stage.vdd
        assert {n.name for n in rebuilt.outputs} == \
            {n.name for n in stage.outputs}
        assert len(rebuilt.edges) == len(stage.edges)
        by_name = {e.name: e for e in rebuilt.edges}
        for edge in stage.edges:
            twin = by_name[edge.name]
            assert twin.kind == edge.kind
            assert twin.w == edge.w and twin.l == edge.l
            assert twin.gate_input == edge.gate_input
        for node in stage.nodes:
            twin = rebuilt.node(node.name)
            assert twin.load_cap == node.load_cap

    @pytest.mark.parametrize("source", [
        ConstantSource(3.3),
        StepSource(0.0, 3.3, 2e-11),
        RampSource(3.3, 0.0, 1e-11, 4e-11),
        PWLSource([(0.0, 0.0), (1e-11, 3.3), (5e-11, 1.1)]),
    ])
    def test_source_round_trip(self, source):
        rebuilt = fb.source_from_json(fb.source_to_json(source))
        assert type(rebuilt) is type(source)
        for t in (0.0, 7e-12, 3e-11, 1e-10):
            assert rebuilt.value(t) == source.value(t)

    def test_options_round_trip(self):
        options = QWMOptions(
            newton=NewtonOptions(max_iterations=17, abstol=1e-9),
            max_retries=2)
        rebuilt = fb.options_from_json(fb.options_to_json(options))
        assert rebuilt == options

    def test_tech_round_trip(self, tech):
        rebuilt = fb.tech_from_json(fb.tech_to_json(tech))
        assert rebuilt == tech

    def test_grid_round_trip_rebuilds_derived_planes(self, library):
        grid = library.get("n").grid
        rebuilt = fb.grid_from_json(fb.grid_to_json(grid))
        np.testing.assert_array_equal(rebuilt.vs_values, grid.vs_values)
        np.testing.assert_array_equal(rebuilt.vg_values, grid.vg_values)
        np.testing.assert_array_equal(rebuilt.vth_plane, grid.vth_plane)
        np.testing.assert_array_equal(rebuilt.vdsat_plane,
                                      grid.vdsat_plane)
        assert rebuilt.fits[0][0] == grid.fits[0][0]

    def test_replay_library_serves_only_bundled_slices(self, tech,
                                                       library):
        entry = fb.grid_to_json(library.get("n").grid)
        entry["length"] = tech.lmin
        replay_lib = fb.ReplayLibrary(tech, library.grid_step, [entry])
        model = replay_lib.get("n", tech.lmin)
        reference = library.get("n", tech.lmin)
        assert model.iv(tech.wmin, tech.lmin, tech.vdd, tech.vdd, 0.0) \
            == reference.iv(tech.wmin, tech.lmin, tech.vdd, tech.vdd,
                            0.0)
        with pytest.raises(KeyError, match="not self-contained"):
            replay_lib.get("p", tech.lmin)


# ----------------------------------------------------------------------
# Failure bundles and bit-for-bit replay
# ----------------------------------------------------------------------
class TestFailureBundleReplay:
    def test_starved_newton_bundle_replays_identically(
            self, tech, library, tmp_path):
        """The acceptance path: forced Newton failure -> bundle ->
        replay reproduces the recorded trajectories bit-for-bit."""
        configure_flight(FlightConfig(
            enabled=True, capture_bundles=True,
            bundle_dir=str(tmp_path)))
        options = QWMOptions(newton=NewtonOptions(max_iterations=2))
        evaluator = WaveformEvaluator(tech, library=library,
                                      options=options)
        stage = builders.nand_gate(tech, 3)
        try:
            evaluator.evaluate(stage, "out", "fall",
                               nand_inputs(tech, 3))
        except Exception:
            pass  # the bundle matters, not the solve outcome

        files = sorted(tmp_path.glob("*.json"))
        assert files, "expected a solve-failure bundle"
        bundle = fb.load_bundle(str(files[0]))
        assert bundle["reason"] == "solve_failure"
        assert bundle["failure"]["reasons"]
        assert all(r in FAILURE_REASONS + ("non_advancing_time",)
                   for r in bundle["failure"]["reasons"])
        assert bundle["grids"], "bundle must carry the table slices"

        result = fb.replay_bundle(bundle)
        assert result.mode == "region"
        assert result.attempts, "no newton events for failing region"
        assert result.identical, result.render()
        assert "bit-for-bit identical: True" in result.render()

    def test_replay_detects_divergence(self, tech, library, tmp_path):
        configure_flight(FlightConfig(
            enabled=True, capture_bundles=True,
            bundle_dir=str(tmp_path)))
        options = QWMOptions(newton=NewtonOptions(max_iterations=2))
        evaluator = WaveformEvaluator(tech, library=library,
                                      options=options)
        stage = builders.nand_gate(tech, 3)
        try:
            evaluator.evaluate(stage, "out", "fall",
                               nand_inputs(tech, 3))
        except Exception:
            pass
        bundle = fb.load_bundle(str(sorted(tmp_path.glob("*.json"))[0]))
        # Corrupt a recorded residual inside the failing region (the
        # only region replay compares); replay must flag it.
        failure = bundle["failure"]
        for event in bundle["ledger"]["events"]:
            data = event["data"]
            if (event["kind"] == "newton"
                    and data.get("active") == failure["active"]
                    and data.get("tau") == failure["tau"]
                    and data["trajectory"]):
                data["trajectory"][0]["residual_norm"] *= 2.0
                break
        else:
            pytest.fail("no newton event recorded for failing region")
        result = fb.replay_bundle(bundle)
        assert not result.identical
        assert "DIVERGED" in result.render()


# ----------------------------------------------------------------------
# Golden-suite forced capture
# ----------------------------------------------------------------------
class TestGoldenCapture:
    def test_band_violation_writes_replayable_bundle(
            self, tech, library, tmp_path):
        from repro.analysis import golden

        case = golden.GoldenCase(circuit="inv", direction="fall",
                                 switching_input="a", held=None,
                                 input_slew=0.0, load=2e-15)
        evaluator = WaveformEvaluator(tech, library=library)
        delay, slew = golden.qwm_measure(case, tech, evaluator)
        # A fabricated reference far outside the band forces a diff
        # failure without paying for a SPICE run.
        record = golden.GoldenRecord(case=case, spice_delay=10 * delay,
                                     spice_slew=None,
                                     qwm_delay=10 * delay,
                                     qwm_slew=slew)
        configure_flight(FlightConfig(
            enabled=True, capture_bundles=True,
            bundle_dir=str(tmp_path)))
        diffs = golden.check([record], tech, evaluator=evaluator)
        assert not diffs[0].ok

        files = sorted(tmp_path.glob("*.json"))
        assert files, "band violation should have written a bundle"
        bundle = fb.load_bundle(str(files[0]))
        assert bundle["reason"] == "golden_band_violation"
        assert bundle["extra"]["golden_case"] == case.name
        assert bundle["extra"]["delay_error_pct"] > 10.0
        assert bundle["failure"] is None

        result = fb.replay_bundle(bundle)
        assert result.mode == "solve"
        assert result.solution_delay is not None

    def test_no_capture_when_disabled(self, tech, library, tmp_path):
        from repro.analysis import golden

        case = golden.GoldenCase(circuit="inv", direction="fall",
                                 switching_input="a", held=None,
                                 input_slew=0.0, load=2e-15)
        evaluator = WaveformEvaluator(tech, library=library)
        delay, _ = golden.qwm_measure(case, tech, evaluator)
        record = golden.GoldenRecord(case=case, spice_delay=10 * delay,
                                     spice_slew=None,
                                     qwm_delay=10 * delay,
                                     qwm_slew=None)
        diffs = golden.check([record], tech, evaluator=evaluator)
        assert not diffs[0].ok
        assert list(tmp_path.glob("*.json")) == []


# ----------------------------------------------------------------------
# Corrupted-table taxonomy: non-finite residuals
# ----------------------------------------------------------------------
class TestCorruptedTableFixture:
    def test_nan_table_slice_hits_non_finite_taxonomy(
            self, tech, library, tmp_path):
        from repro.devices.table_model import TableDeviceModel

        entry = fb.grid_to_json(library.get("n").grid)
        for row in entry["fits"]:
            for fit in row:
                fit[0] = math.nan  # saturation slope -> NaN currents
        bad_grid = fb.grid_from_json(entry)

        class CorruptLibrary:
            """Serves a NaN-poisoned NMOS slice, everything else real."""

            def __init__(self, base):
                self.tech = base.tech
                self.grid_step = base.grid_step
                self._base = base

            def get(self, polarity, l=None):
                if polarity == "n":
                    return TableDeviceModel(bad_grid, self.tech.nmos)
                return self._base.get(polarity, l)

        rec = configure_flight(FlightConfig(
            enabled=True, capture_bundles=True,
            bundle_dir=str(tmp_path)))
        evaluator = WaveformEvaluator(tech,
                                      library=CorruptLibrary(library))
        stage = builders.nand_gate(tech, 2)
        try:
            evaluator.evaluate(stage, "out", "fall",
                               nand_inputs(tech, 2), precharge="full")
        except Exception:
            pass
        reasons = set()
        for event in rec.events():
            if event.kind == "newton":
                reasons.add(event.data["outcome"])
            elif event.kind == "region_failed":
                reasons.update(event.data["reasons"])
        assert "non_finite_residual" in reasons


# ----------------------------------------------------------------------
# Cache attribution through the parallel engine
# ----------------------------------------------------------------------
class TestCacheAttribution:
    def test_cache_hits_carry_provenance(self, tech, library):
        from repro.analysis import StaticTimingAnalyzer
        from repro.analysis.parallel import (ExecutionConfig,
                                             StageResultCache)
        from repro.circuit import extract_stages

        rec = configure_flight(FlightConfig(enabled=True))
        netlist = builders.decoder_netlist(tech, bits=2)
        graph = extract_stages(netlist, tech=tech)
        analyzer = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(cache=True),
            cache=StageResultCache())
        analyzer.analyze(graph)

        prov = rec.provenance()
        assert prov, "arc results should have been attributed"
        hits = sum(p["hits"] for p in prov.values())
        assert hits > 0, "identical decoder stages should hit the cache"
        for key, entry in prov.items():
            if entry["hits"]:
                # Every hit points back at the solves that computed it.
                assert entry["solve_ids"], key
        kinds = {e.kind for e in rec.events()}
        assert "cache_hit" in kinds and "arc_result" in kinds
