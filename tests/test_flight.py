"""Flight view: ledger, debug bundles, deterministic replay, reports."""

import json
import math

import numpy as np
import pytest

from repro.circuit import builders
from repro.core import WaveformEvaluator
from repro.core.qwm import QWMOptions
from repro.linalg.newton import FAILURE_REASONS, NewtonOptions
from repro.obs import (
    FlightConfig,
    configure_flight,
    disable_flight,
    frame,
    ledger,
    render_report,
    summarize_ledger,
)
from repro.obs import bundles as fb
from repro.obs import frames as frames_mod
from repro.spice import ConstantSource, PWLSource, RampSource, StepSource


@pytest.fixture(autouse=True)
def clean_flight():
    """Every test starts and ends with the flight view off."""
    disable_flight()
    yield
    disable_flight()


def recorder(**config):
    """The process-wide ledger with the flight view on."""
    return configure_flight(FlightConfig(enabled=True, **config))


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
        assert not ledger().recording

    def test_config_validation(self):
        with pytest.raises(ValueError, match="event_limit"):
            FlightConfig(event_limit=0)
        # None means unbounded, explicitly legal.
        FlightConfig(event_limit=None)

    def test_event_limit_drops_and_counts(self):
        rec = recorder(event_limit=3)
        for i in range(5):
            rec.record("x", value=i)
        stats = rec.flight_stats()
        assert stats["recorded"] == 3
        assert stats["dropped"] == 2
        assert rec.flight_json()["dropped"] == 2

    def test_context_frames_merge_and_unwind(self):
        rec = recorder()
        with frame("outer", ctx={"stage": "s1", "output": "out"}):
            with frame("inner", ctx={"arc_input": "a0"}):
                sid = rec.begin_solve(direction="fall")
            assert rec.context() == {"stage": "s1", "output": "out"}
        assert rec.context() == {}
        (begin,) = [e for e in rec.events() if e.kind == "solve_begin"]
        assert begin.solve_id == sid
        assert begin.data["stage"] == "s1"
        assert begin.data["arc_input"] == "a0"
        assert begin.data["direction"] == "fall"

    def test_context_frames_stay_noops_when_nothing_reads_them(self):
        assert frame("sta.arc", ctx={"arc_input": "a0"}) \
            is frames_mod.NOOP_FRAME
        recorder()
        # The flight view reads context frames only.
        assert frame("engine.extract") is frames_mod.NOOP_FRAME
        assert frame("sta.arc", ctx={"arc_input": "a0"}) \
            is not frames_mod.NOOP_FRAME

    def test_capture_reason_rides_on_its_frame(self):
        rec = recorder()
        with frame("golden.capture",
                   ctx={"capture": "golden_band_violation",
                        "golden_case": "inv"}):
            assert rec.context()["capture"] == "golden_band_violation"
            # It steers the capture; flight events leave it out.
            assert rec.flight_context() == {"golden_case": "inv"}
        assert rec.context().get("capture") is None

    def test_solve_failure_is_a_solver_attribute(self, tech, library):
        from repro.core.qwm import QWMSolver

        recorder()
        stage = builders.nand_gate(tech, 3)
        evaluator = WaveformEvaluator(tech, library=library)
        inputs = nand_inputs(tech, 3)
        path = evaluator.extract(stage, "out", "fall", inputs)
        start = evaluator.default_initial(path, "full")
        starved = QWMOptions(newton=NewtonOptions(max_iterations=2))
        solver = QWMSolver(path, starved)
        solver.solve(inputs, start)
        failure = solver.failure
        assert failure["solve_id"] == solver.solve_id
        assert failure["active"] == 1
        # The next solve starts clean.
        solver.options = QWMOptions()
        solver.solve(inputs, start)
        assert solver.failure is None

    def test_arc_provenance_half_open_range(self):
        rec = recorder()
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
        monkeypatch.setattr(frames_mod, "MAX_BUNDLES", 2)
        rec = recorder()
        assert rec.claim_bundle_slot()
        assert rec.claim_bundle_slot()
        assert not rec.claim_bundle_slot()
        assert rec.flight_stats()["bundles"] == 2

    def test_event_payload_may_carry_a_kind(self):
        rec = recorder()
        rec.record("fault_injected", kind="nan_table", stage=None)
        (event,) = rec.events()
        assert event.kind == "fault_injected"
        assert event.data == {"kind": "nan_table", "stage": None}


# ----------------------------------------------------------------------
# Ledger capture on a real solve + report aggregation
# ----------------------------------------------------------------------
class TestLedgerAndReport:
    def test_solve_records_full_lifecycle(self, tech, library):
        rec = recorder()
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
        rec = recorder()
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
        assert ledger().events() == []
        assert ledger().flight_stats()["solves"] == 0


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

    def test_grid_round_trip_rebuilds_derived_planes(self, tech, library):
        model = library.get("n")
        grid = model.grid
        entry = fb.grid_to_json(grid)
        # The bundle layout: fits[i][j] is the seven floats
        # (s1, s0, t2, t1, t0, vth, vdsat) of grid point (i, j), so a
        # bundle written before the table became the model still loads.
        assert len(entry["fits"]) == grid.vs_values.size
        for i, row in enumerate(entry["fits"]):
            assert len(row) == grid.vg_values.size
            for j, point in enumerate(row):
                assert type(point) is list and len(point) == 7
                assert all(type(x) is float for x in point)
                assert point == grid.table[i][j]
        s1, s0, t2, t1, t0, vth, vdsat = entry["fits"][0][-1]
        assert vth == pytest.approx(model.threshold(tech.vdd, 0.0, 0.0),
                                    rel=1e-12)
        assert vdsat == pytest.approx(model.vdsat(tech.vdd, 0.0, 0.0),
                                      rel=1e-12)
        assert 0.1 < vdsat < 3.0 < tech.vdd
        assert model.iv(grid.w_ref, grid.l_ref, tech.vdd, 3.0, 0.0) \
            == pytest.approx(s1 * 3.0 + s0, rel=1e-12)
        assert model.iv(grid.w_ref, grid.l_ref, tech.vdd, vdsat / 2, 0.0) \
            == pytest.approx(t2 * vdsat ** 2 / 4 + t1 * vdsat / 2 + t0,
                             rel=1e-12)
        rebuilt = fb.grid_from_json(json.loads(json.dumps(entry)))
        np.testing.assert_array_equal(rebuilt.vs_values, grid.vs_values)
        np.testing.assert_array_equal(rebuilt.vg_values, grid.vg_values)
        assert rebuilt.table == grid.table
        # The entry is a copy: editing it leaves the live table alone.
        entry["fits"][0][0][0] = math.nan
        assert grid.table[0][0][0] == rebuilt.table[0][0][0]

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

    def test_bundle_replays_only_its_own_solve(self, tech, library,
                                               tmp_path):
        """Two failing solves in one ledger: the second bundle carries
        and replays only the second solve's Newton calls."""
        recorder(capture_bundles=True, bundle_dir=str(tmp_path))
        options = QWMOptions(newton=NewtonOptions(max_iterations=2))
        evaluator = WaveformEvaluator(tech, library=library,
                                      options=options)
        stage = builders.nand_gate(tech, 3)
        for _ in range(2):
            evaluator.evaluate(stage, "out", "fall", nand_inputs(tech, 3))
        bundles = [fb.load_bundle(str(path))
                   for path in sorted(tmp_path.glob("*.json"))]
        assert len(bundles) == 2
        first, second = sorted(bundles,
                               key=lambda b: b["failure"]["solve_id"])
        assert (first["failure"]["solve_id"],
                second["failure"]["solve_id"]) == (1, 2)
        ledger_slice = second["ledger"]
        assert ledger_slice["format"] == "repro-flight-ledger/1"
        assert set(ledger_slice) == {"format", "events", "dropped",
                                     "solves", "provenance"}
        assert ledger_slice["events"]
        assert all(e["solve_id"] == 2 for e in ledger_slice["events"])
        result = fb.replay_bundle(second)
        own = [e for e in ledger_slice["events"]
               if e["kind"] == "newton"
               and e["data"]["active"] == second["failure"]["active"]
               and e["data"]["tau"] == second["failure"]["tau"]]
        assert len(result.attempts) == len(own) == 5
        assert result.identical, result.render()

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

        rec = recorder()
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

    def test_pool_workers_ship_their_events_home(self, tech, library):
        """A pooled run keeps the serial run's events, solve ids 1..n
        and cache provenance."""
        from repro.analysis import StaticTimingAnalyzer
        from repro.analysis.parallel import (ExecutionConfig,
                                             StageResultCache)
        from repro.circuit import extract_stages

        graph = extract_stages(builders.decoder_netlist(tech, bits=2),
                               tech=tech)

        def run(workers):
            rec = recorder(event_limit=None)
            StaticTimingAnalyzer(
                tech, library=library,
                execution=ExecutionConfig(workers=workers),
                cache=StageResultCache()).analyze(graph)
            return rec.events(), summarize_ledger(rec)

        serial_events, serial = run(1)
        pooled_events, pooled = run(2)

        def kinds(events):
            counts = {}
            for event in events:
                counts[event.kind] = counts.get(event.kind, 0) + 1
            return counts

        assert kinds(pooled_events) == kinds(serial_events) == {
            "solve_begin": 8, "newton": 99, "region_solved": 97,
            "solve_end": 8, "arc_result": 8, "cache_hit": 20}
        assert sorted(e.solve_id for e in pooled_events
                      if e.kind == "solve_begin") == list(range(1, 9))
        assert all(e.data["origin_solve_ids"] for e in pooled_events
                   if e.kind == "cache_hit")
        for key in ("solves", "regions_solved", "regions_failed",
                    "events", "table_queries", "fallback_histogram",
                    "newton_failure_reasons", "iteration_distribution"):
            assert pooled[key] == serial[key], key
        for key in ("attributed_arcs", "total_hits"):
            assert pooled["cache_attribution"][key] == \
                serial["cache_attribution"][key], key
