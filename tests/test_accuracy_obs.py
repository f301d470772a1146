"""Accuracy observatory: sampling determinism, attribution, golden drift.

The auditor's candidates are the arcs the run attempted, derived from
its arrivals, and its records are pure functions of (design, seed,
solver config) — which the serial-vs-process bit-identity test pins
down.
"""

import json
import shutil
import time
from dataclasses import replace

import pytest

from repro.analysis import accuracy
from repro.analysis import audit as audit_mod
from repro.analysis.audit import (
    ArcSample,
    analyze_with_audit,
    audit_arc,
    collect_candidates,
    stratified_sample,
)
from repro.analysis.accuracy import ComparisonOutcome, compare_delays
from repro.analysis.golden import (
    DRIFT_PP,
    GoldenCase,
    GoldenRecord,
    check as golden_check,
    default_golden_dir,
    format_report,
)
from repro.analysis.parallel import ExecutionConfig, canonical_form_for
from repro.analysis.sta import StaticTimingAnalyzer
from repro.circuit import builders
from repro.circuit.stage import extract_stages
from repro.cli import main
from repro.obs.accuracy import (
    attribute_regions,
    capture_regions,
    note_region,
    slew_token,
)


@pytest.fixture(scope="module")
def decoder_graph(tech):
    return extract_stages(builders.decoder_netlist(tech, bits=2),
                          tech=tech)


# ----------------------------------------------------------------------
# ComparisonOutcome: structured verdicts instead of bare ValueError.
# ----------------------------------------------------------------------
class TestComparisonOutcome:
    def test_ok(self):
        outcome = compare_delays(1.1e-10, 1.0e-10)
        assert isinstance(outcome, ComparisonOutcome)
        assert outcome.ok
        assert outcome.status == "ok"
        assert outcome.error_percent == pytest.approx(10.0)

    def test_no_crossing(self):
        for test, ref in ((None, 1.0e-10), (1.0e-10, None),
                          (None, None)):
            outcome = compare_delays(test, ref)
            assert not outcome.ok
            assert outcome.status == "no-crossing"
            assert outcome.error_percent is None

    def test_zero_reference(self):
        outcome = compare_delays(1.0e-10, 0.0)
        assert outcome.status == "zero-reference"
        assert outcome.error_percent is None

    def test_accuracy_percent_still_raises(self):
        assert accuracy.accuracy_percent(1.01e-10, 1.0e-10) \
            == pytest.approx(99.0)
        with pytest.raises(ValueError):
            accuracy.accuracy_percent(None, 1.0e-10)
        with pytest.raises(ValueError):
            accuracy.accuracy_percent(1.0e-10, 0.0)


# ----------------------------------------------------------------------
# Region capture: residual attribution from a real solve.
# ----------------------------------------------------------------------
class TestRegionCapture:
    def test_capture_on_real_solve(self, tech, evaluator):
        from repro.spice import ConstantSource, StepSource

        stage = builders.nand_gate(tech, 2)
        sources = {"a0": StepSource(0.0, tech.vdd, 20e-12),
                   "a1": ConstantSource(tech.vdd)}
        with capture_regions() as capture:
            evaluator.evaluate(stage, "out", "fall", sources,
                               precharge="dc")
        assert capture.notes
        phases = {note["phase"] for note in capture.notes}
        assert phases <= {"qwm.phase12", "qwm.phase3"}
        tags = {note["tag"] for note in capture.notes}
        assert tags <= {"turn_on", "crossing", "time", "region"}
        for note in capture.notes:
            assert note["k"] >= 1
            assert note["residual_norm"] >= 0.0
            assert note["iterations"] >= 1

    def test_no_capture_is_noop(self, tech, evaluator):
        # Outside a capture scope the hooks must not accumulate state.
        note_region("qwm.phase3", "crossing", 2, 1e-12, 3)
        with capture_regions() as capture:
            pass
        assert capture.notes == []

    def test_attribute_regions_dominant_and_ties(self):
        notes = [
            {"phase": "qwm.phase12", "tag": "turn_on", "k": 2,
             "residual_norm": 1e-12, "iterations": 3},
            {"phase": "qwm.phase3", "tag": "crossing", "k": 4,
             "residual_norm": 5e-12, "iterations": 4},
            {"phase": "qwm.phase3", "tag": "crossing", "k": 3,
             "residual_norm": 2e-12, "iterations": 2},
        ]
        rollup = attribute_regions(notes)
        assert rollup["dominant"] == "qwm.phase3:crossing"
        assert rollup["regions"] == 3
        assert rollup["max_k"] == 4
        cell = rollup["cells"]["qwm.phase3:crossing"]
        assert cell["regions"] == 2
        assert cell["iterations"] == 6
        # Equal sums tie-break lexicographically (deterministic).
        tied = attribute_regions([
            {"phase": "b", "tag": "t", "k": 1, "residual_norm": 1.0,
             "iterations": 1},
            {"phase": "a", "tag": "t", "k": 1, "residual_norm": 1.0,
             "iterations": 1},
        ])
        assert tied["dominant"] == "a:t"

    def test_attribute_regions_empty(self):
        rollup = attribute_regions([])
        assert rollup["dominant"] is None
        assert rollup["regions"] == 0


# ----------------------------------------------------------------------
# Sampling: seeded, stratified, deterministic.
# ----------------------------------------------------------------------
class TestSampling:
    def _analyzer(self, tech, library):
        return StaticTimingAnalyzer(tech, library=library)

    def test_sample_is_deterministic(self, tech, library,
                                     decoder_graph):
        analyzer = self._analyzer(tech, library)
        candidates = collect_candidates(decoder_graph, analyzer)
        first = stratified_sample(candidates, 6, seed=7)
        second = stratified_sample(candidates, 6, seed=7)
        assert [s.key for s in first] == [s.key for s in second]
        other = stratified_sample(candidates, 6, seed=8)
        assert [s.key for s in other] != [s.key for s in first]

    def test_sample_stratifies_across_forms(self, tech, library,
                                            decoder_graph):
        """Isomorphic word-line stages cannot crowd out unique forms."""
        analyzer = self._analyzer(tech, library)
        candidates = collect_candidates(decoder_graph, analyzer)
        strata = {s.fingerprint for s in candidates}
        assert len(strata) >= 2
        picked = stratified_sample(candidates, len(strata), seed=0)
        assert {s.fingerprint for s in picked} == strata

    def test_sample_ignores_fingerprint_text(self, tech, library,
                                             decoder_graph):
        """Fingerprints only group arcs: relabelling them one-to-one
        (as renaming a solver option does, through its ``repr``) must
        not redraw the sample."""
        analyzer = self._analyzer(tech, library)
        candidates = collect_candidates(decoder_graph, analyzer)
        ranks = {fp: i for i, fp in enumerate(
            sorted({s.fingerprint for s in candidates}, reverse=True))}
        relabellings = (
            lambda fp: fp[::-1],
            lambda fp: f"form{ranks[fp]}",
        )
        for relabel in relabellings:
            relabelled = [replace(s, fingerprint=relabel(s.fingerprint))
                          for s in candidates]
            for count, seed in ((3, 0), (6, 0), (6, 7)):
                drawn = stratified_sample(candidates, count, seed)
                again = stratified_sample(relabelled, count, seed)
                assert [s.key for s in again] == [s.key for s in drawn]

    def test_sample_exhausts_gracefully(self, tech, library,
                                        decoder_graph):
        analyzer = self._analyzer(tech, library)
        candidates = collect_candidates(decoder_graph, analyzer)
        picked = stratified_sample(candidates, 10 ** 6, seed=0)
        assert len(picked) == len(candidates)
        assert len({s.key for s in picked}) == len(candidates)


# ----------------------------------------------------------------------
# The auditor: backend bit-identity, graceful degradation.
# ----------------------------------------------------------------------
class TestAuditor:
    def test_serial_and_process_records_bit_identical(
            self, tech, library, decoder_graph):
        def run(backend):
            execution = (None if backend == "serial"
                         else ExecutionConfig(workers=2))
            analyzer = StaticTimingAnalyzer(tech, library=library,
                                            execution=execution)
            result, report = analyze_with_audit(
                analyzer, decoder_graph, 3, seed=3)
            return result, report

        serial_result, serial_report = run("serial")
        process_result, process_report = run("process")
        assert json.dumps(serial_report.to_json(), sort_keys=True) \
            == json.dumps(process_report.to_json(), sort_keys=True)
        assert serial_result.audit == process_result.audit
        assert serial_report.records
        for record in serial_report.records:
            assert record["status"] == "ok"
            assert record["delay_error_pct"] is not None
            assert record["attribution"]["dominant"] is not None

    def test_no_crossing_degrades_gracefully(self, tech, library,
                                             decoder_graph,
                                             monkeypatch):
        monkeypatch.setattr(audit_mod, "adaptive_spice_arc",
                            lambda *args, **kwargs: None)
        analyzer = StaticTimingAnalyzer(tech, library=library)
        stage = decoder_graph.stages[0]
        sample = ArcSample(
            stage=stage.name, output=stage.outputs[0].name,
            direction="fall",
            switching_input=sorted(stage.inputs)[0], input_slew=None,
            fingerprint="x")
        record = audit_arc(analyzer, stage, sample)
        assert record["status"] == "no-crossing"
        assert record["delay_error_pct"] is None
        assert record["margin_to_band_pct"] is None

    def test_resumed_run_audits_the_uninterrupted_pool(
            self, tech, library, decoder_graph, tmp_path):
        """Replayed stages never run, but their arcs stay candidates."""
        def audit(resume):
            analyzer = StaticTimingAnalyzer(
                tech, library=library,
                execution=ExecutionConfig(
                    journal_path=str(tmp_path / "run.jsonl"),
                    resume=resume))
            return analyze_with_audit(analyzer, decoder_graph, 2, seed=0)

        _, fresh = audit(False)
        resumed_result, resumed = audit(True)
        assert resumed_result.resumed_waves \
            == resumed_result.journal["waves"]
        assert resumed.summary()["candidates"] > 2
        assert resumed.to_json() == fresh.to_json()

    @pytest.mark.parametrize("slews", [False, True],
                             ids=["step", "slew"])
    def test_candidates_are_the_arcs_the_run_attempted(
            self, tech, library, decoder_graph, monkeypatch, slews):
        """The pool is exactly the arcs STA handed its arc function."""
        from repro.analysis import parallel

        attempted = set()
        compute = parallel.compute_stage_arrivals

        def spy(stage, arrivals, arc_fn, *args):
            def noting_arc_fn(stage_, output, direction, switching_input,
                              input_slew):
                attempted.add((stage_.name, output, direction,
                               switching_input, slew_token(input_slew)))
                return arc_fn(stage_, output, direction, switching_input,
                              input_slew)
            return compute(stage, arrivals, noting_arc_fn, *args)

        monkeypatch.setattr(parallel, "compute_stage_arrivals", spy)
        analyzer = StaticTimingAnalyzer(tech, library=library,
                                        propagate_slews=slews)
        result, report = analyze_with_audit(analyzer, decoder_graph, 1,
                                            seed=0)
        candidates = collect_candidates(decoder_graph, analyzer,
                                        result.arrivals)
        assert len(candidates) == len(attempted) > 1
        assert {sample.key for sample in candidates} == attempted
        assert result.audit["summary"]["arcs_audited"] == 1
        assert result.audit["summary"]["candidates"] == len(attempted)


# ----------------------------------------------------------------------
# Golden drift against the committed records, through the CLI.
# ----------------------------------------------------------------------
class TestGoldenDriftCli:
    CASE = "inv_fall_a_s0p_l2f"  # QWM below SPICE, 8.33 % stored error

    def _golden_dir(self, tmp_path, shift_pp):
        """The committed inv records, CASE's stored error moved by
        ``shift_pp`` percentage points."""
        directory = tmp_path / "golden"
        directory.mkdir()
        path = directory / "inv.json"
        shutil.copy(f"{default_golden_dir()}/inv.json", path)
        document = json.loads(path.read_text())
        for case in document["cases"]:
            if case["name"] == self.CASE:
                assert case["qwm_delay"] < case["spice_delay"]
                case["qwm_delay"] -= shift_pp / 100.0 * case["spice_delay"]
        path.write_text(json.dumps(document))
        return str(directory)

    def test_record_doctored_low_drifts_but_passes(self, tmp_path,
                                                   capsys):
        code = main(["golden", "--dir", self._golden_dir(tmp_path, -3.0)])
        out = capsys.readouterr().out
        assert code == 0  # drift is reported, the bands still gate
        drifted = [line for line in out.splitlines() if "DRIFT" in line]
        assert len(drifted) == 1 and drifted[0].startswith(self.CASE)
        assert "+3.00pp" in drifted[0]
        assert f"worst: {self.CASE} (+3.00pp, attributed to qwm." in out

    def test_record_doctored_high_never_drifts(self, tmp_path, capsys):
        code = main(["golden", "--dir", self._golden_dir(tmp_path, 3.0)])
        out = capsys.readouterr().out
        assert code == 0
        assert "DRIFT" not in out
        assert "-3.00pp" in out
        assert "no case drifted" in out

    @pytest.mark.parametrize("command", [["sta", "--bits", "2"],
                                         ["golden"]],
                             ids=["sta", "golden"])
    @pytest.mark.parametrize("flag", ["history", "history-file"])
    def test_ledger_flags_are_gone(self, flag, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + [f"--{flag}"])
        assert exit_info.value.code == 2
        assert f"--{flag}" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Golden integration: margins, attribution, drift.
# ----------------------------------------------------------------------
class TestGoldenIntegration:
    def _record(self, tech):
        case = GoldenCase(circuit="inv", direction="fall",
                         switching_input="a", held=None,
                         input_slew=0.0, load=2e-15)
        from repro.analysis.golden import spice_measure

        delay, slew = spice_measure(case, tech)
        return GoldenRecord(case=case, spice_delay=delay,
                            spice_slew=slew, qwm_delay=delay,
                            qwm_slew=slew)

    def test_margin_in_record_json(self, tech):
        record = self._record(tech)
        payload = record.to_json()
        assert payload["margin_to_band_pct"] \
            == pytest.approx(10.0 - payload["delay_error_pct"])

    def test_check_attaches_attribution(self, tech, evaluator):
        record = self._record(tech)
        diffs = golden_check([record], tech, evaluator)
        assert len(diffs) == 1
        assert diffs[0].attribution is not None
        assert diffs[0].attribution["regions"] > 0
        assert diffs[0].margin_to_band_pct \
            == pytest.approx(10.0 - diffs[0].delay_error_pct)
        # The record stores QWM = SPICE, so all of the fresh error is
        # drift.
        assert diffs[0].drift_pp \
            == pytest.approx(diffs[0].delay_error_pct)

    def test_error_growth_is_drift(self, tech, evaluator):
        record = self._record(tech)
        diffs = golden_check([record], tech, evaluator)
        assert diffs[0].drift_pp > DRIFT_PP  # fresh error ~8.3 %
        assert diffs[0].ok  # drift never gates
        report = format_report(diffs)
        drifted = [line for line in report.splitlines() if "DRIFT" in line]
        assert len(drifted) == 1 and drifted[0].startswith(
            record.case.name)
        dominant = diffs[0].attribution["dominant"]
        assert dominant.startswith("qwm.phase3:")
        assert (f"worst: {record.case.name} "
                f"(+{diffs[0].drift_pp:.2f}pp, attributed to "
                f"{dominant})") in report

    def test_error_shrink_is_not_drift(self, tech, evaluator):
        measured = self._record(tech)
        # A stored error of 20 %, well above the fresh one.
        record = replace(measured, qwm_delay=1.2 * measured.spice_delay)
        diffs = golden_check([record], tech, evaluator)
        assert diffs[0].drift_pp < -DRIFT_PP
        report = format_report(diffs)
        assert "DRIFT" not in report
        assert "no case drifted" in report


# ----------------------------------------------------------------------
# Cost: the unarmed region capture must be invisible.
# ----------------------------------------------------------------------
def test_disabled_overhead_under_one_percent(tech, evaluator):
    """Disabled accuracy hooks cost < 1% of a NAND3 solve.

    Arithmetic-budget style like the profiler's gate: per-call cost of
    the disabled hooks times a generous over-estimate of hook sites
    per solve, against the solve's own wall time.
    """
    from repro.spice import ConstantSource, StepSource

    n_calls = 20000
    start = time.perf_counter()
    for _ in range(n_calls):
        note_region("qwm.phase12", "crossing", 2, 1e-12, 3)
    per_op = (time.perf_counter() - start) / n_calls

    stage = builders.nand_gate(tech, 3)
    sources = {"a0": StepSource(0.0, tech.vdd, 0.0)}
    for name in stage.inputs:
        sources.setdefault(name, ConstantSource(tech.vdd))
    solution = evaluator.evaluate(stage, output="out",
                                  direction="fall", inputs=sources)
    stats = solution.stats
    # Hook sites: one note_region per converged Newton solve (at most
    # two per region) plus two spare — then doubled for margin.
    ops = 2 * (2 * stats.steps + 2)
    overhead = ops * per_op
    assert overhead < 0.01 * stats.wall_time + 1e-4, (
        f"disabled accuracy-hook overhead {overhead * 1e6:.1f}us vs "
        f"solve {stats.wall_time * 1e6:.1f}us")
