"""Run budgets, admission control, and the crash-safe run journal.

Covers the run-durability contract DESIGN.md §14 states: a
``--deadline`` run always finishes inside deadline+grace with honest
quality tags (the admission controller clamps the ladder full →
no-spice → bound, never the reverse), and a ``--journal`` run killed
between waves resumes bit-identically from its last flushed
checkpoint — in-process and on a process pool alike.
"""

import json
import os

import pytest

from repro.analysis import StaticTimingAnalyzer
from repro.analysis.parallel import (
    ExecutionConfig,
    ParallelStaEngine,
    StageResultCache,
)
from repro.circuit import builders, extract_stages
from repro.resilience import faults
from repro.resilience.budget import (
    CLAMP_BOUND,
    CLAMP_FULL,
    CLAMP_NO_SPICE,
    AdmissionController,
    RunBudget,
)
from repro.resilience.faults import FaultPlan, FaultSpec, RunKilled
from repro.resilience.journal import (
    FORMAT,
    FingerprintMismatch,
    JournalError,
    RunJournal,
    run_fingerprint,
)
from repro.spice.results import SimulationStats


@pytest.fixture(scope="module")
def decoder_graph(tech):
    return extract_stages(builders.decoder_netlist(tech, bits=2),
                          tech=tech)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """Every test starts and ends without an installed fault plan."""
    faults.uninstall()
    yield
    faults.uninstall()


class _FakeClock:
    """Injectable monotonic clock for deterministic deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# RunBudget and the admission controller.
# ----------------------------------------------------------------------
class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunBudget(deadline=0.0)
        with pytest.raises(ValueError):
            RunBudget(deadline=-1.0)

    def test_grace_defaults(self):
        assert RunBudget(deadline=1.0).grace_seconds == 0.5
        assert RunBudget(deadline=100.0).grace_seconds == 10.0


class TestAdmissionController:
    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(RunBudget(1.0), parallelism=0)

    def test_clamp_ordering_disables_spice_before_bound(self):
        """The ladder degrades full -> no-spice -> bound, in order:
        moderate pressure drops only the SPICE rung; only crushing
        pressure (or a spent budget) routes straight to the bound."""
        clock = _FakeClock()
        controller = AdmissionController(RunBudget(10.0), clock=clock)
        # No cost history yet: nothing to project, run at full quality.
        assert controller.admit(10) == CLAMP_FULL
        controller.note_stage_cost(2.0)
        # 5s left, 9 stages x 2s projected: over budget but under the
        # bound-pressure factor -> disable SPICE first.
        clock.now = 5.0
        assert controller.admit(9) == CLAMP_NO_SPICE
        # 1s left, 16s projected (>4x): only the bound can finish.
        clock.now = 9.0
        assert controller.admit(8) == CLAMP_BOUND

    def test_clamp_is_monotonic_ratchet(self):
        clock = _FakeClock()
        controller = AdmissionController(RunBudget(10.0), clock=clock)
        controller.note_stage_cost(2.0)
        clock.now = 9.0
        assert controller.admit(8) == CLAMP_BOUND
        # Pressure relaxed (nothing left to project): the clamp must
        # not un-degrade mid-run — quality tags stay honest.
        clock.now = 9.1
        assert controller.admit(0) == CLAMP_BOUND

    def test_past_deadline_is_bound(self):
        clock = _FakeClock()
        controller = AdmissionController(RunBudget(1.0), clock=clock)
        clock.now = 2.0
        assert controller.admit(5) == CLAMP_BOUND

    def test_parallelism_divides_projection(self):
        clock = _FakeClock()
        controller = AdmissionController(RunBudget(10.0), parallelism=4,
                                         clock=clock)
        controller.note_stage_cost(2.0)
        # 8 stages x 2s over 4 workers projects 4s into 5s remaining.
        clock.now = 5.0
        assert controller.admit(8) == CLAMP_FULL

    def test_exhaust_fault_forces_bound(self):
        plan = FaultPlan((FaultSpec("deadline_exhaust", nth=1),), seed=0)
        clock = _FakeClock()
        controller = AdmissionController(RunBudget(1000.0), clock=clock)
        with faults.installed(plan):
            assert controller.admit(5) == CLAMP_BOUND
        assert controller.remaining() == 0.0

    def test_summary_shape(self):
        clock = _FakeClock()
        controller = AdmissionController(RunBudget(10.0), clock=clock)
        controller.note_stage_cost(2.0)
        clock.now = 9.0
        controller.admit(8)
        clock.now = 9.5
        summary = controller.summary()
        assert summary["deadline"] == 10.0
        assert summary["grace"] == 1.0
        assert summary["elapsed"] == 9.5
        assert summary["within_deadline"] is True
        assert summary["final_level"] == CLAMP_BOUND
        assert summary["clamped_stages"] == {CLAMP_BOUND: 1}


class TestExecutionConfigValidation:
    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            ExecutionConfig(resume=True)

    def test_deadline_and_grace_positive(self):
        with pytest.raises(ValueError):
            ExecutionConfig(deadline=0.0)


# ----------------------------------------------------------------------
# The journal file format.
# ----------------------------------------------------------------------
def _arrival(net="out", direction="rise", when=1.25e-11,
             cause=("a", "fall"), slew=3e-12, quality="qwm"):
    from repro.analysis.sta import ArrivalTime

    return ArrivalTime(net=net, direction=direction, time=when,
                       cause=cause, slew=slew, quality=quality)


class TestRunJournal:
    def test_roundtrip_is_exact(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path, "fp", design="d", stages=2, waves=1)
        assert journal.flush()
        stats = SimulationStats(steps=3, newton_iterations=4,
                                device_evaluations=5, wall_time=0.25)
        arrival = _arrival()
        assert journal.record_wave(0, ["s1", "s0"],
                                   {("out", "rise"): arrival}, stats)
        loaded = RunJournal.load(path)
        assert loaded.fingerprint == "fp"
        assert loaded.design == "d"
        assert loaded.completed_stages() == {"s0", "s1"}
        segments = list(loaded.replay())
        assert len(segments) == 1
        wave, names, deltas, seg_stats = segments[0]
        assert wave == 0 and names == ["s0", "s1"]
        # Bit-identical: JSON shortest-repr floats round-trip exactly.
        assert deltas[("out", "rise")] == arrival
        assert seg_stats.steps == 3 and seg_stats.wall_time == 0.25

    def test_record_wave_is_idempotent(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path, "fp")
        assert journal.record_wave(0, ["s"], {("n", "rise"): _arrival()},
                                   SimulationStats())
        assert not journal.record_wave(
            0, ["s"], {("n", "rise"): _arrival(when=9.9)},
            SimulationStats())
        assert len(RunJournal.load(path).segments) == 1

    def test_corrupt_tail_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path, "fp")
        journal.record_wave(0, ["s0"], {("a", "rise"): _arrival()},
                            SimulationStats())
        journal.record_wave(1, ["s1"], {("b", "rise"): _arrival()},
                            SimulationStats())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"wave": 2, "arrivals"')  # torn write
        loaded = RunJournal.load(path)
        assert sorted(loaded.segments) == [0, 1]
        assert loaded.dropped_lines == 1

    def test_unusable_files_raise_journal_error(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal.load(str(tmp_path / "missing.jsonl"))
        other = tmp_path / "other.json"
        other.write_text('{"not": "a journal"}\n')
        with pytest.raises(JournalError):
            RunJournal.load(str(other))

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        RunJournal(path, "fp-a").flush()
        loaded = RunJournal.load(path)
        loaded.require_fingerprint("fp-a")
        with pytest.raises(FingerprintMismatch):
            loaded.require_fingerprint("fp-b")

    def test_enospc_disables_durability_not_the_run(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        plan = FaultPlan((FaultSpec("journal_enospc", count=1),), seed=0)
        journal = RunJournal(path, "fp")
        with faults.installed(plan):
            assert journal.flush() is False
        assert journal.disabled
        assert not os.path.exists(path + ".tmp")
        assert journal.record_wave(0, ["s"], {}, SimulationStats()) \
            is False

    def test_fingerprint_tracks_inputs_and_options(self, tech, library,
                                                   decoder_graph):
        analyzer = StaticTimingAnalyzer(tech, library=library)
        base = run_fingerprint(decoder_graph, analyzer)
        assert base == run_fingerprint(decoder_graph, analyzer)
        seeded = run_fingerprint(decoder_graph, analyzer,
                                 {("a0", "rise"): 1e-12})
        assert seeded != base
        slewed = StaticTimingAnalyzer(tech, library=library,
                                      propagate_slews=True)
        assert run_fingerprint(decoder_graph, slewed) != base


# ----------------------------------------------------------------------
# Kill -> resume bit-identity (the acceptance criterion).
# ----------------------------------------------------------------------
def _journaled(tech, library, path, resume=False, workers=1):
    return StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(workers=workers,
                                  journal_path=str(path), resume=resume))


class TestKillResume:
    def test_serial_kill_then_resume_bit_identical(
            self, tech, library, decoder_graph, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan((FaultSpec("run_kill", wave=0, count=1),),
                         seed=0)
        with faults.installed(plan):
            with pytest.raises(RunKilled):
                _journaled(tech, library, path).analyze(decoder_graph)
        assert path.exists()
        resumed = _journaled(tech, library, path,
                             resume=True).analyze(decoder_graph)
        baseline = StaticTimingAnalyzer(
            tech, library=library).analyze(decoder_graph)
        assert resumed.arrivals == baseline.arrivals
        assert resumed.worst == baseline.worst
        assert resumed.resumed_waves >= 1
        assert not resumed.partial

    def test_double_resume_is_idempotent(self, tech, library,
                                         decoder_graph, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = _journaled(tech, library, path).analyze(decoder_graph)
        bytes_after_run = path.read_bytes()
        again = _journaled(tech, library, path,
                           resume=True).analyze(decoder_graph)
        # Every wave replays, nothing re-records, no bytes change.
        assert again.arrivals == first.arrivals
        assert again.resumed_waves == again.journal["waves"]
        assert path.read_bytes() == bytes_after_run

    def test_resume_missing_journal_starts_fresh(self, tech, library,
                                                 decoder_graph,
                                                 tmp_path):
        path = tmp_path / "journal.jsonl"
        result = _journaled(tech, library, path,
                            resume=True).analyze(decoder_graph)
        assert result.resumed_waves == 0
        assert path.exists()

    @pytest.mark.slow
    def test_process_kill_then_resume_bit_identical(
            self, tech, library, decoder_graph, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan((FaultSpec("run_kill", wave=0, count=1),),
                         seed=0)
        with faults.installed(plan):
            with pytest.raises(RunKilled):
                _journaled(tech, library, path,
                           workers=2).analyze(decoder_graph)
        resumed = _journaled(tech, library, path, resume=True,
                             workers=2).analyze(decoder_graph)
        baseline = StaticTimingAnalyzer(
            tech, library=library).analyze(decoder_graph)
        assert resumed.arrivals == baseline.arrivals
        assert resumed.resumed_waves >= 1

    def test_enospc_run_still_completes(self, tech, library,
                                        decoder_graph, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan((FaultSpec("journal_enospc", count=1),), seed=0)
        with faults.installed(plan):
            result = _journaled(tech, library,
                                path).analyze(decoder_graph)
        baseline = StaticTimingAnalyzer(
            tech, library=library).analyze(decoder_graph)
        assert result.journal["disabled"] is True
        assert result.arrivals == baseline.arrivals


# ----------------------------------------------------------------------
# Deadline-budgeted runs.
# ----------------------------------------------------------------------
class TestDeadlineRuns:
    def test_spent_deadline_degrades_to_bound_and_completes(
            self, tech, library, decoder_graph):
        result = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(deadline=1e-9)
        ).analyze(decoder_graph)
        assert result.worst is not None
        assert result.budget["final_level"] == CLAMP_BOUND
        qualities = {a.quality for a in result.arrivals.values()
                     if a.quality is not None}
        assert qualities == {"bounded"}

    def test_generous_deadline_never_clamps(self, tech, library,
                                            decoder_graph):
        plain = StaticTimingAnalyzer(
            tech, library=library).analyze(decoder_graph)
        budgeted = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(deadline=600.0)
        ).analyze(decoder_graph)
        assert budgeted.budget["final_level"] == CLAMP_FULL
        assert budgeted.budget["clamped_stages"] == {}
        assert budgeted.budget["within_deadline"] is True
        assert budgeted.degraded() == {}
        assert budgeted.arrivals == plain.arrivals

    def test_clamped_results_never_stored_to_shared_cache(
            self, tech, library, decoder_graph):
        analyzer = StaticTimingAnalyzer(tech, library=library)
        cache = StageResultCache()
        engine = ParallelStaEngine(
            analyzer, ExecutionConfig(deadline=1e-9, cache=True),
            cache=cache)
        result = engine.run(decoder_graph)
        assert result.worst is not None
        # Bounded answers are one run's compromise, not reusable truth.
        assert len(cache) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_clamped_run_counts_cache_misses_for_any_worker_count(
            self, tech, library, decoder_graph, workers):
        """A pooled clamped run counts its misses as in-process does.

        Every arc of a bound-clamped run looks the cache up and misses
        (nothing clamped is ever stored), whether the lookup happens in
        the main process or in a pool worker.
        """
        cache = StageResultCache()
        analyzer = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(workers=workers, cache=True,
                                      deadline=600.0),
            cache=cache)
        plan = FaultPlan((FaultSpec("deadline_exhaust", count=1),))
        with faults.installed(plan):
            result = analyzer.analyze(decoder_graph)
        qualities = {a.quality for a in result.arrivals.values()
                     if a.quality is not None}
        assert qualities == {"bounded"}
        assert (cache.hits, cache.misses, len(cache)) == (0, 28, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_stage_notes_its_wall_time(self, tech, library,
                                             decoder_graph, workers,
                                             monkeypatch):
        """A stage's cost is its wall time where it ran, in a pool
        worker too, and even when every arc comes from the cache."""
        cache = StageResultCache()
        StaticTimingAnalyzer(tech, library=library,
                             cache=cache).analyze(decoder_graph)
        costs = []
        note = AdmissionController.note_stage_cost

        def spy(controller, seconds):
            costs.append(seconds)
            note(controller, seconds)

        monkeypatch.setattr(AdmissionController, "note_stage_cost", spy)
        StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(workers=workers, deadline=600.0),
            cache=cache).analyze(decoder_graph)
        assert len(costs) == len(decoder_graph.stages)
        assert all(cost > 0 for cost in costs)


# ----------------------------------------------------------------------
# Graceful interrupt -> partial result -> resume to full.
# ----------------------------------------------------------------------
class TestInterruptResume:
    def test_interrupted_run_is_partial_then_resumes_full(
            self, tech, library, decoder_graph, tmp_path):
        path = tmp_path / "journal.jsonl"
        analyzer = StaticTimingAnalyzer(tech, library=library)
        engine = ParallelStaEngine(
            analyzer, ExecutionConfig(journal_path=str(path)))
        original = RunJournal.record_wave

        def stop_after_first_wave(journal, wave, names, deltas, stats):
            recorded = original(journal, wave, names, deltas, stats)
            engine._interrupt.set()
            return recorded

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(RunJournal, "record_wave",
                            stop_after_first_wave)
            partial = engine.run(decoder_graph)
        assert partial.partial
        assert len(partial.arrivals) < len(
            StaticTimingAnalyzer(tech, library=library)
            .analyze(decoder_graph).arrivals)
        resumed = _journaled(tech, library, path,
                             resume=True).analyze(decoder_graph)
        baseline = StaticTimingAnalyzer(
            tech, library=library).analyze(decoder_graph)
        assert not resumed.partial
        assert resumed.arrivals == baseline.arrivals


# ----------------------------------------------------------------------
# Worker-death recovery re-dispatches only the casualty.
# ----------------------------------------------------------------------
class TestWorkerDeathRecovery:
    @staticmethod
    def _chain_graph(tech, n=4):
        """An n-inverter chain: one stage per wave, so exactly one
        task is ever in flight and the crash casualty is determined."""
        from repro.io import parse_spice_netlist

        lines = []
        prev = "a"
        for i in range(n):
            out = f"n{i}"
            lines.append(f"MP{i} {out} {prev} VDD VDD pmos "
                         f"W=2u L=0.35u")
            lines.append(f"MN{i} {out} {prev} 0 0 nmos W=1u L=0.35u")
            lines.append(f"C{i} {out} 0 5f")
            prev = out
        lines += [".input a", f".output n{n - 1}"]
        netlist = parse_spice_netlist("\n".join(lines), tech,
                                      name="inv-chain")
        return extract_stages(netlist, tech=tech)

    @pytest.mark.slow
    def test_crash_redispatches_only_the_dead_stage(self, tech,
                                                    library):
        from repro.obs import ObsConfig, configure, disable, ledger
        from repro.resilience.chaos import _leaf_stage

        graph = self._chain_graph(tech)
        target = _leaf_stage(graph)
        plan = FaultPlan((FaultSpec("worker_crash", stage=target,
                                    count=1),), seed=0)
        configure(ObsConfig(enabled=True))
        try:
            metrics = ledger().metrics
            redispatch0 = metrics.counter(
                "sta.parallel.redispatch").total()
            with faults.installed(plan):
                result = StaticTimingAnalyzer(
                    tech, library=library,
                    execution=ExecutionConfig(workers=2)
                ).analyze(graph)
            redispatched = metrics.counter(
                "sta.parallel.redispatch").total() - redispatch0
        finally:
            disable()
        # Exactly the casualty re-runs in the parent; nothing else is
        # ever torn down and re-solved for one dead worker.
        assert redispatched == 1
        baseline = StaticTimingAnalyzer(tech,
                                        library=library).analyze(graph)
        assert result.arrivals == baseline.arrivals


# ----------------------------------------------------------------------
# Chaos matrix integration: the run-durability scenarios.
# ----------------------------------------------------------------------
JOURNAL_SCENARIOS = ["journal-kill-resume", "journal-enospc",
                     "journal-truncate", "deadline-exhaust"]


class TestChaosIntegration:
    def test_serial_durability_scenarios_absorbed(self, tech, library):
        from repro.resilience.chaos import run_matrix

        report = run_matrix(seed=0, tech=tech, library=library,
                            only=JOURNAL_SCENARIOS)
        for outcome in report.outcomes:
            assert outcome.absorbed, (outcome.name, outcome.absorbed_by,
                                      outcome.error)

    @pytest.mark.slow
    def test_process_kill_resume_scenario_absorbed(self, tech, library):
        from repro.resilience.chaos import run_matrix

        report = run_matrix(seed=0, tech=tech, library=library,
                            only=["journal-kill-resume-process"])
        outcome = report.outcomes[0]
        assert outcome.absorbed, (outcome.absorbed_by, outcome.error)


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
class TestCli:
    def _deck(self, tmp_path):
        deck = tmp_path / "inv.sp"
        deck.write_text(
            "Mp out a VDD VDD pmos W=2u L=0.35u\n"
            "Mn out a 0 0 nmos W=1u L=0.35u\n"
            "Cout out 0 5f\n"
            ".input a\n.output out\n")
        return deck

    def test_fail_on_degraded_gates_clamped_run(self, tmp_path, capsys):
        from repro.cli import main

        deck = self._deck(tmp_path)
        code = main(["sta", str(deck), "--deadline", "0.000000001",
                     "--fail-on-degraded"])
        captured = capsys.readouterr()
        assert code == 3
        assert "fail-on-degraded" in captured.err
        assert "Run budget:" in captured.out

    def test_journal_write_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        deck = self._deck(tmp_path)
        journal = tmp_path / "journal.jsonl"
        assert main(["sta", str(deck), "--journal",
                     str(journal)]) == 0
        header = json.loads(
            journal.read_text().splitlines()[0])
        assert header["format"] == FORMAT
        assert main(["sta", str(deck), "--journal", str(journal),
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "Run journal:" in out
