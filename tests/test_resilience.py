"""Resilience: escalation ladder, fault injection, chaos matrix.

Covers the contract DESIGN.md §10 states: a failed stage-arc solve
degrades ``qwm → qwm-retry → spice → bounded`` instead of killing the
run, every arrival is tagged with the rung that produced it, the
verdict "unsensitizable" (None) never escalates, and each injectable
fault class is absorbed deterministically by the rung the chaos matrix
expects.
"""

import json
import math
import os
import pickle

import pytest

from repro.analysis import StaticTimingAnalyzer
from repro.circuit import builders, extract_stages
from repro.core import QWMOptions
from repro.linalg.newton import NewtonConvergenceError
from repro.obs import configure_flight, disable_flight, frame, ledger
from repro.resilience import faults
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    StageTimeoutError,
)
from repro.resilience.ladder import (
    QUALITY_ORDER,
    merge_quality,
    perturbed_options,
)


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


# ----------------------------------------------------------------------
# Fault specs and plans.
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("no_such_kind")
        with pytest.raises(ValueError):
            FaultSpec("nan_table", fraction=1.5)
        with pytest.raises(ValueError):
            FaultSpec("newton_nonconverge", nth=0)
        with pytest.raises(ValueError):
            FaultSpec("nan_table", polarity="x")

    def test_plan_json_roundtrip(self):
        plan = FaultPlan((
            FaultSpec("newton_nonconverge", stage="s0",
                      rungs=("qwm", "qwm-retry"), count=3),
            FaultSpec("nan_table", fraction=0.5, polarity="p"),
        ), seed=7)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == 7
        assert clone.specs == plan.specs

    def test_plan_pickles(self):
        plan = FaultPlan((FaultSpec("worker_crash", stage="s0"),),
                         seed=3)
        plan.note_fired(0)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs
        assert clone.fired("worker_crash") == 1

    def test_arm_counting_nth_and_count(self):
        plan = FaultPlan((FaultSpec("newton_nonconverge", nth=2),
                          FaultSpec("newton_nonconverge", count=1)))
        # nth=2: only the second gated call fires.
        assert not plan._arm(0)
        assert plan._arm(0)
        assert not plan._arm(0)
        # count=1: only the first firing applies.
        assert plan._arm(1)
        assert not plan._arm(1)
        assert plan.fired("newton_nonconverge") == 2

    def test_nan_table_reaches_a_pickled_library(self, library):
        # The chaos recipe: poison a copy of an already-queried library.
        model = library.get("n")
        args = (model.grid.w_ref, model.grid.l_ref, 2.5, 2.0, 0.5)
        before = model.iv(*args)
        clone = pickle.loads(pickle.dumps(library))
        plan = FaultPlan((FaultSpec("nan_table", fraction=1.0),))
        cells = model.grid.vs_values.size * model.grid.vg_values.size
        assert faults.apply_table_faults(plan, clone) == cells
        assert math.isnan(clone.get("n").iv(*args))
        # Threshold and saturation columns stay finite.
        assert math.isfinite(clone.get("n").threshold(2.5, 2.0, 0.5))
        assert model.iv(*args) == before

    def test_installed_restores_previous(self):
        outer = faults.install(FaultPlan(seed=1))
        inner = FaultPlan(seed=2)
        with faults.installed(inner):
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer


class TestScopes:
    """Fault targeting reads the arc context of the open frames."""

    def test_scope_noop_without_plan(self):
        # With no plan and every view off nothing reads the context, so
        # the frame carrying it is the shared no-op.  (CI runs this
        # module with the flight view on, which does read it.)
        saved = ledger().flight_config
        disable_flight()
        try:
            with frame("resilience.rung", "qwm",
                       ctx={"stage": "s0", "rung": "qwm"}):
                assert ledger().context() == {}
        finally:
            configure_flight(saved)

    def test_scope_and_default_with_plan(self):
        with faults.installed(FaultPlan()):
            with frame("resilience.rung", "spice",
                       ctx={"stage": "s0", "rung": "spice"}):
                # An inner default never overrides what an outer frame
                # gives, but fills genuinely absent keys.
                with frame("qwm.solve", ctx={"rung": "qwm", "extra": 1}):
                    ctx = ledger().context()
                    assert ctx["rung"] == "spice"
                    assert ctx["extra"] == 1
            assert ledger().context() == {}

    def test_newton_gate_respects_stage_and_rung(self):
        spec = FaultSpec("newton_nonconverge", stage="s0",
                         rungs=("qwm",))
        with faults.installed(FaultPlan((spec,))):
            with frame("resilience.rung", "qwm",
                       ctx={"stage": "other", "rung": "qwm"}):
                assert not faults.newton_should_fail()
            with frame("resilience.rung", "spice",
                       ctx={"stage": "s0", "rung": "spice"}):
                assert not faults.newton_should_fail()
            with frame("resilience.rung", "qwm",
                       ctx={"stage": "s0", "rung": "qwm"}):
                assert faults.newton_should_fail()

    def test_worker_gate_noop_in_parent(self, tech, library,
                                        decoder_graph):
        plan = FaultPlan((FaultSpec("worker_crash"),))
        with faults.installed(plan):
            # In-process stages never arm a worker fault: must NOT crash.
            StaticTimingAnalyzer(tech, library=library).analyze(
                decoder_graph)
        assert plan.fired("worker_crash") == 0
        # Only a pool worker obeys an answer; no answer is a no-op.
        faults.obey_worker_fault(None)

    def test_casualty_counts_worker_fault_up_to_count(self):
        plan = FaultPlan((FaultSpec("worker_crash", stage="s0", count=1),
                          FaultSpec("worker_hang", stage="s1")))
        with faults.installed(plan):
            assert faults.worker_fault("other") is None  # another stage
            assert faults.worker_fault("s0").kind == "worker_crash"
            assert faults.worker_fault("s0") is None  # count spent
            assert faults.worker_fault("s1").kind == "worker_hang"
        assert plan.fired("worker_crash") == 1
        assert plan.fired("worker_hang") == 1

    def test_stage_timeout_needs_arc_scope(self):
        spec = FaultSpec("stage_timeout", timeout_seconds=0.0)
        with faults.installed(FaultPlan((spec,))):
            faults.check_stage_timeout()  # no sta.arc frame: no-op
            with frame("sta.arc", "s0", ctx={"arc_input": "a"}), \
                    frame("engine.evaluate", "s0", ctx={"stage": "s0"}):
                with pytest.raises(StageTimeoutError) as info:
                    faults.check_stage_timeout()
        assert info.value.stage == "s0"


# ----------------------------------------------------------------------
# Ladder mechanics.
# ----------------------------------------------------------------------
class TestLadderUnits:
    def test_quality_merge_is_worst_of(self):
        assert merge_quality(None, None) is None
        assert merge_quality("qwm", None) == "qwm"
        assert merge_quality("qwm", "spice") == "spice"
        assert merge_quality("bounded", "qwm-retry") == "bounded"
        # Rank order matches the documented ladder.
        assert QUALITY_ORDER == ("qwm", "qwm-retry", "spice", "bounded")

    def test_perturbed_options_relax_and_refine(self):
        base = QWMOptions()
        p1 = perturbed_options(base, 1)
        p2 = perturbed_options(base, 2)
        assert p1.cascade_substeps > base.cascade_substeps
        assert p2.cascade_substeps > p1.cascade_substeps
        assert p1.newton.abstol > base.newton.abstol
        assert p1.newton.max_iterations > base.newton.max_iterations
        assert p1.max_retries > base.max_retries


class TestLadderRungs:
    """Stage-arc evaluation under injected failures, one rung at a time."""

    @pytest.fixture()
    def inverter(self, tech):
        return builders.inverter(tech)

    def _arc(self, tech, library, stage):
        sta = StaticTimingAnalyzer(tech, library=library)
        return sta.stage_arc(stage, stage.outputs[0].name, "fall",
                             list(stage.inputs)[0])

    def test_clean_arc_is_qwm(self, tech, library, inverter):
        arc = self._arc(tech, library, inverter)
        assert arc is not None and arc[2] == "qwm"

    @pytest.mark.parametrize("rungs,expected", [
        (("qwm",), "qwm-retry"),
        (("qwm", "qwm-retry"), "spice"),
        (("qwm", "qwm-retry", "spice"), "bounded"),
    ])
    def test_injected_failure_lands_on_next_rung(
            self, tech, library, inverter, rungs, expected):
        spec = FaultSpec("newton_nonconverge", stage=inverter.name,
                         rungs=rungs)
        with faults.installed(FaultPlan((spec,))):
            arc = self._arc(tech, library, inverter)
        assert arc is not None
        delay, _, quality = arc
        assert quality == expected
        assert delay > 0

    def test_spice_rung_delay_close_to_qwm(self, tech, library,
                                           inverter):
        clean = self._arc(tech, library, inverter)
        spec = FaultSpec("newton_nonconverge", stage=inverter.name,
                         rungs=("qwm", "qwm-retry"))
        with faults.installed(FaultPlan((spec,))):
            degraded = self._arc(tech, library, inverter)
        assert degraded[2] == "spice"
        # Different engine, same physics: the degraded answer is an
        # estimate, not garbage.
        assert degraded[0] == pytest.approx(clean[0], rel=0.25)

    def test_unsensitizable_arc_stays_none(self, tech, library):
        # A pure NMOS stack cannot rise; the ladder must trust the
        # "no transition" verdict and NOT escalate to an invented
        # bound.
        stack = builders.nmos_stack(tech, 2, widths=[1e-6] * 2)
        sta = StaticTimingAnalyzer(tech, library=library)
        assert sta.stage_arc(stack, "out", "rise", "g1") is None

    def test_stage_timeout_fault_degrades_to_bound(self, tech, library,
                                                   inverter):
        spec = FaultSpec("stage_timeout", stage=inverter.name,
                         timeout_seconds=0.0)
        with faults.installed(FaultPlan((spec,))):
            arc = self._arc(tech, library, inverter)
        assert arc is not None and arc[2] == "bounded"

    def test_disabled_ladder_restores_legacy_none(self, tech, library,
                                                  inverter):
        """``escalate=False`` is the pre-ladder behavior: a broken solve
        surfaces as the historical silent None arc (QWM's per-region
        fallbacks absorb the Newton failures, the waveform never
        crosses mid-rail, no rung recovers it)."""
        sta = StaticTimingAnalyzer(tech, library=library, escalate=False)
        spec = FaultSpec("newton_nonconverge", stage=inverter.name)
        with faults.installed(FaultPlan((spec,))):
            legacy = sta.stage_arc(inverter, inverter.outputs[0].name,
                                   "fall", list(inverter.inputs)[0])
            recovered = self._arc(tech, library, inverter)
        assert legacy is None
        assert recovered is not None and recovered[2] != "qwm"


class TestOneArcPath:
    """Every arc goes through ``EscalationLadder.evaluate_arc``, and
    every rung times the one arc the ladder module states."""

    #: A Newton failure on every iterative rung.
    ITERATIVE = ("qwm", "qwm-retry", "spice")

    @pytest.fixture()
    def inverter(self, tech):
        return builders.inverter(tech)

    @pytest.fixture()
    def journal(self, monkeypatch):
        """Record rung frames and sensitization sweeps, in call order."""
        from repro.resilience import ladder

        events = []
        real_frame, real_sweep = ladder.frame, ladder.sensitizations

        def spy_frame(name, tag=None, **kwargs):
            if name == "resilience.rung":
                events.append(tag)
            return real_frame(name, tag, **kwargs)

        def spy_sweep(*args):
            events.append("sweep")
            return real_sweep(*args)

        monkeypatch.setattr(ladder, "frame", spy_frame)
        monkeypatch.setattr(ladder, "sensitizations", spy_sweep)
        return events

    @pytest.mark.parametrize("clamp,escalate", [
        (None, True), ("no-spice", True), ("bound", True), (None, False),
    ])
    def test_stage_arc_calls_the_ladder_once(self, tech, library,
                                             inverter, monkeypatch,
                                             clamp, escalate):
        from repro.resilience.ladder import EscalationLadder

        calls = []
        real = EscalationLadder.evaluate_arc

        def spy(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(EscalationLadder, "evaluate_arc", spy)
        sta = StaticTimingAnalyzer(tech, library=library,
                                   escalate=escalate)
        arc = sta.stage_arc(inverter, "out", "fall", "a", clamp=clamp)
        assert arc is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("clamp,rungs", [
        (None, ["qwm", "qwm-retry", "spice", "bounded"]),
        ("no-spice", ["qwm", "qwm-retry", "bounded"]),
        ("bound", ["bounded"]),
    ])
    def test_clamp_picks_the_rungs_and_each_reads_the_sweep(
            self, tech, library, inverter, journal, clamp, rungs):
        spec = FaultSpec("newton_nonconverge", stage=inverter.name,
                         rungs=self.ITERATIVE)
        sta = StaticTimingAnalyzer(tech, library=library)
        with faults.installed(FaultPlan((spec,))):
            arc = sta.stage_arc(inverter, "out", "fall", "a",
                                clamp=clamp)
        assert arc is not None and arc[2] == "bounded"
        expected = []
        for rung in rungs:
            expected += [rung, "sweep"]
        assert journal == expected

    def test_without_escalation_qwm_runs_alone(self, tech, library,
                                               inverter, journal):
        sta = StaticTimingAnalyzer(tech, library=library, escalate=False)
        arc = sta.stage_arc(inverter, "out", "fall", "a", clamp="bound")
        assert arc is not None and arc[2] == "qwm"
        assert journal == ["qwm", "sweep"]

    def test_pool_workers_keep_escalation_off(self, tech, library,
                                              decoder_graph):
        """A pooled ``escalate=False`` run drops the failed arcs exactly
        as the in-process run does, instead of escalating them."""
        from repro.analysis.parallel import ExecutionConfig

        spec = FaultSpec("newton_nonconverge",
                         stage=decoder_graph.stages[0].name)
        runs = []
        for workers in (1, 2):
            sta = StaticTimingAnalyzer(
                tech, library=library, escalate=False,
                execution=ExecutionConfig(workers=workers))
            with faults.installed(FaultPlan((spec,))):
                runs.append(sta.analyze(decoder_graph).arrivals)
        assert runs[0] == runs[1]
        assert {a.quality for a in runs[1].values()} <= {None, "qwm"}

    def test_ladder_reads_only_tech_and_evaluator(self, tech, library,
                                                  inverter):
        from types import SimpleNamespace

        from repro.core import WaveformEvaluator
        from repro.resilience.ladder import EscalationLadder

        owner = SimpleNamespace(
            tech=tech, evaluator=WaveformEvaluator(tech, library=library))
        spec = FaultSpec("newton_nonconverge", stage=inverter.name,
                         rungs=self.ITERATIVE)
        with faults.installed(FaultPlan((spec,))):
            arc = EscalationLadder(owner).evaluate_arc(
                inverter, "out", "fall", "a")
        assert arc is not None and arc[2] == "bounded"


# ----------------------------------------------------------------------
# Satellite hooks: adaptive budget, dc-fallback narrowing, cache store.
# ----------------------------------------------------------------------
class TestAdaptiveBudget:
    def test_step_budget_raises_structured(self, tech):
        from repro.spice import (AdaptiveOptions,
                                 AdaptiveTransientSimulator, StepSource,
                                 TransientBudgetExceeded)

        inv = builders.inverter(tech)
        simulator = AdaptiveTransientSimulator(
            inv, tech, AdaptiveOptions(t_stop=250e-12, max_steps=5))
        with pytest.raises(TransientBudgetExceeded) as info:
            simulator.run({"a": StepSource(0.0, tech.vdd, 20e-12)})
        assert info.value.attempts >= 5
        assert info.value.t_reached < 250e-12

    def test_budget_validation(self):
        from repro.spice import AdaptiveOptions

        with pytest.raises(ValueError):
            AdaptiveOptions(max_steps=0)
        with pytest.raises(ValueError):
            AdaptiveOptions(max_wall_seconds=0.0)


class TestDcFallback:
    def _evaluate(self, tech, library):
        from repro.core import WaveformEvaluator
        from repro.spice import StepSource

        inv = builders.inverter(tech)
        evaluator = WaveformEvaluator(tech, library=library)
        return evaluator.evaluate(
            inv, "out", "fall",
            {"a": StepSource(0.0, tech.vdd, 0.0)}, precharge="dc")

    def test_numerical_dc_failure_degrades(self, tech, library,
                                           monkeypatch):
        import numpy as np

        import repro.spice.dc as dc

        def boom(*args, **kwargs):
            raise NewtonConvergenceError(
                "dc blew up", last_x=np.zeros(1),
                last_residual_norm=float("inf"))

        monkeypatch.setattr(dc, "solve_dc", boom)
        solution = self._evaluate(tech, library)
        assert solution.delay() is not None

    def test_programming_error_propagates(self, tech, library,
                                          monkeypatch):
        import repro.spice.dc as dc

        def boom(*args, **kwargs):
            raise TypeError("wrong arguments")

        monkeypatch.setattr(dc, "solve_dc", boom)
        with pytest.raises(TypeError):
            self._evaluate(tech, library)


class TestStoreHardening:
    def _store_with_entries(self, tmp_path):
        from repro.analysis.parallel import StageResultCache, arc_cache_key

        path = str(tmp_path / "store.json")
        cache = StageResultCache(path=path)
        cache.put(arc_cache_key("fp", "out", "fall", "a", None),
                  (1e-11, 2e-11, "qwm"))
        cache.put(arc_cache_key("fp", "out", "rise", "a", None), None)
        cache.save()
        return path

    def test_truncated_store_quarantined(self, tmp_path):
        from repro.analysis.parallel import StageResultCache

        path = self._store_with_entries(tmp_path)
        faults.truncate_file(path, keep_fraction=0.5)
        reloaded = StageResultCache(path=path)
        assert len(reloaded) == 0
        assert (tmp_path / "store.json.corrupt").exists()

    def test_version_mismatch_quarantined(self, tmp_path):
        """A store from another schema version cannot be trusted as
        data (its key layout may not mean what this code assumes), so
        it quarantines exactly like corrupt JSON."""
        from repro.analysis.parallel import StageResultCache

        path = self._store_with_entries(tmp_path)
        with open(path) as handle:
            document = json.load(handle)
        document["version"] = 99
        with open(path, "w") as handle:
            json.dump(document, handle)
        reloaded = StageResultCache(path=path)
        assert len(reloaded) == 0
        assert (tmp_path / "store.json.corrupt").exists()

    def test_save_merges_concurrent_writer(self, tmp_path):
        """Entries persisted by another process since our load survive
        a save (ours win on conflict)."""
        from repro.analysis.parallel import StageResultCache, arc_cache_key

        path = self._store_with_entries(tmp_path)
        other = StageResultCache(path=path)
        other.put(arc_cache_key("fp2", "out", "rise", "b", None),
                  (3e-11, 4e-11, "qwm"))
        other.save()
        merged = StageResultCache(path=path)
        assert len(merged) == 3

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        path = self._store_with_entries(tmp_path)
        assert not os.path.exists(path + ".tmp")

    def test_intact_store_roundtrips(self, tmp_path):
        from repro.analysis.parallel import StageResultCache, arc_cache_key

        path = self._store_with_entries(tmp_path)
        reloaded = StageResultCache(path=path)
        assert len(reloaded) == 2
        hit = reloaded.get(arc_cache_key("fp", "out", "fall", "a", None))
        assert hit == (1e-11, 2e-11, "qwm")


# ----------------------------------------------------------------------
# Full-run degradation: the acceptance criterion.
# ----------------------------------------------------------------------
class TestAnalyzeDegradation:
    def test_permanent_failure_is_contained(self, tech, library,
                                            decoder_graph):
        """One permanently non-converging stage: the run completes,
        its arrivals are tagged with the absorbing rung, and every
        arrival outside its fanout is bit-identical to a clean run."""
        from repro.resilience.chaos import _fanout_nets, _leaf_stage

        clean = StaticTimingAnalyzer(tech, library=library).analyze(
            decoder_graph)
        target = _leaf_stage(decoder_graph)
        spec = FaultSpec("newton_nonconverge", stage=target,
                         rungs=("qwm", "qwm-retry"))
        with faults.installed(FaultPlan((spec,))):
            injected = StaticTimingAnalyzer(
                tech, library=library).analyze(decoder_graph)

        assert injected.worst is not None
        affected = _fanout_nets(decoder_graph, target)
        assert affected
        degraded = injected.degraded()
        assert degraded
        for event, arrival in degraded.items():
            assert event[0] in affected
            assert arrival.quality in ("spice", "bounded")
        for event, reference in clean.arrivals.items():
            if event[0] in affected:
                continue
            assert injected.arrivals[event].time == reference.time

    def test_nan_table_never_reports_early(self, tech, library,
                                           decoder_graph):
        """A NaN-poisoned table escalates the arc.  A NaN guess raises
        ``ValueError`` in the cell lookup; when the sweep read that as
        "no conducting path" it solved another side-input assignment
        instead, and ``n1`` fell 27.6% early on this decoder."""
        clean = StaticTimingAnalyzer(tech, library=library).analyze(
            decoder_graph)
        plan = FaultPlan((FaultSpec("nan_table", fraction=0.25,
                                    polarity="n"),), seed=0)
        poisoned = pickle.loads(pickle.dumps(library))
        faults.apply_table_faults(plan, poisoned)
        with faults.installed(plan):
            result = StaticTimingAnalyzer(
                tech, library=poisoned).analyze(decoder_graph)
        assert result.degraded()
        for event, reference in clean.arrivals.items():
            assert result.arrivals[event].time == pytest.approx(
                reference.time, rel=0.05), event

    def test_solver_value_error_escalates(self, tech, library,
                                          decoder_graph, monkeypatch):
        """A ``ValueError`` from inside the QWM solve is a solver
        failure: the stage's arcs degrade, and none is dropped as an
        unsensitizable assignment."""
        from repro.core.qwm import QWMSolver
        from repro.resilience.chaos import _leaf_stage

        clean = StaticTimingAnalyzer(tech, library=library).analyze(
            decoder_graph)
        target = _leaf_stage(decoder_graph)
        original = QWMSolver._run_schedule

        def run_schedule(self, inputs, initial, t_start):
            if self.path.stage.name == target:
                raise ValueError("cannot convert float NaN to integer")
            return original(self, inputs, initial, t_start)

        monkeypatch.setattr(QWMSolver, "_run_schedule", run_schedule)
        result = StaticTimingAnalyzer(tech, library=library).analyze(
            decoder_graph)
        outputs = {o.name for o in decoder_graph.stage(target).outputs}
        events = [e for e in clean.arrivals if e[0] in outputs]
        assert events
        degraded = result.degraded()
        for event in events:
            assert event in degraded, event
        assert set(result.arrivals) == set(clean.arrivals)

    def test_quality_propagates_downstream(self, tech, library,
                                           decoder_graph):
        """An arrival fed by a degraded predecessor inherits (at
        least) the predecessor's rung."""
        # Target a *non*-leaf stage: the first stage that feeds
        # another stage.
        consumed = set()
        for stage in decoder_graph.stages:
            consumed.update(stage.inputs)
        target = next(s for s in sorted(decoder_graph.stages,
                                        key=lambda s: s.name)
                      if any(o.name in consumed for o in s.outputs))
        from repro.resilience.chaos import _fanout_nets

        spec = FaultSpec("newton_nonconverge", stage=target.name,
                         rungs=("qwm", "qwm-retry"))
        with faults.installed(FaultPlan((spec,))):
            result = StaticTimingAnalyzer(
                tech, library=library).analyze(decoder_graph)
        cone = _fanout_nets(decoder_graph, target.name)
        downstream = cone - {o.name for o in target.outputs}
        assert downstream
        degraded_nets = {e[0] for e in result.degraded()}
        # The fault's own outputs degrade, and at least one
        # transitively-fed net inherits the tag.
        assert {o.name for o in target.outputs} & degraded_nets
        assert downstream & degraded_nets


# ----------------------------------------------------------------------
# The chaos matrix.
# ----------------------------------------------------------------------
SERIAL_SCENARIOS = ["baseline", "newton-transient", "newton-persistent",
                    "newton-exhaustive", "stage-timeout",
                    "cache-truncate"]


class TestChaosMatrix:
    def test_serial_scenarios_absorbed(self, tech, library):
        from repro.resilience.chaos import run_matrix

        report = run_matrix(seed=0, tech=tech, library=library,
                            only=SERIAL_SCENARIOS)
        for outcome in report.outcomes:
            assert outcome.absorbed, (outcome.name, outcome.absorbed_by,
                                      outcome.error)
        assert [o.name for o in report.outcomes] == SERIAL_SCENARIOS

    def test_nan_table_absorbed_and_deterministic(self, tech, library):
        from repro.resilience.chaos import run_matrix

        first = run_matrix(seed=0, tech=tech, library=library,
                           only=["nan-table"])
        second = run_matrix(seed=0, tech=tech, library=library,
                            only=["nan-table"])
        a, b = first.outcomes[0], second.outcomes[0]
        assert a.absorbed and b.absorbed
        assert a.absorbed_by == b.absorbed_by
        assert a.degraded_events == b.degraded_events

    @pytest.mark.slow
    def test_worker_scenarios_absorbed(self, tech, library):
        from repro.resilience.chaos import run_matrix

        outcomes = run_matrix(seed=0, tech=tech, library=library,
                              only=["worker-crash", "worker-hang"]
                              ).outcomes
        for _ in range(2):
            outcomes += run_matrix(seed=0, tech=tech, library=library,
                                   only=["worker-crash"]).outcomes
        assert [o.name for o in outcomes].count("worker-crash") == 3
        for outcome in outcomes:
            assert outcome.absorbed, (outcome.name, outcome.absorbed_by,
                                      outcome.error)
            # The parent arms the fault once per run (count=1), so the
            # resubmitted crasher runs cleanly on the fresh pool and
            # exactly one stage is re-run in the parent.
            assert outcome.redispatches == 1
            assert outcome.faults_injected == 1
            # Serial re-dispatch is the same arithmetic: every single
            # arrival matches the baseline bit for bit.
            assert outcome.unaffected_identical

    def test_unknown_scenario_rejected(self, tech, library):
        from repro.resilience.chaos import run_matrix

        with pytest.raises(ValueError):
            run_matrix(tech=tech, library=library, only=["nope"])

    def test_report_json_shape(self, tech, library):
        from repro.resilience.chaos import format_report, run_matrix

        report = run_matrix(seed=0, tech=tech, library=library,
                            only=["baseline"])
        document = report.to_json()
        assert document["absorbed_all"] is True
        assert document["outcomes"][0]["name"] == "baseline"
        text = format_report(report)
        assert "baseline" in text and "scenarios absorbed" in text


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
class TestChaosCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "worker-crash" in out and "nan-table" in out

    def test_single_scenario_json(self, tech, library, capsys,
                                  monkeypatch):
        from repro.cli import main
        import repro.resilience.chaos as chaos_mod

        # Reuse the session library (the CLI would otherwise
        # re-characterize from scratch).
        original = chaos_mod.run_matrix

        def with_library(**kwargs):
            kwargs.setdefault("tech", tech)
            kwargs.setdefault("library", library)
            return original(**kwargs)

        monkeypatch.setattr(chaos_mod, "run_matrix", with_library)
        code = main(["chaos", "--scenario", "newton-transient",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        document = json.loads(out)
        assert document["absorbed_all"] is True
        assert document["outcomes"][0]["absorbed_by"] == "qwm-retry"

    def test_sta_no_escalation_flag(self, tmp_path, capsys):
        from repro.cli import main

        deck = tmp_path / "inv.sp"
        deck.write_text(
            "Mp out a VDD VDD pmos W=2u L=0.35u\n"
            "Mn out a 0 0 nmos W=1u L=0.35u\n"
            "Cout out 0 5f\n"
            ".input a\n.output out\n")
        assert main(["sta", str(deck), "--no-escalation"]) == 0
        out = capsys.readouterr().out
        assert "Arrival report" in out
