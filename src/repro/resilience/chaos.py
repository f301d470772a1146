"""Chaos harness: prove each fault class degrades to the right rung.

The escalation ladder (:mod:`repro.resilience.ladder`) claims that any
solver failure is absorbed by a deeper rung and the analysis still
completes.  This module makes that claim testable: it runs a fixed
scenario matrix — one scenario per fault class from
:data:`repro.resilience.faults.FAULT_KINDS` plus a fault-free baseline —
against a real multi-stage design (the 2-bit decoder), injects each
fault deterministically via a seeded :class:`~repro.resilience.faults.
FaultPlan`, and reports which rung absorbed it.

A scenario passes when

* the analysis completes (no exception escapes ``analyze``),
* the absorbing rung matches the scenario's expectation (read from the
  arrival quality tags, the parallel re-dispatch counter, or the cache
  quarantine counter, depending on the fault class), and
* every arrival *outside* the injected fault's fanout cone is
  bit-identical to the fault-free baseline — degradation must be
  contained, not smeared over the design.

Everything is deterministic under a fixed seed: fault targeting is
counting-based, table poisoning draws from ``default_rng(seed)``, and
the target stage is resolved structurally (the first leaf stage in
name order) rather than by timing.

Used by ``repro chaos`` (CLI) and ``tests/test_resilience.py``.
"""

from __future__ import annotations

import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import ObsConfig, configure, disable, ledger
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.ladder import QUALITY_QWM, QUALITY_RANK

__all__ = [
    "ChaosScenario", "ScenarioOutcome", "ChaosReport",
    "default_scenarios", "run_matrix", "format_report",
]

#: Absorbing mechanisms that are not ladder rungs.
ABSORB_REDISPATCH = "serial-redispatch"
ABSORB_QUARANTINE = "store-quarantine"
ABSORB_RESUME = "journal-resume"
ABSORB_JOURNAL_DISABLED = "journal-disabled"


@dataclass(frozen=True)
class ChaosScenario:
    """One row of the chaos matrix.

    Attributes:
        name: scenario identifier (CLI ``--scenario`` selects by it).
        description: one-line human summary.
        specs: the faults the scenario injects (empty = baseline).
        expect: acceptable absorbing mechanisms — ladder rung names,
            :data:`ABSORB_REDISPATCH`, or :data:`ABSORB_QUARANTINE`.
        workers / stage_timeout: execution configuration
            (``workers > 1`` runs the stages on a process pool).
        corrupt_library: poison a *private copy* of the table library
            with the plan's ``nan_table`` specs before the run.
        corrupt_store: round-trip the run through an on-disk stage
            cache that the plan's ``cache_truncate`` specs mangle
            between write and reload.
        scoped_to_stage: the fault only touches the target stage, so
            arrivals outside its fanout cone must match the baseline
            bit for bit.
        runner: name of a special run recipe (``"kill_resume"``,
            ``"enospc"``, ``"truncate_resume"``, ``"deadline"``) for
            scenarios that need more than a single ``analyze`` call —
            e.g. kill the run, then resume it from the journal.
        deadline: run budget [s] handed to the admission controller by
            the ``"deadline"`` runner.
    """

    name: str
    description: str
    specs: Tuple[FaultSpec, ...] = ()
    expect: Tuple[str, ...] = (QUALITY_QWM,)
    workers: int = 1
    stage_timeout: Optional[float] = None
    corrupt_library: bool = False
    corrupt_store: bool = False
    scoped_to_stage: bool = True
    runner: Optional[str] = None
    deadline: Optional[float] = None


@dataclass
class ScenarioOutcome:
    """What actually happened when one scenario ran."""

    name: str
    expect: Tuple[str, ...]
    absorbed_by: Optional[str] = None
    completed: bool = False
    degraded_events: int = 0
    faults_injected: int = 0
    escalations: int = 0
    redispatches: int = 0
    quarantines: int = 0
    unaffected_identical: Optional[bool] = None
    wall_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def absorbed(self) -> bool:
        """Scenario verdict: completed, right rung, contained."""
        return (self.completed
                and self.absorbed_by in self.expect
                and self.unaffected_identical is not False)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "expect": list(self.expect),
            "absorbed_by": self.absorbed_by,
            "absorbed": self.absorbed,
            "completed": self.completed,
            "degraded_events": self.degraded_events,
            "faults_injected": self.faults_injected,
            "escalations": self.escalations,
            "redispatches": self.redispatches,
            "quarantines": self.quarantines,
            "unaffected_identical": self.unaffected_identical,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
        }


@dataclass
class ChaosReport:
    """The full matrix result."""

    seed: int
    bits: int
    target_stage: str
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    @property
    def absorbed_all(self) -> bool:
        return all(o.absorbed for o in self.outcomes)

    def outcome(self, name: str) -> Optional[ScenarioOutcome]:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        return None

    def to_json(self) -> Dict[str, Any]:
        return {"seed": self.seed, "bits": self.bits,
                "target_stage": self.target_stage,
                "absorbed_all": self.absorbed_all,
                "outcomes": [o.to_json() for o in self.outcomes]}


def default_scenarios(target: str) -> List[ChaosScenario]:
    """The standard matrix: every fault class plus a clean baseline.

    Args:
        target: stage name the stage-scoped faults aim at (resolved by
            :func:`run_matrix` as the first leaf stage in name order).
    """
    newton = "newton_nonconverge"
    return [
        ChaosScenario(
            "baseline",
            "no fault injected; every arrival stays at the qwm rung",
            expect=(QUALITY_QWM,)),
        ChaosScenario(
            "nan-table",
            "NaN-poisoned NMOS characterization cells; the analytic-"
            "model SPICE rung is immune",
            specs=(FaultSpec("nan_table", fraction=0.25, polarity="n"),),
            expect=("spice", "bounded"),
            corrupt_library=True, scoped_to_stage=False),
        ChaosScenario(
            "newton-transient",
            "Newton dies on the plain qwm rung only; the perturbed "
            "retry absorbs it",
            specs=(FaultSpec(newton, stage=target, rungs=("qwm",)),),
            expect=("qwm-retry",)),
        ChaosScenario(
            "newton-persistent",
            "Newton dies on both QWM rungs; the SPICE rung absorbs it",
            specs=(FaultSpec(newton, stage=target,
                             rungs=("qwm", "qwm-retry")),),
            expect=("spice",)),
        ChaosScenario(
            "newton-exhaustive",
            "Newton dies on every iterative rung; only the iteration-"
            "free switch-level bound answers",
            specs=(FaultSpec(newton, stage=target,
                             rungs=("qwm", "qwm-retry", "spice")),),
            expect=("bounded",)),
        ChaosScenario(
            "stage-timeout",
            "the stage's wall-clock budget expires immediately; the "
            "ladder skips straight to the bound",
            specs=(FaultSpec("stage_timeout", stage=target,
                             timeout_seconds=0.0),),
            expect=("bounded",)),
        ChaosScenario(
            "worker-crash",
            "a process-pool worker hard-exits mid-stage; the parent "
            "re-dispatches the stage serially",
            specs=(FaultSpec("worker_crash", stage=target, count=1),),
            expect=(ABSORB_REDISPATCH,),
            workers=2),
        ChaosScenario(
            "worker-hang",
            "a worker sleeps past the stage watchdog; the parent "
            "abandons it and re-dispatches serially",
            specs=(FaultSpec("worker_hang", stage=target,
                             hang_seconds=2.5, count=1),),
            expect=(ABSORB_REDISPATCH,),
            workers=2, stage_timeout=0.6),
        ChaosScenario(
            "cache-truncate",
            "the on-disk stage-result store is truncated between runs; "
            "the loader quarantines it and re-solves",
            specs=(FaultSpec("cache_truncate", fraction=0.5),),
            expect=(ABSORB_QUARANTINE,),
            corrupt_store=True),
        ChaosScenario(
            "journal-kill-resume",
            "the run is hard-killed right after a wave checkpoint; "
            "--resume replays the journal and finishes bit-identically",
            specs=(FaultSpec("run_kill", wave=0, count=1),),
            expect=(ABSORB_RESUME,),
            runner="kill_resume"),
        ChaosScenario(
            "journal-kill-resume-process",
            "the same between-wave kill, but under the process pool",
            specs=(FaultSpec("run_kill", wave=0, count=1),),
            expect=(ABSORB_RESUME,),
            workers=2, runner="kill_resume"),
        ChaosScenario(
            "journal-enospc",
            "the journal flush hits ENOSPC; journaling self-disables "
            "and the analysis still completes cleanly",
            specs=(FaultSpec("journal_enospc", count=1),),
            expect=(ABSORB_JOURNAL_DISABLED,),
            runner="enospc"),
        ChaosScenario(
            "journal-truncate",
            "the journal tail is truncated between runs; --resume "
            "drops the damaged lines and replays what survived",
            specs=(FaultSpec("journal_truncate", fraction=0.6),),
            expect=(ABSORB_RESUME,),
            runner="truncate_resume"),
        ChaosScenario(
            "deadline-exhaust",
            "the run budget is forced to exhaustion mid-run; the "
            "admission controller clamps the ladder to the bound and "
            "the run still finishes",
            specs=(FaultSpec("deadline_exhaust", nth=2),),
            expect=("bounded",),
            scoped_to_stage=False,
            runner="deadline", deadline=60.0),
    ]


# ----------------------------------------------------------------------
# Matrix execution.
# ----------------------------------------------------------------------
def _leaf_stage(graph) -> str:
    """First stage (name order) whose outputs feed no other stage."""
    consumed: Set[str] = set()
    for stage in graph.stages:
        consumed.update(stage.inputs)
    for stage in sorted(graph.stages, key=lambda s: s.name):
        if not any(out.name in consumed for out in stage.outputs):
            return stage.name
    return sorted(s.name for s in graph.stages)[0]


def _fanout_nets(graph, stage_name: str) -> Set[str]:
    """Transitive fanout cone of one stage's outputs (net names)."""
    consumers: Dict[str, List] = {}
    for stage in graph.stages:
        for name in stage.inputs:
            consumers.setdefault(name, []).append(stage)
    affected: Set[str] = set()
    frontier = [s for s in graph.stages if s.name == stage_name]
    while frontier:
        stage = frontier.pop()
        for out in stage.outputs:
            if out.name in affected:
                continue
            affected.add(out.name)
            frontier.extend(consumers.get(out.name, ()))
    return affected


def _worst_quality(result) -> str:
    worst = QUALITY_QWM
    for arrival in result.arrivals.values():
        quality = arrival.quality
        if quality is not None and QUALITY_RANK.get(quality, 0) > \
                QUALITY_RANK.get(worst, 0):
            worst = quality
    return worst


def _unaffected_match(result, baseline, affected_nets: Set[str]) -> bool:
    """Bit-identical arrivals everywhere outside the fault's cone."""
    for event, reference in baseline.arrivals.items():
        if event[0] in affected_nets:
            continue
        arrival = result.arrivals.get(event)
        if arrival is None or arrival.time != reference.time:
            return False
    return True


class _Counters:
    """Before/after deltas of the resilience counters."""

    NAMES = ("resilience.faults.injected", "resilience.escalations",
             "sta.parallel.redispatch", "cache.store_corrupt")

    def __init__(self) -> None:
        metrics = ledger().metrics
        self._before = {name: metrics.counter(name).total()
                        for name in self.NAMES}

    def delta(self, name: str) -> int:
        metrics = ledger().metrics
        return int(metrics.counter(name).total() - self._before[name])


def _run_scenario(scenario: ChaosScenario, seed: int, tech, library,
                  graph, baseline, affected_nets: Set[str]
                  ) -> ScenarioOutcome:
    from repro.analysis import StaticTimingAnalyzer
    from repro.analysis.parallel import ExecutionConfig

    outcome = ScenarioOutcome(name=scenario.name, expect=scenario.expect)
    plan = FaultPlan(scenario.specs, seed=seed)
    counters = _Counters()
    run_library = library
    if scenario.corrupt_library:
        # A private copy: the shared (session) library must never see
        # the poison — exactly how a corrupted characterization
        # artifact would arrive without touching the golden models.
        run_library = pickle.loads(pickle.dumps(library))
        faults.apply_table_faults(plan, run_library)

    execution = ExecutionConfig(workers=scenario.workers,
                                stage_timeout=scenario.stage_timeout)

    mechanism: Optional[str] = None
    started = time.perf_counter()
    try:
        with faults.installed(plan):
            if scenario.runner is not None:
                result, mechanism = _RUNNERS[scenario.runner](
                    scenario, plan, tech, run_library, graph)
            elif scenario.corrupt_store:
                result = _run_store_scenario(plan, tech, run_library,
                                             graph)
            else:
                analyzer = StaticTimingAnalyzer(
                    tech, library=run_library, execution=execution)
                result = analyzer.analyze(graph)
        outcome.completed = result.worst is not None
    except Exception as exc:  # noqa: BLE001 - verdict, not control flow
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.wall_seconds = time.perf_counter() - started
        return outcome
    outcome.wall_seconds = time.perf_counter() - started

    outcome.faults_injected = counters.delta("resilience.faults.injected")
    outcome.escalations = counters.delta("resilience.escalations")
    outcome.redispatches = counters.delta("sta.parallel.redispatch")
    outcome.quarantines = counters.delta("cache.store_corrupt")
    outcome.degraded_events = len(result.degraded())

    if mechanism is not None:
        outcome.absorbed_by = mechanism
    elif outcome.redispatches > 0:
        outcome.absorbed_by = ABSORB_REDISPATCH
    elif outcome.quarantines > 0:
        outcome.absorbed_by = ABSORB_QUARANTINE
    else:
        outcome.absorbed_by = _worst_quality(result)

    if scenario.name == "baseline":
        outcome.unaffected_identical = True
    elif scenario.scoped_to_stage:
        cone = affected_nets if scenario.specs and \
            scenario.specs[0].stage is not None else set()
        outcome.unaffected_identical = _unaffected_match(
            result, baseline, cone)
    return outcome


# ----------------------------------------------------------------------
# Special run recipes (ChaosScenario.runner dispatch).
#
# Each runner returns ``(result, mechanism)``: the StaResult the
# verdict is read from, and the absorbing mechanism when it is not a
# ladder rung (None falls through to the worst arrival quality).
# ----------------------------------------------------------------------
def _journaled_analyzer(scenario, tech, library, path: str,
                        resume: bool = False, deadline=None):
    from repro.analysis import StaticTimingAnalyzer
    from repro.analysis.parallel import ExecutionConfig

    return StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(
            workers=scenario.workers, journal_path=path, resume=resume,
            deadline=deadline))


def _runner_kill_resume(scenario, plan, tech, library, graph):
    """Journaled run killed between waves, then resumed to completion."""
    from repro.resilience.faults import RunKilled

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path = f"{tmp}/run-journal.jsonl"
        try:
            _journaled_analyzer(scenario, tech, library,
                                path).analyze(graph)
        except RunKilled:
            pass
        result = _journaled_analyzer(scenario, tech, library, path,
                                     resume=True).analyze(graph)
    mechanism = (ABSORB_RESUME
                 if getattr(result, "resumed_waves", 0) >= 1 else None)
    return result, mechanism


def _runner_enospc(scenario, plan, tech, library, graph):
    """Journaled run whose flush hits ENOSPC; analysis must survive."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path = f"{tmp}/run-journal.jsonl"
        result = _journaled_analyzer(scenario, tech, library,
                                     path).analyze(graph)
    journal = getattr(result, "journal", None)
    mechanism = (ABSORB_JOURNAL_DISABLED
                 if journal and journal.get("disabled") else None)
    return result, mechanism


def _runner_truncate_resume(scenario, plan, tech, library, graph):
    """Complete a journaled run, mangle the journal tail, resume."""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        path = f"{tmp}/run-journal.jsonl"
        _journaled_analyzer(scenario, tech, library, path).analyze(graph)
        faults.apply_journal_faults(plan, path)
        result = _journaled_analyzer(scenario, tech, library, path,
                                     resume=True).analyze(graph)
    mechanism = (ABSORB_RESUME
                 if getattr(result, "resumed_waves", 0) >= 1 else None)
    return result, mechanism


def _runner_deadline(scenario, plan, tech, library, graph):
    """Deadline-budgeted run; the exhaust fault forces the bound clamp."""
    from repro.analysis import StaticTimingAnalyzer
    from repro.analysis.parallel import ExecutionConfig

    analyzer = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(workers=scenario.workers,
                                  deadline=scenario.deadline))
    # Mechanism None: the verdict falls through to the worst arrival
    # quality, which must be the bound the clamp routed arcs to.
    return analyzer.analyze(graph), None


_RUNNERS = {
    "kill_resume": _runner_kill_resume,
    "enospc": _runner_enospc,
    "truncate_resume": _runner_truncate_resume,
    "deadline": _runner_deadline,
}


def _run_store_scenario(plan: FaultPlan, tech, library, graph):
    """Write a store, truncate it per plan, reload and re-analyze."""
    from repro.analysis import StaticTimingAnalyzer
    from repro.analysis.parallel import ExecutionConfig

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = f"{tmp}/stage_cache.json"
        warm = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(cache=True, cache_path=store))
        warm.analyze(graph)
        faults.apply_store_faults(plan, store)
        cold = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(cache=True, cache_path=store))
        return cold.analyze(graph)


def run_matrix(seed: int = 0, bits: int = 2,
               only: Optional[List[str]] = None,
               tech=None, library=None,
               scenarios: Optional[List[ChaosScenario]] = None
               ) -> ChaosReport:
    """Run the chaos matrix and report which rung absorbed each fault.

    Args:
        seed: fault-plan seed (targeting and table poisoning draw from
            it; same seed → same injections → same absorbing rungs).
        bits: decoder width of the target design (stages grow as
            ``2**bits``).
        only: optional scenario-name filter (unknown names raise).
        tech: technology (defaults to the stock 0.35 µm process).
        library: characterized table library (characterized on demand;
            pass the session library in tests to avoid re-charactering).
        scenarios: override the default matrix (mostly for tests).

    The run needs the metrics registry to attribute absorption, so it
    enables the trace and metrics views for its own duration when the
    caller has not; views the caller configured are left untouched.
    """
    from repro.analysis import StaticTimingAnalyzer
    from repro.circuit import builders, extract_stages
    from repro.devices import TableModelLibrary

    if tech is None:
        from repro.devices import CMOSP35
        tech = CMOSP35
    if library is None:
        library = TableModelLibrary(tech)
        library.get("n")
        library.get("p")

    graph = extract_stages(builders.decoder_netlist(tech, bits=bits),
                           tech=tech)
    target = _leaf_stage(graph)
    matrix = scenarios if scenarios is not None \
        else default_scenarios(target)
    if only:
        known = {s.name for s in matrix}
        unknown = [name for name in only if name not in known]
        if unknown:
            raise ValueError(
                f"unknown scenario(s) {unknown}; known: {sorted(known)}")
        matrix = [s for s in matrix if s.name in only]

    owns_telemetry = not ledger().metrics.enabled
    if owns_telemetry:
        configure(ObsConfig(enabled=True))
    try:
        baseline = StaticTimingAnalyzer(tech, library=library).analyze(
            graph)
        affected = _fanout_nets(graph, target)
        report = ChaosReport(seed=seed, bits=bits, target_stage=target)
        for scenario in matrix:
            report.outcomes.append(_run_scenario(
                scenario, seed, tech, library, graph, baseline,
                affected))
    finally:
        if owns_telemetry:
            disable()
    return report


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------
def format_report(report: ChaosReport) -> str:
    """Fixed-width text table of the matrix result."""
    name_w = max([len("scenario")]
                 + [len(o.name) for o in report.outcomes]) + 2
    expect_w = max([len("expected")]
                   + [len("|".join(o.expect)) for o in report.outcomes]) + 2
    absorb_w = max([len("absorbed by")]
                   + [len(str(o.absorbed_by)) for o in report.outcomes]) + 2
    rule = "-" * (name_w + expect_w + absorb_w + len("verdict"))
    lines = [
        f"chaos matrix  (seed {report.seed}, decoder bits={report.bits}, "
        f"target stage {report.target_stage})",
        rule,
        f"{'scenario':<{name_w}}{'expected':<{expect_w}}"
        f"{'absorbed by':<{absorb_w}}verdict",
    ]
    for o in report.outcomes:
        expected = "|".join(o.expect)
        verdict = "ok" if o.absorbed else "FAILED"
        detail = ""
        if o.error:
            detail = f"  ({o.error})"
        elif not o.absorbed and o.unaffected_identical is False:
            detail = "  (fault leaked outside its fanout cone)"
        lines.append(f"{o.name:<{name_w}}{expected:<{expect_w}}"
                     f"{str(o.absorbed_by):<{absorb_w}}{verdict}{detail}")
    lines.append(rule)
    absorbed = sum(1 for o in report.outcomes if o.absorbed)
    lines.append(f"{absorbed}/{len(report.outcomes)} scenarios absorbed")
    return "\n".join(lines)
