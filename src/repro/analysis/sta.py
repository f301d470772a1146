"""Longest-path static timing analysis over stage graphs.

The classic STA recursion with QWM as the stage-delay engine: stages are
visited in topological order; the arrival time of each stage output is
the worst over its switching inputs of (input arrival + stage delay for
that transition).  Standard single-input-switching semantics with CMOS
unateness: a rising input can only cause the pull path its transistor
sits on to engage, so a falling output arrival derives from rising
inputs (pull-down through NMOS) and vice versa; non-switching inputs
are held at the levels that sensitize the path (series devices on).
The arc itself — input edge, side-input sweep, transition test — and
its escalation rungs live in :mod:`repro.resilience.ladder`.

By default inputs switch as ideal steps, the paper's operating
assumption.  With ``propagate_slews`` each arc is driven by a ramp
whose full-swing time is the tangent-ramp slew of the arriving edge
(the upstream stage's QWM output waveform; ``input_slew`` for primary
inputs).  Load coupling between stages enters through the
gate-capacitance loads the stage extraction already counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.circuit.netlist import LogicStage
from repro.circuit.stage import StageGraph
from repro.core.engine import WaveformEvaluator
from repro.core.qwm import QWMOptions
from repro.devices.table_model import TableModelLibrary
from repro.devices.technology import Technology
from repro.obs import frame, inc, observe
from repro.resilience.ladder import (
    QUALITY_QWM,
    EscalationLadder,
    merge_quality,
)
from repro.spice.results import SimulationStats

#: (net, direction) key; direction is the transition of the net.
Event = Tuple[str, str]

#: One evaluated arc: (delay, output_slew, quality) where quality is a
#: rung tag from :data:`repro.resilience.ladder.QUALITY_ORDER`.
Arc = Tuple[float, Optional[float], Optional[str]]

#: Arc evaluation callback: (stage, output, out_direction, input,
#: input_slew) -> (delay, output_slew, quality) or None.  The per-stage
#: arrival computation is written against this signature so the
#: engine, cached or not, in-process or pooled, runs one implementation.
ArcFn = Callable[[LogicStage, str, str, str, Optional[float]],
                 Optional[Arc]]


@dataclass(frozen=True)
class ArrivalTime:
    """Worst-case arrival of one transition at a net.

    Attributes:
        net: net name.
        direction: ``"rise"`` or ``"fall"``.
        time: arrival time [s].
        cause: the (net, direction) event that produced it, if any.
        slew: full-swing transition time of the arriving edge [s]
            (None when slews are not propagated).
        quality: the worst escalation-ladder rung on this arrival's
            causal chain (``qwm | qwm-retry | spice | bounded``; see
            :mod:`repro.resilience.ladder`).  None for primary inputs
            and arc sources that do not report quality.
    """

    net: str
    direction: str
    time: float
    cause: Optional[Event] = None
    slew: Optional[float] = None
    quality: Optional[str] = None


@dataclass
class StaResult:
    """Output of a full STA run.

    Attributes:
        arrivals: (net, direction) -> ArrivalTime.
        worst: the latest arrival over all primary-output events.
        critical_path: chain of (net, direction) events ending at the
            worst arrival, primary input first.
        stats: QWM cost aggregated over every arc evaluation of the run
            (including sensitizations that were tried and rejected).
        audit: shadow-SPICE audit report (``repro-accuracy-audit/1``
            JSON) when the run was audited, else None.
        partial: True when the run was interrupted (SIGINT/SIGTERM)
            before every stage completed; the arrivals present are
            still exact for the waves that finished.
        resumed_waves: scheduling waves replayed from a run journal
            instead of being recomputed (``--resume``).
        budget: run-budget outcome (:meth:`repro.resilience.budget.
            AdmissionController.summary`) when ``--deadline`` was set.
        journal: run-journal outcome (path, wave counts, disabled
            flag) when ``--journal`` was set.
    """

    arrivals: Dict[Event, ArrivalTime]
    worst: Optional[ArrivalTime]
    critical_path: List[Event] = field(default_factory=list)
    stats: SimulationStats = field(default_factory=SimulationStats)
    audit: Optional[Dict] = None
    partial: bool = False
    resumed_waves: int = 0
    budget: Optional[Dict] = None
    journal: Optional[Dict] = None

    def arrival(self, net: str, direction: str) -> Optional[ArrivalTime]:
        return self.arrivals.get((net, direction))

    def degraded(self) -> Dict[Event, ArrivalTime]:
        """Arrivals whose quality fell below the plain QWM rung."""
        return {event: arrival
                for event, arrival in self.arrivals.items()
                if arrival.quality not in (None, QUALITY_QWM)}


def _opposite(direction: str) -> str:
    return "fall" if direction == "rise" else "rise"


def compute_stage_arrivals(stage: LogicStage,
                           arrivals: Dict[Event, ArrivalTime],
                           arc_fn: ArcFn,
                           propagate_slews: bool,
                           default_slew: float
                           ) -> Dict[Event, ArrivalTime]:
    """Worst arrival of every output event of one stage.

    The single-input-switching recursion for one stage, written against
    an :data:`ArcFn` so :mod:`repro.analysis.parallel` (in-process or
    on process workers, cached or not) runs exactly the same
    arithmetic.  ``arrivals`` is only read; newly computed events
    are visible to later outputs of the *same* stage (matching the
    serial evaluation order for stages that consume their own outputs),
    and the caller merges the returned mapping.
    """
    computed: Dict[Event, ArrivalTime] = {}

    def lookup(event: Event) -> Optional[ArrivalTime]:
        hit = computed.get(event)
        return hit if hit is not None else arrivals.get(event)

    for out_node in stage.outputs:
        for out_dir in ("rise", "fall"):
            best: Optional[ArrivalTime] = None
            in_dir = _opposite(out_dir)
            for input_name in stage.inputs:
                src = lookup((input_name, in_dir))
                if src is None:
                    continue
                input_slew = (src.slew or default_slew
                              if propagate_slews else None)
                arc = arc_fn(stage, out_node.name, out_dir,
                             input_name, input_slew)
                if arc is None:
                    continue
                delay, out_slew, quality = arc
                t = src.time + delay
                if best is None or t > best.time:
                    best = ArrivalTime(
                        net=out_node.name, direction=out_dir,
                        time=t, cause=(input_name, in_dir),
                        slew=out_slew if propagate_slews else None,
                        quality=merge_quality(quality, src.quality))
            if best is not None:
                key = (out_node.name, out_dir)
                existing = lookup(key)
                if existing is None or best.time > existing.time:
                    computed[key] = best
    return computed


def primary_input_arrivals(graph: StageGraph,
                           input_arrivals: Optional[Dict[Event, float]],
                           primary_slew: Optional[float]
                           ) -> Tuple[Dict[Event, ArrivalTime], Set[str]]:
    """Seed arrivals for every primary-input event.

    Returns the arrival map plus the set of stage-driven nets (the
    candidate endpoints a worst-arrival search ranges over).
    """
    arrivals: Dict[Event, ArrivalTime] = {}
    driven = set(graph.driver_of)
    primary_inputs = set()
    for stage in graph.stages:
        for name in stage.inputs:
            if name not in driven:
                primary_inputs.add(name)
    for net in sorted(primary_inputs):
        for direction in ("rise", "fall"):
            t = 0.0
            if input_arrivals:
                t = input_arrivals.get((net, direction), 0.0)
            arrivals[(net, direction)] = ArrivalTime(
                net, direction, t, slew=primary_slew)
    return arrivals, driven


def finalize_result(arrivals: Dict[Event, ArrivalTime],
                    driven: Set[str]) -> StaResult:
    """Pick the worst driven-net arrival and walk its critical path.

    Events are scanned in sorted order so the result is independent of
    dict insertion order — parallel schedulers merge arrivals in
    completion order, and exact-tie breaking must not depend on it.
    """
    worst: Optional[ArrivalTime] = None
    for event in sorted(arrivals):
        arrival = arrivals[event]
        if event[0] in driven:
            if worst is None or arrival.time > worst.time:
                worst = arrival
    path: List[Event] = []
    cursor = worst
    while cursor is not None:
        path.append((cursor.net, cursor.direction))
        cursor = (arrivals.get(cursor.cause)
                  if cursor.cause is not None else None)
    path.reverse()
    return StaResult(arrivals=arrivals, worst=worst,
                     critical_path=path)


class StaticTimingAnalyzer:
    """QWM-driven static timing analysis.

    Args:
        tech: process technology.
        library: shared table-model library (characterized once).
        options: QWM options for the per-stage evaluations.
    """

    def __init__(self, tech: Technology,
                 library: Optional[TableModelLibrary] = None,
                 options: Optional[QWMOptions] = None,
                 propagate_slews: bool = False,
                 input_slew: float = 20e-12,
                 preflight: bool = False,
                 execution: Optional["ExecutionConfig"] = None,
                 cache: Optional["StageResultCache"] = None,
                 escalate: bool = True):
        """
        Args:
            tech: process technology.
            library: shared table-model library.
            options: QWM options for the per-stage evaluations.
            propagate_slews: when True, each arc is driven by a ramp
                fitted to the upstream stage's output waveform (the
                tangent-ramp driver model) instead of an ideal step.
                More realistic arrivals; note the QWM ramp caveat — the
                opposing network's direct-path current is unmodeled, so
                very slow ramps lose accuracy.
            input_slew: full-swing transition time assumed for primary
                inputs in slew mode [s].
            preflight: when True, :meth:`analyze` lints the whole stage
                graph (ERC + solver rules) up front and raises
                :class:`repro.lint.PreflightError` on error-severity
                findings before evaluating any arc.
            execution: optional :class:`repro.analysis.parallel.
                ExecutionConfig` for :meth:`analyze`, which always runs
                the :class:`repro.analysis.parallel.ParallelStaEngine`
                (None: in-process, no budget, no journal).
                Worker processes change scheduling only, never the
                arithmetic, so arrivals are the same for every worker
                count.
            cache: optional shared
                :class:`repro.analysis.parallel.StageResultCache`: an
                arc whose canonical stage form, output, direction,
                input and slew were solved before (by this or any
                analyzer sharing the cache, on any isomorphic stage) is
                served from it, quality tag included.  None with a
                caching ``execution`` gives each run a private cache.
            escalate: True (the default) lets failed arc solves
                degrade ``qwm → qwm-retry → spice → bounded`` instead of
                raising (see :mod:`repro.resilience.ladder`); False runs
                the ``qwm`` rung alone, the legacy fail-fast timer.
        """
        self.tech = tech
        self.evaluator = WaveformEvaluator(tech, library=library,
                                           options=options)
        self.propagate_slews = propagate_slews
        self.input_slew = input_slew
        self.preflight = preflight
        self.execution = execution
        self.cache = cache
        self._ladder = EscalationLadder(self, escalate)

    @property
    def escalate(self) -> bool:
        """Whether failed arc solves escalate (pool workers copy it)."""
        return self._ladder.escalate

    # ------------------------------------------------------------------
    def stage_arc(self, stage: LogicStage, output: str,
                  out_direction: str, switching_input: str,
                  input_slew: Optional[float] = None,
                  stats: Optional[SimulationStats] = None,
                  clamp: Optional[str] = None
                  ) -> Optional[Arc]:
        """Evaluate one arc: returns (delay, output_slew, quality) or None.

        The delay is measured from the switching input's 50% crossing;
        the output slew is the full-swing tangent-ramp time of the QWM
        output waveform (None if unfittable); quality is the escalation
        rung that produced the numbers (``qwm`` when nothing escalated).
        Every arc is solved by :meth:`repro.resilience.ladder.
        EscalationLadder.evaluate_arc`: a failed QWM solve degrades
        through retry, adaptive-SPICE and switch-level rungs instead of
        raising; None still means the arc is unsensitizable — that
        verdict never escalates.

        Args:
            stats: optional accumulator receiving the QWM cost of every
                solve this arc performs (the engine passes one per stage
                task); without one the cost is not recorded.
            clamp: admission-control clamp level (see
                :mod:`repro.resilience.budget`): ``"no-spice"`` drops
                the SPICE rung, ``"bound"`` runs the switch-level bound
                alone.  Ignored without escalation.
        """
        arc_start = time.perf_counter()
        with frame("sta.arc", stage.name,
                   ctx={"arc_input": switching_input}, output=output,
                   direction=out_direction, input=switching_input):
            result = self._ladder.evaluate_arc(
                stage, output, out_direction, switching_input,
                input_slew, stats, clamp)
        observe("sta.stage.wall_seconds",
                time.perf_counter() - arc_start)
        if result is None:
            return None
        inc("resilience.arc.quality", quality=result[2])
        return result

    # ------------------------------------------------------------------
    def analyze(self, graph: StageGraph,
                input_arrivals: Optional[Dict[Event, float]] = None
                ) -> StaResult:
        """Run longest-path STA over a stage graph.

        Args:
            graph: partitioned design.
            input_arrivals: optional (net, direction) -> time for primary
                inputs; unspecified primary-input events arrive at 0.

        Returns:
            Arrival times for every stage-output event reached.

        Raises:
            repro.lint.PreflightError: when ``preflight=True`` and the
                graph or solver options fail an error-severity rule.
        """
        if self.preflight:
            from repro.lint import LintContext, preflight

            ctx = LintContext.from_stage_graph(
                graph, tech=self.tech,
                options=self.evaluator.options,
                library=self.evaluator.library,
                execution=self.execution)
            preflight(ctx, what="stage graph",
                      packs=("erc", "solver"))
        from repro.analysis.parallel import (ExecutionConfig,
                                             ParallelStaEngine)

        engine = ParallelStaEngine(self, self.execution or ExecutionConfig(),
                                   cache=self.cache)
        with frame("sta.analyze", stages=len(graph.stages),
                   workers=engine.config.workers):
            return engine.run(graph, input_arrivals)
