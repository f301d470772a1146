"""Escalation ladder: degrade stage-arc solves instead of dying.

QWM is an approximation stacked on Newton iterations over tabular
device data, and convergence is not guaranteed for arbitrary stacks
(PAPER.md §3–4).  Production timers degrade rather than die: when the
fast solve for one stage arc fails, something slower and sounder must
produce *an* answer so the full-chip analysis still completes.  The
ladder has four rungs, each strictly more robust (and slower or more
conservative) than the last:

``qwm``
    The normal piecewise-quadratic waveform-matching solve.
``qwm-retry``
    QWM again with perturbed options — finer cascade subdivision,
    relaxed Newton tolerance, more iterations — the standard "shrink
    the step, loosen the tolerance" recovery move.
``spice``
    The adaptive LTE-controlled transient engine for just this stage.
    Slower by orders of magnitude but it does not depend on the QWM
    region schedule, and its analytic device models are immune to
    corrupted characterization tables.
``bounded``
    A conservative switch-level/Elmore bound (``ln 2 · T_elmore``).
    No Newton iterations at all — it cannot fail to converge — so it
    is the rung of last resort and its answer is a bound, not an
    estimate.

Every arrival an escalated arc feeds is tagged with the rung that
produced it (:class:`repro.analysis.sta.ArrivalTime.quality`), and
quality degrades transitively: an arrival computed from a ``bounded``
predecessor is itself at best ``bounded`` (see :func:`merge_quality`).

A rung that *completes* and reports "no transition" (returns None) is
trusted: the arc is unsensitizable, and the ladder stops without
inventing a delay.  Only genuine solver failures — listed in
``_RUNG_FAILURES`` — escalate.

Every rung times the same arc, stated once here: the switching input's
edge (:func:`input_edge`), the side-input assignments tried in order
(:func:`sensitizations`), the switch-level screen that rules out an
assignment before it is solved (:func:`can_switch`) and the test that
a solved assignment really switches the output (:func:`is_transition`).
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.circuit.elements import DeviceKind
from repro.core.engine import WaveformEvaluator
from repro.core.path import NoConductingPath, conducting_path, pull_hops
from repro.core.qwm import QWMOptions
from repro.linalg.newton import NewtonConvergenceError
from repro.obs import count, frame, inc, ledger
from repro.resilience.budget import CLAMP_BOUND
from repro.resilience.faults import StageTimeoutError
from repro.spice.adaptive import (
    AdaptiveOptions,
    AdaptiveTransientSimulator,
    TransientBudgetExceeded,
)
from repro.spice.results import SimulationStats
from repro.spice.sources import (
    ConstantSource,
    RampSource,
    Source,
    SourceLike,
    StepSource,
)

__all__ = [
    "QUALITY_QWM", "QUALITY_RETRY", "QUALITY_SPICE", "QUALITY_BOUNDED",
    "QUALITY_ORDER", "QUALITY_RANK", "merge_quality",
    "ArcSolveError", "EscalationLadder",
    "input_edge", "sensitizations", "can_switch", "is_transition",
    "qwm_arc", "adaptive_spice_arc", "perturbed_options",
]

#: (delay, output slew) as one rung measures it.
RungArc = Tuple[float, Optional[float]]

QUALITY_QWM = "qwm"
QUALITY_RETRY = "qwm-retry"
QUALITY_SPICE = "spice"
QUALITY_BOUNDED = "bounded"

#: Rung qualities from most to least trustworthy arithmetic.
QUALITY_ORDER = (QUALITY_QWM, QUALITY_RETRY, QUALITY_SPICE,
                 QUALITY_BOUNDED)
QUALITY_RANK: Dict[str, int] = {q: i for i, q in enumerate(QUALITY_ORDER)}


def merge_quality(*qualities: Optional[str]) -> Optional[str]:
    """Worst-of quality merge (None entries are skipped).

    An arrival is only as trustworthy as the least trustworthy solve on
    its causal chain, so propagation takes the max rank of the arc's
    own quality and the cause arrival's quality.
    """
    worst: Optional[str] = None
    for quality in qualities:
        if quality is None:
            continue
        if worst is None or QUALITY_RANK.get(quality, 0) > \
                QUALITY_RANK.get(worst, 0):
            worst = quality
    return worst


class ArcSolveError(RuntimeError):
    """A stage-arc solve failed to produce a usable transition.

    Raised when a rung found a genuine transition whose waveform never
    crosses mid-rail: a QWM region schedule that aborted early, or an
    output too slow to cross inside the time window — failure modes
    that historically surfaced as a silent ``None`` arc.
    """


#: Exceptions a rung may raise that mean "this solver failed here" —
#: the ladder absorbs these and tries the next rung.  Anything else
#: (TypeError, a lint PreflightError, ...) is a programming or usage
#: error and propagates.
_RUNG_FAILURES = (
    ArcSolveError,
    NewtonConvergenceError,
    StageTimeoutError,
    TransientBudgetExceeded,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def perturbed_options(base: QWMOptions, attempt: int) -> QWMOptions:
    """QWM options for retry rung ``attempt`` (1-based).

    Finer cascade subdivision attacks region-schedule failures
    (smaller substeps keep the quadratic ansatz inside its validity
    window); relaxed Newton absolute tolerance with a doubled
    iteration budget attacks marginal non-convergence; extra region
    retries give the milestone search more room.
    """
    newton = replace(base.newton,
                     abstol=base.newton.abstol * (100.0 ** attempt),
                     max_iterations=base.newton.max_iterations * 2)
    return replace(base,
                   cascade_substeps=base.cascade_substeps + 2 * attempt,
                   max_retries=base.max_retries + 2,
                   newton=newton)


# ----------------------------------------------------------------------
# The arc every rung times.
# ----------------------------------------------------------------------
def input_edge(vdd: float, out_direction: str,
               input_slew: Optional[float] = None,
               t_edge: float = 0.0) -> Tuple[Source, float]:
    """The switching input's edge and its 50 % instant.

    CMOS stages invert, so a falling output is driven by a rising
    input and vice versa.  The edge is a ramp of ``input_slew`` (full
    swing) starting at ``t_edge`` when there is a slew, else an ideal
    step at ``t_edge``; delays are measured from the returned instant.
    """
    v0, v1 = (0.0, vdd) if out_direction == "fall" else (vdd, 0.0)
    if input_slew:
        return (RampSource(v0, v1, t_edge, input_slew),
                t_edge + 0.5 * input_slew)
    return StepSource(v0, v1, t_edge), t_edge


def sensitizations(stage, switching_input: str, out_direction: str
                   ) -> Iterator[Dict[str, float]]:
    """Yield candidate levels for the non-switching inputs, best first.

    The base assignment holds every side input at the level that keeps
    series devices of the switching pull path on: high for a falling
    output (the NAND pull-down rule), low for a rising one (the NOR
    pull-up rule).  No single static rule covers every topology (a
    NAND's rise arc needs the other inputs HIGH to block the parallel
    pull-ups, and a pass gate must be at its conducting level for
    either edge), so the base is followed by single flips, then the
    remaining combinations by popcount.  The caller skips what
    :func:`can_switch` rules out and keeps the first assignment that
    both extracts a conducting path and passes :func:`is_transition`.
    Bounded to 16 assignments.
    """
    others = [n for n in stage.inputs if n != switching_input]
    held = stage.vdd if out_direction == "fall" else 0.0
    flipped = 0.0 if held else stage.vdd
    combos = sorted(product((False, True), repeat=len(others)), key=sum)
    # combos[0] flips nothing: it is the base assignment.
    for combo in combos[:16]:
        yield {n: (flipped if flip else held)
               for n, flip in zip(others, combo)}


def can_switch(stage, output: str, out_direction: str,
               switching_input: str, levels: Dict[str, float]) -> bool:
    """Whether the side-input assignment ``levels`` can switch the
    output at all: a switch-level screen, asked before any solve.

    With the switching input at its level before the edge, an output
    that the edge's final rail already holds through a full-strength
    path (PMOS and wires to the supply for a rise, NMOS and wires to
    ground for a fall), and that no conducting element joins to the
    other rail, starts at its final value: the solved pre-state would
    fail :func:`is_transition`, so this returns False.  Every other
    output stays a candidate -- contested, floating, or held only
    through a threshold-degrading device.  The screen never accepts on
    its own: :class:`NoConductingPath` and :func:`is_transition` judge
    every assignment it lets through.
    """
    vdd = stage.vdd
    edge, _ = input_edge(vdd, out_direction)
    gates = {**levels, switching_input: edge.value(-math.inf)}
    if out_direction == "rise":
        final, other, weak = stage.source, stage.sink, DeviceKind.NMOS
    else:
        final, other, weak = stage.sink, stage.source, DeviceKind.PMOS
    out = stage.node(output)
    held = conducting_path(
        stage, final, out,
        lambda e: e.kind is not weak and e.conducts(gates, vdd))
    return held is None or conducting_path(
        stage, other, out, lambda e: e.conducts(gates, vdd)) is not None


def is_transition(v_start: float, out_direction: str, vdd: float) -> bool:
    """Whether an output that starts at ``v_start`` can make this edge.

    A real arc starts on the far side of mid-rail: when the pre-state
    already holds the output at its final logic value, the assignment
    produces no transition.  Written as negations so a NaN start counts
    as a transition: it then fails the mid-rail crossing and escalates,
    instead of quietly dropping the arc.
    """
    if out_direction == "fall":
        return not v_start < 0.55 * vdd
    return not v_start > 0.45 * vdd


def _sensitized_inputs(source: Source, switching_input: str,
                       levels: Dict[str, float]) -> Dict[str, SourceLike]:
    inputs: Dict[str, SourceLike] = {switching_input: source}
    inputs.update({name: ConstantSource(level)
                   for name, level in levels.items()})
    return inputs


# ----------------------------------------------------------------------
# The rungs.
# ----------------------------------------------------------------------
def qwm_arc(evaluator: WaveformEvaluator, stage, output: str,
            out_direction: str, switching_input: str,
            input_slew: Optional[float] = None,
            stats: Optional[SimulationStats] = None
            ) -> Optional[RungArc]:
    """One QWM sensitization sweep with ``evaluator`` (the ``qwm`` and
    ``qwm-retry`` rungs).

    Returns (delay, slew), or None when no sensitization produces a
    genuine transition (the arc is unsensitizable).  A transition that
    was found but whose accepted waveform never crosses mid-rail — the
    signature of a region-schedule failure — raises
    :class:`ArcSolveError` so the ladder can tell "solver failed" from
    "no such arc".  ``stats`` receives the cost of every solved
    assignment, including those that :func:`is_transition` then
    rejects; an assignment :func:`can_switch` rules out is never
    solved and costs nothing.
    """
    vdd = stage.vdd
    source, t_input = input_edge(vdd, out_direction, input_slew)
    for levels in sensitizations(stage, switching_input, out_direction):
        if not can_switch(stage, output, out_direction, switching_input,
                          levels):
            continue
        try:
            solution = evaluator.evaluate(
                stage, output, out_direction,
                _sensitized_inputs(source, switching_input, levels),
                precharge="dc")
        except NoConductingPath:
            continue
        except ValueError as exc:
            # Raised inside the solve (a NaN state reaching a table
            # lookup, say): the solver failed on a real candidate, so
            # escalate rather than try another sensitization.
            raise ArcSolveError(
                f"QWM solve of {stage.name}:{output} {out_direction} "
                f"via {switching_input} raised {exc}") from exc
        inc("sta.stage.solves")
        count("solves", 1, root="sta.arc")
        if stats is not None:
            stats.accumulate(solution.stats)
        if not is_transition(solution.output_waveform.value(0.0),
                             out_direction, vdd):
            continue
        delay = solution.delay(t_input=t_input)
        if delay is None:
            raise ArcSolveError(
                f"QWM accepted a transition for {stage.name}:{output} "
                f"{out_direction} via {switching_input} but its "
                f"waveform never crosses mid-rail")
        fit = solution.output_waveform.tangent_ramp(vdd)
        return delay, (fit[1] if fit is not None else None)
    return None


#: The ``spice`` rung's input edge instant [s]: late enough that the
#: t=0 DC solve settles to the *pre*-transition state.
SPICE_SETTLE = 5e-12
#: The ``spice`` rung's step and wall-clock budgets per transient run;
#: exceeding either raises :class:`TransientBudgetExceeded`.
SPICE_MAX_STEPS = 50_000
SPICE_MAX_SECONDS = 10.0


def adaptive_spice_arc(analyzer: Any, stage, output: str,
                       out_direction: str, switching_input: str,
                       input_slew: Optional[float] = None,
                       stats: Optional[SimulationStats] = None
                       ) -> Optional[RungArc]:
    """Adaptive-transient evaluation of one stage arc (the ``spice`` rung).

    Runs the QWM rung's sensitization sweep on the full stage
    equations: the input edge is delayed by :data:`SPICE_SETTLE` so the
    t=0 DC solve settles to the *pre*-transition state, and the delay is
    measured from the edge's 50% crossing like the QWM path does.
    Returns (delay, output slew), or None when no sensitization
    produces a genuine transition: an assignment is skipped when
    :func:`can_switch` rules it out, when no conducting path joins the
    output to its final rail once the edge has switched (the QWM
    rungs' :class:`NoConductingPath`), or when its pre-state fails
    :func:`is_transition`.  A genuine transition whose output does not
    cross mid-rail inside the window raises :class:`ArcSolveError`, as
    in the QWM rungs, so the ladder escalates it to the bound instead
    of reading "no such arc".

    This is both the ladder's ``spice`` rung and the reference solver
    of the shadow-SPICE auditor (:mod:`repro.analysis.audit`), so the
    two share one measurement convention: the adaptive engine, the edge
    at :data:`SPICE_SETTLE`, and the 10-90 % slew scaled by 1/0.8.  The golden
    suite does not use it: :func:`repro.analysis.golden.spice_measure`
    runs the fixed-step 1 ps engine with its own edge time and the raw
    10-90 % slew.  ``analyzer`` is duck-typed like the ladder's: any
    object with ``tech`` and ``evaluator``.
    """
    vdd = stage.vdd
    source, t_input = input_edge(vdd, out_direction, input_slew,
                                 t_edge=SPICE_SETTLE)
    options = AdaptiveOptions(
        t_stop=SPICE_SETTLE + analyzer.evaluator.options.t_stop,
        max_steps=SPICE_MAX_STEPS,
        max_wall_seconds=SPICE_MAX_SECONDS)
    simulator = AdaptiveTransientSimulator(stage, analyzer.tech,
                                           options)
    for levels in sensitizations(stage, switching_input, out_direction):
        if not can_switch(stage, output, out_direction, switching_input,
                          levels):
            continue
        try:
            # The QWM rungs' path extraction makes this check.
            pull_hops(stage, output, out_direction,
                      {**levels, switching_input: source.value(math.inf)})
        except NoConductingPath:
            continue
        result = simulator.run(
            _sensitized_inputs(source, switching_input, levels))
        if stats is not None:
            stats.accumulate(result.stats)
        if not is_transition(float(result.voltages[output][0]),
                             out_direction, vdd):
            continue
        delay = result.delay_50(output, vdd, t_input=t_input,
                                direction=out_direction)
        if delay is None:
            raise ArcSolveError(
                f"adaptive transient of {stage.name}:{output} "
                f"{out_direction} via {switching_input} found a "
                f"transition that never crosses mid-rail")
        slew_1090 = result.slew(output, vdd, out_direction)
        # 10–90% measurement scaled to the full-swing-equivalent
        # ramp time the QWM tangent-ramp slews report.
        out_slew = slew_1090 / 0.8 if slew_1090 is not None else None
        return delay, out_slew
    return None


class EscalationLadder:
    """Runs one stage arc down the rungs until something answers.

    Args:
        analyzer: the owning :class:`~repro.analysis.sta.
            StaticTimingAnalyzer` (duck-typed: the ladder reads its
            ``tech`` and ``evaluator`` only, so there is no import
            cycle back into the analysis package).
        escalate: False runs the ``qwm`` rung alone, the legacy
            fail-fast timer: a solve that never crosses mid-rail is the
            arc's None verdict, any other failure raises, and clamps
            are ignored.
    """

    def __init__(self, analyzer: Any, escalate: bool = True):
        self.analyzer = analyzer
        self.escalate = escalate
        self._retry_evaluator: Optional[WaveformEvaluator] = None
        self._switch_timer = None

    # -- rung builders -------------------------------------------------
    def _retry(self) -> WaveformEvaluator:
        if self._retry_evaluator is None:
            base = self.analyzer.evaluator
            self._retry_evaluator = WaveformEvaluator(
                self.analyzer.tech, library=base.library,
                options=perturbed_options(base.options, 1))
        return self._retry_evaluator

    def _rungs(self, clamp: Optional[str], stage, output: str,
               out_direction: str, switching_input: str,
               input_slew: Optional[float],
               stats: Optional[SimulationStats]
               ) -> List[Tuple[str, Callable[[], Optional[RungArc]]]]:
        """The rungs a ``clamp`` level leaves, in order.

        Full: qwm, qwm-retry, spice, bounded.  ``no-spice``: qwm,
        qwm-retry, bounded.  ``bound``: bounded.  Without escalation:
        qwm alone, whatever the clamp.
        """
        arc = (stage, output, out_direction, switching_input)
        qwm = (QUALITY_QWM, lambda: qwm_arc(
            self.analyzer.evaluator, *arc, input_slew, stats))
        if not self.escalate:
            return [qwm]
        rungs: List[Tuple[str, Callable[[], Optional[RungArc]]]] = []
        if clamp != CLAMP_BOUND:
            rungs.append(qwm)
            rungs.append((QUALITY_RETRY, lambda: qwm_arc(
                self._retry(), *arc, input_slew, stats)))
        if clamp is None:
            rungs.append((QUALITY_SPICE, lambda: adaptive_spice_arc(
                self.analyzer, *arc, input_slew=input_slew, stats=stats)))
        rungs.append((QUALITY_BOUNDED, lambda: self.bound_arc(*arc)))
        return rungs

    # -- bookkeeping ---------------------------------------------------
    @staticmethod
    def _failure_reason(exc: BaseException) -> str:
        if isinstance(exc, NewtonConvergenceError):
            return getattr(exc, "reason", "newton")
        if isinstance(exc, StageTimeoutError):
            return "stage_timeout"
        if isinstance(exc, TransientBudgetExceeded):
            return "budget_exceeded"
        if isinstance(exc, ArcSolveError):
            return "qwm_no_waveform"
        return type(exc).__name__

    def _note(self, from_rung: str, to_rung: Optional[str], reason: str,
              stage, output: str, out_direction: str,
              switching_input: str) -> None:
        inc("resilience.escalations", rung=from_rung)
        count("escalations", 1, root="resilience")
        led = ledger()
        if led.recording:
            led.record("escalation", from_rung=from_rung,
                       to_rung=to_rung or "none", reason=reason,
                       stage=stage.name, output=output,
                       direction=out_direction, input=switching_input)

    # -- the ladder ----------------------------------------------------
    def evaluate_arc(self, stage, output: str, out_direction: str,
                     switching_input: str,
                     input_slew: Optional[float] = None,
                     stats: Optional[SimulationStats] = None,
                     clamp: Optional[str] = None
                     ) -> Optional[Tuple[float, Optional[float], str]]:
        """Run the rungs in order; returns (delay, slew, quality) or None.

        None means a rung completed soundly and found no transition
        (the arc is unsensitizable) — that verdict is final, it does
        not escalate.  The bound rung is last and always runs; only its
        own failure re-raises (it has no failure modes beyond "no
        conducting path", which is the None verdict).

        ``clamp`` is the admission controller's level for this arc (see
        :mod:`repro.resilience.budget`): ``"no-spice"`` drops the SPICE
        rung, ``"bound"`` every iterative rung.  Each clamped arc is
        counted once in ``resilience.budget.clamped_arcs``.
        """
        if self.escalate and clamp is not None:
            inc("resilience.budget.clamped_arcs", level=clamp)
        rungs = self._rungs(clamp, stage, output, out_direction,
                            switching_input, input_slew, stats)
        last_error: Optional[BaseException] = None
        expired = False
        for index, (rung, attempt) in enumerate(rungs):
            next_rung = rungs[index + 1][0] if index + 1 < len(rungs) \
                else None
            if expired and rung != QUALITY_BOUNDED:
                continue
            try:
                with frame("resilience.rung", rung, ctx={"rung": rung}):
                    arc = attempt()
            except _RUNG_FAILURES as exc:
                if not self.escalate:
                    if isinstance(exc, ArcSolveError):
                        return None
                    raise
                last_error = exc
                if isinstance(exc, StageTimeoutError):
                    # Injected or real: stop burning wall-clock on
                    # iterative rungs, go straight to the bound.
                    expired = True
                self._note(rung, next_rung, self._failure_reason(exc),
                           stage, output, out_direction,
                           switching_input)
                continue
            if arc is None:
                return None
            return arc[0], arc[1], rung
        if last_error is not None:
            raise last_error
        return None

    # -- bound rung ----------------------------------------------------
    def bound_arc(self, stage, output: str, out_direction: str,
                  switching_input: str) -> Optional[RungArc]:
        """Conservative switch-level/Elmore bound for one arc.

        Purely structural — an RC ladder over the path that conducts
        once the input edge has switched, with the side inputs at the
        base sensitization and analytic effective resistances — so it
        has no Newton iterations to diverge and no table data to be
        corrupted.  A missing conducting path is the None
        (unsensitizable) verdict.
        """
        from repro.baselines.switch_level import SwitchLevelTimer

        if self._switch_timer is None:
            self._switch_timer = SwitchLevelTimer(
                self.analyzer.tech,
                library=self.analyzer.evaluator.library)
        edge, _ = input_edge(stage.vdd, out_direction)
        inputs = _sensitized_inputs(edge, switching_input, next(
            sensitizations(stage, switching_input, out_direction)))
        try:
            estimate = self._switch_timer.estimate(
                stage, output, out_direction, inputs)
        except (ValueError, KeyError):
            return None
        return estimate.delay, None
