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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import WaveformEvaluator
from repro.core.qwm import QWMOptions
from repro.linalg.newton import NewtonConvergenceError
from repro.obs import count, frame, inc, ledger
from repro.resilience.faults import StageTimeoutError
from repro.spice.adaptive import (
    AdaptiveOptions,
    AdaptiveTransientSimulator,
    TransientBudgetExceeded,
)
from repro.spice.results import SimulationStats
from repro.spice.sources import ConstantSource, RampSource, StepSource

__all__ = [
    "QUALITY_QWM", "QUALITY_RETRY", "QUALITY_SPICE", "QUALITY_BOUNDED",
    "QUALITY_ORDER", "QUALITY_RANK", "merge_quality",
    "ArcSolveError", "EscalationPolicy", "EscalationLadder",
    "adaptive_spice_arc", "perturbed_options",
]

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
    """A QWM stage-arc solve failed to produce a usable transition.

    Raised when the region schedule aborted early enough that the
    accepted waveform never crosses mid-rail (``delay() is None`` on a
    genuine transition) — the QWM failure mode that historically
    surfaced as a silent ``None`` arc.
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


@dataclass(frozen=True)
class EscalationPolicy:
    """Configuration of the escalation ladder.

    The ladder always has one perturbed-option QWM retry rung and ends
    in the switch-level bound; the SPICE rung runs on
    :func:`adaptive_spice_arc`'s own budgets.

    Attributes:
        enabled: master switch.  ``EscalationPolicy(enabled=False)``
            restores the legacy fail-fast behavior (a non-converging
            arc raises out of :meth:`StaticTimingAnalyzer.analyze`).
        spice: whether the adaptive-transient rung is available (the
            run budget's ``no-spice`` clamp turns it off).
    """

    enabled: bool = True
    spice: bool = True


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


def adaptive_spice_arc(analyzer: Any, stage, output: str,
                       out_direction: str, switching_input: str,
                       input_slew: Optional[float] = None,
                       stats: Optional[SimulationStats] = None,
                       settle: float = 5e-12,
                       max_steps: int = 50_000,
                       max_seconds: float = 10.0
                       ) -> Optional[Tuple[float, Optional[float]]]:
    """Adaptive-transient evaluation of one stage arc.

    Mirrors the QWM sensitization loop, but on the full stage
    equations: the input edge is delayed by ``settle`` so the t=0 DC
    solve settles to the *pre*-transition state, and the delay is
    measured from the edge's 50% crossing like the QWM path does.
    Returns (delay, output slew) or None when no sensitization
    produces a crossing.

    This is both the ladder's ``spice`` rung and the reference solver
    of the shadow-SPICE auditor (:mod:`repro.analysis.audit`), so the
    two share one measurement convention: the adaptive engine, the edge
    at ``settle``, and the 10-90 % slew scaled by 1/0.8.  The golden
    suite does not use it: :func:`repro.analysis.golden.spice_measure`
    runs the fixed-step 1 ps engine with its own edge time and the raw
    10-90 % slew.  ``analyzer`` is duck-typed like the ladder's: any
    object with ``tech``, ``evaluator`` and the sensitization helpers.
    """
    vdd = stage.vdd
    rising_in = out_direction == "fall"
    v0, v1 = (0.0, vdd) if rising_in else (vdd, 0.0)
    t_edge = settle
    if input_slew:
        source = RampSource(v0, v1, t_edge, input_slew)
        t_input = t_edge + 0.5 * input_slew
    else:
        source = StepSource(v0, v1, t_edge)
        t_input = t_edge
    base_options = analyzer.evaluator.options
    options = AdaptiveOptions(
        t_stop=t_edge + base_options.t_stop,
        max_steps=max_steps,
        max_wall_seconds=max_seconds)
    simulator = AdaptiveTransientSimulator(stage, analyzer.tech,
                                           options)
    for levels in analyzer._sensitizations(
            stage, switching_input, out_direction):
        inputs: Dict[str, Any] = {switching_input: source}
        inputs.update({name: ConstantSource(level)
                       for name, level in levels.items()})
        result = simulator.run(inputs)
        if stats is not None:
            stats.accumulate(result.stats)
        trace = result.voltages[output]
        v_start = float(trace[0])
        if out_direction == "fall" and v_start < 0.55 * vdd:
            continue
        if out_direction == "rise" and v_start > 0.45 * vdd:
            continue
        delay = result.delay_50(output, vdd, t_input=t_input,
                                direction=out_direction)
        if delay is None:
            continue
        slew_1090 = result.slew(output, vdd, out_direction)
        # 10–90% measurement scaled to the full-swing-equivalent
        # ramp time the QWM tangent-ramp slews report.
        out_slew = slew_1090 / 0.8 if slew_1090 is not None else None
        return delay, out_slew
    return None


#: Callback the STA layer hands the ladder: run the normal QWM
#: sensitization loop with the given evaluator, return (delay, slew)
#: or None (unsensitizable), raise ArcSolveError / solver errors on
#: failure.
QwmAttempt = Callable[[WaveformEvaluator],
                      Optional[Tuple[float, Optional[float]]]]


class EscalationLadder:
    """Runs one stage arc down the rungs until something answers.

    Args:
        analyzer: the owning :class:`~repro.analysis.sta.
            StaticTimingAnalyzer` (duck-typed: the ladder uses its
            ``tech``, ``evaluator`` and sensitization helpers only, so
            there is no import cycle back into the analysis package).
        policy: the escalation policy.
    """

    def __init__(self, analyzer: Any, policy: EscalationPolicy):
        self.analyzer = analyzer
        self.policy = policy
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

    def _rungs(self, qwm_attempt: QwmAttempt, stage, output: str,
               out_direction: str, switching_input: str,
               input_slew: Optional[float],
               stats: Optional[SimulationStats]
               ) -> List[Tuple[str, Callable[[], Optional[
                   Tuple[float, Optional[float]]]]]]:
        rungs: List[Tuple[str, Callable[
            [], Optional[Tuple[float, Optional[float]]]]]] = []
        rungs.append((QUALITY_QWM,
                      lambda: qwm_attempt(self.analyzer.evaluator)))
        rungs.append((QUALITY_RETRY, lambda: qwm_attempt(self._retry())))
        if self.policy.spice:
            rungs.append((QUALITY_SPICE,
                          lambda: adaptive_spice_arc(
                              self.analyzer, stage, output,
                              out_direction, switching_input,
                              input_slew=input_slew, stats=stats)))
        rungs.append((QUALITY_BOUNDED,
                      lambda: self.bound_arc(
                          stage, output, out_direction,
                          switching_input)))
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
                     input_slew: Optional[float],
                     stats: Optional[SimulationStats],
                     qwm_attempt: QwmAttempt
                     ) -> Optional[Tuple[float, Optional[float], str]]:
        """Run the rungs in order; returns (delay, slew, quality) or None.

        None means a rung completed soundly and found no transition
        (the arc is unsensitizable) — that verdict is final, it does
        not escalate.  The bound rung is last and always runs; only its
        own failure re-raises (it has no failure modes beyond "no
        conducting path", which is the None verdict).
        """
        rungs = self._rungs(qwm_attempt, stage, output, out_direction,
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
                  switching_input: str
                  ) -> Optional[Tuple[float, Optional[float]]]:
        """Conservative switch-level/Elmore bound for one arc.

        Purely structural — an RC ladder over the conducting pull path
        with analytic effective resistances — so it has no Newton
        iterations to diverge and no table data to be corrupted.  A
        missing conducting path is the None (unsensitizable) verdict.
        Public because the admission controller's ``bound`` clamp
        routes arcs straight here, bypassing the iterative rungs.
        """
        from repro.baselines.switch_level import SwitchLevelTimer

        if self._switch_timer is None:
            self._switch_timer = SwitchLevelTimer(
                self.analyzer.tech,
                library=self.analyzer.evaluator.library)
        final_level = stage.vdd if out_direction == "fall" else 0.0
        inputs: Dict[str, float] = {switching_input: final_level}
        for name in stage.inputs:
            if name == switching_input:
                continue
            inputs[name] = self.analyzer._sensitizing_level(
                stage, name, out_direction)
        try:
            estimate = self._switch_timer.estimate(
                stage, output, out_direction, inputs)
        except (ValueError, KeyError):
            return None
        return estimate.delay, None
