"""Run-level wall-clock budgets and per-wave admission control.

The escalation ladder (:mod:`repro.resilience.ladder`) guarantees every
*arc* completes; this module guarantees the *run* does.  A
:class:`RunBudget` carries the user-facing ``--deadline`` (plus a grace
allowance for the wave in flight when the deadline strikes), and an
:class:`AdmissionController` consults it before each wave is
dispatched: it projects the remaining cost from completed-arc timings
and, as the deadline approaches, clamps the escalation ladder — first
disabling the SPICE rung (``no-spice``), then routing straight to the
conservative switch-level bound (``bound``).  The clamp level is a
monotonic ratchet: once the run has degraded it never un-degrades, so
arrival quality tags stay honest and reproducible within one run.

Clamp levels, in degradation order:

``full``
    No clamp; the full ladder (QWM -> retry -> SPICE -> bound) runs.
``no-spice``
    The SPICE rung is disabled; arcs that would have escalated to the
    reference transient fall through to the conservative bound.
``bound``
    Arcs route straight to the switch-level bound
    (:data:`~repro.resilience.ladder.QUALITY_BOUNDED` quality) without
    attempting QWM — the cheapest honest answer.

All decisions are surfaced through ``resilience.budget.*`` metrics so a
deadline-constrained run leaves an auditable trail in the telemetry
dump.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.obs import inc, set_gauge
from repro.resilience import faults

__all__ = [
    "CLAMP_FULL",
    "CLAMP_NO_SPICE",
    "CLAMP_BOUND",
    "CLAMP_ORDER",
    "CLAMP_RANK",
    "RunBudget",
    "AdmissionController",
]

#: Clamp levels in degradation order (least to most degraded).
CLAMP_FULL = "full"
CLAMP_NO_SPICE = "no-spice"
CLAMP_BOUND = "bound"
CLAMP_ORDER = (CLAMP_FULL, CLAMP_NO_SPICE, CLAMP_BOUND)
CLAMP_RANK = {level: rank for rank, level in enumerate(CLAMP_ORDER)}

#: Grace allowance: a wave already in flight when the deadline strikes
#: is allowed to finish inside ``max(MIN_GRACE_SECONDS, GRACE_FRACTION
#: * deadline)``.
MIN_GRACE_SECONDS = 0.5
GRACE_FRACTION = 0.1

#: Projected-cost pressure at which the controller skips ``no-spice``
#: and routes straight to the bound: when finishing the remaining
#: stages at mean cost would overshoot the remaining budget by this
#: factor, dropping only the SPICE rung cannot save the run.
BOUND_PRESSURE = 4.0


@dataclass(frozen=True)
class RunBudget:
    """Run-level wall-clock budget.

    Args:
        deadline: total wall-clock seconds the analysis may spend.
    """

    deadline: float

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive, got {self.deadline}")

    @property
    def grace_seconds(self) -> float:
        """Seconds the wave in flight at the deadline may overrun."""
        return max(MIN_GRACE_SECONDS, GRACE_FRACTION * self.deadline)


class AdmissionController:
    """Per-wave ladder clamping against a :class:`RunBudget`.

    The controller is fed completed-stage wall times via
    :meth:`note_stage_cost` and consulted via :meth:`admit` before each
    wave dispatch.  The clock is injectable so tests can drive the
    deadline deterministically.
    """

    def __init__(self, budget: RunBudget, parallelism: int = 1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {parallelism}")
        self.budget = budget
        self.parallelism = parallelism
        self._now = clock
        self._started = clock()
        self._costs: List[float] = []
        self._level = CLAMP_FULL
        self._clamped: Dict[str, int] = {}
        self._exhausted = False

    def note_stage_cost(self, seconds: float) -> None:
        """Record one completed stage's wall time for cost projection."""
        if seconds >= 0:
            self._costs.append(float(seconds))

    def elapsed(self) -> float:
        return self._now() - self._started

    def remaining(self) -> float:
        if self._exhausted:
            return 0.0
        return self.budget.deadline - self.elapsed()

    @property
    def level(self) -> str:
        return self._level

    def admit(self, stages_remaining: int) -> str:
        """Clamp level for the next stage dispatch.

        Projects the cost of the remaining stages from the mean
        completed-stage cost divided by the pool parallelism, and
        ratchets the clamp level when the projection does not fit the
        remaining budget.  Returns one of :data:`CLAMP_ORDER`.
        """
        if faults.deadline_exhaust_gate():
            self._exhausted = True
        remaining = self.remaining()
        mean_cost = (sum(self._costs) / len(self._costs)
                     if self._costs else 0.0)
        projected = (stages_remaining * mean_cost
                     / max(1, self.parallelism))
        level = CLAMP_FULL
        if remaining <= 0.0:
            level = CLAMP_BOUND
        elif projected > BOUND_PRESSURE * remaining:
            level = CLAMP_BOUND
        elif projected > remaining:
            level = CLAMP_NO_SPICE
        if CLAMP_RANK[level] > CLAMP_RANK[self._level]:
            inc("resilience.budget.clamp_escalations", level=level)
            self._level = level
        set_gauge("resilience.budget.remaining_seconds",
                  max(0.0, remaining))
        if self._level != CLAMP_FULL:
            inc("resilience.budget.clamped_stages", level=self._level)
            self._clamped[self._level] = (
                self._clamped.get(self._level, 0) + 1)
        return self._level

    def summary(self) -> Dict[str, object]:
        """Budget outcome for :class:`~repro.analysis.sta.StaResult`."""
        elapsed = self.elapsed()
        return {
            "deadline": self.budget.deadline,
            "grace": self.budget.grace_seconds,
            "elapsed": elapsed,
            "within_deadline": (
                elapsed <= self.budget.deadline
                + self.budget.grace_seconds),
            "final_level": self._level,
            "clamped_stages": dict(self._clamped),
        }
