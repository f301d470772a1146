"""Resilience: escalation ladder + deterministic fault injection.

Four pieces:

* :mod:`repro.resilience.ladder` — the degrade-don't-die escalation
  ladder (``qwm`` → ``qwm-retry`` → ``spice`` → ``bounded``) the STA
  layer runs every stage arc through, and the arrival ``quality`` tag
  vocabulary.
* :mod:`repro.resilience.faults` — a seeded, declarative fault-plan
  harness that injects NaN table cells, forced Newton non-convergence,
  worker crashes/hangs, cache-store truncation, stage timeouts, and
  the run-durability faults (journal ENOSPC/truncation, between-wave
  kills, deadline exhaustion), so every rung can be *proven* to absorb
  the failure class it exists for.  :mod:`repro.resilience.chaos` runs
  the standard scenario matrix (``repro chaos``).
* :mod:`repro.resilience.budget` — run-level wall-clock budgets
  (``repro sta --deadline``): an admission controller that clamps the
  ladder per wave (full → no-spice → bound) so the run always finishes
  inside deadline+grace with honest quality tags.
* :mod:`repro.resilience.journal` — the crash-safe run journal
  (``repro sta --journal/--resume``): fsync'd per-wave checkpoints a
  killed run resumes from, bit-identically.

Import structure: :mod:`.faults` is imported eagerly (it only needs
numpy/stdlib and the obs layer) so low-level solvers can import its
gates without cycles; :mod:`.ladder`, :mod:`.chaos`, :mod:`.budget`
and :mod:`.journal` sit above the solver stack and are loaded lazily
on first attribute access.
"""

from repro.resilience import faults
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    RunKilled,
    StageTimeoutError,
)

__all__ = [
    "faults",
    "FAULT_KINDS", "FaultPlan", "FaultSpec", "StageTimeoutError",
    "RunKilled",
    # Lazily resolved (PEP 562):
    "ladder", "chaos", "budget", "journal",
    "ArcSolveError", "EscalationLadder", "QUALITY_ORDER",
    "merge_quality",
    "ChaosReport", "ChaosScenario", "ScenarioOutcome",
    "default_scenarios", "format_report", "run_matrix",
    "RunBudget", "AdmissionController",
    "CLAMP_FULL", "CLAMP_NO_SPICE", "CLAMP_BOUND", "CLAMP_ORDER",
    "RunJournal", "JournalError", "FingerprintMismatch",
    "run_fingerprint",
]

_LADDER_NAMES = ("ladder", "ArcSolveError", "EscalationLadder",
                 "QUALITY_ORDER", "merge_quality")
_CHAOS_NAMES = ("chaos", "ChaosReport", "ChaosScenario",
                "ScenarioOutcome", "default_scenarios", "format_report",
                "run_matrix")
_BUDGET_NAMES = ("budget", "RunBudget", "AdmissionController",
                 "CLAMP_FULL", "CLAMP_NO_SPICE", "CLAMP_BOUND",
                 "CLAMP_ORDER")
_JOURNAL_NAMES = ("journal", "RunJournal", "JournalError",
                  "FingerprintMismatch", "run_fingerprint")


def __getattr__(name: str):
    if name in _LADDER_NAMES:
        from repro.resilience import ladder
        return ladder if name == "ladder" else getattr(ladder, name)
    if name in _CHAOS_NAMES:
        from repro.resilience import chaos
        return chaos if name == "chaos" else getattr(chaos, name)
    if name in _BUDGET_NAMES:
        from repro.resilience import budget
        return budget if name == "budget" else getattr(budget, name)
    if name in _JOURNAL_NAMES:
        from repro.resilience import journal
        return journal if name == "journal" else getattr(journal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
