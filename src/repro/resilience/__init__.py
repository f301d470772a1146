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

Only :mod:`.faults` is imported with the package (it needs only
numpy/stdlib and the obs layer), so low-level solvers can import its
gates without cycles.  :mod:`.ladder`, :mod:`.chaos`, :mod:`.budget`
and :mod:`.journal` sit above the solver stack; import them as
submodules (``from repro.resilience import ladder``).
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
]
