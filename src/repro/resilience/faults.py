"""Deterministic fault injection for the resilience chaos harness.

A :class:`FaultPlan` is a seeded, declarative list of faults to inject
into a run: NaN-poisoned table-model cells, forced Newton
non-convergence, crashed or hung process-pool workers, truncated
on-disk stage-cache stores, and per-stage wall-clock timeouts.  The
plan is installed process-wide (:func:`install` / :func:`installed`)
and consulted by cheap gates wired into the solver stack:

* :func:`newton_should_fail` — checked at :meth:`repro.linalg.newton.
  NewtonSolver.solve` entry; a match raises ``NewtonConvergenceError``
  with ``reason="fault_injected"``.
* :func:`check_stage_timeout` — checked at
  :meth:`repro.core.engine.WaveformEvaluator.evaluate` entry; a match
  raises :class:`StageTimeoutError`.
* :func:`worker_gate` — checked at the top of the process-backend
  stage task; crashes (``os._exit``) or hangs (``time.sleep``) the
  worker, but only inside a real pool worker
  (:func:`mark_worker_process`), so the parent's serial re-dispatch of
  the same stage survives.
* :func:`apply_table_faults` / :func:`apply_store_faults` /
  :func:`apply_journal_faults` — applied by the chaos harness before
  (or between) runs: NaN cells, truncated JSON store, truncated run
  journal.
* :func:`journal_write_gate` / :func:`wave_gate` /
  :func:`deadline_exhaust_gate` — run-durability faults: an injected
  ``ENOSPC`` on journal flush, a hard :class:`RunKilled` between waves
  (the crash the journal+resume path must absorb), and a simulated
  spent deadline that forces the admission controller to clamp.

Every gate is a no-op attribute check while no plan is installed, so
production runs pay nothing.  Targeting reads the open frames
(:meth:`repro.obs.frames.FrameLedger.context`): the evaluator and the
solvers open frames carrying the stage name, the escalation ladder one
carrying the active rung (``qwm``, ``qwm-retry``, ``spice``; a
solver's own default rung never overrides it), and the stage timeout
runs from the start of the open ``sta.arc`` frame, so one spec can
fail exactly the rungs a chaos scenario wants to prove degrade
correctly.  Installing a plan makes the ledger open those frames.

Determinism: all randomness (which table cells get poisoned) comes
from ``numpy.random.default_rng(plan.seed)``; the Newton/timeout gates
are counting-based (``nth`` / ``count``), not sampled.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs import inc, ledger

__all__ = [
    "FAULT_KINDS", "FaultSpec", "FaultPlan", "StageTimeoutError",
    "RunKilled",
    "install", "uninstall", "installed", "active_plan",
    "mark_worker_process",
    "newton_should_fail", "check_stage_timeout", "worker_gate",
    "journal_write_gate", "wave_gate", "deadline_exhaust_gate",
    "apply_table_faults", "apply_store_faults",
    "apply_journal_faults", "truncate_file",
]

#: The injectable fault classes.
FAULT_KINDS = (
    "nan_table",
    "newton_nonconverge",
    "worker_crash",
    "worker_hang",
    "cache_truncate",
    "stage_timeout",
    "journal_enospc",
    "journal_truncate",
    "run_kill",
    "deadline_exhaust",
)

#: Exit code a fault-crashed pool worker dies with (diagnosable in CI).
WORKER_CRASH_EXIT_CODE = 23


class StageTimeoutError(RuntimeError):
    """A stage arc exceeded its wall-clock budget.

    Raised both by the injected ``stage_timeout`` fault and by the
    escalation ladder's own ``EscalationPolicy.stage_timeout``
    enforcement; the ladder absorbs it by skipping further solver
    rungs and falling through to the switch-level bound.
    """

    def __init__(self, message: str, stage: Optional[str] = None,
                 budget: Optional[float] = None,
                 elapsed: Optional[float] = None):
        super().__init__(message)
        self.stage = stage
        self.budget = budget
        self.elapsed = elapsed


class RunKilled(RuntimeError):
    """An injected hard kill between scheduling waves.

    Raised by :func:`wave_gate` right after a wave's journal segment
    has been flushed — the moment a real ``kill -9`` would be most
    harmful.  The chaos harness catches it, resumes from the journal
    and asserts bit-identical arrivals.
    """

    def __init__(self, message: str, wave: Optional[int] = None):
        super().__init__(message)
        self.wave = wave


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        stage: stage name the fault targets (None = any stage).
        rungs: escalation-ladder rungs a ``newton_nonconverge`` fault
            fires in (empty tuple = any rung, including outside the
            ladder).  Rung-scoped faults are what make per-rung chaos
            scenarios deterministic: failing only ``("qwm",)`` must be
            absorbed by the retry rung, failing
            ``("qwm", "qwm-retry")`` by the SPICE rung, and so on.
        nth: fire only on the Nth gated call that matches (1-based);
            None fires on every match.
        count: maximum number of firings (None = unlimited).
        timeout_seconds: ``stage_timeout`` budget [s] (0 fires on the
            first gated call of the stage).
        hang_seconds: ``worker_hang`` sleep [s] — keep finite so the
            abandoned worker eventually exits.
        fraction: ``nan_table`` fraction of grid cells poisoned (0, 1];
            for ``cache_truncate`` / ``journal_truncate`` the kept byte
            fraction.
        polarity: ``nan_table`` table polarity (``"n"`` or ``"p"``).
        wave: scheduling-wave index a ``run_kill`` fault targets (None
            fires on any newly journaled wave).  Wave targeting is what
            keeps kill->resume deterministic: a resumed run replays the
            targeted wave from the journal instead of re-recording it,
            so the fault cannot re-fire.
    """

    kind: str
    stage: Optional[str] = None
    rungs: Tuple[str, ...] = ()
    nth: Optional[int] = None
    count: Optional[int] = None
    timeout_seconds: float = 0.0
    hang_seconds: float = 2.5
    fraction: float = 0.25
    polarity: str = "n"
    wave: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, "
                             f"got {self.kind!r}")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 or None")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.polarity not in ("n", "p"):
            raise ValueError("polarity must be 'n' or 'p'")
        if self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if self.wave is not None and self.wave < 0:
            raise ValueError("wave must be non-negative")

    def to_json(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) != f.default}

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "FaultSpec":
        document = dict(document)
        if "rungs" in document:
            document["rungs"] = tuple(document["rungs"])
        return cls(**document)


class FaultPlan:
    """A seeded set of :class:`FaultSpec` with firing bookkeeping.

    The plan is picklable (it ships to process-pool workers through the
    pool initializer), and its counters are process-local: the parent
    only relies on worker-side counters for the crash/hang gates, whose
    effects (a dead pool, a watchdog timeout) it observes directly.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...] = (), seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._calls: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}

    # -- pickling: locks do not pickle ---------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        with self._lock:
            return {"specs": self.specs, "seed": self.seed,
                    "calls": dict(self._calls), "fired": dict(self._fired)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.specs = tuple(state["specs"])
        self.seed = state["seed"]
        self._lock = threading.Lock()
        self._calls = dict(state["calls"])
        self._fired = dict(state["fired"])

    # ------------------------------------------------------------------
    def _arm(self, index: int) -> bool:
        """Count one gated call of spec ``index``; True when it fires."""
        spec = self.specs[index]
        with self._lock:
            calls = self._calls.get(index, 0) + 1
            self._calls[index] = calls
            fired = self._fired.get(index, 0)
            if spec.nth is not None and calls != spec.nth:
                return False
            if spec.count is not None and fired >= spec.count:
                return False
            self._fired[index] = fired + 1
            return True

    def note_fired(self, index: int) -> None:
        """Record a firing applied outside the counting gates."""
        with self._lock:
            self._calls[index] = self._calls.get(index, 0) + 1
            self._fired[index] = self._fired.get(index, 0) + 1

    def fired(self, kind: Optional[str] = None) -> int:
        """Total firings, optionally restricted to one fault kind."""
        with self._lock:
            return sum(n for i, n in self._fired.items()
                       if kind is None or self.specs[i].kind == kind)

    def matching(self, kind: str) -> Iterator[Tuple[int, FaultSpec]]:
        for index, spec in enumerate(self.specs):
            if spec.kind == kind:
                yield index, spec

    def to_json(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "specs": [s.to_json() for s in self.specs]}

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "FaultPlan":
        return cls(tuple(FaultSpec.from_json(s)
                         for s in document.get("specs", [])),
                   seed=document.get("seed", 0))


# ----------------------------------------------------------------------
# Process-wide installation.
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_IN_WORKER = False


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (replacing any previous plan)."""
    global _PLAN
    _PLAN = plan
    ledger().set_targeting(True)
    return plan


def uninstall() -> None:
    """Remove the installed plan; all gates become no-ops again."""
    global _PLAN
    _PLAN = None
    ledger().set_targeting(False)


@contextmanager
def installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the block."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        if previous is None:
            uninstall()
        else:
            install(previous)


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def mark_worker_process() -> None:
    """Flag this process as a pool worker (enables the worker gates).

    Called by the process-pool initializer; crash/hang faults only fire
    where this flag is set, so the parent's serial re-dispatch of a
    crashed stage cannot re-crash the parent.
    """
    global _IN_WORKER
    _IN_WORKER = True


def _note_injection(spec: FaultSpec, **extra: Any) -> None:
    inc("resilience.faults.injected", kind=spec.kind)
    led = ledger()
    if led.recording:
        led.record("fault_injected", kind=spec.kind, stage=spec.stage,
                   **extra)


def _stage_matches(spec: FaultSpec, scope_stage: Optional[str]) -> bool:
    return spec.stage is None or spec.stage == scope_stage


# ----------------------------------------------------------------------
# Gates (called from the solver stack).
# ----------------------------------------------------------------------
def newton_should_fail() -> bool:
    """True when an installed ``newton_nonconverge`` fault fires here.

    The caller (:meth:`NewtonSolver.solve`) raises the actual
    ``NewtonConvergenceError`` so this module stays import-light.
    """
    plan = _PLAN
    if plan is None:
        return False
    ctx = ledger().context()
    for index, spec in plan.matching("newton_nonconverge"):
        if not _stage_matches(spec, ctx.get("stage")):
            continue
        if spec.rungs and ctx.get("rung") not in spec.rungs:
            continue
        if plan._arm(index):
            _note_injection(spec, rung=ctx.get("rung"))
            return True
    return False


def check_stage_timeout() -> None:
    """Raise :class:`StageTimeoutError` when a timeout fault expires.

    Only meaningful under an STA arc: the elapsed time runs from the
    start of the open ``sta.arc`` frame; standalone evaluator calls are
    never timed out.
    """
    plan = _PLAN
    if plan is None:
        return
    led = ledger()
    arc = led.opened("sta.arc")
    if arc is None:
        return
    ctx = led.context()
    for index, spec in plan.matching("stage_timeout"):
        if not _stage_matches(spec, ctx.get("stage")):
            continue
        elapsed = time.perf_counter() - arc.start
        if elapsed < spec.timeout_seconds:
            continue
        if plan._arm(index):
            _note_injection(spec, elapsed=elapsed)
            raise StageTimeoutError(
                f"injected stage timeout after {elapsed:.3g}s "
                f"(budget {spec.timeout_seconds:.3g}s)",
                stage=ctx.get("stage"), budget=spec.timeout_seconds,
                elapsed=elapsed)


def worker_gate(stage_name: str) -> None:
    """Crash or hang a pool worker about to evaluate ``stage_name``.

    No-op outside marked worker processes — the parent re-dispatching
    the same stage serially must survive.
    """
    plan = _PLAN
    if plan is None or not _IN_WORKER:
        return
    for index, spec in plan.matching("worker_hang"):
        if _stage_matches(spec, stage_name) and plan._arm(index):
            time.sleep(spec.hang_seconds)
    for index, spec in plan.matching("worker_crash"):
        if _stage_matches(spec, stage_name) and plan._arm(index):
            # A hard kill, not an exception: this is what a segfaulted
            # or OOM-killed worker looks like to the parent pool.
            os._exit(WORKER_CRASH_EXIT_CODE)


def journal_write_gate(path: str) -> None:
    """Raise an injected ``ENOSPC`` :class:`OSError` on journal flush.

    Called by :meth:`repro.resilience.journal.RunJournal.flush` before
    any bytes are written; the journal absorbs the error by disabling
    itself for the rest of the run (durability degrades, the analysis
    still completes).
    """
    plan = _PLAN
    if plan is None:
        return
    import errno

    for index, spec in plan.matching("journal_enospc"):
        if plan._arm(index):
            _note_injection(spec, path=path)
            raise OSError(errno.ENOSPC,
                          "injected ENOSPC on journal write", path)


def wave_gate(wave: int) -> None:
    """Raise :class:`RunKilled` after wave ``wave`` was journaled.

    The engine calls this only when :meth:`RunJournal.record_wave`
    newly recorded the wave, so a resumed run (which replays the wave
    instead of re-recording it) never re-triggers the kill.
    """
    plan = _PLAN
    if plan is None:
        return
    for index, spec in plan.matching("run_kill"):
        if spec.wave is not None and spec.wave != wave:
            continue
        if plan._arm(index):
            _note_injection(spec, wave=wave)
            raise RunKilled(
                f"injected run kill after wave {wave} checkpoint",
                wave=wave)


def deadline_exhaust_gate() -> bool:
    """True when an installed ``deadline_exhaust`` fault fires here.

    Consulted by the admission controller on each :meth:`admit` call;
    a firing marks the run budget as permanently spent, forcing the
    clamp ladder to the conservative bound mid-run.
    """
    plan = _PLAN
    if plan is None:
        return False
    for index, spec in plan.matching("deadline_exhaust"):
        if plan._arm(index):
            _note_injection(spec)
            return True
    return False


# ----------------------------------------------------------------------
# Static fault application (run by the chaos harness before a run).
# ----------------------------------------------------------------------
def apply_table_faults(plan: FaultPlan, library) -> int:
    """Poison characterized table-model cells with NaN, per plan.

    The five polynomial I/V coefficients of the selected grid cells
    become NaN; the threshold/saturation planes stay finite so path
    extraction (a structural operation) keeps working and the failure
    surfaces inside the Newton solves, exactly like a corrupted
    characterization artifact would.  Returns the poisoned cell count.
    """
    import math

    import numpy as np

    poisoned = 0
    for index, spec in plan.matching("nan_table"):
        table = library.get(spec.polarity)
        grid = table.grid
        rows = len(grid.fits)
        cols = len(grid.fits[0]) if rows else 0
        total = rows * cols
        if total == 0:
            continue
        want = max(1, int(math.floor(spec.fraction * total)))
        rng = np.random.default_rng(plan.seed + index)
        flat = rng.choice(total, size=min(want, total), replace=False)
        nan = float("nan")
        for cell in sorted(int(c) for c in flat):
            i, j = divmod(cell, cols)
            grid.fits[i][j] = replace(grid.fits[i][j], s1=nan, s0=nan,
                                      t2=nan, t1=nan, t0=nan)
            poisoned += 1
        plan.note_fired(index)
        _note_injection(spec, cells=int(min(want, total)))
    return poisoned


def truncate_file(path: str, keep_fraction: float = 0.5) -> int:
    """Truncate a file to a fraction of its size; returns the new size."""
    size = os.path.getsize(path)
    keep = max(1, int(size * keep_fraction))
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return keep


def apply_store_faults(plan: FaultPlan, path: str) -> bool:
    """Truncate an on-disk stage-cache store, per plan.

    Returns True when a ``cache_truncate`` spec applied.  The fraction
    field doubles as the kept byte fraction.
    """
    applied = False
    for index, spec in plan.matching("cache_truncate"):
        if not os.path.exists(path):
            continue
        truncate_file(path, keep_fraction=spec.fraction)
        plan.note_fired(index)
        _note_injection(spec, path=path)
        applied = True
    return applied


def apply_journal_faults(plan: FaultPlan, path: str) -> bool:
    """Truncate an on-disk run journal, per plan.

    Returns True when a ``journal_truncate`` spec applied; the
    fraction field is the kept byte fraction.  A truncated tail must
    cost at most the damaged waves — resume re-runs them.
    """
    applied = False
    for index, spec in plan.matching("journal_truncate"):
        if not os.path.exists(path):
            continue
        truncate_file(path, keep_fraction=spec.fraction)
        plan.note_fired(index)
        _note_injection(spec, path=path)
        applied = True
    return applied
