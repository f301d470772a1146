"""Accuracy observatory: error ledgers and residual attribution.

The repo's other observability legs watch *time* (the frame profile),
*events* (the flight recorder) and *counts* (metrics); this module
watches *error* — the quantity the paper's headline claim ("average
accuracy of 99%") is actually about.  The shadow-SPICE auditor
(:mod:`repro.analysis.audit`) builds on its two pieces:

* **Region capture** — a thread-local recorder the auditor arms around
  a QWM re-solve.  :meth:`repro.core.qwm.QWMSolver._solve_region`
  notes every converged Newton solve's final residual norm into the
  active capture, passing the phase and tag of the frame it runs in
  (``qwm.phase12`` vs ``qwm.phase3``, region condition) and the
  active-node count K, so a per-arc error is attributable to a
  *phase*, not just a case.  When no capture is armed the hook is a
  thread-local read.

* **History ledger** — append-only ``ACCURACY_history.jsonl`` entries
  (format :data:`HISTORY_FORMAT`) fed by the golden suite, audits and
  the benchmark accuracy section; ``repro accuracy-diff`` compares
  consecutive entries direction-aware (error *growing* is a
  regression, error shrinking never is).

Determinism contract: nothing recorded here carries wall-clock or
host state — records are pure functions of the design, the seed and
the solver configuration, which is what makes "in-process and pooled
runs produce bit-identical audit records" testable.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "RegionCapture", "capture_regions", "note_region",
    "attribute_regions", "slew_token", "history_entry",
    "append_history_entry", "load_history_entries",
    "accuracy_regressions", "worst_regression",
    "LEDGER_FORMAT", "HISTORY_FORMAT",
]

#: Audit-ledger format tag (bumped on incompatible record changes).
LEDGER_FORMAT = "repro-accuracy-audit/1"
#: History-ledger format tag (one JSONL entry per golden/audit run).
HISTORY_FORMAT = "repro-accuracy-history/1"

#: One arc candidate: (stage, output, direction, input, slew token).
ArcKey = Tuple[str, str, str, str, str]


def slew_token(input_slew: Optional[float]) -> str:
    """Canonical string form of an arc's input slew (``step`` for None).

    Shared by the audit arc keys and the stage cache's arc keys.
    """
    return "step" if not input_slew else repr(float(input_slew))


# ----------------------------------------------------------------------
# Region capture: thread-local residual attribution for one re-solve.
# ----------------------------------------------------------------------
class RegionCapture:
    """Accumulates per-region residual notes during one QWM solve."""

    __slots__ = ("notes",)

    def __init__(self) -> None:
        self.notes: List[Dict[str, Any]] = []

    def note(self, phase: str, tag: str, k: int, residual_norm: float,
             iterations: int) -> None:
        self.notes.append({
            "phase": phase,
            "tag": tag,
            "k": int(k),
            "residual_norm": float(residual_norm),
            "iterations": int(iterations),
        })


_LOCAL = threading.local()


@contextmanager
def capture_regions() -> Iterator[RegionCapture]:
    """Arm region capture for the enclosed solve (thread-local)."""
    previous = getattr(_LOCAL, "capture", None)
    _LOCAL.capture = RegionCapture()
    try:
        yield _LOCAL.capture
    finally:
        _LOCAL.capture = previous


def note_region(phase: str, tag: str, k: int, residual_norm: float,
                iterations: int) -> None:
    """Note one converged region into the active capture (if armed).

    ``phase`` and ``tag`` are the caller's frame label parts
    (``qwm.phase3``, ``crossing``), so captured residuals carry the
    profile's taxonomy.
    """
    capture = getattr(_LOCAL, "capture", None)
    if capture is not None:
        capture.note(phase, tag, k, residual_norm, iterations)


def attribute_regions(notes: Sequence[Dict[str, Any]]
                      ) -> Dict[str, Any]:
    """Aggregate captured region notes into an error-budget attribution.

    Groups notes by ``phase:tag`` cell; the *dominant* cell is the one
    with the largest summed final residual norm (ties break
    lexicographically, so attribution is deterministic).  Returns the
    cells plus the dominant label, region count and the maximum
    active-node count K seen.
    """
    cells: Dict[str, Dict[str, Any]] = {}
    for entry in notes:
        label = f"{entry['phase']}:{entry['tag']}"
        cell = cells.setdefault(label, {
            "regions": 0, "iterations": 0,
            "residual_norm_sum": 0.0, "max_k": 0})
        cell["regions"] += 1
        cell["iterations"] += int(entry["iterations"])
        cell["residual_norm_sum"] += float(entry["residual_norm"])
        cell["max_k"] = max(cell["max_k"], int(entry["k"]))
    dominant = None
    for label in sorted(cells):
        score = cells[label]["residual_norm_sum"]
        if dominant is None or score > cells[dominant][
                "residual_norm_sum"]:
            dominant = label
    return {
        "regions": sum(cell["regions"] for cell in cells.values()),
        "max_k": max([cell["max_k"] for cell in cells.values()],
                     default=0),
        "dominant": dominant,
        "cells": {label: cells[label] for label in sorted(cells)},
    }


# ----------------------------------------------------------------------
# History ledger (ACCURACY_history.jsonl).
# ----------------------------------------------------------------------
def history_entry(run: str, cases: Dict[str, Dict[str, Any]],
                  git_sha: str = "unknown",
                  extra: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """Build one history-ledger entry.

    Args:
        run: source of the errors (``"golden"``, ``"sta-audit"``,
            ``"bench-headline"``).
        cases: case/arc name -> per-case section.  Recognized keys:
            ``delay_error_pct`` (required for the diff),
            ``slew_error_pct``, ``margin_to_band_pct``,
            ``attribution`` (dominant ``phase:tag`` label), ``status``.
        git_sha: HEAD commit, when known.
        extra: optional additional top-level fields (e.g. audit seed).

    Deliberately carries no timestamp: entries must be bit-identical
    when the design and solver are (lint rule DET003), and the ledger
    is append-only so ordering already encodes history.
    """
    errors = [float(section["delay_error_pct"])
              for section in cases.values()
              if section.get("delay_error_pct") is not None]
    worst_case = None
    for name in sorted(cases):
        err = cases[name].get("delay_error_pct")
        if err is None:
            continue
        if worst_case is None \
                or err > cases[worst_case]["delay_error_pct"]:
            worst_case = name
    entry: Dict[str, Any] = {
        "format": HISTORY_FORMAT,
        "run": run,
        "git_sha": git_sha,
        "cases": {name: cases[name] for name in sorted(cases)},
        "summary": {
            "cases": len(cases),
            "compared": len(errors),
            "mean_delay_error_pct": (sum(errors) / len(errors)
                                     if errors else None),
            "worst_delay_error_pct": (max(errors) if errors else None),
            "worst_case": worst_case,
        },
    }
    if extra:
        entry.update(extra)
    return entry


def append_history_entry(entry: Dict[str, Any], path: str) -> str:
    """Append one entry to a JSONL accuracy-history ledger."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def load_history_entries(path: str) -> List[Dict[str, Any]]:
    """All entries of an accuracy-history ledger (oldest first)."""
    if not os.path.exists(path):
        return []
    entries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def accuracy_regressions(prev: Dict[str, Any], last: Dict[str, Any],
                         threshold_pp: float) -> List[Dict[str, Any]]:
    """Per-case drift between two history entries, direction-aware.

    A case *regresses* when its delay error grew by more than
    ``threshold_pp`` percentage points, or when it newly left the
    tolerance band (``margin_to_band_pct`` crossing below zero).
    Error shrinking is never a regression — the gate is one-sided,
    like ``repro bench-diff``'s lower-is-better metrics.
    """
    rows = []
    prev_cases = prev.get("cases", {})
    for name in sorted(last.get("cases", {})):
        current = last["cases"][name]
        baseline = prev_cases.get(name)
        if baseline is None:
            continue
        err_now = current.get("delay_error_pct")
        err_before = baseline.get("delay_error_pct")
        if err_now is None or err_before is None:
            continue
        drift_pp = float(err_now) - float(err_before)
        margin_now = current.get("margin_to_band_pct")
        margin_before = baseline.get("margin_to_band_pct")
        left_band = (margin_now is not None
                     and margin_before is not None
                     and margin_now < 0.0 <= margin_before)
        rows.append({
            "case": name,
            "baseline_error_pct": float(err_before),
            "current_error_pct": float(err_now),
            "drift_pp": drift_pp,
            "attribution": current.get("attribution"),
            "left_band": left_band,
            "regression": drift_pp > threshold_pp or left_band,
        })
    return rows


def worst_regression(rows: Sequence[Dict[str, Any]]
                     ) -> Optional[Dict[str, Any]]:
    """The worst-drifting regressed case (None when nothing regressed)."""
    worst = None
    for row in rows:
        if not row["regression"]:
            continue
        if worst is None or row["drift_pp"] > worst["drift_pp"]:
            worst = row
    return worst
