"""Accuracy observatory: residual attribution for error measurements.

The repo's other observability legs watch *time* (the frame profile),
*events* (the flight recorder) and *counts* (metrics); this module
watches *error* — the quantity the paper's headline claim ("average
accuracy of 99%") is actually about.  The shadow-SPICE auditor
(:mod:`repro.analysis.audit`) and the golden suite
(:mod:`repro.analysis.golden`) build on its two pieces:

* **Region capture** — a thread-local recorder armed around a QWM
  solve.  :meth:`repro.core.qwm.QWMSolver._solve_region`
  notes every converged Newton solve's final residual norm into the
  active capture, passing the phase and tag of the frame it runs in
  (``qwm.phase12`` vs ``qwm.phase3``, region condition) and the
  active-node count K, so a per-arc error is attributable to a
  *phase*, not just a case.  When no capture is armed the hook is a
  thread-local read.

* **Attribution** — :func:`attribute_regions` rolls the captured notes
  up into an error budget whose dominant ``phase:tag`` cell names the
  phase an error (or a golden case's drift) is attributed to.

Determinism contract: nothing recorded here carries wall-clock or
host state — records are pure functions of the design, the seed and
the solver configuration, which is what makes "in-process and pooled
runs produce bit-identical audit records" testable.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "RegionCapture", "capture_regions", "note_region",
    "attribute_regions", "slew_token", "LEDGER_FORMAT",
]

#: Audit-ledger format tag (bumped on incompatible record changes).
LEDGER_FORMAT = "repro-accuracy-audit/1"

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
