"""Metrics: counters, gauges and histograms.

The process-wide registry is the metrics view of the frame ledger
(:attr:`repro.obs.frames.FrameLedger.metrics`).

Every metric has a dot-qualified name (``"qwm.newton.iterations"``),
an optional set of labels per observation and one of three kinds:

* **counter** — monotonically increasing total (``inc``).
* **gauge** — last-written value (``set``).
* **histogram** — explicit-bucket distribution (``observe``), recording
  per-bucket counts plus the running sum and count.

The registry exposes a JSON dump (machine-readable, used by the CLI
``--metrics`` flag and the benchmark artifacts).  A pool worker drains its
registry into each task's delta and the parent merges it
(:meth:`MetricsRegistry.drain`, :meth:`MetricsRegistry.merge`).

Label cardinality is bounded: once a metric holds ``max_series``
(default :data:`MAX_SERIES`) distinct label sets, observations for
*new* label sets are dropped and counted in
:attr:`MetricsRegistry.dropped_series`.

Known solver metrics are pre-declared in :data:`CATALOG` so hot-path
call sites need only a name — help text and histogram buckets are
looked up here, keeping instrumentation one-liners.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default per-metric cap on distinct label sets.
MAX_SERIES = 256
#: Buckets for iteration-count style histograms (Fibonacci-ish).
ITERATION_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)
#: Buckets for wall-time histograms [s], ~1 us .. 10 s log scale.
WALL_SECONDS_BUCKETS = tuple(
    10.0 ** e * m for e in range(-6, 1) for m in (1.0, 3.0))

#: name -> (kind, help, buckets-or-None) for the solver's known metrics.
CATALOG: Dict[str, Tuple[str, str, Optional[Tuple[float, ...]]]] = {
    "qwm.solves": (
        "counter", "QWM schedules run to completion", None),
    "qwm.newton.iterations": (
        "histogram", "Newton iterations per solved QWM region",
        ITERATION_BUCKETS),
    "qwm.region.wall_seconds": (
        "histogram", "wall time per QWM region solve (incl. retries)",
        WALL_SECONDS_BUCKETS),
    "qwm.region.retries": (
        "counter", "extra initial-guess attempts spent on QWM regions",
        None),
    "newton.convergence.failures": (
        "counter", "Newton attempts that failed to converge or were "
                   "rejected (non-advancing critical time)", None),
    "device.table.evaluations": (
        "counter", "tabular device-model I/V evaluations", None),
    "device.table.cache": (
        "counter", "table-model library lookups by result label", None),
    "engine.dc_fallback": (
        "counter", "DC initial-condition solves that fell back to the "
                   "analytic threshold-degraded estimate, by exception "
                   "class label", None),
    "linalg.solve.sherman_morrison": (
        "counter", "bordered-tridiagonal solves via Thomas + "
                   "Sherman-Morrison", None),
    "linalg.solve.dense_lu": (
        "counter", "bordered-tridiagonal solves via dense LU fallback",
        None),
    "sta.stage.solves": (
        "counter", "stage-arc QWM evaluations issued by the STA", None),
    "sta.stage.wall_seconds": (
        "histogram", "wall time per STA stage (all arcs)",
        WALL_SECONDS_BUCKETS),
    "sta.cache": (
        "counter", "stage-result cache lookups by result label", None),
    "sta.cache.entries": (
        "gauge", "stage-result cache occupancy (entries)", None),
    "sta.parallel.dispatch": (
        "counter", "stage tasks dispatched to the STA scheduler, by "
                   "backend label", None),
    "sta.parallel.waves": (
        "gauge", "levelized wave count of the last scheduled STA run",
        None),
    "sta.parallel.redispatch": (
        "counter", "pooled stage tasks re-dispatched into the main "
                   "process, by reason label (worker_crash, "
                   "stage_timeout, task_error)", None),
    "resilience.escalations": (
        "counter", "stage-arc escalations by the rung that failed "
                   "(rung label)", None),
    "resilience.arc.quality": (
        "counter", "evaluated stage arcs by the ladder rung that "
                   "produced them (quality label)", None),
    "resilience.faults.injected": (
        "counter", "faults fired by the chaos harness, by kind label",
        None),
    "cache.store_corrupt": (
        "counter", "on-disk stage-cache stores rejected at load, by "
                   "reason label (parse, version)", None),
    "spice.budget.exceeded": (
        "counter", "adaptive transient runs aborted by their step or "
                   "wall-clock budget", None),
    "spice.steps": (
        "counter", "accepted reference-engine time steps", None),
    "spice.newton.iterations": (
        "counter", "reference-engine Newton iterations", None),
    "spice.device.evaluations": (
        "counter", "golden-model device evaluations in the reference "
                   "engine", None),
    "obs.trace.dropped": (
        "counter", "finished spans dropped past the trace buffer limit",
        None),
}

#: Fallback buckets for histograms not in the catalog.
DEFAULT_BUCKETS = ITERATION_BUCKETS

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Common bookkeeping: name, kind, labeled series, lock."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help_text: str):
        self._registry = registry
        self.name = name
        self.help = help_text
        self._series: Dict[LabelKey, object] = {}
        self._lock = threading.Lock()

    def _slot(self, labels: dict, default_factory):
        """Locate (or admit) the series for a label set, or None."""
        key = _label_key(labels)
        series = self._series
        slot = series.get(key)
        if slot is None:
            with self._lock:
                slot = series.get(key)
                if slot is None:
                    if len(series) >= self._registry.max_series:
                        self._registry._drop_series()
                        return None
                    slot = default_factory()
                    series[key] = slot
        return slot

    def labelsets(self) -> List[LabelKey]:
        with self._lock:
            return list(self._series)

    def to_json(self) -> dict:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonic total, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        slot = self._slot(labels, lambda: [0.0])
        if slot is not None:
            slot[0] += amount

    def value(self, **labels) -> float:
        slot = self._series.get(_label_key(labels))
        return slot[0] if slot is not None else 0.0

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(s[0] for s in self._series.values())

    def to_json(self) -> dict:
        with self._lock:
            series = [{"labels": dict(key), "value": slot[0]}
                      for key, slot in sorted(self._series.items())]
        return {"kind": self.kind, "help": self.help, "series": series}


class Gauge(_Metric):
    """Last-written value, optionally split by labels."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        slot = self._slot(labels, lambda: [0.0])
        if slot is not None:
            slot[0] = float(value)

    def value(self, **labels) -> float:
        slot = self._series.get(_label_key(labels))
        return slot[0] if slot is not None else 0.0

    def to_json(self) -> dict:
        with self._lock:
            series = [{"labels": dict(key), "value": slot[0]}
                      for key, slot in sorted(self._series.items())]
        return {"kind": self.kind, "help": self.help, "series": series}


class _HistogramSlot:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Explicit-bucket distribution.

    ``buckets`` are upper bounds, ascending; an implicit ``+Inf``
    bucket catches the tail (Prometheus classic-histogram semantics:
    bucket counts are cumulative only in the exposition, stored
    per-bucket here).
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help_text: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help_text)
        buckets = tuple(float(b) for b in buckets)
        if not buckets or any(b2 <= b1 for b1, b2
                              in zip(buckets, buckets[1:])):
            raise ValueError("histogram buckets must be non-empty and "
                             "strictly increasing")
        if any(not math.isfinite(b) for b in buckets):
            raise ValueError("histogram buckets must be finite "
                             "(+Inf is implicit)")
        self.buckets = buckets

    def observe(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        slot = self._slot(
            labels, lambda: _HistogramSlot(len(self.buckets)))
        if slot is None:
            return
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        slot.counts[index] += 1
        slot.sum += value
        slot.count += 1

    def add_series(self, series: dict) -> None:
        """Add one dumped series' buckets, sum and count to its own."""
        slot = self._slot(
            series["labels"], lambda: _HistogramSlot(len(self.buckets)))
        if slot is None:
            return
        for index, count in enumerate(series["counts"]):
            slot.counts[index] += count
        slot.sum += series["sum"]
        slot.count += series["count"]

    def snapshot(self, **labels) -> Optional[dict]:
        """Buckets/counts/sum/count for one label set (None if empty)."""
        slot = self._series.get(_label_key(labels))
        if slot is None:
            return None
        return {"buckets": list(self.buckets),
                "counts": list(slot.counts),
                "sum": slot.sum, "count": slot.count}

    def to_json(self) -> dict:
        with self._lock:
            series = [{"labels": dict(key), "buckets": list(self.buckets),
                       "counts": list(slot.counts), "sum": slot.sum,
                       "count": slot.count}
                      for key, slot in sorted(self._series.items())]
        return {"kind": self.kind, "help": self.help, "series": series}


class MetricsRegistry:
    """Thread-safe named-metric store.

    Args:
        enabled: when False every metric operation is a no-op (the
            accessors still hand out metric objects so call sites need
            no branches of their own).
        max_series: per-metric label-cardinality cap.
    """

    def __init__(self, enabled: bool = True,
                 max_series: int = MAX_SERIES):
        self.enabled = enabled
        self.max_series = max_series
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()
        self.dropped_series = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: str, factory) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}")
        return metric

    def _catalog(self, name: str, kind: str, help_text: str,
                 buckets) -> Tuple[str, Optional[Tuple[float, ...]]]:
        entry = CATALOG.get(name)
        if entry is not None:
            cat_kind, cat_help, cat_buckets = entry
            if cat_kind == kind:
                help_text = help_text or cat_help
                buckets = buckets or cat_buckets
        return help_text, buckets

    def counter(self, name: str, help: str = "") -> Counter:
        help, _ = self._catalog(name, "counter", help, None)
        return self._get_or_create(
            name, "counter", lambda: Counter(self, name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        help, _ = self._catalog(name, "gauge", help, None)
        return self._get_or_create(
            name, "gauge", lambda: Gauge(self, name, help))

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        help, buckets = self._catalog(name, "histogram", help, buckets)
        buckets = tuple(buckets) if buckets else DEFAULT_BUCKETS
        return self._get_or_create(
            name, "histogram",
            lambda: Histogram(self, name, help, buckets))

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def _drop_series(self) -> None:
        self.dropped_series += 1

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self.dropped_series = 0

    # ------------------------------------------------------------------
    # Pool workers: drain a delta, merge it home
    # ------------------------------------------------------------------
    def drain(self) -> dict:
        """:meth:`to_json`, then :meth:`reset` (a pool task's delta)."""
        document = self.to_json()
        self.reset()
        return document

    def merge(self, document: dict) -> None:
        """Fold a :meth:`drain`-ed dump into this registry.

        Counter values add, and so do histogram buckets, sums and
        counts; addition commutes, so merged totals do not depend on
        the order workers finish in.  Gauges are skipped: a gauge
        describes the process that set it.
        """
        if not self.enabled:
            return
        for name, dump in document.get("metrics", {}).items():
            if dump["kind"] == "counter":
                counter = self.counter(name, dump["help"])
                for series in dump["series"]:
                    counter.inc(series["value"], **series["labels"])
            elif dump["kind"] == "histogram":
                for series in dump["series"]:
                    self.histogram(name, dump["help"], series["buckets"]
                                   ).add_series(series)
        self.dropped_series += document.get("dropped_series", 0)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Machine-readable dump of every metric and series."""
        return {
            "metrics": {name: self._metrics[name].to_json()
                        for name in self.names()},
            "dropped_series": self.dropped_series,
        }

    def export_json(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
