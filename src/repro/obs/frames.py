"""One instrumentation frame, four views: trace, profile, metrics, flight.

Every instrumented site opens exactly one *frame*::

    with frame("qwm.phase3", "crossing", kind="CrossingCondition") as fr:
        ...
        fr.count("newton_iterations", iterations)
        fr.set(order=2)

Frames nest on one thread-local stack.  When a frame exits it feeds
whichever views are on:

* **trace view** — the closed frame itself is the span record, named
  ``name`` (the tag, when given, is its ``tag`` attribute), exported as
  a Chrome ``trace_event`` file and rendered by :func:`format_span_tree`
  (the ``repro stats`` wall-time tree);
* **profile view** — the frame's self time (its wall time minus that of
  its child frames), one call and its counted ops, added to the
  *cell* keyed by the path of ``name:tag`` labels from the root
  (``("sta.arc:nand3", "engine.evaluate:nand3", "qwm.solve",
  "qwm.phase3:crossing")``).  Ops are flushed once per frame, never per
  inner-loop iteration — the discipline lint rule SOL006 enforces.

The ledger's third view, the **metrics** registry
(:class:`repro.obs.metrics.MetricsRegistry`), is fed by :func:`inc`,
:func:`observe` and :func:`set_gauge` rather than by frame exits; the
fourth, the **flight** view (:mod:`repro.obs.flight`), by the solver's
``record`` calls: solve lifecycle, per-region Newton trajectories and
cache provenance.

A frame may carry *arc context* (``frame("sta.arc", ..., ctx={...})``):
the stage, rung, switching input or golden case of the work inside
it.  The open frames are the only carrier of that context: the fault
gates (:mod:`repro.resilience.faults`) and the flight events read it
through :meth:`FrameLedger.context`.

With every view off and no fault plan installed (the default)
:func:`frame` returns a shared no-op and each metric helper returns,
after one attribute check; while only the flight view or a fault plan
is on, only frames that carry context are opened.
:func:`repro.obs.configure` / :func:`repro.obs.disable` switch the
trace and metrics views, :func:`configure_profile` /
:func:`disable_profile` the profile view and :func:`configure_flight`
/ :func:`disable_flight` the flight view; switching one never clears
or disables another.

The profile cells, the metric series and the flight events are
deterministic and mergeable: a pool worker drains all three after each
stage task and the parent adds them in (cells under the frame path
open at merge time, flight events under renumbered solve ids), so a
pooled run reports op counts, metrics and events equal to the serial
run's.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.flight import FlightConfig, LedgerEvent
from repro.obs.metrics import MetricsRegistry

#: Profile-ledger format tag (bumped on incompatible cell-shape changes).
LEDGER_FORMAT = "repro-phase-profile/1"
#: Flight-ledger format tag (:meth:`FrameLedger.flight_json`).
FLIGHT_FORMAT = "repro-flight-ledger/1"
#: Retained span records; later spans are timed but dropped (and
#: counted in ``obs.trace.dropped``).
TRACE_LIMIT = 100_000
#: Debug bundles written per flight view (a failing sweep should not
#: fill the disk).
MAX_BUNDLES = 16
#: Context keys that steer the run rather than describe the arc: the
#: rung a fault targets and a forced bundle capture.  Flight events
#: and bundles leave them out (:meth:`FrameLedger.flight_context`).
STEERING_KEYS = ("rung", "capture")


@dataclass
class ProfileConfig:
    """Controls for the profile view.

    Attributes:
        enabled: master switch.  When False (the default) frames feed
            no profile cells.
        max_cells: cap on distinct (path) cells retained; cells beyond
            the cap are dropped and counted, so a pathological label
            cardinality cannot grow the ledger without bound.
    """

    enabled: bool = False
    max_cells: int = 4096

    def __post_init__(self) -> None:
        if self.max_cells < 1:
            raise ValueError("max_cells must be >= 1")


class _NoopFrame:
    """Shared do-nothing frame returned while its views are off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopFrame":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def count(self, op: str, amount: float = 1.0) -> None:
        pass

    def close(self) -> None:
        pass


NOOP_FRAME = _NoopFrame()


class Frame:
    """One piece of work; created by :func:`frame` or :func:`interval`.

    Open, it is a context manager; closed under the trace view, it is
    that view's span record.  ``path`` is set at entry while the
    profile view is on, ``span_id`` (unique, monotonic) and
    ``parent_id`` while the trace view is on; exit feeds each view
    that has one.  ``ctx`` is the arc context it carries (or None).
    ``start`` is the entry instant on ``perf_counter``'s clock,
    ``duration`` the wall time [s] and ``thread`` the OS thread ident
    it ran on.
    """

    __slots__ = ("_ledger", "name", "label", "attrs", "ctx", "ops",
                 "path", "span_id", "parent_id", "child_seconds",
                 "start", "duration", "thread")

    def __init__(self, ledger: "FrameLedger", name: str,
                 tag: Optional[str], attrs: Dict[str, Any],
                 ctx: Optional[Dict[str, Any]] = None):
        self._ledger = ledger
        self.ctx = ctx
        self.name = name
        self.label = f"{name}:{tag}" if tag else name
        if tag:
            attrs["tag"] = tag
        self.attrs = attrs
        self.ops: Dict[str, float] = {}
        self.path: Optional[Tuple[str, ...]] = None
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.child_seconds = 0.0
        self.start = self.duration = 0.0
        self.thread = 0

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite span attributes while the frame is open."""
        self.attrs.update(attrs)

    def count(self, op: str, amount: float = 1.0) -> None:
        """Accumulate an op count, flushed once at frame exit."""
        self.ops[op] = self.ops.get(op, 0) + amount

    def __enter__(self) -> "Frame":
        self._ledger._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._ledger._pop(self, time.perf_counter() - self.start)
        return False

    def close(self) -> None:
        """End an :func:`interval` (it never entered the stack)."""
        self._ledger._finish(self, time.perf_counter() - self.start)


class _Cell:
    """Accumulated cost of one frame path."""

    __slots__ = ("self_seconds", "calls", "ops")

    def __init__(self) -> None:
        self.self_seconds = 0.0
        self.calls = 0
        self.ops: Dict[str, float] = {}


class FrameLedger:
    """The frame stack and the views it feeds.

    The stack is thread-local, so frames nest per thread; one lock
    guards the trace, profile and flight buffers and is taken at frame
    *exit* (once per view fed) or per flight event, never per op
    counted.  The ledger is the only holder of the metrics registry and
    of the flight events.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self.tracing = False
        self.profiling = False
        self.recording = False
        #: A fault plan is installed: its gates read the arc context.
        self.targeting = False
        #: Trace or profile view on: every frame is opened.
        self.viewing = False
        #: Trace, profile or flight view on, or a fault plan installed:
        #: the one check the disabled path pays.
        self.active = False
        self._spans: List[Frame] = []
        self._spans_dropped = 0
        #: perf_counter offset so exported timestamps start near zero.
        self._t0 = time.perf_counter()
        self.profile_config = ProfileConfig()
        self._cells: Dict[Tuple[str, ...], _Cell] = {}
        self._cells_dropped = 0
        self.metrics = MetricsRegistry(enabled=False)
        self.flight_config = FlightConfig()
        self._events: List[LedgerEvent] = []
        self._events_dropped = 0
        self._solves = 0
        self._bundles = 0
        # arc cache key -> {"solve_ids": [...], "hits": int}
        self._provenance: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # View switches
    # ------------------------------------------------------------------
    def _switched(self) -> None:
        self.viewing = self.tracing or self.profiling
        self.active = self.viewing or self.recording or self.targeting

    def set_trace(self, enabled: bool) -> None:
        """Switch the trace view, starting an empty span buffer."""
        with self._lock:
            self.tracing = enabled
            self._spans = []
            self._spans_dropped = 0
            self._t0 = time.perf_counter()
        self._switched()

    def set_metrics(self, enabled: bool) -> None:
        """Switch the metrics view, starting an empty registry."""
        self.metrics = MetricsRegistry(enabled=enabled)

    def set_profile(self, config: ProfileConfig) -> None:
        """Switch the profile view, starting an empty cell table."""
        with self._lock:
            self.profiling = config.enabled
            self.profile_config = config
            self._cells = {}
            self._cells_dropped = 0
        self._switched()

    def set_flight(self, config: FlightConfig) -> None:
        """Switch the flight view, starting an empty event ledger."""
        with self._lock:
            self.recording = config.enabled
            self.flight_config = config
            self._events = []
            self._events_dropped = 0
            self._solves = self._bundles = 0
            self._provenance = {}
        self._switched()

    def set_targeting(self, installed: bool) -> None:
        """Note whether a fault plan, which reads the context, is on."""
        self.targeting = installed
        self._switched()

    # ------------------------------------------------------------------
    # Frame lifecycle
    # ------------------------------------------------------------------
    def _stack(self) -> List[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, frame: Frame) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if self.profiling:
            base = parent.path if parent is not None else None
            frame.path = (base or ()) + (frame.label,)
        if self.tracing:
            frame.parent_id = parent.span_id if parent is not None \
                else None
            frame.span_id = next(self._ids)
        stack.append(frame)

    def _pop(self, frame: Frame, elapsed: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:  # tolerate out-of-order exits
            stack.remove(frame)
        if stack:
            stack[-1].child_seconds += elapsed
        self._finish(frame, elapsed)

    def _finish(self, frame: Frame, elapsed: float) -> None:
        """Feed the views a frame opened into (those still on)."""
        if frame.path is not None and self.profiling:
            self._add_cell(frame.path,
                           max(elapsed - frame.child_seconds, 0.0), 1,
                           frame.ops)
        if frame.span_id is None or not self.tracing:
            return
        frame.duration = elapsed
        frame.thread = threading.get_ident()
        with self._lock:
            dropped = len(self._spans) >= TRACE_LIMIT
            if dropped:
                self._spans_dropped += 1
            else:
                self._spans.append(frame)
        if dropped:
            # A silently truncated trace must show up in the metrics.
            self.metrics.counter("obs.trace.dropped").inc()

    # ------------------------------------------------------------------
    # Arc context: what the open frames carry
    # ------------------------------------------------------------------
    def context(self) -> Dict[str, Any]:
        """The arc context of this thread's open frames.

        Each key comes from the outermost frame that gives it, so a
        solver's own default (``rung="qwm"``) never overrides the rung
        the escalation ladder opened around it.
        """
        merged: Dict[str, Any] = {}
        for open_frame in self._stack():
            for key, value in (open_frame.ctx or {}).items():
                merged.setdefault(key, value)
        return merged

    def flight_context(self) -> Dict[str, Any]:
        """:meth:`context` without the :data:`STEERING_KEYS`."""
        return {key: value for key, value in self.context().items()
                if key not in STEERING_KEYS}

    def opened(self, name: str) -> Optional[Frame]:
        """The outermost open frame called ``name`` on this thread."""
        for open_frame in self._stack():
            if open_frame.name == name:
                return open_frame
        return None

    # ------------------------------------------------------------------
    # Flight view: events, solve ids, cache provenance, bundle budget
    # ------------------------------------------------------------------
    def record(self, kind: str, /, solve_id: int = 0, **data: Any
               ) -> None:
        """Append one flight event (drop + count when full)."""
        with self._lock:
            limit = self.flight_config.event_limit
            if limit is not None and len(self._events) >= limit:
                self._events_dropped += 1
                return
            self._events.append(LedgerEvent(
                seq=len(self._events) + 1, solve_id=solve_id, kind=kind,
                data=data))

    def begin_solve(self, **attrs: Any) -> int:
        """Allocate a solve id and record ``solve_begin``.

        The event carries the :meth:`flight_context`, then ``attrs``.
        """
        with self._lock:
            self._solves += 1
            solve_id = self._solves
        data = self.flight_context()
        data.update(attrs)
        self.record("solve_begin", solve_id=solve_id, **data)
        return solve_id

    def next_solve_id(self) -> int:
        """The id the *next* ``begin_solve`` will return (for ranges)."""
        with self._lock:
            return self._solves + 1

    def note_arc_result(self, key: str, first_solve: int,
                        next_solve: int) -> None:
        """Attribute an arc's cached value to the solves that made it.

        ``first_solve`` is :meth:`next_solve_id` sampled before the arc
        was computed, ``next_solve`` the same sample after — the
        half-open id range covers exactly the solves the arc ran.
        """
        solve_ids = list(range(first_solve, next_solve))
        with self._lock:
            entry = self._provenance.setdefault(
                key, {"solve_ids": [], "hits": 0})
            entry["solve_ids"] = solve_ids
        self.record("arc_result", solve_id=first_solve if solve_ids else 0,
                    key=key, solve_ids=solve_ids)

    def note_cache_hit(self, key: str) -> None:
        """Record a cache hit, pointing back at the original solves."""
        with self._lock:
            entry = self._provenance.setdefault(
                key, {"solve_ids": [], "hits": 0})
            entry["hits"] += 1
            origin = list(entry["solve_ids"])
        self.record("cache_hit", key=key, origin_solve_ids=origin)

    def claim_bundle_slot(self) -> bool:
        """Reserve one bundle write; False once the budget is spent."""
        with self._lock:
            if self._bundles >= MAX_BUNDLES:
                return False
            self._bundles += 1
            return True

    def events(self) -> List[LedgerEvent]:
        with self._lock:
            return list(self._events)

    def provenance(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {k: dict(v) for k, v in self._provenance.items()}

    def flight_stats(self) -> Dict[str, int]:
        with self._lock:
            return {"recorded": len(self._events),
                    "dropped": self._events_dropped,
                    "solves": self._solves,
                    "bundles": self._bundles}

    def flight_json(self, solve_id: Optional[int] = None,
                    drain: bool = False) -> Dict[str, Any]:
        """The flight ledger as one JSON-serializable dict.

        ``solve_id`` keeps only that solve's events and provenance (the
        slice a debug bundle embeds).  ``drain=True`` also empties the
        ledger and restarts its solve ids at 1: a pool worker drains
        after every stage task and ships the delta back with its
        payload.
        """
        with self._lock:
            document = {
                "format": FLIGHT_FORMAT,
                "events": [e.to_json() for e in self._events
                           if solve_id in (None, e.solve_id)],
                "dropped": self._events_dropped,
                "solves": self._solves,
                "provenance": {
                    k: dict(v) for k, v in self._provenance.items()
                    if solve_id is None or solve_id in v["solve_ids"]},
            }
            if drain:
                self._events = []
                self._events_dropped = self._solves = 0
                self._provenance = {}
        return document

    def merge_flight(self, document: Dict[str, Any]) -> None:
        """Append a drained worker ledger, as if recorded here.

        The worker's solve ids 1..n become the next contiguous block of
        this ledger's ids and its ``arc_result`` ranges move with them;
        each ``cache_hit`` takes its origin solves from this ledger's
        provenance, as the serial run's hit does (a canonical form's
        first stage is merged before any stage that hits it).  Merged
        events count against this ledger's ``event_limit``.
        """
        with self._lock:
            base = self._solves
            self._solves += int(document["solves"])
            self._events_dropped += int(document["dropped"])
        for event in document["events"]:
            kind, data = event["kind"], event["data"]
            if kind == "arc_result":
                ids = data["solve_ids"]
                first = base + ids[0] if ids else 0
                self.note_arc_result(data["key"], first, first + len(ids))
            elif kind == "cache_hit":
                self.note_cache_hit(data["key"])
            else:
                solve_id = event["solve_id"]
                self.record(kind, solve_id=base + solve_id if solve_id
                            else 0, **data)

    # ------------------------------------------------------------------
    # Profile view: cells, drain and merge
    # ------------------------------------------------------------------
    def _add_cell(self, path: Tuple[str, ...], self_seconds: float,
                  calls: int, ops: Dict[str, float]) -> None:
        with self._lock:
            cell = self._cells.get(path)
            if cell is None:
                if len(self._cells) >= self.profile_config.max_cells:
                    self._cells_dropped += 1
                    return
                cell = self._cells[path] = _Cell()
            cell.self_seconds += self_seconds
            cell.calls += calls
            for op, amount in ops.items():
                cell.ops[op] = cell.ops.get(op, 0) + amount

    def profile_json(self, drain: bool = False) -> Dict[str, Any]:
        """The profile cells as a ledger dict (sorted by path).

        ``drain=True`` also resets them: a pool worker drains after
        every stage task and ships the delta back with its payload.
        """
        with self._lock:
            cells = [{"path": list(path),
                      "self_seconds": cell.self_seconds,
                      "calls": cell.calls,
                      "ops": {op: cell.ops[op] for op in sorted(cell.ops)}}
                     for path, cell in sorted(self._cells.items())]
            document = {"format": LEDGER_FORMAT, "cells": cells,
                        "dropped_cells": self._cells_dropped}
            if drain:
                self._cells = {}
                self._cells_dropped = 0
        return document

    def merge_profile(self, payload: Dict[str, Any]) -> None:
        """Add a drained ledger under the frame path open on this thread.

        A worker's cells start at its own ``sta.stage.task`` frame; the
        parent merges while ``sta.analyze`` is open, so the merged paths
        equal the serial run's.  Cell-wise addition commutes, so the
        totals do not depend on worker scheduling order.
        """
        stack = self._stack()
        prefix = (stack[-1].path or ()) if stack else ()
        for cell in payload.get("cells", ()):
            self._add_cell(prefix + tuple(cell["path"]),
                           float(cell.get("self_seconds", 0.0)),
                           int(cell.get("calls", 0)), cell.get("ops", {}))
        with self._lock:
            self._cells_dropped += int(payload.get("dropped_cells", 0))

    def profile_stats(self) -> Dict[str, int]:
        with self._lock:
            return {"cells": len(self._cells),
                    "dropped": self._cells_dropped}

    # ------------------------------------------------------------------
    # Trace view: records and the Chrome export
    # ------------------------------------------------------------------
    def spans(self) -> List[Frame]:
        """Snapshot of the finished spans (copy)."""
        with self._lock:
            return list(self._spans)

    def trace_stats(self) -> Dict[str, int]:
        with self._lock:
            return {"recorded": len(self._spans),
                    "dropped": self._spans_dropped}

    def export_chrome(self, path: str) -> str:
        """Write the spans to ``path`` as a Chrome ``trace_event`` file
        (complete 'X' events)."""
        pid = os.getpid()
        events = [{"ph": "X", "name": r.name, "cat": r.name.split(".")[0],
                   "ts": (r.start - self._t0) * 1e6,
                   "dur": r.duration * 1e6,
                   "pid": pid, "tid": r.thread,
                   "args": {k: _jsonable(v) for k, v in r.attrs.items()}}
                  for r in self.spans()]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return path


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: The process-wide ledger; every view off until configured.
_LEDGER = FrameLedger()


def ledger() -> FrameLedger:
    """The process-wide frame ledger."""
    return _LEDGER


def fresh_ledger() -> FrameLedger:
    """Install an empty ledger with every view off and return it.

    A forked pool worker starts here: it inherits the parent's open
    frames, which must not prefix the paths of the cells it ships back.
    """
    global _LEDGER
    _LEDGER = FrameLedger()
    return _LEDGER


def configure_profile(config: ProfileConfig) -> FrameLedger:
    """Switch the profile view per ``config`` (empty cells); the ledger."""
    _LEDGER.set_profile(config)
    return _LEDGER


def disable_profile() -> FrameLedger:
    """Turn the profile view off and drop its cells."""
    return configure_profile(ProfileConfig())


def configure_flight(config: FlightConfig) -> FrameLedger:
    """Switch the flight view per ``config`` (no events); the ledger."""
    _LEDGER.set_flight(config)
    return _LEDGER


def disable_flight() -> FrameLedger:
    """Turn the flight view off and drop its events."""
    return configure_flight(FlightConfig())


# ----------------------------------------------------------------------
# Hot-path helpers — one attribute check while their view is off.
# ----------------------------------------------------------------------
def frame(name: str, tag: Optional[str] = None,
          ctx: Optional[Dict[str, Any]] = None, **attrs: Any):
    """Open a frame (``name:tag`` profile label, ``name`` span).

    ``ctx`` is the arc context the frame carries (see
    :meth:`FrameLedger.context`).  While neither the trace nor the
    profile view is on, only a frame that carries context is opened.
    """
    led = _LEDGER
    if not led.active or (ctx is None and not led.viewing):
        return NOOP_FRAME
    return Frame(led, name, tag, attrs, ctx)


def interval(name: str, **attrs: Any):
    """Open a span that may overlap its siblings; end it with ``close()``.

    It is traced only and never enters the frame stack, so overlapping
    intervals (pool waves) leave the profile paths well nested.
    """
    led = _LEDGER
    if not led.tracing:
        return NOOP_FRAME
    stack = led._stack()
    handle = Frame(led, name, None, attrs)
    handle.parent_id = stack[-1].span_id if stack else None
    handle.span_id = next(led._ids)
    handle.start = time.perf_counter()
    return handle


def count(op: str, amount: float = 1.0,
          root: str = "unattributed") -> None:
    """Count an op on the open frame, else on the ``(root,)`` cell."""
    led = _LEDGER
    if not led.profiling:
        return
    stack = led._stack()
    if stack and stack[-1].path is not None:
        stack[-1].count(op, amount)
    else:
        led._add_cell((root,), 0.0, 0, {op: amount})


def inc(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter (no-op while the metrics view is off)."""
    registry = _LEDGER.metrics
    if registry.enabled:
        registry.counter(name).inc(amount, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation (no-op while metrics are off)."""
    registry = _LEDGER.metrics
    if registry.enabled:
        registry.histogram(name).observe(value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge (no-op while the metrics view is off)."""
    registry = _LEDGER.metrics
    if registry.enabled:
        registry.gauge(name).set(value, **labels)


# ----------------------------------------------------------------------
# Trace view: the ``repro stats`` wall-time tree
# ----------------------------------------------------------------------
def format_span_tree(records: List[Frame], dropped: int = 0) -> str:
    """Render finished spans as an aggregated wall-time tree.

    Sibling spans with the same name are merged into one line with a
    ``xN`` multiplicity and summed durations, which keeps per-region
    traces readable (``qwm.phase3 x9``); each level indents by two
    spaces.  ``dropped`` is the trace view's drop count
    (:meth:`FrameLedger.trace_stats`); when non-zero the tree ends with
    an explicit truncation line so a capped buffer is never mistaken
    for a complete trace.
    """
    children: Dict[Optional[int], List[Frame]] = {}
    for record in records:
        children.setdefault(record.parent_id, []).append(record)

    lines: List[str] = []

    def walk(parent_ids: List[Optional[int]], depth: int) -> None:
        rows: List[Frame] = []
        for pid in parent_ids:
            rows.extend(children.get(pid, []))
        grouped: Dict[str, List[Frame]] = {}
        for record in sorted(rows, key=lambda r: r.start):
            grouped.setdefault(record.name, []).append(record)
        for name, group in grouped.items():
            total = sum(r.duration for r in group)
            label = name if len(group) == 1 else f"{name} x{len(group)}"
            pad = max(36 - 2 * depth, len(label) + 1)
            lines.append(f"{' ' * (2 * depth)}{label:<{pad}}"
                         f"{total * 1e3:10.3f} ms")
            walk([r.span_id for r in group], depth + 1)

    walk([None], 0)
    if dropped:
        lines.append(f"[trace truncated: {dropped} span"
                     f"{'s' if dropped != 1 else ''} dropped past the "
                     f"buffer limit]")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Profile view: aggregation and flame-graph exports
# ----------------------------------------------------------------------
def _ledger_document(ledger: Any) -> Dict[str, Any]:
    """A :class:`FrameLedger`'s profile dict, or the dict itself."""
    if isinstance(ledger, FrameLedger):
        return ledger.profile_json()
    return ledger


def summarize_profile(ledger: Any) -> Dict[str, Any]:
    """Aggregate a ledger into self/cumulative frame rows + hot cells.

    Per frame label: *self* is the sum of exclusive seconds over every
    cell whose path ends in that label; *cumulative* sums the exclusive
    seconds of every cell whose path contains it (each cell counted
    once).  Accepts a :class:`FrameLedger` or a ledger dict.
    """
    document = _ledger_document(ledger)
    cells = list(document.get("cells", ()))
    self_by_frame: Dict[str, float] = {}
    cum_by_frame: Dict[str, float] = {}
    calls_by_frame: Dict[str, int] = {}
    ops_by_frame: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for cell in cells:
        path = cell["path"]
        seconds = float(cell.get("self_seconds", 0.0))
        total += seconds
        leaf = path[-1]
        self_by_frame[leaf] = self_by_frame.get(leaf, 0.0) + seconds
        calls_by_frame[leaf] = (calls_by_frame.get(leaf, 0)
                                + int(cell.get("calls", 0)))
        ops = ops_by_frame.setdefault(leaf, {})
        for op, amount in cell.get("ops", {}).items():
            ops[op] = ops.get(op, 0) + amount
        for label in dict.fromkeys(path):
            cum_by_frame[label] = cum_by_frame.get(label, 0.0) + seconds
    frames = [{"frame": label,
               "self_seconds": self_by_frame.get(label, 0.0),
               "cum_seconds": cum_by_frame[label],
               "calls": calls_by_frame.get(label, 0),
               "ops": {op: ops_by_frame.get(label, {})[op]
                       for op in sorted(ops_by_frame.get(label, {}))}}
              for label in sorted(cum_by_frame)]
    frames.sort(key=lambda row: (-row["self_seconds"], row["frame"]))
    hot = sorted(cells, key=lambda c: (-float(c.get("self_seconds", 0.0)),
                                       tuple(c["path"])))
    return {"total_seconds": total, "frames": frames, "cells": hot,
            "dropped_cells": int(document.get("dropped_cells", 0))}


def render_profile(summary: Dict[str, Any], top: int = 10) -> str:
    """Render :func:`summarize_profile` output as a text report."""
    lines = ["phase profile", "============="]
    total = summary["total_seconds"]
    lines.append(f"total attributed: {total * 1e3:.3f} ms")
    lines.append("")
    lines.append(f"{'phase':<42} {'self':>10} {'cum':>10} {'calls':>8}")
    lines.append("-" * 72)
    for row in summary["frames"]:
        lines.append(
            f"{row['frame']:<42} {row['self_seconds'] * 1e3:>8.3f}ms "
            f"{row['cum_seconds'] * 1e3:>8.3f}ms {row['calls']:>8}")
        for op, amount in row["ops"].items():
            lines.append(f"{'':<42}   {op} = {amount:g}")
    lines.append("")
    lines.append(f"hottest cells (top {top})")
    lines.append("-" * 72)
    shown = summary["cells"][:top]
    if not shown:
        lines.append("  (no cells recorded)")
    for cell in shown:
        path = "/".join(cell["path"])
        lines.append(f"  {float(cell['self_seconds']) * 1e3:>8.3f}ms  "
                     f"{path}")
    if summary.get("dropped_cells"):
        lines.append(f"  ... {summary['dropped_cells']} cell(s) dropped "
                     "(max_cells cap)")
    return "\n".join(lines)


def to_collapsed(ledger: Any) -> str:
    """Collapsed-stack format (``a;b;c <microseconds>`` per line).

    Feed to any Brendan Gregg-style flamegraph tool; weights are
    integer microseconds of exclusive time.
    """
    lines = []
    for cell in _ledger_document(ledger).get("cells", ()):
        micros = int(round(float(cell.get("self_seconds", 0.0)) * 1e6))
        lines.append(";".join(cell["path"]) + f" {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(ledger: Any, name: str = "repro phase profile"
                  ) -> Dict[str, Any]:
    """The ledger as a speedscope JSON document (sampled profile).

    Each cell becomes one sample whose stack is the frame path and
    whose weight is the cell's exclusive seconds; open the file at
    https://www.speedscope.app or with ``speedscope <file>``.
    """
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    for cell in _ledger_document(ledger).get("cells", ()):
        stack = []
        for label in cell["path"]:
            if label not in frame_index:
                frame_index[label] = len(frames)
                frames.append({"name": label})
            stack.append(frame_index[label])
        samples.append(stack)
        weights.append(float(cell.get("self_seconds", 0.0)))
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        # A fixed format tag (like LEDGER_FORMAT), not a module path.
        "exporter": "repro.obs.profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "seconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
    }


def export_speedscope(ledger: Any, path: str,
                      name: str = "repro phase profile") -> str:
    """Write :func:`to_speedscope` output to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_speedscope(ledger, name=name), handle, indent=1)
        handle.write("\n")
    return path
