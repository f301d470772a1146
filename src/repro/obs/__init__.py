"""Telemetry: instrumentation frames, metrics and pluggable sinks.

The solvers are instrumented against process-wide state reached
through module-level helpers, so call sites stay one-liners::

    from repro.obs import configure, frame, inc, observe

    configure(ObsConfig(enabled=True))
    with frame("qwm.phase3", "crossing", active=2):
        inc("device.table.evaluations", 17)
        observe("qwm.newton.iterations", 4)

A frame (:mod:`repro.obs.frames`) feeds the trace view and the profile
view; :func:`configure` switches the trace view and installs a fresh
:class:`Telemetry` bundle (metrics registry + live span sink).

By default telemetry is *disabled* and every helper degrades to a
single attribute check (plus a shared no-op frame), so instrumented hot
paths cost effectively nothing when un-observed.  ``disable()``
restores the default.

See DESIGN.md ("Observability") for the metric catalog and how the
names map onto the paper's cost model.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.obs.accuracy import (AccuracyConfig, AccuracyObservatory,
                                accuracy_regressions,
                                append_history_entry, attribute_regions,
                                capture_regions, configure_accuracy,
                                disable_accuracy, history_entry,
                                load_history_entries, note_region,
                                observatory, worst_regression)
from repro.obs.config import ObsConfig, SINK_KINDS
from repro.obs.flight import (FlightConfig, FlightRecorder, LedgerEvent,
                              configure_flight, disable_flight, flight,
                              render_report, summarize_ledger)
from repro.obs.frames import (NOOP_FRAME, Frame, FrameLedger,
                              ProfileConfig, configure_profile, count,
                              disable_profile, export_speedscope,
                              format_span_tree, frame, fresh_ledger,
                              interval, ledger, phase_self_seconds,
                              render_profile, summarize_profile,
                              to_collapsed, to_speedscope)
from repro.obs.metrics import (CATALOG, Counter, Gauge, Histogram,
                               MetricsRegistry)
from repro.obs.sinks import (JsonlSink, NullSink, Sink, StderrSink,
                             make_sink)

__all__ = [
    "ObsConfig", "SINK_KINDS", "Telemetry", "telemetry", "configure",
    "disable", "frame", "interval", "count", "inc", "observe",
    "set_gauge", "CATALOG", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "Sink", "NullSink", "StderrSink", "JsonlSink",
    "make_sink", "Frame", "FrameLedger", "ledger", "NOOP_FRAME",
    "format_span_tree",
    "FlightConfig", "FlightRecorder", "LedgerEvent", "flight",
    "configure_flight", "disable_flight", "summarize_ledger",
    "render_report",
    "ProfileConfig", "configure_profile", "disable_profile",
    "to_collapsed", "to_speedscope", "export_speedscope",
    "summarize_profile", "render_profile", "phase_self_seconds",
    "AccuracyConfig", "AccuracyObservatory", "observatory",
    "configure_accuracy", "disable_accuracy", "capture_regions",
    "note_region", "attribute_regions", "history_entry",
    "append_history_entry", "load_history_entries",
    "accuracy_regressions", "worst_regression",
    "worker_state", "install_worker_state", "drain_delta",
    "merge_delta",
]


class Telemetry:
    """One configured telemetry bundle: metrics registry + live sink."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config or ObsConfig()
        self.sink = make_sink(self.config)
        self.metrics = MetricsRegistry(enabled=self.config.enabled)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # ------------------------------------------------------------------
    def export_trace(self, path: str) -> str:
        """Write the trace view as a Chrome ``trace_event`` file."""
        return ledger().export_chrome(path)

    def export_metrics(self, path: str) -> str:
        """Write the metrics registry as a JSON dump."""
        return self.metrics.export_json(path)

    def close(self) -> None:
        self.sink.close()


#: The process-wide bundle; disabled until ``configure`` is called.
_TELEMETRY = Telemetry(ObsConfig(enabled=False))


def telemetry() -> Telemetry:
    """The current process-wide telemetry bundle."""
    return _TELEMETRY


def configure(config: ObsConfig) -> Telemetry:
    """Install a new telemetry bundle and return it.

    The previous bundle's sink is closed and the trace view restarts
    empty (on when ``config.enabled``); the profile view is untouched.
    Instrumented code reads the bundle through the module-level
    helpers at each call, so the swap takes effect immediately
    everywhere.
    """
    global _TELEMETRY
    _TELEMETRY.close()
    _TELEMETRY = Telemetry(config)
    ledger().set_trace(config.enabled, _TELEMETRY.sink)
    return _TELEMETRY


def disable() -> Telemetry:
    """Restore the default disabled bundle."""
    return configure(ObsConfig(enabled=False))


# ----------------------------------------------------------------------
# Pool workers: one obs state in, one delta out per stage task.
# ----------------------------------------------------------------------
def worker_state() -> Tuple[FlightConfig, ProfileConfig, bool]:
    """What a pool worker needs to record like this process.

    The flight recorder's and the profile view's configs and the
    accuracy observatory's switch; the trace view and the metrics stay
    with the parent.
    """
    return (flight().config, ledger().profile_config,
            observatory().enabled)


def install_worker_state(state: Tuple[FlightConfig, ProfileConfig, bool]
                         ) -> None:
    """Set a pool worker up from the parent's :func:`worker_state`.

    The worker gets a fresh frame ledger: forked, it would inherit the
    parent's open frames, and its cells would carry their path twice.
    """
    flight_config, profile_config, accuracy = state
    fresh_ledger()
    configure_profile(profile_config)
    configure_accuracy(AccuracyConfig(enabled=accuracy))
    configure_flight(flight_config)


def drain_delta() -> Dict[str, Any]:
    """The profile cells and accuracy arcs recorded since the last drain.

    A pool worker returns one per stage task; each part is None while
    its view is off.
    """
    led, acc = ledger(), observatory()
    profile = led.profile_json(drain=True) if led.profiling else None
    accuracy = acc.drain() if acc.enabled else None
    return {"profile": profile, "accuracy": accuracy}


def merge_delta(delta: Dict[str, Any]) -> None:
    """Fold a worker's :func:`drain_delta` into this process.

    The profile cells land under the frame path open here (see
    :meth:`FrameLedger.merge_profile`); the accuracy arcs are a set
    union.  Both merges commute, so the totals do not depend on the
    order workers finish in.
    """
    if delta["profile"] is not None:
        ledger().merge_profile(delta["profile"])
    if delta["accuracy"] is not None:
        observatory().merge(delta["accuracy"])


# ----------------------------------------------------------------------
# Hot-path helpers — one attribute check when telemetry is disabled.
# ----------------------------------------------------------------------
def inc(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter (no-op when disabled)."""
    registry = _TELEMETRY.metrics
    if registry.enabled:
        registry.counter(name).inc(amount, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation (no-op when disabled)."""
    registry = _TELEMETRY.metrics
    if registry.enabled:
        registry.histogram(name).observe(value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge (no-op when disabled)."""
    registry = _TELEMETRY.metrics
    if registry.enabled:
        registry.gauge(name).set(value, **labels)
