"""Observability: one frame ledger with trace, profile, metrics and flight
views.

The solvers are instrumented against process-wide state reached
through module-level helpers, so call sites stay one-liners::

    from repro.obs import configure, frame, inc, observe

    configure(ObsConfig(enabled=True))
    with frame("qwm.phase3", "crossing", active=2):
        inc("device.table.evaluations", 17)
        observe("qwm.newton.iterations", 4)

A frame (:mod:`repro.obs.frames`) feeds the trace view and the profile
view and carries the arc context the flight view and the fault gates
read; the metric helpers feed the ledger's metrics registry and the
solver's ``record`` calls its flight events (:mod:`repro.obs.flight`).
:func:`configure` switches the trace view (with its live span sink)
and the metrics view.

By default every view is *disabled* and every helper degrades to a
single attribute check (plus a shared no-op frame), so instrumented hot
paths cost effectively nothing when un-observed.  ``disable()``
restores the default.

See DESIGN.md ("Observability") for the metric catalog and how the
names map onto the paper's cost model.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.obs.accuracy import (accuracy_regressions,
                                append_history_entry, attribute_regions,
                                capture_regions, history_entry,
                                load_history_entries, note_region,
                                worst_regression)
from repro.obs.config import ObsConfig, SINK_KINDS
from repro.obs.flight import (FlightConfig, LedgerEvent, render_report,
                              summarize_ledger)
from repro.obs.frames import (NOOP_FRAME, Frame, FrameLedger,
                              ProfileConfig, configure_flight,
                              configure_profile, count, disable_flight,
                              disable_profile, export_speedscope,
                              format_span_tree, frame, fresh_ledger, inc,
                              interval, ledger, observe,
                              phase_self_seconds, render_profile,
                              set_gauge, summarize_profile, to_collapsed,
                              to_speedscope)
from repro.obs.metrics import (CATALOG, Counter, Gauge, Histogram,
                               MetricsRegistry)
from repro.obs.sinks import (JsonlSink, NullSink, Sink, StderrSink,
                             make_sink)

__all__ = [
    "ObsConfig", "SINK_KINDS", "configure", "disable", "frame",
    "interval", "count", "inc", "observe", "set_gauge", "CATALOG",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Sink",
    "NullSink", "StderrSink", "JsonlSink", "make_sink", "Frame",
    "FrameLedger", "ledger", "NOOP_FRAME", "format_span_tree",
    "FlightConfig", "LedgerEvent", "configure_flight", "disable_flight",
    "summarize_ledger", "render_report",
    "ProfileConfig", "configure_profile", "disable_profile",
    "to_collapsed", "to_speedscope", "export_speedscope",
    "summarize_profile", "render_profile", "phase_self_seconds",
    "capture_regions", "note_region", "attribute_regions",
    "history_entry", "append_history_entry", "load_history_entries",
    "accuracy_regressions", "worst_regression",
    "worker_state", "install_worker_state", "drain_delta",
    "merge_delta",
]


def configure(config: ObsConfig) -> FrameLedger:
    """Switch the trace and metrics views per ``config``; the ledger.

    The trace view restarts empty with a fresh live sink (the previous
    one is closed) and the metrics view with an empty registry, both
    on when ``config.enabled``; the profile view is untouched.
    Instrumented code reads the ledger through the module-level helpers
    at each call, so the switch takes effect immediately everywhere.
    """
    led = ledger()
    led.set_trace(config.enabled, make_sink(config))
    led.set_metrics(config.enabled)
    return led


def disable() -> FrameLedger:
    """Turn the trace and metrics views off."""
    return configure(ObsConfig(enabled=False))


# ----------------------------------------------------------------------
# Pool workers: one obs state in, one delta out per stage task.
# ----------------------------------------------------------------------
def worker_state() -> Tuple[FlightConfig, ProfileConfig, bool]:
    """What a pool worker needs to record like this process.

    The flight and profile views' configs and the metrics view's
    switch; the trace view stays with the parent.
    """
    led = ledger()
    return (led.flight_config, led.profile_config, led.metrics.enabled)


def install_worker_state(state: Tuple[FlightConfig, ProfileConfig, bool]
                         ) -> None:
    """Set a pool worker up from the parent's :func:`worker_state`.

    The worker gets a fresh frame ledger: forked, it would inherit the
    parent's open frames and metric series, and its cells would carry
    their path twice.
    """
    flight_config, profile_config, metrics = state
    led = fresh_ledger()
    led.set_profile(profile_config)
    led.set_metrics(metrics)
    led.set_flight(flight_config)


def drain_delta() -> Dict[str, Any]:
    """The cells, series and flight events recorded since the last drain.

    A pool worker returns one per stage task; each part is None while
    its view is off.
    """
    led = ledger()
    return {
        "profile": led.profile_json(drain=True) if led.profiling else None,
        "metrics": led.metrics.drain() if led.metrics.enabled else None,
        "flight": led.flight_json(drain=True) if led.recording else None,
    }


def merge_delta(delta: Dict[str, Any]) -> None:
    """Fold a worker's :func:`drain_delta` into this process.

    The profile cells land under the frame path open here (see
    :meth:`FrameLedger.merge_profile`); the metric series add (see
    :meth:`MetricsRegistry.merge`).  Both merges commute, so the totals
    do not depend on the order workers finish in.  The flight events
    append under solve ids renumbered into this ledger's sequence (see
    :meth:`FrameLedger.merge_flight`), so they follow completion order.
    """
    led = ledger()
    if delta["profile"] is not None:
        led.merge_profile(delta["profile"])
    if delta["metrics"] is not None:
        led.metrics.merge(delta["metrics"])
    if delta["flight"] is not None:
        led.merge_flight(delta["flight"])
