"""Flight view types and run reports: per-region convergence forensics.

Where the trace and profile views answer "how much did this run
cost?", the flight view of the frame ledger
(:class:`repro.obs.frames.FrameLedger`) answers "what happened inside
*that* solve?".  While it is on, the ledger keeps a bounded event list
of every QWM solve:

* ``solve_begin`` / ``solve_end`` — one pair per ``QWMSolver.solve``,
  tagged with the arc context (stage / output / direction / switching
  input) the enclosing frames carry.
* ``newton`` — one per Newton invocation (region attempt x cap
  refinement): the initial guess, the equivalent caps used, the full
  iteration trajectory (residual norms, step norms, line-search
  damping) and the outcome (``converged`` or a machine-readable
  failure reason from :data:`repro.linalg.newton.FAILURE_REASONS`).
* ``region_solved`` — the matched milestone: τ, the α vector (frame
  node voltages), order used, attempts, iterations and the table-model
  query delta spent on the region.
* ``region_failed`` — the exhausted retry ladder with its reason
  taxonomy, plus the exact region-start state (τ, u, i, condition) a
  debug bundle needs for deterministic replay.
* ``fallback`` — schedule-level fallbacks: ``ramp_break_anchor``,
  ``region_subdivision``, ``cascade_abort``.

Cache attribution: the parallel engine notes each computed arc's
solve-id range and each cache hit, so a hit carries provenance back to
the solve ids that produced the value.  Pool workers ship their events
home in the per-task obs delta; the parent renumbers their solve ids.

This module holds the view's config and event types and the run
report built from a ledger; see DESIGN.md ("Forensics & replay") for
the event schema and the bundle format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "FlightConfig", "LedgerEvent", "summarize_ledger", "render_report",
]


@dataclass
class FlightConfig:
    """Controls for the flight view.

    Attributes:
        enabled: master switch.  When False (the default) every
            instrumentation point is a single attribute check.
        event_limit: maximum retained ledger events; further events are
            dropped and counted.  ``None`` means unbounded.
        capture_bundles: serialize a debug bundle on solve failure or
            when an enclosing frame forces capture (golden band
            violations).
        bundle_dir: directory debug bundles are written into (at most
            :data:`repro.obs.frames.MAX_BUNDLES` per ledger).
    """

    enabled: bool = False
    event_limit: Optional[int] = 20_000
    capture_bundles: bool = False
    bundle_dir: str = "flight-bundles"

    def __post_init__(self) -> None:
        if self.event_limit is not None and self.event_limit < 1:
            raise ValueError("event_limit must be >= 1 or None (unbounded)")


@dataclass
class LedgerEvent:
    """One recorded flight event.

    Attributes:
        seq: position in the ledger, from 1 (insertion order across
            threads).
        solve_id: the owning solve (0 = outside any solve).
        kind: event kind (``solve_begin``, ``newton``, ``region_solved``,
            ``region_failed``, ``fallback``, ``solve_end``, ...).
        data: kind-specific payload (JSON-serializable).
    """

    seq: int
    solve_id: int
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"seq": self.seq, "solve_id": self.solve_id,
                "kind": self.kind, "data": self.data}


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------
def summarize_ledger(ledger: Any) -> Dict[str, Any]:
    """Aggregate a ledger into report-ready statistics.

    Accepts a :class:`repro.obs.frames.FrameLedger` or the dict from
    its ``flight_json``.  Returns fallback histogram, Newton iteration
    distribution, worst regions and cache attribution.
    """
    if not isinstance(ledger, dict):
        ledger = ledger.flight_json()
    events = ledger.get("events", [])

    solves: Dict[int, Dict[str, Any]] = {}
    fallbacks: Dict[str, int] = {}
    iteration_counts: List[int] = []
    regions: List[Dict[str, Any]] = []
    newton_failures: Dict[str, int] = {}
    escalations: Dict[str, int] = {}
    faults_injected: Dict[str, int] = {}
    table_queries = 0

    for event in events:
        kind = event["kind"]
        data = event.get("data", {})
        sid = event.get("solve_id", 0)
        if kind == "solve_begin":
            solves[sid] = {"context": data, "regions": 0, "failures": 0}
        elif kind == "newton":
            outcome = data.get("outcome", "")
            if outcome != "converged":
                newton_failures[outcome] = newton_failures.get(outcome, 0) + 1
        elif kind == "region_solved":
            iters = int(data.get("iterations", 0))
            iteration_counts.append(iters)
            table_queries += int(data.get("table_queries", 0))
            regions.append({
                "solve_id": sid,
                "tau": data.get("tau"),
                "condition": data.get("condition"),
                "iterations": iters,
                "attempts": int(data.get("attempts", 1)),
                "order": data.get("order"),
                "failed": False,
                "context": solves.get(sid, {}).get("context", {}),
            })
            if sid in solves:
                solves[sid]["regions"] += 1
        elif kind == "region_failed":
            for reason in data.get("reasons", []):
                fallbacks[reason] = fallbacks.get(reason, 0) + 1
            regions.append({
                "solve_id": sid,
                "tau": data.get("tau"),
                "condition": data.get("condition"),
                "iterations": int(data.get("iterations", 0)),
                "attempts": int(data.get("attempts", 0)),
                "order": None,
                "failed": True,
                "context": solves.get(sid, {}).get("context", {}),
            })
            if sid in solves:
                solves[sid]["failures"] += 1
        elif kind == "fallback":
            name = data.get("fallback", "unknown")
            fallbacks[name] = fallbacks.get(name, 0) + 1
        elif kind == "escalation":
            key = (f"{data.get('from_rung', '?')} "
                   f"({data.get('reason', 'unknown')})")
            escalations[key] = escalations.get(key, 0) + 1
        elif kind == "fault_injected":
            name = data.get("kind", "unknown")
            faults_injected[name] = faults_injected.get(name, 0) + 1

    # Worst regions: failures first, then by attempts, then iterations.
    worst = sorted(regions, key=lambda r: (not r["failed"], -r["attempts"],
                                           -r["iterations"]))[:10]

    histogram: Dict[str, int] = {}
    for iters in iteration_counts:
        bucket = _iteration_bucket(iters)
        histogram[bucket] = histogram.get(bucket, 0) + 1

    provenance = ledger.get("provenance", {})
    cache = {
        "attributed_arcs": len(provenance),
        "total_hits": sum(int(p.get("hits", 0)) for p in provenance.values()),
        "hot_arcs": sorted(
            ({"key": k, "hits": int(p.get("hits", 0)),
              "origin_solve_ids": list(p.get("solve_ids", []))}
             for k, p in provenance.items()),
            key=lambda e: -e["hits"])[:10],
    }

    return {
        "solves": ledger.get("solves", len(solves)),
        "regions_solved": sum(1 for r in regions if not r["failed"]),
        "regions_failed": sum(1 for r in regions if r["failed"]),
        "events": len(events),
        "events_dropped": int(ledger.get("dropped", 0)),
        "table_queries": table_queries,
        "fallback_histogram": dict(sorted(fallbacks.items())),
        "newton_failure_reasons": dict(sorted(newton_failures.items())),
        "escalation_histogram": dict(sorted(escalations.items())),
        "faults_injected": dict(sorted(faults_injected.items())),
        "iteration_distribution": {
            "histogram": dict(sorted(histogram.items(),
                                     key=lambda kv: _bucket_sort(kv[0]))),
            "mean": (sum(iteration_counts) / len(iteration_counts)
                     if iteration_counts else 0.0),
            "max": max(iteration_counts) if iteration_counts else 0,
        },
        "worst_regions": worst,
        "cache_attribution": cache,
    }


_ITER_BUCKETS = (1, 2, 3, 5, 8, 13, 21, 34)


def _iteration_bucket(iters: int) -> str:
    for edge in _ITER_BUCKETS:
        if iters <= edge:
            return f"<={edge}"
    return f">{_ITER_BUCKETS[-1]}"


def _bucket_sort(label: str) -> int:
    return (int(label[2:]) if label.startswith("<=")
            else _ITER_BUCKETS[-1] + 1)


def render_report(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_ledger` output as a text report."""
    lines = ["flight report", "============="]
    lines.append(f"solves: {summary['solves']}   "
                 f"regions solved: {summary['regions_solved']}   "
                 f"regions failed: {summary['regions_failed']}   "
                 f"table queries: {summary['table_queries']}")
    lines.append(f"ledger events: {summary['events']} "
                 f"(+{summary['events_dropped']} dropped)")

    lines.append("")
    lines.append("fallback histogram")
    lines.append("------------------")
    if summary["fallback_histogram"]:
        for name, count in summary["fallback_histogram"].items():
            lines.append(f"  {name:<24} {count}")
    else:
        lines.append("  (no fallbacks)")
    if summary["newton_failure_reasons"]:
        lines.append("  failed newton attempts by reason:")
        for name, count in summary["newton_failure_reasons"].items():
            lines.append(f"    {name:<22} {count}")

    escalations = summary.get("escalation_histogram", {})
    faults_injected = summary.get("faults_injected", {})
    if escalations or faults_injected:
        lines.append("")
        lines.append("escalation ladder")
        lines.append("-----------------")
        for key, count in escalations.items():
            lines.append(f"  {key:<32} {count}")
        for name, count in faults_injected.items():
            lines.append(f"  fault injected: {name:<16} {count}")

    dist = summary["iteration_distribution"]
    lines.append("")
    lines.append("newton iterations per region")
    lines.append("----------------------------")
    lines.append(f"  mean {dist['mean']:.2f}   max {dist['max']}")
    for bucket, count in dist["histogram"].items():
        lines.append(f"  {bucket:<6} {'#' * min(count, 60)} {count}")

    lines.append("")
    lines.append("worst regions")
    lines.append("-------------")
    if summary["worst_regions"]:
        for region in summary["worst_regions"]:
            ctx = region.get("context", {})
            where = ctx.get("stage") or ctx.get("arc") or f"solve {region['solve_id']}"
            status = "FAILED" if region["failed"] else "ok"
            tau = region.get("tau")
            tau_s = f"{tau:.4g}s" if isinstance(tau, float) else "?"
            lines.append(
                f"  [{status:>6}] {where}  tau={tau_s}  "
                f"cond={_condition_brief(region.get('condition'))}  "
                f"attempts={region['attempts']}  "
                f"iters={region['iterations']}")
    else:
        lines.append("  (no regions recorded)")

    cache = summary["cache_attribution"]
    lines.append("")
    lines.append("cache attribution")
    lines.append("-----------------")
    lines.append(f"  attributed arcs: {cache['attributed_arcs']}   "
                 f"total hits: {cache['total_hits']}")
    for arc in cache["hot_arcs"]:
        if arc["hits"]:
            origins = ",".join(str(s) for s in arc["origin_solve_ids"][:6])
            lines.append(f"  {arc['hits']:>4} hits  {arc['key']}  "
                         f"<- solves [{origins}]")
    return "\n".join(lines)


def _condition_brief(condition: Any) -> str:
    if not isinstance(condition, dict):
        return str(condition)
    kind = condition.get("kind", "?")
    if kind == "crossing":
        return f"crossing@{condition.get('target', 0.0):.3g}V"
    if kind == "time":
        return f"time@{condition.get('t_end', 0.0):.3g}s"
    if kind == "turn_on":
        return f"turn_on#{condition.get('device_index')}"
    return kind
