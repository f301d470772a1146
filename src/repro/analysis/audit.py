"""Shadow-SPICE auditor: sampled in-run accuracy measurement.

The golden suite checks ~20 canned cases; it says nothing about the
arcs of the design actually being timed.  The auditor closes that gap:
during an audited STA run it deterministically samples N of the run's
attempted stage arcs, re-solves each with
:func:`repro.resilience.ladder.adaptive_spice_arc` (the LTE-controlled
adaptive transient engine, also the resilience ladder's ``spice``
rung, so audit and ladder share one measurement convention), and
records per-arc delay/slew error with an error-budget attribution
naming the QWM solver phase that dominated the arc's residual.  The
golden suite measures its own way: :func:`repro.analysis.golden.
spice_measure` runs the fixed-step 1 ps backward-Euler engine with the
edge at the suite's ``T_SWITCH`` and reports the raw 10-90 % slew, so
audit errors and golden errors are not measured against the same
reference.

Sampling contract (what makes audits reproducible and comparable):

* **Seeded** — arc choice is a pure function of (candidate set, seed).
* **Stratified by canonical form** — candidates are grouped by their
  Weisfeiler-Lehman stage fingerprint (:func:`repro.analysis.parallel.
  canonical_form_for`) and drawn round-robin across groups, so a
  decoder's 2^n isomorphic word-line NANDs cannot crowd the unique
  stages out of an N-arc budget.
* **Worker-count-independent** — the candidate set is derived from
  the run's final arrivals (the arcs the run attempted, by the rule
  :func:`repro.analysis.sta.compute_stage_arrivals` applies), and the
  audit solves happen in the parent process; in-process and pooled
  runs therefore produce bit-identical audit records.

Auditing is observability, not gating: odd arcs (no crossing, zero
reference) become non-ok record statuses, never exceptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.accuracy import compare_delays
from repro.analysis.parallel import canonical_form_for
from repro.analysis.sta import (ArrivalTime, Event, StaResult,
                                StaticTimingAnalyzer)
from repro.circuit.stage import StageGraph
from repro.obs import observe
from repro.obs.accuracy import (
    ArcKey,
    LEDGER_FORMAT,
    attribute_regions,
    capture_regions,
    slew_token,
)
from repro.resilience.ladder import adaptive_spice_arc
from repro.spice.results import SimulationStats

__all__ = [
    "ArcSample", "AuditReport", "DEFAULT_AUDIT_BAND_PCT",
    "analyze_with_audit", "audit_arc", "collect_candidates",
    "stratified_sample",
]

#: Default audit acceptance band — matches the golden suite's delay
#: band, so "audit violation" and "golden violation" mean one thing.
DEFAULT_AUDIT_BAND_PCT = 10.0


@dataclass(frozen=True)
class ArcSample:
    """One sampled arc: where it lives plus its stratification key."""

    stage: str
    output: str
    direction: str
    switching_input: str
    input_slew: Optional[float]
    fingerprint: str

    @property
    def key(self) -> ArcKey:
        return (self.stage, self.output, self.direction,
                self.switching_input, slew_token(self.input_slew))


def collect_candidates(graph: StageGraph,
                       analyzer: StaticTimingAnalyzer,
                       arrivals: Optional[Dict[Event, ArrivalTime]] = None
                       ) -> List[ArcSample]:
    """The audit candidate pool, fingerprinted for stratification.

    With a run's ``arrivals`` the pool is the arcs the run attempted,
    by the rule :func:`repro.analysis.sta.compute_stage_arrivals`
    applies: an arc is a candidate when its switching input has an
    arrival in the opposite direction, and in slew mode it is driven
    with that arrival's slew (the analyzer's ``input_slew`` when it has
    none).  Without arrivals — auditing outside an STA run — every
    single-input-switching arc of the graph is a candidate, driven by
    the analyzer's default stimulus.
    """
    default_slew = (analyzer.input_slew if analyzer.propagate_slews
                    else None)
    forms: Dict[str, str] = {}
    samples: List[ArcSample] = []
    for stage in sorted(graph.stages, key=lambda s: s.name):
        for node in stage.outputs:
            for direction, in_dir in (("rise", "fall"), ("fall", "rise")):
                for switching_input in stage.inputs:
                    input_slew = default_slew
                    if arrivals is not None:
                        src = arrivals.get((switching_input, in_dir))
                        if src is None:
                            continue
                        if analyzer.propagate_slews:
                            input_slew = src.slew or default_slew
                    if stage.name not in forms:
                        forms[stage.name] = canonical_form_for(
                            stage, analyzer).fingerprint
                    samples.append(ArcSample(
                        stage=stage.name, output=node.name,
                        direction=direction,
                        switching_input=switching_input,
                        input_slew=input_slew,
                        fingerprint=forms[stage.name]))
    return samples


def stratified_sample(candidates: Sequence[ArcSample], count: int,
                      seed: int) -> List[ArcSample]:
    """Draw ``count`` arcs, round-robin across fingerprint strata.

    Deterministic: candidates are grouped by fingerprint, and each
    group is named by its smallest arc key.  Each group is shuffled by
    a :class:`random.Random` seeded from ``seed`` and that name, and
    picks rotate across groups in name order — so isomorphic stages
    (one stratum) collectively get one pick per round no matter how
    many there are.  The fingerprint only groups: its text (a hash of
    the solver options' ``repr``, among others) never reaches the
    draw, so renaming an option does not redraw the sample.  The
    returned sample is sorted by arc key.
    """
    strata: Dict[str, List[ArcSample]] = {}
    for sample in candidates:
        strata.setdefault(sample.fingerprint, []).append(sample)
    queues = sorted((sorted(group, key=lambda s: s.key)
                     for group in strata.values()),
                    key=lambda group: group[0].key)
    for group in queues:
        random.Random(f"{seed}:{group[0].key}").shuffle(group)
    picked: List[ArcSample] = []
    while queues and len(picked) < count:
        exhausted = []
        for queue in queues:
            if len(picked) >= count:
                break
            picked.append(queue.pop())
            if not queue:
                exhausted.append(queue)
        for queue in exhausted:
            queues.remove(queue)
    return sorted(picked, key=lambda s: s.key)


def _table_cell(analyzer: StaticTimingAnalyzer, stage) -> Dict[str, Any]:
    """The table-model interpolation cell of the 50% crossing point.

    Attribution's third axis: which cell of the characterized (Vs, Vg)
    grid the arc's delay measurement lives in.  Coarse grids (large
    ``grid_step``) make this cell large, and interpolation error inside
    it is a real error-budget term alongside the solver phases.
    """
    step = getattr(analyzer.evaluator.library, "grid_step", None)
    if not step:
        return {"grid_step": None, "vg_cell": None, "vs_cell": None}
    half_vdd = 0.5 * stage.vdd
    return {"grid_step": float(step),
            "vg_cell": int(half_vdd / step),
            "vs_cell": int(half_vdd / step)}


def audit_arc(analyzer: StaticTimingAnalyzer, stage, sample: ArcSample,
              band_pct: float = DEFAULT_AUDIT_BAND_PCT
              ) -> Dict[str, Any]:
    """Re-solve one arc both ways and return its audit record.

    The QWM side runs through :meth:`~repro.analysis.sta.
    StaticTimingAnalyzer.stage_arc` (so escalation-ladder behavior and
    the arc's quality rung are preserved) under an armed region
    capture; the reference side is :func:`repro.resilience.ladder.
    adaptive_spice_arc`.  Odd arcs degrade to non-ok statuses.
    """
    qwm_stats = SimulationStats()
    with capture_regions() as capture:
        arc = analyzer.stage_arc(stage, sample.output, sample.direction,
                                 sample.switching_input,
                                 input_slew=sample.input_slew,
                                 stats=qwm_stats)
    qwm_delay = arc[0] if arc is not None else None
    qwm_slew = arc[1] if arc is not None else None
    quality = arc[2] if arc is not None else None
    ref_stats = SimulationStats()
    reference = adaptive_spice_arc(
        analyzer, stage, sample.output, sample.direction,
        sample.switching_input, input_slew=sample.input_slew,
        stats=ref_stats)
    ref_delay = reference[0] if reference is not None else None
    ref_slew = reference[1] if reference is not None else None
    delay_cmp = compare_delays(qwm_delay, ref_delay)
    slew_cmp = compare_delays(qwm_slew, ref_slew)
    attribution = attribute_regions(capture.notes)
    attribution["table_cell"] = _table_cell(analyzer, stage)
    margin = (band_pct - delay_cmp.error_percent
              if delay_cmp.ok else None)
    record = {
        "arc": list(sample.key),
        "fingerprint": sample.fingerprint,
        "status": delay_cmp.status,
        "qwm": {"delay": qwm_delay, "slew": qwm_slew,
                "quality": quality},
        "spice": {"delay": ref_delay, "slew": ref_slew},
        "delay_error_pct": delay_cmp.error_percent,
        "slew_error_pct": slew_cmp.error_percent,
        "band_pct": float(band_pct),
        "margin_to_band_pct": margin,
        "attribution": attribution,
    }
    if delay_cmp.ok:
        observe("accuracy.audit.delay_error_pct",
                delay_cmp.error_percent)
    if slew_cmp.ok:
        observe("accuracy.audit.slew_error_pct",
                slew_cmp.error_percent)
    return record


@dataclass(frozen=True)
class AuditReport:
    """The audit's records plus their roll-up summary."""

    records: List[Dict[str, Any]]
    seed: int
    requested: int
    candidates: int
    band_pct: float

    def summary(self) -> Dict[str, Any]:
        errors = [r["delay_error_pct"] for r in self.records
                  if r["delay_error_pct"] is not None]
        worst = None
        for record in self.records:
            err = record["delay_error_pct"]
            if err is None:
                continue
            if worst is None or err > worst["delay_error_pct"]:
                worst = record
        by_phase: Dict[str, int] = {}
        for record in self.records:
            dominant = record["attribution"].get("dominant")
            if dominant is not None:
                by_phase[dominant] = by_phase.get(dominant, 0) + 1
        return {
            "arcs_audited": len(self.records),
            "arcs_compared": len(errors),
            "candidates": self.candidates,
            "requested": self.requested,
            "seed": self.seed,
            "band_pct": self.band_pct,
            "mean_delay_error_pct": (sum(errors) / len(errors)
                                     if errors else None),
            "worst_delay_error_pct": (max(errors) if errors else None),
            "worst_arc": (list(worst["arc"]) if worst else None),
            "violations": sum(
                1 for r in self.records
                if r["margin_to_band_pct"] is not None
                and r["margin_to_band_pct"] < 0.0),
            "attribution_by_phase": {label: by_phase[label]
                                     for label in sorted(by_phase)},
        }

    def to_json(self) -> Dict[str, Any]:
        return {"format": LEDGER_FORMAT,
                "records": list(self.records),
                "summary": self.summary()}

    def render(self) -> str:
        """Human-readable audit table."""
        lines = [f"{'arc':<40}{'qwm':>10}{'spice':>10}{'err%':>8}"
                 f"  attribution",
                 "-" * 84]
        for record in self.records:
            arc = "/".join(record["arc"][:4])
            qwm_delay = record["qwm"]["delay"]
            ref_delay = record["spice"]["delay"]
            err = record["delay_error_pct"]
            dominant = record["attribution"].get("dominant") or "-"
            if err is None:
                lines.append(f"{arc:<40}{'-':>10}{'-':>10}"
                             f"{record['status']:>8}  {dominant}")
                continue
            flag = "" if record["margin_to_band_pct"] >= 0.0 else " !"
            lines.append(
                f"{arc:<40}{qwm_delay * 1e12:>8.2f}ps"
                f"{ref_delay * 1e12:>8.2f}ps{err:>7.2f}%"
                f"  {dominant}{flag}")
        stats = self.summary()
        lines.append("-" * 84)
        mean = stats["mean_delay_error_pct"]
        worst = stats["worst_delay_error_pct"]
        lines.append(
            f"{stats['arcs_audited']} arcs audited "
            f"(of {stats['candidates']} candidates, "
            f"seed {stats['seed']}), "
            + (f"mean error {mean:.2f}%, worst {worst:.2f}%, "
               if mean is not None else "no comparable arcs, ")
            + f"{stats['violations']} outside the "
              f"{stats['band_pct']:.1f}% band")
        return "\n".join(lines)


def analyze_with_audit(analyzer: StaticTimingAnalyzer,
                       graph: StageGraph,
                       count: int,
                       seed: int = 0,
                       band_pct: float = DEFAULT_AUDIT_BAND_PCT,
                       input_arrivals=None
                       ) -> Tuple[StaResult, AuditReport]:
    """Run a full STA with shadow-SPICE auditing.

    Derives the arcs the run attempted from its arrivals (see
    :func:`collect_candidates`), samples ``count`` of them and audits
    each **in the parent process** — which is why in-process and
    pooled runs produce bit-identical audit records.  The report is
    attached to ``result.audit``.
    """
    result = analyzer.analyze(graph, input_arrivals)
    candidates = collect_candidates(graph, analyzer, result.arrivals)
    sampled = stratified_sample(candidates, count, seed)
    records = [audit_arc(analyzer, graph.stage(sample.stage), sample,
                         band_pct=band_pct)
               for sample in sampled]
    report = AuditReport(records=records, seed=seed, requested=count,
                         candidates=len(candidates), band_pct=band_pct)
    result.audit = report.to_json()
    return result, report
