"""Static timing analysis layer and accuracy metrics.

QWM is a *stage evaluation* engine; this package provides the STA
scaffolding around it — delay/slew measurement, paper-style accuracy
accounting (the tables report ``100% - |delay error|``), and a
longest-path static timing analysis over stage graphs.
"""

from repro.analysis.delay import (
    DelayMeasurement,
    measure_delay,
    measure_slew,
)
from repro.analysis.accuracy import (
    AccuracyReport,
    ComparisonOutcome,
    accuracy_percent,
    compare_delays,
    waveform_rms_error,
)
from repro.analysis.audit import (
    ArcSample,
    AuditReport,
    analyze_with_audit,
    audit_arc,
    collect_candidates,
    stratified_sample,
)
from repro.analysis.sta import (
    ArrivalTime,
    StaticTimingAnalyzer,
    StaResult,
)
from repro.analysis.incremental import (
    IncrementalStats,
    IncrementalTimer,
)
from repro.analysis.parallel import (
    CanonicalForm,
    ExecutionConfig,
    ParallelStaEngine,
    StageResultCache,
    canonical_stage_form,
    stage_fingerprint,
)
from repro.analysis.sensitivity import (
    SensitivityResult,
    SizingSensitivity,
    clone_stage,
)
from repro.analysis.report import (
    arrival_report,
    corner_report,
    critical_path_report,
    design_summary,
)
from repro.analysis.variation import DelayDistribution, MonteCarloTiming
from repro.analysis.sizing import GreedySizer, SizingResult, SizingStep

__all__ = [
    "DelayMeasurement",
    "measure_delay",
    "measure_slew",
    "AccuracyReport",
    "ComparisonOutcome",
    "accuracy_percent",
    "compare_delays",
    "waveform_rms_error",
    "ArcSample",
    "AuditReport",
    "analyze_with_audit",
    "audit_arc",
    "collect_candidates",
    "stratified_sample",
    "ArrivalTime",
    "StaticTimingAnalyzer",
    "StaResult",
    "IncrementalStats",
    "IncrementalTimer",
    "CanonicalForm",
    "ExecutionConfig",
    "ParallelStaEngine",
    "StageResultCache",
    "canonical_stage_form",
    "stage_fingerprint",
    "SensitivityResult",
    "SizingSensitivity",
    "clone_stage",
    "arrival_report",
    "corner_report",
    "critical_path_report",
    "design_summary",
    "DelayDistribution",
    "MonteCarloTiming",
    "GreedySizer",
    "SizingResult",
    "SizingStep",
]
