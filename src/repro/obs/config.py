"""Telemetry configuration.

One :class:`ObsConfig` switches two views of the frame ledger
(:mod:`repro.obs.frames`), the trace view and the metrics registry
(``enabled``), and picks where live span events stream to (``sink``).
The safety bounds that keep an instrumented long-running process from
growing without limit are module constants:
:data:`repro.obs.frames.TRACE_LIMIT` and
:data:`repro.obs.metrics.MAX_SERIES`.

The default configuration is *disabled*: every instrumentation point in
the solvers degrades to a single attribute check, so the un-observed
hot path stays effectively free (see ``tests/test_obs.py`` for the
overhead budget assertion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Valid values for :attr:`ObsConfig.sink`.
SINK_KINDS = ("null", "stderr", "jsonl")


@dataclass
class ObsConfig:
    """Controls for the trace and metrics views.

    Attributes:
        enabled: master switch.  When False (the default) frames feed no
            spans and metric operations are no-ops.
        sink: live event sink — ``"null"`` (keep in memory only),
            ``"stderr"`` (log one line per finished span) or
            ``"jsonl"`` (append JSON lines to ``sink_path``).
        sink_path: output file for the ``"jsonl"`` sink.
    """

    enabled: bool = False
    sink: str = "null"
    sink_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sink not in SINK_KINDS:
            raise ValueError(
                f"sink must be one of {SINK_KINDS}, got {self.sink!r}")
        if self.sink == "jsonl" and not self.sink_path:
            raise ValueError("sink='jsonl' needs a sink_path")
