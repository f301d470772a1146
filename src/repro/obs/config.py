"""Telemetry configuration.

One :class:`ObsConfig` switches two views of the frame ledger
(:mod:`repro.obs.frames`), the trace view and the metrics registry
(``enabled``).  The safety bounds that keep an instrumented
long-running process from growing without limit are module constants:
:data:`repro.obs.frames.TRACE_LIMIT` and
:data:`repro.obs.metrics.MAX_SERIES`.

The default configuration is *disabled*: every instrumentation point in
the solvers degrades to a single attribute check, so the un-observed
hot path stays effectively free (see ``tests/test_obs.py`` for the
overhead budget assertion).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ObsConfig:
    """Controls for the trace and metrics views.

    Attributes:
        enabled: master switch.  When False (the default) frames feed no
            spans and metric operations are no-ops.
    """

    enabled: bool = False
