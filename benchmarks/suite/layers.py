"""Per-layer spans for the traced round.

The benchmark does not edit the program.  It wraps each layer's public
entry points from here for the duration of a traced unit, and restores
them afterwards.  Where a caller imports a function by name, the
caller's binding is the one patched (``repro.core.matching.
solve_bordered_tridiagonal``, ``repro.cli.parse_spice_netlist``...).
A renamed entry point raises on install, so the traced run fails
instead of quietly reporting zeros.

Spans live in memory as ``[name, start, end, parent, sample]`` and are
written as a Chrome trace when the round ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from common import percentile

#: Per-layer metrics printed with --trace, grouped by layer (module).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("devices.characterize_s", "s"),
    ("devices.iv_query.calls", "count"),
    ("devices.iv_query.self_s", "s"),
    ("devices.iv_query.ns_per_call", "ns"),
    ("spice.solve_dc.calls", "count"),
    ("spice.solve_dc.self_s", "s"),
    ("spice.static_residual.calls", "count"),
    ("spice.static_residual.self_s", "s"),
    ("spice.dc_per_arc", "ratio"),
    ("spice.transient.self_s", "s"),
    ("spice.transient.steps", "count"),
    ("linalg.bordered_solve.calls", "count"),
    ("linalg.bordered_solve.self_s", "s"),
    ("linalg.newton.calls", "count"),
    ("linalg.newton.self_s", "s"),
    ("linalg.newton.region.calls", "count"),
    ("linalg.newton.region.self_s", "s"),
    ("linalg.newton.dc.calls", "count"),
    ("linalg.newton.dc.self_s", "s"),
    ("core.evaluate.calls", "count"),
    ("core.evaluate.self_s", "s"),
    ("core.extract.self_s", "s"),
    ("core.initial.self_s", "s"),
    ("core.residual.self_s", "s"),
    ("core.qwm_solve.self_s", "s"),
    ("core.region_newton.calls", "count"),
    ("core.region_newton.self_s", "s"),
    ("core.qwm.regions", "count"),
    ("core.qwm.newton_iterations", "count"),
    ("sta.stage_arc.calls", "count"),
    ("sta.stage_arc.self_s", "s"),
    ("sta.stage_arc.p50_ms", "ms"),
    ("sta.stage_arc.tail_ms", "ms"),
    ("sta.accepted_solve_ratio", "ratio"),
    ("parallel.cache.hits", "count"),
    ("parallel.cache.misses", "count"),
    ("parallel.cache.hit_ratio", "ratio"),
    ("parallel.canonical_form.calls", "count"),
    ("parallel.canonical_form.self_s", "s"),
    ("parallel.run.self_s", "s"),
    ("incremental.arcs_evaluated", "count"),
    ("incremental.arcs_cached", "count"),
    ("incremental.analyze.self_s", "s"),
    ("resilience.degraded_arcs", "count"),
    ("resilience.ladder.self_s", "s"),
    ("io.parse.self_s", "s"),
    ("circuit.extract_stages.self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.glue_pct", "%"),
)

#: Layers that also work during set-up (characterization, parsing,
#: extraction): their metrics include the traced set-up.
SETUP_LAYERS = frozenset(
    {"devices.characterize", "io.parse", "circuit.extract_stages"})

#: The benchmark's own root spans; their self time is glue.
SETUP_ROOT = "bench.setup"
UNIT_ROOT = "bench.unit"

After = Callable[["Tracer", tuple, object], None]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrap points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: (sample, counter name) -> value, fed by the wrap callbacks.
        self.counts: Dict[Tuple[object, str], int] = defaultdict(int)
        self.sample: object = "setup"
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.sample])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def add(self, name: str, value: int = 1) -> None:
        self.counts[(self.sample, name)] += value

    # -- wrap points ----------------------------------------------------
    def patch(self, owner, attr: str, name: Optional[str],
              after: Optional[After] = None) -> None:
        """Wrap ``owner.attr`` in a span ``name`` (None: count only)."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        import repro
        import repro.cli
        from repro.analysis import incremental, parallel, sta
        from repro.core import engine, matching, qwm
        from repro.devices import table_model
        from repro.linalg import newton
        from repro.resilience import ladder
        from repro.spice import dc, mna, transient

        def qwm_counts(t, args, solution):
            t.add("core.qwm.regions", solution.stats.steps)
            t.add("core.qwm.newton_iterations",
                  solution.stats.newton_iterations)

        def transient_steps(t, args, result):
            t.add("spice.transient.steps", result.stats.steps)

        def arc_outcome(t, args, arc):
            if arc is not None:
                t.add("sta.stage_arc.accepted")
                if arc[2] != "qwm":
                    t.add("resilience.degraded_arcs")

        def cache_outcome(t, args, value):
            found = parallel.StageResultCache.found(value)
            t.add("parallel.cache.hits" if found
                  else "parallel.cache.misses")

        def incremental_stats(t, args, result):
            stats = args[0].last_stats
            t.add("incremental.arcs_evaluated", stats.arcs_evaluated)
            t.add("incremental.arcs_cached", stats.arcs_cached)

        table = [
            (table_model, "characterize_device", "devices.characterize",
             None),
            (table_model.TableDeviceModel, "iv_query", "devices.iv_query",
             None),
            (dc, "solve_dc", "spice.solve_dc", None),
            (transient, "solve_dc", "spice.solve_dc", None),
            (mna.StageEquations, "static_residual", "spice.static_residual",
             None),
            (transient.TransientSimulator, "run", "spice.transient",
             transient_steps),
            (matching, "solve_bordered_tridiagonal",
             "linalg.bordered_solve", None),
            (newton.NewtonSolver, "solve", "linalg.newton", None),
            (engine.WaveformEvaluator, "evaluate", "core.evaluate", None),
            (engine.WaveformEvaluator, "extract", "core.extract", None),
            (engine.WaveformEvaluator, "default_initial", "core.initial",
             None),
            (qwm.QWMSolver, "solve", "core.qwm_solve", qwm_counts),
            (matching.RegionSystem, "newton_solve", "core.region_newton",
             None),
            (matching.RegionSystem, "residual_and_parts", "core.residual",
             None),
            (sta.StaticTimingAnalyzer, "analyze", "sta.analyze", None),
            (sta.StaticTimingAnalyzer, "stage_arc", "sta.stage_arc",
             arc_outcome),
            (parallel.StageResultCache, "get", None, cache_outcome),
            (parallel, "canonical_form_for", "parallel.canonical_form",
             None),
            (parallel.ParallelStaEngine, "run", "parallel.run", None),
            (incremental.IncrementalTimer, "analyze",
             "incremental.analyze", incremental_stats),
            (incremental.IncrementalTimer, "resize_transistor",
             "incremental.edit", None),
            (incremental.IncrementalTimer, "set_load", "incremental.edit",
             None),
            (ladder.EscalationLadder, "evaluate_arc", "resilience.ladder",
             None),
            (repro.cli, "parse_spice_netlist", "io.parse", None),
            (repro.cli, "extract_stages", "circuit.extract_stages", None),
            (repro, "extract_stages", "circuit.extract_stages", None),
        ]
        try:
            for owner, attr, name, after in table:
                self.patch(owner, attr, name, after)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics ------------------------------------------------
    def layer_metrics(self, sample: object, overhead_pct: float
                      ) -> Tuple[Dict[str, float], Dict[str, object]]:
        """Per-layer metrics of one traced unit (plus set-up layers).

        Returns the metrics keyed as in :data:`PER_LAYER` and details
        (the stage-arc tail percentile and its sample count).
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        under_arc = [False] * len(spans)
        for index, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                under_arc[index] = (spans[parent][0] == "sta.stage_arc"
                                    or under_arc[parent])

        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        arc_ms: List[float] = []
        evaluates_under_arc = 0
        unit_wall = glue = 0.0
        for index, (name, start, end, parent, owner) in enumerate(spans):
            if owner != sample and not (owner == "setup"
                                        and name in SETUP_LAYERS):
                continue
            duration = end - start
            own = duration - covered[index]
            if name == "linalg.newton" and parent >= 0:
                kind = {"core.region_newton": "region",
                        "spice.solve_dc": "dc"}.get(spans[parent][0])
                if kind is not None:
                    calls[f"linalg.newton.{kind}"] += 1
                    self_s[f"linalg.newton.{kind}"] += own
            if name == "sta.stage_arc":
                arc_ms.append(duration * 1e3)
            if name == "core.evaluate" and under_arc[index]:
                evaluates_under_arc += 1
            if name == UNIT_ROOT:
                unit_wall += duration
                glue += own
            calls[name] += 1
            self_s[name] += own

        def count(name: str) -> int:
            return self.counts.get((sample, name), 0)

        hits = count("parallel.cache.hits")
        misses = count("parallel.cache.misses")
        arcs = calls["sta.stage_arc"]
        tail_pct = next((pct for pct in (99.9, 99.0, 95.0, 90.0, 75.0)
                         if len(arc_ms) * (1 - pct / 100) >= 10), 50.0)
        metrics = {
            "devices.characterize_s": self_s["devices.characterize"],
            "devices.iv_query.calls": calls["devices.iv_query"],
            "devices.iv_query.self_s": self_s["devices.iv_query"],
            "devices.iv_query.ns_per_call": (
                self_s["devices.iv_query"] / calls["devices.iv_query"] * 1e9
                if calls["devices.iv_query"] else 0.0),
            "spice.solve_dc.calls": calls["spice.solve_dc"],
            "spice.solve_dc.self_s": self_s["spice.solve_dc"],
            "spice.static_residual.calls": calls["spice.static_residual"],
            "spice.static_residual.self_s": self_s["spice.static_residual"],
            "spice.dc_per_arc": (calls["spice.solve_dc"] / arcs
                                 if arcs else 0.0),
            "spice.transient.self_s": self_s["spice.transient"],
            "spice.transient.steps": count("spice.transient.steps"),
            "linalg.bordered_solve.calls": calls["linalg.bordered_solve"],
            "linalg.bordered_solve.self_s": self_s["linalg.bordered_solve"],
            "linalg.newton.calls": calls["linalg.newton"],
            "linalg.newton.self_s": self_s["linalg.newton"],
            "linalg.newton.region.calls": calls["linalg.newton.region"],
            "linalg.newton.region.self_s": self_s["linalg.newton.region"],
            "linalg.newton.dc.calls": calls["linalg.newton.dc"],
            "linalg.newton.dc.self_s": self_s["linalg.newton.dc"],
            "core.evaluate.calls": calls["core.evaluate"],
            "core.evaluate.self_s": self_s["core.evaluate"],
            "core.extract.self_s": self_s["core.extract"],
            "core.initial.self_s": self_s["core.initial"],
            "core.residual.self_s": self_s["core.residual"],
            "core.qwm_solve.self_s": self_s["core.qwm_solve"],
            "core.region_newton.calls": calls["core.region_newton"],
            "core.region_newton.self_s": self_s["core.region_newton"],
            "core.qwm.regions": count("core.qwm.regions"),
            "core.qwm.newton_iterations": count("core.qwm.newton_iterations"),
            "sta.stage_arc.calls": arcs,
            "sta.stage_arc.self_s": self_s["sta.stage_arc"],
            "sta.stage_arc.p50_ms": (percentile(arc_ms, 50.0)
                                     if arc_ms else 0.0),
            "sta.stage_arc.tail_ms": (percentile(arc_ms, tail_pct)
                                      if arc_ms else 0.0),
            "sta.accepted_solve_ratio": (
                count("sta.stage_arc.accepted") / evaluates_under_arc
                if evaluates_under_arc else 0.0),
            "parallel.cache.hits": hits,
            "parallel.cache.misses": misses,
            "parallel.cache.hit_ratio": (hits / (hits + misses)
                                         if hits + misses else 0.0),
            "parallel.canonical_form.calls":
                calls["parallel.canonical_form"],
            "parallel.canonical_form.self_s":
                self_s["parallel.canonical_form"],
            "parallel.run.self_s": self_s["parallel.run"],
            "incremental.arcs_evaluated": count("incremental.arcs_evaluated"),
            "incremental.arcs_cached": count("incremental.arcs_cached"),
            "incremental.analyze.self_s": self_s["incremental.analyze"],
            "resilience.degraded_arcs": count("resilience.degraded_arcs"),
            "resilience.ladder.self_s": self_s["resilience.ladder"],
            "io.parse.self_s": self_s["io.parse"],
            "circuit.extract_stages.self_s":
                self_s["circuit.extract_stages"],
            "trace.overhead_pct": overhead_pct,
            "trace.glue_pct": glue / unit_wall * 100 if unit_wall else 0.0,
        }
        details = {"sta.stage_arc.tail_pct": tail_pct,
                   "sta.stage_arc.n": len(arc_ms),
                   "span_calls": dict(sorted(calls.items())),
                   "unit_wall_s": unit_wall}
        return metrics, details

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome ``trace_event`` JSON (chrome://tracing)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"sample": sample, "parent": parent}}
                  for name, start, end, parent, sample in self.spans]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
