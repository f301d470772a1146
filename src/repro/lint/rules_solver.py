"""Solver-preflight rule pack: QWM configuration sanity.

Bad solver options don't crash immediately — they surface as Newton
divergence deep inside the region cascade.  These rules check the
``QWMOptions``/``NewtonOptions`` bundle (duck-typed via ``ctx.options``)
and the interaction between stage stack depth and the characterization
grid resolution.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Iterator, List, Optional

from repro.core.qwm import check_milestone_fractions
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.lint.rules_code import _code, _in_packages, _loc, _unparse
from repro.lint.runner import LintRule, register

#: Series pull paths deeper than this get a blanket depth warning.
MAX_RECOMMENDED_DEPTH = 16
#: A DFS longest-path search gives up after this many steps and falls
#: back to a BFS shortest-path estimate.
_DFS_STEP_BUDGET = 20000


def _opts_loc(element: str = None) -> Location:
    return Location("options", "qwm", element)


def stage_stack_depth(stage: Any) -> int:
    """Deepest series element chain from an output node to a rail.

    Exact (longest simple path) for the small stages QWM targets, with
    a step budget; falls back to the BFS shortest path on pathological
    inputs.
    """
    best = 0
    budget = [_DFS_STEP_BUDGET]
    rails = (stage.source, stage.sink)

    def dfs(node, visited, depth) -> Optional[int]:
        budget[0] -= 1
        if budget[0] <= 0:
            return None
        if node in rails:
            return depth
        deepest = 0
        for edge in node.edges:
            neighbor = edge.other(node)
            if neighbor.name in visited:
                continue
            visited.add(neighbor.name)
            sub = dfs(neighbor, visited, depth + 1)
            visited.discard(neighbor.name)
            if sub is None:
                return None
            deepest = max(deepest, sub)
        return deepest

    for output in stage.outputs:
        found = dfs(output, {output.name}, 0)
        if found is None:
            found = _bfs_depth(stage, output)
        best = max(best, found)
    return best


def _bfs_depth(stage: Any, output: Any) -> int:
    rails = (stage.source, stage.sink)
    frontier = [(output, 0)]
    seen = {output.name}
    while frontier:
        node, depth = frontier.pop(0)
        if node in rails:
            return depth
        for edge in node.edges:
            neighbor = edge.other(node)
            if neighbor.name not in seen:
                seen.add(neighbor.name)
                frontier.append((neighbor, depth + 1))
    return 0


@register
class StackDepthRule(LintRule):
    """Stack depth vs the characterization grid's voltage resolution."""

    rule_id = "SOL001"
    slug = "stack-depth"
    pack = "solver"
    default_severity = Severity.WARNING
    description = ("Deep series stacks space their node voltages "
                   "closer than the table grid pitch resolves.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        pitch = self._grid_pitch(ctx)
        for stage in ctx.stages:
            if not stage.outputs or not stage.edges:
                continue
            depth = stage_stack_depth(stage)
            if depth <= 0:
                continue
            loc = Location("stage", stage.name)
            if depth > MAX_RECOMMENDED_DEPTH:
                yield self.diag(
                    f"deepest pull path has {depth} series elements "
                    f"(recommended maximum {MAX_RECOMMENDED_DEPTH})",
                    loc,
                    hint="split the stage or accept degraded accuracy")
                continue
            if pitch is not None and stage.vdd / depth < 2.0 * pitch:
                yield self.diag(
                    f"deepest pull path of {depth} elements leaves "
                    f"~{stage.vdd / depth:.2f} V per node, under twice "
                    f"the table grid pitch ({pitch:.2f} V): bilinear "
                    "interpolation will dominate the region solves",
                    loc,
                    hint="characterize with a finer grid_step for this "
                         "design")

    @staticmethod
    def _grid_pitch(ctx: LintContext) -> Optional[float]:
        pitches = []
        for table in ctx.tables:
            grid = table.grid
            for axis in (grid.vs_values, grid.vg_values):
                if axis.size >= 2:
                    pitches.append(float(max(
                        axis[k + 1] - axis[k]
                        for k in range(axis.size - 1))))
        if pitches:
            return max(pitches)
        return ctx.grid_step


@register
class MilestoneFractionRule(LintRule):
    """Degenerate milestone-fraction schedules."""

    rule_id = "SOL002"
    slug = "milestone-fractions"
    pack = "solver"
    default_severity = Severity.ERROR
    description = ("Milestone fractions must be finite, inside "
                   "(0, 1.5] and strictly decreasing.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        options = ctx.options
        if options is None or not hasattr(options, "milestone_fractions"):
            return
        for problem in check_milestone_fractions(
                options.milestone_fractions):
            yield self.diag(problem, _opts_loc("milestone_fractions"),
                            hint="use a strictly decreasing schedule "
                                 "like QWMOptions' default")


@register
class NewtonSanityRule(LintRule):
    """Newton/scheduler controls that cannot converge."""

    rule_id = "SOL003"
    slug = "newton-sanity"
    pack = "solver"
    default_severity = Severity.ERROR
    description = ("Newton tolerances, iteration/retry limits and the "
                   "schedule time bound must be sane.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        options = ctx.options
        if options is None:
            return
        newton = getattr(options, "newton", None)
        if newton is not None:
            if getattr(newton, "abstol", 1.0) <= 0:
                yield self.diag(
                    f"newton.abstol is {newton.abstol:g} (must be "
                    "positive): the residual test can never pass",
                    _opts_loc("newton.abstol"),
                    hint="use a small positive residual tolerance, "
                         "e.g. 1e-10")
            if getattr(newton, "xtol", 1.0) <= 0:
                yield self.diag(
                    f"newton.xtol is {newton.xtol:g} (must be "
                    "positive)",
                    _opts_loc("newton.xtol"),
                    hint="use a small positive step tolerance")
            max_iter = getattr(newton, "max_iterations", 100)
            if max_iter < 2:
                yield self.diag(
                    f"newton.max_iterations is {max_iter} (must be "
                    ">= 2 to take a single corrected step)",
                    _opts_loc("newton.max_iterations"))
            elif max_iter < 10:
                yield self.diag(
                    f"newton.max_iterations is {max_iter}: region "
                    "solves routinely need ~10-40 iterations",
                    _opts_loc("newton.max_iterations"),
                    severity=Severity.WARNING,
                    hint="raise max_iterations toward the default 40")
        t_stop = getattr(options, "t_stop", None)
        if t_stop is not None and t_stop <= 0:
            yield self.diag(
                f"t_stop is {t_stop:g} s (must be positive)",
                _opts_loc("t_stop"))
        margin = getattr(options, "turn_on_margin", None)
        if margin is not None and margin < 0:
            yield self.diag(
                f"turn_on_margin is {margin:g} V (must be "
                "non-negative)",
                _opts_loc("turn_on_margin"))
        substeps = getattr(options, "cascade_substeps", None)
        if substeps is not None and substeps < 1:
            yield self.diag(
                f"cascade_substeps is {substeps} (must be >= 1)",
                _opts_loc("cascade_substeps"))
        retries = getattr(options, "max_retries", None)
        if retries is not None and retries < 1:
            yield self.diag(
                f"max_retries is {retries} (must be >= 1)",
                _opts_loc("max_retries"))


@register
class TelemetryBudgetRule(LintRule):
    """Tight Newton budgets are debugged blind without telemetry."""

    rule_id = "SOL004"
    slug = "telemetry-budget"
    pack = "solver"
    default_severity = Severity.WARNING
    description = ("A Newton iteration budget under 10 is prone to "
                   "convergence failures; enable telemetry before "
                   "debugging them.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        from repro.obs import ledger

        options = ctx.options
        newton = getattr(options, "newton", None) if options else None
        if newton is None:
            return
        max_iter = getattr(newton, "max_iterations", 100)
        if max_iter >= 2 and max_iter < 10 and not ledger().metrics.enabled:
            yield self.diag(
                f"newton.max_iterations is {max_iter} (< 10) while "
                "telemetry is disabled: convergence failures will "
                "leave no trace of which region or attempt failed",
                _opts_loc("telemetry"),
                hint="configure(ObsConfig(enabled=True)) — the "
                     "newton.convergence.failures counter and "
                     "qwm.phase12/qwm.phase3 spans pinpoint failing "
                     "regions")


# ======================================================================
# SOL006 — instrumentation inside per-iteration inner loops
# ======================================================================
#: Packages whose inner loops are the measured hot path.
_HOT_PACKAGES = ("core", "linalg", "spice", "devices")
#: Module-level instrumentation helpers (called by bare name).
_BARE_INSTRUMENTATION = frozenset({
    "frame", "count", "inc", "observe", "set_gauge"})
#: Method-style instrumentation sinks (``recorder.record(...)``).
_ATTR_INSTRUMENTATION = frozenset(
    _BARE_INSTRUMENTATION | {"record", "add_event"})
#: Loop headers that look like per-iteration solver loops.
_ITERATION_HINT = re.compile(
    r"iter|newton|step|converg|max_it|sweep", re.IGNORECASE)
#: Guard tests that mark a call as sampled/decimated.
_SAMPLING_HINT = re.compile(r"sample|every|stride|decim", re.IGNORECASE)


def _instrumentation_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name) and func.id in _BARE_INSTRUMENTATION:
        return func.id
    if isinstance(func, ast.Attribute) \
            and func.attr in _ATTR_INSTRUMENTATION:
        return func.attr
    return None


def _is_iteration_loop(node: ast.AST) -> bool:
    """While loops and iteration-named for loops count as inner loops."""
    if isinstance(node, ast.While):
        return True
    if isinstance(node, ast.For):
        header = f"{_unparse(node.target)} {_unparse(node.iter)}"
        return bool(_ITERATION_HINT.search(header))
    return False


def _block_leaves_loop(block: List[ast.stmt]) -> bool:
    """A branch ending in raise/return/break/continue is not the
    steady-state per-iteration path."""
    return bool(block) and isinstance(
        block[-1], (ast.Raise, ast.Return, ast.Break, ast.Continue))


def _contains(block: List[ast.stmt], node: ast.AST) -> bool:
    return any(node is child or any(node is sub
                                    for sub in ast.walk(child))
               for child in block)


@register
class HotLoopInstrumentationRule(LintRule):
    """Profiling hooks must not slow the hot path they measure."""

    rule_id = "SOL006"
    slug = "hot-loop-instrumentation"
    pack = "solver"
    default_severity = Severity.WARNING
    description = ("An instrumentation call inside a per-iteration "
                   "inner loop (Newton sweeps, time stepping) pays its "
                   "dict/lock cost every iteration; accumulate locally "
                   "and flush once outside the loop, or sample.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        code = _code(ctx)
        if code is None:
            return
        for source in code.parsed():
            if not _in_packages(source, _HOT_PACKAGES):
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _instrumentation_name(node)
                if name is None:
                    continue
                loop = self._enclosing_iteration_loop(source, node)
                if loop is None:
                    continue
                yield self.diag(
                    f"{name}() inside a per-iteration loop (line "
                    f"{loop.lineno}): the instrumentation cost is paid "
                    "on every iteration of the hot path it measures",
                    _loc(source, node.lineno),
                    hint="accumulate into a local counter and flush "
                         "once after the loop (count / Frame.count), "
                         "or guard the call with a sampling test "
                         "(e.g. `if i % stride == 0`)")

    @staticmethod
    def _enclosing_iteration_loop(source, node: ast.Call
                                  ) -> Optional[ast.AST]:
        """The iteration loop the call runs per-iteration of, if any.

        Exempt when an enclosing branch (between call and loop) is
        sampled (``%``/sampling names in the test) or immediately
        leaves the loop body (ends in raise/return/break/continue —
        a failure/budget path, not the steady-state iteration).
        """
        cursor = node
        for ancestor in source.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                return None
            if isinstance(ancestor, ast.If):
                test = _unparse(ancestor.test)
                if "%" in test or _SAMPLING_HINT.search(test):
                    return None
                for block in (ancestor.body, ancestor.orelse):
                    if _contains(block, cursor) \
                            and _block_leaves_loop(block):
                        return None
            if _is_iteration_loop(ancestor):
                return ancestor
            cursor = ancestor
        return None
