"""Solver preflight rules and the QWMOptions constructor validation."""

import math
from types import SimpleNamespace

import pytest

from repro.circuit import builders
from repro.core.qwm import QWMOptions
from repro.lint import LintContext, LintRunner
from repro.lint.rules_solver import (
    check_milestone_fractions,
    stage_stack_depth,
)


def solver_report(ctx):
    return LintRunner(packs=("solver",)).run(ctx)


class TestQWMOptionsValidation:
    def test_defaults_are_valid(self):
        QWMOptions()

    @pytest.mark.parametrize("kwargs, match", [
        ({"milestone_fractions": ()}, "empty"),
        ({"milestone_fractions": (0.5, 0.9)}, "strictly decreasing"),
        ({"milestone_fractions": (1.0, 1.0, 0.5)},
         "strictly decreasing"),
        ({"milestone_fractions": (0.9, 0.5, -0.1)}, "outside"),
        ({"milestone_fractions": (2.0, 0.5)}, "outside"),
        ({"milestone_fractions": (0.9, math.nan)}, "non-finite"),
        ({"t_stop": 0.0}, "t_stop"),
        ({"turn_on_margin": -1e-3}, "turn_on_margin"),
        ({"cascade_substeps": 0}, "cascade_substeps"),
        ({"max_retries": 0}, "max_retries"),
    ])
    def test_bad_options_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            QWMOptions(**kwargs)

    def test_check_milestone_fractions_clean(self):
        assert check_milestone_fractions(
            QWMOptions().milestone_fractions) == []


class TestSolverRules:
    def test_default_options_are_clean(self):
        report = solver_report(LintContext(options=QWMOptions()))
        assert len(report) == 0

    def test_degenerate_milestones_flagged(self):
        # The constructor rejects these, so a rule-level check needs a
        # duck-typed stand-in (e.g. options deserialized from a config
        # file that bypassed QWMOptions).
        options = SimpleNamespace(milestone_fractions=(0.5, 0.9))
        report = solver_report(LintContext(options=options))
        assert "SOL002-milestone-fractions" in report.rule_ids
        assert not report.ok

    def test_newton_sanity(self):
        options = SimpleNamespace(
            newton=SimpleNamespace(abstol=-1.0, xtol=0.0,
                                   max_iterations=1),
            t_stop=-1e-9, turn_on_margin=-0.5,
            cascade_substeps=0, max_retries=0)
        report = solver_report(LintContext(options=options))
        elements = {d.location.element for d in report
                    if d.rule == "SOL003-newton-sanity"}
        assert elements == {"newton.abstol", "newton.xtol",
                            "newton.max_iterations", "t_stop",
                            "turn_on_margin", "cascade_substeps",
                            "max_retries"}

    def test_low_iteration_budget_is_a_warning(self):
        options = SimpleNamespace(
            newton=SimpleNamespace(abstol=1e-10, xtol=1e-9,
                                   max_iterations=5))
        report = solver_report(LintContext(options=options))
        (diag,) = [d for d in report
                   if d.location.element == "newton.max_iterations"]
        assert diag.severity.value == "warning"

    def test_telemetry_budget_warns_when_blind(self):
        options = SimpleNamespace(
            newton=SimpleNamespace(abstol=1e-10, xtol=1e-9,
                                   max_iterations=5))
        report = solver_report(LintContext(options=options))
        (diag,) = [d for d in report
                   if d.rule == "SOL004-telemetry-budget"]
        assert diag.severity.value == "warning"
        assert diag.location.element == "telemetry"

    def test_telemetry_budget_quiet_when_enabled(self):
        from repro.obs import ObsConfig, configure, disable

        options = SimpleNamespace(
            newton=SimpleNamespace(abstol=1e-10, xtol=1e-9,
                                   max_iterations=5))
        configure(ObsConfig(enabled=True))
        try:
            report = solver_report(LintContext(options=options))
        finally:
            disable()
        assert not any(d.rule == "SOL004-telemetry-budget"
                       for d in report)

    def test_telemetry_budget_quiet_with_default_budget(self):
        from repro.linalg import NewtonOptions

        options = SimpleNamespace(newton=NewtonOptions())
        report = solver_report(LintContext(options=options))
        assert not any(d.rule == "SOL004-telemetry-budget"
                       for d in report)

    def test_stack_depth_of_nand(self, tech):
        stage = builders.nand_gate(tech, 4)
        assert stage_stack_depth(stage) == 4

    def test_deep_stack_warns(self, tech):
        stage = builders.nmos_stack(tech, length=18)
        ctx = LintContext.from_stage(stage, tech=tech)
        report = solver_report(ctx)
        deep = [d for d in report if d.rule == "SOL001-stack-depth"]
        assert deep and "18" in deep[0].message

    def test_coarse_grid_vs_stack_warns(self, tech):
        stage = builders.nand_gate(tech, 8)
        ctx = LintContext.from_stage(stage, tech=tech)
        ctx.grid_step = 0.5
        report = solver_report(ctx)
        assert any(d.rule == "SOL001-stack-depth" for d in report)

    def test_fine_grid_is_quiet(self, tech):
        stage = builders.nand_gate(tech, 2)
        ctx = LintContext.from_stage(stage, tech=tech)
        ctx.grid_step = 0.1
        report = solver_report(ctx)
        assert not any(d.rule == "SOL001-stack-depth" for d in report)


class TestPreflightHooks:
    """The check a caller runs before a solve: ``repro.lint.preflight``
    over the stage (or stage graph) and the solver options."""

    def test_evaluator_preflight_rejects_broken_stage(self, tech):
        from repro.circuit.netlist import LogicStage
        from repro.lint import PreflightError, preflight

        bad = LogicStage("bad", vdd=tech.vdd)
        bad.add_node("orphan")
        ctx = LintContext.from_stage(bad, tech=tech, options=QWMOptions())
        with pytest.raises(PreflightError) as excinfo:
            preflight(ctx, what="stage 'bad'", packs=("erc", "solver"))
        assert "ERC002-dangling-node" in excinfo.value.report.rule_ids

    def test_evaluator_preflight_passes_clean_stage(self, tech,
                                                    library):
        from repro.core import WaveformEvaluator
        from repro.lint import preflight
        from repro.spice import StepSource

        stage = builders.nand_gate(tech, 2)
        evaluator = WaveformEvaluator(tech, library=library)
        ctx = LintContext.from_stage(stage, tech=tech,
                                     options=evaluator.options)
        ctx.grid_step = library.grid_step
        assert preflight(ctx, packs=("erc", "solver")).ok
        solution = evaluator.evaluate(
            stage, output="out", direction="fall",
            inputs={"a0": StepSource(0.0, tech.vdd, 0.0),
                    "a1": tech.vdd})
        assert solution.delay() > 0

    def test_sta_preflight_rejects_broken_graph(self, tech):
        from repro.circuit import extract_stages
        from repro.io import parse_spice_netlist
        from repro.lint import PreflightError, preflight

        deck = """
        .input a
        Mp out a VDD VDD pmos W=2u L=0.35u
        Mn out a 0 0 nmos W=1u L=0.35u
        Rf lone1 lone2 100
        .output out
        """
        graph = extract_stages(
            parse_spice_netlist(deck, tech, name="dangle"), tech=tech)
        ctx = LintContext(graph=graph, stages=list(graph.stages),
                          tech=tech, options=QWMOptions())
        with pytest.raises(PreflightError) as excinfo:
            preflight(ctx, what="stage graph", packs=("erc", "solver"))
        assert excinfo.value.report.rule_ids == [
            "ERC003-pole-unreachable", "ERC005-missing-output"]


# ---------------------------------------------------------------------------
# SOL006 — instrumentation in per-iteration inner loops
# ---------------------------------------------------------------------------
def sol006_report(sources):
    """Lint synthetic sources with the solver pack's code rule."""
    from repro.lint import CodeContext

    code = CodeContext.from_sources(sources)
    return LintRunner(packs=("solver",)).run(LintContext.from_code(code))


def sol006_hits(report):
    return [d for d in report
            if d.rule == "SOL006-hot-loop-instrumentation"]


class TestSol006HotLoopInstrumentation:
    def test_flags_counter_in_while_loop(self):
        report = sol006_report({"core/hotloop.py": (
            "from repro.obs import inc\n"
            "def solve(max_iterations):\n"
            "    it = 0\n"
            "    while it < max_iterations:\n"
            "        inc('newton.iterations')\n"
            "        it += 1\n"
        )})
        (diag,) = sol006_hits(report)
        assert diag.location.container == "core/hotloop.py"
        assert "inc()" in diag.message
        assert "accumulate" in diag.hint

    def test_flags_profile_add_in_iteration_for_loop(self):
        report = sol006_report({"core/sweep.py": (
            "from repro.obs import count\n"
            "def run(max_iterations):\n"
            "    for i in range(max_iterations):\n"
            "        count('newton_iterations')\n"
        )})
        assert len(sol006_hits(report)) == 1

    def test_sampling_guard_is_exempt(self):
        report = sol006_report({"core/sweep.py": (
            "from repro.obs import inc\n"
            "def run(max_iterations):\n"
            "    for i in range(max_iterations):\n"
            "        if i % 64 == 0:\n"
            "            inc('newton.iterations', 64)\n"
        )})
        assert sol006_hits(report) == []

    def test_failure_branch_ending_in_raise_is_exempt(self):
        report = sol006_report({"spice/stepper.py": (
            "from repro.obs import inc\n"
            "def run(max_steps, budget, residual):\n"
            "    step = 0\n"
            "    while step < max_steps:\n"
            "        step += 1\n"
            "        if residual > budget:\n"
            "            inc('spice.budget.exceeded')\n"
            "            raise ValueError('budget exceeded')\n"
        )})
        assert sol006_hits(report) == []

    def test_branch_ending_in_break_is_exempt(self):
        report = sol006_report({"core/hotloop.py": (
            "from repro.obs import inc\n"
            "def run(done, max_iterations):\n"
            "    it = 0\n"
            "    while it < max_iterations:\n"
            "        it += 1\n"
            "        if done:\n"
            "            inc('qwm.regions.solved')\n"
            "            break\n"
        )})
        assert sol006_hits(report) == []

    def test_flush_after_loop_is_exempt(self):
        report = sol006_report({"core/hotloop.py": (
            "from repro.obs import inc\n"
            "def run(max_iterations):\n"
            "    count = 0\n"
            "    for i in range(max_iterations):\n"
            "        count += 1\n"
            "    inc('newton.iterations', count)\n"
        )})
        assert sol006_hits(report) == []

    def test_non_hot_package_is_exempt(self):
        report = sol006_report({"analysis/driver.py": (
            "from repro.obs import inc\n"
            "def run(max_iterations):\n"
            "    it = 0\n"
            "    while it < max_iterations:\n"
            "        inc('sta.stage.solves')\n"
            "        it += 1\n"
        )})
        assert sol006_hits(report) == []

    def test_non_iteration_for_loop_is_exempt(self):
        # A bounded structural loop (over scales, devices, pieces) is
        # not the per-iteration hot path the rule targets.
        report = sol006_report({"core/hotloop.py": (
            "from repro.obs import inc\n"
            "def run(scales):\n"
            "    for scale in scales:\n"
            "        inc('qwm.region.attempts')\n"
        )})
        assert sol006_hits(report) == []

    def test_attribute_record_flagged_but_bare_record_is_not(self):
        # `recorder.record(...)` is a flight-recorder sink; a *bare*
        # `record(...)` is whatever local closure the solver defined
        # (qwm.py names its waveform-piece writer `record`).
        report = sol006_report({"core/rec.py": (
            "def run(recorder, record, max_iterations):\n"
            "    for i in range(max_iterations):\n"
            "        recorder.record('piece')\n"
            "        record(1.0)\n"
        )})
        hits = sol006_hits(report)
        assert len(hits) == 1
        assert "record()" in hits[0].message

    def test_nested_function_is_a_boundary(self):
        report = sol006_report({"core/hotloop.py": (
            "from repro.obs import inc\n"
            "def run(max_iterations):\n"
            "    for i in range(max_iterations):\n"
            "        def on_failure():\n"
            "            inc('newton.convergence.failures')\n"
        )})
        assert sol006_hits(report) == []

    def test_repo_tree_findings_are_baselined(self):
        # The real tree must carry no SOL006 findings beyond the ones
        # justified in .lint-baseline.json (enforced end-to-end by the
        # `repro lint --code` gate in CI).
        import os

        from repro.lint import Baseline, discover_baseline, lint_code

        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        report = lint_code()
        path = discover_baseline(repo_root)
        assert path is not None
        result = Baseline.load(path).apply(report)
        assert not sol006_hits(result.report)
