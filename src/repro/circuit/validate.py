"""Structural validation of logic stages.

Since the introduction of :mod:`repro.lint` this module is a thin,
backward-compatible adapter: the structural rules themselves live in
the ERC rule pack (:mod:`repro.lint.rules_erc`) and are shared with the
``repro lint`` CLI and :func:`repro.lint.preflight`.  ``validate_stage``
runs them on a single stage and raises a :class:`StageValidationError`
formatting every error-severity diagnostic, exactly as it always did.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuit.netlist import LogicStage


class StageValidationError(ValueError):
    """A logic stage violates the polar-graph structural rules.

    Attributes:
        diagnostics: the structured lint findings behind the message
            (:class:`repro.lint.Diagnostic` records, errors first).
    """

    def __init__(self, message: str, diagnostics: Sequence = ()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


def lint_stage_structure(stage: LogicStage,
                         require_outputs: bool = True):
    """Run the structural ERC rules on one stage.

    Returns:
        The :class:`repro.lint.LintReport` (all severities; callers
        decide what to do with warnings).
    """
    from repro.lint import LintContext, LintRunner

    disable = () if require_outputs else ("ERC005",)
    runner = LintRunner(packs=("erc",), disable=disable)
    return runner.run(LintContext.from_stage(stage))


def validate_stage(stage: LogicStage, require_outputs: bool = True) -> None:
    """Check the structural invariants of a logic stage.

    Verifies that every internal node is connected, that the graph is a
    single connected component containing both poles, that transistors
    have gate inputs, and (optionally) that at least one output is
    marked.

    Raises:
        StageValidationError: describing every violation found; its
            ``diagnostics`` attribute carries the structured records.
    """
    report = lint_stage_structure(stage, require_outputs=require_outputs)
    errors = report.errors
    if errors:
        problems: List[str] = [d.message for d in errors]
        raise StageValidationError(
            f"stage {stage.name!r}: " + "; ".join(problems), errors)
