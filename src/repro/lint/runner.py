"""Rule base class, registry and the lint runner.

Rules register themselves with :func:`register`; a :class:`LintRunner`
instantiates the selected rules, runs each over a
:class:`~repro.lint.context.LintContext`, applies per-rule severity
overrides and collects everything into a
:class:`~repro.lint.diagnostics.LintReport`.  A rule that crashes is
itself reported as a diagnostic (``LNT999-rule-crash``) instead of
aborting the run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Type

from repro.lint.context import LintContext
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
)

#: Rule ID of the internal "a rule itself crashed" diagnostic.
RULE_CRASH_ID = "LNT999-rule-crash"


class LintRule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Diagnostic` records (typically built with
    :meth:`diag` so the rule ID and default severity are filled in).

    Attributes:
        rule_id: stable short ID, e.g. ``"ERC001"``.
        slug: kebab-case summary appended to the ID.
        pack: rule-pack name (``"erc"``, ``"model"``, ``"solver"``,
            ``"interconnect"``).
        default_severity: severity when not overridden by the runner.
        description: one-line human description (docs / ``--list``).
    """

    rule_id: str = "LNT000"
    slug: str = "unnamed"
    pack: str = "misc"
    default_severity: Severity = Severity.ERROR
    description: str = ""

    @property
    def full_id(self) -> str:
        """The stable full ID, e.g. ``"ERC001-floating-gate"``."""
        return f"{self.rule_id}-{self.slug}"

    def diag(self, message: str, location: Location,
             hint: Optional[str] = None,
             severity: Optional[Severity] = None) -> Diagnostic:
        """Build a diagnostic attributed to this rule."""
        return Diagnostic(rule=self.full_id,
                          severity=severity or self.default_severity,
                          message=message, location=location, hint=hint)

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        """Yield diagnostics for the given context."""
        raise NotImplementedError
        yield  # pragma: no cover


_REGISTRY: Dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: add a rule to the global registry."""
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate lint rule ID {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rule_classes() -> List[Type[LintRule]]:
    """Every registered rule class, in rule-ID order."""
    _load_builtin_packs()
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def rule_packs() -> List[str]:
    """Names of the registered rule packs, sorted."""
    return sorted({cls.pack for cls in all_rule_classes()})


def _load_builtin_packs() -> None:
    """Import the built-in rule modules (registration side effect)."""
    from repro.lint import (  # noqa: F401
        rules_code,
        rules_erc,
        rules_interconnect,
        rules_model,
        rules_solver,
    )


def _matches(rule: LintRule, token: str) -> bool:
    """True when ``token`` names this rule (ID, full ID or slug)."""
    token = token.strip().lower()
    return token in (rule.rule_id.lower(), rule.full_id.lower(),
                     rule.slug.lower())


class LintRunner:
    """Runs a selected set of rules over a context.

    Args:
        rules: explicit rule instances; defaults to every registered
            rule (optionally filtered by ``packs``).
        packs: when given, keep only rules from these packs.
        disable: rule IDs / slugs to skip (``"ERC001"``,
            ``"ERC001-floating-gate"`` and ``"floating-gate"`` all
            address the same rule).
        severity_overrides: rule ID -> severity (``Severity`` or
            string) replacing the rule's default.
        min_severity: drop collected diagnostics below this severity
            (``Severity.INFO`` keeps everything).
    """

    def __init__(self, rules: Optional[Iterable[LintRule]] = None,
                 packs: Optional[Iterable[str]] = None,
                 disable: Iterable[str] = (),
                 severity_overrides: Optional[Dict[str, object]] = None,
                 min_severity: Severity = Severity.INFO):
        if rules is None:
            rules = [cls() for cls in all_rule_classes()]
        self.rules: List[LintRule] = list(rules)
        if packs is not None:
            wanted = {p.strip().lower() for p in packs}
            self.rules = [r for r in self.rules
                          if r.pack.lower() in wanted]
        disable = list(disable)
        if disable:
            self.rules = [r for r in self.rules
                          if not any(_matches(r, tok) for tok in disable)]
        self.severity_overrides: Dict[str, Severity] = {}
        for key, value in (severity_overrides or {}).items():
            self.severity_overrides[key] = Severity.parse(value)
        self.min_severity = min_severity

    # ------------------------------------------------------------------
    def _override_for(self, rule: LintRule) -> Optional[Severity]:
        for key, severity in self.severity_overrides.items():
            if _matches(rule, key):
                return severity
        return None

    def run(self, ctx: LintContext) -> LintReport:
        """Run every selected rule; never raises from a rule body."""
        found: List[Diagnostic] = []
        for rule in self.rules:
            override = self._override_for(rule)
            try:
                produced = list(rule.check(ctx))
            except Exception as exc:  # pragma: no cover - defensive
                found.append(Diagnostic(
                    rule=RULE_CRASH_ID, severity=Severity.ERROR,
                    message=(f"rule {rule.full_id} crashed: "
                             f"{type(exc).__name__}: {exc}"),
                    location=Location("lint", ctx.design_name,
                                      rule.full_id)))
                continue
            for diagnostic in produced:
                if override is not None:
                    diagnostic = Diagnostic(
                        rule=diagnostic.rule, severity=override,
                        message=diagnostic.message,
                        location=diagnostic.location,
                        hint=diagnostic.hint)
                if diagnostic.severity.rank <= self.min_severity.rank:
                    found.append(diagnostic)
        return LintReport(found, rules_checked=len(self.rules))


class PreflightError(ValueError):
    """Raised by :func:`preflight` on error-severity lint findings."""

    def __init__(self, report: LintReport, what: str = "design"):
        self.report = report
        problems = "; ".join(d.format() for d in report.errors)
        super().__init__(
            f"lint preflight failed for {what}: {problems}")


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------
def lint_netlist(netlist, tech=None, **runner_kwargs) -> LintReport:
    """Lint a flat netlist (extraction attempted automatically)."""
    ctx = LintContext.from_netlist(netlist, tech=tech)
    return LintRunner(**runner_kwargs).run(ctx)


def lint_stage(stage, tech=None, options=None,
               **runner_kwargs) -> LintReport:
    """Lint a single logic stage."""
    ctx = LintContext.from_stage(stage, tech=tech, options=options)
    return LintRunner(**runner_kwargs).run(ctx)


def lint_code(root: Optional[str] = None, **runner_kwargs) -> LintReport:
    """Run the code-level rule pack over a source tree.

    Args:
        root: directory to scan; defaults to the installed ``repro``
            package sources.  The report is *unbaselined* — apply a
            :class:`repro.lint.baseline.Baseline` for gating.
    """
    from repro.lint.code_context import CodeContext, default_scan_root

    code = CodeContext.from_tree(root or default_scan_root())
    ctx = LintContext.from_code(code)
    # The solver pack rides along for its code-context rules (SOL006
    # hot-loop instrumentation); its option/stage rules no-op here
    # because a pure code context carries neither.
    runner_kwargs.setdefault("packs", ["code", "solver"])
    return LintRunner(**runner_kwargs).run(ctx)


def preflight(ctx: LintContext, what: str = "design",
              packs: Optional[Iterable[str]] = None) -> LintReport:
    """Run error-severity rules over a context; raise on any error.

    The check a caller runs before burning solver time, e.g.
    ``preflight(LintContext.from_stage(stage, tech=tech,
    options=options), packs=("erc", "solver"))`` before evaluating a
    stage.

    Raises:
        PreflightError: when any error-severity diagnostic is found.
    """
    runner = LintRunner(packs=packs, min_severity=Severity.ERROR)
    report = runner.run(ctx)
    if not report.ok:
        raise PreflightError(report, what=what)
    return report
