"""The object bundle a lint run inspects.

A :class:`LintContext` aggregates whatever pre-simulation artifacts are
available — a flat netlist, extracted logic stages, characterized device
tables, solver options, RC trees, coupling capacitors — and every rule
checks only the parts that are present.  This keeps one runner usable
from the CLI (netlist-centric), from ``validate_stage`` (one stage) and
from a check before a solve (:func:`repro.lint.preflight` on a stage
and its solver options).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class CouplingCap:
    """A victim-aggressor coupling capacitor (not part of FlatNetlist).

    Attributes:
        name: capacitor name.
        net_a: first terminal net.
        net_b: second terminal net.
        cap: capacitance [F].
    """

    name: str
    net_a: str
    net_b: str
    cap: float


@dataclass
class LintContext:
    """Everything a lint run may inspect.  All fields are optional.

    Attributes:
        netlist: a flat :class:`~repro.circuit.stage.FlatNetlist`.
        stages: extracted / hand-built logic stages.
        graph: the :class:`~repro.circuit.stage.StageGraph` when stage
            extraction succeeded.
        extraction_error: message of a failed stage extraction (the
            runner surfaces it as a diagnostic instead of crashing).
        tech: the :class:`~repro.devices.technology.Technology`.
        tables: characterized table device models to lint.
        corners: corner name -> derived Technology (corner-library
            consistency checks).
        options: QWM solver options (duck-typed; anything exposing the
            ``QWMOptions`` attributes works).
        grid_step: characterization grid pitch hint [V] used by the
            stack-depth preflight when no tables are attached.
        rc_trees: interconnect RC trees to lint.
        coupling_caps: coupling capacitors to lint.
        code: a :class:`~repro.lint.code_context.CodeContext` when the
            run inspects the repo's own sources (the ``code`` rule
            pack); netlist rules ignore it and code rules no-op when it
            is absent, so one runner serves both kinds of run.
        design_name: label used in diagnostic locations.
    """

    netlist: Optional[Any] = None
    stages: List[Any] = field(default_factory=list)
    graph: Optional[Any] = None
    extraction_error: Optional[str] = None
    tech: Optional[Any] = None
    tables: List[Any] = field(default_factory=list)
    corners: Dict[str, Any] = field(default_factory=dict)
    options: Optional[Any] = None
    grid_step: Optional[float] = None
    rc_trees: List[Any] = field(default_factory=list)
    coupling_caps: List[CouplingCap] = field(default_factory=list)
    code: Optional[Any] = None
    design_name: str = "design"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_netlist(cls, netlist: Any, tech: Optional[Any] = None,
                     extract: bool = True,
                     options: Optional[Any] = None,
                     grid_step: Optional[float] = None) -> "LintContext":
        """Build a context around a flat netlist.

        Stage extraction is attempted (it is itself a structural check);
        a failure is recorded in :attr:`extraction_error` rather than
        raised, so netlist-level rules still run.
        """
        ctx = cls(netlist=netlist, tech=tech, options=options,
                  grid_step=grid_step,
                  design_name=getattr(netlist, "name", "design"))
        if extract:
            from repro.circuit.stage import extract_stages

            try:
                ctx.graph = extract_stages(netlist, tech=tech)
                ctx.stages = list(ctx.graph.stages)
            except (ValueError, KeyError, RecursionError) as exc:
                ctx.extraction_error = str(exc)
        return ctx

    @classmethod
    def from_stage(cls, stage: Any, tech: Optional[Any] = None,
                   options: Optional[Any] = None) -> "LintContext":
        """Build a context around a single logic stage."""
        return cls(stages=[stage], tech=tech, options=options,
                   design_name=getattr(stage, "name", "stage"))

    @classmethod
    def from_code(cls, code: Any) -> "LintContext":
        """Build a context around a source-tree ``CodeContext``."""
        import os

        root = getattr(code, "root", "<memory>")
        return cls(code=code,
                   design_name=os.path.basename(root) or root)
