"""Model rule pack: characterized device-table sanity.

QWM trusts the tabular I/V model blindly inside its Newton solves; a
non-finite fit parameter or a non-monotone current slice turns into a
cryptic ``NewtonConvergenceError`` regions deep into the cascade.
These rules inspect :class:`~repro.devices.table_model.TableDeviceModel`
instances (``ctx.tables``) and the corner library (``ctx.corners``)
before any solve.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, List, Tuple

import numpy as np

from repro.devices.characterize import point_iv
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.lint.runner import LintRule, register

#: Currents more negative than this are flagged as non-physical [A].
NEGATIVE_CURRENT_TOL = -1e-8
#: Fractional back-slide (vs the slice maximum) tolerated before a
#: slice counts as non-monotone; least-squares fits wiggle a little at
#: the triode/saturation boundary.
MONOTONE_TOL = 0.02


def _table_name(table: Any) -> str:
    grid = table.grid
    return f"{grid.polarity}mos-L{grid.l_ref * 1e9:.0f}n"


def _table_loc(table: Any, element: str = None) -> Location:
    return Location("table", _table_name(table), element)


@register
class NonFiniteTableRule(LintRule):
    """NaN/Inf anywhere in a characterized table."""

    rule_id = "MOD001"
    slug = "nonfinite-table"
    pack = "model"
    default_severity = Severity.ERROR
    description = "All stored table parameters must be finite."

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for table in ctx.tables:
            finite = np.isfinite(np.asarray(table.grid.table, dtype=float))
            bad: List[str] = []
            if not finite[..., 5].all():
                bad.append("vth plane")
            if not finite[..., 6].all():
                bad.append("vdsat plane")
            broken_fits = int((~finite.all(axis=-1)).sum())
            if broken_fits:
                bad.append(f"{broken_fits} fit entr"
                           f"{'y' if broken_fits == 1 else 'ies'}")
            if bad:
                yield self.diag(
                    "table contains non-finite parameters: "
                    + ", ".join(bad),
                    _table_loc(table),
                    hint="re-characterize the device; inspect the "
                         "golden model for the offending bias points")


@register
class NonMonotoneIVRule(LintRule):
    """I/V slices that decrease with vds or go negative."""

    rule_id = "MOD002"
    slug = "nonmonotone-iv"
    pack = "model"
    default_severity = Severity.WARNING
    description = ("Forward channel current must be non-negative and "
                   "non-decreasing in vds at every (Vs, Vg) point.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for table in ctx.tables:
            grid = table.grid
            offenders: List[Tuple[float, float, str]] = []
            vdd = grid.vdd
            for i, vs in enumerate(grid.vs_values):
                vds_max = max(vdd - float(vs), 0.1)
                samples = np.linspace(0.0, vds_max, 9)
                for j, vg in enumerate(grid.vg_values):
                    row = grid.table[i][j]
                    currents = np.array(
                        [point_iv(row, float(v))[0] for v in samples])
                    peak = float(np.max(np.abs(currents)))
                    if float(np.min(currents)) < min(
                            NEGATIVE_CURRENT_TOL,
                            -MONOTONE_TOL * peak):
                        offenders.append((float(vs), float(vg),
                                          "negative current"))
                        continue
                    drop = float(np.max(currents[:-1] - currents[1:]))
                    if drop > MONOTONE_TOL * peak + 1e-9:
                        offenders.append((float(vs), float(vg),
                                          "non-monotone in vds"))
            if offenders:
                vs0, vg0, kind = offenders[0]
                yield self.diag(
                    f"{len(offenders)} of "
                    f"{grid.vs_values.size * grid.vg_values.size} "
                    f"(Vs, Vg) slices are ill-behaved; first: "
                    f"Vs={vs0:.2f} V, Vg={vg0:.2f} V ({kind})",
                    _table_loc(table, f"vs={vs0:.2f},vg={vg0:.2f}"),
                    hint="refine the vds sampling or the fit orders "
                         "for these bias points")


@register
class NonPositiveCapacitanceRule(LintRule):
    """Zero/negative device or node capacitances."""

    rule_id = "MOD003"
    slug = "nonpositive-capacitance"
    pack = "model"
    default_severity = Severity.ERROR
    description = ("Device capacitances must be positive and node "
                   "load capacitances non-negative; QWM divides by "
                   "node capacitance in every region.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for table in ctx.tables:
            grid = table.grid
            for label, value in (
                    ("inputcap", table.inputcap(grid.w_ref, grid.l_ref)),
                    ("srccap", table.srccap(grid.w_ref, grid.l_ref)),
                    ("snkcap", table.snkcap(grid.w_ref, grid.l_ref))):
                if not math.isfinite(value) or value <= 0:
                    yield self.diag(
                        f"{label} is {value:g} F at the reference "
                        "geometry (must be positive)",
                        _table_loc(table, label),
                        hint="check the technology's capacitance "
                             "parameters")
        for stage in ctx.stages:
            for node in stage.nodes:
                if not math.isfinite(node.load_cap) or node.load_cap < 0:
                    yield self.diag(
                        f"node {node.name!r} has load capacitance "
                        f"{node.load_cap:g} F (must be finite and "
                        "non-negative)",
                        Location("stage", stage.name, node.name),
                        hint="fix the load annotation on this node")


@register
class GridCoverageRule(LintRule):
    """Table grid does not cover the operating voltage range."""

    rule_id = "MOD004"
    slug = "grid-coverage"
    pack = "model"
    default_severity = Severity.WARNING
    description = ("The (Vs, Vg) grid must span [0, vdd]; queries "
                   "outside the grid are clipped, silently flattening "
                   "the I/V surface.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        tol = 1e-9
        for table in ctx.tables:
            grid = table.grid
            vdd = grid.vdd
            for label, axis in (("Vs", grid.vs_values),
                                ("Vg", grid.vg_values)):
                lo, hi = float(axis[0]), float(axis[-1])
                if lo > tol or hi < vdd - tol:
                    yield self.diag(
                        f"{label} axis covers [{lo:.2f}, {hi:.2f}] V "
                        f"but the stage operates on [0, {vdd:.2f}] V",
                        _table_loc(table, label),
                        hint="characterize over the full supply range")
            if ctx.tech is not None:
                tech_vdd = getattr(ctx.tech, "vdd", None)
                if tech_vdd is not None and abs(vdd - tech_vdd) > 1e-9:
                    yield self.diag(
                        f"table characterized at vdd={vdd:.2f} V but "
                        f"the technology supplies {tech_vdd:.2f} V",
                        _table_loc(table),
                        severity=Severity.ERROR,
                        hint="re-characterize at the operating supply")


@register
class CornerMismatchRule(LintRule):
    """Corner library inconsistent with the nominal technology."""

    rule_id = "MOD005"
    slug = "corner-mismatch"
    pack = "model"
    default_severity = Severity.WARNING
    description = ("Corner technologies must share supply/geometry "
                   "with nominal and keep physical device parameters.")

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.tech is None:
            return
        nominal = ctx.tech
        for name, tech_c in sorted(ctx.corners.items()):
            loc = Location("corner", name)
            if abs(tech_c.vdd - nominal.vdd) > 1e-9:
                yield self.diag(
                    f"corner vdd {tech_c.vdd:g} V differs from nominal "
                    f"{nominal.vdd:g} V",
                    loc, hint="corners skew devices, not supplies")
            if abs(tech_c.lmin - nominal.lmin) > 1e-15:
                yield self.diag(
                    f"corner lmin {tech_c.lmin:g} m differs from "
                    f"nominal {nominal.lmin:g} m",
                    loc, hint="corners must share the drawn geometry")
            for pol, params in (("nmos", tech_c.nmos),
                                ("pmos", tech_c.pmos)):
                if params.kp <= 0 or params.vth0 <= 0:
                    yield self.diag(
                        f"corner {pol} parameters are non-physical "
                        f"(kp={params.kp:g}, vth0={params.vth0:g})",
                        Location("corner", name, pol),
                        severity=Severity.ERROR,
                        hint="check the corner skew fractions")
