"""Model rule pack: table, capacitance, grid and corner checks."""

import copy
import dataclasses
import math

import numpy as np

from repro.circuit import builders
from repro.devices.corners import all_corners
from repro.lint import LintContext, LintRunner, Severity


def model_report(ctx):
    return LintRunner(packs=("model",)).run(ctx)


def test_characterized_library_is_clean(tech, library):
    ctx = LintContext(tech=tech,
                      tables=[library.get("n"), library.get("p")],
                      corners=all_corners(tech))
    report = model_report(ctx)
    assert report.ok
    assert len(report) == 0


def test_nonfinite_fit_parameter_is_an_error(library):
    table = copy.deepcopy(library.get("n"))
    table.grid.table[0][0][3] = math.nan  # t1
    report = model_report(LintContext(tables=[table]))
    bad = [d for d in report if d.rule == "MOD001-nonfinite-table"]
    assert bad and bad[0].severity is Severity.ERROR
    assert "1 fit entry" in bad[0].message


def test_nonfinite_vth_plane_is_an_error(library):
    table = copy.deepcopy(library.get("p"))
    table.grid.table[0][0][5] = np.inf  # vth
    report = model_report(LintContext(tables=[table]))
    bad = [d for d in report if d.rule == "MOD001-nonfinite-table"]
    assert bad and "vth plane" in bad[0].message


def test_nonmonotone_iv_slice_warns(library):
    table = copy.deepcopy(library.get("n"))
    point = table.grid.table[0][-1]
    # A strongly negative saturation slope makes the current fall with
    # vds across the whole slice.
    point[0] = -10.0 * abs(point[0]) - 1.0  # s1
    report = model_report(LintContext(tables=[table]))
    bad = [d for d in report if d.rule == "MOD002-nonmonotone-iv"]
    assert bad and bad[0].severity is Severity.WARNING


def test_negative_stage_load_cap_is_an_error(tech):
    stage = builders.nand_gate(tech, 2)
    stage.node("out").load_cap = -1e-15
    report = model_report(LintContext.from_stage(stage))
    bad = [d for d in report
           if d.rule == "MOD003-nonpositive-capacitance"]
    assert bad and bad[0].location.element == "out"


def test_grid_coverage_warns_on_truncated_axis(library):
    table = copy.deepcopy(library.get("n"))
    grid = table.grid
    keep = grid.vs_values < 0.7 * grid.vdd
    grid.vs_values = grid.vs_values[keep]
    grid.table = [row for row, k in zip(grid.table, keep) if k]
    report = model_report(LintContext(tables=[table]))
    bad = [d for d in report if d.rule == "MOD004-grid-coverage"]
    assert bad and bad[0].location.element == "Vs"


def test_grid_supply_mismatch_is_an_error(tech, library):
    table = copy.deepcopy(library.get("n"))
    table.grid.vdd = tech.vdd / 2
    report = model_report(LintContext(tech=tech, tables=[table]))
    mismatch = [d for d in report
                if d.rule == "MOD004-grid-coverage"
                and "technology supplies" in d.message]
    assert mismatch and mismatch[0].severity is Severity.ERROR


def test_corner_supply_mismatch_warns(tech):
    skewed = dataclasses.replace(tech, vdd=tech.vdd * 0.9)
    report = model_report(
        LintContext(tech=tech, corners={"weird": skewed}))
    bad = [d for d in report if d.rule == "MOD005-corner-mismatch"]
    assert bad and bad[0].location.container == "weird"
    assert bad[0].severity is Severity.WARNING


def test_nonphysical_corner_parameters_are_errors(tech):
    broken_nmos = dataclasses.replace(tech.nmos, vth0=-0.1)
    corner = dataclasses.replace(tech, nmos=broken_nmos)
    report = model_report(
        LintContext(tech=tech, corners={"bad": corner}))
    bad = [d for d in report
           if d.rule == "MOD005-corner-mismatch"
           and d.severity is Severity.ERROR]
    assert bad and bad[0].location.element == "nmos"
