"""Tests for device characterization (sweep + curve fitting)."""

import numpy as np
import pytest

from repro.devices import CMOSP35, characterize_device, nmos_model, pmos_model
from repro.devices.characterize import FittedIV, fit_iv_curve

TECH = CMOSP35


class TestFitIVCurve:
    def test_fits_exact_quadratic_and_linear(self):
        vdsat = 1.0
        vds = np.linspace(0.0, 3.3, 40)

        def true_current(v):
            if v <= vdsat:
                return -2.0 * v * v + 5.0 * v + 0.1
            return 0.5 * v + 2.6  # continuous-ish linear tail

        ids = [true_current(v) for v in vds]
        fit = fit_iv_curve(vds, ids, vth=0.5, vdsat=vdsat)
        assert fit.t2 == pytest.approx(-2.0, abs=1e-9)
        assert fit.t1 == pytest.approx(5.0, abs=1e-9)
        assert fit.t0 == pytest.approx(0.1, abs=1e-9)
        assert fit.s1 == pytest.approx(0.5, abs=1e-9)
        assert fit.s0 == pytest.approx(2.6, abs=1e-9)

    def test_stores_seven_parameters(self):
        fit = fit_iv_curve([0.0, 1.0, 2.0], [0.0, 1.0, 1.5],
                           vth=0.6, vdsat=1.2)
        assert fit.vth == 0.6
        assert fit.vdsat == 1.2
        # slope/current evaluable on both sides
        assert fit.current(0.5) is not None
        assert fit.slope(2.0) == fit.s1

    def test_degenerate_off_device(self):
        fit = fit_iv_curve([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0],
                           vth=0.55, vdsat=0.0)
        assert fit.current(1.5) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_mismatched_samples(self):
        with pytest.raises(ValueError):
            fit_iv_curve([0.0, 1.0], [0.0], vth=0.5, vdsat=0.5)

    def test_no_saturation_extrapolates_triode_tangent(self):
        # vdsat beyond the sweep: linear fit must continue the quadratic.
        vds = np.linspace(0.0, 1.0, 20)
        ids = 3.0 * vds - 0.5 * vds ** 2
        fit = fit_iv_curve(vds, ids, vth=0.5, vdsat=5.0)
        v_end = 1.0
        tangent_slope = 3.0 - 1.0 * v_end
        assert fit.s1 == pytest.approx(tangent_slope, rel=1e-6)


class TestCharacterizationGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        return characterize_device(nmos_model(TECH), TECH, grid_step=0.3,
                                   vds_step=0.1)

    def test_grid_axes_cover_supply(self, grid):
        assert grid.vs_values[0] == 0.0
        assert grid.vs_values[-1] == pytest.approx(TECH.vdd, abs=0.31)
        assert grid.vg_values.shape == grid.vs_values.shape

    def test_seven_parameters_per_point(self, grid):
        n_points = grid.vs_values.size * grid.vg_values.size
        assert grid.n_parameters == 7 * n_points

    def test_threshold_plane_tracks_body_effect(self, grid):
        # vth grows along the vs axis.
        col = [row[-1][5] for row in grid.table]
        assert col[-1] > col[0]

    def test_fit_matches_golden_on_grid(self, grid):
        model = nmos_model(TECH)
        ion = model.ids(grid.w_ref, grid.l_ref, TECH.vdd, TECH.vdd, 0.0)
        # Probe several grid points at several vds values.
        rng = np.random.default_rng(0)
        for _ in range(30):
            i = rng.integers(0, grid.vs_values.size)
            j = rng.integers(0, grid.vg_values.size)
            vs = float(grid.vs_values[i])
            vg = float(grid.vg_values[j])
            vds = float(rng.uniform(0.0, max(TECH.vdd - vs, 0.1)))
            fitted = FittedIV(*grid.table[i][j]).current(vds)
            golden = model.ids(grid.w_ref, grid.l_ref, vg, vs + vds, vs)
            assert fitted == pytest.approx(golden, abs=0.02 * ion)

    def test_pmos_grid_is_positive_in_conduction_frame(self):
        grid = characterize_device(pmos_model(TECH), TECH, grid_step=0.8,
                                   vds_step=0.2)
        # Fully-on frame point: vs=0, vg=vdd-ish -> strong current.
        fit = FittedIV(*grid.table[0][-1])
        assert fit.current(2.0) > 1e-5

    def test_table_is_rows_of_seven_floats(self, grid):
        # One stored form: plain float rows, no per-point objects.
        assert len(grid.table) == grid.vs_values.size
        for row in grid.table:
            assert type(row) is list and len(row) == grid.vg_values.size
            for point in row:
                assert type(point) is list and len(point) == 7
                assert all(type(x) is float for x in point)

    def test_shape_mismatch_rejected(self):
        from repro.devices.characterize import CharacterizationGrid

        with pytest.raises(ValueError):
            CharacterizationGrid(
                polarity="n", w_ref=1e-6, l_ref=TECH.lmin, vdd=3.3,
                vs_values=np.array([0.0, 1.0]),
                vg_values=np.array([0.0, 1.0]),
                table=[[None]])

    @pytest.mark.parametrize("vs_values", [
        [0.0, 1.0, 3.0], [1.0, 0.0], [0.0],
    ], ids=["uneven", "descending", "one-point"])
    def test_axis_without_fixed_pitch_rejected(self, vs_values):
        # The query finds its cell by one division by the pitch.
        from repro.devices.characterize import CharacterizationGrid

        with pytest.raises(ValueError, match="fixed pitch"):
            CharacterizationGrid(
                polarity="n", w_ref=1e-6, l_ref=TECH.lmin, vdd=3.3,
                vs_values=np.array(vs_values),
                vg_values=np.array([0.0, 1.0]),
                table=np.zeros((len(vs_values), 2, 7)))


def _scalar_sweep_grid(model, tech, grid_step=0.1, vds_step=0.05):
    """Oracle: the per-point sweep, one golden call per Vd sample and one
    :func:`fit_iv_curve` (two ``np.polyfit`` calls) per grid point.

    Returns the ``(n, n, 7)`` parameter table and, per point, the Vd
    samples and the currents they were fitted to.
    """
    w, l, vdd = 2.0 * tech.wmin, tech.lmin, tech.vdd
    axis = np.round(np.arange(0.0, vdd + 0.5 * grid_step, grid_step), 9)
    rows, samples = [], []
    for vs_f in axis:
        vds_max = max(vdd - vs_f, grid_step)
        base = np.arange(0.0, vds_max + 0.5 * vds_step, vds_step)
        row, row_samples = [], []
        for vg_f in axis:
            if model.polarity == "n":
                vth = model.threshold(float(vs_f))
                vdsat = model.vdsat(w, l, float(vg_f),
                                    v_src=float(vs_f) + max(vdd - vs_f, 0.1),
                                    v_snk=float(vs_f))
            else:
                vth = model.threshold(vdd - float(vs_f))
                vd_probe = float(vs_f) + max(vdd - vs_f, 0.1)
                vdsat = model.vdsat(w, l, vdd - float(vg_f),
                                    v_src=vdd - vd_probe,
                                    v_snk=vdd - float(vs_f))
            vds_samples = np.unique(
                np.clip(np.append(base, [vdsat, min(vdsat * 0.5, vds_max)]),
                        0.0, vds_max))
            ids = []
            for vds in vds_samples:
                vd_f = float(vs_f + vds)
                if model.polarity == "n":
                    ids.append(model.ids(w, l, float(vg_f), v_src=vd_f,
                                         v_snk=float(vs_f)))
                else:
                    ids.append(model.ids(w, l, vdd - float(vg_f),
                                         v_src=vdd - float(vs_f),
                                         v_snk=vdd - vd_f))
            fit = fit_iv_curve(vds_samples, ids, vth, vdsat)
            row.append([fit.s1, fit.s0, fit.t2, fit.t1, fit.t0, fit.vth,
                        fit.vdsat])
            row_samples.append((vds_samples, np.array(ids)))
        rows.append(row)
        samples.append(row_samples)
    return np.array(rows), samples


#: Sweeps the batched fit is checked on, with the largest deviation from
#: per-point polyfit allowed, relative to each point's largest current.
#: Rounding alone separates the two: at most 6e-14 on every sweep here.
#: A 1 V Vd pitch leaves fits through three samples, two of them as
#: little as 1e-5 V apart; how far two least-squares solvers may drift
#: apart on such ill-conditioned fits depends on the solver, so that
#: sweep gets a looser bound.
SWEEPS = [
    pytest.param({}, 1e-12, id="default"),
    pytest.param({"grid_step": 0.3}, 1e-12, id="grid_step=0.3"),
    pytest.param({"vds_step": 1.0}, 1e-7, id="vds_step=1.0"),
]


@pytest.mark.parametrize("sweep,tolerance", SWEEPS)
@pytest.mark.parametrize("polarity", ["n", "p"])
def test_batched_fit_matches_per_point_polyfit(library, polarity, sweep,
                                               tolerance):
    """The batched sweep and fit reproduce the per-point oracle."""
    model = library.golden(polarity)
    grid = (characterize_device(model, TECH, **sweep) if sweep
            else library.get(polarity).grid)
    got = np.array(grid.table)
    expected, samples = _scalar_sweep_grid(model, TECH, **sweep)
    assert got.shape == expected.shape
    # vth and vdsat come from array twins of the scalar calls.
    assert got[..., 5:].tobytes() == expected[..., 5:].tobytes()
    worst = 0.0
    for i, row in enumerate(samples):
        for j, (vds_samples, ids) in enumerate(row):
            fit, ref = FittedIV(*got[i, j]), FittedIV(*expected[i, j])
            scale = np.abs(ids).max()
            for vds in vds_samples:
                worst = max(worst,
                            abs(fit.current(vds) - ref.current(vds)) / scale,
                            abs(fit.slope(vds) - ref.slope(vds)) / scale)
    assert worst <= tolerance


def test_coarse_sweep_reaches_every_saturation_branch():
    """A 1 V Vd pitch drives points through fit_iv_curve's 0- and
    1-sample saturation branches as well as the batched >= 2 case."""
    _, samples = _scalar_sweep_grid(nmos_model(TECH), TECH, vds_step=1.0)
    grid = characterize_device(nmos_model(TECH), TECH, vds_step=1.0)
    counts = [min(int(np.sum(vds_samples > point[6])), 2)
              for row, points in zip(samples, grid.table)
              for (vds_samples, _), point in zip(row, points)]
    assert all(counts.count(branch) > 0 for branch in (0, 1, 2))
