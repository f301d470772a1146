"""Tests for the golden analytic MOSFET model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CMOSP35, nmos_model, pmos_model

TECH = CMOSP35
W, L = 1e-6, TECH.lmin


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestNmosRegions:
    def test_off_device_conducts_almost_nothing(self, nmos):
        ion = nmos.ids(W, L, TECH.vdd, TECH.vdd, 0.0)
        ioff = nmos.ids(W, L, 0.0, TECH.vdd, 0.0)
        assert abs(ioff) < 1e-6 * ion

    def test_on_current_magnitude_is_plausible(self, nmos):
        # ~0.5-1.0 mA for a 1um device in a 0.35um 3.3V process.
        ion = nmos.ids(W, L, TECH.vdd, TECH.vdd, 0.0)
        assert 2e-4 < ion < 2e-3

    def test_zero_vds_zero_current(self, nmos):
        assert nmos.ids(W, L, TECH.vdd, 1.5, 1.5) == pytest.approx(0.0)

    def test_current_monotone_in_vds(self, nmos):
        vds = np.linspace(0.0, TECH.vdd, 40)
        ids = [nmos.ids(W, L, TECH.vdd, v, 0.0) for v in vds]
        assert all(b >= a - 1e-15 for a, b in zip(ids, ids[1:]))

    def test_current_monotone_in_vgs(self, nmos):
        vgs = np.linspace(0.0, TECH.vdd, 40)
        ids = [nmos.ids(W, L, v, 2.0, 0.0) for v in vgs]
        assert all(b >= a - 1e-15 for a, b in zip(ids, ids[1:]))

    def test_saturation_flag(self, nmos):
        op_sat = nmos.evaluate(W, L, 2.0, 3.3, 0.0)
        op_tri = nmos.evaluate(W, L, 3.3, 0.2, 0.0)
        assert op_sat.saturated
        assert not op_tri.saturated

    def test_continuity_at_vdsat(self, nmos):
        op = nmos.evaluate(W, L, 2.5, 3.3, 0.0)
        vdsat = op.vdsat
        below = nmos.ids(W, L, 2.5, vdsat - 1e-6, 0.0)
        above = nmos.ids(W, L, 2.5, vdsat + 1e-6, 0.0)
        assert above == pytest.approx(below, rel=1e-4)

    def test_channel_length_modulation_positive_slope(self, nmos):
        i1 = nmos.ids(W, L, 2.0, 2.5, 0.0)
        i2 = nmos.ids(W, L, 2.0, 3.3, 0.0)
        assert i2 > i1


class TestSymmetryAndBodyEffect:
    def test_source_drain_swap_negates_current(self, nmos):
        fwd = nmos.ids(W, L, 2.5, 2.0, 0.5)
        rev = nmos.ids(W, L, 2.5, 0.5, 2.0)
        assert rev == pytest.approx(-fwd, rel=1e-12)

    def test_body_effect_raises_threshold(self, nmos):
        assert nmos.threshold(2.0) > nmos.threshold(0.0)
        assert nmos.threshold(0.0) == pytest.approx(TECH.nmos.vth0)

    def test_body_effect_reduces_current(self, nmos):
        low_vsb = nmos.ids(W, L, 3.3, 1.0, 0.0)
        # Same vgs/vds but shifted up: vsb = 1 V.
        high_vsb = nmos.ids(W, L, 3.3 + 1.0, 2.0, 1.0)
        assert high_vsb < low_vsb

    def test_width_scaling_is_linear(self, nmos):
        i1 = nmos.ids(1e-6, L, 2.5, 3.0, 0.0)
        i2 = nmos.ids(2e-6, L, 2.5, 3.0, 0.0)
        assert i2 == pytest.approx(2.0 * i1, rel=1e-12)

    def test_rejects_bad_geometry(self, nmos):
        with pytest.raises(ValueError):
            nmos.ids(-1e-6, L, 1.0, 1.0, 0.0)


class TestPmos:
    def test_on_when_gate_low(self, pmos):
        ion = pmos.ids(W, L, 0.0, TECH.vdd, 0.0)
        ioff = pmos.ids(W, L, TECH.vdd, TECH.vdd, 0.0)
        assert ion > 1e-4
        assert abs(ioff) < 1e-6 * ion

    def test_weaker_than_nmos(self, nmos, pmos):
        i_n = nmos.ids(W, L, TECH.vdd, TECH.vdd, 0.0)
        i_p = pmos.ids(W, L, 0.0, TECH.vdd, 0.0)
        assert i_p < i_n

    def test_swap_negates(self, pmos):
        fwd = pmos.ids(W, L, 0.5, 3.0, 1.0)
        rev = pmos.ids(W, L, 0.5, 1.0, 3.0)
        assert rev == pytest.approx(-fwd, rel=1e-12)

    def test_threshold_magnitude(self, pmos):
        assert pmos.threshold(TECH.vdd) == pytest.approx(TECH.pmos.vth0)


class TestDerivatives:
    # Points avoid the vsb = 0 clamp boundary, where the model is
    # continuous but one-sidedly differentiable (FD cannot match there).
    @pytest.mark.parametrize("vg,va,vb", [
        (2.0, 1.5, 0.4), (2.5, 0.7, 1.9), (3.3, 3.3, 0.1),
        (1.0, 2.0, 1.9), (0.3, 3.0, 0.1),
    ])
    def test_nmos_derivatives_match_fd(self, nmos, vg, va, vb):
        op = nmos.evaluate(W, L, vg, va, vb)
        assert op.g_gate == pytest.approx(
            fd(lambda x: nmos.ids(W, L, x, va, vb), vg), abs=1e-9)
        assert op.g_src == pytest.approx(
            fd(lambda x: nmos.ids(W, L, vg, x, vb), va), abs=1e-9)
        assert op.g_snk == pytest.approx(
            fd(lambda x: nmos.ids(W, L, vg, va, x), vb), abs=1e-9)

    @pytest.mark.parametrize("vg,va,vb", [
        (1.0, 3.0, 1.5), (0.0, 3.2, 0.1), (2.0, 1.0, 2.5),
    ])
    def test_pmos_derivatives_match_fd(self, pmos, vg, va, vb):
        op = pmos.evaluate(W, L, vg, va, vb)
        assert op.g_gate == pytest.approx(
            fd(lambda x: pmos.ids(W, L, x, va, vb), vg), abs=1e-9)
        assert op.g_src == pytest.approx(
            fd(lambda x: pmos.ids(W, L, vg, x, vb), va), abs=1e-9)
        assert op.g_snk == pytest.approx(
            fd(lambda x: pmos.ids(W, L, vg, va, x), vb), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(vg=st.floats(0.0, 3.3), va=st.floats(0.01, 3.3),
           vb=st.floats(0.01, 3.3))
    def test_derivative_property_nmos(self, nmos, vg, va, vb):
        # Skip points where the FD stencil straddles a (continuous but
        # one-sidedly differentiable) boundary: terminal swap or the
        # vsb = 0 clamp.
        if abs(va - vb) < 1e-4 or min(va, vb) < 5e-3:
            return
        op = nmos.evaluate(W, L, vg, va, vb)
        approx = fd(lambda x: nmos.ids(W, L, vg, x, vb), va)
        assert op.g_src == pytest.approx(approx, abs=2e-8)

    def test_invalid_polarity_rejected(self):
        from repro.devices.mosfet import MosfetModel

        with pytest.raises(ValueError):
            MosfetModel(polarity="x", params=TECH.nmos, lref=TECH.lmin,
                        v_bulk=0.0)


def _bias_points(model):
    """Node voltages (gate, src, snk) covering every current branch.

    Built in the NMOS frame and mirrored about vdd for PMOS: cutoff,
    triode, saturation, vds = 0, vds exactly at vdsat (vsb = 0, so
    vds = v_src - 0 is exact) and the same biases with the terminals
    swapped.
    """
    vdd = TECH.vdd
    n_model = nmos_model(TECH)
    vdsat = n_model.vdsat(W, L, 2.5, v_src=vdd, v_snk=0.0)
    forward = [
        (0.2, 2.0, 0.0),      # cutoff
        (3.3, 0.3, 0.0),      # triode
        (3.3, 3.3, 0.0),      # saturation
        (2.0, 1.1, 0.6),      # saturation with body effect
        (3.3, 1.5, 1.5),      # vds = 0
        (2.5, vdsat, 0.0),    # vds = vdsat
    ]
    points = forward + [(g, b, a) for g, a, b in forward]
    if model.polarity == "p":
        points = [tuple(vdd - v for v in p) for p in points]
    return np.array(points)


@pytest.mark.parametrize("polarity", ["n", "p"])
def test_ids_array_bit_identical_to_scalar(polarity):
    model = nmos_model(TECH) if polarity == "n" else pmos_model(TECH)
    gate, src, snk = _bias_points(model).T
    scalar = np.array([model.ids(W, L, g, a, b)
                       for g, a, b in zip(gate, src, snk)])
    array = model.ids_array(W, L, gate, src, snk)
    assert array.tobytes() == scalar.tobytes()
    # The cases really cover both branches and both orientations.
    ops = [model.evaluate(W, L, g, a, b) for g, a, b in zip(gate, src, snk)]
    assert {op.saturated for op in ops} == {True, False}
    assert {op.swapped for op in ops} == {True, False}


def test_ids_array_rejects_bad_geometry(nmos):
    with pytest.raises(ValueError):
        nmos.ids_array(0.0, L, 1.0, np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize("polarity", ["n", "p"])
def test_vdsat_array_bit_identical_to_scalar(polarity):
    model = nmos_model(TECH) if polarity == "n" else pmos_model(TECH)
    gate, src, snk = _bias_points(model).T
    scalar = np.array([model.vdsat(W, L, g, a, b)
                       for g, a, b in zip(gate, src, snk)])
    array = model.vdsat_array(W, L, gate, src, snk)
    assert array.tobytes() == scalar.tobytes()


def test_vdsat_array_rejects_bad_geometry(nmos):
    with pytest.raises(ValueError):
        nmos.vdsat_array(W, 0.0, 1.0, np.array([1.0]), np.array([0.0]))


#: (polarity, case) -> ((w, l, v_gate, v_src, v_snk), the eight
#: :class:`MosOperatingPoint` fields), recorded while ``evaluate`` built
#: its record field by field.  ``_forward`` uses only ``+ - * /`` and
#: ``math.sqrt``, all correctly rounded, so these hold on any IEEE host.
PINNED_POINTS = {
    ("n", "cutoff"): (
        (1e-06, 3.5e-07, 0.2, 3.3, 0.0),
        (2.4404168037597553e-11, 1.392110767400615e-10,
         1.2222454776760044e-12, -1.404333222177375e-10, 0.55,
         0.0002854523284983479, True, False)),
    ("n", "triode"): (
        (1e-06, 3.5e-07, 3.3, 0.2, 0.0),
        (0.0002346607199574226, 8.854882913735634e-05,
         0.0009962783407202903, -0.0010848271698576466, 0.55,
         1.7080704330557726, False, False)),
    ("n", "saturation"): (
        (1e-06, 3.5e-07, 2.0, 3.3, 0.0),
        (0.0003324720131289406, 0.0003600875674583993,
         1.6651352911299197e-05, -0.00037673892036969853, 0.55,
         1.0536081786350244, True, False)),
    ("n", "vds0"): (
        (1e-06, 3.5e-07, 3.3, 1.5, 1.5),
        (0.0, 0.0, 0.00043754903189702774, -0.00043754903189702774,
         0.9250162091133332, 0.7000653748451153, False, False)),
    ("n", "swapped"): (
        (1e-06, 3.5e-07, 2.5, 0.5, 2.0),
        (-0.0002545067082601959, -0.00031158259568304523,
         0.0004080782004114486, -1.4009543573955738e-05,
         0.7000953513162289, 0.9664210115664131, True, True)),
    ("n", "vsb"): (
        (2e-06, 7e-07, 3.3, 3.3, 1.0),
        (0.000394743677017334, 0.00045296225480459155,
         1.1077932937811056e-05, -0.0005647879830467028,
         0.8209646636137434, 1.2153426368894797, True, False)),
    ("p", "cutoff"): (
        (2e-06, 3.5e-07, 3.3, 3.3, 0.0),
        (5.393738662568665e-12, -1.6588025401298443e-11,
         1.6993569661641952e-11, -4.055442603435087e-13, 0.65,
         0.00015380750475829652, True, True)),
    ("p", "triode"): (
        (2e-06, 3.5e-07, 0.0, 3.3, 3.1),
        (0.00017181171677182772, -6.737518739748304e-05,
         0.0008780648981739429, -0.0008106897107764599, 0.65,
         2.19230449664437, False, True)),
    ("p", "saturation"): (
        (2e-06, 3.5e-07, 1.3, 0.0, 3.3),
        (-0.0003341000280646978, 0.00044854280021474545,
         2.5120302862007354e-05, -0.0004736631030767528, 0.65,
         1.2105168318878352, True, False)),
    ("p", "vds0"): (
        (2e-06, 3.5e-07, 0.0, 1.5, 1.5),
        (-0.0, 0.0, 0.0001893906892313287, -0.0001893906892313287,
         0.9477915214200456, 0.5260358255216395, False, False)),
    ("p", "swapped"): (
        (2e-06, 3.5e-07, 0.0, 3.3, 0.3),
        (0.0010710957784815882, -0.0006892918015891573,
         0.0007716837845492795, -8.239198296012217e-05, 0.65,
         2.19230449664437, True, True)),
    ("p", "vsb"): (
        (4e-06, 7e-07, 0.0, 0.5, 2.0),
        (-0.00020904186096004618, 0.00035636865257500204,
         9.722877253955638e-06, -0.00041648966799657703,
         0.8810214143356078, 1.0650519609991607, True, False)),
}


@pytest.mark.parametrize("polarity,case", sorted(PINNED_POINTS))
def test_evaluate_is_pinned(polarity, case):
    model = nmos_model(TECH) if polarity == "n" else pmos_model(TECH)
    bias, expected = PINNED_POINTS[(polarity, case)]
    fields = dataclasses.astuple(model.evaluate(*bias))
    # repr round-trips a float exactly and keeps the sign of zero.
    assert repr(fields) == repr(expected)
    assert model.evaluate_fields(*bias) == fields
    assert model.ids(*bias) == fields[0]
    assert model.vdsat(*bias) == fields[5]


@pytest.mark.parametrize("polarity", ["n", "p"])
def test_pinned_points_cover_every_branch(polarity):
    flags = [fields[6:] for (pol, _), (_, fields) in PINNED_POINTS.items()
             if pol == polarity]
    assert {saturated for saturated, _ in flags} == {True, False}
    assert {swapped for _, swapped in flags} == {True, False}
