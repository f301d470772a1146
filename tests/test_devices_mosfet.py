"""Tests for the golden analytic MOSFET model."""

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
