"""Tests for the tabular device model (the QWM-side model)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CMOSP35, TableModelLibrary

TECH = CMOSP35
W, L = 1e-6, TECH.lmin


def fd(f, x, h=2e-4):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture(scope="module")
def ntab(library):
    return library.get("n")


@pytest.fixture(scope="module")
def ptab(library):
    return library.get("p")


class TestAccuracy:
    def test_matches_golden_within_two_percent(self, ntab, nmos):
        ion = nmos.ids(W, L, TECH.vdd, TECH.vdd, 0.0)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            vg, va, vb = rng.uniform(0.0, TECH.vdd, 3)
            err = abs(ntab.iv(W, L, vg, va, vb) - nmos.ids(W, L, vg, va, vb))
            worst = max(worst, err / ion)
        assert worst < 0.02

    def test_pmos_matches_golden(self, ptab, pmos):
        ion = abs(pmos.ids(W, L, 0.0, TECH.vdd, 0.0))
        rng = np.random.default_rng(8)
        for _ in range(200):
            vg, va, vb = rng.uniform(0.0, TECH.vdd, 3)
            err = abs(ptab.iv(W, L, vg, va, vb) - pmos.ids(W, L, vg, va, vb))
            assert err < 0.02 * ion

    def test_on_current_sign_nmos(self, ntab):
        assert ntab.iv(W, L, TECH.vdd, TECH.vdd, 0.0) > 1e-4
        assert ntab.iv(W, L, TECH.vdd, 0.0, TECH.vdd) < -1e-4

    def test_on_current_sign_pmos(self, ptab):
        assert ptab.iv(W, L, 0.0, TECH.vdd, 0.0) > 1e-5
        assert ptab.iv(W, L, 0.0, 0.0, TECH.vdd) < -1e-5

    def test_width_scaling(self, ntab):
        i1 = ntab.iv(1e-6, L, 2.5, 3.0, 0.0)
        i2 = ntab.iv(3e-6, L, 2.5, 3.0, 0.0)
        assert i2 == pytest.approx(3.0 * i1, rel=1e-12)

    def test_wrong_length_rejected(self, ntab):
        with pytest.raises(ValueError):
            ntab.iv(W, 2 * L, 2.0, 1.0, 0.0)


class TestDerivatives:
    # Points sit inside the characterization grid: at the grid edges the
    # model's one-sided derivative is correct but a centered FD stencil
    # straddles the clamp and reads half of it.
    @pytest.mark.parametrize("vg,va,vb", [
        (2.0, 1.5, 0.4), (3.25, 3.0, 0.2), (2.5, 0.7, 1.9), (1.2, 2.0, 1.0),
    ])
    def test_nmos_query_derivatives(self, ntab, vg, va, vb):
        q = ntab.iv_query(W, L, vg, va, vb)
        assert q.g_gate == pytest.approx(
            fd(lambda x: ntab.iv(W, L, x, va, vb), vg), abs=3e-5)
        assert q.g_src == pytest.approx(
            fd(lambda x: ntab.iv(W, L, vg, x, vb), va), abs=3e-5)
        assert q.g_snk == pytest.approx(
            fd(lambda x: ntab.iv(W, L, vg, va, x), vb), abs=3e-5)

    @pytest.mark.parametrize("vg,va,vb", [
        (1.0, 3.0, 1.5), (0.2, 3.25, 0.5), (1.5, 1.0, 2.8),
    ])
    def test_pmos_query_derivatives(self, ptab, vg, va, vb):
        q = ptab.iv_query(W, L, vg, va, vb)
        assert q.g_gate == pytest.approx(
            fd(lambda x: ptab.iv(W, L, x, va, vb), vg), abs=3e-5)
        assert q.g_src == pytest.approx(
            fd(lambda x: ptab.iv(W, L, vg, x, vb), va), abs=3e-5)
        assert q.g_snk == pytest.approx(
            fd(lambda x: ptab.iv(W, L, vg, va, x), vb), abs=3e-5)

    @settings(max_examples=40, deadline=None)
    @given(vg=st.floats(0.2, 3.1), va=st.floats(0.2, 3.1),
           vb=st.floats(0.2, 3.1))
    def test_swap_antisymmetry_property(self, ntab, vg, va, vb):
        # vds = 0 exactly is degenerate: the fitted intercept t0 (a sub-
        # microamp fitting residual) breaks the sign flip there.
        if abs(va - vb) < 1e-6:
            return
        fwd = ntab.iv(W, L, vg, va, vb)
        rev = ntab.iv(W, L, vg, vb, va)
        assert rev == pytest.approx(-fwd, rel=1e-9, abs=2e-8)


#: iv_query results recorded before the table became the model's only
#: store: (polarity, w, v_gate, v_src, v_snk, ids, g_gate, g_src, g_snk).
#: The points cover both polarities, both conduction directions, the
#: origin blend (|vds| < 50 mV), grid lines and biases clipped to the
#: grid.
PINNED_QUERIES = [
    # saturation, interior cell
    ("n", 1e-06, 2.5, 2.0, 0.5,
     0.0002545067082601959, 0.0003170890486985147,
     1.4009543573955733e-05, -0.00039718307692731354),
    # origin blend, forward
    ("n", 1e-06, 1.2, 0.53, 0.5,
     1.4797220156484747e-08, 1.4650085393364944e-07,
     4.932406718828245e-07, -6.402780674403102e-07),
    # origin blend, reversed
    ("n", 2e-06, 3.0, 0.7, 0.72,
     -3.310199578780575e-05, -2.7507008148082343e-05,
     0.0016888064635252715, -0.0016550997893902861),
    # source on a grid line
    ("n", 1e-06, 2.0, 1.0, 0.3,
     0.00017275412918572514, 0.00025337017953369135,
     3.2206361476983616e-05, -0.00035950942530446525),
    # clipped: gate above vdd, source below 0
    ("n", 1e-06, 3.6, 3.5, -0.2,
     0.0008912976566073364, 0.0004672537848301014,
     4.3762569064190015e-05, -0.0006662768904443484),
    # reversed, full swing
    ("n", 3e-06, 1.7, 0.4, 2.9,
     -0.00024015195176370742, -0.0006927628403829681,
     0.0007961335599392613, -1.2529667048541249e-05),
    # fully on
    ("p", 2e-06, 0.0, 3.3, 0.0,
     0.0010958133733696247, -0.0006971179136209988,
     0.0009382660863557344, -8.239198296012248e-05),
    # origin blend
    ("p", 2e-06, 0.8, 2.6, 2.57,
     1.021497499448439e-05, -1.0891572911959137e-05,
     0.00035322318644705246, -0.0003404991664828102),
    # reversed
    ("p", 2e-06, 1.0, 0.5, 2.8,
     -0.00019391886201105895, 0.00032900226336681653,
     1.576576113911048e-05, -0.00040086255916610853),
    # clipped: gate below 0, source above vdd
    ("p", 2e-06, -0.2, 3.5, 1.65,
     0.0009605831495119329, -0.000563802462996294,
     0.0008653028456516919, -0.00017242204693954913),
    # gate and source on grid lines
    ("p", 2e-06, 1.3, 3.0, 1.0,
     0.0001690455165221531, -0.00030507539137427373,
     0.0004156064857610931, -1.4087126376846097e-05),
    # near cut-off
    ("p", 2e-06, 2.9, 2.0, 1.0,
     5.944366564543557e-13, -6.151978888686314e-13,
     8.974235437316879e-13, -5.403969604130513e-14),
]


@pytest.mark.parametrize("pol,w,vg,va,vb,ids,g_gate,g_src,g_snk",
                         PINNED_QUERIES)
def test_iv_query_pinned(library, pol, w, vg, va, vb, ids, g_gate, g_src,
                         g_snk):
    q = library.get(pol).iv_query(w, L, vg, va, vb)
    assert (q.ids, q.g_gate, q.g_src, q.g_snk) == (ids, g_gate, g_src,
                                                    g_snk)


class TestThresholdAndCaps:
    def test_threshold_tracks_body_effect(self, ntab):
        low = ntab.threshold(TECH.vdd, 0.0, 0.0)
        high = ntab.threshold(TECH.vdd, 2.0, 2.0)
        assert high > low
        assert low == pytest.approx(TECH.nmos.vth0, abs=0.02)

    def test_pmos_threshold_magnitude(self, ptab):
        # PMOS source at vdd -> zero body bias -> vth0 magnitude.
        assert ptab.threshold(0.0, TECH.vdd, TECH.vdd) == pytest.approx(
            TECH.pmos.vth0, abs=0.02)

    def test_vdsat_positive_when_on(self, ntab):
        assert ntab.vdsat(TECH.vdd, 0.0, 3.3) > 0.1

    def test_cap_interfaces(self, ntab):
        assert ntab.srccap(W, L) > 0
        assert ntab.snkcap(W, L) > 0
        assert ntab.inputcap(W, L) > 0
        # Gate cap should exceed a single junction cap at this size.
        assert ntab.inputcap(W, L) > 0.2 * ntab.srccap(W, L)

    def test_query_counter_increments(self, ntab):
        before = ntab.query_count
        ntab.iv(W, L, 1.0, 2.0, 0.0)
        assert ntab.query_count == before + 1


class TestLibrary:
    def test_caches_by_polarity_and_length(self, tech):
        lib = TableModelLibrary(tech, grid_step=0.8)
        a = lib.get("n")
        b = lib.get("n")
        assert a is b
        assert len(lib) == 1
        lib.get("p")
        assert len(lib) == 2

    def test_new_length_gets_new_table(self, tech):
        lib = TableModelLibrary(tech, grid_step=0.8)
        a = lib.get("n")
        c = lib.get("n", l=2 * tech.lmin)
        assert a is not c
        assert c.grid.l_ref == pytest.approx(2 * tech.lmin)

    def test_rejects_bad_polarity(self, tech):
        lib = TableModelLibrary(tech)
        with pytest.raises(ValueError):
            lib.get("x")

    def test_golden_access(self, tech):
        lib = TableModelLibrary(tech)
        assert lib.golden("n").polarity == "n"
        assert lib.golden("p").polarity == "p"
