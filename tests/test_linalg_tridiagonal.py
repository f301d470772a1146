"""Tests for the Thomas tridiagonal solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import TridiagonalMatrix, solve_tridiagonal, tridiagonal_matvec


def _random_dd_tridiag(rng, n):
    """A diagonally dominant tridiagonal matrix (always solvable)."""
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = np.abs(rng.uniform(1.0, 2.0, n)) + 2.5
    return TridiagonalMatrix(lower=lower, diag=diag, upper=upper)


class TestTridiagonalMatrix:
    def test_dimensions(self):
        m = TridiagonalMatrix(lower=[1.0], diag=[2.0, 3.0], upper=[4.0])
        assert m.n == 2

    def test_rejects_mismatched_diagonals(self):
        with pytest.raises(ValueError):
            TridiagonalMatrix(lower=[1.0, 2.0], diag=[1.0, 2.0], upper=[1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TridiagonalMatrix(lower=np.array([]), diag=np.array([]),
                              upper=np.array([]))

    def test_to_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        m = _random_dd_tridiag(rng, 5)
        again = TridiagonalMatrix.from_dense(m.to_dense())
        np.testing.assert_allclose(again.diag, m.diag)
        np.testing.assert_allclose(again.lower, m.lower)
        np.testing.assert_allclose(again.upper, m.upper)

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(ValueError):
            TridiagonalMatrix.from_dense(np.zeros((2, 3)))

    def test_single_element(self):
        m = TridiagonalMatrix(lower=np.array([]), diag=[4.0],
                              upper=np.array([]))
        x = solve_tridiagonal(m, np.array([8.0]))
        assert x[0] == pytest.approx(2.0)


class TestMatvec:
    def test_matches_dense(self):
        rng = np.random.default_rng(1)
        m = _random_dd_tridiag(rng, 7)
        x = rng.uniform(-1, 1, 7)
        np.testing.assert_allclose(tridiagonal_matvec(m, x),
                                   m.to_dense() @ x, rtol=1e-12)

    def test_rejects_wrong_length(self):
        m = TridiagonalMatrix(lower=[1.0], diag=[2.0, 3.0], upper=[1.0])
        with pytest.raises(ValueError):
            tridiagonal_matvec(m, np.zeros(3))


class TestSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 50])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        m = _random_dd_tridiag(rng, n) if n > 1 else TridiagonalMatrix(
            lower=np.array([]), diag=[3.0], upper=np.array([]))
        rhs = rng.uniform(-1, 1, n)
        x = solve_tridiagonal(m, rhs)
        np.testing.assert_allclose(x, np.linalg.solve(m.to_dense(), rhs),
                                   rtol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_several_rhs_equal_single_solves(self, n):
        # Columns share one elimination and get each single solve's bits.
        rng = np.random.default_rng(40 + n)
        m = _random_dd_tridiag(rng, n) if n > 1 else TridiagonalMatrix(
            lower=np.array([]), diag=[3.0], upper=np.array([]))
        rhs = rng.uniform(-1, 1, (n, 3))
        x = solve_tridiagonal(m, rhs)
        assert x.shape == (n, 3)
        for col in range(3):
            assert (x[:, col] == solve_tridiagonal(m, rhs[:, col])).all()

    def test_rejects_wrong_rhs_length(self):
        m = TridiagonalMatrix(lower=[1.0], diag=[2.0, 3.0], upper=[1.0])
        with pytest.raises(ValueError):
            solve_tridiagonal(m, np.zeros(3))

    def test_singular_raises(self):
        m = TridiagonalMatrix(lower=[0.0], diag=[0.0, 1.0], upper=[0.0])
        with pytest.raises(np.linalg.LinAlgError):
            solve_tridiagonal(m, np.array([1.0, 1.0]))

    def test_identity(self):
        m = TridiagonalMatrix(lower=np.zeros(3), diag=np.ones(4),
                              upper=np.zeros(3))
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(solve_tridiagonal(m, rhs), rhs)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    def test_residual_is_zero_property(self, seed, n):
        rng = np.random.default_rng(seed)
        m = _random_dd_tridiag(rng, n)
        rhs = rng.uniform(-10, 10, n)
        x = solve_tridiagonal(m, rhs)
        np.testing.assert_allclose(tridiagonal_matvec(m, x), rhs,
                                   rtol=1e-8, atol=1e-9)
