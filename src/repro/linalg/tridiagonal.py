"""Thomas-algorithm tridiagonal solver.

The QWM Jacobian (paper Eq. 9) is tridiagonal apart from its last column,
so the inner linear solves reduce to O(K) tridiagonal sweeps.  The paper
reports that exploiting this structure gives roughly a 2x speedup over
dense LU at the stack sizes of interest; ``benchmarks/bench_ablation_solver``
reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class TridiagonalMatrix:
    """A tridiagonal matrix stored as three diagonals.

    The diagonals are kept as given — float lists from the QWM residual
    assembly, arrays from tests — and swept as they are; only the
    dense and matrix-vector helpers convert them to arrays.

    Attributes:
        lower: sub-diagonal, length ``n - 1`` (``lower[i]`` is ``A[i+1, i]``).
        diag: main diagonal, length ``n``.
        upper: super-diagonal, length ``n - 1`` (``upper[i]`` is ``A[i, i+1]``).
    """

    lower: Sequence[float]
    diag: Sequence[float]
    upper: Sequence[float]

    def __post_init__(self) -> None:
        n = len(self.diag)
        if n == 0:
            raise ValueError("tridiagonal matrix must have at least one row")
        if len(self.lower) != n - 1:
            raise ValueError(
                f"lower diagonal has length {len(self.lower)}, expected {n - 1}"
            )
        if len(self.upper) != n - 1:
            raise ValueError(
                f"upper diagonal has length {len(self.upper)}, expected {n - 1}"
            )

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        """Expand into a dense ``(n, n)`` array (for tests and fallbacks)."""
        dense = np.diag(np.asarray(self.diag, dtype=float))
        if self.n > 1:
            dense += np.diag(np.asarray(self.lower, dtype=float), k=-1)
            dense += np.diag(np.asarray(self.upper, dtype=float), k=1)
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "TridiagonalMatrix":
        """Extract the three diagonals of a dense matrix."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("from_dense expects a square matrix")
        return cls(
            lower=np.diag(dense, k=-1).tolist(),
            diag=np.diag(dense).tolist(),
            upper=np.diag(dense, k=1).tolist(),
        )


def tridiagonal_matvec(matrix: TridiagonalMatrix, x: np.ndarray) -> np.ndarray:
    """Compute ``A @ x`` for a tridiagonal ``A`` in O(n)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != matrix.n:
        raise ValueError(f"vector length {x.shape[0]} != matrix dim {matrix.n}")
    y = np.asarray(matrix.diag, dtype=float) * x
    if matrix.n > 1:
        y[:-1] += np.asarray(matrix.upper, dtype=float) * x[1:]
        y[1:] += np.asarray(matrix.lower, dtype=float) * x[:-1]
    return y


def solve_tridiagonal(matrix: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` with the Thomas algorithm in O(n).

    Several right-hand sides share one elimination: pass them as the
    columns of an ``(n, r)`` array.  Each column gets exactly the
    arithmetic a one-column solve would give it.  The sweep runs on
    Python floats, one row at a time.

    Args:
        matrix: the tridiagonal coefficient matrix.
        rhs: right-hand side of length ``n``, or an ``(n, r)`` array of
            ``r`` right-hand sides.

    Returns:
        The solution, shaped like ``rhs``.

    Raises:
        np.linalg.LinAlgError: if a pivot underflows (matrix numerically
            singular).  The Thomas algorithm does not pivot; the QWM
            Jacobians are strongly diagonally dominant in practice, and
            callers fall back to dense LU on failure.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = matrix.n
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} != matrix dim {n}")
    columns = rhs.T.tolist() if rhs.ndim == 2 else [rhs.tolist()]
    lower, diag, upper = matrix.lower, matrix.diag, matrix.upper

    # Forward sweep: eliminate the sub-diagonal.  The pivots depend on
    # the matrix alone; every column is scaled by the same ones.
    scratch_upper = [0.0] * (n - 1)
    pivot = diag[0]
    if abs(pivot) < 1e-300:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal solve at row 0")
    for col in columns:
        col[0] = col[0] / pivot
    if n > 1:
        scratch_upper[0] = upper[0] / pivot
    for i in range(1, n):
        below = lower[i - 1]
        pivot = diag[i] - below * scratch_upper[i - 1]
        if abs(pivot) < 1e-300:
            raise np.linalg.LinAlgError(
                f"zero pivot in tridiagonal solve at row {i}"
            )
        if i < n - 1:
            scratch_upper[i] = upper[i] / pivot
        for col in columns:
            col[i] = (col[i] - below * col[i - 1]) / pivot

    # Back substitution, in place.
    for i in range(n - 2, -1, -1):
        factor = scratch_upper[i]
        for col in columns:
            col[i] = col[i] - factor * col[i + 1]
    if rhs.ndim == 2:
        return np.array(columns).T
    return np.array(columns[0])
