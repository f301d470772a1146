"""Sherman-Morrison solves for the bordered-tridiagonal QWM Jacobian.

Paper Section IV-B: the Jacobian of the matching equations is tridiagonal
except for its last column, because every residual depends on the unknown
critical time tau'.  Writing ``A_hat = A + u v^T`` where ``A`` is
tridiagonal, ``u`` holds the extra last-column entries and ``v = e_last``,
the update ``dx = A_hat^{-1} F`` is obtained from two tridiagonal solves:

    A y = F
    A z = u
    dx  = y - v.y / (1 + v.z) * z

which keeps the per-iteration cost O(K).
"""

from __future__ import annotations

import numpy as np

from repro.obs import inc
from repro.linalg.tridiagonal import TridiagonalMatrix, solve_tridiagonal


def solve_rank_one_update(
    matrix: TridiagonalMatrix,
    u: np.ndarray,
    v: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve ``(A + u v^T) x = rhs`` with ``A`` tridiagonal.

    Uses the Sherman-Morrison formula; ``A y = rhs`` and ``A z = u``
    share one Thomas elimination, O(n) total.

    Raises:
        np.linalg.LinAlgError: if ``A`` is singular or ``1 + v^T A^{-1} u``
            vanishes (the rank-one update makes the matrix singular).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    y, z = solve_tridiagonal(
        matrix, np.array((rhs, u), dtype=float).T).T
    denom = 1.0 + float(v @ z)
    if abs(denom) < 1e-300:
        raise np.linalg.LinAlgError("singular rank-one update in Sherman-Morrison")
    return y - (float(v @ y) / denom) * z


def solve_bordered_tridiagonal(
    matrix: TridiagonalMatrix,
    last_column: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve a system whose matrix is tridiagonal plus a dense last column.

    The full matrix is ``A_hat = A + u e_n^T`` where ``u`` is the extra
    content of the last column (i.e. ``A_hat[:, -1] = A[:, -1] + u``); the
    entries of ``u`` overlapping ``A``'s own band should be zero or fold
    the difference.

    Args:
        matrix: the tridiagonal part ``A`` (must itself be nonsingular).
        last_column: the *additional* last-column entries ``u`` (length n).
        rhs: right-hand side.

    Returns:
        Solution of ``(A + u e_n^T) x = rhs``.
    """
    last_column = np.asarray(last_column, dtype=float)
    n = matrix.n
    if last_column.shape[0] != n:
        raise ValueError(
            f"last_column length {last_column.shape[0]} != matrix dim {n}"
        )
    v = np.zeros(n)
    v[-1] = 1.0
    update = solve_rank_one_update(matrix, last_column, v, rhs)
    inc("linalg.solve.sherman_morrison")
    return update
