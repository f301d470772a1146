"""Numerical linear-algebra substrate for the QWM solver.

The QWM matching equations (paper Eq. 7/9) produce a Jacobian that is
tridiagonal except for a dense last column (the unknown critical time).
This package provides:

* :func:`~repro.linalg.tridiagonal.solve_tridiagonal` — O(K) Thomas
  algorithm.
* :func:`~repro.linalg.sherman_morrison.solve_bordered_tridiagonal` —
  tridiagonal-plus-rank-one solve via the Sherman-Morrison formula, as
  described in the paper's Section IV-B.
* :class:`~repro.linalg.newton.NewtonSolver` — a Newton-Raphson driver,
  fed one ``x -> (F, J)`` callback, shared by the SPICE engine and the
  QWM matcher.
"""

from repro.linalg.tridiagonal import (
    TridiagonalMatrix,
    solve_tridiagonal,
    tridiagonal_matvec,
)
from repro.linalg.sherman_morrison import (
    solve_bordered_tridiagonal,
    solve_rank_one_update,
)
from repro.linalg.newton import (
    NewtonConvergenceError,
    NewtonOptions,
    NewtonResult,
    NewtonSolver,
)

__all__ = [
    "TridiagonalMatrix",
    "solve_tridiagonal",
    "tridiagonal_matvec",
    "solve_bordered_tridiagonal",
    "solve_rank_one_update",
    "NewtonConvergenceError",
    "NewtonOptions",
    "NewtonResult",
    "NewtonSolver",
]
