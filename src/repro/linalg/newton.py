"""A Newton-Raphson driver with step limiting and a line search.

Shared by the SPICE engine (DC and per-timestep nonlinear solves) and
the QWM matcher (per-critical-point solves).  The driver is deliberately
generic: callers supply one system function that assembles the residual
and its Jacobian together, and optionally a custom linear solver (the
QWM matcher plugs in the bordered-tridiagonal Sherman-Morrison solve
here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.resilience import faults

SystemFn = Callable[[np.ndarray], Tuple[np.ndarray, Any]]
LinearSolveFn = Callable[[Any, np.ndarray], np.ndarray]

#: Halvings the line search tries per iteration.
LINE_SEARCH_TRIES = 8

#: Machine-readable values of :attr:`NewtonConvergenceError.reason`.
FAILURE_REASONS = (
    "non_finite_residual",
    "linear_solve_failed",
    "non_finite_step",
    "max_iterations",
    "fault_injected",
)


class NewtonConvergenceError(RuntimeError):
    """Raised when Newton-Raphson fails to converge within max_iterations.

    ``reason`` is one of :data:`FAILURE_REASONS` so callers (retry loops,
    the flight recorder) can build a fallback taxonomy without parsing
    the human-readable message.
    """

    def __init__(self, message: str, last_x: np.ndarray, last_residual_norm: float,
                 reason: str = "max_iterations"):
        super().__init__(message)
        self.last_x = last_x
        self.last_residual_norm = last_residual_norm
        self.reason = reason


@dataclass
class NewtonOptions:
    """Convergence controls for :class:`NewtonSolver`.

    Attributes:
        abstol: absolute residual tolerance (per component, inf-norm).
        xtol: absolute update tolerance (per component, inf-norm).
        max_iterations: iteration budget before giving up.
        max_step: optional limit on the Newton update's largest
            component (SPICE-style voltage limiting).  A longer step is
            scaled as a whole, ``step * max_step / max|step|``, so the
            limited update keeps the Newton direction and the line
            search still starts from a descent direction; ``None``
            disables the limit.
        line_search: if True, halve the step up to
            :data:`LINE_SEARCH_TRIES` times whenever the residual norm
            would increase.
    """

    abstol: float = 1e-9
    xtol: float = 1e-9
    max_iterations: int = 100
    max_step: Optional[float] = None
    line_search: bool = True


@dataclass
class NewtonResult:
    """Outcome of a Newton solve.

    Attributes:
        x: converged solution.
        iterations: Newton iterations actually used.
        residual_norm: final residual inf-norm.
        converged: always True on a returned result (failures raise).
        function_evaluations: number of system evaluations (the start
            point, each full step and each line-search probe).
    """

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool = True
    function_evaluations: int = 0


@dataclass
class NewtonSolver:
    """Newton-Raphson with optional step limiting and line search.

    Example:
        >>> import numpy as np
        >>> solver = NewtonSolver()
        >>> result = solver.solve(
        ...     lambda x: (np.array([x[0] ** 2 - 4.0]),
        ...                np.array([[2.0 * x[0]]])),
        ...     x0=np.array([1.0]),
        ... )
        >>> round(float(result.x[0]), 6)
        2.0
    """

    options: NewtonOptions = field(default_factory=NewtonOptions)

    def solve(
        self,
        system: SystemFn,
        x0: np.ndarray,
        linear_solve: Optional[LinearSolveFn] = None,
        trajectory: Optional[List[Dict[str, float]]] = None,
    ) -> NewtonResult:
        """Solve ``F(x) = 0`` starting from ``x0``.

        Args:
            system: maps x to ``(F(x), dF/dx)``, assembled together.  It
                is called once per trial point (the start, each full
                step, each line-search probe), and the Jacobian of the
                accepted point is kept for the next step.  When
                ``linear_solve`` is provided the Jacobian may be any
                object that solver understands.
            x0: initial guess (not modified).
            linear_solve: optional ``(jacobian_value, rhs) -> update``;
                defaults to ``numpy.linalg.solve``.
            trajectory: optional list that receives one dict per
                iteration (``iteration``, ``residual_norm``,
                ``step_norm``, ``shrink``) including an iteration-0
                entry for the initial residual.  When ``None`` (the
                default) nothing is recorded and the loop pays one
                ``is not None`` check per iteration.

        Returns:
            A :class:`NewtonResult` on convergence.

        Raises:
            NewtonConvergenceError: if the iteration budget is exhausted or
                the linear solve fails irrecoverably.
        """
        if faults.active_plan() is not None and \
                faults.newton_should_fail():
            raise NewtonConvergenceError(
                "fault injection forced non-convergence",
                last_x=np.array(x0, dtype=float),
                last_residual_norm=float("inf"),
                reason="fault_injected",
            )
        opts = self.options
        if linear_solve is None:
            linear_solve = _dense_solve
        x = np.array(x0, dtype=float, copy=True)
        f, jac = system(x)
        f = np.asarray(f, dtype=float)
        evals = 1
        fnorm = _inf_norm(f)
        if trajectory is not None:
            trajectory.append({"iteration": 0, "residual_norm": fnorm,
                               "step_norm": 0.0, "shrink": 1.0})
        if not np.isfinite(fnorm):
            raise NewtonConvergenceError(
                "non-finite residual at the initial guess",
                last_x=x,
                last_residual_norm=fnorm,
                reason="non_finite_residual",
            )

        for iteration in range(1, opts.max_iterations + 1):
            if fnorm <= opts.abstol:
                return NewtonResult(
                    x=x,
                    iterations=iteration - 1,
                    residual_norm=fnorm,
                    function_evaluations=evals,
                )
            try:
                step = np.asarray(linear_solve(jac, f), dtype=float)
            except np.linalg.LinAlgError as exc:
                raise NewtonConvergenceError(
                    f"linear solve failed at iteration {iteration}: {exc}",
                    last_x=x,
                    last_residual_norm=fnorm,
                    reason="linear_solve_failed",
                ) from exc
            if not np.isfinite(step).all():
                raise NewtonConvergenceError(
                    f"non-finite Newton step at iteration {iteration}",
                    last_x=x,
                    last_residual_norm=fnorm,
                    reason="non_finite_step",
                )
            if opts.max_step is not None:
                largest = _inf_norm(step)
                if largest > opts.max_step:
                    step *= opts.max_step / largest

            x_new = x - step
            f_new, jac_new = system(x_new)
            f_new = np.asarray(f_new, dtype=float)
            evals += 1
            fnorm_new = _inf_norm(f_new)
            if not np.isfinite(fnorm_new):
                raise NewtonConvergenceError(
                    f"non-finite residual at iteration {iteration}",
                    last_x=x,
                    last_residual_norm=fnorm,
                    reason="non_finite_residual",
                )

            accepted_shrink = 1.0
            if opts.line_search and fnorm_new > fnorm and fnorm_new > opts.abstol:
                shrink = 0.5
                for _ in range(LINE_SEARCH_TRIES):
                    x_try = x - shrink * step
                    f_try, jac_try = system(x_try)
                    f_try = np.asarray(f_try, dtype=float)
                    evals += 1
                    fnorm_try = _inf_norm(f_try)
                    if fnorm_try < fnorm_new:
                        x_new, f_new, jac_new = x_try, f_try, jac_try
                        fnorm_new = fnorm_try
                        accepted_shrink = shrink
                    if fnorm_try < fnorm:
                        break
                    shrink *= 0.5

            step_norm = _inf_norm(x_new - x)
            x, f, jac, fnorm = x_new, f_new, jac_new, fnorm_new
            if trajectory is not None:
                trajectory.append({"iteration": iteration,
                                   "residual_norm": fnorm,
                                   "step_norm": step_norm,
                                   "shrink": accepted_shrink})
            if fnorm <= opts.abstol or step_norm <= opts.xtol:
                return NewtonResult(
                    x=x,
                    iterations=iteration,
                    residual_norm=fnorm,
                    function_evaluations=evals,
                )

        raise NewtonConvergenceError(
            f"Newton-Raphson did not converge in {opts.max_iterations} iterations "
            f"(|F| = {fnorm:.3e})",
            last_x=x,
            last_residual_norm=fnorm,
            reason="max_iterations",
        )


def _dense_solve(jacobian_value: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.solve(np.asarray(jacobian_value, dtype=float), rhs)


def _inf_norm(vec: np.ndarray) -> float:
    return float(np.abs(vec).max()) if vec.size else 0.0
