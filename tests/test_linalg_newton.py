"""Tests for the damped Newton-Raphson driver."""

import numpy as np
import pytest

from repro.linalg import (
    NewtonConvergenceError,
    NewtonOptions,
    NewtonResult,
    NewtonSolver,
)


class TestScalarProblems:
    def test_square_root(self):
        solver = NewtonSolver()
        result = solver.solve(
            lambda x: (np.array([x[0] ** 2 - 9.0]),
                       np.array([[2.0 * x[0]]])),
            x0=np.array([1.0]))
        assert result.x[0] == pytest.approx(3.0, abs=1e-8)
        assert result.converged

    def test_already_converged_takes_no_iterations(self):
        solver = NewtonSolver()
        result = solver.solve(
            lambda x: (np.array([0.0]), np.array([[1.0]])),
            x0=np.array([5.0]))
        assert result.iterations == 0
        assert result.x[0] == 5.0

    def test_quadratic_convergence_speed(self):
        solver = NewtonSolver()
        result = solver.solve(
            lambda x: (np.array([np.exp(x[0]) - 2.0]),
                       np.array([[np.exp(x[0])]])),
            x0=np.array([0.0]))
        assert result.x[0] == pytest.approx(np.log(2.0), abs=1e-10)
        assert result.iterations <= 8


class TestMultidimensional:
    def test_linear_system_in_one_step(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([5.0, 5.0])
        solver = NewtonSolver()
        result = solver.solve(lambda x: (a @ x - b, a), x0=np.zeros(2))
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b),
                                   atol=1e-10)
        assert result.iterations <= 2

    def test_rosenbrock_gradient_root(self):
        def system(x):
            residual = np.array([
                -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                200.0 * (x[1] - x[0] ** 2),
            ])
            jacobian = np.array([
                [2.0 - 400.0 * (x[1] - 3.0 * x[0] ** 2), -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ])
            return residual, jacobian

        solver = NewtonSolver(NewtonOptions(max_iterations=200))
        result = solver.solve(system, np.array([-1.2, 1.0]))
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-6)


class TestControls:
    def test_max_iterations_raises(self):
        solver = NewtonSolver(NewtonOptions(max_iterations=3,
                                            line_search=False))
        # No root: x^2 + 1 = 0 over the reals.
        with pytest.raises(NewtonConvergenceError) as info:
            solver.solve(
                lambda x: (np.array([x[0] ** 2 + 1.0]),
                           np.array([[2.0 * x[0] + 1e-3]])),
                x0=np.array([1.0]))
        assert info.value.last_residual_norm > 0

    def test_singular_jacobian_raises(self):
        solver = NewtonSolver()
        with pytest.raises(NewtonConvergenceError):
            solver.solve(
                lambda x: (np.array([x[0] + 1.0]), np.array([[0.0]])),
                x0=np.array([0.0]))

    def test_max_step_limits_update(self):
        seen = []

        def system(x):
            seen.append(float(x[0]))
            return np.array([1000.0 * x[0] - 1.0]), np.array([[1000.0]])

        solver = NewtonSolver(NewtonOptions(max_step=1e-4,
                                            line_search=False,
                                            max_iterations=50))
        result = solver.solve(system, np.array([0.0]))
        assert result.x[0] == pytest.approx(1e-3, rel=1e-4)
        # Steps were clamped: first update must be exactly max_step.
        assert abs(seen[1] - seen[0]) <= 1e-4 + 1e-12

    def test_max_step_scales_the_whole_step(self):
        # A linear system whose Newton step is (0.5, -4): the limit
        # binds on the second component only, and the update must keep
        # the Newton direction rather than clip that component alone.
        jac = np.array([[2.0, 0.0], [0.0, 0.5]])
        target = np.array([0.5, -4.0])
        seen = []

        def system(x):
            seen.append(np.array(x))
            return jac @ (x - target), jac

        solver = NewtonSolver(NewtonOptions(max_step=1.0,
                                            line_search=False,
                                            max_iterations=20))
        result = solver.solve(system, np.zeros(2))
        np.testing.assert_allclose(result.x, target, atol=1e-9)
        np.testing.assert_array_equal(seen[1] - seen[0],
                                      target * (1.0 / 4.0))

    def test_line_search_recovers_overshoot(self):
        # atan has a famously divergent Newton iteration from |x|>~1.39
        # without damping; the line search must rescue it.  It accepts a
        # probe, and the next step must solve with that probe's Jacobian,
        # paired with its residual.
        points = []

        def system(x):
            points.append(float(x[0]))
            jac = np.array([[1.0 / (1.0 + x[0] ** 2)]])
            return np.array([np.arctan(x[0])]), (float(x[0]), jac)

        def linear_solve(jac, rhs):
            at, matrix = jac
            assert rhs[0] == np.arctan(at)
            return np.linalg.solve(matrix, rhs)

        result = NewtonSolver(NewtonOptions(max_iterations=100)).solve(
            system, np.array([2.0]), linear_solve=linear_solve)
        assert result.x[0] == pytest.approx(0.0, abs=1e-7)
        assert len(points) == result.function_evaluations
        assert result.function_evaluations > result.iterations + 1

    def test_custom_linear_solver_is_used(self):
        calls = []

        def linear_solve(jac, rhs):
            calls.append(1)
            return np.linalg.solve(jac, rhs)

        solver = NewtonSolver()
        solver.solve(
            lambda x: (np.array([x[0] - 1.0]), np.array([[1.0]])),
            x0=np.array([0.0]),
            linear_solve=linear_solve)
        assert calls

    def test_result_reports_function_evaluations(self):
        solver = NewtonSolver()
        result = solver.solve(
            lambda x: (np.array([x[0] ** 3 - 8.0]),
                       np.array([[3.0 * x[0] ** 2]])),
            x0=np.array([1.0]))
        assert isinstance(result, NewtonResult)
        assert result.function_evaluations >= result.iterations
