"""Tests for the region matching system (residual + Jacobian)."""

import numpy as np
import pytest

from repro.circuit import builders
from repro.core import extract_path
from repro.core.matching import (
    CrossingCondition,
    RegionSystem,
    TurnOnCondition,
)
from repro.spice import ConstantSource, StepSource
from repro.spice.sources import as_source


@pytest.fixture(scope="module")
def stack_setup(tech, library):
    st = builders.nmos_stack(tech, 4, widths=[1e-6] * 4, load=10e-15)
    sources = {"g1": as_source(StepSource(0, tech.vdd, 0))}
    sources.update({f"g{k}": as_source(ConstantSource(tech.vdd))
                    for k in range(2, 5)})
    path = extract_path(st, "out", "fall", sources, library)
    return path, sources


def _residual(system, x):
    return system.residual_and_parts(x)[0]


def _region(path, sources, active, condition, tech):
    u0 = np.full(path.length, tech.vdd)
    u0[0] = 3.0  # node 1 partway down
    i0 = np.zeros(path.length)
    i0[0] = -2e-4
    return RegionSystem(path, sources, active, tau=10e-12,
                        u_start=u0, i_start=i0, condition=condition), u0


class TestResidualStructure:
    def test_dimensions(self, stack_setup, tech):
        path, sources = stack_setup
        system, u0 = _region(path, sources, 1, TurnOnCondition(2), tech)
        x = np.array([2.5, 20e-12])
        f = _residual(system, x)
        assert f.shape == (2,)

    def test_turnon_condition_index_validation(self, stack_setup, tech):
        path, sources = stack_setup
        with pytest.raises(ValueError):
            _region(path, sources, 1, TurnOnCondition(3), tech)
        with pytest.raises(ValueError):
            _region(path, sources, 2, TurnOnCondition(2), tech)

    def test_active_range_validation(self, stack_setup, tech):
        path, sources = stack_setup
        with pytest.raises(ValueError):
            _region(path, sources, 0, CrossingCondition(1.0), tech)
        with pytest.raises(ValueError):
            _region(path, sources, 9, CrossingCondition(1.0), tech)

    def test_crossing_condition_residual(self, stack_setup, tech):
        path, sources = stack_setup
        system, u0 = _region(path, sources, 4,
                             CrossingCondition(1.65), tech)
        x = np.concatenate([u0, [25e-12]])
        x[3] = 1.65  # output exactly at target
        f = _residual(system, x)
        assert f[-1] == pytest.approx(0.0, abs=1e-12)

    def test_turnon_condition_residual_sign(self, stack_setup, tech):
        path, sources = stack_setup
        system, u0 = _region(path, sources, 1, TurnOnCondition(2), tech)
        # Node 1 still above vdd - vth: condition residual positive.
        x = np.array([3.0, 20e-12])
        f_high = _residual(system, x)[-1]
        x2 = np.array([1.0, 20e-12])
        f_low = _residual(system, x2)[-1]
        assert f_high > 0 > f_low


class TestJacobian:
    @pytest.mark.parametrize("active,condition_kind", [
        (1, "turnon"), (2, "turnon"), (3, "turnon"), (4, "crossing"),
    ])
    def test_dense_jacobian_matches_fd(self, stack_setup, tech, active,
                                       condition_kind):
        path, sources = stack_setup
        condition = (TurnOnCondition(active + 1)
                     if condition_kind == "turnon"
                     else CrossingCondition(1.0))
        system, u0 = _region(path, sources, active, condition, tech)
        x = np.concatenate([
            np.linspace(2.6, 3.2, active), [22e-12]])
        jac = system.dense_jacobian(x)
        f0 = _residual(system, x)
        for j in range(active + 1):
            h = 1e-7 if j < active else 1e-16
            xp = x.copy()
            xp[j] += h
            fd_col = (_residual(system, xp) - f0) / h
            np.testing.assert_allclose(
                jac[:, j], fd_col, rtol=5e-3,
                atol=max(1e-9, 1e-4 * np.max(np.abs(jac[:, j]))))

    def test_bordered_solve_matches_dense(self, stack_setup, tech):
        path, sources = stack_setup
        system, u0 = _region(path, sources, 3, TurnOnCondition(4), tech)
        x = np.array([2.7, 3.0, 3.1, 21e-12])
        f, matrix, last_col = system.residual_and_parts(x)
        from repro.linalg import solve_bordered_tridiagonal

        via_sm = solve_bordered_tridiagonal(matrix, last_col, f)
        dense = matrix.to_dense()
        dense[:, -1] += last_col
        via_dense = np.linalg.solve(dense, f)
        np.testing.assert_allclose(via_sm, via_dense, rtol=1e-8)


class TestNewtonSolve:
    def test_solves_first_region_of_stack(self, stack_setup, tech):
        path, sources = stack_setup
        u0 = np.full(path.length, float(tech.vdd))
        i0 = np.zeros(path.length)
        # Seed node-1 current from the device model (post-step).
        j1, _, _, _ = path.devices[0].frame_current(tech.vdd, 0.0,
                                                    u0[0], tech.vdd)
        i0[0] = -j1
        system = RegionSystem(path, sources, 1, tau=0.0, u_start=u0,
                              i_start=i0, condition=TurnOnCondition(2))
        guess = np.array([2.2, 6e-12])
        result = system.newton_solve(guess)
        u1, tau = result.x
        assert 1.8 < u1 < 2.6  # vdd - vth(body) neighborhood
        assert 1e-12 < tau < 50e-12
        # The turn-on condition holds at the solution.
        device = path.devices[1]
        vth = device.threshold(tech.vdd, u1, tech.vdd)
        assert u1 + vth == pytest.approx(tech.vdd, abs=1e-6)

    def test_each_trial_point_is_assembled_once(self, stack_setup, tech,
                                                monkeypatch):
        path, sources = stack_setup
        assembled = []
        assemble = RegionSystem.residual_and_parts

        def counted(self, x):
            assembled.append(np.array(x))
            return assemble(self, x)

        monkeypatch.setattr(RegionSystem, "residual_and_parts", counted)
        u0 = np.full(path.length, float(tech.vdd))
        i0 = np.zeros(path.length)
        j1, _, _, _ = path.devices[0].frame_current(tech.vdd, 0.0,
                                                    u0[0], tech.vdd)
        i0[0] = -j1
        system = RegionSystem(path, sources, 1, tau=0.0, u_start=u0,
                              i_start=i0, condition=TurnOnCondition(2))
        result = system.newton_solve(np.array([2.2, 6e-12]))
        assert result.iterations > 0
        assert len(assembled) == result.function_evaluations
        # No trial point is assembled twice.
        assert len({x.tobytes() for x in assembled}) == len(assembled)

    def test_dense_fallback_equivalent(self, stack_setup, tech):
        path, sources = stack_setup
        u0 = np.full(path.length, float(tech.vdd))
        i0 = np.zeros(path.length)
        j1, _, _, _ = path.devices[0].frame_current(tech.vdd, 0.0,
                                                    u0[0], tech.vdd)
        i0[0] = -j1
        system = RegionSystem(path, sources, 1, tau=0.0, u_start=u0,
                              i_start=i0, condition=TurnOnCondition(2))
        guess = np.array([2.2, 6e-12])
        fast = system.newton_solve(guess, use_sherman_morrison=True)
        slow = system.newton_solve(guess, use_sherman_morrison=False)
        np.testing.assert_allclose(fast.x, slow.x, rtol=1e-8)
