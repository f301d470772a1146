"""SPICE reference runs pinned bit for bit, and their assembly count.

The QWM pins (``test_qwm_pinned.py``) do not reach the reference
engines.  These digests were recorded while every Newton iterate was
assembled twice, once for its residual and once for its Jacobian; an
engine that assembles each trial point once must reproduce every time
point and node voltage exactly.  The stage is an inverter: one internal
node, so each Newton linear solve is a 1x1 system and no multi-row
LAPACK factorization feeds the pinned bits.  It starts from an explicit
state, so no DC solve runs either.
"""

import hashlib

import numpy as np
import pytest

from repro.circuit import builders
from repro.linalg import newton
from repro.spice import (AdaptiveOptions, AdaptiveTransientSimulator,
                         ConstantSource, StepSource, TransientOptions,
                         TransientSimulator, mna)

T_SWITCH = 20e-12
T_STOP = 150e-12

ENGINES = {
    "be": lambda stage, tech: TransientSimulator(
        stage, tech, TransientOptions(t_stop=T_STOP, dt=1e-12)),
    "trap": lambda stage, tech: TransientSimulator(
        stage, tech, TransientOptions(t_stop=T_STOP, dt=1e-12,
                                      method="trap")),
    "adaptive": lambda stage, tech: AdaptiveTransientSimulator(
        stage, tech, AdaptiveOptions(t_stop=T_STOP)),
}

#: engine -> (sha256 of times and voltages, steps, Newton iterations).
PINNED = {
    "be": ("9a753e0f6ae481d515bb07c0a5359e55"
           "ad3f397f3961ae76314ee751c917409c", 150, 200),
    "trap": ("42257f47064298aeaf297a7b15e229e2"
             "3d8fec224f4abfece8909cfd511f1072", 150, 196),
    "adaptive": ("5dedc3a22e9af657511d7e462edaa007"
                 "ef543509ee312776e284cb09b12ac242", 76, 104),
}


def _digest(result) -> str:
    digest = hashlib.sha256(np.asarray(result.times).tobytes())
    for node in sorted(result.voltages):
        digest.update(node.encode())
        digest.update(np.asarray(result.voltages[node]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("engine", sorted(PINNED))
def test_inverter_fall_is_pinned(tech, engine):
    stage = builders.inverter(tech)
    result = ENGINES[engine](stage, tech).run(
        {"a": StepSource(0.0, tech.vdd, T_SWITCH)},
        initial={"out": tech.vdd})
    digest, steps, iterations = PINNED[engine]
    assert _digest(result) == digest
    assert result.stats.steps == steps
    assert result.stats.newton_iterations == iterations


def test_each_trial_point_is_assembled_once(tech, monkeypatch):
    """A 1 ps BE run from an explicit state assembles the stage exactly
    as often as its Newton solves evaluate a trial point: no second
    assembly for the Jacobian, no DC start, no trapezoidal history."""
    assemblies = []
    solves = []
    assemble = mna.StageEquations.static_residual
    solve = newton.NewtonSolver.solve

    def counted_assemble(self, *args, **kwargs):
        assemblies.append(1)
        return assemble(self, *args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        solves.append(result)
        return result

    monkeypatch.setattr(mna.StageEquations, "static_residual",
                        counted_assemble)
    monkeypatch.setattr(newton.NewtonSolver, "solve", counted_solve)
    stage = builders.nmos_stack(tech, 5, load=10e-15,
                                rng=np.random.default_rng([0, 5]))
    inputs = {"g1": StepSource(0.0, tech.vdd, T_SWITCH)}
    inputs.update({f"g{j}": ConstantSource(tech.vdd) for j in range(2, 6)})
    result = TransientSimulator(
        stage, tech, TransientOptions(t_stop=T_STOP, dt=1e-12)).run(
            inputs, initial={n.name: tech.vdd for n in stage.internal_nodes})

    stats = result.stats
    assert len(solves) == stats.steps
    assert sum(r.iterations for r in solves) == stats.newton_iterations
    assert stats.newton_iterations > stats.steps
    assert len(assemblies) == sum(r.function_evaluations for r in solves)
    assert stats.device_evaluations == \
        len(assemblies) * len(stage.transistors)
