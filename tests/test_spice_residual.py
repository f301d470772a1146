"""The stage residual on Python floats against its numpy assembly.

:meth:`StageEquations.static_residual` stamps on Python float lists and
builds each array once.  ``numpy_residual`` below is the assembly it
replaced, kept verbatim as the oracle: numpy arrays stamped one element
at a time from the golden model's :class:`MosOperatingPoint` records.
Both make the same correctly rounded operations in the same order, so
residuals, Jacobians and DC pre-states must agree bit for bit.

No DC result is pinned to a literal: a multi-node solve factors its
Jacobian with LAPACK, whose bits may differ across hosts.  Both sides of
each comparison run in one process, so they share one LAPACK.
"""

import itertools

import numpy as np
import pytest

from repro.circuit import builders, extract_stages
from repro.devices import CMOSP35
from repro.spice import dc
from repro.spice.mna import StageEquations

TECH = CMOSP35
GMINS = (0.0, 1e-5, 1e-12)


def numpy_residual(self, v, gate_values, gmin=0.0):
    """The per-element numpy ``static_residual``, as an oracle."""
    def voltage(index):
        if index == self.VDD_INDEX:
            return self.vdd
        if index == self.GND_INDEX:
            return 0.0
        return float(v[index])

    f = np.zeros(self.n)
    jac = np.zeros((self.n, self.n))
    for t in self._transistors:
        op = t.model.evaluate(t.w, t.l, gate_values[t.gate],
                              voltage(t.src_index), voltage(t.snk_index))
        self.device_evaluations += 1
        if t.src_index >= 0:
            f[t.src_index] += op.ids
            jac[t.src_index, t.src_index] += op.g_src
            if t.snk_index >= 0:
                jac[t.src_index, t.snk_index] += op.g_snk
        if t.snk_index >= 0:
            f[t.snk_index] -= op.ids
            jac[t.snk_index, t.snk_index] -= op.g_snk
            if t.src_index >= 0:
                jac[t.snk_index, t.src_index] -= op.g_src
    for wire in self._wires:
        v_src = voltage(wire.src_index)
        v_snk = voltage(wire.snk_index)
        g = 1.0 / wire.resistance
        current = g * (v_src - v_snk)
        if wire.src_index >= 0:
            f[wire.src_index] += current
            jac[wire.src_index, wire.src_index] += g
            if wire.snk_index >= 0:
                jac[wire.src_index, wire.snk_index] -= g
        if wire.snk_index >= 0:
            f[wire.snk_index] -= current
            jac[wire.snk_index, wire.snk_index] += g
            if wire.src_index >= 0:
                jac[wire.snk_index, wire.src_index] -= g
    if gmin > 0.0:
        f += gmin * v
        jac[np.diag_indices(self.n)] += gmin
    return f, jac


def _stages():
    """Every distinct stage of the 3-bit decoder, the Fig. 1 pass-
    transistor stages, the Fig. 3 decoder tree (wires) and a NOR3
    (PMOS stack), by name."""
    decoder = extract_stages(builders.decoder_netlist(TECH, bits=3),
                             tech=TECH)
    fig1 = extract_stages(builders.pass_transistor_netlist(TECH), tech=TECH)
    stages, seen = [], set()
    for stage in decoder.topological_order():
        equations = StageEquations(stage, TECH)
        low = {name: 0.0 for name in stage.inputs}
        key = equations.dc_key(low, np.zeros(equations.n))
        if key not in seen:
            seen.add(key)
            stages.append(stage)
    stages += fig1.topological_order()
    stages += [builders.decoder_tree(TECH), builders.nor_gate(TECH, 3)]
    return {stage.name: stage for stage in stages}


STAGES = _stages()


def _biases(equations, inputs, rng, count=40):
    """Seeded node voltages and gate levels.

    Voltages reach half a vdd beyond both rails, and about half of
    them copy a rail or another node exactly, so devices see vds = 0.
    """
    vdd = equations.vdd
    for _ in range(count):
        v = rng.uniform(-0.5 * vdd, 1.5 * vdd, equations.n)
        for i in range(equations.n):
            pick = rng.integers(6)
            if pick == 0:
                v[i] = 0.0
            elif pick == 1:
                v[i] = vdd
            elif pick == 2:
                v[i] = v[rng.integers(equations.n)]
        gates = {name: float(rng.choice([0.0, vdd, rng.uniform(-1.0, 4.3)]))
                 for name in inputs}
        yield v, gates


def test_stages_cover_wires_and_both_stacks():
    equations = [StageEquations(stage, TECH) for stage in STAGES.values()]
    assert len(STAGES) == 7
    assert any(eq._wires for eq in equations)
    polarities = [[t.model.polarity for t in eq._transistors]
                  for eq in equations]
    assert any(p.count("n") >= 3 for p in polarities)
    assert any(p.count("p") >= 3 for p in polarities)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_residual_matches_numpy_assembly(name):
    stage = STAGES[name]
    equations = StageEquations(stage, TECH)
    oracle = StageEquations(stage, TECH)
    rng = np.random.default_rng(sum(map(ord, name)))
    vds_zero = 0
    for v, gates in _biases(equations, stage.inputs, rng):
        volts = list(v) + [0.0, equations.vdd]
        vds_zero += sum(volts[t.src_index] == volts[t.snk_index]
                        for t in equations._transistors)
        for gmin in GMINS:
            f, jac = equations.static_residual(v, gates, gmin=gmin)
            f_ref, jac_ref = numpy_residual(oracle, v, gates, gmin=gmin)
            assert f.shape == f_ref.shape and jac.shape == jac_ref.shape
            assert f.dtype == f_ref.dtype and jac.dtype == jac_ref.dtype
            assert f.tobytes() == f_ref.tobytes()
            assert jac.tobytes() == jac_ref.tobytes()
    assert equations.device_evaluations == oracle.device_evaluations
    assert vds_zero > 0


def _pre_states(stage):
    """``solve_dc`` over every input assignment, seeded as STA seeds it."""
    vdd = stage.vdd
    equations = StageEquations(stage, TECH)
    states = []
    for levels in itertools.product((0.0, vdd), repeat=len(stage.inputs)):
        gates = dict(zip(stage.inputs, levels))
        seed = dc.logic_initial_condition(stage, gates)
        guess = np.array([seed[name] for name in equations.node_names])
        states.append(dc.solve_dc(equations, gates, initial_guess=guess))
    return states, equations.device_evaluations


@pytest.mark.parametrize("name", sorted(STAGES))
def test_dc_pre_states_match_numpy_assembly(name, monkeypatch):
    stage = STAGES[name]
    states, evaluations = _pre_states(stage)
    monkeypatch.setattr(StageEquations, "static_residual", numpy_residual)
    oracle_states, oracle_evaluations = _pre_states(stage)
    assert [s.tobytes() for s in states] == \
        [s.tobytes() for s in oracle_states]
    assert evaluations == oracle_evaluations
