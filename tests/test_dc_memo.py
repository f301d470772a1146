"""The DC pre-state memo of :class:`repro.core.WaveformEvaluator`.

STA arcs start from the stage's DC operating point (``precharge="dc"``).
The evaluator solves each distinct DC problem once and reuses it for
every sensitization and every isomorphic stage.  The reuse must be
exact: a memoized pre-state is bit-identical to a fresh
:func:`repro.spice.dc.solve_dc`, and arrivals do not move on any
scheduler, cache or incremental path.
"""

import numpy as np
import pytest

import repro.spice.dc as dc
from repro.analysis import IncrementalTimer, StaticTimingAnalyzer
from repro.analysis.parallel import ExecutionConfig
from repro.circuit import builders, extract_stages
from repro.core import WaveformEvaluator
from repro.resilience import faults
from repro.spice import StepSource
from repro.spice.mna import StageEquations
from repro.spice.sources import as_source


def _decoder(tech, bits):
    return extract_stages(builders.decoder_netlist(tech, bits=bits),
                          tech=tech)


def _count_solve_dc(monkeypatch):
    """Wrap ``repro.spice.dc.solve_dc``; returns the live call counter."""
    calls = []
    original = dc.solve_dc

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dc, "solve_dc", counted)
    return calls


def _fresh_pre_state(tech, stage, node_names, levels):
    """What ``_dc_initial`` computed before the memo: one full solve."""
    equations = StageEquations(stage, tech)
    seed = dc.logic_initial_condition(stage, levels)
    guess = np.array([seed[name] for name in equations.node_names])
    solution = dc.solve_dc(equations, levels, initial_guess=guess)
    return [float(solution[equations.node_index(name)])
            for name in node_names]


@pytest.mark.parametrize("bits", [3, 4])
def test_memoized_pre_states_match_fresh_solves(tech, library, bits,
                                                monkeypatch):
    """Every returned pre-state equals a fresh solve, bit for bit.

    Fresh solves are shared per (stage, levels): that is one and the
    same DC problem, while the memo also shares solutions *across*
    isomorphic stages, which is what this test checks.
    """
    returned = []
    original = WaveformEvaluator._dc_initial

    def recording(self, path, inputs, t_start):
        start = original(self, path, inputs, t_start)
        levels = {name: as_source(src).value(t_start - 1e-15)
                  for name, src in inputs.items()}
        returned.append((path.stage, tuple(path.node_names), levels,
                         [start[name] for name in path.node_names]))
        return start

    monkeypatch.setattr(WaveformEvaluator, "_dc_initial", recording)
    IncrementalTimer(tech, _decoder(tech, bits), library=library).analyze()
    monkeypatch.undo()

    assert returned
    shared_across_stages = set()
    fresh = {}
    for stage, node_names, levels, got in returned:
        problem = (stage.name, node_names, tuple(sorted(levels.items())))
        if problem not in fresh:
            fresh[problem] = _fresh_pre_state(tech, stage, node_names,
                                              levels)
        assert (np.array(got).tobytes()
                == np.array(fresh[problem]).tobytes()), problem
        shared_across_stages.add(stage.name)
    assert len(shared_across_stages) > 1


def test_decoder_solves_each_distinct_dc_problem_once(tech, library,
                                                      monkeypatch):
    """Timing the default 3-bit decoder solves 10 of its 70 arcs (the
    stage cache serves the isomorphic rest) with <= 15 DC solves."""
    calls = _count_solve_dc(monkeypatch)
    timer = IncrementalTimer(tech, _decoder(tech, 3), library=library)
    timer.analyze()
    stats = timer.last_stats
    assert (stats.arcs_evaluated, stats.arcs_cached) == (10, 60)
    assert 0 < len(calls) <= 15


def test_memo_bypassed_under_fault_plan(tech, library, monkeypatch):
    """With a fault plan installed the memo is neither read nor
    written, so Newton faults armed with ``nth`` count the same calls."""
    inv = builders.inverter(tech)
    inputs = {"a": StepSource(0.0, tech.vdd, 0.0)}
    calls = _count_solve_dc(monkeypatch)

    def evaluate_twice(evaluator):
        return [evaluator.evaluate(inv, "out", "fall", inputs,
                                   precharge="dc").delay()
                for _ in range(2)]

    bypassed = WaveformEvaluator(tech, library=library)
    with faults.installed(faults.FaultPlan()):
        under_plan = evaluate_twice(bypassed)
    assert len(calls) == 2
    assert bypassed._dc_memo == {}

    memoized = WaveformEvaluator(tech, library=library)
    assert evaluate_twice(memoized) == under_plan
    assert len(calls) == 3
    assert len(memoized._dc_memo) == 1


def _arrival_times(result):
    return {event: arrival.time
            for event, arrival in result.arrivals.items()}


def test_arrivals_identical_across_paths(tech, library, monkeypatch):
    """Serial, process, cached and incremental re-analysis after an
    edit and its inverse all give the same arrivals."""
    graph = _decoder(tech, 2)
    serial = _arrival_times(
        StaticTimingAnalyzer(tech, library=library).analyze(graph))
    for execution in (ExecutionConfig(workers=2),
                      ExecutionConfig(cache=True)):
        analyzer = StaticTimingAnalyzer(tech, library=library,
                                        execution=execution)
        assert _arrival_times(analyzer.analyze(graph)) == serial

    timer = IncrementalTimer(tech, _decoder(tech, 2), library=library)
    assert _arrival_times(timer.analyze()) == serial
    # The input inverter's gate is a primary input, so resizing it
    # moves no upstream load; the inverse edits restore exact values.
    inverter = next(stage for stage in timer.graph.stages
                    if len(stage.inputs) == 1
                    and stage.inputs[0] not in timer.graph.driver_of)
    device = next(edge for edge in inverter.edges
                  if edge.kind.polarity == "n")
    width = device.w
    word_line = timer.graph.stages[-1].outputs[0].name
    load = timer.graph.stage_of_net[word_line].node(word_line).load_cap
    timer.resize_transistor(inverter.name, device.name, 2.0 * width)
    timer.set_load(word_line, 2.0 * load)
    edited = _arrival_times(timer.analyze())
    assert edited != serial
    timer.resize_transistor(inverter.name, device.name, width)
    timer.set_load(word_line, load)
    calls = _count_solve_dc(monkeypatch)
    assert _arrival_times(timer.analyze()) == serial
    # The restored stage forms were all solved before the edit.
    stats = timer.last_stats
    assert (stats.arcs_evaluated, stats.arcs_cached) == (0, 28)
    assert calls == []
