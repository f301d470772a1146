"""Incremental STA speedup (the practical payoff of fast stage evaluation).

Timing closure loops edit one device at a time and re-time the design.
With per-arc caching, only the edited stage and its loading-affected
driver need fresh QWM evaluations.  This bench times a full, uncached
analysis of an inverter/NAND chain (every arc solved) versus the
incremental re-analysis after a single transistor resize and reports
the arc-evaluation counts.
"""

import pytest

from benchmarks.harness import format_table, run_once, save_result
from repro.analysis import IncrementalTimer, StaticTimingAnalyzer
from repro.circuit import extract_stages
from repro.circuit.netlist import GND_NODE, VDD_NODE
from repro.circuit.stage import FlatNetlist

CHAIN_LENGTH = 8


def _chain(tech):
    """An 8-stage chain alternating inverters and NAND2s."""
    net = FlatNetlist("chain8", vdd=tech.vdd)
    prev = "a"
    for i in range(CHAIN_LENGTH):
        out = f"n{i}" if i < CHAIN_LENGTH - 1 else "y"
        if i % 2 == 0:
            net.add_pmos(f"p{i}", gate=prev, src=VDD_NODE, snk=out,
                         w=2e-6, l=tech.lmin)
            net.add_nmos(f"m{i}", gate=prev, src=out, snk=GND_NODE,
                         w=1e-6, l=tech.lmin)
        else:
            net.add_pmos(f"p{i}", gate=prev, src=VDD_NODE, snk=out,
                         w=2e-6, l=tech.lmin)
            net.add_pmos(f"p{i}e", gate="en", src=VDD_NODE, snk=out,
                         w=2e-6, l=tech.lmin)
            net.add_nmos(f"m{i}", gate=prev, src=out, snk=f"x{i}",
                         w=1e-6, l=tech.lmin)
            net.add_nmos(f"m{i}e", gate="en", src=f"x{i}",
                         snk=GND_NODE, w=1e-6, l=tech.lmin)
        prev = out
    net.mark_input("a")
    net.mark_input("en")
    net.mark_output("y")
    net.set_load("y", 5e-15)
    return extract_stages(net, tech=tech)


def test_full_analysis_cost(benchmark, tech, library):
    graph = _chain(tech)
    timer = IncrementalTimer(tech, graph, library=library)
    benchmark.pedantic(timer.analyze, rounds=1, iterations=1)
    assert timer.last_stats.arcs_evaluated > 0


def test_incremental_resize_speedup(benchmark, tech, library):
    import time

    graph = _chain(tech)
    timer = IncrementalTimer(tech, graph, library=library)

    def experiment():
        # The timer's first pass already serves isomorphic stages from
        # its cache, so the full analysis timed is an uncached analyzer
        # that solves every arc.
        first = timer.analyze()
        full_arcs = timer.last_stats.total
        t0 = time.perf_counter()
        StaticTimingAnalyzer(tech, library=library).analyze(graph)
        t_full = time.perf_counter() - t0

        # Resize one NMOS in the last stage and re-time.
        last = graph.stage_of_net["y"]
        device = next(e.name for e in last.transistors
                      if e.kind.polarity == "n")
        timer.resize_transistor(last.name, device, 2e-6)
        t0 = time.perf_counter()
        second = timer.analyze()
        t_inc = time.perf_counter() - t0
        inc_stats = timer.last_stats

        # Ground truth: a cold timer on the edited design agrees.
        cold = IncrementalTimer(tech, graph, library=library).analyze()
        return (first, second, cold, t_full, t_inc, full_arcs,
                inc_stats)

    (first, second, cold, t_full, t_inc, full_arcs,
     inc_stats) = run_once(benchmark, experiment)

    assert second.worst.time == pytest.approx(cold.worst.time, rel=1e-9)
    assert inc_stats.arcs_evaluated < full_arcs
    speedup = t_full / t_inc
    save_result("incremental_sta.txt", format_table(
        "Incremental STA after one transistor resize (8-stage chain)",
        ["quantity", "value"],
        [
            ["stages", str(len(graph.stages))],
            ["full analysis arcs", str(full_arcs)],
            ["incremental arcs re-evaluated",
             str(inc_stats.arcs_evaluated)],
            ["arcs served from cache", str(inc_stats.arcs_cached)],
            ["full analysis time", f"{t_full * 1e3:.1f} ms"],
            ["incremental time", f"{t_inc * 1e3:.1f} ms"],
            ["speedup", f"{speedup:.1f}x"],
            ["worst arrival (before)",
             f"{first.worst.time * 1e12:.1f} ps"],
            ["worst arrival (after)",
             f"{second.worst.time * 1e12:.1f} ps"],
        ]))
    assert speedup > 1.5
