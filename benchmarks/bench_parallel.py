"""Parallel STA engine: worker-process sweep and cache effectiveness.

Two questions, answered on the 3-bit decoder (the repo's largest
levelized design):

1. What does the process pool buy?  In-process vs 2 and 4 worker
   processes.  Each worker is a fresh process that receives the pickled
   table library once, so the pool can only win when the host has idle
   cores; the result table records ``os.cpu_count()`` next to the
   timings.  The arrivals are asserted bit-identical across every
   configuration, which is the property the engine actually guarantees.

2. What does the stage-result cache buy?  The decoder instantiates the
   same inverter/NAND shapes many times; canonical-form keying lets one
   solved arc serve every isomorphic stage, and a warm cache serves the
   whole run without a single QWM region solve.
"""

import os
import time

import pytest

from benchmarks.harness import format_table, save_result
from repro.analysis import StaticTimingAnalyzer
from repro.analysis.parallel import ExecutionConfig, StageResultCache
from repro.circuit import builders, extract_stages

DECODER_BITS = 3


def _graph(tech):
    return extract_stages(builders.decoder_netlist(tech,
                                                   bits=DECODER_BITS),
                          tech=tech)


def _analyze(tech, library, graph, execution=None, cache=None):
    analyzer = StaticTimingAnalyzer(tech, library=library,
                                    execution=execution, cache=cache)
    start = time.perf_counter()
    result = analyzer.analyze(graph)
    return result, time.perf_counter() - start


def test_worker_sweep_identical_arrivals(benchmark, tech, library):
    graph = _graph(tech)
    reference, t_serial = _analyze(tech, library, graph)

    configs = [(f"process x{workers}", ExecutionConfig(workers=workers))
               for workers in (2, 4)]

    rows = [["plain serial", f"{t_serial * 1e3:.1f} ms", "-", "ref"]]
    timings = {}

    def sweep():
        for label, config in configs:
            result, elapsed = _analyze(tech, library, graph,
                                       execution=config)
            timings[label] = (result, elapsed)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    for label, (result, elapsed) in timings.items():
        identical = all(
            result.arrivals[e].time == a.time
            for e, a in reference.arrivals.items())
        assert identical, f"{label} diverged from serial arrivals"
        rows.append([label, f"{elapsed * 1e3:.1f} ms",
                     f"{t_serial / elapsed:.2f}x", "identical"])

    cores = os.cpu_count() or 1
    note = (f"(machine exposes {cores} CPU core(s); speedup > 1 is "
            f"not expected below 2 cores — this sweep verifies "
            f"dispatch overhead and bit-identical arrivals)")
    save_result("parallel_backends.txt", format_table(
        f"Parallel STA worker processes: {DECODER_BITS}-bit decoder, "
        f"{len(graph.stages)} stages {note}",
        ["configuration", "wall", "vs serial", "arrivals"], rows))


def test_cache_reuse_and_warm_run(benchmark, tech, library):
    graph = _graph(tech)
    cache = StageResultCache()
    execution = ExecutionConfig(cache=True)

    cold, t_cold = _analyze(tech, library, graph, execution=execution,
                            cache=cache)
    cold_hits, cold_misses = cache.hits, cache.misses
    cold_steps = cold.stats.steps
    assert cold_steps > 0

    def warm():
        return _analyze(tech, library, graph, execution=execution,
                        cache=cache)

    warm_result, t_warm = benchmark.pedantic(warm, rounds=1,
                                             iterations=1)
    warm_steps = warm_result.stats.steps

    identical = all(
        warm_result.arrivals[e].time == a.time
        for e, a in cold.arrivals.items())
    assert identical, "warm-cache arrivals diverged"
    # The whole point: a warm cache answers every arc without solving.
    assert warm_steps == 0
    # >= 10x fewer QWM solves on the warm rerun (it is in fact 0).
    assert warm_steps * 10 <= cold_steps

    arcs = cold_hits + cold_misses
    rows = [
        ["stages", str(len(graph.stages)), ""],
        ["arcs looked up (cold)", str(arcs), ""],
        ["cold misses (QWM solved)", str(cold_misses),
         f"{t_cold * 1e3:.1f} ms"],
        ["cold hits (isomorphic reuse)", str(cold_hits), ""],
        ["cold QWM regions", str(cold_steps), ""],
        ["warm QWM regions", str(warm_steps),
         f"{t_warm * 1e3:.1f} ms"],
        ["warm speedup", f"{t_cold / max(t_warm, 1e-9):.1f}x", ""],
    ]
    save_result("parallel_cache.txt", format_table(
        f"Stage-result cache: {DECODER_BITS}-bit decoder "
        f"(canonical-form keying)",
        ["quantity", "value", "wall"], rows))
    assert cold_hits > 0, "decoder should reuse isomorphic stages"
