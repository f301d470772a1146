"""Parallel STA engine: determinism, canonical forms, and the cache.

The contract under test is the one DESIGN.md states: workers and the
stage-result cache change *scheduling only*, never the arithmetic — a
parallel run's arrivals are bit-identical to the serial engine's.
"""

import numpy as np
import pytest

from repro.analysis import StaticTimingAnalyzer
from repro.analysis.parallel import (
    CanonicalForm,
    ExecutionConfig,
    ParallelStaEngine,
    StageResultCache,
    arc_cache_key,
    canonical_stage_form,
    canonical_form_for,
    stage_fingerprint,
)
from repro.circuit import builders, extract_stages


@pytest.fixture(scope="module")
def decoder_graph(tech):
    return extract_stages(builders.decoder_netlist(tech, bits=2),
                          tech=tech)


@pytest.fixture(scope="module")
def serial_result(tech, library, decoder_graph):
    analyzer = StaticTimingAnalyzer(tech, library=library)
    return analyzer.analyze(decoder_graph)


@pytest.fixture(scope="module")
def warm_cache(tech, library, decoder_graph):
    """A cache pre-filled by one engine run (shared to bound runtime)."""
    cache = StageResultCache()
    analyzer = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(cache=True), cache=cache)
    analyzer.analyze(decoder_graph)
    return cache


def assert_same_arrivals(result, reference):
    assert set(result.arrivals) == set(reference.arrivals)
    for event, arrival in reference.arrivals.items():
        other = result.arrivals[event]
        # Bit-identical, not approximately equal: the engines must run
        # the same arithmetic in the same order per arc.
        assert other.time == arrival.time, event
        assert other.direction == arrival.direction
    assert (result.worst is None) == (reference.worst is None)
    if reference.worst is not None:
        assert result.worst.time == reference.worst.time


# ----------------------------------------------------------------------
# Determinism across worker counts and cache settings.
# ----------------------------------------------------------------------
#: In-process, and a pool of two worker processes.
WORKERS = [pytest.param(1, id="serial-1"), pytest.param(2, id="process-2")]


@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_matches_serial(tech, library, decoder_graph,
                                 serial_result, workers):
    analyzer = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(workers=workers))
    assert_same_arrivals(analyzer.analyze(decoder_graph), serial_result)


@pytest.mark.parametrize("workers", WORKERS)
def test_cached_run_matches_serial(tech, library, decoder_graph,
                                   serial_result, warm_cache, workers):
    analyzer = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(workers=workers, cache=True),
        cache=warm_cache)
    assert_same_arrivals(analyzer.analyze(decoder_graph), serial_result)


def test_warm_cache_skips_solves(tech, library, decoder_graph,
                                 warm_cache):
    analyzer = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(cache=True), cache=warm_cache)
    result = analyzer.analyze(decoder_graph)
    # Every arc is served from the cache: no QWM regions are solved.
    assert result.stats.steps == 0


def test_cache_shares_isomorphic_stages(tech, library, decoder_graph):
    cache = StageResultCache()
    analyzer = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(cache=True), cache=cache)
    analyzer.analyze(decoder_graph)
    # The decoder instantiates one inverter and one NAND shape many
    # times; canonical keying folds them onto few fingerprints.
    fingerprints = {canonical_form_for(s, analyzer).fingerprint
                    for s in decoder_graph.stages}
    assert len(fingerprints) < len(decoder_graph.stages)
    assert cache.hits > 0


def test_pool_shares_isomorphic_stages_like_in_process(tech, library,
                                                      decoder_graph):
    """Later stages of a form wait for its first pool task's entries.

    Without the hold, a pooled wave ships every isomorphic stage before
    any returns, and each solves the same arcs again.
    """
    counts = []
    for workers in (1, 2):
        cache = StageResultCache()
        result = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(workers=workers),
            cache=cache).analyze(decoder_graph)
        counts.append((cache.hits, cache.misses, result.stats.steps))
    assert counts[0][0] > 0
    assert counts[1] == counts[0]


@pytest.mark.parametrize("bits", [2, 3, 4])
def test_in_process_dispatch_follows_topological_order(tech, library,
                                                       bits, monkeypatch):
    """Which isomorphic stage is solved first, and where an nth-armed
    fault lands, follow this order."""
    from repro.analysis import parallel

    graph = extract_stages(builders.decoder_netlist(tech, bits=bits),
                           tech=tech)
    evaluated = []
    evaluate = parallel._evaluate_stage

    def spy(analyzer, stage, *args, **kwargs):
        evaluated.append(stage.name)
        return evaluate(analyzer, stage, *args, **kwargs)

    monkeypatch.setattr(parallel, "_evaluate_stage", spy)
    StaticTimingAnalyzer(tech, library=library,
                         cache=StageResultCache()).analyze(graph)
    assert evaluated == [stage.name
                         for stage in graph.topological_order()]


def test_cache_path_persists_results(tech, library, decoder_graph,
                                     tmp_path):
    store = str(tmp_path / "stage_cache.json")
    first = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(cache=True),
        cache=StageResultCache(path=store))
    cold = first.analyze(decoder_graph)
    assert cold.stats.steps > 0

    reloaded = StageResultCache(path=store)
    assert len(reloaded) > 0
    second = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(cache=True), cache=reloaded)
    warm = second.analyze(decoder_graph)
    assert warm.stats.steps == 0
    assert_same_arrivals(warm, cold)


def test_cache_owns_its_store(tech, library, decoder_graph, tmp_path):
    """A cache with a path is written by every run on it, with no
    execution config; a fresh analyzer on the store then solves
    nothing."""
    store = str(tmp_path / "stage_cache.json")
    cold_cache = StageResultCache(path=store)
    StaticTimingAnalyzer(tech, library=library,
                         cache=cold_cache).analyze(decoder_graph)
    assert cold_cache.misses > 0

    warm_cache = StageResultCache(path=store)
    assert len(warm_cache) == len(cold_cache)
    StaticTimingAnalyzer(tech, library=library,
                         cache=warm_cache).analyze(decoder_graph)
    assert warm_cache.misses == 0
    assert warm_cache.hits == cold_cache.hits + cold_cache.misses


# ----------------------------------------------------------------------
# Canonical stage forms.
# ----------------------------------------------------------------------
def _renamed_inverter(tech, load, prefix):
    """An inverter with all nets/devices renamed (same electrically)."""
    from repro.circuit.netlist import GND_NODE, VDD_NODE, LogicStage

    wn = 2.0 * tech.wmin
    wp = 4.0 * tech.wmin
    stage = LogicStage(f"{prefix}gate", vdd=tech.vdd)
    stage.add_pmos(f"{prefix}P", src=VDD_NODE, snk=f"{prefix}out",
                   gate=f"{prefix}in", w=wp, l=tech.lmin)
    stage.add_nmos(f"{prefix}N", src=f"{prefix}out", snk=GND_NODE,
                   gate=f"{prefix}in", w=wn, l=tech.lmin)
    stage.mark_output(f"{prefix}out")
    stage.set_load(f"{prefix}out", load)
    return stage


def test_canonical_form_ignores_names(tech):
    a = canonical_stage_form(_renamed_inverter(tech, 5e-15, "x_"))
    b = canonical_stage_form(_renamed_inverter(tech, 5e-15, "zz"))
    assert isinstance(a, CanonicalForm)
    assert a.fingerprint == b.fingerprint
    # The canonical ids map different actual names onto the same slots.
    assert a.net_ids["x_out"] == b.net_ids["zzout"]
    assert a.input_ids["x_in"] == b.input_ids["zzin"]


def test_canonical_form_sees_geometry_and_load(tech):
    base = canonical_stage_form(_renamed_inverter(tech, 5e-15, "a"))
    other_load = canonical_stage_form(_renamed_inverter(tech, 9e-15, "a"))
    assert base.fingerprint != other_load.fingerprint

    wide = _renamed_inverter(tech, 5e-15, "a")
    for edge in wide.edges:
        edge.w = edge.w * 2.0
    assert canonical_stage_form(wide).fingerprint != base.fingerprint


def _renamed_copy(stage, prefix):
    """The stage with every net, input and element renamed, built in
    reverse element order."""
    from repro.circuit.elements import DeviceKind
    from repro.circuit.netlist import GND_NODE, VDD_NODE, LogicStage

    def net(name):
        return name if name in (VDD_NODE, GND_NODE) else prefix + name

    copy = LogicStage(prefix + stage.name, vdd=stage.vdd)
    for edge in reversed(stage.edges):
        ends = (prefix + edge.name, net(edge.src.name), net(edge.snk.name))
        if edge.kind is DeviceKind.WIRE:
            copy.add_wire(*ends, w=edge.w, l=edge.l)
            continue
        add = (copy.add_nmos if edge.kind is DeviceKind.NMOS
               else copy.add_pmos)
        add(*ends, gate=prefix + edge.gate_input, w=edge.w, l=edge.l)
    for node in stage.internal_nodes:
        copy.set_load(net(node.name), node.load_cap)
        if node.is_output:
            copy.mark_output(net(node.name))
    return copy, net


def test_canonical_refinement_stops_at_a_stable_partition(tech,
                                                          monkeypatch):
    import repro.analysis.parallel as parallel

    graph = extract_stages(builders.decoder_netlist(tech, bits=3),
                           tech=tech)
    nand3 = next(s for s in graph.stages if s.name == "decoder3.stage3")
    digests = []
    digest = parallel._digest

    def counted(payload):
        digests.append(payload)
        return digest(payload)

    monkeypatch.setattr(parallel, "_digest", counted)
    form = canonical_stage_form(nand3)
    # 3 initial net colors, then one splitting round and one stable
    # round over 3 nets and 3 inputs; all 8 allowed rounds take 51.
    assert len(digests) <= 15

    copy, net = _renamed_copy(nand3, "x_")
    renamed = canonical_stage_form(copy)
    assert renamed.fingerprint == form.fingerprint
    for name, canonical in form.net_ids.items():
        assert renamed.net_ids[net(name)] == canonical
    for name, canonical in form.input_ids.items():
        assert renamed.input_ids["x_" + name] == canonical


def test_fingerprint_depends_on_solver_context(tech, library):
    from repro.core import QWMOptions

    stage = builders.inverter(tech)
    a1 = StaticTimingAnalyzer(tech, library=library)
    a2 = StaticTimingAnalyzer(tech, library=library,
                              options=QWMOptions(waveform_order=1))
    assert stage_fingerprint(stage, a1) != stage_fingerprint(stage, a2)


# ----------------------------------------------------------------------
# Cache mechanics.
# ----------------------------------------------------------------------
def test_cache_lru_eviction(monkeypatch):
    monkeypatch.setattr(StageResultCache, "MAX_ENTRIES", 2)
    cache = StageResultCache()
    k1 = arc_cache_key("fp1", "out", "fall", "a", None)
    k2 = arc_cache_key("fp2", "out", "fall", "a", None)
    k3 = arc_cache_key("fp3", "out", "fall", "a", None)
    cache.put(k1, (1e-12, None))
    cache.put(k2, (2e-12, None))
    assert StageResultCache.found(cache.get(k1))  # refresh k1
    cache.put(k3, (3e-12, None))  # evicts k2 (least recently used)
    assert StageResultCache.found(cache.get(k1))
    assert not StageResultCache.found(cache.get(k2))
    assert StageResultCache.found(cache.get(k3))


def test_cache_stores_negative_results():
    cache = StageResultCache()
    key = arc_cache_key("fp", "out", "rise", "b", 2e-11)
    cache.put(key, None)  # arc proven unsensitizable
    value = cache.get(key)
    assert StageResultCache.found(value)
    assert value is None


def test_cache_roundtrip_json(tmp_path):
    cache = StageResultCache(path=str(tmp_path / "c.json"))
    cache.put(arc_cache_key("fp", "out", "fall", "a", 1e-11),
              (4.2e-11, 6.0e-11, "qwm"))
    cache.put(arc_cache_key("fp", "out", "rise", "a", None), None)
    cache.save()

    other = StageResultCache(path=str(tmp_path / "c.json"))
    assert len(other) == 2
    hit = other.get(arc_cache_key("fp", "out", "fall", "a", 1e-11))
    assert hit == (4.2e-11, 6.0e-11, "qwm")


def test_execution_config_validation():
    with pytest.raises(ValueError):
        ExecutionConfig(workers=0)


def test_engine_reports_dispatch_waves(tech, library, decoder_graph):
    analyzer = StaticTimingAnalyzer(
        tech, library=library,
        execution=ExecutionConfig(workers=2))
    engine = ParallelStaEngine(analyzer, analyzer.execution)
    result = engine.run(decoder_graph)
    assert result.worst is not None
    assert np.isfinite(result.worst.time)
