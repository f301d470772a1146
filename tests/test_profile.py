"""Phase-level cost attribution: the profile view of ``repro.obs.frames``.

Pins down the ledger arithmetic (self vs cumulative time, op
accumulation, merge commutativity), the disabled-mode overhead budget,
the parallel-backend merge contract (process workers agree with the
serial engine bit-for-bit on every operation count), the speedscope /
collapsed-stack exports, and the CLI surfaces (``repro profile``,
``repro stats`` resilience section).
"""

import json
import time

import pytest

from repro.analysis import IncrementalTimer, StaticTimingAnalyzer
from repro.analysis.parallel import ExecutionConfig
from repro.circuit import builders, extract_stages
from repro.cli import main
from repro.obs import ObsConfig, configure, disable
from repro.obs import frames as frames_mod
from repro.obs.frames import (
    LEDGER_FORMAT,
    NOOP_FRAME,
    FrameLedger,
    ProfileConfig,
    configure_profile,
    count,
    disable_profile,
    export_speedscope,
    frame,
    ledger,
    render_profile,
    summarize_profile,
    to_collapsed,
    to_speedscope,
)
from repro.spice import ConstantSource, StepSource


@pytest.fixture(autouse=True)
def _profiler_off():
    """Every test starts and ends with the profile view off."""
    disable_profile()
    yield
    disable_profile()


@pytest.fixture
def prof():
    """The process-wide ledger with the profile view on."""
    return configure_profile(ProfileConfig(enabled=True))


def _cells_by_path(ledger):
    return {tuple(cell["path"]): cell for cell in ledger["cells"]}


class _Clock:
    """A ``perf_counter`` that moves only when the test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Ledger arithmetic
# ----------------------------------------------------------------------
class TestLedger:
    def test_nesting_splits_self_and_cumulative(self, prof, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(frames_mod, "time", clock)
        with frame("outer"):
            clock.advance(0.002)
            with frame("inner"):
                clock.advance(0.005)
        cells = _cells_by_path(prof.profile_json())
        outer = cells[("outer",)]
        inner = cells[("outer", "inner")]
        assert outer["calls"] == 1 and inner["calls"] == 1
        # The child's wall time is excluded from the parent's self time.
        assert inner["self_seconds"] >= 0.004
        assert outer["self_seconds"] < inner["self_seconds"]
        assert outer["self_seconds"] == pytest.approx(0.002)
        assert inner["self_seconds"] == pytest.approx(0.005)
        summary = summarize_profile(prof.profile_json())
        frames = {f["frame"]: f for f in summary["frames"]}
        outer_cum = frames["outer"]["cum_seconds"]
        inner_cum = frames["inner"]["cum_seconds"]
        assert outer_cum >= inner_cum
        assert outer_cum == pytest.approx(
            outer["self_seconds"] + inner["self_seconds"])

    def test_tag_joins_into_frame_label(self, prof):
        with frame("qwm.phase3", "crossing"):
            pass
        assert ("qwm.phase3:crossing",) in _cells_by_path(
            prof.profile_json())

    def test_ops_accumulate_within_a_frame(self, prof):
        with frame("solve") as fr:
            fr.count("newton_iterations", 3)
            fr.count("newton_iterations", 2)
            fr.count("regions")
        ops = _cells_by_path(prof.profile_json())[("solve",)]["ops"]
        assert ops == {"newton_iterations": 5, "regions": 1}

    def test_add_attributes_to_current_frame_or_root(self, prof):
        with frame("outer"):
            count("solves", 2)
        count("cache_hits", root="sta.cache")
        cells = _cells_by_path(prof.profile_json())
        assert cells[("outer",)]["ops"] == {"solves": 2}
        assert cells[("sta.cache",)]["ops"] == {"cache_hits": 1}

    def test_merge_is_commutative(self, prof):
        def payload(n):
            with frame("a") as fr:
                fr.count("x", n)
                with frame("b"):
                    count("y", n)
            return prof.profile_json(drain=True)

        one, two = payload(1), payload(2)
        ab, ba = FrameLedger(), FrameLedger()
        for merged in (ab, ba):
            merged.set_profile(ProfileConfig(enabled=True))
        ab.merge_profile(one), ab.merge_profile(two)
        ba.merge_profile(two), ba.merge_profile(one)
        assert ab.profile_json() == ba.profile_json()
        merged = _cells_by_path(ab.profile_json())
        assert merged[("a",)]["ops"] == {"x": 3}
        assert merged[("a", "b")]["ops"] == {"y": 3}
        assert merged[("a",)]["calls"] == 2

    def test_merge_lands_under_the_open_frame(self, prof):
        with frame("task") as fr:
            fr.count("x")
        delta = prof.profile_json(drain=True)
        with frame("analyze"):
            prof.merge_profile(delta)
        assert set(_cells_by_path(prof.profile_json())) == {
            ("analyze",), ("analyze", "task")}

    def test_drain_snapshots_and_resets(self, prof):
        with frame("a"):
            pass
        first = prof.profile_json(drain=True)
        assert first["format"] == LEDGER_FORMAT
        assert len(first["cells"]) == 1
        assert prof.profile_stats() == {"cells": 0, "dropped": 0}
        assert prof.profile_json(drain=True)["cells"] == []

    def test_max_cells_cap_counts_drops(self):
        prof = configure_profile(ProfileConfig(enabled=True, max_cells=2))
        for root in ("a", "b", "c", "d"):
            count("x", root=root)
        stats = prof.profile_stats()
        assert stats["cells"] == 2
        assert stats["dropped"] == 2
        assert prof.profile_json()["dropped_cells"] == 2

    def test_summary_of_a_live_ledger_reports_dropped_cells(self):
        prof = configure_profile(ProfileConfig(enabled=True, max_cells=1))
        for name in ("a", "b"):
            with frame(name):
                pass
        assert prof.profile_stats()["dropped"] == 1
        summary = summarize_profile(prof)
        assert summary["dropped_cells"] == 1
        assert "1 cell(s) dropped" in render_profile(summary)

    def test_disabled_helpers_are_noops(self):
        assert not ledger().profiling
        assert frame("x", "y") is NOOP_FRAME
        with frame("x") as fr:
            fr.count("op")
        count("op")
        assert ledger().profile_stats() == {"cells": 0, "dropped": 0}


# ----------------------------------------------------------------------
# Overhead budget: <1% of a solve with the profiler off.
# ----------------------------------------------------------------------
def _nand3_sources(tech):
    sources = {"a0": StepSource(0.0, tech.vdd, 0.0)}
    for name in ("a1", "a2"):
        sources[name] = ConstantSource(tech.vdd)
    return sources


def test_disabled_overhead_under_one_percent(tech, evaluator):
    """Disabled profiler hooks cost < 1% of a NAND3 solve.

    Same arithmetic-budget style as the telemetry overhead test:
    (per-call cost of the disabled helpers) x (a generous over-estimate
    of hook sites per solve) against the solve's own wall time.  Both
    are the minimum of interleaved repeats, so that a burst of host
    load inflates neither alone.
    """
    n_calls = 20000
    stage = builders.nand_gate(tech, 3)
    per_op = wall_time = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n_calls):
            with frame("x", "y"):
                pass
            count("op")
        per_op = min(per_op, (time.perf_counter() - start) / n_calls)
        solution = evaluator.evaluate(stage, output="out",
                                      direction="fall",
                                      inputs=_nand3_sources(tech))
        wall_time = min(wall_time, solution.stats.wall_time)

    stats = solution.stats
    # Hook sites per solve: one frame + ~4 counts per region,
    # one add per Newton iteration, a fixed handful elsewhere — then
    # doubled for margin.
    ops = 2 * (5 * stats.steps + stats.newton_iterations + 20)
    overhead = ops * per_op
    assert overhead < 0.01 * wall_time + 1e-4, (
        f"disabled profiler overhead {overhead * 1e6:.1f}us vs "
        f"solve {wall_time * 1e6:.1f}us")


# ----------------------------------------------------------------------
# Parallel-backend merging: workers change scheduling, never the counts.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def decoder_graph(tech):
    return extract_stages(builders.decoder_netlist(tech, bits=2),
                          tech=tech)


def _profiled_op_totals(tech, library, graph, workers):
    """Operation counts per frame path for one profiled analysis.

    Device characterization subtrees are excluded: process workers
    re-characterize in their own address space while the warm serial
    library never does, so those frames differ by construction. Every
    solver-side count must still agree bit-for-bit.
    """
    prof = configure_profile(ProfileConfig(enabled=True))
    try:
        analyzer = StaticTimingAnalyzer(
            tech, library=library,
            execution=ExecutionConfig(workers=workers))
        analyzer.analyze(graph)
        document = prof.profile_json(drain=True)
    finally:
        disable_profile()
    totals = {}
    for cell in document["cells"]:
        path = tuple(cell["path"])
        if any(label.startswith("device.characterize")
               for label in path):
            continue
        for op, amount in cell["ops"].items():
            totals[path + (op,)] = totals.get(path + (op,), 0) + amount
    return totals


def test_engine_extract_and_initial_once_per_evaluate(tech, library,
                                                     decoder_graph):
    """Path extraction and the initial state are their own phases.

    Every ``engine.evaluate`` frame of a profiled decoder STA holds one
    ``engine.extract`` and one ``engine.initial:dc`` child (STA arcs
    start from the DC pre-state), whether the pre-state was solved or
    came from the evaluator's memo.
    """
    prof = configure_profile(ProfileConfig(enabled=True))
    try:
        StaticTimingAnalyzer(tech, library=library).analyze(decoder_graph)
        document = prof.profile_json(drain=True)
    finally:
        disable_profile()
    calls = {}
    for cell in document["cells"]:
        path = tuple(cell["path"])
        if path[-1].startswith("engine.evaluate:"):
            calls[path] = calls.get(path, 0) + cell["calls"]
    assert calls
    cells = _cells_by_path(document)
    for path, evaluates in calls.items():
        assert cells[path + ("engine.extract",)]["calls"] == evaluates
        assert cells[path + ("engine.initial:dc",)]["calls"] == evaluates


def test_evaluate_self_time_is_attributed(tech, library):
    """``engine.evaluate`` leaves under 5% of a decoder STA unattributed.

    Its self time is what no child phase (extraction, initial state,
    QWM solve) claims; a cached 3-bit decoder analyzed in-process must
    spend nearly all of its profiled time in named phases.
    """
    graph = extract_stages(builders.decoder_netlist(tech, bits=3),
                           tech=tech)
    prof = configure_profile(ProfileConfig(enabled=True))
    try:
        IncrementalTimer(tech, graph, library=library).analyze()
        summary = summarize_profile(prof.profile_json(drain=True))
    finally:
        disable_profile()
    unattributed = sum(row["self_seconds"] for row in summary["frames"]
                       if row["frame"].startswith("engine.evaluate:"))
    assert unattributed > 0.0
    assert unattributed < 0.05 * summary["total_seconds"], (
        f"engine.evaluate self time {unattributed * 1e3:.3f} ms of "
        f"{summary['total_seconds'] * 1e3:.3f} ms profiled")


def test_trace_and_profile_name_the_same_frames(tech, library,
                                                decoder_graph):
    """Both views of one serial decoder STA show the same frame tree.

    Every span name is a profile leaf label with its ``:tag`` removed
    and vice versa: each instrumented site opens one frame, and the
    frame feeds both views.
    """
    configure(ObsConfig(enabled=True))
    prof = configure_profile(ProfileConfig(enabled=True))
    try:
        StaticTimingAnalyzer(tech, library=library).analyze(decoder_graph)
        spans = {record.name for record in prof.spans()}
        leaves = {cell["path"][-1].partition(":")[0]
                  for cell in prof.profile_json()["cells"]}
    finally:
        disable()
    assert {"sta.analyze", "sta.arc", "qwm.phase12"} <= spans
    assert spans == leaves


def test_process_backend_counts_match_serial_and_repeat(
        tech, library, decoder_graph):
    """Process-pool ledgers merge to the serial counts, repeatably.

    Workers drain one delta per task and ship it with the payload; the
    parent merges it cell-wise under its open ``sta.analyze`` frame, so
    the paths match the serial run's and the totals do not depend on
    worker scheduling — two process runs and a serial run must agree on
    every operation count exactly.
    """
    serial = _profiled_op_totals(tech, library, decoder_graph, 1)
    first = _profiled_op_totals(tech, library, decoder_graph, 2)
    second = _profiled_op_totals(tech, library, decoder_graph, 2)
    assert serial, "serial run recorded no profiled operations"
    assert any(path[-1] == "newton_iterations" for path in serial)
    assert first == serial
    assert second == first


# ----------------------------------------------------------------------
# Exports: collapsed stacks and speedscope JSON.
# ----------------------------------------------------------------------
#: Minimal structural schema for speedscope's file format (the subset
#: the exporter emits); validated with jsonschema when available and
#: by hand below either way.
SPEEDSCOPE_SCHEMA = {
    "type": "object",
    "required": ["$schema", "shared", "profiles"],
    "properties": {
        "$schema": {
            "const": "https://www.speedscope.app/file-format-schema.json"},
        "shared": {
            "type": "object",
            "required": ["frames"],
            "properties": {
                "frames": {
                    "type": "array",
                    "items": {"type": "object",
                              "required": ["name"],
                              "properties": {"name": {"type": "string"}}},
                },
            },
        },
        "profiles": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["type", "name", "unit", "startValue",
                             "endValue", "samples", "weights"],
                "properties": {
                    "type": {"const": "sampled"},
                    "unit": {"const": "seconds"},
                    "samples": {"type": "array",
                                "items": {"type": "array",
                                          "items": {"type": "integer"}}},
                    "weights": {"type": "array",
                                "items": {"type": "number"}},
                },
            },
        },
        "activeProfileIndex": {"type": "integer"},
        "exporter": {"type": "string"},
    },
}


def _sample_ledger():
    prof = configure_profile(ProfileConfig(enabled=True))
    with frame("sta.arc", "nand2"):
        with frame("engine.evaluate", "nand2") as fr:
            fr.count("regions", 4)
            time.sleep(0.002)
        time.sleep(0.001)
    return prof.profile_json()


class TestExports:
    def test_speedscope_structure(self):
        doc = to_speedscope(_sample_ledger(), name="unit")
        frames = doc["shared"]["frames"]
        profile = doc["profiles"][0]
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json")
        assert doc["activeProfileIndex"] == 0
        assert doc["exporter"] == "repro.obs.profile"
        assert all(isinstance(f["name"], str) for f in frames)
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert profile["startValue"] == 0
        assert len(profile["samples"]) == len(profile["weights"])
        assert len(profile["samples"]) > 0
        for stack in profile["samples"]:
            assert stack, "empty sample stack"
            assert all(0 <= idx < len(frames) for idx in stack)
        assert profile["endValue"] == pytest.approx(
            sum(profile["weights"]))
        assert all(w >= 0 for w in profile["weights"])

    def test_speedscope_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_speedscope(_sample_ledger()),
                            SPEEDSCOPE_SCHEMA)

    def test_export_speedscope_round_trip(self, tmp_path):
        path = tmp_path / "profile.speedscope.json"
        export_speedscope(_sample_ledger(), str(path), name="unit")
        doc = json.loads(path.read_text())
        assert doc["profiles"][0]["name"] == "unit"
        stacks = {tuple(frame["name"] for frame in
                        (doc["shared"]["frames"][i] for i in stack))
                  for stack in doc["profiles"][0]["samples"]}
        assert ("sta.arc:nand2", "engine.evaluate:nand2") in stacks

    def test_collapsed_stacks_format(self):
        text = to_collapsed(_sample_ledger())
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) >= 0
        assert any(line.startswith("sta.arc:nand2;engine.evaluate:nand2 ")
                   for line in lines)

    def test_summary_render_and_self_seconds(self):
        ledger = _sample_ledger()
        summary = summarize_profile(ledger)
        text = render_profile(summary, top=5)
        assert "engine.evaluate:nand2" in text
        self_times = {row["frame"]: row["self_seconds"]
                      for row in summary["frames"]}
        assert set(self_times) == {
            "sta.arc:nand2", "engine.evaluate:nand2"}
        assert summary["total_seconds"] == pytest.approx(
            sum(self_times.values()))


# ----------------------------------------------------------------------
# CLI surfaces.
# ----------------------------------------------------------------------
INV_DECK = """
Mp out a VDD VDD pmos W=2u L=0.35u
Mn out a 0 0 nmos W=1u L=0.35u
Cout out 0 5f
.input a
.output out
"""


class TestCli:
    def test_profile_circuit_json_and_exports(self, tmp_path, capsys):
        scope = tmp_path / "prof.speedscope.json"
        collapsed = tmp_path / "prof.collapsed"
        code = main(["profile", "--circuit", "inverter",
                     "--grid-step", "0.4", "--json",
                     "--speedscope", str(scope),
                     "--collapsed", str(collapsed)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ledger"]["format"] == LEDGER_FORMAT
        frames = [f["frame"] for f in doc["summary"]["frames"]]
        assert any("engine.evaluate" in frame for frame in frames)
        assert any("qwm.phase" in frame for frame in frames)
        assert json.loads(scope.read_text())["profiles"]
        assert collapsed.read_text().strip()
        # The subcommand owns its profile lifecycle: off afterwards.
        assert not ledger().profiling

    def test_profile_text_report(self, capsys):
        code = main(["profile", "--circuit", "inverter",
                     "--grid-step", "0.4", "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload: inverter" in out
        assert "self" in out and "engine.evaluate:inv" in out

    @pytest.mark.parametrize("direction,polarity",
                             [("fall", "n"), ("rise", "p")])
    def test_profile_repeat_characterizes_once(self, capsys, direction,
                                               polarity):
        """``--repeat`` reuses one library: the arc's pull-path table
        is characterized once, not once per repeat."""
        code = main(["profile", "--circuit", "inverter",
                     "--direction", direction, "--grid-step", "0.4",
                     "--repeat", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        characterized = {}
        for cell in doc["ledger"]["cells"]:
            label = cell["path"][-1]
            if label.startswith("device.characterize"):
                characterized[label] = (characterized.get(label, 0)
                                        + cell["calls"])
        assert characterized == {f"device.characterize:{polarity}": 1}
        evaluates = sum(cell["calls"] for cell in doc["ledger"]["cells"]
                        if cell["path"][-1].startswith("engine.evaluate"))
        assert evaluates == 3

    def test_global_profile_flag_writes_speedscope(self, tmp_path,
                                                   capsys):
        deck = tmp_path / "inv.sp"
        deck.write_text(INV_DECK)
        scope = tmp_path / "run.speedscope.json"
        code = main(["--profile", str(scope), "stats", str(deck),
                     "--grid-step", "0.4"])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(scope.read_text())
        assert doc["profiles"][0]["samples"]
        assert not ledger().profiling

    def test_stats_reports_resilience_ladder(self, tmp_path, capsys):
        from repro.resilience.ladder import QUALITY_ORDER

        deck = tmp_path / "inv.sp"
        deck.write_text(INV_DECK)
        assert main(["stats", str(deck), "--grid-step", "0.4"]) == 0
        assert "ladder escalations" in capsys.readouterr().out
        assert main(["stats", str(deck), "--grid-step", "0.4",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["resilience"]["escalations"]) == set(QUALITY_ORDER)
        assert set(doc["resilience"]["arc_quality"]) == set(QUALITY_ORDER)
