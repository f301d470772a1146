"""Tests for the telemetry subsystem (repro.obs)."""

import json
import threading
import time

import pytest

from repro.circuit import builders
from repro.obs import (
    NOOP_FRAME,
    MetricsRegistry,
    ObsConfig,
    ProfileConfig,
    configure,
    configure_profile,
    disable,
    disable_profile,
    format_span_tree,
    frame,
    inc,
    ledger,
    observe,
    set_gauge,
)
from repro.obs import frames as frames_mod
from repro.obs.flight import FlightConfig
from repro.obs.metrics import ITERATION_BUCKETS
from repro.spice import StepSource


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with both frame views off."""
    disable()
    disable_profile()
    yield
    disable()
    disable_profile()


@pytest.fixture
def tracing():
    """The trace view on (the process-wide ledger)."""
    configure(ObsConfig(enabled=True))
    return ledger()


class TestConfig:
    def test_defaults_disabled(self):
        config = ObsConfig()
        assert not config.enabled

    def test_rejects_non_positive_bounds(self):
        # The trace and series caps are module constants; the settable
        # bounds are the profile's cell cap and the flight's event limit.
        with pytest.raises(ValueError):
            ProfileConfig(max_cells=0)
        with pytest.raises(ValueError):
            FlightConfig(event_limit=0)


class TestTracer:
    def test_nesting_assigns_parents(self, tracing):
        with frame("outer"):
            with frame("inner"):
                pass
        inner, outer = sorted(tracing.spans(), key=lambda r: r.name)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_sibling_spans_share_parent(self, tracing):
        with frame("root"):
            with frame("a"):
                pass
            with frame("b"):
                pass
        by_name = {r.name: r for r in tracing.spans()}
        assert by_name["a"].parent_id == by_name["root"].span_id
        assert by_name["b"].parent_id == by_name["root"].span_id

    def test_timing_is_monotone(self, tracing):
        with frame("outer"):
            with frame("inner"):
                time.sleep(0.003)
        by_name = {r.name: r for r in tracing.spans()}
        assert by_name["inner"].duration >= 0.003
        assert by_name["outer"].duration >= by_name["inner"].duration

    def test_attrs_at_entry_and_via_set(self, tracing):
        with frame("work", "tagged", k=3) as fr:
            fr.set(result="ok")
        (record,) = tracing.spans()
        assert record.name == "work"
        assert record.attrs == {"k": 3, "tag": "tagged", "result": "ok"}

    def test_disabled_returns_shared_noop(self):
        assert frame("x") is NOOP_FRAME
        with frame("x") as fr:
            fr.set(ignored=True)
            fr.count("ignored")
        assert ledger().spans() == []

    def test_limit_drops_and_counts(self, tracing, monkeypatch):
        monkeypatch.setattr(frames_mod, "TRACE_LIMIT", 2)
        for _ in range(5):
            with frame("s"):
                pass
        assert tracing.trace_stats() == {"recorded": 2, "dropped": 3}

    def test_threads_get_independent_stacks(self, tracing):
        def worker():
            with frame("threaded"):
                pass

        with frame("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        by_name = {r.name: r for r in tracing.spans()}
        # The other thread's span must NOT parent under main's root.
        assert by_name["threaded"].parent_id is None

    def test_chrome_export_round_trip(self, tracing, tmp_path):
        with frame("qwm.phase3", "crossing", k=2):
            pass
        path = tracing.export_chrome(str(tmp_path / "trace.json"))
        document = json.loads(open(path).read())
        (event,) = document["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "qwm.phase3"
        assert event["cat"] == "qwm"
        assert event["args"] == {"k": 2, "tag": "crossing"}
        assert event["dur"] >= 0.0

    def test_format_span_tree_merges_siblings(self, tracing):
        with frame("solve"):
            for _ in range(3):
                with frame("region"):
                    pass
        text = format_span_tree(tracing.spans())
        assert "solve" in text
        assert "region x3" in text
        assert "ms" in text


class TestViews:
    """One frame stack, two views: switching one keeps the other."""

    def test_frame_feeds_both_views(self, tracing):
        configure_profile(ProfileConfig(enabled=True))
        with frame("outer", "a") as fr:
            fr.count("ops", 2)
            with frame("inner"):
                pass
        assert {r.name for r in tracing.spans()} == {"outer", "inner"}
        cells = {tuple(c["path"]): c
                 for c in tracing.profile_json()["cells"]}
        assert set(cells) == {("outer:a",), ("outer:a", "inner")}
        assert cells[("outer:a",)]["ops"] == {"ops": 2}

    def test_disabling_one_view_keeps_the_other(self, tracing):
        configure_profile(ProfileConfig(enabled=True))
        with frame("work"):
            pass
        disable()
        assert not tracing.tracing and tracing.profiling
        assert [c["path"] for c in tracing.profile_json()["cells"]] \
            == [["work"]]
        configure(ObsConfig(enabled=True))
        with frame("work"):
            pass
        disable_profile()
        assert tracing.tracing and not tracing.profiling
        assert [r.name for r in tracing.spans()] == ["work"]

    def test_interval_is_traced_off_the_stack(self, tracing):
        configure_profile(ProfileConfig(enabled=True))
        with frame("run"):
            first = frames_mod.interval("wave", index=0)
            second = frames_mod.interval("wave", index=1)
            with frame("task"):
                pass
            first.close()
            second.close()
        by_name = {}
        for record in tracing.spans():
            by_name.setdefault(record.name, []).append(record)
        run = by_name["run"][0]
        # Overlapping intervals parent on the open frame, never on each
        # other, and the frame under them keeps a well-nested path.
        assert [w.parent_id for w in by_name["wave"]] == [run.span_id] * 2
        assert by_name["task"][0].parent_id == run.span_id
        paths = {tuple(c["path"]) for c in tracing.profile_json()["cells"]}
        assert paths == {("run",), ("run", "task")}


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="up"):
            registry.counter("a").inc(-1)

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("cache")
        counter.inc(result="hit")
        counter.inc(result="hit")
        counter.inc(result="miss")
        assert counter.value(result="hit") == 2
        assert counter.value(result="miss") == 1
        assert counter.total() == 3

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("speedup")
        gauge.set(10.0)
        gauge.set(31.6)
        assert gauge.value() == pytest.approx(31.6)

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 10.0, 99.0):
            hist.observe(value)
        snap = hist.snapshot()
        # le=1 gets 0.5 and 1.0 (boundary inclusive), le=5 gets 3.0,
        # le=10 gets 10.0, +Inf gets 99.0.
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(113.5)

    def test_histogram_rejects_bad_buckets(self):
        from repro.obs.metrics import Histogram

        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            Histogram(registry, "h1", "", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=(3.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h3", buckets=(1.0, float("inf")))
        # Empty buckets through the registry mean "use the defaults".
        hist = registry.histogram("h4", buckets=())
        assert hist.buckets == ITERATION_BUCKETS

    def test_catalog_supplies_buckets_and_help(self):
        registry = MetricsRegistry()
        hist = registry.histogram("qwm.newton.iterations")
        assert hist.buckets == ITERATION_BUCKETS
        assert "Newton" in hist.help

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="registered as counter"):
            registry.histogram("x")

    def test_label_cardinality_cap(self):
        registry = MetricsRegistry(max_series=2)
        counter = registry.counter("c")
        for i in range(5):
            counter.inc(series=i)
        assert len(counter.labelsets()) == 2
        assert registry.dropped_series == 3
        # Established series still accept observations.
        counter.inc(series=0)
        assert counter.value(series=0) == 2

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        registry.gauge("g").set(5.0)
        assert registry.counter("c").value() == 0
        assert registry.histogram("h").snapshot() is None

    def test_json_dump_and_file_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("evals").inc(7)
        registry.histogram("iters", buckets=(1.0, 2.0)).observe(1.5)
        path = registry.export_json(str(tmp_path / "metrics.json"))
        document = json.loads(open(path).read())
        assert document["metrics"]["evals"]["series"][0]["value"] == 7
        hist = document["metrics"]["iters"]["series"][0]
        assert hist["counts"] == [0, 1, 0]
        assert document["dropped_series"] == 0

    def test_reset_clears_everything(self):
        registry = MetricsRegistry(max_series=1)
        registry.counter("c").inc(a=1)
        registry.counter("c").inc(a=2)  # dropped
        registry.reset()
        assert registry.names() == []
        assert registry.dropped_series == 0

    @staticmethod
    def _drained(hits, iterations, entries):
        """A drained worker registry: counter, histogram and gauge."""
        registry = MetricsRegistry()
        registry.counter("sta.cache").inc(hits, result="hit")
        for value in iterations:
            registry.histogram("qwm.newton.iterations").observe(value)
        registry.gauge("sta.cache.entries").set(entries)
        document = registry.drain()
        assert registry.names() == []
        return document

    def test_drain_and_merge_add_in_either_order(self):
        a = self._drained(2, (1.0, 4.0), 7)
        b = self._drained(3, (4.0, 40.0, 60.0), 9)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(a)
        ab.merge(b)
        ba.merge(b)
        ba.merge(a)
        assert ab.to_json() == ba.to_json()
        # Counters and histogram buckets, sums and counts add.
        assert ab.counter("sta.cache").value(result="hit") == 5
        snap = ab.histogram("qwm.newton.iterations").snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(109.0)
        assert snap["counts"] == [1, 0, 0, 2, 0, 0, 0, 0, 1, 1]
        # Gauges describe the process that set them: skipped.
        assert ab.get("sta.cache.entries") is None


class TestModuleHelpers:
    def test_disabled_helpers_record_nothing(self):
        assert frame("anything") is NOOP_FRAME
        inc("c")
        observe("h", 1.0)
        set_gauge("g", 1.0)
        assert ledger().metrics.names() == []
        assert ledger().spans() == []

    def test_configure_swaps_bundle(self):
        first = configure(ObsConfig(enabled=True))
        assert ledger() is first
        with frame("x"):
            inc("c")
        assert first.metrics.names() == ["c"]
        second = disable()
        assert ledger() is second
        assert not second.metrics.enabled
        # A new registry starts empty; recording stopped.
        inc("c")
        assert second.metrics.names() == []

    def test_telemetry_export_helpers(self, tmp_path):
        led = configure(ObsConfig(enabled=True))
        with frame("s"):
            inc("c", 4)
        trace_path = led.export_chrome(str(tmp_path / "t.json"))
        metrics_path = led.metrics.export_json(str(tmp_path / "m.json"))
        assert json.loads(open(trace_path).read())["traceEvents"]
        dump = json.loads(open(metrics_path).read())
        assert dump["metrics"]["c"]["series"][0]["value"] == 4


def _nand3_sources(tech):
    sources = {"a0": StepSource(0.0, tech.vdd, 0.0)}
    sources.update({f"a{i}": tech.vdd for i in (1, 2)})
    return sources


class TestSolverIntegration:
    def test_nand3_metrics_match_solution_stats(self, tech, evaluator):
        stage = builders.nand_gate(tech, 3)
        led = configure(ObsConfig(enabled=True))
        try:
            solution = evaluator.evaluate(
                stage, output="out", direction="fall",
                inputs=_nand3_sources(tech))
            registry = led.metrics
            hist = registry.get("qwm.newton.iterations").snapshot()
            assert hist["count"] == solution.stats.steps
            evals = registry.get("device.table.evaluations").total()
            assert evals == solution.stats.device_evaluations
            assert evals >= 1
            solves = registry.get("linalg.solve.sherman_morrison")
            assert solves.total() > 0
            names = {r.name for r in ledger().spans()}
            assert {"engine.evaluate", "qwm.solve", "qwm.phase12",
                    "qwm.phase3"} <= names
        finally:
            disable()

    def test_device_evaluations_counted_incrementally(self, tech,
                                                      evaluator):
        """Satellite check: stats come from the table's own counter."""
        stage = builders.nand_gate(tech, 3)
        tables = {evaluator.library.get("n"), evaluator.library.get("p")}
        before = sum(t.query_count for t in tables)
        solution = evaluator.evaluate(stage, output="out",
                                      direction="fall",
                                      inputs=_nand3_sources(tech))
        after = sum(t.query_count for t in tables)
        assert solution.stats.device_evaluations == after - before
        assert solution.stats.device_evaluations > 0

    def test_disabled_overhead_under_budget(self, tech, evaluator):
        """Disabled-mode instrumentation costs <5% of a NAND3 solve.

        Measured as (per-call cost of the disabled helpers) x (a
        generous over-estimate of instrumentation call sites per
        solve), against the solve's own wall time.
        """
        n_calls = 20000
        start = time.perf_counter()
        for _ in range(n_calls):
            with frame("x"):
                pass
            inc("c")
            observe("h", 1.0)
        per_op = (time.perf_counter() - start) / n_calls

        stage = builders.nand_gate(tech, 3)
        solution = evaluator.evaluate(stage, output="out",
                                      direction="fall",
                                      inputs=_nand3_sources(tech))
        stats = solution.stats
        # Call sites per solve: one frame+2 observes+2 incs per region,
        # one inc per Newton iteration (linalg), plus a fixed handful —
        # then doubled for margin.
        ops = 2 * (6 * stats.steps + stats.newton_iterations + 20)
        overhead = ops * per_op
        assert overhead < 0.05 * stats.wall_time, (
            f"disabled telemetry overhead {overhead * 1e6:.1f}us vs "
            f"solve {stats.wall_time * 1e6:.1f}us")


class TestTraceDropVisibility:
    def test_dropped_spans_feed_counter_and_tree_footer(self, tracing,
                                                        monkeypatch):
        monkeypatch.setattr(frames_mod, "TRACE_LIMIT", 2)
        for _ in range(5):
            with frame("s"):
                pass
        assert tracing.trace_stats() == {"recorded": 2, "dropped": 3}
        metrics = ledger().metrics
        assert metrics.counter("obs.trace.dropped").value() == 3
        text = format_span_tree(tracing.spans(),
                                dropped=tracing.trace_stats()["dropped"])
        assert "trace truncated: 3 spans dropped" in text

    def test_no_footer_when_nothing_dropped(self, tracing):
        with frame("s"):
            pass
        text = format_span_tree(tracing.spans(), dropped=0)
        assert "truncated" not in text


# ----------------------------------------------------------------------
# Pool workers ship their metric series home with each task's delta.
# ----------------------------------------------------------------------
#: Series a pooled run legitimately reports differently: the dispatch
#: counter's ``backend`` label.
POOL_DEPENDENT_SERIES = ("sta.parallel.dispatch",)


def _series_values(path):
    """(metric, labels) -> counter/gauge value or histogram count."""
    values = {}
    for name, metric in json.loads(open(path).read())["metrics"].items():
        if name in POOL_DEPENDENT_SERIES:
            continue
        for series in metric["series"]:
            key = (name, tuple(sorted(series["labels"].items())))
            values[key] = series.get("count", series.get("value"))
    return values


def test_pooled_run_reports_the_serial_metrics(tmp_path, capsys):
    from repro.cli import main

    serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
    assert main(["--metrics", str(serial), "sta", "--bits", "2"]) == 0
    assert main(["--metrics", str(pooled), "sta", "--bits", "2",
                 "--workers", "2"]) == 0
    capsys.readouterr()
    expected = _series_values(serial)
    assert ("qwm.solves", ()) in expected
    assert _series_values(pooled) == expected
