"""Tests of the benchmark itself, on --smoke sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

They run the real runner end to end (tiny designs, short runs) and check
that it emits what BENCHMARK.json declares, that every wrap point of the
traced round records spans, and that its checks catch a wrong answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import layers  # noqa: E402
import run as suite_run  # noqa: E402

#: Wrap points each workload must exercise in its traced round.
EXERCISED = {
    "sta-cli": ("io.parse", "circuit.extract_stages", "incremental.analyze",
                "sta.analyze", "sta.stage_arc", "resilience.ladder",
                "devices.characterize", "spice.solve_dc",
                "spice.static_residual"),
    "decoder-cached": ("circuit.extract_stages", "parallel.run",
                       "parallel.canonical_form", "sta.analyze",
                       "sta.stage_arc", "resilience.ladder",
                       "devices.characterize", "spice.solve_dc"),
    "paper-stacks": ("spice.transient", "spice.static_residual",
                     "devices.characterize"),
    "decoder-eco": ("circuit.extract_stages", "incremental.analyze",
                    "incremental.edit", "sta.analyze", "sta.stage_arc",
                    "resilience.ladder", "devices.characterize",
                    "spice.solve_dc"),
}
#: Every workload runs QWM.
QWM_POINTS = ("core.evaluate", "core.extract", "core.initial",
              "core.qwm_solve", "core.region_newton", "core.residual",
              "linalg.newton", "linalg.bordered_solve", "devices.iv_query")
#: Their self time lies outside the traced unit (set-up) for most
#: workloads, so the self-time sum leaves them out.
SETUP_METRICS = ("devices.characterize_s", "io.parse.self_s",
                 "circuit.extract_stages.self_s")


def bench(tmp_path, workload: str, *extra: str, seed: int = 0):
    out = tmp_path / f"{workload}-{seed}-{len(extra)}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.5", "--smoke",
         "--out", str(out), *extra],
        cwd=common.ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(out.read_text())["results"][workload]["detail"]
    return last, detail


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {workload: bench(tmp, workload, "--trace", "1")
            for workload in common.WORKLOADS}


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(common.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert spec["paths"] == [os.path.relpath(HERE, common.ROOT)]


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_workload_emits_every_metric(tmp_path, workload):
    last, _ = bench(tmp_path, workload)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} \
        == dict(common.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_traced_round(traced, workload):
    last, detail = traced[workload]
    assert last["correct"]
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    assert {name: m["unit"] for name, m in last["metrics"].items()} \
        == dict(layers.PER_LAYER)
    calls = detail["layer_details"]["span_calls"]
    for point in EXERCISED[workload] + QWM_POINTS:
        assert calls.get(point, 0) >= 1, f"{point} recorded no span"
    if workload == "decoder-cached":
        assert metrics["parallel.cache.hits"] >= 1
    unit_wall = detail["layer_details"]["unit_wall_s"]
    # linalg.newton.{region,dc} split linalg.newton; count it once.
    self_total = sum(value for name, value in metrics.items()
                     if name.endswith("self_s")
                     and name not in SETUP_METRICS
                     and not name.startswith(("linalg.newton.region",
                                              "linalg.newton.dc")))
    assert 0 < self_total <= unit_wall
    assert metrics["trace.glue_pct"] < 5.0


def test_same_seed_repeats_every_count(tmp_path, traced):
    again, _ = bench(tmp_path, "decoder-eco", "--trace", "1")
    first = traced["decoder-eco"][0]["metrics"]
    counts = [name for name, unit in layers.PER_LAYER if unit == "count"]
    assert {n: again["metrics"][n]["value"] for n in counts} \
        == {n: first[n]["value"] for n in counts}


def test_seed_changes_the_deck():
    import worker

    assert worker.sta_cli_deck(0, False) == worker.sta_cli_deck(0, False)
    assert worker.sta_cli_deck(0, False) != worker.sta_cli_deck(2, False)


def test_failed_child_still_ends_with_a_result_line(tmp_path, monkeypatch,
                                                    capsys):
    broken = tmp_path / "broken_worker.py"
    broken.write_text("import sys\nsys.exit(3)\n")
    monkeypatch.setattr(suite_run, "WORKER", str(broken))
    code = suite_run.main(["--workload", "decoder-cached", "--smoke",
                           "--seconds", "0.5"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last == {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}


def test_perturbed_reference_arrival_is_a_failure(monkeypatch):
    values = common.load_reference("sta-cli", 0)
    assert values, "committed sta-cli reference is missing"
    key = max(values, key=values.get)
    perturbed = dict(values, **{key: values[key] * 1.02})

    run = suite_run.Run("sta-cli", 0, 1.0, trace=False, smoke=False)
    run.compare(values, update=False)
    assert (run.attempted, run.failed) == (1, 0)
    monkeypatch.setattr(suite_run, "load_reference",
                        lambda workload, seed: perturbed)
    run.compare(values, update=False)
    assert (run.attempted, run.failed) == (2, 1)
    assert key in run.problems[0]
