"""Tests for the timing reports and the CLI."""

import os
import re
import subprocess
import sys

import pytest

from repro.analysis import IncrementalTimer
from repro.analysis.report import (
    arrival_report,
    corner_report,
    critical_path_report,
    design_summary,
)
from repro.circuit import extract_stages
from repro.cli import main, parse_source_spec
from repro.io import parse_spice_netlist
from repro.spice import ConstantSource, RampSource, StepSource

CHAIN_DECK = """
* two inverters
Mp0 n0 a VDD VDD pmos W=2u L=0.35u
Mn0 n0 a 0 0 nmos W=1u L=0.35u
Mp1 y n0 VDD VDD pmos W=2u L=0.35u
Mn1 y n0 0 0 nmos W=1u L=0.35u
Cy y 0 5f
.input a
.output y
.end
"""

RING_DECK = """
* three inverters in a ring: x0 -> x1 -> x2 -> x0
Mp0 x1 x0 VDD VDD pmos W=2u L=0.35u
Mn0 x1 x0 0 0 nmos W=1u L=0.35u
Mp1 x2 x1 VDD VDD pmos W=2u L=0.35u
Mn1 x2 x1 0 0 nmos W=1u L=0.35u
Mp2 x0 x2 VDD VDD pmos W=2u L=0.35u
Mn2 x0 x2 0 0 nmos W=1u L=0.35u
.output x0
.end
"""

INV_DECK = """
Mp out a VDD VDD pmos W=2u L=0.35u
Mn out a 0 0 nmos W=1u L=0.35u
Cout out 0 5f
.input a
.output out
"""


@pytest.fixture(scope="module")
def sta_result(tech, library):
    netlist = parse_spice_netlist(CHAIN_DECK, tech, "chain")
    graph = extract_stages(netlist, tech=tech)
    timer = IncrementalTimer(tech, graph, library=library)
    return graph, timer.analyze()


class TestReports:
    def test_arrival_report_lists_events(self, sta_result):
        _, result = sta_result
        text = arrival_report(result)
        assert "y" in text and "rise" in text
        assert "primary input" in text

    def test_arrival_report_limit(self, sta_result):
        _, result = sta_result
        text = arrival_report(result, limit=2)
        # header(3) + 2 rows
        assert len(text.splitlines()) == 5

    def test_critical_path_sums(self, sta_result):
        _, result = sta_result
        text = critical_path_report(result)
        assert "data arrival" in text
        assert f"{result.worst.time * 1e12:9.2f} ps" in text

    def test_slack_met_and_violated(self, sta_result):
        _, result = sta_result
        met = critical_path_report(result, required=1e-9)
        assert "MET" in met
        violated = critical_path_report(result, required=1e-12)
        assert "VIOLATED" in violated

    def test_corner_report(self):
        text = corner_report({"tt": 100e-12, "ss": 130e-12,
                              "ff": 80e-12})
        assert "slowest" in text and "fastest" in text
        assert "62.5%" in text  # (130-80)/80

    def test_design_summary(self, sta_result):
        graph, result = sta_result
        text = design_summary(graph, result)
        assert "2 logic stages" in text
        assert "4 transistors" in text

    def test_design_summary_reports_qwm_cost(self, sta_result):
        graph, result = sta_result
        stats = result.stats
        assert stats.steps > 0
        assert stats.newton_iterations >= stats.steps
        assert stats.device_evaluations > 0
        text = design_summary(graph, result)
        assert "QWM cost" in text
        assert f"{stats.steps} regions" in text
        assert f"{stats.newton_iterations} Newton iterations" in text


class TestSourceSpec:
    def test_dc(self):
        name, src = parse_source_spec("a=dc:3.3")
        assert name == "a"
        assert isinstance(src, ConstantSource)
        assert src.value(0) == pytest.approx(3.3)

    def test_step_with_suffixes(self):
        _, src = parse_source_spec("x=step:0:3.3:20p")
        assert isinstance(src, StepSource)
        assert src.value(19e-12) == 0.0
        assert src.value(21e-12) == pytest.approx(3.3)

    def test_ramp(self):
        _, src = parse_source_spec("x=ramp:0:3.3:10p:40p")
        assert isinstance(src, RampSource)
        assert src.value(30e-12) == pytest.approx(3.3 * 0.5)

    @pytest.mark.parametrize("bad", ["noequals", "a=step:1", "a=warp:1:2"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_source_spec(bad)


class TestCli:
    def test_sta_command(self, tmp_path, capsys):
        deck = tmp_path / "chain.sp"
        deck.write_text(CHAIN_DECK)
        code = main(["sta", str(deck), "--required", "500p"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Critical path" in out
        assert "MET" in out

    def test_sta_violated_exit_code(self, tmp_path, capsys):
        deck = tmp_path / "chain.sp"
        deck.write_text(CHAIN_DECK)
        code = main(["sta", str(deck), "--required", "1p"])
        assert code == 1

    def test_simulate_command(self, tmp_path, capsys):
        deck = tmp_path / "inv.sp"
        deck.write_text(INV_DECK)
        code = main(["simulate", str(deck),
                     "--input", "a=step:0:3.3:20p",
                     "--t-stop", "150p", "--no-plot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "50% at" in out

    def test_simulate_plot(self, tmp_path, capsys):
        deck = tmp_path / "inv.sp"
        deck.write_text(INV_DECK)
        code = main(["simulate", str(deck),
                     "--input", "a=step:0:3.3:20p",
                     "--t-stop", "100p", "--width", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "legend" in out

    def test_simulate_rejects_multistage(self, tmp_path, capsys):
        deck = tmp_path / "chain.sp"
        deck.write_text(CHAIN_DECK)
        code = main(["simulate", str(deck), "--no-plot"])
        assert code == 2
        assert "single-stage" in capsys.readouterr().err

    def test_missing_deck(self, capsys):
        code = main(["sta", "/nonexistent/deck.sp"])
        assert code == 2

    def test_sta_rejects_combinational_loop(self, tmp_path, capsys):
        deck = tmp_path / "ring.sp"
        deck.write_text(RING_DECK)
        code = main(["sta", str(deck)])
        assert code == 2
        assert "loop" in capsys.readouterr().err

    def test_sta_imports_neither_scipy_nor_networkx(self):
        # A fresh interpreter: the test run may already have imported
        # scipy.  Nor does a timing run load the code analyzer's rules
        # (the solver options validate themselves).
        script = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['sta', '--bits', '2'])\n"
            "lint = ('repro.lint.rules_solver', 'repro.lint.rules_code',\n"
            "        'repro.lint.callgraph')\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] in ('scipy', 'networkx')\n"
            "                or m in lint)\n"
            "print(code, loaded)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0 []"

    def test_characterize_command(self, capsys):
        code = main(["characterize", "--polarity", "n",
                     "--grid-step", "0.8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n-table" in out
        assert "Ion(n)" in out

    def test_sta_workers_runs_a_process_pool(self, tmp_path, capsys):
        import json as json_mod

        metrics_path = tmp_path / "metrics.json"
        code = main(["--metrics", str(metrics_path), "sta", "--bits", "2",
                     "--workers", "2"])
        capsys.readouterr()
        assert code == 0
        dump = json_mod.loads(metrics_path.read_text())
        series = dump["metrics"]["sta.parallel.dispatch"]["series"]
        # All ten decoder stages go to the pool, none run in-process.
        assert series == [{"labels": {"backend": "process"},
                           "value": 10.0}]

    def test_sta_workers_solve_the_same_arcs(self, capsys):
        reported = []
        for flags in ([], ["--workers", "2"]):
            assert main(["sta", "--bits", "2"] + flags) == 0
            out = capsys.readouterr().out
            reported.append((
                re.search(r"^QWM cost: .*?(?=, [\d.]+ ms solve time$)",
                          out, re.M).group(0),
                re.search(r"^stage cache: .*$", out, re.M).group(0)))
        assert reported[1] == reported[0]

    def test_sta_rejects_the_removed_cache_flag(self, tmp_path):
        # Not taken as an abbreviation of --cache-file, which would
        # overwrite the deck with a cache store.
        deck = tmp_path / "chain.sp"
        deck.write_text(CHAIN_DECK)
        with pytest.raises(SystemExit) as exit_info:
            main(["sta", "--cache", str(deck)])
        assert exit_info.value.code == 2
        assert deck.read_text() == CHAIN_DECK

    @pytest.mark.parametrize("flags,partner", [
        (["--resume"], "journal"),
        (["--workers", "0"], "workers"),
    ], ids=["resume", "workers-0"])
    def test_sta_rejects_flag_without_partner(self, flags, partner,
                                              capsys):
        code = main(["sta", "--bits", "2"] + flags)
        assert code == 2
        assert partner in capsys.readouterr().err

    def test_sta_refuses_a_foreign_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        assert main(["sta", "--bits", "2", "--journal", journal]) == 0
        capsys.readouterr()
        code = main(["sta", "--bits", "3", "--journal", journal,
                     "--resume"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("error: run journal")

    def test_sta_corners_journal_resumes(self, tmp_path, capsys):
        """The journal holds the nominal run, so --resume replays it
        (the corner re-timings neither write nor replay it)."""
        journal = str(tmp_path / "run.jsonl")
        args = ["sta", "--bits", "2", "--corners", "--journal", journal]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "3 replayed on resume" in capsys.readouterr().out

    def test_report_solves_the_arcs_sta_solves(self, capsys):
        import json as json_mod

        assert main(["report", "--bits", "2", "--json"]) == 0
        document = json_mod.loads(capsys.readouterr().out)
        assert round(document["worst_arrival_seconds"] * 1e12, 2) \
            == 167.15
        assert document["worst_event"] == ["w0", "rise"]
        summary = document["summary"]
        # The switch-level screen rules out the base assignment of
        # both NAND2 rise arcs, which is then never solved.
        assert (summary["solves"], summary["regions_solved"],
                summary["events"]) == (8, 97, 240)
        cache = summary["cache_attribution"]
        assert (cache["attributed_arcs"], cache["total_hits"]) == (8, 20)

    def test_report_rejects_the_removed_cache_flag(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--bits", "2", "--cache"])
        assert exit_info.value.code == 2


class TestCliStats:
    """The ``repro stats`` cost-breakdown command."""

    ARGS = ["stats", "--circuit", "nand2", "--grid-step", "0.4"]

    def test_text_breakdown_and_tree(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "QWM cost breakdown: nand2" in out
        assert "regions solved" in out
        assert "newton iterations" in out
        assert "/ region" in out
        assert "sherman-morrison" in out
        assert "wall-time tree" in out
        assert "qwm.solve" in out
        assert "qwm.phase" in out

    def test_json_document(self, capsys):
        import json as json_mod

        code = main(self.ARGS + ["--json"])
        out = capsys.readouterr().out
        assert code == 0
        document = json_mod.loads(out)
        assert document["circuit"] == "nand2"
        stats = document["stats"]
        assert stats["regions"] > 0
        assert stats["newton_iterations"] >= stats["regions"]
        assert stats["device_evaluations"] > 0
        # Cross-check: the histogram saw exactly one observation per
        # region and the device counter matches the stats field.
        metrics = document["metrics"]["metrics"]
        hist = metrics["qwm.newton.iterations"]["series"][0]
        assert hist["count"] == stats["regions"]
        evals = metrics["device.table.evaluations"]["series"][0]
        assert evals["value"] == stats["device_evaluations"]

    def test_audit_characterizes_once(self, capsys):
        """The audit re-solves the arc on the tables it was evaluated
        with, so ``--audit`` characterizes nothing more."""
        import json as json_mod

        documents = []
        for extra in ([], ["--audit"]):
            assert main(self.ARGS + ["--json"] + extra) == 0
            documents.append(json_mod.loads(capsys.readouterr().out))
        plain, audited = documents
        assert plain["characterization_cache"]["miss"] == 1
        assert audited["characterization_cache"]["miss"] == 1
        assert audited["accuracy"]["status"] == "ok"

    def test_deck_input(self, tmp_path, capsys):
        deck = tmp_path / "inv.sp"
        deck.write_text(INV_DECK)
        code = main(["stats", str(deck), "--grid-step", "0.4",
                     "--direction", "rise"])
        out = capsys.readouterr().out
        assert code == 0
        assert "QWM cost breakdown: inv.sp" in out
        assert "(switching a)" in out

    def test_rejects_unknown_input(self, capsys):
        code = main(self.ARGS + ["--input", "zz"])
        assert code == 2
        assert "unknown input" in capsys.readouterr().err

    def test_metrics_and_trace_export(self, tmp_path, capsys):
        import json as json_mod

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main(["--metrics", str(metrics_path),
                     "--trace", str(trace_path)] + self.ARGS)
        capsys.readouterr()
        assert code == 0
        dump = json_mod.loads(metrics_path.read_text())
        hist = dump["metrics"]["qwm.newton.iterations"]["series"][0]
        assert hist["count"] > 0
        evals = dump["metrics"]["device.table.evaluations"]["series"][0]
        assert evals["value"] >= 1
        trace = json_mod.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "qwm.solve" in names
        # The CLI tears telemetry back down after exporting.
        from repro.obs import ledger
        assert not ledger().metrics.enabled
