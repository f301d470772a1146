"""The ``repro lint`` CLI subcommand."""

import json

from repro.cli import main

BROKEN_DECK = """
* deliberately broken deck
M1 out a mid VDD pmos W=2u L=0.35u
M2 mid b 0 0 nmos W=0 L=0.35u
M3 f1 f2 f3 0 nmos W=1u L=0.35u
Rw1 isl_a isl_b 100
.output out
"""

NAND3_DECK = """
* clean 3-input NAND
.input a b c
M1 out a VDD VDD pmos W=4u L=0.35u
M2 out b VDD VDD pmos W=4u L=0.35u
M3 out c VDD VDD pmos W=4u L=0.35u
M4 out a n1 0 nmos W=6u L=0.35u
M5 n1 b n2 0 nmos W=6u L=0.35u
M6 n2 c 0 0 nmos W=6u L=0.35u
.output out
"""

DANGLING_DECK = """
.input a
Mp out a VDD VDD pmos W=2u L=0.35u
Mn out a 0 0 nmos W=1u L=0.35u
Rf lone1 lone2 100
.output out
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_broken_deck_reports_multiple_rules(tmp_path, capsys):
    code = main(["lint", write(tmp_path, "broken.sp", BROKEN_DECK)])
    out = capsys.readouterr().out
    assert code == 1
    hits = {line.split()[1] for line in out.splitlines()
            if line.startswith(("error", "warning", "info"))}
    assert {"ERC001-floating-gate", "ERC004-nonpositive-geometry",
            "ERC003-pole-unreachable"} <= hits
    assert len(hits) >= 3
    # Every diagnostic carries a location.
    assert "at netlist:broken.sp" in out


def test_clean_nand3_deck_exits_zero(tmp_path, capsys):
    code = main(["lint", write(tmp_path, "nand3.sp", NAND3_DECK)])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean: no diagnostics" in out


def test_chain_deck_from_cli_suite_is_clean(tmp_path, capsys):
    from tests.test_cli_and_report import CHAIN_DECK

    code = main(["lint", write(tmp_path, "chain.sp", CHAIN_DECK)])
    assert code == 0


def test_json_golden(tmp_path, capsys):
    # The undriven wire pair is partitioned into its own (broken) stage,
    # so both the netlist-level and the stage-level views report it.
    code = main(["lint", write(tmp_path, "dangle.sp", DANGLING_DECK),
                 "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data == {
        "schema_version": 2,
        "diagnostics": [
            {
                "rule": "ERC003-pole-unreachable",
                "severity": "error",
                "message": "node 'lone1' unreachable from the poles",
                "location": {"scope": "stage",
                             "container": "dangle.sp.stage0",
                             "element": "lone1"},
                "hint": "connect the island to the stage's pull "
                        "network",
            },
            {
                "rule": "ERC003-pole-unreachable",
                "severity": "error",
                "message": "node 'lone2' unreachable from the poles",
                "location": {"scope": "stage",
                             "container": "dangle.sp.stage0",
                             "element": "lone2"},
                "hint": "connect the island to the stage's pull "
                        "network",
            },
            {
                "rule": "ERC005-missing-output",
                "severity": "error",
                "message": "stage has no marked outputs",
                "location": {"scope": "stage",
                             "container": "dangle.sp.stage0",
                             "element": None},
                "hint": "mark_output() the stage's observable node",
            },
            {
                "rule": "INT002-disconnected-rc",
                "severity": "warning",
                "message": "wire island {lone1, lone2} (1 segment(s)) "
                           "connects to no transistor",
                "location": {"scope": "netlist",
                             "container": "dangle.sp",
                             "element": "lone1"},
                "hint": "connect the wires to a driving stage or "
                        "delete them",
            },
        ],
        "summary": {"errors": 3, "warnings": 1, "infos": 0,
                    "rules_checked": 31},
    }


def test_disable_flag(tmp_path, capsys):
    deck = write(tmp_path, "dangle.sp", DANGLING_DECK)
    code = main(["lint", deck, "--disable", "ERC003",
                 "--disable", "ERC005", "--disable", "INT002"])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean: no diagnostics" in out


def test_severity_override_flag(tmp_path, capsys):
    deck = write(tmp_path, "dangle.sp", DANGLING_DECK)
    code = main(["lint", deck, "--severity", "ERC003=warning",
                 "--severity", "ERC005=info"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning ERC003-pole-unreachable" in out
    assert "info    ERC005-missing-output" in out


def test_bad_severity_spec_exits_two(tmp_path, capsys):
    deck = write(tmp_path, "nand3.sp", NAND3_DECK)
    assert main(["lint", deck, "--severity", "nonsense"]) == 2


def test_missing_deck_exits_two(capsys):
    assert main(["lint", "/no/such/deck.sp"]) == 2


def test_syntax_error_exits_two(tmp_path, capsys):
    deck = write(tmp_path, "bad.sp", "Mbroken out\n")
    assert main(["lint", deck]) == 2
    assert "line" in capsys.readouterr().err


def test_models_flag_lints_tables(tmp_path, capsys):
    deck = write(tmp_path, "nand3.sp", NAND3_DECK)
    code = main(["lint", deck, "--models"])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean: no diagnostics" in out
