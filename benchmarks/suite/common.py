"""Dependency-free pieces shared by the benchmark runner and its workers.

The runner never imports ``repro`` (its own footprint stays out of the
measurement); workers import it from the checkout's ``src`` directory.
Both sides use the constants, the ``repro sta`` report parser and the
arrival comparisons defined here.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
#: Scratch outputs of a run (decks, Chrome traces); git-ignored.
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("sta-cli", "decoder-cached", "paper-stacks", "decoder-eco")

#: Fewest fresh worker processes (rounds) per untraced run, so that
#: setup_s is a median of several set-ups; more follow while --seconds
#: lasts.
MIN_ROUNDS = 3
#: Timed units the runner asks of one worker round before it starts the
#: next round (sta-cli: whole CLI processes after each set-up-only
#: worker).  decoder-eco's unit is a 4-s edit cycle after a 5-s set-up,
#: so it takes one per round for MIN_ROUNDS rounds to fit in 30 s.
UNITS_PER_ROUND = {"sta-cli": 1, "decoder-cached": 3, "paper-stacks": 3,
                   "decoder-eco": 1}
#: Seeds with committed reference outputs; seed 1 is held out from
#: tuning, so a claimed gain must also hold on it.
REFERENCE_SEEDS = (0, 1)
#: Relative tolerance against the committed references: well inside the
#: solver's ~3 % error against SPICE, so a wrong cache hit or a wrong
#: sensitization fails while a float-order change passes.
REFERENCE_TOLERANCE = 0.01

#: Gated end-to-end metrics, emitted by every workload without --trace.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: Sample-name prefix of each workload's timed unit: a unit's time is
#: the sum of its timings whose names have this prefix.
WALL_KEYS = {"sta-cli": "cli", "decoder-cached": "cold",
             "paper-stacks": "qwm:", "decoder-eco": "edit:"}

#: Arrivals are keyed "net:direction" -> seconds.
Arrivals = Dict[str, float]


def sta_args(deck: str) -> List[str]:
    """The ``repro`` arguments the sta-cli workload times."""
    return ["sta", deck, "--limit", "1000"]

_ARRIVAL_ROW = re.compile(
    r"^(\S+)\s+(rise|fall)\s+(-?\d+\.\d+) ps\s+(.*)$")


def check_sta_output(code: int, text: str, first: Optional[Arrivals]
                     ) -> Tuple[Arrivals, List[str]]:
    """Arrivals printed by one ``repro sta`` run, and its problems.

    A problem is a non-zero exit code, a missing arrival report, an
    arrival whose cause carries a quality tag (``[spice]``,
    ``[bounded]``...), i.e. an arc that did not come from a plain QWM
    solve, or arrivals other than ``first``, those of the workload's
    first run (None for the first run itself).
    """
    problems = [f"repro sta exited {code}"] if code else []
    arrivals: Arrivals = {}
    for line in text.partition("Arrival report")[2].splitlines():
        match = _ARRIVAL_ROW.match(line)
        if match is None:
            continue
        key = f"{match[1]}:{match[2]}"
        arrivals[key] = float(match[3]) * 1e-12
        if match[4].rstrip().endswith("]"):
            problems.append(f"{key} degraded")
    if not arrivals:
        problems.append("no arrival report in the output")
    if first is not None and arrivals != first:
        problems.append("reported arrivals differ from the first run's")
    return arrivals, problems


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.json")


def load_reference(workload: str, seed: int):
    """The committed reference values for (workload, seed), or None."""
    path = reference_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)["values"]


def write_reference(workload: str, seed: int, values: Dict) -> str:
    path = reference_path(workload, seed)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "tolerance": REFERENCE_TOLERANCE,
                   "values": dict(sorted(values.items()))},
                  handle, indent=1)
        handle.write("\n")
    return path


def reference_mismatches(values: Dict[str, float],
                         reference: Dict[str, float],
                         tolerance: float = REFERENCE_TOLERANCE
                         ) -> List[str]:
    """Keys missing, extra, or off by more than ``tolerance`` (relative)."""
    problems = [f"missing {key}" for key in sorted(set(reference)
                                                   - set(values))]
    problems += [f"unexpected {key}" for key in sorted(set(values)
                                                       - set(reference))]
    for key in sorted(set(values) & set(reference)):
        got, want = values[key], reference[key]
        if abs(got - want) > tolerance * abs(want) + 1e-15:
            problems.append(f"{key}: {got!r} vs reference {want!r}")
    return problems


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]
