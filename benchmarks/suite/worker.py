"""One benchmark round, in a fresh process.

``run.py`` spawns this script once per round, never two at a time, with
the checkout's ``src`` on PYTHONPATH and BLAS pinned to one thread::

    worker.py '{"workload": "decoder-cached", "seed": 0, "round": 0,
                "trace": false, "smoke": false}'

The worker sets its workload up, runs one untimed warm-up unit and
prints ``{"ready": true, ...}``; the runner times set-up from spawn to
that line, so imports and table characterization count.  Then, for each
``unit`` line on stdin, it runs ``Workload.batch`` timed units and
prints their timings as one JSON line.  Both lines carry the
:mod:`probe` reading over their step.  Any other line ends the round:
the worker runs the round-0 extras, checks, and prints its result as
one JSON line.

With ``"trace": true`` it instead traces the set-up and alternates
untraced and traced units until ``"budget"`` seconds are spent (see
:mod:`layers`), then prints one JSON line.  The probe stays off there,
so that it adds nothing to the spans.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stdout
from typing import Dict, List, Optional

from probe import SpeedProbe

#: Started before the imports below, so that the set-up's probe reading
#: covers them too.
PROBE = SpeedProbe()
if __name__ == "__main__" and not json.loads(sys.argv[1])["trace"]:
    PROBE.start()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402
import repro.cli  # noqa: E402
from repro import (CMOSP35, ConstantSource, StaticTimingAnalyzer,  # noqa: E402
                   StepSource, TableModelLibrary, TransientOptions,
                   TransientSimulator, WaveformEvaluator, builders)
from repro.analysis import IncrementalTimer  # noqa: E402
from repro.analysis.parallel import (ExecutionConfig,  # noqa: E402
                                     StageResultCache)
from repro.io import write_spice_netlist  # noqa: E402

from common import OUT_DIR, check_sta_output, sta_args  # noqa: E402
from layers import SETUP_ROOT, UNIT_ROOT, Tracer  # noqa: E402

TECH = CMOSP35
#: Input switching instant of the paper circuits [s].
T_SWITCH = 20e-12
#: Word-line loads the seed draws from [F].
WL_LOADS = (5e-15, 10e-15, 20e-15)
#: Largest |QWM - 1 ps SPICE| delay error a paper circuit may show [%]
#: (paper: 3.66 % worst; worst of 72 seeded stacks, seeds 0-11: 3.72 %).
MAX_DELAY_ERROR_PCT = 5.0
#: Cap on stored problem messages per round.
MAX_PROBLEMS = 20


def characterized_library() -> TableModelLibrary:
    library = TableModelLibrary(TECH)
    library.get("n")
    library.get("p")
    return library


def seeded_decoder(bits: int, seed: int, loads=WL_LOADS):
    """A ``bits``-bit decoder netlist whose word-line loads the seed draws."""
    rng = np.random.default_rng(seed)
    netlist = builders.decoder_netlist(TECH, bits=bits)
    for j in range(2 ** bits):
        netlist.set_load(f"w{j}", float(rng.choice(loads)))
    return netlist


def sta_cli_deck(seed: int, smoke: bool) -> str:
    """The SPICE deck the sta-cli workload times ``repro sta`` on."""
    return write_spice_netlist(seeded_decoder(2 if smoke else 3, seed),
                               TECH)


def arrivals_of(result) -> Dict[str, float]:
    return {f"{net}:{direction}": arrival.time
            for (net, direction), arrival in result.arrivals.items()}


class Workload:
    """One workload: set-up, a repeatable timed unit, and its checks."""

    name = ""
    #: Units run per request of the runner: one timed sample is their
    #: mean, long enough that the calibrations around it cost little.
    batch = 1

    def __init__(self, seed: int, smoke: bool, trace: bool):
        self.seed = seed
        self.smoke = smoke
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Outputs of the first unit; later units must reproduce them.
        self.first: Optional[Dict[str, float]] = None

    def record(self, problems: List[str]) -> None:
        """Count one checked operation, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(problems[:max(room, 0)])

    def same_as_first(self, values: Dict[str, float], what: str
                      ) -> List[str]:
        if self.first is None:
            self.first = values
            return []
        if values != self.first:
            return [f"{what} differ between units of one round"]
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        self.unit()

    def unit(self) -> Dict[str, float]:
        """Run one timed unit; returns its timings keyed by sample name."""
        raise NotImplementedError

    def extra(self) -> Dict[str, float]:
        """Timed work outside the repeated unit: once per untraced run
        (in round 0), and in every unit of the traced round."""
        return {}

    def outputs(self) -> Dict[str, object]:
        """Values the runner compares across rounds and to references."""
        return {"values": self.first}


class StaCli(Workload):
    """``repro sta DECK`` on a seeded 3-bit decoder deck.

    Untraced, a worker round is only a set-up (import and characterize,
    what every CLI process pays first); after each one the runner times
    whole CLI processes.  Traced, units call ``repro.cli.main``
    in-process.
    """

    name = "sta-cli"

    def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        suffix = "-smoke" if self.smoke else ""
        self.deck = os.path.join(OUT_DIR,
                                 f"sta-cli-seed{self.seed}{suffix}.sp")
        with open(self.deck, "w") as handle:
            handle.write(sta_cli_deck(self.seed, self.smoke))
        if not self.trace:
            characterized_library()

    def warmup(self) -> None:
        if self.trace:
            self.unit()

    def unit(self) -> Dict[str, float]:
        buffer = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buffer):
            code = repro.cli.main(sta_args(self.deck))
        elapsed = time.perf_counter() - start
        arrivals, problems = check_sta_output(code, buffer.getvalue(),
                                              self.first)
        if self.first is None:
            self.first = arrivals
        self.record(problems)
        return {"cli": elapsed}

    def outputs(self) -> Dict[str, object]:
        return {"values": self.first, "deck": self.deck}


class DecoderCached(Workload):
    """A 6-bit decoder through the canonical stage-result cache."""

    name = "decoder-cached"

    def setup(self) -> None:
        self.library = characterized_library()
        netlist = seeded_decoder(3 if self.smoke else 6, self.seed,
                                 loads=WL_LOADS[:2])
        self.graph = repro.extract_stages(netlist, tech=TECH)
        self.cold_hits = self.cold_misses = 0

    def unit(self) -> Dict[str, float]:
        cache = StageResultCache()
        analyzer = StaticTimingAnalyzer(
            TECH, library=self.library,
            execution=ExecutionConfig(cache=True), cache=cache)
        start = time.perf_counter()
        cold = analyzer.analyze(self.graph)
        cold_s = time.perf_counter() - start
        self.cold_hits, self.cold_misses = cache.hits, cache.misses
        start = time.perf_counter()
        warm = analyzer.analyze(self.graph)
        warm_s = time.perf_counter() - start

        problems = [f"{net}:{direction} degraded"
                    for net, direction in cold.degraded()]
        if warm.arrivals != cold.arrivals:
            problems.append("warm arrivals differ from cold arrivals")
        if cache.misses != self.cold_misses:
            problems.append(f"warm analyze missed the cache "
                            f"{cache.misses - self.cold_misses} times")
        problems += self.same_as_first(arrivals_of(cold), "cold arrivals")
        self.record(problems)
        return {"cold": cold_s, "warm": warm_s}

    def outputs(self) -> Dict[str, object]:
        return {"values": self.first, "cold_hits": self.cold_hits,
                "cold_misses": self.cold_misses}


class PaperStacks(Workload):
    """The paper's circuits: Table I NAND2-4 and seed-sized K-stacks.

    The unit is one ``WaveformEvaluator.evaluate`` pass.  In round 0
    each circuit also runs the 1 ps reference transient, which checks
    the QWM delay and gives the paper's speed-up; it costs more than a
    set-up, so running it once leaves room for more rounds.
    """

    name = "paper-stacks"
    batch = 3

    def setup(self) -> None:
        self.evaluator = WaveformEvaluator(TECH,
                                           library=characterized_library())
        self.circuits = []
        vdd = TECH.vdd
        for n in ((2,) if self.smoke else (2, 3, 4)):
            inputs = {"a0": StepSource(0.0, vdd, T_SWITCH)}
            inputs.update({f"a{i}": ConstantSource(vdd)
                           for i in range(1, n)})
            self.circuits.append((f"nand{n}", builders.nand_gate(TECH, n),
                                  inputs, "degraded", None,
                                  150e-12 + 80e-12 * n))
        for k in ((5,) if self.smoke else range(5, 11)):
            stage = builders.nmos_stack(
                TECH, k, load=10e-15,
                rng=np.random.default_rng([self.seed, k]))
            inputs = {"g1": StepSource(0.0, vdd, T_SWITCH)}
            inputs.update({f"g{j}": ConstantSource(vdd)
                           for j in range(2, k + 1)})
            initial = {node.name: vdd for node in stage.internal_nodes}
            self.circuits.append((f"stack{k}", stage, inputs, "full",
                                  initial, 120e-12 + 130e-12 * k))
        self.errors_pct: Dict[str, float] = {}

    def unit(self) -> Dict[str, float]:
        timings = {}
        delays = {}
        for name, stage, inputs, precharge, initial, _ in self.circuits:
            start = time.perf_counter()
            try:
                solution = self.evaluator.evaluate(
                    stage, "out", "fall", inputs, precharge=precharge,
                    initial=initial)
            except Exception as exc:  # a failed solve is a counted failure
                self.record([f"{name}: {type(exc).__name__}: {exc}"])
                continue
            timings[f"qwm:{name}"] = time.perf_counter() - start
            delays[name] = solution.delay(t_input=T_SWITCH)
            self.record([] if delays[name] is not None
                        else [f"{name}: no 50% crossing"])
        self.record(self.same_as_first(delays, "QWM delays"))
        return timings

    def extra(self) -> Dict[str, float]:
        timings = {}
        for name, stage, inputs, _, initial, t_stop in self.circuits:
            start = time.perf_counter()
            result = TransientSimulator(
                stage, TECH, TransientOptions(t_stop=t_stop, dt=1e-12)
            ).run(inputs, initial=initial)
            timings[f"spice:{name}"] = time.perf_counter() - start
            reference = result.delay_50("out", TECH.vdd, t_input=T_SWITCH,
                                        direction="fall")
            delay = (self.first or {}).get(name)
            if reference is None or delay is None:
                self.record([f"{name}: no delay to compare with SPICE"])
                continue
            error = abs(delay - reference) / reference * 100.0
            self.errors_pct[name] = error
            self.record([] if error <= MAX_DELAY_ERROR_PCT else
                        [f"{name}: {error:.2f}% from 1 ps SPICE"])
        return timings

    def outputs(self) -> Dict[str, object]:
        return {"values": self.first, "errors_pct": self.errors_pct}


class DecoderEco(Workload):
    """ECO edits on a 3-bit decoder through ``IncrementalTimer``.

    Set-up ends with the initial analyze.  A unit is one cycle: six
    edits, each followed by ``analyze``, then their inverses in reverse
    order, which restore the design.  What each edit does (device kind,
    stack position, scale factor) is fixed, and every word line's NAND
    and driver are alike, so every seed re-solves the same arcs of the
    same size; the seed picks the word lines and the loads.
    """

    name = "decoder-eco"
    #: (kind, device prefix, address bit, width factor) per forward edit.
    #: A "nand" edit resizes a NAND device gated by a true address line,
    #: which no stage drives, so only the NAND re-solves.  A "driver"
    #: edit resizes a word-line driver: the driver and the NAND feeding
    #: it (whose output load changes) re-solve.
    EDITS = (("nand", "MN", 1, 1.3), ("driver", "MPW", None, 0.8),
             ("nand", "MP", 0, 1.5), ("load", None, None, None),
             ("nand", "MN", 2, 0.7), ("driver", "MNW", None, 1.2))

    def setup(self) -> None:
        self.library = characterized_library()
        self.bits = 2 if self.smoke else 3
        self.graph = repro.extract_stages(
            seeded_decoder(self.bits, self.seed), tech=TECH)
        self.timer = IncrementalTimer(TECH, self.graph,
                                      library=self.library)
        self.initial = arrivals_of(self.timer.analyze())
        self.edits = self._seeded_edits(
            self.EDITS[:2] if self.smoke else self.EDITS)
        self.arcs: List[int] = []

    def _seeded_edits(self, plan) -> List[tuple]:
        """Forward edits then their inverses, as (method, args)."""
        rng = np.random.default_rng([self.seed, 2])
        stage_of = {edge.name: stage for stage in self.graph.stages
                    for edge in stage.edges}
        forward, inverse = [], []
        # Each edit gets its own word line, so no edit changes a stage
        # that another edit re-solves.
        free = list(range(2 ** self.bits))
        for kind, prefix, bit, factor in plan:
            j = int(rng.choice([j for j in free
                                if kind != "nand" or j >> bit & 1]))
            free.remove(j)
            if kind == "load":
                net = f"w{j}"
                old = self.graph.stage_of_net[net].node(net).load_cap
                new = float(rng.choice([c for c in WL_LOADS if c != old]))
                forward.append(("set_load", (net, new)))
                inverse.append(("set_load", (net, old)))
                continue
            device = f"{prefix}{j}_{bit}" if kind == "nand" else f"{prefix}{j}"
            stage = stage_of[device]
            old = stage.edge(device).w
            forward.append(("resize_transistor",
                            (stage.name, device, old * factor)))
            inverse.append(("resize_transistor", (stage.name, device, old)))
        return forward + inverse[::-1]

    def warmup(self) -> None:
        """The initial analyze of set-up is the warm-up."""

    def unit(self) -> Dict[str, float]:
        timings = {}
        half = len(self.edits) // 2
        arcs = []
        for index, (method, args) in enumerate(self.edits):
            start = time.perf_counter()
            getattr(self.timer, method)(*args)
            result = self.timer.analyze()
            timings[f"edit:{index:02d}"] = time.perf_counter() - start
            arcs.append(self.timer.last_stats.arcs_evaluated)
            problems = [f"edit {index}: {net}:{direction} degraded"
                        for net, direction in result.degraded()]
            if index == half - 1 and self.first is None:
                # The first cycle edits a fresh design: bit-exact.
                self.first = arrivals_of(result)
            elif index == half - 1:
                problems += close_problems(arrivals_of(result), self.first)
            if index == len(self.edits) - 1:
                problems += close_problems(arrivals_of(result),
                                           self.initial)
            self.record(problems)
        self.arcs = self.arcs or arcs
        return timings

    def outputs(self) -> Dict[str, object]:
        return {"values": self.first, "arcs_per_edit": self.arcs}

    def from_scratch_problems(self) -> List[str]:
        """Arrivals of a fresh timer on a freshly edited graph must equal
        the incremental ones bit for bit (stale cache entries would not)."""
        graph = repro.extract_stages(seeded_decoder(self.bits, self.seed),
                                     tech=TECH)
        timer = IncrementalTimer(TECH, graph, library=self.library)
        for method, args in self.edits[:len(self.edits) // 2]:
            getattr(timer, method)(*args)
        if arrivals_of(timer.analyze()) != self.first:
            return ["incremental arrivals differ from a from-scratch run"]
        return []


def close_problems(arrivals: Dict[str, float],
                   expected: Dict[str, float]) -> List[str]:
    """Arrivals equal up to float round-off.

    Inverse edits add back the load deltas the forward edits took away,
    so a restored design, and later cycles, match the first cycle only
    to the last few bits.
    """
    if set(arrivals) != set(expected):
        return ["edited design has different arrival events"]
    return [f"{key}: {arrivals[key]!r} vs {expected[key]!r}"
            for key in sorted(expected)
            if abs(arrivals[key] - expected[key])
            > 1e-9 * abs(expected[key])]


WORKLOADS = {cls.name: cls for cls in
             (StaCli, DecoderCached, PaperStacks, DecoderEco)}


def send(message: Dict[str, object]) -> None:
    print(json.dumps(message), flush=True)


def serve_round(workload: Workload, first_round: bool) -> Dict[str, object]:
    """Set up, then run units while the runner asks for them."""
    workload.setup()
    workload.warmup()
    send({"ready": True, **PROBE.take()})
    while sys.stdin.readline().strip() == "unit":
        PROBE.take()
        timings = [workload.unit() for _ in range(workload.batch)]
        send({"timings": timings, **PROBE.take()})
    PROBE.stop()
    return {"extra": workload.extra() if first_round else {}}


def run_traced(workload: Workload, budget: float, label: str
               ) -> Dict[str, object]:
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(SETUP_ROOT):
            workload.setup()
    finally:
        tracer.uninstall()
    workload.warmup()

    def full_unit() -> None:
        workload.unit()
        workload.extra()

    untraced: List[float] = []
    traced: List[float] = []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started < budget
                         and len(traced) < 3):
        start = time.perf_counter()
        full_unit()
        untraced.append(time.perf_counter() - start)
        tracer.sample = len(traced)
        tracer.install()
        try:
            start = time.perf_counter()
            with tracer.span(UNIT_ROOT):
                full_unit()
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    best = traced.index(min(traced))
    overhead = (min(traced) / min(untraced) - 1.0) * 100.0
    metrics, details = tracer.layer_metrics(best, overhead)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{label}.json")
    tracer.write_chrome_trace(trace_path)
    details.update(traced_s=traced, untraced_s=untraced,
                   chrome_trace=os.path.relpath(trace_path))
    return {"layers": metrics, "layer_details": details,
            "probe_us": PROBE.measure() * 1e6}


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"],
                                           spec["trace"])
    if spec["trace"]:
        label = f"{workload.name}-seed{spec['seed']}"
        result = run_traced(workload, spec["budget"], label)
    else:
        result = serve_round(workload, spec["round"] == 0)
        if isinstance(workload, DecoderEco) and spec["round"] == 0:
            workload.record(workload.from_scratch_problems())
    result.update(
        attempted=workload.attempted, failed=workload.failed,
        problems=workload.problems, outputs=workload.outputs(),
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"python": platform.python_version(),
                  "numpy": np.__version__, "scipy": scipy.__version__,
                  "repro": repro.__version__})
    send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
