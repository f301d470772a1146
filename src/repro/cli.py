"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``sta [DECK.sp]``
    Parse a SPICE-style deck, extract logic stages, run QWM-driven
    longest-path STA, and print the arrival/critical-path reports.
    Without a deck a built-in ``--bits`` address decoder is timed.
    ``--required 500p`` adds slack; ``--corners`` re-times at the
    process corners.  ``--workers 4`` evaluates stages on four worker
    processes (identical arrivals, see
    :mod:`repro.analysis.parallel`).  Isomorphic stages share solved
    arcs through one stage cache, whose hit/miss totals end the
    report; ``--cache-file`` keeps it across runs.
    ``--no-escalation`` restores fail-fast arc solves (by default a
    failed solve degrades down the resilience ladder and the arrival
    is tagged with the absorbing rung, see
    :mod:`repro.resilience.ladder`).  ``--audit N`` shadow-SPICE
    audits N deterministically sampled arcs of the run and prints the
    per-arc error distribution with phase attribution
    (:mod:`repro.analysis.audit`).

``simulate DECK.sp --input a=step:0:3.3:20p --node out``
    Transient-simulate a single-stage deck with the reference engine
    and print the measured delay plus an ASCII waveform plot.

``characterize``
    Characterize the device tables and print their statistics.

``lint DECK.sp`` / ``lint --code``
    Run the static pre-simulation checks (:mod:`repro.lint`) on a deck
    and print the diagnostics; exits 1 when errors are found.
    ``--format json`` emits a machine-readable report (top-level
    ``schema_version`` pins the shape), ``--models`` additionally
    characterizes and lints the device tables, ``--disable ERC005`` /
    ``--severity ERC007=error`` tune rules.  ``--code`` instead runs
    the determinism/concurrency rule pack over the repo's own sources
    (:mod:`repro.lint.rules_code`): findings recorded in
    ``.lint-baseline.json`` (auto-discovered, or ``--baseline PATH``)
    are suppressed with their justification, stale entries warn, and
    ``--sarif OUT.sarif`` writes a SARIF 2.1.0 log for CI annotation;
    ``--fail-on warning`` tightens the gate for CI.

``golden [--update]``
    Differential QWM-vs-SPICE suite: re-measure every stored golden
    case with QWM and compare against the stored reference-simulator
    numbers (exit 1 outside the tolerance bands).  Each case also
    reports its drift against the committed record's delay error; a
    case whose error grew by more than 1 pp is marked ``DRIFT`` and
    the report names the worst one with its attributed solver phase
    (report-only: drift does not change the exit code).  ``--update``
    re-runs *both* engines over the slew x load grid and rewrites
    ``tests/golden/*.json``.  ``--flight-bundles DIR`` records the run
    with the flight view on and writes a self-contained debug bundle
    under DIR for every band violation (see ``replay``).

``replay BUNDLE.json``
    Deterministically re-run the solve a flight bundle captured and
    compare the Newton iteration trajectories bit-for-bit against the
    recording (exit 1 on divergence).  ``--verbose`` prints every
    replayed iteration.

``report [DECK.sp]``
    Run STA through one stage cache, as ``sta`` does, with the flight
    view on and print the per-run convergence report: fallback
    histogram, Newton iteration distribution, worst regions, cache
    attribution.  Without a deck a built-in ``--bits`` address decoder
    is timed.  ``--json`` emits the aggregated summary instead.

``chaos``
    Run the deterministic fault-injection scenario matrix
    (:mod:`repro.resilience.chaos`): every fault class — NaN table
    cells, forced Newton non-convergence, worker crashes/hangs,
    cache-store truncation, stage timeouts — is injected under a
    fixed ``--seed`` against a built-in decoder, and the report says
    which escalation rung absorbed each one (exit 1 if any scenario
    is not absorbed).  ``--scenario NAME`` narrows the matrix
    (repeatable, see ``--list``); ``--json`` emits the
    machine-readable report.

``stats [DECK.sp]``
    Evaluate one transition with QWM under full telemetry and print a
    cost-breakdown table: regions, Newton iterations per region, device
    evaluations, linear-solve counts, resilience-ladder escalations and
    the wall-time span tree.  Without a deck, ``--circuit nand3`` (and
    friends) runs a built-in stage.  ``--json`` emits the breakdown
    plus the raw metrics dump.

``profile [TARGET]``
    Run a workload under the phase-level cost-attribution profile
    (:mod:`repro.obs.frames`) and print self-/cumulative-time tables
    plus the hottest ``(phase, stage)`` cells.  TARGET is a pytest
    file (``repro profile benchmarks/bench_headline.py``, run
    in-process), a single-stage deck, or empty for a built-in circuit.
    ``--speedscope FILE`` / ``--collapsed FILE`` export flame-graph
    formats.

Global flags: ``--trace FILE`` writes a Chrome ``trace_event`` file
(load at chrome://tracing or https://ui.perfetto.dev), ``--metrics
FILE`` writes the metrics-registry JSON dump (both enable telemetry
for any command), and ``--profile FILE`` enables the phase profile
for any command and writes a speedscope profile on exit.  The three
compose freely: the trace and the profile are two views of the same
instrumentation frames, and switching one never clears the other.
Telemetry and profiling are disabled by default and cost one attribute
check per instrumentation point when off; the profile adds < 5 % wall
time when on (asserted in the benchmark suite).

Voltage/time values accept SPICE suffixes (``20p``, ``3.3``, ``50f``).
Source specs: ``name=step:v0:v1:t``, ``name=ramp:v0:v1:t0:trise``,
``name=dc:v``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.analysis import IncrementalTimer
from repro.analysis.report import (
    arrival_report,
    corner_report,
    critical_path_report,
    design_summary,
)
from repro.circuit import extract_stages
from repro.devices import CMOSP35, TableModelLibrary
from repro.devices.corners import all_corners
from repro.io import ascii_plot, parse_spice_netlist
from repro.io.spice_netlist import parse_value
from repro.obs import ObsConfig, configure, disable
from repro.obs.frames import (
    ProfileConfig,
    configure_profile,
    disable_profile,
    export_speedscope,
    format_span_tree,
    ledger,
    render_profile,
    summarize_profile,
    to_collapsed,
)
from repro.resilience.journal import JournalError
from repro.resilience.ladder import (QUALITY_ORDER, QUALITY_RANK,
                                    input_edge, sensitizations)
from repro.spice import (
    ConstantSource,
    RampSource,
    Source,
    StepSource,
    TransientOptions,
    TransientSimulator,
)


def parse_source_spec(spec: str) -> (str, Source):
    """Parse ``name=kind:args`` into an input name and a Source."""
    if "=" not in spec:
        raise ValueError(f"expected name=spec, got {spec!r}")
    name, body = spec.split("=", 1)
    parts = body.split(":")
    kind = parts[0].lower()
    args = [parse_value(p) for p in parts[1:]]
    if kind == "dc" and len(args) == 1:
        return name, ConstantSource(args[0])
    if kind == "step" and len(args) == 3:
        return name, StepSource(args[0], args[1], args[2])
    if kind == "ramp" and len(args) == 4:
        return name, RampSource(args[0], args[1], args[2], args[3])
    raise ValueError(f"bad source spec {spec!r} (kinds: dc:v, "
                     "step:v0:v1:t, ramp:v0:v1:t0:trise)")


def _cmd_sta(args: argparse.Namespace) -> int:
    from repro.analysis.parallel import ExecutionConfig, StageResultCache

    tech = CMOSP35
    text = None
    if args.deck:
        with open(args.deck) as handle:
            text = handle.read()
    required = parse_value(args.required) if args.required else None
    audit = args.audit or 0

    # Built on every call, so its checks (a flag without its partner,
    # --workers 0) reject the command line before any analysis runs.
    execution = ExecutionConfig(
        workers=args.workers, cache_path=args.cache_file,
        deadline=args.deadline, grace=args.grace,
        journal_path=args.journal, resume=args.resume)
    # One cache for the command, so corner re-timing shares it and the
    # hit/miss totals can be printed.
    cache = StageResultCache(path=args.cache_file)

    def run(technology, with_audit=False):
        if text is not None:
            netlist = parse_spice_netlist(text, technology,
                                          name=args.deck)
        else:
            from repro.circuit import builders

            netlist = builders.decoder_netlist(technology,
                                               bits=args.bits)
        graph = extract_stages(netlist, tech=technology)
        timer = IncrementalTimer(technology, graph, cache=cache,
                                 execution=execution,
                                 escalate=not args.no_escalation)
        if with_audit:
            from repro.analysis.audit import analyze_with_audit

            result, report = analyze_with_audit(
                timer.analyzer, graph, audit, seed=args.audit_seed,
                band_pct=args.audit_band)
            return graph, result, report
        return graph, timer.analyze(), None

    graph, result, audit_report = run(tech, with_audit=audit > 0)
    print(design_summary(graph, result))
    print()
    print(critical_path_report(result, required=required))
    print()
    print(arrival_report(result, limit=args.limit))
    if audit_report is not None:
        print()
        print(audit_report.render())
    if args.corners:
        delays = {}
        for name, corner_tech in all_corners(tech).items():
            _, corner_result, _ = run(corner_tech)
            if corner_result.worst is not None:
                delays[name] = corner_result.worst.time
        print()
        print(corner_report(delays))
    print()
    print(f"stage cache: {cache.hits} hits / {cache.misses} misses"
          f" ({len(cache)} entries)")
    if args.cache_file:
        print(f"stage cache stored at {args.cache_file}")
    if required is not None and result.worst is not None \
            and result.worst.time > required:
        return 1
    if args.fail_on_degraded is not None:
        threshold = QUALITY_RANK[args.fail_on_degraded]
        offenders = [arrival
                     for arrival in result.arrivals.values()
                     if arrival.quality is not None
                     and QUALITY_RANK.get(arrival.quality, 0)
                     >= threshold]
        if offenders:
            print(f"fail-on-degraded: {len(offenders)} arrival(s) at "
                  f"or below the {args.fail_on_degraded!r} rung",
                  file=sys.stderr)
            return 3
        if getattr(result, "partial", False):
            print("fail-on-degraded: run is partial (interrupted "
                  "before every stage completed)", file=sys.stderr)
            return 3
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    tech = CMOSP35
    with open(args.deck) as handle:
        text = handle.read()
    netlist = parse_spice_netlist(text, tech, name=args.deck)
    graph = extract_stages(netlist, tech=tech)
    if len(graph.stages) != 1:
        print(f"error: simulate needs a single-stage deck "
              f"(found {len(graph.stages)} stages)", file=sys.stderr)
        return 2
    stage = graph.stages[0]

    sources: Dict[str, Source] = {}
    for spec in args.input or []:
        name, source = parse_source_spec(spec)
        sources[name] = source
    for name in stage.inputs:
        sources.setdefault(name, ConstantSource(0.0))

    options = TransientOptions(t_stop=parse_value(args.t_stop),
                               dt=parse_value(args.dt))
    result = TransientSimulator(stage, tech, options).run(sources)

    nodes = args.node or [n.name for n in stage.outputs] \
        or result.node_names[:1]
    for node in nodes:
        delay = result.delay_50(node, tech.vdd)
        slew_fall = result.slew(node, tech.vdd, "fall")
        slew_rise = result.slew(node, tech.vdd, "rise")
        slews = []
        if slew_fall:
            slews.append(f"fall slew {slew_fall * 1e12:.1f} ps")
        if slew_rise:
            slews.append(f"rise slew {slew_rise * 1e12:.1f} ps")
        delay_text = (f"50% at {delay * 1e12:.1f} ps"
                      if delay is not None else "no 50% crossing")
        print(f"{node}: {delay_text}" + ("; " + ", ".join(slews)
                                         if slews else ""))
    if not args.no_plot:
        print()
        print(ascii_plot(result, nodes, width=args.width))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    tech = CMOSP35
    library = TableModelLibrary(tech, grid_step=parse_value(args.grid_step))
    for polarity in args.polarity:
        table = library.get(polarity)
        grid = table.grid
        print(f"{polarity}-table: {grid.vs_values.size}x"
              f"{grid.vg_values.size} grid points, "
              f"{grid.n_parameters} parameters "
              f"(w_ref={grid.w_ref * 1e6:.2f} um, "
              f"l_ref={grid.l_ref * 1e6:.2f} um)")
        ion = table.iv(grid.w_ref, grid.l_ref,
                       tech.vdd if polarity == "n" else 0.0,
                       tech.vdd, 0.0)
        print(f"  Ion({polarity}) = {abs(ion) * 1e3:.3f} mA, "
              f"vth0 = {table.threshold(tech.vdd, 0.0, 0.0):.3f} V")
    return 0


def _parse_severity_overrides(specs) -> dict:
    from repro.lint import Severity

    overrides = {}
    for spec in specs or []:
        if "=" not in spec:
            raise ValueError(f"expected RULE=LEVEL, got {spec!r}")
        rule, level = spec.split("=", 1)
        overrides[rule] = Severity.parse(level)
    return overrides


def _cmd_lint_code(args: argparse.Namespace) -> int:
    """``repro lint --code``: self-analysis with baseline gating."""
    from repro.lint import (Baseline, default_scan_root,
                            discover_baseline, lint_code, to_sarif)

    root = args.root or default_scan_root()
    report = lint_code(
        root, disable=tuple(args.disable or ()),
        severity_overrides=_parse_severity_overrides(args.severity))

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        baseline_path = discover_baseline(os.getcwd()) \
            or discover_baseline(root)
    baseline = (Baseline.load(baseline_path) if baseline_path
                else Baseline())
    result = baseline.apply(report)
    gated = result.report

    if args.sarif:
        sarif = to_sarif(gated, suppressed=result.suppressed)
        with open(args.sarif, "w", encoding="utf-8") as handle:
            json.dump(sarif, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.format == "json":
        data = gated.to_json()
        data["baseline"] = {
            "path": baseline_path,
            "suppressed": len(result.suppressed),
            "stale": len(result.stale),
        }
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"code lint over {root}")
        print(gated.format_text())
        if baseline_path:
            print(f"baseline {baseline_path}: "
                  f"{len(result.suppressed)} finding(s) suppressed, "
                  f"{len(result.stale)} stale entr(y/ies)")
    failing = list(gated.errors)
    if args.fail_on == "warning":
        failing += gated.warnings
    return 1 if failing else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.core.qwm import QWMOptions
    from repro.lint import LintContext, LintRunner

    if args.code:
        return _cmd_lint_code(args)
    if args.deck is None:
        raise ValueError("a DECK is required unless --code is given")

    tech = CMOSP35
    with open(args.deck) as handle:
        text = handle.read()
    netlist = parse_spice_netlist(text, tech,
                                  name=os.path.basename(args.deck))

    ctx = LintContext.from_netlist(
        netlist, tech=tech, options=QWMOptions(),
        grid_step=parse_value(args.grid_step))
    if args.models:
        library = TableModelLibrary(tech,
                                    grid_step=parse_value(args.grid_step))
        ctx.tables = [library.get("n"), library.get("p")]
        ctx.corners = all_corners(tech)

    runner = LintRunner(
        disable=tuple(args.disable or ()),
        severity_overrides=_parse_severity_overrides(args.severity))
    report = runner.run(ctx)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 1 if report.errors else 0


#: Built-in circuits for ``repro stats`` (name -> stage factory).
_STATS_CIRCUITS = {
    "inverter": lambda b, tech: b.inverter(tech),
    "nand2": lambda b, tech: b.nand_gate(tech, 2),
    "nand3": lambda b, tech: b.nand_gate(tech, 3),
    "nand4": lambda b, tech: b.nand_gate(tech, 4),
    "nor2": lambda b, tech: b.nor_gate(tech, 2),
    "nor3": lambda b, tech: b.nor_gate(tech, 3),
    "aoi21": lambda b, tech: b.aoi21_gate(tech),
    "oai21": lambda b, tech: b.oai21_gate(tech),
}


def _stats_stage(args: argparse.Namespace, tech):
    """Resolve the stage ``repro stats`` should evaluate."""
    if args.deck:
        with open(args.deck) as handle:
            text = handle.read()
        netlist = parse_spice_netlist(text, tech, name=args.deck)
        graph = extract_stages(netlist, tech=tech)
        if len(graph.stages) != 1:
            raise ValueError(
                f"stats needs a single-stage deck "
                f"(found {len(graph.stages)} stages)")
        return graph.stages[0], os.path.basename(args.deck)
    from repro.circuit import builders

    return _STATS_CIRCUITS[args.circuit](builders, tech), args.circuit


def _counter_total(registry, name: str, **labels) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return metric.value(**labels) if labels else metric.total()


def _evaluate_single_arc(args: argparse.Namespace,
                         library: TableModelLibrary):
    """Solve the one transition ``stats``/``profile`` target describes.

    ``library`` holds the characterized tables (``profile --repeat``
    passes one library to every repeat, ``stats --audit`` audits on
    the one it evaluated with).

    Returns ``(solution, stage, circuit_name, output,
    switching_input)``.
    """
    from repro.core import WaveformEvaluator

    tech = CMOSP35
    stage, circuit_name = _stats_stage(args, tech)
    outputs = [n.name for n in stage.outputs]
    output = args.output or (outputs[0] if outputs else None)
    if output is None:
        raise ValueError("stage has no output node; pass --output")
    inputs_avail = list(stage.inputs)
    switching = args.input or (inputs_avail[0] if inputs_avail else None)
    if switching is None:
        raise ValueError("stage has no inputs to switch")
    if switching not in inputs_avail:
        raise ValueError(f"unknown input {switching!r} "
                         f"(stage inputs: {inputs_avail})")

    # A step input edge; the side inputs at the base sensitization.
    edge, _ = input_edge(stage.vdd, args.direction)
    levels = next(sensitizations(stage, switching, args.direction))
    sources: Dict[str, Source] = {switching: edge}
    sources.update({name: ConstantSource(level)
                    for name, level in levels.items()})

    evaluator = WaveformEvaluator(tech, library=library)
    solution = evaluator.evaluate(stage, output=output,
                                  direction=args.direction,
                                  inputs=sources)
    return solution, stage, circuit_name, output, switching


def _stats_audit_record(args: argparse.Namespace, stage,
                        library: TableModelLibrary, output: str,
                        switching: str) -> Dict:
    """Shadow-SPICE audit of the single arc ``stats`` evaluated."""
    from repro.analysis import StaticTimingAnalyzer
    from repro.analysis.audit import ArcSample, audit_arc
    from repro.analysis.parallel import canonical_form_for

    analyzer = StaticTimingAnalyzer(CMOSP35, library=library)
    sample = ArcSample(
        stage=stage.name, output=output, direction=args.direction,
        switching_input=switching, input_slew=None,
        fingerprint=canonical_form_for(stage, analyzer).fingerprint)
    return audit_arc(analyzer, stage, sample)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.resilience.ladder import QUALITY_ORDER

    library = TableModelLibrary(CMOSP35,
                                grid_step=parse_value(args.grid_step))
    solution, stage, circuit_name, output, switching = \
        _evaluate_single_arc(args, library)
    audit_record = (_stats_audit_record(args, stage, library, output,
                                        switching)
                    if args.audit else None)
    registry = ledger().metrics
    stats = solution.stats
    delay = solution.delay()
    solves = {
        "sherman_morrison":
            _counter_total(registry, "linalg.solve.sherman_morrison"),
        "dense_lu": _counter_total(registry, "linalg.solve.dense_lu"),
    }
    failures = _counter_total(registry, "newton.convergence.failures")
    cache = {
        "miss": _counter_total(registry, "device.table.cache",
                               result="miss"),
        "hit": _counter_total(registry, "device.table.cache",
                              result="hit"),
    }
    # Resilience-ladder activity: without these a degraded run (rungs
    # burning wall time on retries/SPICE) under-reports where time went.
    escalations = {rung: _counter_total(registry,
                                        "resilience.escalations",
                                        rung=rung)
                   for rung in QUALITY_ORDER}
    arc_quality = {quality: _counter_total(registry,
                                           "resilience.arc.quality",
                                           quality=quality)
                   for quality in QUALITY_ORDER}

    if args.json:
        document = {
            "circuit": circuit_name,
            "output": output,
            "direction": args.direction,
            "switching_input": switching,
            "delay_seconds": delay,
            "stats": {
                "regions": stats.steps,
                "newton_iterations": stats.newton_iterations,
                "device_evaluations": stats.device_evaluations,
                "wall_time_seconds": stats.wall_time,
            },
            "linear_solves": solves,
            "convergence_failures": failures,
            "characterization_cache": cache,
            "resilience": {
                "escalations": escalations,
                "arc_quality": arc_quality,
            },
            "metrics": registry.to_json(),
            "trace": ledger().trace_stats(),
        }
        if audit_record is not None:
            document["accuracy"] = audit_record
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    per_region = (stats.newton_iterations / stats.steps
                  if stats.steps else 0.0)
    title = (f"QWM cost breakdown: {circuit_name} {output} "
             f"{args.direction} (switching {switching})")
    rule = "-" * max(len(title), 50)
    delay_text = (f"{delay * 1e12:.2f} ps" if delay is not None
                  else "no crossing")
    print(title)
    print(rule)
    print(f"{'regions solved':<26}{stats.steps:>10}")
    print(f"{'newton iterations':<26}{stats.newton_iterations:>10}"
          f"   ({per_region:.1f} / region)")
    print(f"{'device evaluations':<26}{stats.device_evaluations:>10}")
    print(f"{'linear solves':<26}"
          f"{int(solves['sherman_morrison']):>10} sherman-morrison"
          f" / {int(solves['dense_lu'])} dense-lu")
    print(f"{'convergence failures':<26}{int(failures):>10}")
    print(f"{'characterization cache':<26}"
          f"{int(cache['miss']):>10} miss / {int(cache['hit'])} hit")
    total_esc = int(sum(escalations.values()))
    esc_text = " / ".join(f"{int(count)} {rung}"
                          for rung, count in escalations.items())
    print(f"{'ladder escalations':<26}{total_esc:>10}   ({esc_text})")
    if any(arc_quality.values()):
        quality_text = " / ".join(f"{int(count)} {quality}"
                                  for quality, count
                                  in arc_quality.items() if count)
        print(f"{'arc quality':<26}{'':>10}   ({quality_text})")
    print(f"{'delay (50%)':<26}{delay_text:>10}")
    print(f"{'solver wall time':<26}"
          f"{stats.wall_time * 1e3:>10.1f} ms")
    if audit_record is not None:
        err = audit_record["delay_error_pct"]
        err_text = (f"{err:.2f}%" if err is not None
                    else audit_record["status"])
        dominant = audit_record["attribution"].get("dominant") or "-"
        print(f"{'shadow-SPICE error':<26}{err_text:>10}   "
              f"(attributed to {dominant})")
    print()
    print("wall-time tree")
    print(rule)
    print(format_span_tree(ledger().spans(),
                           dropped=ledger().trace_stats()["dropped"]))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a workload under the phase profiler and report attribution.

    The target is either a pytest file (benchmarks/bench_*.py — run
    in-process so the profiler ledger survives the workload's own
    telemetry lifecycle), a single-stage SPICE deck, or empty (a
    built-in circuit via ``--circuit``).
    """
    target = args.target
    prof = configure_profile(ProfileConfig(enabled=True,
                                           max_cells=args.max_cells))
    if target is not None and target.endswith(".py"):
        if not os.path.exists(target):
            raise FileNotFoundError(target)
        import pytest

        workload = target
        code = pytest.main([target, "-q", "--no-header"])
        if code not in (0, 5):  # 5 = no tests collected (plain script)
            print(f"profile: workload exited with code {code}",
                  file=sys.stderr)
    else:
        args.deck = target
        workload = None
        library = TableModelLibrary(CMOSP35,
                                    grid_step=parse_value(args.grid_step))
        for _ in range(max(1, args.repeat)):
            _, _, workload, _, _ = _evaluate_single_arc(args, library)

    document = prof.profile_json()
    summary = summarize_profile(document)
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(to_collapsed(document))
        print(f"profile: wrote collapsed stacks to {args.collapsed}",
              file=sys.stderr)
    if args.speedscope:
        export_speedscope(document, args.speedscope,
                          name=f"repro profile {workload}")
        print(f"profile: wrote speedscope profile to {args.speedscope}",
              file=sys.stderr)
    if args.json:
        print(json.dumps({"workload": workload, "ledger": document,
                          "summary": summary},
                         indent=2, sort_keys=True))
    else:
        print(f"workload: {workload}")
        print(render_profile(summary, top=args.top))
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro.analysis import golden

    tech = CMOSP35
    directory = args.dir or golden.default_golden_dir()
    if args.update:
        print(f"regenerating golden records (QWM + reference SPICE "
              f"over {len(golden.golden_cases())} cases)...")
        records = golden.generate(
            tech, progress=lambda r: print(f"  {r.case.name}: "
                                           f"delta {r.delay_error_pct:.2f}%"))
        paths = golden.save(records, directory)
        over = [r for r in records
                if r.delay_error_pct > golden.DELAY_TOLERANCE_PCT]
        for record in over:
            print(f"warning: {record.case.name} generated "
                  f"{record.delay_error_pct:.2f}% over the "
                  f"{golden.DELAY_TOLERANCE_PCT:.1f}% band",
                  file=sys.stderr)
        print(f"wrote {len(records)} cases to {len(paths)} files "
              f"under {directory}")
        return 1 if over else 0
    records = golden.load(directory)
    if args.flight_bundles:
        from repro.obs import (FlightConfig, configure_flight,
                               disable_flight)

        led = configure_flight(FlightConfig(
            enabled=True, capture_bundles=True,
            bundle_dir=args.flight_bundles))
        try:
            diffs = golden.check(records, tech)
        finally:
            written = led.flight_stats()["bundles"]
            disable_flight()
        if written:
            print(f"wrote {written} debug bundle(s) under "
                  f"{args.flight_bundles} (inspect with `repro replay`)",
                  file=sys.stderr)
    else:
        diffs = golden.check(records, tech)
    print(golden.format_report(diffs))
    return 0 if all(d.ok for d in diffs) else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.bundles import load_bundle, replay_bundle

    bundle = load_bundle(args.bundle)
    print(f"bundle: {args.bundle}")
    print(f"reason: {bundle.get('reason')}   "
          f"stage: {bundle['stage']['name']}   "
          f"arc: {bundle['output']} {bundle['direction']}")
    extra = bundle.get("extra") or {}
    if extra:
        context = "  ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        print(f"context: {context}")
    result = replay_bundle(bundle, verbose=args.verbose)
    print(result.render())
    return 0 if result.identical else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import StaticTimingAnalyzer
    from repro.analysis.parallel import StageResultCache
    from repro.obs import (FlightConfig, configure_flight, disable_flight,
                           render_report, summarize_ledger)

    tech = CMOSP35
    if args.deck:
        with open(args.deck) as handle:
            text = handle.read()
        netlist = parse_spice_netlist(text, tech, name=args.deck)
        design = os.path.basename(args.deck)
    else:
        from repro.circuit import builders

        netlist = builders.decoder_netlist(tech, bits=args.bits)
        design = f"decoder{args.bits} (built-in)"
    graph = extract_stages(netlist, tech=tech)

    led = configure_flight(FlightConfig(
        enabled=True, event_limit=args.event_limit))
    audit_report = None
    try:
        analyzer = StaticTimingAnalyzer(tech, cache=StageResultCache())
        if args.audit:
            from repro.analysis.audit import analyze_with_audit

            result, audit_report = analyze_with_audit(
                analyzer, graph, args.audit, seed=args.audit_seed)
        else:
            result = analyzer.analyze(graph)
        summary = summarize_ledger(led)
    finally:
        disable_flight()

    worst = result.worst
    if args.json:
        document = {
            "design": design,
            "stages": len(graph.stages),
            "worst_arrival_seconds": (worst.time if worst else None),
            "worst_event": ([worst.net, worst.direction]
                            if worst else None),
            "summary": summary,
        }
        if audit_report is not None:
            document["accuracy"] = audit_report.to_json()
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"design: {design}   stages: {len(graph.stages)}")
    if worst is not None:
        print(f"worst arrival: {worst.time * 1e12:.2f} ps "
              f"({worst.net} {worst.direction})")
    print()
    print(render_report(summary))
    if audit_report is not None:
        print()
        print(audit_report.render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import (default_scenarios, format_report,
                                        run_matrix)

    if args.list:
        for scenario in default_scenarios("<target>"):
            print(f"{scenario.name:<18} {scenario.description}")
        return 0
    report = run_matrix(seed=args.seed, bits=args.bits,
                        only=args.scenario or None)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0 if report.absorbed_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transistor-level STA by piecewise quadratic "
                    "waveform matching (Wang & Zhu, DATE 2003)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="enable telemetry and write a Chrome "
                             "trace_event file")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="enable telemetry and write the metrics "
                             "JSON dump")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="enable the phase profiler and write a "
                             "speedscope JSON profile on exit "
                             "(composes with --trace/--metrics; "
                             "measured overhead < 5%%, exactly zero "
                             "when off)")
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: `--cache DECK` would otherwise mean
    # `--cache-file DECK` and overwrite the deck with a cache store.
    sta = sub.add_parser("sta", help="longest-path STA over a deck",
                         allow_abbrev=False)
    sta.add_argument("deck", nargs="?", default=None,
                     help="optional deck (default: a built-in address "
                          "decoder, see --bits)")
    sta.add_argument("--bits", type=int, default=3,
                     help="address bits of the built-in decoder when "
                          "no deck is given")
    sta.add_argument("--required", default=None,
                     help="required arrival time (e.g. 500p)")
    sta.add_argument("--corners", action="store_true",
                     help="also time the process corners")
    sta.add_argument("--limit", type=int, default=20,
                     help="arrival-report row limit")
    sta.add_argument("--workers", type=int, default=1,
                     help="worker processes for stage evaluation; 1 "
                          "evaluates in-process (arrivals do not "
                          "depend on it)")
    sta.add_argument("--cache-file", metavar="FILE", default=None,
                     help="persist the stage cache to a JSON store "
                          "(loaded before the run)")
    sta.add_argument("--no-escalation", action="store_true",
                     help="disable the resilience ladder: a failed "
                          "arc solve raises instead of degrading to "
                          "retry/SPICE/bound rungs")
    sta.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="run-level wall-clock budget: the scheduler "
                          "clamps the escalation ladder per wave "
                          "(full -> no-spice -> bound) so the run "
                          "finishes inside deadline+grace with honest "
                          "quality tags")
    sta.add_argument("--grace", type=float, default=None,
                     metavar="SECONDS",
                     help="explicit grace allowance for the wave in "
                          "flight at the deadline (default: "
                          "max(0.5, 0.1*deadline))")
    sta.add_argument("--journal", metavar="FILE", default=None,
                     help="crash-safe run journal (JSONL, format "
                          "repro-run-journal/1): each completed wave "
                          "checkpoints atomically; combine with "
                          "--resume to continue a killed run")
    sta.add_argument("--resume", action="store_true",
                     help="replay completed waves from --journal "
                          "(fingerprint-validated) and continue; "
                          "arrivals are bit-identical to an "
                          "uninterrupted run")
    sta.add_argument("--fail-on-degraded", nargs="?",
                     const="qwm-retry", default=None,
                     metavar="QUALITY",
                     choices=list(QUALITY_ORDER),
                     help="exit 3 when any arrival's quality is at or "
                          "below the named rung (default threshold: "
                          "qwm-retry), or when the run is partial — "
                          "the CI gate for deadline/journal runs")
    sta.add_argument("--audit", type=int, default=0, metavar="N",
                     help="shadow-SPICE audit: deterministically "
                          "sample N of the run's arcs (stratified by "
                          "canonical stage form), re-solve each with "
                          "the adaptive transient engine and report "
                          "the per-arc error distribution with phase "
                          "attribution")
    sta.add_argument("--audit-seed", type=int, default=0,
                     help="sampling seed (same seed, same arcs)")
    sta.add_argument("--audit-band", type=float, default=10.0,
                     help="audit acceptance band in percent (audit "
                          "arcs outside it count as violations)")
    sta.set_defaults(func=_cmd_sta)

    sim = sub.add_parser("simulate",
                         help="reference-simulate a single-stage deck")
    sim.add_argument("deck")
    sim.add_argument("--input", action="append",
                     help="source spec, e.g. a=step:0:3.3:20p")
    sim.add_argument("--node", action="append",
                     help="node(s) to report/plot")
    sim.add_argument("--t-stop", default="500p")
    sim.add_argument("--dt", default="1p")
    sim.add_argument("--width", type=int, default=72)
    sim.add_argument("--no-plot", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    char = sub.add_parser("characterize",
                          help="build and describe the device tables")
    char.add_argument("--polarity", nargs="+", default=["n", "p"],
                      choices=["n", "p"])
    char.add_argument("--grid-step", default="0.1")
    char.set_defaults(func=_cmd_characterize)

    lint = sub.add_parser("lint",
                          help="static pre-simulation checks on a deck, "
                               "or --code for repo self-analysis")
    lint.add_argument("deck", nargs="?", default=None,
                      help="SPICE deck to lint (omit with --code)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", help="report format")
    lint.add_argument("--disable", action="append", metavar="RULE",
                      help="disable a rule by ID, full ID or slug "
                           "(repeatable)")
    lint.add_argument("--severity", action="append",
                      metavar="RULE=LEVEL",
                      help="override a rule's severity, e.g. "
                           "ERC007=error (repeatable)")
    lint.add_argument("--models", action="store_true",
                      help="also characterize and lint the device "
                           "tables (slower)")
    lint.add_argument("--grid-step", default="0.1",
                      help="characterization grid pitch hint [V]")
    lint.add_argument("--code", action="store_true",
                      help="run the determinism/concurrency code "
                           "analysis over the repo's own sources "
                           "instead of a deck")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="source tree to scan with --code (default: "
                           "the installed repro package)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file of accepted findings "
                           "(default: auto-discover .lint-baseline.json)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--sarif", default=None, metavar="OUT",
                      help="with --code, also write a SARIF 2.1.0 log")
    lint.add_argument("--fail-on", choices=["error", "warning"],
                      default="error",
                      help="exit non-zero at this severity or above "
                           "(default: error)")
    lint.set_defaults(func=_cmd_lint)

    stats = sub.add_parser("stats",
                           help="QWM cost breakdown of one transition")
    stats.add_argument("deck", nargs="?", default=None,
                       help="optional single-stage deck (default: a "
                            "built-in circuit, see --circuit)")
    stats.add_argument("--circuit", default="nand3",
                       choices=sorted(_STATS_CIRCUITS),
                       help="built-in stage when no deck is given")
    stats.add_argument("--direction", default="fall",
                       choices=["fall", "rise"],
                       help="output transition to evaluate")
    stats.add_argument("--output", default=None,
                       help="output node (default: the stage's first)")
    stats.add_argument("--input", default=None,
                       help="switching input (default: the stage's "
                            "first)")
    stats.add_argument("--grid-step", default="0.1",
                       help="characterization grid pitch [V]")
    stats.add_argument("--json", action="store_true",
                       help="emit the breakdown and raw metrics as "
                            "JSON")
    stats.add_argument("--audit", action="store_true",
                       help="also shadow-SPICE audit the arc and "
                            "report its error with phase attribution")
    stats.set_defaults(func=_cmd_stats)

    prof = sub.add_parser("profile",
                          help="phase-level cost attribution of a "
                               "workload (pytest file, deck or "
                               "built-in circuit)")
    prof.add_argument("target", nargs="?", default=None,
                      help="a pytest workload (e.g. benchmarks/"
                           "bench_headline.py, run in-process), a "
                           "single-stage deck, or empty for the "
                           "built-in --circuit")
    prof.add_argument("--circuit", default="nand3",
                      choices=sorted(_STATS_CIRCUITS),
                      help="built-in stage when no target is given")
    prof.add_argument("--direction", default="fall",
                      choices=["fall", "rise"],
                      help="output transition for circuit targets")
    prof.add_argument("--output", default=None,
                      help="output node (default: the stage's first)")
    prof.add_argument("--input", default=None,
                      help="switching input (default: the stage's "
                           "first)")
    prof.add_argument("--grid-step", default="0.1",
                      help="characterization grid pitch [V]")
    prof.add_argument("--repeat", type=int, default=1,
                      help="evaluate circuit targets N times (larger "
                           "samples for the self-time table)")
    prof.add_argument("--top", type=int, default=10,
                      help="hottest-cell rows to print")
    prof.add_argument("--max-cells", type=int, default=4096,
                      help="ledger cell cap (drops + counts beyond)")
    prof.add_argument("--speedscope", metavar="FILE", default=None,
                      help="write a speedscope JSON profile "
                           "(open at https://www.speedscope.app)")
    prof.add_argument("--collapsed", metavar="FILE", default=None,
                      help="write Brendan Gregg collapsed stacks "
                           "(for flamegraph.pl and friends)")
    prof.add_argument("--json", action="store_true",
                      help="emit the raw ledger and summary as JSON")
    prof.set_defaults(func=_cmd_profile)

    gold = sub.add_parser("golden",
                          help="differential QWM-vs-SPICE golden suite")
    gold.add_argument("--update", action="store_true",
                      help="re-run both engines over the grid and "
                           "rewrite the stored records (slow)")
    gold.add_argument("--dir", default=None,
                      help="golden directory (default: tests/golden)")
    gold.add_argument("--flight-bundles", metavar="DIR", default=None,
                      help="record the run with the flight recorder "
                           "and write a debug bundle per band "
                           "violation under DIR")
    gold.set_defaults(func=_cmd_golden)

    replay = sub.add_parser("replay",
                            help="deterministically re-run a flight "
                                 "debug bundle")
    replay.add_argument("bundle", help="bundle JSON written by the "
                                       "flight recorder")
    replay.add_argument("--verbose", action="store_true",
                        help="print every replayed Newton iteration")
    replay.set_defaults(func=_cmd_replay)

    rep = sub.add_parser("report",
                         help="per-run convergence/forensics report")
    rep.add_argument("deck", nargs="?", default=None,
                     help="optional deck (default: a built-in address "
                          "decoder, see --bits)")
    rep.add_argument("--bits", type=int, default=3,
                     help="address bits of the built-in decoder")
    rep.add_argument("--event-limit", type=int, default=200_000,
                     help="flight ledger event cap for the run")
    rep.add_argument("--json", action="store_true",
                     help="emit the aggregated summary as JSON")
    rep.add_argument("--audit", type=int, default=0, metavar="N",
                     help="shadow-SPICE audit N sampled arcs and add "
                          "an accuracy section to the report")
    rep.add_argument("--audit-seed", type=int, default=0,
                     help="audit sampling seed")
    rep.set_defaults(func=_cmd_report)

    chaos = sub.add_parser("chaos",
                           help="deterministic fault-injection "
                                "scenario matrix")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (same seed, same "
                            "injections, same absorbing rungs)")
    chaos.add_argument("--bits", type=int, default=2,
                       help="address bits of the built-in decoder "
                            "the faults are injected into")
    chaos.add_argument("--scenario", action="append", metavar="NAME",
                       help="run only this scenario (repeatable; "
                            "see --list)")
    chaos.add_argument("--list", action="store_true",
                       help="list the scenario matrix and exit")
    chaos.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
    chaos.set_defaults(func=_cmd_chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The stats command needs telemetry regardless of the export flags.
    wants_telemetry = bool(args.trace or args.metrics
                           or args.command == "stats")
    # --profile enables the phase profiler for any command; the
    # profile subcommand configures its own (and owns the reporting).
    wants_profile = bool(args.profile)
    if wants_telemetry:
        configure(ObsConfig(enabled=True))
    if wants_profile and args.command != "profile":
        configure_profile(ProfileConfig(enabled=True))
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if wants_telemetry:
            if args.trace:
                ledger().export_chrome(args.trace)
            if args.metrics:
                ledger().metrics.export_json(args.metrics)
            disable()
        if wants_profile:
            export_speedscope(ledger(), args.profile)
        if wants_profile or args.command == "profile":
            disable_profile()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
