"""Parallel levelized STA execution with stage-result caching.

The paper's pitch is that a K-transistor stage costs K small algebraic
solves instead of thousands of SPICE steps; this module amortizes that
across whole-graph analysis in two orthogonal ways:

* **Scheduling** — :class:`ParallelStaEngine` is the only STA
  scheduler: :meth:`repro.analysis.sta.StaticTimingAnalyzer.analyze`
  always runs it.  One dependency-counting loop pops stages off a FIFO
  ready queue: a stage joins the queue as soon as every fanin stage
  has merged its arrival waveforms, not when its whole level barrier
  clears.  With one worker the loop evaluates each ready stage in the
  main process; with ``workers > 1`` it submits them to one pool of
  worker processes.  Workers change *scheduling only*: every stage is
  evaluated by one function, :func:`_evaluate_stage`, in the main
  process and in every worker, so arrival times are identical across
  worker counts bit for bit.

* **Stage-result caching** — :class:`StageResultCache` memoizes arc
  results ``(delay, output_slew, quality)`` keyed by a canonical hash of
  stage topology, device geometry, loads, technology, solver options and
  the input slew.  Repeated gate configurations — the common case in
  decoders and the Table-1 gate set — are solved once, and
  :class:`repro.analysis.incremental.IncrementalTimer` re-times an
  edited design against the same cache.  Hit/miss counts feed the
  ``sta.cache`` metric in :mod:`repro.obs`, and the cache can persist to
  an on-disk JSON store.

Correctness is scheduler-independent by construction: arc math never
reads scheduler state, a stage only runs once its fanins are final, and
the final worst/critical-path selection scans events in sorted order
(see DESIGN.md, "Parallel execution & caching").
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                Executor, ProcessPoolExecutor, wait)
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from repro.analysis.sta import (ArrivalTime, Event, StaResult,
                                StaticTimingAnalyzer,
                                compute_stage_arrivals, finalize_result,
                                primary_input_arrivals)
from repro.circuit.netlist import LogicStage
from repro.circuit.stage import StageGraph
from repro.obs import (count, drain_delta, frame, inc, install_worker_state,
                       interval, ledger, merge_delta, set_gauge,
                       worker_state)
from repro.obs.accuracy import slew_token
from repro.resilience import faults
from repro.resilience.budget import (CLAMP_FULL, AdmissionController,
                                     RunBudget)
from repro.resilience.journal import (JournalError, RunJournal,
                                      run_fingerprint)
from repro.spice.results import SimulationStats

#: (fingerprint, arc id) -> cached arc result.
CacheKey = Tuple[str, str]
#: Cached arc value: (delay, output_slew, quality) or None (arc not
#: sensitizable — caching the failure avoids re-proving it).  The
#: quality element is the escalation-ladder rung that produced the
#: numbers (see :mod:`repro.resilience.ladder`).
CachedArc = Optional[Tuple[float, Optional[float], Optional[str]]]

_MISS = object()


@dataclass(frozen=True)
class ExecutionConfig:
    """How an STA run is scheduled and cached.

    Attributes:
        workers: number of worker processes; 1 (the default) evaluates
            every stage in the main process, more dispatch stages onto
            a process pool (each worker receives the pickled
            characterized tables once).
        cache: enable stage-result caching.
        cache_path: optional JSON store; loaded before the run (if it
            exists) and rewritten after, so caches persist across
            processes/runs.
        stage_timeout: optional wall-clock watchdog per dispatched
            stage task [s].  A pooled task that exceeds it is
            abandoned (its worker may be hung) and the stage is
            re-dispatched into the main process; None disables the
            watchdog (the default — polling costs a wake-up every
            quarter-timeout).
        deadline: optional run-level wall-clock budget [s].  An
            admission controller clamps the escalation ladder per wave
            (full → no-spice → bound) so the run finishes inside
            deadline+grace with honest quality tags (see
            :mod:`repro.resilience.budget`).
        grace: optional explicit grace allowance [s] for the wave in
            flight at the deadline; defaults to ``max(0.5, 0.1 *
            deadline)``.  Requires ``deadline``.
        journal_path: optional crash-safe run journal (JSONL, format
            ``repro-run-journal/1``); each completed wave's arrival
            deltas checkpoint atomically (see
            :mod:`repro.resilience.journal`).
        resume: replay completed waves from ``journal_path`` before
            running the rest; requires ``journal_path``.  Arrivals are
            bit-identical to an uninterrupted run.
    """

    workers: int = 1
    cache: bool = False
    cache_path: Optional[str] = None
    stage_timeout: Optional[float] = None
    deadline: Optional[float] = None
    grace: Optional[float] = None
    journal_path: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.stage_timeout is not None and self.stage_timeout <= 0:
            raise ValueError("stage_timeout must be positive or None")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive or None")
        if self.grace is not None and self.grace <= 0:
            raise ValueError("grace must be positive or None")
        if self.grace is not None and self.deadline is None:
            raise ValueError("grace requires deadline")
        if self.resume and self.journal_path is None:
            raise ValueError("resume requires journal_path")

    @property
    def wants_cache(self) -> bool:
        return self.cache or self.cache_path is not None


@dataclass(frozen=True)
class CanonicalForm:
    """Name-independent identity of a stage, for cache keying.

    Attributes:
        fingerprint: hash of the canonicalized stage (topology, device
            geometry, node loads) plus the solver context (technology,
            QWM options, characterization grid).
        net_ids: actual net name -> canonical net id.
        input_ids: actual input-signal name -> canonical input id.
    """

    fingerprint: str
    net_ids: Dict[str, str]
    input_ids: Dict[str, str]


def _digest(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def canonical_stage_form(stage: LogicStage,
                         context: Tuple = ()) -> CanonicalForm:
    """Canonicalize a stage up to net/input renaming.

    Two stages that are isomorphic as labeled polar graphs — same
    element kinds, geometries, connectivity, loads and output marking,
    with nets and input signals renamed arbitrarily — receive the same
    fingerprint and corresponding canonical ids.  This is the
    structural equivalence a decoder's repeated gate configurations
    exhibit, and it is what lets one cached NAND solve serve every word
    line.

    Implementation: Weisfeiler-Lehman-style color refinement over nets
    and input signals (supplies keep fixed colors), then canonical ids
    assigned by sorted final color.  Each refined color digests the
    previous one, so a round can only split color classes; refinement
    stops after the first round that splits none.  Color ties are
    broken by original name; for the tiny, load-annotated stages QWM
    partitions, equal colors mean genuinely symmetric (automorphic)
    elements, so the tie break cannot make two equivalent stages
    disagree.
    """
    from repro.circuit.netlist import GND_NODE, VDD_NODE

    nets = [node for node in stage.nodes
            if node.name not in (VDD_NODE, GND_NODE)]
    inputs = list(stage.inputs)
    shape = {edge.name: (edge.kind.value, repr(round(edge.w, 15)),
                         repr(round(edge.l, 15)))
             for edge in stage.edges}

    color: Dict[Tuple[str, str], str] = {
        ("net", VDD_NODE): "VDD", ("net", GND_NODE): "GND"}
    for node in nets:
        color[("net", node.name)] = _digest(
            ("net", repr(round(node.load_cap, 21)), node.is_output))
    for name in inputs:
        color[("sig", name)] = "sig"

    rounds = len(nets) + len(inputs) + 2
    for _ in range(rounds):
        refined: Dict[Tuple[str, str], str] = {
            ("net", VDD_NODE): "VDD", ("net", GND_NODE): "GND"}
        for node in nets:
            items = []
            for edge in node.edges:
                role = "src" if edge.src is node else "snk"
                gate = (color[("sig", edge.gate_input)]
                        if edge.gate_input else "-")
                other = color[("net", edge.other(node).name)]
                items.append(shape[edge.name] + (role, gate, other))
            refined[("net", node.name)] = _digest(
                (color[("net", node.name)], sorted(items)))
        for name in inputs:
            items = []
            for edge in stage.edges_with_gate(name):
                items.append(shape[edge.name]
                             + (color[("net", edge.src.name)],
                                color[("net", edge.snk.name)]))
            refined[("sig", name)] = _digest(
                (color[("sig", name)], sorted(items)))
        stable = len(set(refined.values())) == len(set(color.values()))
        color = refined
        if stable:
            break

    net_ids = {VDD_NODE: "VDD", GND_NODE: "GND"}
    ordered = sorted(nets, key=lambda n: (color[("net", n.name)],
                                          n.name))
    for index, node in enumerate(ordered):
        net_ids[node.name] = f"n{index}"
    input_ids = {}
    for index, name in enumerate(sorted(
            inputs, key=lambda s: (color[("sig", s)], s))):
        input_ids[name] = f"i{index}"

    edges = sorted(
        shape[edge.name]
        + (input_ids.get(edge.gate_input, "-") if edge.gate_input
           else "-",
           net_ids[edge.src.name], net_ids[edge.snk.name])
        for edge in stage.edges)
    loads = sorted((net_ids[node.name], repr(round(node.load_cap, 21)),
                    node.is_output) for node in nets)
    fingerprint = hashlib.sha256(repr(
        (context, stage.vdd, edges, loads)).encode("utf-8")
    ).hexdigest()[:24]
    return CanonicalForm(fingerprint=fingerprint, net_ids=net_ids,
                         input_ids=input_ids)


def stage_fingerprint(stage: LogicStage, analyzer: StaticTimingAnalyzer
                      ) -> str:
    """Canonical hash of everything that determines a stage's arc math.

    Convenience wrapper over :func:`canonical_stage_form` with the
    analyzer's solver context mixed in; equal fingerprints mean equal
    arc results for corresponding stimuli.  The stage *name* and its
    net names are deliberately excluded.
    """
    return canonical_form_for(stage, analyzer).fingerprint


def canonical_form_for(stage: LogicStage,
                       analyzer: StaticTimingAnalyzer) -> CanonicalForm:
    """The stage's :class:`CanonicalForm` under an analyzer's context."""
    context = (repr(analyzer.tech),
               repr(analyzer.evaluator.options),
               getattr(analyzer.evaluator.library, "grid_step", None))
    return canonical_stage_form(stage, context=context)


def arc_cache_key(fingerprint: str, output: str, direction: str,
                  switching_input: str,
                  input_slew: Optional[float]) -> CacheKey:
    return (fingerprint,
            f"{output}|{direction}|{switching_input}|"
            f"{slew_token(input_slew)}")


class StageResultCache:
    """Thread-safe LRU of stage-arc results, with optional JSON store.

    Args:
        max_entries: LRU capacity; least-recently-used entries are
            evicted beyond it.
        path: optional JSON store loaded on construction (missing file
            is fine) and written by :meth:`save`.
    """

    #: Store schema version.  It changes with the key layout, the value
    #: tuple, the canonical fingerprint or the arc arithmetic, so an
    #: older store quarantines instead of serving arcs this code would
    #: not compute.
    VERSION = 3

    def __init__(self, max_entries: int = 4096,
                 path: Optional[str] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.path = path
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[CacheKey, CachedArc]" = OrderedDict()
        if path is not None and os.path.exists(path):
            self.load(path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # ------------------------------------------------------------------
    def get(self, key: CacheKey):
        """The cached value, or the module-private miss sentinel.

        Callers must compare against the returned object with
        :meth:`found` — ``None`` is a legitimate cached value (an arc
        proven unsensitizable).
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                value = self._data[key]
                self.hits += 1
                inc("sta.cache", result="hit")
                count("cache_hits", 1, root="sta.cache")
                return value
            self.misses += 1
            inc("sta.cache", result="miss")
            return _MISS

    @staticmethod
    def found(value: object) -> bool:
        """True when :meth:`get` returned a real (possibly None) entry."""
        return value is not _MISS

    def put(self, key: CacheKey, value: CachedArc) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
            set_gauge("sta.cache.entries", len(self._data))

    def record_external(self, hits: int, misses: int) -> None:
        """Fold hit/miss counts observed inside process workers in.

        The workers' ``sta.cache`` increments arrive with their metrics
        delta (:func:`repro.obs.merge_delta`), so none are made here.
        """
        with self._lock:
            self.hits += hits
            self.misses += misses

    def entries_for(self, fingerprint: str) -> Dict[CacheKey, CachedArc]:
        """Snapshot of the entries one stage task could hit."""
        with self._lock:
            return {key: value for key, value in self._data.items()
                    if key[0] == fingerprint}

    def merge(self, entries: Dict[CacheKey, CachedArc]) -> None:
        for key, value in entries.items():
            self.put(key, value)

    # ------------------------------------------------------------------
    def _quarantine(self, path: str, reason: str = "parse") -> None:
        """Move a corrupt store aside so it never crashes a run again.

        The original bytes are preserved (``<path>.corrupt``) for
        post-mortem; the analysis proceeds with a cold cache.
        """
        inc("cache.store_corrupt", reason=reason)
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass

    @staticmethod
    def _parse_store(document: object
                     ) -> List[Tuple[CacheKey, CachedArc]]:
        """Entries of a well-formed store document (raises otherwise)."""
        if not isinstance(document, dict) \
                or not isinstance(document.get("entries", {}), dict):
            raise ValueError("malformed store document")
        parsed: List[Tuple[CacheKey, CachedArc]] = []
        for joined, value in document.get("entries", {}).items():
            fingerprint, _, arc = joined.partition("/")
            cached: CachedArc = None
            if value is not None:
                delay, out_slew = value[0], value[1]
                quality = value[2] if len(value) > 2 else None
                cached = (float(delay),
                          None if out_slew is None else float(out_slew),
                          None if quality is None else str(quality))
            parsed.append(((fingerprint, arc), cached))
        return parsed

    def load(self, path: str) -> int:
        """Load a JSON store (merging into the LRU); returns entry count.

        Robust by design: a truncated or corrupted store (a crash
        mid-write, a bad copy) is a *cache miss*, not a fatal error —
        the file is quarantined to ``<path>.corrupt``, the
        ``cache.store_corrupt`` counter increments, and 0 entries
        load.  A store stamped with a different schema version
        quarantines the same way (its key layout or value tuple may
        not mean what this code assumes — treating it as data risks
        silently wrong arrivals).
        """
        try:
            with open(path) as handle:
                document = json.load(handle)
            if isinstance(document, dict) \
                    and document.get("version") != self.VERSION:
                self._quarantine(path, reason="version")
                return 0
            loaded = self._parse_store(document)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError,
                TypeError, IndexError, KeyError):
            self._quarantine(path)
            return 0
        for key, cached in loaded:
            self.put(key, cached)
        return len(loaded)

    @staticmethod
    @contextmanager
    def _store_lock(target: str) -> Iterator[None]:
        """Advisory file lock serializing multi-process store writes.

        Best-effort: on platforms without ``fcntl`` the lock degrades
        to a no-op (the atomic rename still guarantees readers never
        see a torn file — the lock only prevents concurrent writers
        from losing each other's entries).
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            yield
            return
        lock_path = target + ".lock"
        with open(lock_path, "w") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def save(self, path: Optional[str] = None) -> str:
        """Write the JSON store (defaults to the construction path).

        Multi-process safe: the write happens under an advisory file
        lock, merges any valid entries another process persisted since
        our load (ours win on conflict), and lands via an atomic
        tmp-file + fsync + rename — a reader or a crash mid-save sees
        either the old store or the new one, never a torn file.
        """
        target = path or self.path
        if target is None:
            raise ValueError("no store path configured")
        with self._lock:
            entries = {f"{fp}/{arc}": (None if value is None
                                       else list(value))
                       for (fp, arc), value in self._data.items()}
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        with self._store_lock(target):
            if os.path.exists(target):
                try:
                    with open(target) as handle:
                        document = json.load(handle)
                    if isinstance(document, dict) \
                            and document.get("version") == self.VERSION:
                        for (fp, arc), cached in \
                                self._parse_store(document):
                            entries.setdefault(
                                f"{fp}/{arc}",
                                None if cached is None
                                else [cached[0], cached[1], cached[2]])
                except (json.JSONDecodeError, UnicodeDecodeError,
                        ValueError, TypeError, IndexError, KeyError,
                        OSError):
                    pass
            document = {"version": self.VERSION, "entries": entries}
            tmp = target + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
        return target


# ----------------------------------------------------------------------
# Stage evaluation (the main process and every pool worker run this).
# ----------------------------------------------------------------------
def _evaluate_stage(analyzer: StaticTimingAnalyzer, stage: LogicStage,
                    snapshot: Dict[Event, ArrivalTime],
                    cache: Optional[StageResultCache],
                    form: Optional[CanonicalForm],
                    clamp: Optional[str] = None
                    ) -> Tuple[Dict[Event, ArrivalTime],
                               SimulationStats]:
    """One stage task: arrivals for the stage's output events + cost.

    All QWM cost is folded into a task-local accumulator.  With a cache
    and a canonical form, arcs are keyed by the stage's *canonical*
    net/input ids, so isomorphic stages (a decoder's repeated NANDs,
    for example) share entries no matter what their nets are called.
    A non-None ``clamp`` (admission control under deadline pressure)
    degrades the arc math; clamped results may *read* the cache but are
    never stored — a deadline-starved run must not poison the shared
    cache with bounded arcs a later unconstrained run would then reuse.

    When the flight view is on, misses attribute the solve-id range
    the arc consumed to its cache key and hits point back at those
    origin solves — cache-served results keep their forensics trail.
    """
    stats = SimulationStats()

    def solve(stage_: LogicStage, output: str, out_direction: str,
              switching_input: str, input_slew: Optional[float]
              ) -> CachedArc:
        return analyzer.stage_arc(stage_, output, out_direction,
                                  switching_input,
                                  input_slew=input_slew, stats=stats,
                                  clamp=clamp)

    def arc_fn(stage_: LogicStage, output: str, out_direction: str,
               switching_input: str, input_slew: Optional[float]
               ) -> CachedArc:
        if cache is None or form is None:
            return solve(stage_, output, out_direction, switching_input,
                         input_slew)
        key = arc_cache_key(form.fingerprint, form.net_ids[output],
                            out_direction,
                            form.input_ids[switching_input], input_slew)
        value = cache.get(key)
        led = ledger()
        if StageResultCache.found(value):
            if led.recording:
                led.note_cache_hit(f"{key[0]}/{key[1]}")
            return value  # type: ignore[return-value]
        first_solve = led.next_solve_id() if led.recording else 0
        result = solve(stage_, output, out_direction, switching_input,
                       input_slew)
        if clamp is None:
            cache.put(key, result)
        if led.recording:
            led.note_arc_result(f"{key[0]}/{key[1]}", first_solve,
                                led.next_solve_id())
        return result

    computed = compute_stage_arrivals(stage, snapshot, arc_fn,
                                      analyzer.propagate_slews,
                                      analyzer.input_slew)
    return computed, stats


# ----------------------------------------------------------------------
# Process-pool plumbing: one analyzer per worker process, built once
# by the pool initializer.  The table library ships pickled with the
# initargs; ParallelStaEngine.run characterizes every table the graph
# needs before the pool starts, so no worker characterizes.
# ----------------------------------------------------------------------
_WORKER_ANALYZER: Optional[StaticTimingAnalyzer] = None


def _process_worker_init(tech, library, options, propagate_slews,
                         input_slew, escalate, obs_state,
                         fault_plan=None) -> None:
    global _WORKER_ANALYZER
    _WORKER_ANALYZER = StaticTimingAnalyzer(
        tech, library=library, options=options,
        propagate_slews=propagate_slews, input_slew=input_slew,
        escalate=escalate)
    # Workers record into their own profile cells, metric series and
    # flight events.  Each stage task drains one delta of all three
    # into its return payload and the parent merges it: cells and
    # series add (so the totals do not depend on the worker count),
    # events append under solve ids renumbered into the parent's.
    # Flight bundles land in the shared bundle_dir either way.
    install_worker_state(obs_state)
    # Fault plans follow the work into the pool so the solver faults
    # (Newton, stage timeout) fire where the chaos harness aimed them;
    # crash/hang faults are armed by the parent and arrive with the
    # task (faults.worker_fault).
    if fault_plan is not None:
        faults.install(fault_plan)


def _process_stage_task(stage: LogicStage,
                        snapshot: Dict[Event, ArrivalTime],
                        form: Optional[CanonicalForm],
                        shipped: Optional[Dict[CacheKey, CachedArc]],
                        clamp: Optional[str] = None,
                        fault: Optional[faults.FaultSpec] = None):
    """Worker-process task: :func:`_evaluate_stage` on shipped entries.

    ``fault`` is the crash/hang fault the parent armed for this
    submission, obeyed before anything is evaluated.  The shipped
    entries fill a worker-local cache.  Returns (arrivals,
    stats, new cache entries, cache hits, cache misses, obs delta,
    elapsed seconds); the parent merges the new entries into the shared
    cache so later dispatches of equal configurations hit, folds the
    hit/miss counts into the shared cache's counters, merges the delta
    (see :func:`repro.obs.merge_delta`) and notes the elapsed time as
    the stage's cost.  The task runs in the same ``sta.stage.task``
    frame as an in-process stage, so merged profile paths equal an
    in-process run's.
    """
    analyzer = _WORKER_ANALYZER
    assert analyzer is not None, "worker pool initializer did not run"
    faults.obey_worker_fault(fault)
    cache = None
    if shipped is not None:
        cache = StageResultCache()
        cache.merge(shipped)
    started = time.perf_counter()
    with frame("sta.stage.task", stage=stage.name):
        computed, stats = _evaluate_stage(analyzer, stage, snapshot,
                                          cache, form, clamp)
    elapsed = time.perf_counter() - started
    new_entries: Dict[CacheKey, CachedArc] = {}
    hits = misses = 0
    if cache is not None and form is not None:
        new_entries = {key: value for key, value
                       in cache.entries_for(form.fingerprint).items()
                       if key not in shipped}
        hits, misses = cache.hits, cache.misses
    return (computed, stats, new_entries, hits, misses, drain_delta(),
            elapsed)


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------
class ParallelStaEngine:
    """Schedules one STA run per :class:`ExecutionConfig`.

    Args:
        analyzer: the configured :class:`StaticTimingAnalyzer` (its
            technology, options and slew mode define the arc math).
        config: scheduling/caching policy.
        cache: optional shared cache instance; when omitted and the
            config wants caching, a private cache is created (loading
            ``config.cache_path`` if present).
    """

    def __init__(self, analyzer: StaticTimingAnalyzer,
                 config: ExecutionConfig,
                 cache: Optional[StageResultCache] = None):
        self.analyzer = analyzer
        self.config = config
        if cache is None and config.wants_cache:
            cache = StageResultCache(path=config.cache_path)
        self.cache = cache
        # Set by the SIGINT/SIGTERM handlers (and tests); the dispatch
        # loop stops at the next stage boundary, the last flushed
        # journal checkpoint stands, and run() returns a partial result.
        self._interrupt = threading.Event()

    # ------------------------------------------------------------------
    def run(self, graph: StageGraph,
            input_arrivals: Optional[Dict[Event, float]] = None
            ) -> StaResult:
        """Run STA over the graph; arrivals match for every worker count."""
        analyzer = self.analyzer
        config = self.config
        # Characterize every table the graph needs before any stage
        # runs, so pool workers unpickle a full library instead of each
        # fitting its own.
        library = analyzer.evaluator.library
        for polarity, length in dict.fromkeys(
                (edge.kind.polarity, edge.l) for stage in graph.stages
                for edge in stage.transistors):
            library.get(polarity, length)
        primary_slew = (analyzer.input_slew
                        if analyzer.propagate_slews else None)
        arrivals, driven = primary_input_arrivals(
            graph, input_arrivals, primary_slew)
        with frame("sta.levelize", stages=len(graph.stages)):
            order = list(graph.topological_order())
        waves = self._wave_indices(graph, order)
        if waves:
            set_gauge("sta.parallel.waves", max(waves.values()) + 1)

        forms: Dict[str, Optional[CanonicalForm]] = {}
        for stage in order:
            forms[stage.name] = (canonical_form_for(stage, analyzer)
                                 if self.cache is not None else None)

        controller: Optional[AdmissionController] = None
        if config.deadline is not None:
            controller = AdmissionController(
                RunBudget(config.deadline, config.grace),
                parallelism=config.workers)

        journal, done, replayed_stats, resumed = self._prepare_journal(
            graph, order, waves, arrivals, input_arrivals)

        self._interrupt.clear()
        with self._signal_guard(controller is not None
                                or journal is not None):
            stats_by_stage = self._dispatch(
                graph, order, arrivals, waves, forms,
                controller=controller, journal=journal, done=done)

        stats = SimulationStats()
        stats.accumulate(replayed_stats)
        for stage in order:
            if stage.name in stats_by_stage:
                stats.accumulate(stats_by_stage[stage.name])
        result = finalize_result(arrivals, driven)
        result.stats = stats
        result.partial = (len(done) + len(stats_by_stage)) < len(order)
        result.resumed_waves = resumed
        if controller is not None:
            result.budget = controller.summary()
        if journal is not None:
            result.journal = {
                "path": journal.path,
                "waves": len(journal.segments),
                "replayed": resumed,
                "disabled": journal.disabled,
                "dropped_lines": journal.dropped_lines,
            }
        if self.cache is not None and self.config.cache_path is not None:
            self.cache.save(self.config.cache_path)
        return result

    # ------------------------------------------------------------------
    def _prepare_journal(self, graph: StageGraph,
                         order: List[LogicStage],
                         waves: Dict[str, int],
                         arrivals: Dict[Event, ArrivalTime],
                         input_arrivals: Optional[Dict[Event, float]]
                         ) -> Tuple[Optional[RunJournal],
                                    FrozenSet[str],
                                    SimulationStats, int]:
        """Open (and on ``resume`` replay) the configured run journal.

        Returns ``(journal, completed stage names, replayed stats,
        replayed wave count)``.  A corrupt journal starts fresh
        (counted in ``resilience.journal.corrupt``); a fingerprint
        mismatch raises — resuming someone else's run would silently
        corrupt arrivals.
        """
        config = self.config
        if config.journal_path is None:
            return None, frozenset(), SimulationStats(), 0
        fingerprint = run_fingerprint(graph, self.analyzer,
                                      input_arrivals)
        n_waves = (max(waves.values()) + 1) if waves else 0
        fresh = RunJournal(config.journal_path, fingerprint,
                           design=graph.name, stages=len(order),
                           waves=n_waves)
        if not config.resume or not os.path.exists(config.journal_path):
            fresh.flush()
            return fresh, frozenset(), SimulationStats(), 0
        try:
            journal = RunJournal.load(config.journal_path)
        except JournalError:
            inc("resilience.journal.corrupt")
            fresh.flush()
            return fresh, frozenset(), SimulationStats(), 0
        journal.require_fingerprint(fingerprint)
        journal.design = graph.name
        journal.stages = len(order)
        journal.waves = n_waves
        names = {stage.name for stage in order}
        done: Set[str] = set()
        replayed_stats = SimulationStats()
        replayed = 0
        for _, stage_names, deltas, seg_stats in journal.replay():
            arrivals.update(deltas)
            done.update(name for name in stage_names if name in names)
            replayed_stats.accumulate(seg_stats)
            replayed += 1
        if replayed:
            inc("resilience.journal.replayed_waves", replayed)
        return journal, frozenset(done), replayed_stats, replayed

    @contextmanager
    def _signal_guard(self, enabled: bool) -> Iterator[None]:
        """SIGINT/SIGTERM → graceful stop, for budgeted/journaled runs.

        The handler only sets :attr:`_interrupt`; the dispatch loop
        stops at the next stage boundary, so the final journal
        checkpoint is never torn and run() returns a partial,
        quality-tagged result instead of dying mid-write.  No-op off
        the main thread or when neither a budget nor a journal is
        configured (plain runs keep the default KeyboardInterrupt
        behavior).
        """
        if not enabled or threading.current_thread() \
                is not threading.main_thread():
            yield
            return
        previous: Dict[int, object] = {}

        def handler(signum, frame):  # pragma: no cover - signal path
            self._interrupt.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        try:
            yield
        finally:
            for signum, old in previous.items():
                try:
                    signal.signal(signum, old)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    # ------------------------------------------------------------------
    @staticmethod
    def _wave_indices(graph: StageGraph, order: List[LogicStage]
                      ) -> Dict[str, int]:
        """Levelized wave (longest-path depth) of every stage."""
        waves: Dict[str, int] = {}
        for stage in order:
            preds = graph.fanin[stage.name]
            waves[stage.name] = (max(waves[p] for p in preds) + 1
                                 if preds else 0)
        return waves

    def _make_executor(self) -> Executor:
        evaluator = self.analyzer.evaluator
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_process_worker_init,
            initargs=(self.analyzer.tech, evaluator.library,
                      evaluator.options, self.analyzer.propagate_slews,
                      self.analyzer.input_slew, self.analyzer.escalate,
                      worker_state(), faults.active_plan()))

    def _dispatch(self, graph: StageGraph, order: List[LogicStage],
                  arrivals: Dict[Event, ArrivalTime],
                  waves: Dict[str, int],
                  forms: Dict[str, Optional[CanonicalForm]],
                  controller: Optional[AdmissionController] = None,
                  journal: Optional[RunJournal] = None,
                  done: FrozenSet[str] = frozenset()
                  ) -> Dict[str, SimulationStats]:
        """Dependency-counting dispatch over one FIFO ready queue.

        The queue starts with the stages that have no fan-in, in
        ``order``; a stage joins it, in fan-out order, the moment its
        last fanin stage completes.  There is no per-level barrier, so
        a deep narrow cone and a wide shallow one overlap freely.  With
        one worker (or one stage to run) every ready stage is evaluated
        in the main process, and the queue then yields exactly
        ``graph.topological_order()``; with more, ready stages are
        submitted to a worker pool.  The main thread owns ``arrivals``
        and the cache merge; workers only ever see immutable snapshots.
        Stages in ``done`` (replayed from a run journal) are never
        dispatched and never count as dependencies.

        While the first pool task of a canonical form is in flight,
        later stages of that form are held back; they rejoin the queue
        when it completes, so they hit the entries it solved instead of
        solving the same arcs side by side.

        Worker failures degrade, they do not kill the run:

        * a *dead pool* (a worker segfaulted / was OOM-killed) re-runs
          only the stage whose future surfaced the breakage in the main
          process (a deterministic crasher must not kill the
          replacement pool too), rebuilds the pool, and resubmits the
          other in-flight stages to it;
        * an ordinary *task exception* gets one retry in the main
          process (a deterministic bug then re-raises there, with a
          real traceback);
        * with ``config.stage_timeout`` set, a task that outlives its
          watchdog is abandoned (its worker may be hung) and the stage
          is re-run in the main process.

        Each main-process recovery increments
        ``sta.parallel.redispatch``; surviving stages resubmitted to a
        rebuilt pool count under ``sta.parallel.resubmit``.  When the
        flight view is on, recoveries record an ``escalation``
        event with ``from_rung="worker"``.
        """
        config = self.config
        active = [stage for stage in order if stage.name not in done]
        stage_names = {stage.name for stage in active}
        indegree: Dict[str, int] = {}
        for stage in active:
            indegree[stage.name] = sum(
                p in stage_names for p in graph.fanin[stage.name])
        by_name = {stage.name: stage for stage in active}
        ready = deque(stage for stage in active
                      if indegree[stage.name] == 0)
        # Canonical fingerprint -> the first stage dispatched with it,
        # and the stages held back while that one is in flight.
        first_of_form: Dict[str, str] = {}
        held: Dict[str, List[LogicStage]] = {}
        stats_by_stage: Dict[str, SimulationStats] = {}

        # Per-wave journal accumulation: a wave checkpoints when its
        # last not-yet-done stage completes (waves whose segment was
        # replayed never re-record — record_wave is idempotent).  On a
        # pool, a wave's span opens when its first stage is submitted
        # and closes with its last (waves overlap, so the spans stay
        # off the frame stack).
        wave_pending: Dict[int, int] = {}
        for stage in active:
            wave = waves[stage.name]
            wave_pending[wave] = wave_pending.get(wave, 0) + 1
        wave_spans: Dict[int, object] = {}
        wave_deltas: Dict[int, Dict[Event, ArrivalTime]] = {}
        wave_stats: Dict[int, SimulationStats] = {}
        wave_names: Dict[int, List[str]] = {}

        pooled = config.workers > 1 and len(active) > 1
        backend = "process" if pooled else "serial"
        executor = self._make_executor() if pooled else None
        futures: Dict[object, LogicStage] = {}
        submitted_at: Dict[object, float] = {}
        abandoned_workers = False

        def complete(stage: LogicStage,
                     computed: Dict[Event, ArrivalTime],
                     stats: SimulationStats, elapsed: float) -> None:
            arrivals.update(computed)
            stats_by_stage[stage.name] = stats
            if controller is not None:
                controller.note_stage_cost(elapsed)
            wave = waves[stage.name]
            if journal is not None:
                wave_deltas.setdefault(wave, {}).update(computed)
                wave_stats.setdefault(
                    wave, SimulationStats()).accumulate(stats)
                wave_names.setdefault(wave, []).append(stage.name)
            wave_pending[wave] -= 1
            if wave_pending[wave] == 0:
                if wave in wave_spans:
                    wave_spans.pop(wave).close()
                if journal is not None:
                    if journal.record_wave(wave, wave_names[wave],
                                           wave_deltas[wave],
                                           wave_stats[wave]):
                        faults.wave_gate(wave)
            form = forms[stage.name]
            if form is not None:
                ready.extend(held.pop(form.fingerprint, ()))
            for successor in graph.fanout[stage.name]:
                if successor not in indegree:
                    continue
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(by_name[successor])

        def evaluate_here(stage: LogicStage, clamp: Optional[str] = None,
                          **attrs: object) -> None:
            started = time.perf_counter()
            with frame("sta.stage.task", stage=stage.name,
                       wave=waves[stage.name], **attrs):
                computed, stats = _evaluate_stage(
                    self.analyzer, stage, arrivals, self.cache,
                    forms[stage.name], clamp=clamp)
            elapsed = time.perf_counter() - started
            complete(stage, computed, stats, elapsed)

        def run_in_parent(stage: LogicStage, reason: str) -> None:
            """Re-run a pool casualty: same arc math, main process."""
            inc("sta.parallel.redispatch", reason=reason)
            led = ledger()
            if led.recording:
                led.record("escalation", from_rung="worker",
                           to_rung="serial", reason=reason,
                           stage=stage.name)
            evaluate_here(stage, redispatch=reason)

        def dispatch(stage: LogicStage) -> None:
            inc("sta.parallel.dispatch", backend=backend)
            clamp: Optional[str] = None
            if controller is not None:
                level = controller.admit(waves[stage.name],
                                         len(active) - len(stats_by_stage))
                clamp = None if level == CLAMP_FULL else level
            if executor is None:
                evaluate_here(stage, clamp)
                return
            wave = waves[stage.name]
            if wave not in wave_spans:
                wave_spans[wave] = interval(
                    "sta.wave", index=wave, stages=wave_pending[wave],
                    backend="process")
            form = forms[stage.name]
            relevant = set(stage.inputs)
            relevant.update(node.name for node in stage.outputs)
            snapshot = {event: arrival
                        for event, arrival in arrivals.items()
                        if event[0] in relevant}
            shipped = (self.cache.entries_for(form.fingerprint)
                       if self.cache is not None
                       and form is not None else None)
            future = executor.submit(_process_stage_task, stage,
                                     snapshot, form, shipped, clamp,
                                     faults.worker_fault(stage.name))
            futures[future] = stage
            submitted_at[future] = time.monotonic()

        def merge_payload(stage: LogicStage, payload) -> None:
            (computed, stats, new_entries, hits, misses, delta,
             elapsed) = payload
            if self.cache is not None:
                self.cache.merge(new_entries)
                self.cache.record_external(hits, misses)
            merge_delta(delta)
            complete(stage, computed, stats, elapsed)

        def recover_broken_pool(first_casualty: LogicStage) -> None:
            """A worker died and took the pool with it.

            ``first_casualty`` is the stage whose future surfaced the
            breakage (already popped by the caller).  Only it re-runs
            in the main process (a deterministic crasher must not kill
            the replacement pool too); the other in-flight stages lost
            nothing but their dispatch, so they resubmit to a fresh
            pool instead of serializing the whole wave.  Each
            resubmission asks the fault plan afresh, so a crasher whose
            ``count`` is spent runs cleanly; one that crashes again
            surfaces as the next broken future and becomes the next
            first casualty.
            """
            nonlocal executor
            survivors = [stage for stage in futures.values()
                         if stage.name != first_casualty.name]
            futures.clear()
            submitted_at.clear()
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            executor = self._make_executor()
            run_in_parent(first_casualty, "worker_crash")
            for stage in survivors:
                inc("sta.parallel.resubmit", reason="worker_crash")
                dispatch(stage)

        poll = (max(0.02, config.stage_timeout / 4.0)
                if config.stage_timeout is not None else None)
        try:
            while ready or futures:
                if self._interrupt.is_set():
                    inc("sta.parallel.interrupted", backend=backend)
                    break
                if ready:
                    stage = ready.popleft()
                    form = forms[stage.name]
                    if form is not None:
                        first = first_of_form.setdefault(
                            form.fingerprint, stage.name)
                        if first != stage.name \
                                and first not in stats_by_stage:
                            held.setdefault(form.fingerprint,
                                            []).append(stage)
                            continue
                    dispatch(stage)
                    continue
                finished, _ = wait(list(futures), timeout=poll,
                                   return_when=FIRST_COMPLETED)
                for future in finished:
                    if future not in futures:
                        continue
                    stage = futures.pop(future)
                    submitted_at.pop(future, None)
                    try:
                        payload = future.result()
                    except BrokenExecutor:
                        recover_broken_pool(stage)
                        break
                    except Exception:
                        # One retry in the main process: a worker-only
                        # fault (or a transient environment failure) is
                        # absorbed; a deterministic bug re-raises with a
                        # main-process traceback.
                        run_in_parent(stage, "task_error")
                        continue
                    merge_payload(stage, payload)
                if config.stage_timeout is not None:
                    now = time.monotonic()
                    overdue = [f for f, t0 in submitted_at.items()
                               if now - t0 > config.stage_timeout]
                    for future in overdue:
                        stage = futures.pop(future, None)
                        submitted_at.pop(future, None)
                        if stage is None:
                            continue
                        future.cancel()
                        abandoned_workers = True
                        run_in_parent(stage, "stage_timeout")
        finally:
            for handle in wave_spans.values():
                handle.close()
            # A hung worker would block a waiting shutdown forever;
            # once any task has been abandoned, leave the pool to
            # reap itself.
            if executor is not None:
                executor.shutdown(wait=not abandoned_workers,
                                  cancel_futures=True)
        return stats_by_stage
