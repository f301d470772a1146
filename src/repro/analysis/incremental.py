"""Incremental static timing analysis.

A full STA evaluates every stage arc with QWM.  After a local design
edit (a transistor resize, a load change), only the touched stages —
the edited stage itself plus any upstream driver whose output load
changed — need fresh evaluations; every other arc is still valid.
:class:`IncrementalTimer` re-runs the analysis against one
:class:`repro.analysis.parallel.StageResultCache` that lives as long as
the timer.  The cache key is the stage's canonical form, which holds
the device geometry and the node loads, so an edited stage simply has a
new key: there is nothing to invalidate, and an undone edit hits the
entries solved before it.

This is where transistor-level STA pays off in practice: the per-stage
evaluation is the expensive step, and QWM already makes it cheap; the
incremental layer avoids repeating even that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.parallel import ExecutionConfig, StageResultCache
from repro.analysis.sta import Event, StaResult, StaticTimingAnalyzer
from repro.circuit.stage import StageGraph
from repro.devices.capacitance import gate_capacitance
from repro.devices.table_model import TableModelLibrary
from repro.devices.technology import Technology


@dataclass
class IncrementalStats:
    """Bookkeeping for one analysis pass.

    Attributes:
        arcs_evaluated: arcs solved in this pass (stage-cache misses).
        arcs_cached: arcs served from the stage cache (hits).
    """

    arcs_evaluated: int = 0
    arcs_cached: int = 0

    @property
    def total(self) -> int:
        return self.arcs_evaluated + self.arcs_cached


class IncrementalTimer:
    """STA that re-runs against one stage-result cache after edits.

    Args:
        tech: process technology.
        graph: the partitioned design (stages are edited in place
            through the editing methods below).
        library: shared table-model library.
        cache: the stage-result cache to re-run against (default: a
            new one that lives as long as the timer).
        execution: scheduling policy for every pass (see
            :class:`repro.analysis.parallel.ExecutionConfig`).
        escalate: False runs every arc on the ``qwm`` rung alone (see
            :class:`repro.analysis.sta.StaticTimingAnalyzer`).
    """

    def __init__(self, tech: Technology, graph: StageGraph,
                 library: Optional[TableModelLibrary] = None,
                 cache: Optional[StageResultCache] = None,
                 execution: Optional[ExecutionConfig] = None,
                 escalate: bool = True):
        self.tech = tech
        self.graph = graph
        # An empty cache is falsy (it has a length), hence `is None`.
        self.cache = cache if cache is not None else StageResultCache()
        self.analyzer = StaticTimingAnalyzer(tech, library=library,
                                             execution=execution,
                                             cache=self.cache,
                                             escalate=escalate)
        self.last_stats = IncrementalStats()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self,
                input_arrivals: Optional[Dict[Event, float]] = None
                ) -> StaResult:
        """Run STA, reusing every cached arc of an unchanged stage form."""
        hits, misses = self.cache.hits, self.cache.misses
        result = self.analyzer.analyze(self.graph, input_arrivals)
        self.last_stats = IncrementalStats(
            arcs_evaluated=self.cache.misses - misses,
            arcs_cached=self.cache.hits - hits)
        return result

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def resize_transistor(self, stage_name: str, device_name: str,
                          new_width: float) -> None:
        """Resize a device; dirties the stage and upstream drivers.

        The gate of the resized device loads whichever stage drives its
        input net, so that driver's output load is adjusted too.
        """
        if new_width <= 0:
            raise ValueError("width must be positive")
        stage = self.graph.stage(stage_name)
        edge = stage.edge(device_name)
        old_width = edge.w
        params = (self.tech.nmos if edge.kind.polarity == "n"
                  else self.tech.pmos)
        edge.w = new_width

        gate_net = edge.gate_input
        driver = self.graph.driver_of.get(gate_net)
        if driver is not None:
            delta = (gate_capacitance(params, new_width, edge.l)
                     - gate_capacitance(params, old_width, edge.l))
            driver.node(gate_net).load_cap += delta

    def set_load(self, net: str, cap: float) -> None:
        """Change a net's external load (dirties its driver stage)."""
        stage = self.graph.stage_of_net.get(net)
        if stage is None:
            raise KeyError(f"net {net!r} is not driven by any stage")
        stage.node(net).load_cap = cap
