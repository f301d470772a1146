"""Public QWM entry point: the waveform evaluator.

:class:`WaveformEvaluator` ties everything together: it characterizes
(or reuses) the tabular device models, extracts the worst-case pull path
for a requested output transition, runs the QWM schedule, and reports
waveforms, delays and solver statistics.

Example:
    >>> from repro.devices import CMOSP35
    >>> from repro.circuit import builders
    >>> from repro.core import WaveformEvaluator
    >>> from repro.spice import StepSource
    >>> tech = CMOSP35
    >>> stage = builders.nand_gate(tech, 2)
    >>> evaluator = WaveformEvaluator(tech)
    >>> sol = evaluator.evaluate(
    ...     stage, output="out", direction="fall",
    ...     inputs={"a0": StepSource(0.0, tech.vdd, 0.0), "a1": tech.vdd})
    >>> sol.delay() > 0
    True
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuit.netlist import LogicStage
from repro.core.path import DischargePath, extract_path
from repro.core.qwm import QWMOptions, QWMSolution, QWMSolver
from repro.linalg.newton import NewtonConvergenceError
from repro.obs import FrameLedger, frame, inc, ledger
from repro.resilience import faults
from repro.devices.table_model import TableModelLibrary
from repro.devices.technology import Technology
from repro.spice.sources import SourceLike, as_source


class WaveformEvaluator:
    """Evaluates output waveforms of logic stages with QWM.

    Args:
        tech: process technology.
        library: optional pre-characterized table-model library (shared
            across evaluators to amortize characterization, mirroring
            the paper's one-time device characterization).
        options: QWM scheduler options.
        preflight: when True, lint every stage (structural ERC rules +
            solver options) on first evaluation and raise
            :class:`repro.lint.PreflightError` on error-severity
            findings instead of attempting a solve.
    """

    def __init__(self, tech: Technology,
                 library: Optional[TableModelLibrary] = None,
                 options: Optional[QWMOptions] = None,
                 preflight: bool = False):
        self.tech = tech
        # An empty library is falsy (len 0); test against None so a
        # caller's not-yet-characterized library (and its grid step)
        # is the one used and filled.
        self.library = (library if library is not None
                        else TableModelLibrary(tech))
        self.options = options or QWMOptions()
        self.preflight = preflight
        self._preflighted: set = set()
        # Converged DC pre-states by StageEquations.dc_key (see
        # _dc_initial); lives as long as the evaluator.
        self._dc_memo: Dict[Tuple[Tuple, bytes], np.ndarray] = {}

    def _preflight_stage(self, stage: LogicStage) -> None:
        """Lint a stage once (keyed by identity) before solving it."""
        if not self.preflight or id(stage) in self._preflighted:
            return
        from repro.lint import LintContext, preflight

        with frame("engine.preflight", stage=stage.name):
            ctx = LintContext.from_stage(stage, tech=self.tech,
                                         options=self.options)
            ctx.grid_step = getattr(self.library, "grid_step", None)
            preflight(ctx, what=f"stage {stage.name!r}",
                      packs=("erc", "solver"))
        self._preflighted.add(id(stage))

    # ------------------------------------------------------------------
    def extract(self, stage: LogicStage, output: str, direction: str,
                inputs: Dict[str, SourceLike],
                t_final: Optional[float] = None) -> DischargePath:
        """Extract the pull path for one transition (see
        :func:`repro.core.path.extract_path`)."""
        probe = self.options.t_stop if t_final is None else t_final
        return extract_path(stage, output, direction,
                            {k: as_source(v) for k, v in inputs.items()},
                            self.library, t_final=probe)

    def default_initial(self, path: DischargePath,
                        precharge: str = "full",
                        inputs: Optional[Dict[str, SourceLike]] = None,
                        t_start: float = 0.0) -> Dict[str, float]:
        """Default initial node voltages for a worst-case transition.

        Args:
            path: the extracted path.
            precharge: initial-condition style —
                ``"full"``: every path node starts a full swing away
                from the rail (the paper's precharged stacks/decoder);
                ``"degraded"``: internal nodes start one threshold short
                of the swing (a series stack cut off at the bottom,
                e.g. a NAND waiting for its last input);
                ``"dc"``: solve the stage's DC operating point at the
                pre-switching input levels (requires ``inputs``) — the
                physically settled steady state.
            inputs: gate sources, required for ``"dc"``.
            t_start: instant whose input levels seed the DC solve [s].
        """
        vdd = path.vdd
        if precharge not in ("full", "degraded", "dc"):
            raise ValueError("precharge must be 'full', 'degraded' or 'dc'")
        if precharge == "dc":
            if inputs is None:
                raise ValueError("precharge='dc' needs the input sources")
            return self._dc_initial(path, inputs, t_start)
        initial: Dict[str, float] = {}
        for index, name in enumerate(path.node_names):
            u0 = vdd
            if precharge == "degraded" and index < path.length - 1:
                # Internal nodes charged through the stack above settle
                # one (body-affected) threshold below the full frame
                # swing: the fixed point of u = vdd - vth(u), with the
                # gate at its conducting level.
                device = path.devices[index + 1] if index + 1 < len(
                    path.devices) else path.devices[index]
                if device.is_transistor:
                    gate_on = (0.0 if device.kind.value == "pmos"
                               else vdd)
                    u0 = vdd - device.threshold(gate_on, vdd, vdd)
                    for _ in range(8):
                        u0 = vdd - device.threshold(gate_on, u0, u0)
            initial[name] = path.from_frame(u0)
        return initial

    def _dc_initial(self, path: DischargePath,
                    inputs: Dict[str, SourceLike],
                    t_start: float) -> Dict[str, float]:
        """Pre-switching DC operating point of the full stage.

        Each distinct DC problem is solved once per evaluator: the
        solution is a pure function of :meth:`StageEquations.dc_key`,
        so repeated sensitizations and isomorphic stages reuse it bit
        for bit.  The memo is bypassed while a fault plan is installed,
        so armed Newton faults count the same calls as without it.
        """
        from repro.spice.dc import logic_initial_condition, solve_dc
        from repro.spice.mna import StageEquations

        stage = path.stage
        sources = {k: as_source(v) for k, v in inputs.items()}
        # Levels just before the schedule starts (pre-step side).
        levels = {name: src.value(t_start - 1e-15)
                  for name, src in sources.items()}
        equations = StageEquations(stage, self.tech)
        seed = logic_initial_condition(stage, levels)
        guess = np.array([seed[name] for name in equations.node_names])
        key = (equations.dc_key(levels, guess)
               if faults.active_plan() is None else None)
        solution = self._dc_memo.get(key) if key is not None else None
        if solution is None:
            try:
                solution = solve_dc(equations, levels,
                                    initial_guess=guess)
            except (NewtonConvergenceError, np.linalg.LinAlgError,
                    FloatingPointError, ZeroDivisionError,
                    OverflowError) as exc:
                # A pathological bias (usually a floating pass-
                # transistor net) can defeat the DC continuation; the
                # analytic threshold-degraded estimate is the robust
                # fallback.  Only numerical failures are absorbed — a
                # TypeError or a bad stage description must surface,
                # not silently degrade the initial condition.
                inc("engine.dc_fallback", exc=type(exc).__name__)
                return self.default_initial(path, "degraded")
            if key is not None:
                self._dc_memo[key] = solution
        return {name: float(solution[equations.node_index(name)])
                for name in path.node_names}

    def evaluate(self, stage: LogicStage, output: str, direction: str,
                 inputs: Dict[str, SourceLike],
                 initial: Optional[Dict[str, float]] = None,
                 precharge: str = "full",
                 t_start: float = 0.0) -> QWMSolution:
        """Evaluate one output transition of a stage with QWM.

        Args:
            stage: the logic stage.
            output: output node name.
            direction: ``"fall"`` or ``"rise"`` of the output.
            inputs: gate input name -> source or constant level.
            initial: optional explicit initial node voltages (actual
                volts) for the path nodes; defaults to
                :meth:`default_initial` with the given ``precharge``.
            precharge: initial-condition style when ``initial`` is None.
            t_start: schedule start time [s].

        Returns:
            The QWM solution (waveforms + stats).
        """
        with frame("engine.evaluate", stage.name,
                   ctx={"stage": stage.name, "output": output,
                        "direction": direction},
                   output=output, direction=direction):
            faults.check_stage_timeout()
            self._preflight_stage(stage)
            with frame("engine.extract"):
                path = self.extract(stage, output, direction, inputs)
            with frame("engine.initial", precharge):
                start = self.default_initial(path, precharge,
                                             inputs=inputs,
                                             t_start=t_start)
            if initial is not None:
                start.update(initial)
            solver = QWMSolver(path, self.options)
            solution = solver.solve(inputs, start, t_start=t_start)
        led = ledger()
        if led.recording and led.flight_config.capture_bundles:
            self._capture_bundle(led, solver, inputs, start, t_start)
        return solution

    def _capture_bundle(self, led: FrameLedger, solver: QWMSolver,
                        inputs: Dict[str, SourceLike],
                        start: Dict[str, float],
                        t_start: float) -> None:
        """Serialize a debug bundle if the solve warrants one.

        Two triggers: a region failure the solve left on
        ``solver.failure``, or a ``capture`` reason an enclosing frame
        carries (the golden suite flags band violations this way).
        Either way the bundle carries the evaluator's technology, the
        exact table slices the path used and the solve's own flight
        events, so it replays with zero re-characterization.
        """
        failure = solver.failure
        forced = led.context().get("capture")
        if failure is None and forced is None:
            return
        if not led.claim_bundle_slot():
            return
        from repro.obs.bundles import build_bundle, save_bundle

        path = solver.path
        reason = "solve_failure" if failure is not None else forced
        bundle = build_bundle(
            path, inputs, start, t_start, self.options, reason,
            tech=self.tech,
            grid_step=getattr(self.library, "grid_step", 0.1),
            failure=failure,
            ledger=led.flight_json(solve_id=solver.solve_id),
            extra=led.flight_context())
        written = save_bundle(
            bundle, led.flight_config.bundle_dir,
            label=f"{reason}-{path.stage.name}-{path.output}-"
                  f"{path.direction}")
        led.record("bundle_written", solve_id=(failure or {}).get(
            "solve_id", 0), path=written, reason=reason)

    def delay(self, stage: LogicStage, output: str, direction: str,
              inputs: Dict[str, SourceLike],
              t_input: float = 0.0, **kwargs) -> Optional[float]:
        """Convenience: the 50% propagation delay of one transition [s]."""
        solution = self.evaluate(stage, output, direction, inputs, **kwargs)
        return solution.delay(t_input=t_input)
