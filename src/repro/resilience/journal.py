"""Crash-safe run journal: append-only wave checkpoints with resume.

A :class:`RunJournal` records each completed scheduling wave's arrival
deltas as one JSONL segment (format :data:`FORMAT`), preceded by a
header that fingerprints the run (design graph, seed arrivals, analysis
options).  Every flush rewrites the ledger through an atomic
``tmp-file -> fsync -> os.replace`` sequence, so a kill at any instant
leaves either the previous consistent ledger or the new one — never a
torn file.  ``repro sta --journal FILE --resume`` validates the
fingerprint, replays completed waves and continues; because each net
has exactly one driver stage, per-wave deltas are disjoint and replay
reproduces arrivals bit-identically (floats round-trip through JSON's
shortest-repr encoding exactly).

Failure policy: a corrupt or truncated tail drops only the damaged
segments (counted in ``resilience.journal.dropped_lines``); a wrong
fingerprint raises :class:`FingerprintMismatch` (resuming someone
else's run would silently corrupt arrivals); an ``OSError`` on flush
(ENOSPC and friends) disables journaling for the rest of the run and
lets the analysis finish — durability degrades before the answer does.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs import inc
from repro.resilience import faults
from repro.spice.results import SimulationStats

__all__ = [
    "FORMAT",
    "JournalError",
    "FingerprintMismatch",
    "run_fingerprint",
    "RunJournal",
]

#: Journal on-disk format identifier (header ``format`` field).
FORMAT = "repro-run-journal/1"


class JournalError(RuntimeError):
    """The journal file is unusable (missing, empty, wrong format)."""


class FingerprintMismatch(JournalError):
    """The journal was written by a different run configuration."""


def run_fingerprint(graph, analyzer,
                    input_arrivals: Optional[Dict] = None) -> str:
    """Stable fingerprint of (design, seed arrivals, analysis options).

    Two runs share a fingerprint exactly when replaying one's journal
    into the other is sound: same stage graph (per-stage canonical
    fingerprints), same primary-input arrival seeds, same slew
    propagation settings.  Floats are folded in via ``repr`` so the
    fingerprint is exact, not approximate.
    """
    from repro.analysis.parallel import canonical_form_for, solver_context

    context = solver_context(analyzer)
    stages = sorted(
        (stage.name,
         canonical_form_for(stage, analyzer, context).fingerprint)
        for stage in graph.stages)
    seeds = sorted(
        (str(net), str(direction), repr(float(value)))
        for (net, direction), value in (input_arrivals or {}).items())
    payload = json.dumps(
        [FORMAT, stages, seeds,
         bool(analyzer.propagate_slews),
         repr(float(analyzer.input_slew))],
        sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _arrival_to_json(arrival) -> List[object]:
    cause = list(arrival.cause) if arrival.cause is not None else None
    return [arrival.net, arrival.direction, arrival.time, cause,
            arrival.slew, arrival.quality]


def _arrival_from_json(payload: Sequence[object]):
    from repro.analysis.sta import ArrivalTime

    net, direction, when, cause, slew, quality = payload
    return ArrivalTime(
        net=str(net), direction=str(direction), time=float(when),
        cause=tuple(cause) if cause is not None else None,
        slew=float(slew) if slew is not None else None,
        quality=str(quality) if quality is not None else None)


def _stats_to_json(stats: SimulationStats) -> Dict[str, float]:
    return {
        "steps": stats.steps,
        "newton_iterations": stats.newton_iterations,
        "device_evaluations": stats.device_evaluations,
        "wall_time": stats.wall_time,
    }


def _stats_from_json(payload: Dict[str, float]) -> SimulationStats:
    return SimulationStats(
        steps=int(payload.get("steps", 0)),
        newton_iterations=int(payload.get("newton_iterations", 0)),
        device_evaluations=int(payload.get("device_evaluations", 0)),
        wall_time=float(payload.get("wall_time", 0.0)))


class RunJournal:
    """Append-only per-wave checkpoint ledger with atomic flushes."""

    def __init__(self, path: str, fingerprint: str,
                 design: str = "", stages: int = 0,
                 waves: int = 0) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.design = design
        self.stages = stages
        self.waves = waves
        self.segments: Dict[int, Dict] = {}
        self.disabled = False
        self.dropped_lines = 0

    def header(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "fingerprint": self.fingerprint,
            "design": self.design,
            "stages": self.stages,
            "waves": self.waves,
        }

    @classmethod
    def load(cls, path: str) -> "RunJournal":
        """Parse a journal, tolerating a corrupt or truncated tail.

        Raises :class:`JournalError` when the header itself is missing
        or unusable; damaged segment lines are dropped and counted.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise JournalError(
                f"cannot read run journal {path}: {exc}") from exc
        header = None
        for index, line in enumerate(lines):
            if line.strip():
                try:
                    header = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise JournalError(
                        f"unparseable journal header in {path}"
                    ) from exc
                lines = lines[index + 1:]
                break
        if not isinstance(header, dict) \
                or header.get("format") != FORMAT:
            raise JournalError(
                f"{path} is not a {FORMAT} run journal")
        journal = cls(
            path=path,
            fingerprint=str(header.get("fingerprint", "")),
            design=str(header.get("design", "")),
            stages=int(header.get("stages", 0)),
            waves=int(header.get("waves", 0)))
        dropped = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                segment = json.loads(line)
                wave = int(segment["wave"])
                arrivals = segment["arrivals"]
                for entry in arrivals:
                    _arrival_from_json(entry)
            except (KeyError, TypeError, ValueError,
                    json.JSONDecodeError):
                dropped += 1
                continue
            if wave in journal.segments:
                dropped += 1
                continue
            journal.segments[wave] = segment
        journal.dropped_lines = dropped
        if dropped:
            inc("resilience.journal.dropped_lines", dropped)
        return journal

    def require_fingerprint(self, fingerprint: str) -> None:
        if self.fingerprint != fingerprint:
            raise FingerprintMismatch(
                f"run journal {self.path} fingerprints a different "
                f"run ({self.fingerprint} != {fingerprint}); refusing "
                f"to resume")

    def completed_stages(self) -> Set[str]:
        names: Set[str] = set()
        for segment in self.segments.values():
            names.update(segment.get("stages", ()))
        return names

    def replay(self) -> Iterator[Tuple[int, List[str], Dict,
                                       SimulationStats]]:
        """Yield ``(wave, stage_names, arrival_deltas, stats)``.

        Arrival deltas map ``(net, direction)`` events to
        :class:`~repro.analysis.sta.ArrivalTime` values, exactly as
        the live run produced them.
        """
        for wave in sorted(self.segments):
            segment = self.segments[wave]
            deltas = {}
            for entry in segment.get("arrivals", ()):
                arrival = _arrival_from_json(entry)
                deltas[(arrival.net, arrival.direction)] = arrival
            stats = _stats_from_json(segment.get("stats", {}))
            yield wave, list(segment.get("stages", ())), deltas, stats

    def record_wave(self, wave: int, stage_names: Sequence[str],
                    deltas: Dict, stats: SimulationStats) -> bool:
        """Checkpoint one completed wave; idempotent per wave index.

        Returns ``True`` when the wave was newly recorded and flushed;
        ``False`` when journaling is disabled or the wave was already
        present (the double-resume case).
        """
        if self.disabled or wave in self.segments:
            return False
        arrivals = [
            _arrival_to_json(deltas[event])
            for event in sorted(deltas)]
        self.segments[wave] = {
            "wave": wave,
            "stages": sorted(stage_names),
            "arrivals": arrivals,
            "stats": _stats_to_json(stats),
        }
        return self.flush()

    def flush(self) -> bool:
        """Atomically persist header + segments; self-disable on error."""
        if self.disabled:
            return False
        tmp = self.path + ".tmp"
        try:
            faults.journal_write_gate(self.path)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self.header(),
                                        sort_keys=True) + "\n")
                for wave in sorted(self.segments):
                    handle.write(json.dumps(self.segments[wave],
                                            sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            try:
                dir_fd = os.open(
                    os.path.dirname(os.path.abspath(self.path)),
                    os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError:
                pass
        except OSError:
            self.disabled = True
            inc("resilience.journal.write_errors")
            try:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            except OSError:
                pass
            return False
        inc("resilience.journal.flushes")
        return True
