"""Host-speed probe, sampled while the timed work runs.

The host's speed drifts by up to 2x, both from second to second and over
spells of minutes, so a timing alone says as much about the host as
about the program.  A :class:`SpeedProbe` arms a timer signal every
``PERIOD_S``; the handler times a fixed task of about 0.3 ms
(:meth:`SpeedProbe.task`) on the CPU the program is using at that
moment.  The harmonic mean of the task times over a timed step gives
the host's mean speed during that very step, and :func:`calibrated`
scales the step's time to a host where the task takes ``PROBE_REF_S``.
The task runs only this file's code on fixed inputs, so a change to the
program cannot change it.  It costs about 1.5 % of the CPU.

The task is interpreted integer arithmetic followed by small numpy
solves, the two kinds of work the solver's inner loops do.  The
program slows a little more than the task when the host slows: within
runs, log(step time) against log(task time) has a slope of 1.13-1.20
on all four workloads (50-156 steps each), hence ``EXPONENT``.  On a
shared 2-CPU host whose raw unit times spread by 17-19 % (standard
deviation of the log over 78 units), the calibrated times spread by
3-5 %.  A random walk over a large list was also tried in the task: it
helped little, and its speed would depend on how much of the cache the
program leaves it.

Run a module under the probe, the way ``python -m`` runs it::

    python3 benchmarks/suite/probe.py repro sta DECK --limit 1000

When the module exits, one more stdout line, ``{"probe_s": ...,
"probes": ...}``, gives the probe's reading over the whole process.
"""

from __future__ import annotations

import json
import os
import runpy
import signal
import sys
import time
from typing import Dict, Optional

#: Seconds between two probe samples.
PERIOD_S = 0.02
#: Calibrated seconds are seconds on a host where one probe task takes
#: this long (about its median on the host the bounds were set on).
PROBE_REF_S = 300e-6
#: Power of the speed ratio applied to a step's time (see above).
EXPONENT = 1.1


class SpeedProbe:
    """Samples :meth:`task` on a timer signal (SIGALRM)."""

    def __init__(self):
        import numpy as np

        self._solve = np.linalg.solve
        self._system = (np.random.default_rng(0).standard_normal((6, 6))
                        + 6 * np.eye(6), np.ones(6))
        self.speed = 0.0
        self.count = 0

    def task(self) -> None:
        """The fixed task the probe times."""
        total = 0
        for i in range(2000):
            total += i * i % 7
        for _ in range(10):
            self._solve(*self._system)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.task()
        self.speed += 1.0 / (time.perf_counter() - start)
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def measure(self, samples: int = 40) -> float:
        """Mean task time over ``samples`` back-to-back runs, timer off."""
        start = time.perf_counter()
        for _ in range(samples):
            self.task()
        return (time.perf_counter() - start) / samples

    def take(self) -> Dict[str, object]:
        """Harmonic mean task time and sample count since the last take.

        Samples are evenly spaced in time, so the mean of their speeds
        (1 / task time) is the host's mean speed over the interval: the
        work a step did is its time multiplied by that speed.
        """
        speed, count = self.speed, self.count
        self.speed, self.count = 0.0, 0
        return {"probe_s": count / speed if count else None,
                "probes": count}


def calibrated(elapsed: float, probe_s: Optional[float]) -> float:
    """``elapsed`` at the reference host speed (as is without samples)."""
    if not probe_s:
        return elapsed
    return elapsed * (PROBE_REF_S / probe_s) ** EXPONENT


def main(argv) -> None:
    """Run module ``argv[1]`` as ``__main__`` with arguments ``argv[2:]``."""
    sys.argv = argv[1:]
    sys.path[0] = os.getcwd()  # as under ``python -m``
    probe = SpeedProbe()
    probe.start()
    try:
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    finally:
        probe.stop()
        sys.stdout.flush()
        print(json.dumps(probe.take()), flush=True)


if __name__ == "__main__":
    main(sys.argv)
