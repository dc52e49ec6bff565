"""A fixed pure-Python loop that gauges how fast the host runs right now.

The benchmark shares a 2-CPU host with other tenants.  Their load slows
every interpreter-bound loop together, by up to 1.7× for tens of seconds
at a time, while the ratio of one such loop to another stays within a
few per cent.  So each job is bracketed by :func:`calibrate`, a
:class:`Sampler` runs the same loop every half second of a long job, and
the job's wall time, less the sampler's, is scaled to the host's quiet
speed:

    scaled = wall × (REFERENCE_S / mean(calibrations)) ** SENSITIVITY

The program's work reacts to the load a little less than the loop does:
regressing 4-second block medians of log job time on log calibration
time, while the loop's time varied 2×, gave slopes of 0.84 to 0.88 for
``omega --algebra sl3``, ``eval --algebra sl2 --order 8``, ``psi
--order 11`` and ``verify all``, hence SENSITIVITY.

The loop does exact rational arithmetic and dict stores, the same kind
of interpreter-bound work as the program.  It imports ``fractions``, so
the worker imports this module only after timing its own set-up.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Quiet-host seconds of one calibrate() call (Python 3.11, 2-CPU host),
# the median over a quiet stretch.  Scaled times are in these seconds.
REFERENCE_S = 0.005
SENSITIVITY = 0.85

_ROUNDS = 1500
_SAMPLES = 3
SAMPLE_PERIOD_S = 0.5


def calibrate() -> float:
    """Seconds the fixed loop takes now: the median of a few runs."""
    return sorted(_loop() for _ in range(_SAMPLES))[_SAMPLES // 2]


def _loop() -> float:
    # The cyclic collector is held off: a collection that the loop's
    # allocations would trigger inside a long job walks that job's whole
    # heap, and would be read as a slow host.  The job's next allocation
    # triggers it instead.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(1, 3)
        table: dict[tuple[int, int], Fraction] = {}
        for i in range(_ROUNDS):
            acc = acc * Fraction(i + 1, i + 2) + 1
            table[(i, i % 7)] = acc
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs the calibration loop from a timer signal while a job runs.

    The signal handler runs in the main thread between bytecodes, so each
    sample pauses the job; ``spent`` is the time the samples took, to be
    taken off the job's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(wall: float, calibrations: list[float]) -> float:
    """``wall`` seconds expressed at the host's quiet speed."""
    return wall * (REFERENCE_S * len(calibrations) / sum(calibrations)) ** SENSITIVITY
