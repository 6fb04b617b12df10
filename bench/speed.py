"""Host speed probe: turns times measured on a shared host into reference seconds.

The benchmark runs on a few virtual CPUs of a host shared with other
tenants.  There the speed of a fixed piece of pure-Python work drifts by
up to 80 % over seconds to minutes, and CPU time drifts with it, so two
runs of the same code can differ by far more than any regression worth
catching.  This module measures the drift where the work runs and
divides it out:

* ``pin_one_cpu`` keeps the benchmark (and the children it starts) on a
  single CPU, so the probe sees the CPU the work runs on.
* ``Probe`` times ``calibration_loop`` -- fixed interpreter work that
  never touches spsqkd, so no change to the program can move it -- every
  ``PERIOD_S`` from a ``SIGALRM`` handler while jobs run, and on demand
  around the set-up children.
* A job's *reference time* is its own time, less the probes taken inside
  it, times the host's speed around the job: the mean of
  ``REF_LOOP_S / probe time`` over the probes taken during the job and
  the one on either side.  It estimates the time the job would take on
  this host when the probe runs in ``REF_LOOP_S`` seconds: the host's
  unloaded speed.

A probe costs about 1 % of the run.  The loop is interpreter-bound
(float maths and calls), like most of spsqkd's time; ``bench/README.md``
gives the measurements behind that choice.
"""

from __future__ import annotations

import math
import os
import signal
from array import array
from time import perf_counter

PERIOD_S = 0.01
LOOP_ITERATIONS = 300
# calibration_loop's time on the 2-vCPU "Intel(R) Xeon(R) Processor" host
# the benchmark was written on, at the fastest the host ran it.
REF_LOOP_S = 4.35e-5


def calibration_loop() -> float:
    s = 0.0
    for i in range(LOOP_ITERATIONS):
        s += math.exp(-i * 1e-3) * math.log1p(i)
    return s


def pin_one_cpu() -> int | None:
    """Restrict this process (and later children) to its lowest allowed CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Probe:
    """Samples of ``calibration_loop``'s time: (start, duration) in order."""

    def __init__(self) -> None:
        self.start = array("d")
        self.took = array("d")
        self._previous = None

    def sample(self) -> None:
        t0 = perf_counter()
        calibration_loop()
        self.start.append(t0)
        self.took.append(perf_counter() - t0)

    def __len__(self) -> int:
        return len(self.took)

    # -- periodic sampling while jobs run ---------------------------------

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    # -- reduction ---------------------------------------------------------

    def reference_time(self, t0: float, t1: float, first: int, end: int) -> float:
        """Reference seconds of the interval [t0, t1].

        ``first`` and ``end`` are ``len(self)`` just before and just after
        the interval; the probes in between ran inside it and their time
        is taken out.  The speed is averaged over those probes and the
        nearest one on either side.
        """
        inside = sum(self.took[first:end])
        return (t1 - t0 - inside) * self.speed(max(first - 1, 0), end + 1)

    def speed(self, first: int, end: int) -> float:
        """Mean host speed (1 = reference) over probes [first, end)."""
        taken = self.took[first:end]
        return sum(REF_LOOP_S / k for k in taken) / len(taken)
