"""Host-speed probe: corrects CPU time for a shared host's slow phases.

On a shared host the same work costs a varying amount of CPU time: while
neighbours load the same cores (hyper-thread siblings, caches, memory
bandwidth), every instruction takes longer.  Identical work swings by tens
of percent from one second to the next, and whole runs land in slow
phases, so no choice among a run's repetitions removes the slowdown.

The probe measures the slowdown while a unit runs.  A fixed interpreter
kernel, owned by the benchmark and untouched by the program, runs right
before and right after the unit and, on a ``SIGALRM`` timer, every
``INTERVAL_S`` inside it.  Each kernel run gives the host's speed at that
moment; :func:`arith.nominal_cpu` turns the unit's CPU time, less the
kernel runs inside it, into CPU seconds of the host at nominal speed.
``NOMINAL_S`` fixes that scale: about the fastest the kernel runs on the
2-CPU Xeon VM the benchmark was tuned on.

The timer counts wall time: a CPU-time timer (``ITIMER_PROF``) makes
Linux serve the process CPU clock from a per-tick cache, which freezes
``time.process_time`` inside the kernel.  The measured program is single
threaded and never sleeps, so wall time tracks its CPU time.
"""

from __future__ import annotations

import signal
import time
from typing import List

from arith import nominal_cpu

#: CPU seconds of one kernel run on an uncontended host (fixes the scale)
NOMINAL_S = 0.47e-3
#: time between two probes inside a unit
INTERVAL_S = 0.02
_ROUNDS = 2000
_SLOTS = dict.fromkeys(range(1024), 0)


def kernel() -> float:
    """CPU seconds of one run of the fixed probe kernel.

    Integer arithmetic, dict reads and writes and a loop, the interpreter
    work that dominates the measured program, and no allocation that
    could wake the garbage collector.
    """
    slots = _SLOTS
    acc = 0
    start = time.process_time()
    for i in range(_ROUNDS):
        key = (i * 37) & 1023
        slots[key] = (slots[key] + i) & 0xFFFF
        acc += (i * 7) % 13
    return time.process_time() - start


class HostProbe:
    """Samples host speed around and inside one timed unit at a time."""

    def __init__(self) -> None:
        #: kernel CPU times of the unit being measured
        self.times: List[float] = []
        #: every kernel CPU time of the run, for the report
        self.history: List[float] = []
        self.inside = 0.0
        self.armed = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.armed:
            cpu = kernel()
            self.inside += cpu
            self.times.append(cpu)

    def arm(self) -> None:
        """Probe once, then every ``INTERVAL_S`` until :meth:`corrected`."""
        self.times = [kernel()]
        self.inside = 0.0
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def corrected(self, cpu: float) -> float:
        """Stop probing and return ``cpu``, measured since :meth:`arm`, at
        the host's nominal speed."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.armed = False
        self.times.append(kernel())
        self.history.extend(self.times)
        return nominal_cpu(cpu, self.inside, self.times, NOMINAL_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.armed = False
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
