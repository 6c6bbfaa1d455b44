"""Machine-speed calibration interleaved with the timed rounds.

A shared host changes how fast this process's instructions run: another
tenant on the sibling hyperthread or on the shared caches slows every
instruction by 20-50% for seconds to minutes at a time, and CPU time does
not leave that out.  To correct for it, a fixed plain-numpy kernel runs
inside the timed rounds, every ``INTERVAL_S`` of CPU time, from a
``SIGPROF`` interval timer.  The kernel's inputs are fixed and it calls no
poolbench code, so its CPU time changes only with the machine's speed at
that moment; the program's CPU time, less the kernel's, divided by the
kernel's mean time over the same round, is the round's cost in kernel runs.
The handler costs about 2% of the round's CPU time.

Python runs a signal handler between bytecodes of the main thread, so the
kernel never interrupts a numpy call half-way.
"""

from __future__ import annotations

import signal
import time

import numpy as np

import reference as ref

INTERVAL_S = 0.1
MIN_SAMPLES = 3
KERNEL_METHODS = ("MP", "GP", "LSE", "AP")


def _kernel_inputs():
    rng = np.random.default_rng(0)
    params = {
        "conv1.weight": rng.normal(0.0, 0.5, (4, 1, 3, 3)),
        "conv1.bias": rng.normal(0.0, 0.1, 4),
        "conv2.weight": rng.normal(0.0, 0.3, (4, 4, 3, 3)),
        "conv2.bias": rng.normal(0.0, 0.1, 4),
        "head.weight": rng.normal(0.0, 0.3, (4, 16)),
        "head.bias": np.zeros(4),
        "pool1.gate_w": rng.normal(0.0, 0.3, 4),
        "pool2.gate_w": rng.normal(0.0, 0.3, 4),
    }
    return params, rng.normal(size=(2, 1, 16, 16))


class Calibrator:
    """Runs the kernel every ``INTERVAL_S`` of CPU time while active."""

    def __init__(self):
        self.params, self.images = _kernel_inputs()
        self.samples = []

    def kernel(self):
        for method in KERNEL_METHODS:
            ref.forward(method, self.params, self.images)

    def _on_signal(self, signum, frame):
        # thread time: while an interval timer runs, the process CPU clock
        # advances only at scheduler ticks (4 ms at HZ=250).  The first run
        # refills the caches the program evicted; only the second is a
        # sample, so the program's memory footprint does not move it.
        c0 = time.thread_time()
        self.kernel()
        c1 = time.thread_time()
        self.kernel()
        c2 = time.thread_time()
        self.samples.append(c2 - c1)
        self.spent += c2 - c0

    def start(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling; returns (kernel samples, CPU seconds the handler spent).

        A round too short for ``MIN_SAMPLES`` timer ticks gets the rest of
        its samples right after it, outside its CPU time.
        """
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        spent = self.spent
        while len(self.samples) < MIN_SAMPLES:
            self._on_signal(None, None)
        return list(self.samples), spent
