"""A fixed reference computation that tracks how fast the machine is right now.

On a shared VM the speed of identical work drifts by tens of percent over
minutes, and the drift is in the CPU itself, not time taken from the VM, so
process CPU time drifts with wall time.  Runs made minutes apart then
disagree by more than any useful regression bound.

:class:`SpeedProbe` times a small kernel built from the operations the
codec spends its time in: element-wise quantisation and prefix sums over
arrays of a coarse level's size, small least-squares fits in a Python loop,
table-lookup gathers and zlib.  The kernel is benchmark code.  It does not
call the program, so no change to the program can move it.  A run samples
it around every setup and between the steps of its timed loop.  The CPU
time of an operation is then scaled by ``NOMINAL_S / median(samples)``,
which gives the time the work would take when the kernel runs in its
nominal time; the rest of its wall time (waiting on a socket or a timer)
does not depend on the CPU's speed and is left as measured.
"""

from __future__ import annotations

import statistics
import time
import zlib
from typing import List

import numpy as np

#: the kernel's median time on the VM the benchmark was defined on
NOMINAL_S = 0.04


class SpeedProbe:
    """Times the reference kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20231112)
        self._field = rng.standard_normal(110_592).cumsum()
        self._codes = rng.integers(0, 4096, 400_000)
        self._table = rng.integers(0, 255, 4096).astype(np.uint8)
        self._blob = rng.integers(0, 8, 200_000).astype(np.uint8).tobytes()
        self._design = np.c_[np.ones(216), rng.random((216, 3))]
        self._target = self._design @ np.array([1.0, 2.0, 3.0, 4.0])
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        """Run the kernel ``times`` times, recording each duration."""
        for _ in range(times):
            t0 = time.perf_counter()
            q = np.rint(self._field / 0.01).astype(np.int64)
            np.cumsum(np.diff(q, prepend=0))
            int(self._table[self._codes].sum())
            zlib.decompress(zlib.compress(self._blob, 6))
            for _ in range(100):
                np.linalg.lstsq(self._design, self._target, rcond=None)
            self.samples.append(time.perf_counter() - t0)

    def time_scale(self) -> float:
        """Multiply a measured CPU time by this to get it at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)

    def nominal(self, wall: float, cpu: float) -> float:
        """``wall`` seconds, ``cpu`` of them on the CPU, at nominal speed."""
        return wall + cpu * (self.time_scale() - 1.0)

    def describe(self) -> str:
        return (f"speed kernel median {statistics.median(self.samples):.4f} s "
                f"over {len(self.samples)} samples, nominal {NOMINAL_S} s")
