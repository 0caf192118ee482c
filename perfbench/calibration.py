"""Calibration kernel: a fixed piece of work, timed next to every measured unit.

The benchmark's machine is a few cores of a shared host. Other tenants
slow it down in spells that last from a second to minutes, by 1.2 to 1.9
times, and a whole run can fall inside one. No statistic over the samples
of such a run recovers the fast speed, so a wall-clock rate varies by a
quarter or more between runs of the same code.

The kernel uses only numpy and the standard library, never time2box, so a
change to the program does not change it. It mixes the three kinds of work
the program does: interpreter work on dicts, tuples and strings (the tape
and the samplers), many numpy operations on small arrays (a training step
on c07), and a pass over an array larger than the CPU caches into fresh
temporaries (Adam and entity scoring on wd12k). It runs right before and
right after each unit, so both see the same speed of the machine. A
unit's time divided by the mean of its two kernel times, times
REFERENCE_S, is the unit's time on a machine where the kernel takes
REFERENCE_S: its time at the reference speed. Spells slow passes over
large arrays less than interpreter work, so where such a pass is nearly
all of a unit, the stream part alone, with STREAM_REFERENCE_S, takes the
place of the whole kernel. Over ten runs of each workload on a 2-core
Intel Xeon VM, during which the machine changed speed, the quartile
spread of the throughputs was 40-75% of their median in wall time and
4-7% at the reference speed.

The cyclic garbage collector is off while the kernel runs, so that a
collection of the program's objects, whose cost depends on the program,
never lands inside it. The kernel's own objects are freed by reference
counting.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# the kernel's median time, and its stream part's, inside a benchmark run
# in the fast spells of a 2-core Intel Xeon VM, rounded
REFERENCE_S = 0.009
STREAM_REFERENCE_S = 0.0025

_INTERPRETER_ITERATIONS = 16000
_SMALL_OPS = 100


class Kernel:
    """The kernel, with its arrays allocated and warmed up."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((64, 64))
        # the shape of wd12k's entity table: 6.1 MiB, beyond the CPU caches
        self.stream = rng.standard_normal((12544, 64))
        self.row = rng.standard_normal(64)
        for _ in range(3):  # warm-up
            self()

    def _interpreter(self) -> int:
        table, out = {}, []
        for i in range(_INTERPRETER_ITERATIONS):
            table[i % 101] = (i, str(i % 13))
            out.append(table[i % 101][0])
        return len(out)

    def _small_arrays(self) -> np.ndarray:
        a, backward, x = self.small, [], self.small
        for i in range(_SMALL_OPS):
            y = np.maximum(x * 0.5 + a[i % 64], 0.0)
            backward.append(lambda g, y=y: g * (y > 0))
            x = y / (1.0 + np.abs(y).sum(axis=1, keepdims=True))
        g = np.ones_like(x)
        for step in reversed(backward):
            g = step(g) * 0.5
        return g

    def _stream(self) -> np.ndarray:
        # fresh temporaries, as in score_entities: their page faults are
        # part of what a spell slows
        return np.abs(self.stream - self.row).sum(axis=1)

    def __call__(self) -> tuple[float, float]:
        """Run the kernel once; return the seconds it took and the seconds
        its stream part took."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._interpreter()
            self._small_arrays()
            t1 = time.perf_counter()
            self._stream()
            t2 = time.perf_counter()
            return t2 - t0, t2 - t1
        finally:
            if enabled:
                gc.enable()
