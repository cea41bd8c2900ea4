"""Machine-speed gauge: a fixed reference routine timed next to every timed step.

The benchmark's host is shared, and its CPU throughput changes by up to half
on the scale of seconds and of minutes. That moves wall times of the program
and of any other code together. ``Gauge.time()`` runs a fixed routine made of
the kinds of work the program does (interpreter loops, many small numpy calls,
a BLAS matmul, fresh 1 MiB buffers, float text formatted and parsed in
memory) and returns the geometric mean of the parts' times. The routine does
not call marginforge and touches no file, so a change to the program or to
the disk's state leaves it unchanged.

``normalise(wall, before, after)`` scales a wall time by
``REF_SECONDS / mean(before, after)``: the wall time the step would have
taken at the speed at which the gauge reads ``REF_SECONDS``.
"""

import io
import math
import time

import numpy as np

# Near the gauge's typical reading on a 2-vCPU x86_64 host (Python 3.11,
# numpy 2.4, OpenBLAS with 1 thread), whose readings ranged 7-11 ms. A
# constant, so that normalised times of different runs and commits compare
# directly; its value only scales them.
REF_SECONDS = 0.010


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((64, 16))
        self.square = rng.standard_normal((200, 200))
        self.rows = rng.standard_normal((1000, 16))
        self.parts = (self._interp, self._small_numpy, self._matmul, self._big_buffer,
                      self._text)

    def _interp(self) -> None:
        table = {}
        acc = 0
        for i in range(40000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 255] = acc
        assert len(table) == 256

    def _small_numpy(self) -> None:
        x = self.small
        for _ in range(150):
            u = x / np.linalg.norm(x, axis=1, keepdims=True)
            s = u @ u.T
            np.maximum(0.2 + s - np.diag(s)[:, None], 0.0).sum()

    def _matmul(self) -> None:
        a = self.square
        for _ in range(30):
            a @ a

    def _big_buffer(self) -> None:
        # 1 MiB per array: large enough to leave the small-object allocator,
        # small enough to add little to the peak RSS the benchmark reports.
        for _ in range(4):
            buf = np.empty((256, 512))
            buf.fill(0.5)
            np.maximum(buf - 0.25, 0.0).sum()

    def _text(self) -> None:
        buf = io.StringIO()
        for row in self.rows:
            buf.write(" ".join(repr(float(v)) for v in row) + "\n")
        back = [[float(v) for v in line.split()] for line in buf.getvalue().splitlines()]
        assert len(back) == len(self.rows)

    def time(self) -> float:
        """Geometric mean of the parts' wall times, in seconds."""
        logs = []
        for part in self.parts:
            t0 = time.perf_counter()
            part()
            logs.append(math.log(time.perf_counter() - t0))
        return math.exp(sum(logs) / len(logs))


def normalise(wall: float, before: float, after: float) -> float:
    return wall * REF_SECONDS / ((before + after) / 2)
