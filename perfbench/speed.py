"""Timings scaled to a fixed reference speed of the machine.

On a shared machine the speed of one core drifts: on the 2-core virtual
machine this benchmark was built on, a fixed pure-Python loop took from 7.6
to 12.5 ms over 150 s, in phases lasting tens of seconds, so raw wall times
of runs made a minute apart differ by about ±20%, and a process tends to
keep the speed it started with. The benchmark therefore times a fixed
reference kernel between operations, at most every CAL_EVERY seconds, and
scales each timing by the kernel's reference time over the median of its
last WINDOW timings. A scaled time is what the work would take at the speed
where the kernel takes its reference time. There are two kernels, each
doing the kind of work that dominates a workload: dict- and set-bound
interpreter work, like the graph searches, and small numpy matrix
inversions, like the Fisher z test.
"""

from collections import deque
import statistics
from time import perf_counter

import numpy as np

CAL_EVERY = 0.05
WINDOW = 15


def python_kernel():
    d = {}
    s = set()
    for i in range(4000):
        k = (i * 7919) % 10007
        d[k] = d.get(k, 0) + 1
        s.add(k & 1023)
    return len(d) + len(s)


_COV = np.cov(np.random.default_rng(0).standard_normal((200, 12)),
              rowvar=False)


def numpy_kernel():
    acc = 0.0
    for i in range(40):
        idx = [i % 12, (i + 5) % 12, (i + 7) % 12, (i + 9) % 12]
        acc += np.linalg.inv(_COV[np.ix_(idx, idx)])[0, 1]
    return acc


# kernel and its typical time on the machine above
KERNELS = {"python": (python_kernel, 0.00125), "numpy": (numpy_kernel, 0.0009)}


class SpeedClock:
    def __init__(self, kind):
        self.kernel, self.ref_s = KERNELS[kind]
        self.recent = deque(maxlen=WINDOW)
        self.samples = []
        self._last = float("-inf")

    def calibrate(self, force=False):
        """Time the kernel (median of three), unless it was timed less than
        CAL_EVERY seconds ago."""
        if not force and perf_counter() - self._last < CAL_EVERY:
            return
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            self.kernel()
            runs.append(perf_counter() - t0)
        t = statistics.median(runs)
        self.recent.append(t)
        self.samples.append(t)
        self._last = perf_counter()

    def scaled(self, seconds):
        return seconds * self.ref_s / statistics.median(self.recent)
