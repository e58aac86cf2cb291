"""Machine-speed references timed next to every timed operation.

On a shared host, other tenants slow this machine down by up to 2x for
stretches of a few seconds to a minute, in CPU time as much as in wall
time.  Each timed operation is therefore bracketed by two runs of fixed
reference computations, and its time is divided by how much slower than
nominal they ran.  The result is the operation's time in seconds at
nominal machine speed; the raw times are reported next to it.

Not all code slows down alike.  Vectorised numpy work on large arrays
tracks `_array_work`, FFT round trips and a tight integer loop.
Interpreted code that makes many small calls (root finders, descents,
searches over partitions) slows down more; it tracks the mean of
`_array_work` and `_python_work`, which makes many small calls, small
numpy operations and dict updates.  Each timed operation names its kind.

Only benchmark code runs in the references, so a change to triblock moves
the scaled times exactly as it moves the raw ones.
"""

import math
import statistics
from time import perf_counter

import numpy as np

# Typical times of `_array_work` and `_python_work` on the shared 2-vCPU
# x86_64 host the benchmark was written on (Python 3.11, numpy 2.4, one
# thread).  They only set the nominal speed that scaled times refer to.
ARRAY_NOMINAL_S = 6.5e-3
PYTHON_NOMINAL_S = 6.5e-3
_FIELD = np.random.default_rng(0).standard_normal((256, 256))
_POINTS = [np.array([0.1 * i, 0.2]) for i in range(50)]


def _array_work() -> int:
    x = _FIELD
    for _ in range(2):
        x = np.fft.irfft2(np.fft.rfft2(x), s=x.shape)
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def _python_work() -> float:
    sums: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        p = _POINTS[i % 50]
        r = np.hypot(p[0], p[1]) + math.sqrt(i + 1.0)
        sums[i % 97] = sums.get(i % 97, 0.0) + r
        acc += sorted((r, acc, 1.0))[1]
    return acc


class Meter:
    """Runs the references and scales operation times by them."""

    def __init__(self):
        self.slowness: list[dict] = []   # per reference run: kind -> factor
        self.spent = 0.0                  # seconds spent in references
        for _ in range(3):                # FFT plans and caches, untimed
            _array_work()
            _python_work()

    def reference(self) -> dict:
        """Run both references; returns, per kind of code ("array" or
        "python"), how many times slower than nominal it runs now."""
        start = perf_counter()
        _array_work()
        middle = perf_counter()
        _python_work()
        end = perf_counter()
        self.spent += end - start
        array = (middle - start) / ARRAY_NOMINAL_S
        slow = {"array": array,
                "python": 0.5 * (array + (end - middle) / PYTHON_NOMINAL_S)}
        self.slowness.append(slow)
        return slow

    def timed(self, kind: str, fn):
        """Run fn() between two references.  Returns (result, raw seconds,
        seconds at nominal speed for code of `kind`)."""
        before = self.reference()
        start = perf_counter()
        out = fn()
        raw = perf_counter() - start
        after = self.reference()
        return out, raw, self.scale(kind, raw, before, after)

    @staticmethod
    def scale(kind: str, raw: float, before: dict, after: dict) -> float:
        """`raw` seconds at nominal speed, given the references around it."""
        return raw / (0.5 * (before[kind] + after[kind]))

    def scale_since(self, kind: str, raw: float, first: int) -> float:
        """Scale `raw` seconds by the median slowness of the reference runs
        since `first` (an index into `slowness`)."""
        runs = self.slowness[first:] or self.slowness[-1:]
        return raw / statistics.median(s[kind] for s in runs)
