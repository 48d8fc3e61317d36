"""Host speed, sampled between operations with a fixed reference slice.

On a shared host the CPU's speed drifts by a quarter or more over minutes
(on a 2-vCPU 2.1 GHz VM a fixed pure-Python loop took 44 to 66 ms per
call within four minutes, and process time drifts with it), so raw wall
times from runs minutes apart differ by more than any useful regression
bound.  The orchestrator pins a run to one CPU, so slices and work share
a core.  Every
pass therefore times a fixed slice of interpreter, dict and big-integer
work (the kinds of work the u4class layers do) at least every
``INTERVAL_S`` between operations, and the ``*_norm`` metrics scale the
pass's times by ``NOMINAL_S`` over the mean slice time: seconds at a
fixed reference speed.  Raw times are reported alongside.
"""

import time

# the slice's time on a 2-vCPU 2.1 GHz VM at its fastest
NOMINAL_S = 0.003
INTERVAL_S = 0.25


def reference_slice():
    """Seconds taken by the fixed reference work."""
    start = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i
    d = {}
    for i in range(5_000):
        d[i] = i
    x, y = (1 << 20_000) - 1, (1 << 19_000) + 5
    for _ in range(3_000):
        x ^= y
    return time.perf_counter() - start


class Sampler:
    """Collects reference slices, at most one per INTERVAL_S."""

    def __init__(self):
        self.slices = [reference_slice()]
        self._last = time.perf_counter()

    def maybe_sample(self):
        """Take a slice if INTERVAL_S has passed; returns its seconds."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return 0.0
        self.slices.append(reference_slice())
        self._last = time.perf_counter()
        return self.slices[-1]

    def finish(self):
        """Take a closing slice; returns every slice's seconds."""
        self.slices.append(reference_slice())
        return self.slices


def to_nominal(record):
    """Factor that turns the pass's raw seconds into seconds at the
    reference speed."""
    slices = record["slices_s"]
    return NOMINAL_S * len(slices) / sum(slices)
