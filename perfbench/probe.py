"""Host-speed probe: rescale pass times to a fixed reference speed.

The benchmark's host is shared, and its CPU speed swings by up to about
1.7x for tens of seconds at a time: wall time and CPU time slow down
together, so a whole 30-second run can fall in a slow spell.  The probe
measures that speed while a pass runs.  A wall-clock timer interrupts
the pass every ``INTERVAL_S`` and runs a fixed pure-Python kernel (the
same kinds of work as ``aps``: float tuples, ``math.dist`` and generator
min/max as in the search, floats formatted and joined into text as in
the SVG and CSV writers) in the signal handler, timing each call.  The
kernel's code and data belong to the benchmark, so a change to
``apspace`` leaves its time alone; only the host's speed moves it.

A pass's rescaled time is its wall time minus the time spent in the
probe, times ``REFERENCE_S`` over the mean probe time during the pass.
``REFERENCE_S`` is the probe's usual time on the 2-core host of
BASELINE.json, so rescaled times read as seconds on that host.
"""

import gc
import math
import signal
import time
from itertools import combinations

INTERVAL_S = 0.02
REFERENCE_S = 0.0012

_POINTS = [tuple(((i * 37 + j * 11) % 97) / 97.0 for j in range(6))
           for i in range(8)]
_TRIPLES = list(combinations(_POINTS, 3))


def _kernel() -> float:
    acc = 0.0
    for a, b, c in _TRIPLES:
        d = [math.dist(a, b), math.dist(a, c), math.dist(b, c)]
        mu = sum(d) / 3
        acc += sum((x - mu) ** 2 for x in d)
        acc += math.prod([max(v[j] for v in (a, b, c))
                          - min(v[j] for v in (a, b, c)) for j in range(6)])
    text = "\n".join(f'<circle cx="{i * 1.37:.2f}" cy="{i * 2.11:.2f}" '
                     'r="2"/>' for i in range(150))
    return acc + len(text)


class SpeedProbe:
    """Time the kernel every ``INTERVAL_S`` while the context is open."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(10):   # past the interpreter's warm-up of new code
            _kernel()

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()   # a collection would time the pass's heap, not the host
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, wall_s: float) -> float:
        """``wall_s`` of the pass just probed, at the reference speed."""
        probe_s = sum(self.samples)
        if self.samples:
            mean = probe_s / len(self.samples)
        else:   # a pass shorter than one interval: probe right after it
            self._tick(None, None)
            mean = self.samples.pop()
        return (wall_s - probe_s) * REFERENCE_S / mean
