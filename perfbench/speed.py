"""Machine-speed sampler that scales the benchmark's timings to one reference speed.

On the shared 2-core Xeon VM this benchmark was built on, each CPU runs the
same work up to ~1.7x faster or slower for seconds to tens of seconds at a
time. A 20 s run cannot average that out: five runs of large-hybrid in a row
read 0.54 to 0.76 trials/s. So the run is pinned to one CPU
(``bootstrap.pin_cpu``), and a sampler thread on that CPU wakes every
PERIOD_S to time a ~0.15 ms probe: a fixed mix of interpreter work and small
numpy calls that never touches sirpool. A timed section's seconds are scaled
by REFERENCE_PROBE_S over the mean probe time during it. In those five runs
the quartile spread of trials/s fell from 25% of the median raw to 2.8%
scaled. The probe holds the interpreter lock, so the workload pauses for
well under 1% of its time. The probe shares the CPU and its caches with the
workload, so the workload can move it a little: in interleaved runs its
mean time varied by a few percent between loads, in no consistent direction
(README.md, "Timings are scaled"). The raw times and every probe time go to
the results file.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.05
# A typical mean probe time on the machine the benchmark was built on (2-core
# Xeon, Python 3.11.7, numpy 2.4.6). Only ratios matter: parent and change
# are scaled to the same speed.
REFERENCE_PROBE_S = 0.00016


# Drawn once: numpy's generators release the interpreter lock while they
# fill arrays, which would let the workload thread interrupt the probe.
_UNIFORM = np.random.default_rng(12345).random(200)


def probe(reps: int = 12) -> float:
    """Seconds for a fixed workload shaped like a slice of a simulation step.

    Its arrays stay below the size at which numpy releases the interpreter
    lock, so the probe runs without interruption.
    """
    statuses = np.zeros(_UNIFORM.size, dtype=np.int8)
    start = time.perf_counter()
    for _ in range(reps):
        idx = np.flatnonzero(statuses == 0)
        statuses[idx[_UNIFORM[:idx.size] < 0.05]] = 1
        total = 0
        for i in range(40):
            total += (i * 7) % 13
        statuses[statuses == 1] = 0
    return time.perf_counter() - start


class SpeedSampler:
    """Background probe timings; use as a context manager around the timed work."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []  # (probe start, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def __enter__(self) -> SpeedSampler:
        probe()  # the first call pays numpy's lazy set-up
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def _sample(self) -> None:
        while not self._stop.wait(self.period_s):
            start = time.perf_counter()
            probe(reps=2)  # warm the caches the workload thread just used
            self.samples.append((start, probe()))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the mean probe time in [start, end], widened by one period.

        The slowest tenth of the probes is left out: those were interrupted
        (by the OS or a lock hand-off), which says nothing about the clock.
        """
        inside = sorted(d for t, d in self.samples
                        if start - self.period_s <= t <= end + self.period_s)
        kept = inside[:max(1, len(inside) - len(inside) // 10)]
        return REFERENCE_PROBE_S * len(kept) / sum(kept) if kept else 1.0
