"""Host-speed probe: a fixed Python kernel timed next to the ops.

The machine the benchmark is meant for (a 2-vCPU VM on a shared host)
changes speed by more than 2x within minutes: in one minute a warm
``table1-engine`` op took 290 ms, in the next 640 ms, and a plain Python
arithmetic loop slowed by the same factor at the same moment.  No run
length or median removes a drift that large, so the untraced run times
this probe between ops (outside the timed region) and reports its times
scaled to a fixed reference speed: a time ``t`` measured while the probe
took ``p`` is reported as ``t * REFERENCE_S / p``.  The probe shares no
code with the program under test, so a change to the program cannot move
it; the raw times are kept in every result next to the scaled ones.

The probe is the geometric mean of three small kernels with the
instruction mixes the workloads spend their time in: interpreter
arithmetic, tuple grouping, joining and sorting, and string-keyed
dictionaries.  Over 17 minutes that included a 2.2x slowdown, scaling by
a probe of these three kinds cut the inter-quartile spread of 25-second
latency medians from 0.42-0.53 of their median to 0.06-0.14, on all four
workloads.
"""

from __future__ import annotations

import math
import random
import statistics
import time

#: The probe value that defines the reference speed: about its median
#: on that VM, between the host's fast and slow phases.
REFERENCE_S = 0.005


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._rows = [(rng.randrange(5000), f"k{rng.randrange(977):04d}", i)
                      for i in range(10000)]
        self._words = [f"w{rng.randrange(20000):05d}" for _ in range(15000)]
        #: Probe values (seconds), one per :meth:`sample`.
        self.samples: list[float] = []

    def sample(self) -> None:
        times = []
        for kernel in (self._arith, self._tuples, self._strings):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(math.prod(times) ** (1 / len(times)))

    def scale(self) -> float:
        """Factor from raw times to reference-speed times."""
        return REFERENCE_S / statistics.median(self.samples)

    @staticmethod
    def _arith() -> int:
        total = 0
        for i in range(70000):
            total += i * i
        return total

    def _tuples(self) -> list:
        groups: dict[str, list[int]] = {}
        for a, b, _c in self._rows:
            groups.setdefault(b, []).append(a)
        joined = [(a, groups[b][0]) for a, b, _c in self._rows if b in groups]
        return sorted(joined)

    def _strings(self) -> dict:
        counts: dict[str, int] = {}
        for word in self._words:
            counts[word] = counts.get(word, 0) + 1
        return dict.fromkeys(sorted(counts))
