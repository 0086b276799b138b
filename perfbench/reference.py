"""A fixed pure-Python workload that measures the machine, not agvtime.

The benchmark host's speed drifts by up to half over tens of seconds while
other work shares it. Timing this reference next to each measured call and
scaling by ``REF_S / measured`` reports every time at one nominal machine
speed: the speed at which the reference takes ``REF_S`` seconds. The
reference does the kinds of work the pipeline does (tuple-keyed dict
updates, heap pushes and pops, small allocations), so it slows down with the
pipeline when the host is busy. It uses no agvtime code, so a change to
agvtime cannot move it.
"""

import heapq
import random
from time import perf_counter

REF_S = 0.25


def reference_s() -> float:
    """Wall seconds the reference workload takes right now."""
    t0 = perf_counter()
    rng = random.Random(7)
    table = {}
    heap = []
    for i in range(60000):
        key = (rng.randrange(40), rng.randrange(50))
        table.setdefault(key, []).append(i)
        heapq.heappush(heap, (rng.random(), i, key))
        if len(heap) > 2000:
            heapq.heappop(heap)
    # Everything stays small (a few MB at most), so the reference does not
    # raise the peak resident set size of the process it runs in.
    for _ in range(20):
        rows = [[j, j * 2, str(j)] for j in range(5000)]
    del rows
    return perf_counter() - t0
