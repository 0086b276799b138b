"""The reservers benchmark suite and the CSV schema it shares with ``run``.

Columns: suite,param,algorithm,runtime_ms,makespan,total_distance,note.
Empty cells stay empty; runtime_ms is excluded from any determinism promise.
The suite times the naive and the boundary-sweep footprint expansion of one
route per subdivision, the paper's O(nm) -> O(n) claim; its runtime_ms is
the expanding thread's CPU time, which other processes on the same cores
move far less than they move the wall clock. It carries a correctness verdict in ``note`` because the two
algorithms must emit identical coverage.
"""

from __future__ import annotations

import gc
import time

from .footprint import boundary_reservations, naive_reservations, normalise
from .graph import build_adjacency_links, build_grid, spatial_path, subdivide
from .intervals import INF
from .pathing import Step

CSV_HEADER = "suite,param,algorithm,runtime_ms,makespan,total_distance,note"


def csv_row(suite, param, algorithm, runtime_ms, makespan="", distance="", note=""):
    return f"{suite},{param},{algorithm},{runtime_ms},{makespan},{distance},{note}"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}"


def corner_route_steps(g, start, goal):
    """A timed walk along the shortest spatial route, pausing nowhere."""
    found = spatial_path(g, start, goal, forbidden=g.anchors - {start, goal})
    if found is None:
        raise ValueError("no corner route")
    resources, _ = found
    steps = []
    t = 0
    for rid in resources:
        if g.is_node(rid):
            steps.append(Step(rid, t, t))
        else:
            w = g.edge_at(rid).weight
            steps.append(Step(rid, t, t + w))
            t += w
    last = steps[-1]
    steps[-1] = Step(last.resource, last.start, INF)
    return steps


# Edge weight of the reservers grid: divisible by every default subdivision.
RESERVERS_WEIGHT = 12

# One expansion at subdivision 1 takes well under a millisecond: too short a
# sample for the naive/boundary ratios to hold still under scheduler noise.
# So each sample repeats the expansion until it spans this many seconds of
# the thread's CPU time.
MIN_SAMPLE_S = 0.002


def reservers_route(grid, s):
    """The reservers suite's case at subdivision ``s``: the subdivided grid,
    its links of radius ``s`` and the corner route across it."""
    g = subdivide(build_grid(grid, RESERVERS_WEIGHT), s)
    links = build_adjacency_links(g, s)
    start = g.coords.index((0, 1 * s))
    goal = g.coords.index(((grid - 1) * s, (grid - 2) * s))
    return g, links, corner_route_steps(g, start, goal)


def _sample_s(fn, steps, links):
    """CPU seconds per expansion over one sample, which repeats the expansion
    until it spans ``MIN_SAMPLE_S``, with the garbage collector off as
    ``timeit`` has it, so that no collection lands in one sample and not
    its twin; returns the time and the last expansion. The thread's CPU
    clock, unlike the wall clock, does not run while other processes hold
    the core, so a busy machine skews neither sample of a pair."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        calls = 0
        t0 = time.thread_time()
        while True:
            out = fn(steps, links, 1)
            calls += 1
            elapsed = time.thread_time() - t0
            if elapsed >= MIN_SAMPLE_S:
                return elapsed / calls, out
    finally:
        if gc_was_on:
            gc.enable()


def bench_reservers(*, grid=40, subdivisions=(1, 2, 4, 6), reps=20):
    """Best of ``reps`` samples per expansion, naive and boundary samples
    alternating so that drift in machine speed cannot skew their ratio."""
    rows = []
    for s in subdivisions:
        g, links, steps = reservers_route(grid, s)
        outputs = {}
        timings = {}
        for _ in range(reps):
            for name, fn in (("naive", naive_reservations), ("boundary", boundary_reservations)):
                dt, outputs[name] = _sample_s(fn, steps, links)
                timings[name] = min(timings.get(name, dt), dt)
        same = normalise(outputs["naive"]) == normalise(outputs["boundary"])
        note = "equal" if same else "UNEQUAL"
        span = sum(s2.end - s2.start for s2 in steps if not g.is_node(s2.resource))
        for name in ("naive", "boundary"):
            rows.append(
                csv_row("reservers", s, name, _fmt_ms(timings[name]), "", span, note)
            )
    return rows
