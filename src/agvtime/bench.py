"""Benchmark suites producing one stable CSV schema.

Columns: suite,param,algorithm,runtime_ms,makespan,total_distance,note.
Empty cells stay empty; runtime_ms is wall clock and excluded from any
determinism promise. The reservers suite carries a correctness verdict in
``note`` because it times two algorithms that must emit identical coverage.
"""

from __future__ import annotations

import gc
import time

from .anchoring import greedy_anchorise, naive_anchorise
from .footprint import boundary_reservations, naive_reservations, normalise
from .graph import build_adjacency_links, build_grid, spatial_path, subdivide
from .intervals import INF
from .pathing import Step
from .scenarios import generate, materialise
from .scheduling import PRESETS, Timetable, build_timetable, metrics
from .timegraph import TimeGraph

CSV_HEADER = "suite,param,algorithm,runtime_ms,makespan,total_distance,note"


def csv_row(suite, param, algorithm, runtime_ms, makespan="", distance="", note=""):
    return f"{suite},{param},{algorithm},{runtime_ms},{makespan},{distance},{note}"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}"


def bench_anchorisers(*, grid=20, agv_counts=(5, 10, 20), seed=0):
    rows = []
    for i, count in enumerate(agv_counts):
        sc = generate(grid=grid, agvs=count, demands=0, seed=seed + i)
        g, links, placements, _ = materialise(sc)
        for name, run in (("naive", naive_anchorise), ("greedy", greedy_anchorise)):
            tg = TimeGraph(g)
            kwargs = {"seed": sc.seed} if name == "naive" else {}
            t0 = time.perf_counter()
            res = run(tg, links, placements, **kwargs)
            elapsed = time.perf_counter() - t0
            tt = Timetable({agv: [p] for agv, p in res.paths.items()}, tg)
            note = "stalled" if res.stalled else ""
            rows.append(
                csv_row("anchorisers", count, name, _fmt_ms(elapsed), tt.makespan(), tt.total_distance(), note)
            )
    return rows


def bench_presets(*, sizes=(8, 12, 16, 20, 30), agvs=4, demands=40, seed=0):
    rows = []
    for i, n in enumerate(sizes):
        sc = generate(grid=n, agvs=agvs, demands=demands, seed=seed + i)
        g, links, placements, ds = materialise(sc)
        for preset in PRESETS:
            tt = build_timetable(
                g,
                links,
                placements,
                ds,
                preset=preset,
                anchoriser=sc.anchoriser,
                stop_pickup=sc.stop_pickup,
                stop_dropoff=sc.stop_dropoff,
                seed=sc.seed,
            )
            m = metrics(tt)
            rows.append(
                csv_row(
                    "presets",
                    n,
                    preset,
                    f"{m['runtime_ms']:.3f}",
                    m["makespan"],
                    m["total_distance"],
                )
            )
    return rows


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
# So each sample repeats the expansion until it spans this many seconds.
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
    """Seconds per expansion over one sample, which repeats the expansion
    until it spans ``MIN_SAMPLE_S``, with the garbage collector off as
    ``timeit`` has it, so that no collection lands in one sample and not
    its twin; returns the time and the last expansion."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        calls = 0
        t0 = time.perf_counter()
        while True:
            out = fn(steps, links, 1)
            calls += 1
            elapsed = time.perf_counter() - t0
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


SUITES = {"anchorisers": bench_anchorisers, "presets": bench_presets, "reservers": bench_reservers}
