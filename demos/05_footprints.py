"""Expand a time-path into footprint reservations two ways and race them.

Run: python3 demos/05_footprints.py
"""

import time

from agvtime.bench import corner_route_steps
from agvtime.footprint import (
    WorkCounter,
    boundary_reservations,
    naive_reservations,
    normalise,
)
from agvtime.graph import build_adjacency_links, build_grid, subdivide
from agvtime.intervals import fmt_tick


def main():
    g = subdivide(build_grid(4, 12), 2)
    links = build_adjacency_links(g, 2)
    v = sorted(set(range(g.num_nodes)) - g.anchors)[0]
    erid, u, w = g.moves[v][0]
    steps = [(v, 0, 4), (erid, 4, 4 + w), (u, 4 + w, 10)]

    naive = naive_reservations(steps, links, agv=1)
    fast = boundary_reservations(steps, links, agv=1)
    print(f"three-step walk: naive emits {len(naive)} reservations, "
          f"boundary emits {len(fast)}")
    print(f"normalised outputs equal: {normalise(naive) == normalise(fast)}")
    print("sample of the merged coverage:")
    for r in normalise(fast)[:6]:
        print(f"  {g.describe(r.resource):>4} [{r.start}, {fmt_tick(r.end)})")

    print("\ncorner-to-corner route on a 40x40 grid, subdivision 4, radius 4:")
    big = subdivide(build_grid(40, 12), 4)
    blinks = build_adjacency_links(big, 4)
    start = big.coords.index((0, 4))
    goal = big.coords.index((39 * 4, 38 * 4))
    route = corner_route_steps(big, start, goal)
    for name, fn in (("naive", naive_reservations), ("boundary", boundary_reservations)):
        counter = WorkCounter()
        best = min(
            _timed(fn, route, blinks, counter if i == 0 else None)
            for i in range(5)
        )
        touched = sum(counter.per_step)
        print(f"  {name:>8}: best {best*1000:7.3f} ms, touched {touched} resources")
    print("the boundary sweep touches shells instead of whole footprints, "
          "so its lead widens as the radius grows")


def _timed(fn, steps, links, counter):
    t0 = time.perf_counter()
    fn(steps, links, 1, counter=counter)
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
