"""Route an AGV through reservations: waiting, detours, and guides.

Run: python3 demos/03_time_pathing.py
"""

from agvtime.graph import build_grid
from agvtime.pathing import (
    SourceSpec,
    Stage,
    manhattan_guide,
    time_path,
    zero_guide,
)
from agvtime.timegraph import TimeGraph


def describe_path(g, p):
    for s in p.steps:
        kind = "node" if g.is_node(s.resource) else "edge"
        print(f"  {kind} {g.describe(s.resource):>4}  [{s.start}, {s.end})")


def main():
    g = build_grid(5, 10)
    tg = TimeGraph(g)
    src = g.coords.index((1, 1))
    dst = g.coords.index((3, 3))

    p = time_path(tg, 1, SourceSpec(src), [Stage({dst}, 0)])
    print(f"free grid: arrival at {p.arrival} after {len(p.steps)} steps")
    describe_path(g, p)

    # Park a rival on the middle node for a long stretch.
    middle = g.coords.index((2, 2))
    tg.reserve(middle, 9, 0, 100)
    p2 = time_path(tg, 1, SourceSpec(src), [Stage({dst}, 0)])
    print(f"\nmiddle node blocked until 100: arrival now {p2.arrival}")
    used = {s.resource for s in p2.steps}
    print(f"  detours around it: {middle not in used}")

    # Same search with two different guides; arrivals must agree because
    # every guide is an optimistic travel-time estimate.
    stages = [Stage({middle}, 5), Stage({dst}, 0)]
    arrivals = {}
    for name, guide in (
        ("zero", zero_guide(g, stages)),
        ("manhattan", manhattan_guide(g, stages)),
    ):
        q = time_path(tg, 1, SourceSpec(src), stages, guide=guide)
        arrivals[name] = q.arrival
    print(f"\nserve 5 ticks on the blocked node, then reach the target:")
    print(f"  arrivals by guide: {arrivals}")
    print("  guides change how much is explored, never what is found")


if __name__ == "__main__":
    main()
