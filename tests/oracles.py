"""Brute-force reference models and inspection helpers used by the tests.

The oracles deliberately share no code or data layout with the engine:
TimelineOracle tracks one python set per tick, the schedule oracle does a
breadth-first sweep over (resource, tick, stage) states, and shortest_ticks
runs its own Dijkstra over the raw edge list. dump_csv and snapshot_before
read a TimeGraph's stored intervals for equality and immutability checks.
timetable_json is the standard library's rendering of a timetable, which
Timetable.to_json must match byte for byte.
"""

import heapq
import io
import json

from agvtime.intervals import INF, Interval, fmt_tick


class TimelineOracle:
    """Per-tick shadow of a GapTree over a bounded horizon [0, horizon)."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.ticks = [set() for _ in range(horizon)]

    def insert(self, agv, ivl: Interval):
        end = self.horizon if ivl.end == INF else min(ivl.end, self.horizon)
        for t in range(ivl.start, end):
            self.ticks[t].add(agv)

    def remove(self, agv, ivl: Interval):
        end = self.horizon if ivl.end == INF else min(ivl.end, self.horizon)
        for t in range(ivl.start, end):
            self.ticks[t].discard(agv)

    def gaps(self, agv, window: Interval):
        """Maximal runs of ticks free for agv inside the window."""
        end = self.horizon if window.end == INF else min(window.end, self.horizon)
        out = []
        run_start = None
        for t in range(window.start, end):
            free = not self.ticks[t] or self.ticks[t] == {agv}
            if free and run_start is None:
                run_start = t
            elif not free and run_start is not None:
                out.append((run_start, t))
                run_start = None
        if run_start is not None:
            out.append((run_start, end))
        return out

    def segments(self):
        """Canonical (start, end, ids) runs of equal non-empty tick sets."""
        out = []
        cur_ids = None
        cur_start = None
        for t in range(self.horizon):
            ids = frozenset(self.ticks[t])
            if ids != cur_ids:
                if cur_ids:
                    out.append((cur_start, t, cur_ids))
                cur_ids = ids
                cur_start = t
        if cur_ids:
            out.append((cur_start, self.horizon, cur_ids))
        return out


def exhaustive_earliest_arrival(graph, busy, agv, source_node, start_tick, stages, horizon):
    """Earliest feasible arrival at the final stage by per-tick enumeration.

    ``busy`` maps resource id -> set of ticks reserved by someone other than
    ``agv``. Movement model: wait any whole number of ticks on a node (every
    occupied tick must be free), traverse an edge non-stop over exactly its
    weight in ticks (every tick of the crossing free on the edge), and be at a
    node only on ticks that are free for the AGV. Each stage is completed by
    sitting on one of its target nodes for min_stop consecutive free ticks;
    completion is optional on passing. All stops must be finite. Returns the
    arrival tick at the final stage's target, or None if nothing completes
    within ``horizon``.

    Dijkstra over (node, tick, stage) with unit time steps; small instances
    only.

    Presence rules mirror the engine's half-open semantics: a node arrival
    instant must fall on a free tick, every tick strictly inside an occupation
    is free, and departing exactly when a reservation begins is legal.
    """

    def node_free(n, t):
        return t not in busy.get(n, ())

    def edge_free(e, t0, t1):
        b = busy.get(e, ())
        return all(t not in b for t in range(t0, t1))

    n_stages = len(stages)
    seen = set()
    heap = []
    if node_free(source_node, start_tick):
        heapq.heappush(heap, (start_tick, source_node, 0))
    while heap:
        t, node, stage = heapq.heappop(heap)
        if t > horizon:
            continue
        if (node, t, stage) in seen:
            continue
        seen.add((node, t, stage))
        targets, stop = stages[stage]
        if node in targets and all(node_free(node, u) for u in range(t, t + stop)):
            if stage + 1 == n_stages:
                return t
            heapq.heappush(heap, (t + stop, node, stage + 1))
        # wait one more tick in place; occupies tick t
        if node_free(node, t):
            heapq.heappush(heap, (t + 1, node, stage))
        # depart right now; tick t itself is not occupied on this node
        for erid, dest, w in graph.moves[node]:
            if edge_free(erid, t, t + w) and node_free(dest, t + w):
                heapq.heappush(heap, (t + w, dest, stage))
    return None


def shortest_ticks(graph, source):
    """Least travel ticks from ``source`` to every node reachable from it."""
    adj = {}
    for e in graph.edges:
        adj.setdefault(e.a, []).append((e.b, e.weight))
        if not e.directed:
            adj.setdefault(e.b, []).append((e.a, e.weight))
    dist = {}
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for u, w in adj.get(v, ()):
            if u not in dist:
                heapq.heappush(heap, (d + w, u))
    return dist


def dump_csv(tg):
    """Stable ``resource,agv,start,end`` listing of every held interval."""
    out = io.StringIO()
    out.write("resource,agv,start,end\n")
    for rid, tree in enumerate(tg.trees):
        for s, e, ids in tree.intervals():
            for agv in sorted(ids):
                out.write(f"{tg.graph.describe(rid)},{agv},{s},{fmt_tick(e)}\n")
    return out.getvalue()


def snapshot_before(tg, horizon):
    """Stored intervals clipped to [0, horizon), for immutability checks."""
    if horizon <= 0:
        return []
    clip = []
    for rid, tree in enumerate(tg.trees):
        for s, e, ids in tree.intervals():
            if s >= horizon:
                break
            clip.append((rid, s, min(e, horizon), ids))
    return clip


def timetable_json(tt):
    """``tt`` as ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline,
    with the document built from ``tt``'s trimmed steps; the distance is
    summed here, apart from the engine's."""
    g = tt.tg.graph
    trimmed = tt.trimmed_steps()

    def tick(v):
        return "inf" if v == INF else int(v)

    distance = sum(
        s.end - s.start for steps in trimmed.values() for s in steps if not g.is_node(s.resource)
    )
    doc = {
        "agvs": [
            {
                "id": agv,
                "steps": [
                    {"resource": g.describe(s.resource), "start": tick(s.start), "end": tick(s.end)}
                    for s in steps
                ],
            }
            for agv, steps in sorted(trimmed.items())
        ],
        "metrics": {"makespan": tick(tt.makespan()), "total_distance": distance},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
