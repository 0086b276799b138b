"""Brute-force reference models and inspection helpers used by the tests.

The oracles deliberately share no code or data layout with the engine:
TimelineOracle tracks one python set per tick, the schedule oracle does a
breadth-first sweep over (resource, tick, stage) states, and shortest_ticks
and anchor_ticks run their own Dijkstra over the raw edge list. spatial_path_cost_first is
the one exception: it is the corridor leg search with its former
cost-first heap order, over the graph's own move lists, and the engine's
deeper-first order must match it leg for leg. The two anchorisers are the
others: naive_anchorise_fixed_bound and greedy_anchorise_fixed_bound are the
engine's loops with the race bound built once over every anchor, which the
engine's nearest-open-anchor bound must match result for result;
nearest_target_guide builds that fixed bound. greedy_anchorise_rebuilt is
the greedy loop as it was before it carried its race entrants across rounds:
each round checks every pending placement and reads every low afresh, and
the engine must match it result for result.
dump_csv and snapshot_before read a TimeGraph's stored intervals for
equality and immutability checks, and counted_reads counts its gap reads.
timetable_json is the standard library's rendering of a timetable, which
Timetable.to_json must match byte for byte. audit_by_gap_query is the safety
audit's former rule, a window gap query per claim, which audit_safety's
one-walk read must match claim for claim. service_faults checks that a
timetable serves its demands, each by one route of its own, read off the
committed paths alone. eager_multi_source_time_path is the route search as it
was before it deferred the moves that raise the guide: every move out of a
popped label reads its windows and pushes its labels at once, and the guide
runs once per pushed label. The engine must return its path exactly.
pickup_arrival_pick is batch assignment by a full scan of every (AGV, demand)
pair for every commit, which the scheduler's incremental selection must match
commit for commit.
"""

import heapq
import io
import itertools
import json
import random
from operator import itemgetter

from agvtime.anchoring import AnchorResult, hold, initialise_reservations
from agvtime.footprint import boundary_reservations
from agvtime.graph import manhattan_bound
from agvtime.intervals import INF, fmt_tick
from agvtime.pathing import (
    NearestTarget,
    Stage,
    TimePath,
    _emit,
    _source_label,
    check_source,
    check_stages,
    multi_source_time_path,
    time_path,
    zero_guide,
)
from agvtime.timegraph import SafetyViolation


class TimelineOracle:
    """Per-tick shadow of a GapTree over a bounded horizon [0, horizon)."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.ticks = [set() for _ in range(horizon)]

    def insert(self, agv, start, end):
        end = self.horizon if end == INF else min(end, self.horizon)
        for t in range(start, end):
            self.ticks[t].add(agv)

    def remove(self, agv, start, end):
        end = self.horizon if end == INF else min(end, self.horizon)
        for t in range(start, end):
            self.ticks[t].discard(agv)

    def gaps(self, agv, start, end):
        """Maximal runs of ticks free for agv inside [start, end)."""
        end = self.horizon if end == INF else min(end, self.horizon)
        out = []
        run_start = None
        for t in range(start, end):
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


def anchor_ticks(graph, source):
    """Least travel ticks from ``source`` to each anchor reachable on a route
    that passes through no other anchor."""
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
        if v in graph.anchors and v != source:
            continue
        for u, w in adj.get(v, ()):
            if u not in dist:
                heapq.heappush(heap, (d + w, u))
    return {v: d for v, d in dist.items() if v in graph.anchors}


def spatial_path_cost_first(g, frm, to, forbidden=frozenset(), guide="none"):
    """``graph.spatial_path`` with its heap keyed ``(f, cost, v)``: among
    equal ``f`` the cheaper node pops first, so a Manhattan-guided leg widens
    across its whole equal-f plateau. Same arguments and result."""
    if frm == to:
        return [frm], 0
    if to in forbidden or frm in forbidden:
        return None
    if guide == "manhattan":
        tx, ty = g.coords[to]
        h = lambda v: g.unit_weight * (abs(g.coords[v][0] - tx) + abs(g.coords[v][1] - ty))
    else:
        h = lambda v: 0
    best = {frm: 0}
    parent = {}
    heap = [(h(frm), 0, frm)]
    while heap:
        f, cost, v = heapq.heappop(heap)
        if v == to:
            path = [to]
            while path[-1] != frm:
                erid, prev = parent[path[-1]]
                path.append(erid)
                path.append(prev)
            path.reverse()
            return path, cost
        if cost > best.get(v, -1):
            continue
        for erid, u, w in g.moves[v]:
            if u in forbidden:
                continue
            nc = cost + w
            if nc < best.get(u, float("inf")):
                best[u] = nc
                parent[u] = (erid, v)
                heapq.heappush(heap, (nc + h(u), nc, u))
    return None


def _commit(tg, links, agv, path):
    """Swap agv's start pin for its path, as the engine's anchorisers do."""
    first = path.steps[0]
    tg.remove_all(hold(links, agv, first.resource, first.start))
    tg.reserve_all(boundary_reservations(path.steps, links, agv))


def nearest_target_guide(g, stages):
    """Travel ticks to the nearest target of the first stage, and 0 from the
    second stage on: exact for a one-stage route such as anchorisation's.
    Consistent: 0 on every target, ``h(u) <= w + h(v)`` on every move."""
    return NearestTarget(g, stages[0].targets).bound


def naive_anchorise_fixed_bound(tg, links, placements, *, seed=0):
    """``anchoring.naive_anchorise`` with every search bounded by the ticks
    to the nearest anchor, parked on or not, built once per call."""
    g = tg.graph
    stages = [Stage(g.anchors, INF)]
    bound = nearest_target_guide(g, stages)
    initialise_reservations(tg, links, placements)
    rng = random.Random(seed)
    pending = sorted(placements)
    paths = {}
    attempts = 0
    while pending:
        rng.shuffle(pending)
        progressed = False
        for agv in list(pending):
            attempts += 1
            p = time_path(tg, agv, placements[agv], stages, bound=bound)
            if p is None:
                continue
            _commit(tg, links, agv, p)
            paths[agv] = p
            progressed = True
        pending = [a for a in pending if a not in paths]
        if not progressed:
            return AnchorResult(paths, frozenset(pending), attempts)
    return AnchorResult(paths, frozenset(), attempts)


def greedy_anchorise_fixed_bound(tg, links, placements):
    """``anchoring.greedy_anchorise`` with every race bounded by the ticks to
    the nearest anchor, parked on or not, built once per call."""
    g = tg.graph
    stages = [Stage(g.anchors, INF)]
    bound = nearest_target_guide(g, stages)
    initialise_reservations(tg, links, placements)
    pending = set(placements)
    paths = {}
    attempts = 0
    while pending:
        attempts += 1
        sources = [(a, placements[a]) for a in sorted(pending)]
        p = multi_source_time_path(tg, sources, stages, bound=bound)
        if p is None:
            return AnchorResult(paths, frozenset(pending), attempts)
        _commit(tg, links, p.agv, p)
        paths[p.agv] = p
        pending.discard(p.agv)
    return AnchorResult(paths, frozenset(), attempts)


def greedy_anchorise_rebuilt(tg, links, placements):
    """``anchoring.greedy_anchorise`` handing each round's race every pending
    ``(agv, spec)`` pair, so the race checks each placement and computes each
    low again every round."""
    g = tg.graph
    stages = [Stage(g.anchors, INF)]
    nearest = NearestTarget(g, g.anchors)
    initialise_reservations(tg, links, placements)
    pending = set(placements)
    paths = {}
    attempts = 0
    while pending:
        attempts += 1
        sources = [(a, placements[a]) for a in sorted(pending)]
        p = multi_source_time_path(tg, sources, stages, bound=nearest.bound)
        if p is None:
            return AnchorResult(paths, frozenset(pending), attempts)
        _commit(tg, links, p.agv, p)
        nearest.close(links.linked[p.steps[-1].resource])
        paths[p.agv] = p
        pending.discard(p.agv)
    return AnchorResult(paths, frozenset(), attempts)


def eager_search(tg, racers, roots, memos, stages, guide, earliest, allowed, bound=None, limit=INF):
    """``pathing._search`` with every move expanded when its label pops."""
    K = len(stages)
    moves = tg.graph.moves
    heap = []
    seq = itertools.count()
    best = {}

    def push(agv, node, wstart, wend, entry, stage, parent, via):
        if bound is not None and entry + bound(node, stage) > limit:
            return
        key = (agv, node, wstart, stage)
        old = best.get(key)
        if old is not None and old <= entry:
            return
        best[key] = entry
        f = entry + guide(node, stage)
        heapq.heappush(heap, (f, -stage, -entry, node, next(seq), agv, wstart, wend, parent, via))

    admitted = 0
    while True:
        while admitted < len(racers) and (not heap or racers[admitted][0] <= heap[0][0]):
            _, agv, spec, head = racers[admitted]
            admitted += 1
            if agv not in roots:
                roots[agv] = _source_label(tg, memos[agv], agv, spec, head, earliest)
            root = roots[agv]
            if root is not None and (allowed is None or root[0] in allowed):
                node, ws, we, entry, via = root
                push(agv, node, ws, we, entry, 0, None, via)
        if not heap:
            return None
        lab = heapq.heappop(heap)
        _, stage, entry, node, _, agv, wstart, wend, _, _ = lab
        stage, entry = -stage, -entry
        key = (agv, node, wstart, stage)
        if best.get(key) != entry:
            continue
        best[key] = -1
        if stage == K:
            return lab
        st = stages[stage]
        if node in st.targets and entry + st.stop <= wend:
            if stage == K - 1:
                push(agv, node, wstart, wend, entry, K, lab, None)
            else:
                push(agv, node, wstart, wend, entry + st.stop, stage + 1, lab, None)
        memo = memos[agv]
        for erid, dest, w in moves[node]:
            if allowed is not None and (erid not in allowed or dest not in allowed):
                continue
            last = wend
            if bound is not None:
                last = min(wend, limit - w - bound(dest, stage))
                if last < entry:
                    continue
            for rid in (erid, dest):
                if rid not in memo:
                    memo[rid] = tg.gaps_from(rid, agv, earliest)
            for es, ee in memo[erid]:
                if es > last:
                    break
                if ee < entry + w or ee - es < w:
                    continue
                first = max(es, entry)
                for ds, de in memo[dest]:
                    if ds - w > last or ds > ee:
                        break
                    if de <= entry + w:
                        continue
                    dep = max(ds - w, first)
                    arr = dep + w
                    if dep > last or arr > ee or arr >= de:
                        continue
                    push(agv, dest, ds, de, arr, stage, lab, (erid, dep, arr))


def eager_multi_source_time_path(tg, sources, stages, *, earliest=0, guide=None, allowed=None, bound=None):
    """``pathing.multi_source_time_path`` over ``eager_search``."""
    check_stages(stages)
    g = tg.graph
    if guide is None:
        guide = zero_guide(g, stages)
    memos = {agv: {} for agv, _ in sources}
    roots = {}
    racers = []
    for agv, spec in sources:
        head = check_source(g, spec)
        if bound is None:
            low = -INF
        elif head is None:
            low = earliest + bound(spec.resource, 0)
        else:
            low = earliest + (g.edge_at(spec.resource).weight - spec.elapsed) + bound(head, 0)
        racers.append((low, agv, spec, head))
    if bound is None:
        done = eager_search(tg, racers, roots, memos, stages, guide, earliest, allowed)
    else:
        first = sorted(racers, key=itemgetter(0))
        done = eager_search(tg, first, roots, memos, stages, bound, earliest, allowed)
        if done is not None:
            best = -done[2]
            kept = [(-INF, *r[1:]) for r in racers if r[0] <= best]
            done = eager_search(tg, kept, roots, memos, stages, guide, earliest, allowed, bound, best)
    if done is None:
        return None
    return TimePath(done[5], _emit(done, stages[-1].stop), -done[2])


def counted_reads(monkeypatch, tg):
    """Per (resource, agv) count of ``tg.gaps_from`` calls from now on."""
    reads = {}
    real = tg.gaps_from

    def gaps_from(rid, agv, since):
        reads[rid, agv] = reads.get((rid, agv), 0) + 1
        return real(rid, agv, since)

    monkeypatch.setattr(tg, "gaps_from", gaps_from)
    return reads


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
    with the document built from ``tt.paths`` alone: each path's last step is
    cut here at the next path's first start, and the distance summed here,
    apart from the engine's timeline."""
    g = tt.tg.graph
    trimmed = {}
    for agv, plist in tt.paths.items():
        trimmed[agv] = []
        for p, nxt in zip(plist, [*plist[1:], None]):
            *body, last = p.steps
            end = last.end if nxt is None else nxt.steps[0].start
            trimmed[agv] += [*body, last._replace(end=end)]

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


def audit_by_gap_query(tg, occupations):
    """``audit_safety`` by its former rule: a non-empty claim is safe when the
    claimant's gap query over it returns the claim itself."""
    for agv, rid, start, end in occupations:
        if start == end:
            continue
        tree = tg.trees[rid]
        if tree.gap_query(agv, start, end) == [(start, end)]:
            continue
        others = set()
        for s, e, ids in tree.intervals():
            if s < end and start < e:
                others |= ids - {agv}
        return SafetyViolation(rid, agv, start, end, frozenset(others))
    return None


def _serves(path, demand, stop_pickup, stop_dropoff):
    """Whether ``path`` starts at or after the demand's horizon and visits
    its pickup, then its dropoff, holding each for at least its stop. One
    hold may serve both stops when the two are the same node."""
    if path.steps[0].start < demand.horizon:
        return False
    want = [(demand.pickup, stop_pickup), (demand.dropoff, stop_dropoff)]
    for rid, start, end in path.steps:
        while want and rid == want[0][0] and end - start >= want[0][1]:
            start += want.pop(0)[1]
    return not want


def service_faults(tt, demands, stop_pickup, stop_dropoff):
    """Why ``tt`` does not serve ``demands``: an empty list when each demand
    is served by exactly one committed path and each path after an AGV's
    first (its parking) serves exactly one demand. The timetable records no
    assignment, so one is looked for: a matching of demands to the paths
    that could serve them, grown by augmenting paths."""
    routes = [p for plist in tt.paths.values() for p in plist[1:]]
    faults = []
    if len(routes) != len(demands):
        faults.append(f"{len(routes)} committed routes for {len(demands)} demands")
    fits = [
        [i for i, p in enumerate(routes) if _serves(p, d, stop_pickup, stop_dropoff)]
        for d in demands
    ]
    owner = {}

    def claim(k, seen):
        for i in fits[k]:
            if i not in seen:
                seen.add(i)
                if i not in owner or claim(owner[i], seen):
                    owner[i] = k
                    return True
        return False

    for k, d in enumerate(demands):
        if not claim(k, set()):
            faults.append(
                f"demand {d.id} ({d.pickup} -> {d.dropoff} from tick {d.horizon}) "
                f"has no route of its own ({len(fits[k])} could serve it)"
            )
    return faults


def pickup_arrival_pick(g, paths, h, pending):
    """The ``(agv, demand, start)`` that batch assignment commits next in the
    horizon ``h`` batch, found by scanning every (AGV, demand) pair: the least
    ``(estimate, agv, demand id)``. An AGV starts at the later of ``h`` and
    its last path's arrival; the estimate is that start plus
    ``manhattan_bound`` from its last path's final resource to the pickup,
    or plus 0 on a graph without coords or ``unit_weight``."""
    embedded = g.coords is not None and g.unit_weight is not None
    picks = []
    for agv, plist in paths.items():
        last = plist[-1]
        start = max(h, last.arrival)
        for d in pending:
            dist = manhattan_bound(g, last.steps[-1].resource, d.pickup) if embedded else 0
            picks.append((start + dist, agv, d.id, d, start))
    _, agv, _, d, start = min(picks)
    return agv, d, start
