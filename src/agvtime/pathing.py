"""Earliest-arrival routing through reservation gaps.

The search runs over labels (resource, gap window, stage, entry tick) where a
gap window is a maximal span the timeline grants this AGV on that resource.
Within a window the AGV may wait freely; leaving it means crossing an edge
whose own window must admit the full traversal, landing inside a window on
the far node. Visits are half open, so departure may sit exactly on a window
end while an arrival tick must be strictly inside its window.

Each search reads an AGV's gaps on a resource once, on first use, from its
``earliest`` tick on: the tree drops the windows that end by then and clips
one that straddles it to start there. Every label enters at or after
``earliest``, so no move can use a dropped window, and a clipped start changes
no departure tick and no test that ends a scan.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .graph import InvalidParameterError, ResourceGraph, spatial_path
from .intervals import INF, AgvId, is_finite
from .timegraph import TimeGraph


@dataclass(frozen=True)
class Stage:
    """One errand: reach any target node, then hold still for ``stop`` ticks."""

    targets: frozenset[int]
    stop: int | float

    def __init__(self, targets, stop):
        object.__setattr__(self, "targets", frozenset(targets))
        object.__setattr__(self, "stop", stop)


@dataclass(frozen=True)
class SourceSpec:
    """Where an AGV starts: a node, or partway along an edge.

    ``elapsed`` ticks of the edge are already behind it; ``toward`` names the
    endpoint it is heading for and defaults to the edge's stored head.
    """

    resource: int
    elapsed: int = 0
    toward: int | None = None


class Step(NamedTuple):
    resource: int
    start: int
    end: int | float


@dataclass(frozen=True)
class TimePath:
    agv: AgvId
    steps: tuple[Step, ...]
    arrival: int

    def occupations(self):
        """Base claims (agv, resource, start, end) for audits and commits."""
        return [(self.agv, s.resource, s.start, s.end) for s in self.steps]


def check_stages(stages) -> None:
    if not stages:
        raise InvalidParameterError("route needs at least one stage")
    last = len(stages) - 1
    for i, st in enumerate(stages):
        if not st.targets:
            raise InvalidParameterError(f"stage {i} has no targets")
        if is_finite(st.stop):
            if st.stop < 0:
                raise InvalidParameterError(f"stage {i} stop is negative")
        elif i != last:
            raise InvalidParameterError("infinite stop before the final stage")


def check_source(g: ResourceGraph, spec: SourceSpec) -> int | None:
    """Head node of an edge source, None for a node source; raises
    InvalidParameterError when ``spec`` is no position on ``g``."""
    if not 0 <= spec.resource < g.num_resources:
        raise InvalidParameterError(f"source resource {spec.resource} is not on the graph")
    if g.is_node(spec.resource):
        if spec.elapsed or spec.toward is not None:
            raise InvalidParameterError("elapsed ticks and toward only apply to edge sources")
        return None
    edge = g.edge_at(spec.resource)
    if not 0 <= spec.elapsed < edge.weight:
        raise InvalidParameterError("elapsed ticks outside the edge")
    head = spec.toward if spec.toward is not None else edge.b
    if type(head) is not int or head not in (edge.a, edge.b) or (edge.directed and head != edge.b):
        raise InvalidParameterError(f"toward {head!r} is not a reachable endpoint")
    return head


GuideFn = Callable[[int, int], float]


def zero_guide(g: ResourceGraph, stages) -> GuideFn:
    return lambda node, stage: 0.0


def manhattan_guide(g: ResourceGraph, stages) -> GuideFn:
    if g.coords is None or g.unit_weight is None:
        raise InvalidParameterError("graph carries no coordinates")
    unit = g.unit_weight
    coords = g.coords
    K = len(stages)

    def dist(v, targets):
        vx, vy = coords[v]
        return unit * min(abs(vx - tx) + abs(vy - ty) for tx, ty in targets)

    tcoords = [tuple(coords[t] for t in st.targets) for st in stages]
    # suffix[k]: guide mass of everything after reaching stage k's target.
    # Stops count for every stage except the last, whose stop does not delay
    # the arrival objective.
    suffix = [0.0] * (K + 1)
    for k in range(K - 2, -1, -1):
        pair = min(dist(a, tcoords[k + 1]) for a in stages[k].targets)
        suffix[k] = suffix[k + 1] + pair + stages[k].stop

    def h(node, stage):
        if stage >= K:
            return 0.0
        vx, vy = coords[node]
        near = INF
        for tx, ty in tcoords[stage]:
            d = abs(vx - tx) + abs(vy - ty)
            if d < near:
                near = d
        return unit * near + suffix[stage]

    return h


class _Label:
    __slots__ = ("agv", "node", "wstart", "wend", "entry", "stage", "parent", "via")

    def __init__(self, agv, node, wstart, wend, entry, stage, parent, via):
        self.agv = agv
        self.node = node
        self.wstart = wstart
        self.wend = wend
        self.entry = entry
        self.stage = stage
        self.parent = parent
        self.via = via  # (edge rid, depart, arrive) or None


def _windows(tg: TimeGraph, memo: dict, rid: int, agv: AgvId, earliest: int) -> tuple:
    """agv's gap windows on rid from ``earliest`` on, read from ``tg`` and
    stored in ``memo``, where callers look first."""
    windows = memo[rid] = tg.gaps_from(rid, agv, earliest)
    return windows


def _source_label(tg: TimeGraph, memo: dict, agv: AgvId, spec: SourceSpec, earliest: int):
    """Initial (node, window start, window end, entry) for one AGV, plus an
    edge prefix step when it starts mid-edge; (None, None) when blocked."""
    g = tg.graph
    rid = spec.resource
    head = check_source(g, spec)
    windows = _windows(tg, memo, rid, agv, earliest)
    if not windows or windows[0][0] > earliest:
        return None, None
    if head is None:
        return (rid, *windows[0], earliest), None
    # The rest of the crossing, [earliest, tau), must lie in one window.
    tau = earliest + (g.edge_at(rid).weight - spec.elapsed)
    if windows[0][1] < tau:
        return None, None
    for ws, we in _windows(tg, memo, head, agv, earliest):
        if ws <= tau < we:
            return (head, ws, we, tau), Step(rid, earliest, tau)
    return None, None


def _search(tg: TimeGraph, sources, stages, guide: GuideFn, earliest: int, allowed):
    """Best-first scan over gap windows; first finished label is optimal.

    ``sources`` is a list of (agv, SourceSpec). Returns (done label, prefix
    steps by agv) or (None, {}) when no AGV can finish the route.
    """
    check_stages(stages)
    K = len(stages)
    moves = tg.graph.moves
    heappush, heappop = heapq.heappush, heapq.heappop
    prefixes = {}
    memos = {}  # agv -> {resource: _windows result}, filled on first read
    heap = []
    seq = itertools.count()
    best = {}

    def push(agv, node, wstart, wend, entry, stage, parent, via):
        # Dominance first: most candidate labels lose to one already queued,
        # so the label is only built once it is known to be kept.
        key = (agv, node, wstart, stage)
        old = best.get(key)
        if old is not None and old <= entry:
            return
        best[key] = entry
        lab = _Label(agv, node, wstart, wend, entry, stage, parent, via)
        heappush(heap, (entry + guide(node, stage), entry, -stage, node, next(seq), lab))

    for agv, spec in sources:
        memo = memos[agv] = {}
        start, prefix = _source_label(tg, memo, agv, spec, earliest)
        if start is None:
            continue
        node, ws, we, entry = start
        if allowed is not None and node not in allowed:
            continue
        if prefix is not None:
            prefixes[agv] = prefix
        push(agv, node, ws, we, entry, 0, None, None)

    while heap:
        lab = heappop(heap)[-1]
        agv, node, wend, entry, stage = lab.agv, lab.node, lab.wend, lab.entry, lab.stage
        key = (agv, node, lab.wstart, stage)
        if best.get(key) != entry:
            continue
        best[key] = -1  # closed; real entries are never negative
        if stage == K:
            return lab, prefixes
        st = stages[stage]
        if node in st.targets:
            if stage == K - 1:
                ok = wend == INF if not is_finite(st.stop) else entry + st.stop <= wend
                if ok:
                    push(agv, node, lab.wstart, wend, entry, K, lab, None)
            elif entry + st.stop <= wend:
                push(agv, node, lab.wstart, wend, entry + st.stop, stage + 1, lab, None)
        memo = memos[agv]
        for erid, dest, w in moves[node]:
            if allowed is not None and (erid not in allowed or dest not in allowed):
                continue
            edge_windows = memo.get(erid)
            if edge_windows is None:
                edge_windows = _windows(tg, memo, erid, agv, earliest)
            dest_windows = memo.get(dest)
            if dest_windows is None:
                dest_windows = _windows(tg, memo, dest, agv, earliest)
            reach = entry + w
            for es, ee in edge_windows:
                if es > wend:
                    break
                if ee < reach or ee - es < w:
                    continue
                for ds, de in dest_windows:
                    if ds - w > wend or ds > ee:
                        break
                    if de <= reach:
                        continue
                    dep = max(entry, es, ds - w)
                    arr = dep + w
                    if dep > wend or arr > ee or arr >= de:
                        continue
                    # push(), inlined: this is the search's hot path.
                    key = (agv, dest, ds, stage)
                    old = best.get(key)
                    if old is not None and old <= arr:
                        continue
                    best[key] = arr
                    nxt = _Label(agv, dest, ds, de, arr, stage, lab, (erid, dep, arr))
                    heappush(heap, (arr + guide(dest, stage), arr, -stage, dest, next(seq), nxt))
    return None, prefixes


def _emit(done, final_stop, prefix) -> tuple[Step, ...]:
    """Fold the label chain into contiguous steps, merging same-node holds."""
    chain = []
    lab = done
    while lab is not None:
        chain.append(lab)
        lab = lab.parent
    chain.reverse()

    steps = [] if prefix is None else [prefix]
    hold_start = chain[0].entry
    for lab in chain[1:]:
        if lab.via is None:
            continue  # stage completion or the finishing marker, same node
        erid, dep, arr = lab.via
        steps.append(Step(lab.parent.node, hold_start, dep))
        steps.append(Step(erid, dep, arr))
        hold_start = arr
    arrival = done.entry
    end = INF if not is_finite(final_stop) else arrival + final_stop
    steps.append(Step(done.node, hold_start, end))
    return tuple(steps)


def time_path(
    tg: TimeGraph,
    agv: AgvId,
    source: SourceSpec,
    stages,
    *,
    earliest: int = 0,
    guide: GuideFn | None = None,
    allowed: frozenset[int] | None = None,
) -> TimePath | None:
    """Earliest-arrival path for one AGV through its current reservations."""
    return multi_source_time_path(
        tg, [(agv, source)], stages, earliest=earliest, guide=guide, allowed=allowed
    )


def multi_source_time_path(
    tg: TimeGraph,
    sources,
    stages,
    *,
    earliest: int = 0,
    guide: GuideFn | None = None,
    allowed: frozenset[int] | None = None,
) -> TimePath | None:
    """Race several AGVs over one route; the soonest finisher's path wins."""
    if guide is None:
        guide = zero_guide(tg.graph, stages)
    done, prefixes = _search(tg, sources, stages, guide, earliest, allowed)
    if done is None:
        return None
    steps = _emit(done, stages[-1].stop, prefixes.get(done.agv))
    return TimePath(done.agv, steps, done.entry)


def route_corridor(
    g: ResourceGraph,
    waypoints,
    *,
    guide: str = "none",
) -> frozenset[int] | None:
    """Resources touched by shortest spatial legs between consecutive waypoints.

    Legs steer around every anchor except their own endpoints, so a corridor
    never cuts through someone's parking spot. Returns None if any leg fails.
    """
    allowed = set()
    for a, b in zip(waypoints, waypoints[1:]):
        forbidden = g.anchors - {a, b}
        leg = spatial_path(g, a, b, forbidden=forbidden, guide=guide)
        if leg is None:
            return None
        allowed.update(leg[0])
    return frozenset(allowed)
