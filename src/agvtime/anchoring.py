"""Sending every idle AGV to a parking anchor without conflicts.

Each unparked AGV pins its start footprint for all time; a successful plan
swaps that pin for the reservations of an actual journey ending in an open
ended hold on some anchor. An anchor already pinned forever by someone else
fails the route's final hold, so the target set can simply be every anchor.

Every search is bounded by the exact travel ticks to the nearest *open*
anchor: a first pass ordered by that distance finds the least arrival, and
the usual zero-ordered pass then drops every label that cannot reach an open
anchor by it. A greedy round's race admits its racers by that bound: the
first pass builds a pending AGV's root, reading its start gaps, only once the
AGV's start tick plus its distance is at most the least bound still queued,
and the second pass starts just the AGVs whose distance allows the least
arrival. So a round costs the racers that can still win, not every pending
AGV. After each commit the anchors in the parked AGV's final
footprint ball close (``pathing.NearestTarget.close``): that AGV holds them
to the end of time, and a route's final hold needs a window to the end of
time, so no other AGV can finish on one. The distance to the nearest open
anchor is thus still consistent and still a lower bound on every finishing
route, only tighter than one to any anchor. A close resets only the nodes
whose nearest open anchor closed, which each anchor lists. The bound only
cuts work; each search returns the path, and each run the result, that the
unbounded search gives (``pathing``'s module docstring has both arguments).
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .footprint import boundary_reservations
from .graph import GeoLinks
from .intervals import INF, AgvId
from .pathing import (
    NearestTarget,
    SourceSpec,
    Stage,
    TimePath,
    multi_source_time_path,
    time_path,
)
from .timegraph import Reservation, TimeGraph


class AnchorResult(NamedTuple):
    paths: dict[AgvId, TimePath]
    stalled: frozenset[AgvId]
    attempts: int

    @property
    def ok(self) -> bool:
        return not self.stalled


def hold(links: GeoLinks, agv: AgvId, rid: int, since) -> list[Reservation]:
    """agv's open ended hold on rid and its linked surroundings from ``since``:
    a start pin from tick 0, and what a path starting on rid at ``since``
    releases, its own footprint taking over from there."""
    new = tuple.__new__
    return [new(Reservation, (r, agv, since, INF)) for r in sorted(links.linked[rid])]


def initialise_reservations(
    tg: TimeGraph, links: GeoLinks, placements: dict[AgvId, SourceSpec]
) -> None:
    """Pin each AGV's start and its linked surroundings for all time."""
    for agv, spec in placements.items():
        tg.reserve_all(hold(links, agv, spec.resource, 0))


def _commit(tg, links, agv, path):
    """Swap agv's start pin, on its path's first resource, for the path."""
    first = path.steps[0]
    tg.remove_all(hold(links, agv, first.resource, first.start))
    tg.reserve_all(boundary_reservations(path.steps, links, agv))


def _holder_for_good(tree, agv):
    """The least AGV other than ``agv`` holding tree's resource to the end of
    time, or None."""
    spans = tree.intervals()
    if not spans or spans[-1][1] != INF:
        return None
    return min((a for a in spans[-1][2] if a != agv), default=None)


def blockers(tg: TimeGraph, placements: dict[AgvId, SourceSpec], stalled) -> dict:
    """For each stalled AGV, one resource another AGV holds for good and that
    holder: ``{agv: (name, holder)}``, the resource named as in
    ``timetable.json``.

    A breadth-first walk over resource adjacency, ``g.adjacent``, from the
    AGV's start passes every resource nobody else holds to the end of time
    and stops at those someone does; the first one it meets is named, with
    its least other holder. After a stall only open ended holds are left for
    good, so the resources it passes are the ones the AGV could reach by
    waiting.
    """
    g = tg.graph
    out = {}
    for agv in sorted(stalled):
        queue = [placements[agv].resource]
        seen = set(queue)
        for r in queue:
            holder = _holder_for_good(tg.trees[r], agv)
            if holder is not None:
                out[agv] = (g.describe(r), holder)
                break
            fresh = [q for q in sorted(g.adjacent[r]) if q not in seen]
            seen.update(fresh)
            queue.extend(fresh)
    return out


def naive_anchorise(
    tg: TimeGraph,
    links: GeoLinks,
    placements: dict[AgvId, SourceSpec],
    *,
    seed: int = 0,
) -> AnchorResult:
    """Shuffled passes; anyone who can reach an anchor commits on the spot.

    A pass that parks nobody means the rest are mutually blocked for good.
    """
    g = tg.graph
    stages = [Stage(g.anchors, INF)]
    nearest = NearestTarget(g, g.anchors)
    initialise_reservations(tg, links, placements)
    rng = random.Random(seed)
    pending = sorted(placements)
    paths: dict[AgvId, TimePath] = {}
    attempts = 0
    while pending:
        rng.shuffle(pending)
        progressed = False
        for agv in list(pending):
            attempts += 1
            p = time_path(tg, agv, placements[agv], stages, bound=nearest.bound)
            if p is None:
                continue
            _commit(tg, links, agv, p)
            nearest.close(links.linked[p.steps[-1].resource])
            paths[agv] = p
            progressed = True
        pending = [a for a in pending if a not in paths]
        if not progressed:
            return AnchorResult(paths, frozenset(pending), attempts)
    return AnchorResult(paths, frozenset(), attempts)


def greedy_anchorise(
    tg: TimeGraph,
    links: GeoLinks,
    placements: dict[AgvId, SourceSpec],
) -> AnchorResult:
    """Race all unparked AGVs at once; the soonest finisher commits each round."""
    g = tg.graph
    stages = [Stage(g.anchors, INF)]
    nearest = NearestTarget(g, g.anchors)
    initialise_reservations(tg, links, placements)
    pending = set(placements)
    paths: dict[AgvId, TimePath] = {}
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
