"""Reservations across a whole graph: one gap tree per resource.

A ``Reservation`` is one flat tuple ``(resource, agv, start, end)``: both
footprint expansions and the anchor holds build it, and ``reserve_all``
unpacks it straight into the resource's tree.

The audit re-derives safety from scratch: every occupation an AGV claims must
be a single gap for that AGV on its resource, which is exactly the condition
its path search relied on. Each claim is decided in one walk over the stored
intervals it overlaps, with no gaps built. Footprint overlaps
between different AGVs are legal; only someone else's reservation crossing a
base occupation is a conflict.
"""

from typing import NamedTuple

from .graph import InvalidParameterError, ResourceGraph
from .intervals import AgvId, GapTree, fmt_tick


class Reservation(NamedTuple):
    """agv's hold on resource over the ticks [start, end)."""

    resource: int
    agv: AgvId
    start: int
    end: float

    @property
    def ivl(self):
        # perfbench/check.py reads r.ivl.start and r.ivl.end; goes with
        # ROADMAP item 0, once the checker reads start and end.
        return self


class SafetyViolation(NamedTuple):
    resource: int
    agv: AgvId
    start: int
    end: float
    others: frozenset[AgvId]

    def __str__(self):
        who = ",".join(str(a) for a in sorted(self.others))
        span = f"[{self.start}, {fmt_tick(self.end)})"
        return f"agv {self.agv} occupation {span} on resource {self.resource} conflicts with agv(s) {who}"


class TimeGraph:
    """Mutable reservation state for every resource of one graph."""

    def __init__(self, g: ResourceGraph):
        self.graph = g
        self.trees = [GapTree() for _ in range(g.num_resources)]

    def reserve(self, resource: int, agv: AgvId, start, end) -> None:
        """One checked reservation; the tree itself trusts its spans."""
        if not 0 <= start < end:
            span = f"[{fmt_tick(start)}, {fmt_tick(end)})"
            raise InvalidParameterError(f"reservation {span} on resource {resource} wants 0 <= start < end")
        self.trees[resource].insert(agv, start, end)

    def reserve_all(self, reservations) -> None:
        trees = self.trees
        for rid, agv, start, end in reservations:
            trees[rid].insert(agv, start, end)

    def remove_all(self, reservations) -> None:
        trees = self.trees
        for rid, agv, start, end in reservations:
            trees[rid].remove(agv, start, end)

    def gaps_from(self, resource: int, agv: AgvId, since):
        """agv's gaps on resource over [since, INF) as (start, end) tuples,
        the first clipped to start at ``since``. The planner's gap read: the
        path search calls this once per (resource, agv) pair with its
        earliest tick and keeps the result for the rest of the search, and
        ``scheduling.choose_anchor`` reads, from a plan's start, the
        dropoff's nearest anchor and, only when that one is not ready, each
        further anchor its Dijkstra settles, every anchor once."""
        return self.trees[resource].gaps_from(agv, since)

    def gaps_full(self, resource: int, agv: AgvId):
        """``gaps_from(resource, agv, 0)``. No planner code calls it; it is
        kept only because ``perfbench/layers.py`` wraps it by name, and goes
        once that tracer wraps ``gaps_from`` instead."""
        return self.gaps_from(resource, agv, 0)


def audit_safety(tg: TimeGraph, occupations) -> SafetyViolation | None:
    """First base-occupation conflict in ``occupations``, or None when clean.

    ``occupations`` yields (agv, resource, start, end) claims. Zero-length
    claims are vacuous. A claim is safe when the claim itself is one gap for
    the AGV on that resource, which is exactly the condition its path search
    relied on: each stored interval it overlaps is held by that AGV alone.
    ``GapTree.is_free`` decides that in one walk over those intervals. An
    inverted claim is never free, so it is reported, never passed.
    """
    trees = tg.trees
    for agv, rid, start, end in occupations:
        if start == end or trees[rid].is_free(agv, start, end):
            continue
        others = set()
        for s, e, ids in trees[rid].intervals():
            if s < end and start < e:
                others |= ids - {agv}
        return SafetyViolation(rid, agv, start, end, frozenset(others))
    return None
