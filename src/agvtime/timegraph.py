"""Reservations across a whole graph: one gap tree per resource.

The audit re-derives safety from scratch: every occupation an AGV claims must
come back as a single covering gap when that AGV queries the resource, which
is exactly the condition its path search relied on. Footprint overlaps
between different AGVs are legal; only someone else's reservation crossing a
base occupation is a conflict.
"""

from dataclasses import dataclass

from .graph import ResourceGraph
from .intervals import AgvId, GapTree, Interval


@dataclass(frozen=True, slots=True)
class Reservation:
    resource: int
    agv: AgvId
    ivl: Interval


@dataclass(frozen=True, slots=True)
class SafetyViolation:
    resource: int
    agv: AgvId
    ivl: Interval
    others: frozenset[AgvId]

    def __str__(self):
        who = ",".join(str(a) for a in sorted(self.others))
        return f"agv {self.agv} occupation {self.ivl} on resource {self.resource} conflicts with agv(s) {who}"


class TimeGraph:
    """Mutable reservation state for every resource of one graph."""

    def __init__(self, g: ResourceGraph):
        self.graph = g
        self.trees = [GapTree() for _ in range(g.num_resources)]

    def reserve(self, resource: int, agv: AgvId, ivl: Interval) -> None:
        self.trees[resource].insert(agv, ivl)

    def reserve_all(self, reservations) -> None:
        for r in reservations:
            self.trees[r.resource].insert(r.agv, r.ivl)

    def remove_all(self, reservations) -> None:
        for r in reservations:
            self.trees[r.resource].remove(r.agv, r.ivl)

    def gap_query(self, resource: int, agv: AgvId, window: Interval):
        return self.trees[resource].gap_query(agv, window)

    def gaps_from(self, resource: int, agv: AgvId, since):
        """agv's gaps on resource over [since, INF) as (start, end) tuples,
        the first clipped to start at ``since``. The path search's only read:
        it calls this once per (resource, agv) pair with its earliest tick
        and keeps the result for the rest of the search."""
        return self.trees[resource].gaps_from(agv, since)

    def gaps_full(self, resource: int, agv: AgvId):
        """``gaps_from(resource, agv, 0)``. No planner code calls it; it is
        kept only because ``perfbench/layers.py`` wraps it by name, and goes
        once that tracer wraps ``gaps_from`` instead."""
        return self.gaps_from(resource, agv, 0)

    def holders_to_infinity(self, resource: int) -> frozenset[AgvId]:
        return self.trees[resource].holders_to_infinity()


def audit_safety(tg: TimeGraph, occupations) -> SafetyViolation | None:
    """First base-occupation conflict in ``occupations``, or None when clean.

    ``occupations`` yields (agv, resource, start, end) claims. Zero-length
    claims are vacuous. A claim is safe when the AGV's own gap query on that
    resource returns the claim itself: the gaps are clipped to the claim.
    """
    for agv, rid, start, end in occupations:
        if start == end:
            continue
        ivl = Interval(start, end)
        if tg.gap_query(rid, agv, ivl) == [ivl]:
            continue
        others = set()
        for s, e, ids in tg.trees[rid].intervals():
            if s < ivl.end and ivl.start < e:
                others |= ids - {agv}
        return SafetyViolation(rid, agv, ivl, frozenset(others))
    return None
