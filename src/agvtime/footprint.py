"""Expanding a time-path into geographic reservations.

While an AGV occupies a resource it must also hold everything within the
safety radius, so each path step fans out over the step resource's linked
set. The naive expansion emits one reservation per linked resource per step,
which duplicates heavily since consecutive steps share most of their
surroundings. The boundary expansion walks the path once, keeping a running
footprint: a step off ``a`` onto ``b`` closes what ``linked[a]`` holds and
``linked[b]`` does not, and opens the reverse difference. Between neighbours
both differences lie in the boundary shells, so per-step work scales with
the shell size instead of the whole linked set. Each transition is the
difference of the two balls, keyed by the resources stepped off and onto; a
zero-length step other than the last is skipped, since the next step starts
at the same tick. Both expansions check each walk once, in the same way, so
they refuse the same malformed walks and produce the same coverage;
``normalise`` puts either output into the canonical merged form. Both emit
the same flat ``Reservation`` tuple, built the same way, by
``tuple.__new__`` (what ``Reservation(...)`` does after a Python-level
``__new__`` frame, at half the cost), so neither pays more per item than the
other and their timings compare the algorithms.

A link set includes its resource: a resource is always part of its own
footprint, so base occupations come out of the expansion too.
"""

from .graph import GeoLinks
from .intervals import AgvId
from .timegraph import Reservation


class PathShapeError(ValueError):
    pass


class WorkCounter:
    """Counts resources handled per step, for work-scaling assertions."""

    __slots__ = ("per_step",)

    def __init__(self):
        self.per_step = []

    def note(self, n: int):
        self.per_step.append(n)


def _checked_steps(steps, linked):
    """The steps as a list, once each is checked: not inverted, starting
    where the previous one ended, on a resource in the previous one's ball.

    Zero-length steps stay in: they reserve nothing, but they carry the
    spatial links of the walk, which an elided pass-through node could break.
    """
    steps = list(steps)
    prev = prev_end = None
    for rid, start, end in steps:
        if start > end:
            raise PathShapeError(f"inverted step [{start}, {end}) on resource {rid}")
        if prev is not None:
            if prev_end != start:
                raise PathShapeError(
                    f"path not contiguous: step on {rid} starts at {start}, previous ended at {prev_end}"
                )
            if rid not in linked[prev]:
                raise PathShapeError(f"path steps between unlinked resources {prev} and {rid}")
        prev, prev_end = rid, end
    return steps


def naive_reservations(steps, links: GeoLinks, agv: AgvId, counter: WorkCounter | None = None):
    """One reservation per step for each member of the step's link set."""
    out = []
    append = out.append
    linked = links.linked
    new = tuple.__new__
    for rid, start, end in _checked_steps(steps, linked):
        if start == end:
            continue
        for p in linked[rid]:
            append(new(Reservation, (p, agv, start, end)))
        if counter is not None:
            counter.note(len(linked[rid]))
    return out


def _transition(links: GeoLinks, a, b):
    """Exits ``linked[a] - linked[b]`` and entries ``linked[b] - linked[a]``
    of a step off ``a`` onto ``b``, memoised in ``links.transitions[a][b]``."""
    La, Lb = links.linked[a], links.linked[b]
    # As tuples the memo takes a third of the memory frozensets would.
    sets = links.transitions.setdefault(a, {})[b] = (tuple(La - Lb), tuple(Lb - La))
    return sets


def boundary_reservations(steps, links: GeoLinks, agv: AgvId, counter: WorkCounter | None = None):
    """Single-sweep expansion tracking footprint entries and exits.

    Covers exactly what the naive expansion covers, already merged per
    resource. The open set always equals the current footprint of the walk;
    each transition applies the exits and entries ``_transition`` memoises
    on ``links``, static link geometry that amortises across paths. A
    zero-length step but the last is skipped, as the next step starts at its
    tick: a run of instants and the step ending it make one transition
    between the balls around the run, and what only an instant's ball holds
    is covered for no tick. So every transition but the first starts a step
    of positive length or ends the path, and a span that one closes is never
    touched by a later entry: no emitted reservation is rewritten.
    """
    chain = _checked_steps(steps, links.linked)
    if not chain:
        return []
    out = []
    append = out.append
    trans = links.transitions
    new = tuple.__new__

    # Every open interval shares the same right end (the current step's
    # end), so open_start maps resource -> start and v_end carries the end.
    prev, s0, v_end = chain[0]
    open_start = dict.fromkeys(links.linked[prev], s0)
    pop = open_start.pop
    if counter is not None:
        counter.note(len(open_start))

    last = len(chain) - 1
    for i in range(1, last + 1):
        rid, s1, e1 = chain[i]
        if s1 == e1 and i < last:
            continue
        try:
            exits, entries = trans[prev][rid]
        except KeyError:
            exits, entries = _transition(links, prev, rid)
        for p in exits:
            s2 = pop(p)
            if s2 != v_end:
                append(new(Reservation, (p, agv, s2, v_end)))
        for b in entries:
            open_start[b] = s1
        prev = rid
        v_end = e1
        if counter is not None:
            counter.note(len(exits) + len(entries) + 2)
    for p, s in open_start.items():
        if s != v_end:
            append(new(Reservation, (p, agv, s, v_end)))
    return out


def normalise(reservations):
    """Canonical form: per (resource, agv), sorted maximal merged intervals."""
    by_key = {}
    for rid, agv, s, e in reservations:
        by_key.setdefault((rid, agv), []).append((s, e))
    out = []
    for (rid, agv) in sorted(by_key):
        spans = sorted(by_key[(rid, agv)])
        merged = [list(spans[0])]
        for s, e in spans[1:]:
            if s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        for s, e in merged:
            out.append(Reservation(rid, agv, s, e))
    return out
