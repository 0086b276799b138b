"""Expanding a time-path into geographic reservations.

While an AGV occupies a resource it must also hold everything within the
safety radius, so each path step fans out over the step resource's linked
set. The naive expansion emits one reservation per linked resource per step,
which duplicates heavily since consecutive steps share most of their
surroundings. The boundary expansion walks the path once, keeping a running
footprint: a step off ``a`` onto ``b`` closes what ``linked[a]`` holds and
``linked[b]`` does not, and opens the reverse difference. Between neighbours
both differences lie in the boundary shells, so per-step work scales with
the shell size instead of the whole linked set. A run of zero-length steps
fuses with the step after it into one transition, the difference of the
balls at its two ends. Both expansions produce the same coverage;
``normalise`` puts either output into the canonical merged form. Both emit
the same flat ``Reservation`` tuple, built the same way, by
``tuple.__new__`` (what ``Reservation(...)`` does after a Python-level
``__new__`` frame, at half the cost), so neither pays more per item than the
other and their timings compare the algorithms.

A link set includes its resource: a resource is always part of its own
footprint, so base occupations come out of the expansion too.
"""

from dataclasses import dataclass, field

from .graph import GeoLinks
from .intervals import AgvId
from .timegraph import Reservation


class PathShapeError(ValueError):
    pass


@dataclass(slots=True)
class WorkCounter:
    """Counts resources handled per step, for work-scaling assertions."""

    per_step: list = field(default_factory=list)

    def note(self, n: int):
        self.per_step.append(n)


def _checked_steps(steps):
    """Validate the chain is contiguous and non-inverted; empties stay in.

    Zero-length steps reserve nothing, but they carry the spatial links of
    the walk: the boundary sweep needs consecutive path resources to be
    linked, which an elided pass-through node could break.
    """
    out = []
    prev_end = None
    for step in steps:
        rid, start, end = step
        if start > end:
            raise PathShapeError(f"inverted step [{start}, {end}) on resource {rid}")
        if prev_end is not None and prev_end != start:
            raise PathShapeError(
                f"path not contiguous: step on {rid} starts at {start}, previous ended at {prev_end}"
            )
        prev_end = end
        out.append(step)
    return out


def naive_reservations(steps, links: GeoLinks, agv: AgvId, counter: WorkCounter | None = None):
    """One reservation per step for each member of the step's link set."""
    out = []
    append = out.append
    linked = links.linked
    new = tuple.__new__
    for rid, start, end in _checked_steps(steps):
        if start == end:
            continue
        for p in linked[rid]:
            append(new(Reservation, (p, agv, start, end)))
        if counter is not None:
            counter.note(len(linked[rid]))
    return out


def _transition(links: GeoLinks, a, key):
    """Exit and entry sets for a step off ``a``, memoised on ``links``.

    ``key`` is the resource ``b`` stepped onto, or the tuple of resources a
    fused run of instants spans, ending on ``b``; int and tuple keys share
    a's row. Either way the exits are ``linked[a] - linked[b]`` and the
    entries ``linked[b] - linked[a]``: a resource in both balls stays covered
    through the instants, and one that only an instant's ball holds is
    covered for no tick.
    """
    row = links.transitions.setdefault(a, {})
    sets = row.get(key)
    if sets is None:
        linked = links.linked
        path = key if type(key) is tuple else (key,)
        for u, v in zip((a, *path), path):
            if v not in linked[u]:
                raise PathShapeError(f"path steps between unlinked resources {u} and {v}")
        La, Lb = linked[a], linked[path[-1]]
        # As tuples the memo takes a third of the memory frozensets would.
        sets = row[key] = (tuple(La - Lb), tuple(Lb - La))
    return sets


def boundary_reservations(steps, links: GeoLinks, agv: AgvId, counter: WorkCounter | None = None):
    """Single-sweep expansion tracking footprint entries and exits.

    Covers exactly what the naive expansion covers, already merged per
    resource. The open set always equals the current footprint of the walk,
    and each transition touches only the exact entry and exit sets, looked up
    from a cache on ``links`` keyed by the resources stepped through: the
    sets are static link geometry, so they amortise across paths. A run of
    zero-length steps fuses with the step after it, or with the path's end,
    into a single transition. So every transition but the first starts a
    step of positive length or ends the path, and a span that one closes is
    never touched by a later entry: no emitted reservation is rewritten.
    """
    chain = _checked_steps(steps)
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

    i, n = 1, len(chain)
    while i < n:
        rid, s1, e1 = chain[i]
        key = rid
        i += 1
        while s1 == e1 and i < n:  # fuse the instant with the step after it
            rid, _, e1 = chain[i]
            i += 1
            key = (*key, rid) if type(key) is tuple else (key, rid)
        try:
            exits, entries = trans[prev][key]
        except KeyError:
            exits, entries = _transition(links, prev, key)
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
