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

A label is its own heap entry, a plain tuple
``(f, -stage, -entry, node, seq, agv, wstart, wend, parent, via)``: ``f`` is
the entry tick plus the guide's bound on the ticks still to go, ``wstart`` and
``wend`` bound its gap window, ``parent`` is the entry it grew from and
``via`` the edge crossing into it. ``seq`` numbers pushes in order; no two
queued entries agree up to it, so every comparison of two entries ends on it
at the latest: none ever reaches ``parent`` or the fields after ``seq``.

Labels leave the heap in the order of ``(f, -stage, -entry, node, seq)``.
Among equal ``f`` the later stage goes first (a finished route first of all),
then the deepest label, the one with the latest entry tick. On a plateau of
equal ``f`` the search so runs down one route instead of across all of them
(Asai & Fukunaga, "Tie-Breaking Strategies for Cost-Optimal Best First
Search", JAIR 58, 2017). Both guides are consistent: ``f`` never falls from a
label to its successors, so the first finished label to leave the heap has the
least ``f`` of all, and a finished label's ``f`` is its arrival. Tie order
only picks among paths of equal arrival. Under the zero guide ``f`` is the
entry tick itself, so ``-entry`` breaks no tie: labels leave in entry order,
then later stage, then lower node id, then push order.

A move that raises the guide is deferred, as in partial-expansion A*
(Yoshizumi, Miura & Ishida, "A* with Partial Expansion for Large Branching
Factor Problems", AAAI 2000). When a label of guide value ``f - entry`` pops,
a move of ``w`` ticks to a ``dest`` whose guide value is higher reads no
windows and pushes no label. It leaves one stand-in on a side heap, keyed
``entry + w + guide(dest)``, at most the ``f`` of any label the move can give.
The search expands that one move, reading its windows then, once the stand-in
sorts before the least label; a stand-in goes before every label of equal
``f`` and stage. Under the Manhattan guide these are the moves away from the
target, and most of their labels would lie above the arrival and never pop.
The labels pop in the order, and with the parents, of the eager search that
expands every move at once:

- a label the eager search pops before a given label is either queued by
  then or behind a stand-in that sorts before that label, so it comes out in
  time;
- a stand-in takes the push number its move's labels would have taken and
  gives it to each of them, so push numbers keep their eager order and break
  the same ties among racers (one stand-in's labels all differ in entry);
- a late label can meet a queued label with the same dominance key and
  entry. It is queued beside it, not dropped: the lower push number, the one
  the eager search pushed first and kept, pops first, and the other pops
  stale.

A label of guide value 0 defers nothing, so under the zero guide (``full-zero``
and ``partial-*`` demand searches, a bounded race's second pass) the search
does the eager search's work: the guide runs once per pushed label, after its
dominance test. A label of positive guide value calls the guide once per move
it examines and reuses the value for each label the move pushes; expanding a
stand-in calls it once more.

A race may also carry a bound: a consistent guide that never orders the
search, only cuts it, and never exceeds the ticks still to go on any route
that can finish. Anchorisation passes the exact distance to the nearest
*open* anchor (``NearestTarget``): an anchor another AGV holds to the end of
time ends no route, since the final stage's infinite stop needs a window to
the end of time, so closing it keeps the bound below every finishing route.
The race then runs twice over one gap memo and one root label per racer, so
each (resource, AGV) gap list is still read once. The first pass, ordered by
the bound, finds the least arrival f*. The second pass is the usual search,
ordered by the usual guide, that drops every label whose ``entry + bound``
exceeds f*, and skips a move before reading its windows when
``entry + w + bound(dest)`` already does. It returns the label the unbounded
search would:

- the bound is consistent, so ``entry + bound`` never falls from a label to
  its children: every label on the returned chain, which ends at f*, is kept,
  and every descendant of a dropped label is dropped too;
- labels with one dominance key share their node and stage, so their bound:
  a label that dominates a kept one enters no later and is kept as well, and
  each kept label meets the same dominance tests in both searches;
- so the second pass pops the unbounded search's kept labels in the same
  order, pushes their kept children in the same order (push order breaks the
  last ties), and returns the same label with the same parents.

Racers are admitted by their bound, so a race costs the racers that can still
win, not the whole fleet. Before any gap read each racer's root has a known
first-pass ``f``, its *low*: ``earliest + bound(resource, 0)`` from a node,
and ``earliest + weight - elapsed + bound(head, 0)`` from partway along an
edge. The first pass takes racers by low, source order on ties, and builds
and pushes a root (reading its start gaps) only once its low is at most the
least ``f`` on the heap, or the heap is empty.
The second pass pushes, in source order, just the roots whose low is at most
f*. Both keep every result:

- dominance keys carry the AGV, so each racer's labels meet only their own
  dominance tests, and the bound is consistent, so every label grown from a
  root has ``f`` at least its low: a racer still waiting when the first pass
  pops a finished label at f* has a low above f* and cannot finish sooner,
  so the first pass finds the same f*;
- every racer with low at most f* has been admitted by then, so its root is
  built; the second pass pushes exactly the roots the cut keeps (a root's
  ``entry + bound`` is its low), in the same order, and a cut root takes no
  push number, so every label, every tie and the returned path stay the same.

A race's set-up is one sort of its entrants by low; it builds a gap memo and
a root only for a racer it admits. A caller that races the same AGVs round
after round, as greedy anchorisation does, hands each race the entrants
``(low, agv, spec, head)`` the last one was given, less the winner: each
start is checked once, and a low is computed again only when the bound at
the node it reads has changed.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
from typing import Callable, NamedTuple

from .graph import InvalidParameterError, ResourceGraph, spatial_path
from .intervals import INF, AgvId
from .timegraph import TimeGraph


class Stage:
    """One errand: reach any target node, then hold still for ``stop`` ticks."""

    __slots__ = ("targets", "stop")

    def __init__(self, targets, stop):
        self.targets = frozenset(targets)
        self.stop = stop


class SourceSpec(NamedTuple):
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


class TimePath(NamedTuple):
    agv: AgvId
    steps: tuple[Step, ...]
    arrival: int

    def occupations(self):
        """Base claims (agv, resource, start, end) for audits and commits."""
        return [(self.agv, s.resource, s.start, s.end) for s in self.steps]


def check_stages(stages) -> None:
    """Raise InvalidParameterError unless each stage has targets and a stop
    that is an int >= 0 or INF (hold forever), INF only on the last;
    ``entry + INF`` is INF, so nothing past this check treats an infinite
    stop apart."""
    if not stages:
        raise InvalidParameterError("route needs at least one stage")
    last = len(stages) - 1
    for i, st in enumerate(stages):
        if not st.targets:
            raise InvalidParameterError(f"stage {i} has no targets")
        if type(st.stop) is not int and st.stop != INF:
            raise InvalidParameterError(f"stage {i} stop must be an integer or INF, got {st.stop!r}")
        if st.stop < 0:
            raise InvalidParameterError(f"stage {i} stop is negative")
        if st.stop == INF and i != last:
            raise InvalidParameterError("infinite stop before the final stage")


def check_source(g: ResourceGraph, spec: SourceSpec) -> int | None:
    """Head node of an edge source, None for a node source; raises
    InvalidParameterError when ``spec`` is no position on ``g``."""
    for name in ("resource", "elapsed"):
        value = getattr(spec, name)
        if type(value) is not int:
            raise InvalidParameterError(f"source {name} must be an integer, got {value!r}")
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

    if all(len(tc) == 1 for tc in tcoords):  # every scheduling route: no min loop
        one = [tc[0] for tc in tcoords]

        def h(node, stage):
            if stage >= K:
                return 0.0
            vx, vy = coords[node]
            tx, ty = one[stage]
            return unit * (abs(vx - tx) + abs(vy - ty)) + suffix[stage]

        return h

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


class NearestTarget:
    """Travel ticks from each node to the nearest *open* target, kept exact
    as targets close.

    One multi-source Dijkstra over ``g.into``, the moves reversed; a node
    that reaches no open target gets INF. Each node records the target its
    shortest path ends on, its root, and each open target lists the nodes
    rooted at it, its members: the lists partition the nodes of finite
    distance. ``close`` resets only the members of the closed targets, drops
    their lists, seeds the reset nodes from their other successors and
    reruns Dijkstra over them: closing only raises distances, so a node
    rooted at an open target keeps its exact distance, and its whole path,
    which shares that root. So a close costs the nodes it resets, not a scan
    of every node.

    ``open`` holds the targets still open. ``bound`` is the guide: the
    distance on the first stage, 0 from the second on. Consistent after
    every ``close``: 0 on every open target, ``h(u) <= w + h(v)`` on every
    move.

    ``root[v]`` is v's root, None at INF. Before any ``close`` it is the
    target nearest v, ties going to the lower id, on routes that pass no
    other target: every target is seeded at 0, so none is ever reached
    through another, and a node pops its least ``(ticks, node, root)``
    entry after every successor that offers that distance has pushed its
    own root.
    """

    def __init__(self, g: ResourceGraph, targets):
        self._moves, self._into = g.moves, g.into
        self.open = set(targets)
        dist = self._dist = [INF] * g.num_nodes
        self.root = [None] * g.num_nodes
        self._members = {t: [] for t in self.open}
        self._settle([(0, t, t) for t in sorted(self.open)])
        self.bound: GuideFn = lambda node, stage: dist[node] if stage == 0 else 0

    def _settle(self, heap):
        """Dijkstra from ``heap``'s (ticks, node, root) seeds; a node keeps
        its first, least, pop and joins its root's members."""
        dist, root, into, members = self._dist, self.root, self._into, self._members
        heapq.heapify(heap)
        while heap:
            d, v, r = heapq.heappop(heap)
            if dist[v] <= d:
                continue
            dist[v], root[v] = d, r
            members[r].append(v)
            for _, u, w in into[v]:
                if d + w < dist[u]:
                    heapq.heappush(heap, (d + w, u, r))

    def close(self, resources) -> list[int]:
        """Stop counting every open target among ``resources`` as one.

        Returns the nodes it reset, the members of the targets it closed:
        those, and only those, may now have a longer distance. Every other
        node keeps its exact distance, so a caller that keeps values read
        off ``bound`` refreshes just the ones that read a returned node.
        """
        shut = self.open.intersection(resources)
        if not shut:
            return []
        self.open -= shut
        dist, root = self._dist, self.root
        reset = [v for t in shut for v in self._members.pop(t)]
        for v in reset:
            dist[v], root[v] = INF, None
        seeds = []
        for u in reset:
            for _, v, w in self._moves[u]:
                if dist[v] < INF:  # rooted at an open target, so exact
                    seeds.append((dist[v] + w, u, root[v]))
        self._settle(seeds)
        return reset


def _source_label(tg: TimeGraph, memo: dict, agv: AgvId, spec: SourceSpec, head, earliest: int):
    """Root label (node, window start, window end, entry, via) for one AGV,
    where ``head`` is ``check_source``'s and ``via`` is the rest of its start
    edge's crossing when it starts mid-edge; None when blocked."""
    rid = spec.resource
    windows = memo[rid] = tg.gaps_from(rid, agv, earliest)
    if not windows or windows[0][0] > earliest:
        return None
    if head is None:
        return (rid, *windows[0], earliest, None)
    # The rest of the crossing, [earliest, tau), must lie in one window.
    tau = earliest + (tg.graph.edge_at(rid).weight - spec.elapsed)
    if windows[0][1] < tau:
        return None
    memo[head] = tg.gaps_from(head, agv, earliest)
    for ws, we in memo[head]:
        if ws <= tau < we:
            return (head, ws, we, tau, (rid, earliest, tau))
    return None


def _search(
    tg: TimeGraph, racers, roots, memos, stages, guide: GuideFn, earliest: int, allowed, bound=None, limit=INF
):
    """Best-first scan over gap windows; first finished label is optimal.

    ``racers`` lists (admit, agv, spec, head), ``head`` being
    ``check_source``'s; ``roots`` holds each AGV's root label, or None when
    blocked, once built, and ``memos`` its gap memo, made with the root. A
    racer's root is built (if not yet in ``roots``) and pushed, in list
    order, once its ``admit`` is at most the least ``f`` on the heap or the
    heap is empty; an ``admit`` of -INF pushes it before the first pop.
    Returns the done label, or None when no AGV can finish the route. A
    label is its own heap entry
    ``(f, -stage, -entry, node, seq, agv, wstart, wend, parent, via)``, where
    ``f`` is ``entry + guide``, ``parent`` is the popped entry it grew from
    and ``via`` the (edge rid, depart, arrive) crossing into it, or None.
    Equal-f ties go to the later stage, then the deeper label. A consistent
    guide keeps the first finished label's arrival minimal under any tie
    order, and under the zero guide the key is plain entry order (see the
    module docstring). With a ``bound``, labels whose ``entry + bound``
    exceeds ``limit`` are dropped.

    A move that raises the guide above ``f - entry`` leaves the stand-in
    ``(entry + w + guide(dest), -stage, -INF, seq, label, edge rid, dest,
    w)`` on ``side``; -INF sorts it before every label of its ``f`` and
    stage. Once it sorts before the least label the search expands its one
    move, reading the guide at ``dest`` again, numbering the labels ``seq``
    and queueing one that ties a queued label's entry beside it, so they pop
    as the eager search's do (see the module docstring). The guide runs once
    per pushed label out of a label of guide value 0, and once per examined
    move otherwise.
    """
    K = len(stages)
    moves = tg.graph.moves
    gaps_from = tg.gaps_from
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = []
    side = []  # stand-ins of deferred moves
    seq = itertools.count()
    best = {}
    bounded = bound is not None  # a plain local: push() closes over bound

    def push(agv, node, wstart, wend, entry, stage, parent, via):
        if bound is not None and entry + bound(node, stage) > limit:
            return
        # Dominance first: most candidate labels lose to one already queued,
        # so the guide only runs for a label that is kept.
        key = (agv, node, wstart, stage)
        old = best.get(key)
        if old is not None and old <= entry:
            return
        best[key] = entry
        heappush(heap, (entry + guide(node, stage), -stage, -entry, node, next(seq), agv, wstart, wend, parent, via))

    admitted, waiting = 0, len(racers)
    while True:
        while admitted < waiting and (not heap or racers[admitted][0] <= heap[0][0]):
            _, agv, spec, head = racers[admitted]
            admitted += 1
            if agv not in roots:
                memos[agv] = memo = {}
                roots[agv] = _source_label(tg, memo, agv, spec, head, earliest)
            root = roots[agv]
            if root is not None and (allowed is None or root[0] in allowed):
                node, ws, we, entry, via = root
                push(agv, node, ws, we, entry, 0, None, via)
        if side and (not heap or side[0] < heap[0]):
            # A deferred move's key is reached: expand that move alone, its
            # labels numbered as the stand-in.
            _, _, _, rank, lab, erid, dest, w = heappop(side)
            _, stage, entry, _, _, agv, _, wend, _, _ = lab
            stage, entry = -stage, -entry
            todo = ((erid, dest, w),)
            rise = INF  # the guide is read again and defers nothing
            newest = False
            ranks = itertools.repeat(rank)
        else:
            if not heap:
                return None
            lab = heappop(heap)
            f, stage, entry, node, _, agv, wstart, wend, _, _ = lab
            stage, entry = -stage, -entry
            key = (agv, node, wstart, stage)
            if best.get(key) != entry:
                continue
            best[key] = -1  # closed; real entries are never negative
            if stage == K:
                return lab
            st = stages[stage]
            # An infinite stop, only ever the last, fits only a window to INF.
            if node in st.targets and entry + st.stop <= wend:
                if stage == K - 1:
                    push(agv, node, wstart, wend, entry, K, lab, None)
                else:
                    push(agv, node, wstart, wend, entry + st.stop, stage + 1, lab, None)
            todo = moves[node]
            rise = f - entry  # the guide's value here; a move above it waits
            newest = True  # numbered after every queued label, so a tie loses
            ranks = seq
        memo = memos[agv]
        last = wend  # latest departure worth a label; a bound lowers it per move
        for erid, dest, w in todo:
            if allowed is not None and (erid not in allowed or dest not in allowed):
                continue
            if bounded:
                last = limit - w - bound(dest, stage)
                if last < entry:
                    continue  # before the windows are read
                if last > wend:
                    last = wend
            if rise:
                hd = guide(dest, stage)
                if hd > rise:
                    heappush(side, (entry + w + hd, -stage, -INF, next(seq), lab, erid, dest, w))
                    continue
            edge_windows = memo.get(erid)
            if edge_windows is None:
                edge_windows = memo[erid] = gaps_from(erid, agv, earliest)
            dest_windows = memo.get(dest)
            if dest_windows is None:
                dest_windows = memo[dest] = gaps_from(dest, agv, earliest)
            reach = entry + w
            for es, ee in edge_windows:
                if es > last:
                    break
                if ee < reach or ee - es < w:
                    continue
                first = es if es > entry else entry  # earliest departure in this edge window
                for ds, de in dest_windows:
                    if ds - w > last or ds > ee:
                        break
                    if de <= reach:
                        continue
                    dep = ds - w if ds - w > first else first
                    arr = dep + w
                    if dep > last or arr > ee or arr >= de:
                        continue
                    # push(), inlined: this is the search's hot path.
                    key = (agv, dest, ds, stage)
                    old = best.get(key)
                    if old is not None and old <= arr and (newest or old != arr):
                        continue
                    best[key] = arr
                    f = arr + (hd if rise else guide(dest, stage))
                    heappush(heap, (f, -stage, -arr, dest, next(ranks), agv, ds, de, lab, (erid, dep, arr)))


def _emit(done, final_stop) -> tuple[Step, ...]:
    """Fold the label chain into contiguous steps, merging same-node holds.

    Steps are built by ``tuple.__new__``, which is what ``Step(...)`` does
    after a Python-level ``__new__`` frame: half the cost per step.
    """
    chain = []
    lab = done
    while lab is not None:
        chain.append(lab)
        lab = lab[8]  # parent
    chain.reverse()

    steps = []
    append = steps.append
    new = tuple.__new__
    hold_start = -chain[0][2]  # the root's entry
    for lab in chain:
        via = lab[9]
        if via is None:
            continue  # a node source, a stage completion or the finishing marker
        erid, dep, arr = via
        if dep == hold_start:  # no wait: keep one tick object, not a fresh equal int
            dep = hold_start
        if lab[8] is not None:  # a root's via is the rest of its start edge
            append(new(Step, (lab[8][3], hold_start, dep)))
        append(new(Step, (erid, dep, arr)))
        hold_start = arr
    append(new(Step, (done[3], hold_start, -done[2] + final_stop)))
    return tuple(steps)


def entrant(
    g: ResourceGraph, agv: AgvId, spec: SourceSpec, head: int | None, bound: GuideFn | None, earliest: int = 0
):
    """A race entrant ``(low, agv, spec, head)``, ``head`` being
    ``check_source``'s. ``low`` is its root's ``f`` in a bounded race's first
    pass, known before any gap read: ``bound`` read at ``spec.resource`` from
    a node, at ``head`` from partway along an edge. Without a bound it is
    -INF, and every root goes in at once."""
    if bound is None:
        low = -INF
    elif head is None:
        low = earliest + bound(spec.resource, 0)
    else:
        low = earliest + (g.edge_at(spec.resource).weight - spec.elapsed) + bound(head, 0)
    return (low, agv, spec, head)


def time_path(
    tg: TimeGraph,
    agv: AgvId,
    source: SourceSpec,
    stages,
    *,
    earliest: int = 0,
    guide: GuideFn | None = None,
    allowed: frozenset[int] | None = None,
    bound: GuideFn | None = None,
) -> TimePath | None:
    """Earliest-arrival path for one AGV through its current reservations."""
    return multi_source_time_path(
        tg, [(agv, source)], stages, earliest=earliest, guide=guide, allowed=allowed, bound=bound
    )


def multi_source_time_path(
    tg: TimeGraph,
    sources,
    stages,
    *,
    earliest: int = 0,
    guide: GuideFn | None = None,
    allowed: frozenset[int] | None = None,
    bound: GuideFn | None = None,
) -> TimePath | None:
    """Race several AGVs over one route; the soonest finisher's path wins.

    ``sources`` lists ``(agv, spec)`` pairs, each checked here, or entrants
    that ``entrant`` built for this ``bound`` and ``earliest``, taken as
    they are. ``bound``, a consistent guide, only cuts the search: the
    result is the one the race returns without it (see the module
    docstring).
    """
    check_stages(stages)
    g = tg.graph
    if guide is None:
        guide = zero_guide(g, stages)
    memos = {}  # agv -> {resource: gap windows from earliest}, made on admission
    roots = {}  # agv -> root label or None, built on admission
    racers = []
    for source in sources:
        if len(source) == 2:
            agv, spec = source
            source = entrant(g, agv, spec, check_source(g, spec), bound, earliest)
        racers.append(source)
    if bound is None:
        done = _search(tg, racers, roots, memos, stages, guide, earliest, allowed)
    else:
        first = sorted(racers, key=itemgetter(0))  # stable: source order on ties
        done = _search(tg, first, roots, memos, stages, bound, earliest, allowed)
        if done is not None:
            best = -done[2]
            kept = [(-INF, *r[1:]) for r in racers if r[0] <= best]
            done = _search(tg, kept, roots, memos, stages, guide, earliest, allowed, bound, best)
    if done is None:
        return None
    return TimePath(done[5], _emit(done, stages[-1].stop), -done[2])


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
