"""Myopic timetable construction: park everyone, then serve demands in batches.

Every committed plan ends with an open ended hold on an anchor, so the fleet's
whole future is always reserved. Committing a new route for an AGV trims that
hold from the route's first tick onward, the tick where ``Timetable`` cuts it
too, and never touches anything earlier, which keeps all previously committed
reservations intact.

Each demand goes to the AGV that is free first. The demands of one horizon
``h`` are shuffled with the run's rng; then each in turn goes to the AGV
whose last committed path frees it soonest, at ``max(h, arrival)``, ties
going to the lower id. This is the task assignment of token passing (Ma,
Li, Kumar and Koenig, AAMAS 2017). A route then seldom starts far in the
future, crossing every hold committed before it, while other AGVs idle.
Against one ``rng.choice`` of AGV per demand it cut the benchmark's mean
makespan at seed 1 from 17,656 to 13,524 ticks on ``long-horizon`` and from
10,217 to 8,536 on ``dense-footprint``, and the labels its searches pushed
on one traced scenario from 51,624 to 38,162 and from 44,352 to 33,279.

Each demand's route ends on the *ready* anchor nearest its dropoff in
travel ticks, ties going to the lower id, on routes that pass no other
anchor: the first anchor whose AGV's gaps from the plan's start tick are
the one gap from that tick to ``INF``, so no search has to wait out another
AGV's hold that ends far in the future. When none is ready, it is the
nearest *open* anchor, whose last gap reaches ``INF``: no other AGV holds it
to ``INF``. Every ready anchor is open, so the routing guarantee, which only
needs an open final anchor, holds either way; with no anchor open the
demand faults. Against one ``rng.choice`` among the ready anchors, this
cut the benchmark's mean makespan at seed 1 from 13,524 to 9,612 ticks on
``long-horizon`` and from 8,536 to 5,923 on ``dense-footprint``, its total
distance from 105,322 to 74,434 and from 59,540 to 42,036 ticks, and the
labels its searches pushed on one traced scenario from 38,162 to 25,564 and
from 33,279 to 19,433.

A node's nearest anchor depends on the graph alone: it names the graph
Voronoi region the node lies in (Erwig, "The graph Voronoi diagram with
applications", Networks 36(3), 2000). A run with demands builds one table
of them, from one multi-source Dijkstra over ``g.into`` before its first
demand, and passes it to every ``choose_anchor`` call; nothing outlives the
run. Most demands' nearest anchor is ready, and ``choose_anchor`` then reads
one gap list and runs no search of its own; only otherwise does it run a
Dijkstra from the dropoff.
"""

from __future__ import annotations

import random
import time
from heapq import heappop, heappush
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .anchoring import blockers, greedy_anchorise, hold, naive_anchorise
from .footprint import boundary_reservations
from .graph import GeoLinks, InvalidParameterError, ResourceGraph
from .intervals import INF, AgvId
from .pathing import (
    NearestTarget,
    SourceSpec,
    Stage,
    Step,
    TimePath,
    check_source,
    manhattan_guide,
    route_corridor,
    time_path,
)
from .timegraph import TimeGraph

PRESETS = (
    "full-zero",
    "full-manhattan",
    "partial-dijkstras",
    "partial-manhattan",
)

ANCHORISERS = ("naive", "greedy")


class StalledAnchorisation(RuntimeError):
    """Anchorisation left ``stalled`` unparked; ``blocked`` maps each to one
    resource another AGV holds for good and that holder, as
    ``anchoring.blockers`` finds them."""

    def __init__(self, stalled, blocked):
        self.stalled = frozenset(stalled)
        self.blocked = dict(blocked)
        why = "; ".join(
            f"AGV {agv} blocked by {name} held by AGV {holder}"
            for agv, (name, holder) in sorted(self.blocked.items())
        )
        super().__init__(f"anchorisation stalled for AGVs {sorted(stalled)}" + (f": {why}" if why else ""))


class NoPathFault(RuntimeError):
    """A demand route failed, which the routing guarantee says cannot happen."""

    def __init__(self, demand_id, agv, preset):
        self.demand_id = demand_id
        self.agv = agv
        self.preset = preset
        super().__init__(
            f"no path for demand {demand_id} (AGV {agv}, preset {preset})"
        )


class Demand(NamedTuple):
    """Visit ``pickup``, then ``dropoff``, on a route starting at tick ``horizon`` or later."""

    id: int
    pickup: int
    dropoff: int
    horizon: int = 0


def demand_node_fault(g: ResourceGraph, node) -> str | None:
    """Why ``node`` cannot be a pickup or dropoff on ``g``, or None if it can."""
    if not 0 <= node < g.num_nodes:
        return "is not a node"
    if node in g.anchors:
        return "is an anchor"
    if node in g.subdivision_nodes:
        return "is a subdivision point"
    return None


def check_plan(
    g: ResourceGraph, placements, demands, preset: str, anchoriser: str, stop_pickup, stop_dropoff
) -> None:
    """Raise InvalidParameterError unless the preset, the anchoriser, the
    stops, the placements and the demands make a plan ``build_timetable``
    can attempt. The one gate for them: ``build_timetable`` and every loaded
    or generated scenario pass it. A Manhattan preset needs the graph's
    ``coords`` and ``unit_weight``; stops are ints >= 0; each placement
    passes ``check_source``; demand fields are ints. True and false are no
    ints here.
    """
    if preset not in PRESETS:
        raise InvalidParameterError(f"unknown preset {preset!r}")
    if "manhattan" in preset and (g.coords is None or g.unit_weight is None):
        raise InvalidParameterError(f"preset {preset} needs graph coords and unit_weight")
    if anchoriser not in ANCHORISERS:
        raise InvalidParameterError(f"unknown anchoriser {anchoriser!r}")
    for which, stop in (("pickup", stop_pickup), ("dropoff", stop_dropoff)):
        if type(stop) is not int or stop < 0:
            raise InvalidParameterError(f"{which} stop must be an integer >= 0, got {stop!r}")
    for spec in placements.values():
        check_source(g, spec)
    if demands and not placements:
        raise InvalidParameterError("demands given but the fleet is empty")
    for d in demands:
        for name in ("id", "pickup", "dropoff", "horizon"):
            value = getattr(d, name)
            if type(value) is not int:
                raise InvalidParameterError(f"demand {name} must be an integer, got {value!r}")
        for node in (d.pickup, d.dropoff):
            fault = demand_node_fault(g, node)
            if fault is not None:
                raise InvalidParameterError(f"demand {d.id}: {node} {fault}")
        if d.horizon < 0:
            raise InvalidParameterError(f"demand {d.id}: negative horizon")
    if len({d.id for d in demands}) != len(demands):
        raise InvalidParameterError("demand ids are not unique")


class Timetable:
    """Each AGV's committed paths, their reservations in ``tg`` and the planning
    time; ``steps`` is each AGV's timeline, anchor holds cut where the next path
    starts. The metrics are taken once, as the timelines are built."""

    __slots__ = ("paths", "tg", "runtime_ms", "steps", "_makespan", "_distance")

    def __init__(self, paths: dict[AgvId, list[TimePath]], tg: TimeGraph, runtime_ms: float = 0.0):
        self.paths = paths
        self.tg = tg
        self.runtime_ms = runtime_ms
        self.steps: dict[AgvId, list[Step]] = {}
        num_nodes = tg.graph.num_nodes
        distance = 0
        for agv, plist in paths.items():
            steps: list[Step] = []
            for p in plist:
                if steps:
                    start, cut = steps[-1].start, p.steps[0].start
                    steps[-1] = Step(steps[-1].resource, start, start if cut == start else cut)
                steps.extend(p.steps)
            self.steps[agv] = steps
            distance += sum(e - s for r, s, e in steps if r >= num_nodes)
        self._makespan = max((plist[-1].arrival for plist in paths.values() if plist), default=0)
        self._distance = distance

    def occupations(self):
        """Yield every AGV's ``(agv, resource, start, end)`` claims, AGVs in
        id order, each AGV's in time order: the rows ``to_json`` writes, in
        the order it writes them. A generator, so the audit walks the
        timeline without a whole-run list of claims beside it."""
        for agv, steps in sorted(self.steps.items()):
            for r, s, e in steps:
                yield agv, r, s, e

    def makespan(self):
        """The latest arrival of any AGV's last path."""
        return self._makespan

    def total_distance(self) -> int:
        """Ticks spent on edges over every AGV's timeline."""
        return self._distance

    def is_anchored(self) -> bool:
        g = self.tg.graph
        for plist in self.paths.values():
            if not plist:
                return False
            last = plist[-1].steps[-1]
            if last.resource not in g.anchors or last.end != INF:
                return False
        return True

    def to_json(self, fp=None) -> str | None:
        """The timetable as ``json.dumps(doc, sort_keys=True, indent=2)``
        would write it, plus a newline, but written directly: ``indent``
        forces CPython's pure-Python encoder, several times slower.

        Without ``fp`` the text is returned. With ``fp``, an open text file,
        the same text is written to it chunk by chunk, one AGV at a time,
        and None is returned: the writer then holds one AGV's text at a
        time, never the whole file. Both read the chunks of ``_chunks``.
        """
        if fp is None:
            return "".join(self._chunks())
        fp.writelines(self._chunks())
        return None

    def _chunks(self):
        """Yield the text of ``to_json``: the head, each AGV's object, then
        the metrics tail.

        Each AGV's rows are joined once into one string, which the generator
        does not keep, and no text is copied by ``+`` or an f-string: at its
        peak the writer holds the formatted rows of one AGV and their join,
        beside whatever the caller keeps of the chunks already yielded.
        Keys come in sorted order; infinite ticks are ``"inf"``. Every start
        is finite, and so is every end but an AGV's last: its steps are
        contiguous. Resource names from ``describe`` are plain ASCII and need
        no escaping; each is made once per call, on first use, so a short
        timetable on a big graph makes no more of them than rows.
        """
        names = _Names(self.tg.graph.describe)
        inf, inf_text = INF, '"inf"'
        yield '{\n  "agvs": ['
        sep = ""
        for agv, steps in sorted(self.steps.items()):
            yield sep
            yield f'\n    {{\n      "id": {agv},\n      "steps": ['
            yield ",".join(
                f'\n        {{\n          "end": {e if e != inf else inf_text},\n'
                f'          "resource": "{names[r]}",\n'
                f'          "start": {s}\n        }}'
                for r, s, e in steps
            )
            yield "\n      ]\n    }" if steps else "]\n    }"
            sep = ","
        yield "\n  ]" if sep else "]"
        yield (
            f',\n  "metrics": {{\n    "makespan": {self.makespan()},\n'
            f'    "total_distance": {self.total_distance()}\n  }}\n}}\n'
        )


class _Names(dict):
    """Resource id -> its ``describe`` name, made on first lookup."""

    def __init__(self, describe):
        super().__init__()
        self.describe = describe

    def __missing__(self, rid):
        name = self[rid] = self.describe(rid)
        return name


def metrics(tt: Timetable) -> dict:
    return {
        "makespan": tt.makespan(),
        "total_distance": tt.total_distance(),
        "runtime_ms": tt.runtime_ms,
    }


def _plan(tg, g, agv, src_node, stages, preset, earliest):
    guide = manhattan_guide(g, stages) if preset == "full-manhattan" else None
    allowed = None
    if preset.startswith("partial-"):
        waypoints = [src_node] + [next(iter(st.targets)) for st in stages]
        leg_guide = "none" if preset == "partial-dijkstras" else "manhattan"
        allowed = route_corridor(g, waypoints, guide=leg_guide)
        if allowed is None:
            return None
    return time_path(
        tg, agv, SourceSpec(src_node), stages, earliest=earliest, guide=guide, allowed=allowed
    )


def choose_anchor(tg, agv, dropoff, start, nearest):
    """The final anchor for ``agv`` of a route through ``dropoff`` that
    starts at tick ``start``: the nearest anchor in travel ticks that is
    ready, else the nearest that is open, else None. With ``gaps`` the AGV's
    gaps on an anchor from ``start``, it is open when ``gaps[-1]`` ends at
    ``INF`` and ready when ``gaps`` is the one gap ``(start, INF)``.

    ``nearest`` is the run's nearest-anchor table, the roots of a
    never-closed ``NearestTarget`` over every anchor: each node's nearest
    anchor, ties going to the lower id, on routes that pass no other anchor,
    None where no anchor is reached. The dropoff's entry is read first and
    returned when it is ready. Only otherwise does a Dijkstra over
    ``g.moves`` run from the dropoff. Nodes pop in ``(ticks, node)`` order,
    so ties go to the lower id and the table's anchor is settled first. An
    anchor is settled but never left, as ``route_corridor``'s legs steer
    around other anchors, and its gaps are read once: the table's anchor's
    list is the one already read."""
    g = tg.graph
    first_pick = nearest[dropoff]
    if first_pick is None:
        return None
    free = ((start, INF),)
    first = tg.gaps_from(first_pick, agv, start)
    if first == free:
        return first_pick
    anchors, moves = g.anchors, g.moves
    dist = [INF] * g.num_nodes
    dist[dropoff] = 0
    heap = [(0, dropoff)]
    nearest_open = None
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        if v in anchors:
            gaps = first if v == first_pick else tg.gaps_from(v, agv, start)
            if gaps == free:
                return v
            if nearest_open is None and gaps and gaps[-1][1] == INF:
                nearest_open = v
            continue
        for _, u, w in moves[v]:
            du = d + w
            if du < dist[u]:
                dist[u] = du
                heappush(heap, (du, u))
    return nearest_open


def build_timetable(
    g: ResourceGraph,
    links: GeoLinks,
    placements: dict[AgvId, SourceSpec],
    demands,
    *,
    preset: str = "full-zero",
    anchoriser: str = "greedy",
    stop_pickup: int = 0,
    stop_dropoff: int = 0,
    seed: int = 0,
) -> Timetable:
    demands = list(demands)
    check_plan(g, placements, demands, preset, anchoriser, stop_pickup, stop_dropoff)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    tg = TimeGraph(g)

    if anchoriser == "naive":
        parked = naive_anchorise(tg, links, placements, seed=seed)
    else:
        parked = greedy_anchorise(tg, links, placements)
    if parked.stalled:
        raise StalledAnchorisation(parked.stalled, blockers(tg, placements, parked.stalled))

    fleet = sorted(placements)
    paths = {agv: [parked.paths[agv]] for agv in fleet}
    nearest = NearestTarget(g, g.anchors).root if demands else None

    horizon = attrgetter("horizon")
    for h, batch in groupby(sorted(demands, key=horizon), horizon):
        batch = list(batch)
        rng.shuffle(batch)
        for d in batch:
            agv = min(fleet, key=lambda a: (max(h, paths[a][-1].arrival), a))
            last = paths[agv][-1]
            held = last.steps[-1].resource
            start = max(h, last.arrival)
            anchor = choose_anchor(tg, agv, d.dropoff, start, nearest)
            stages = [
                Stage({d.pickup}, stop_pickup),
                Stage({d.dropoff}, stop_dropoff),
                Stage({anchor}, INF),
            ]
            p = None if anchor is None else _plan(tg, g, agv, held, stages, preset, start)
            if p is None:
                raise NoPathFault(d.id, agv, preset)
            tg.remove_all(hold(links, agv, held, p.steps[0].start))
            tg.reserve_all(boundary_reservations(p.steps, links, agv))
            paths[agv].append(p)

    return Timetable(paths, tg, (time.perf_counter() - t0) * 1000.0)
