"""Myopic timetable construction: park everyone, then serve demands in batches.

Every committed plan ends with an open ended hold on an anchor, so the fleet's
whole future is always reserved. Planning a new route for an AGV trims that
hold from the departure tick onward and never touches anything earlier, which
keeps all previously committed reservations intact.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from .anchoring import greedy_anchorise, naive_anchorise
from .footprint import boundary_reservations
from .graph import GeoLinks, InvalidParameterError, ResourceGraph
from .intervals import INF, AgvId, Interval, is_finite
from .pathing import (
    SourceSpec,
    Stage,
    Step,
    TimePath,
    manhattan_guide,
    route_corridor,
    time_path,
)
from .timegraph import Reservation, TimeGraph

PRESETS = (
    "full-zero",
    "full-manhattan",
    "partial-dijkstras",
    "partial-manhattan",
)

ANCHORISERS = ("naive", "greedy")


class StalledAnchorisation(RuntimeError):
    def __init__(self, stalled):
        self.stalled = frozenset(stalled)
        super().__init__(f"anchorisation stalled for AGVs {sorted(stalled)}")


class NoPathFault(RuntimeError):
    """A demand route failed, which the routing guarantee says cannot happen."""

    def __init__(self, demand_id, agv, preset):
        self.demand_id = demand_id
        self.agv = agv
        self.preset = preset
        super().__init__(
            f"no path for demand {demand_id} (AGV {agv}, preset {preset})"
        )


@dataclass(frozen=True)
class Demand:
    id: int
    pickup: int
    dropoff: int
    horizon: int = 0


def check_demands(g: ResourceGraph, demands) -> None:
    ids = [d.id for d in demands]
    if len(ids) != len(set(ids)):
        raise InvalidParameterError("demand ids are not unique")
    for d in demands:
        for node in (d.pickup, d.dropoff):
            if not (0 <= node < g.num_nodes):
                raise InvalidParameterError(f"demand {d.id}: {node} is not a node")
            if node in g.anchors:
                raise InvalidParameterError(f"demand {d.id}: {node} is an anchor")
            if node in g.subdivision_nodes:
                raise InvalidParameterError(
                    f"demand {d.id}: {node} is a subdivision point"
                )
        if d.horizon < 0:
            raise InvalidParameterError(f"demand {d.id}: negative horizon")


@dataclass
class Timetable:
    paths: dict[AgvId, list[TimePath]]
    tg: TimeGraph
    runtime_ms: float = 0.0

    def trimmed_steps(self) -> dict[AgvId, list[Step]]:
        """Per AGV, the physical timeline: anchor holds cut at the next departure."""
        out = {}
        for agv, plist in self.paths.items():
            steps: list[Step] = []
            for p in plist:
                if steps:
                    last = steps[-1]
                    cut = p.steps[0].start
                    steps[-1] = Step(last.resource, last.start, cut)
                steps.extend(p.steps)
            out[agv] = steps
        return out

    def occupations(self):
        flat = []
        for agv, steps in sorted(self.trimmed_steps().items()):
            flat.extend((agv, s.resource, s.start, s.end) for s in steps)
        return flat

    def makespan(self):
        arrivals = [plist[-1].arrival for plist in self.paths.values() if plist]
        return max(arrivals, default=0)

    def total_distance(self):
        g = self.tg.graph
        total = 0
        for steps in self.trimmed_steps().values():
            for s in steps:
                if not g.is_node(s.resource):
                    total += s.end - s.start
        return total

    def is_anchored(self) -> bool:
        g = self.tg.graph
        for plist in self.paths.values():
            if not plist:
                return False
            last = plist[-1].steps[-1]
            if last.resource not in g.anchors or last.end != INF:
                return False
        return True

    def to_json(self) -> str:
        g = self.tg.graph

        def tick(v):
            return int(v) if is_finite(v) else "inf"

        doc = {
            "agvs": [
                {
                    "id": agv,
                    "steps": [
                        {
                            "resource": g.describe(s.resource),
                            "start": tick(s.start),
                            "end": tick(s.end),
                        }
                        for s in steps
                    ],
                }
                for agv, steps in sorted(self.trimmed_steps().items())
            ],
            "metrics": {
                "makespan": tick(self.makespan()),
                "total_distance": self.total_distance(),
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    if preset not in PRESETS:
        raise InvalidParameterError(f"unknown preset {preset!r}")
    if anchoriser not in ANCHORISERS:
        raise InvalidParameterError(f"unknown anchoriser {anchoriser!r}")
    demands = list(demands)
    if demands and not placements:
        raise InvalidParameterError("demands given but the fleet is empty")
    check_demands(g, demands)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    tg = TimeGraph(g)

    if anchoriser == "naive":
        parked = naive_anchorise(tg, links, placements, seed=seed)
    else:
        parked = greedy_anchorise(tg, links, placements)
    if parked.stalled:
        raise StalledAnchorisation(parked.stalled)

    paths = {agv: [parked.paths[agv]] for agv in sorted(placements)}
    fleet = sorted(placements)

    batch_starts = sorted({d.horizon for d in demands})
    for h in batch_starts:
        batch = [d for d in demands if d.horizon == h]
        assigned = {d.id: rng.choice(fleet) for d in batch}
        rng.shuffle(batch)
        for d in batch:
            agv = assigned[d.id]
            open_anchors = sorted(
                a
                for a in g.anchors
                if not (tg.holders_to_infinity(a) - {agv})
            )
            anchor = rng.choice(open_anchors)
            stages = [
                Stage({d.pickup}, stop_pickup),
                Stage({d.dropoff}, stop_dropoff),
                Stage({anchor}, INF),
            ]
            last = paths[agv][-1]
            held = last.steps[-1].resource
            p = _plan(tg, g, agv, held, stages, preset, max(h, last.arrival))
            if p is None:
                raise NoPathFault(d.id, agv, preset)
            dep = p.steps[0].end
            tg.remove_all(
                Reservation(r, agv, Interval(dep, INF)) for r in sorted(links.linked[held])
            )
            tg.reserve_all(boundary_reservations(p.steps, links, agv))
            paths[agv].append(p)

    tt = Timetable(paths, tg)
    tt.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return tt
