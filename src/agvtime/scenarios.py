"""Scenario files: a complete experiment in one JSON document.

A scenario pins the layout (a grid recipe or an explicit graph), the fleet
placement, the demand list, and every knob the pipeline reads. Generation is
fully seeded so a scenario file can always be recreated byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .graph import (
    Edge,
    GeoLinks,
    InvalidParameterError,
    ResourceGraph,
    build_adjacency_links,
    build_grid,
    subdivide,
    validate,
)
from .pathing import SourceSpec
from .scheduling import ANCHORISERS, PRESETS, Demand, check_demands


@dataclass(frozen=True)
class Scenario:
    graph: dict
    placements: tuple
    demands: tuple
    seed: int = 0
    preset: str = "full-zero"
    anchoriser: str = "greedy"
    subdivisions: int = 1
    link_radius: int = 1
    stop_pickup: int = 0
    stop_dropoff: int = 0


def _graph_from_spec(spec: dict) -> ResourceGraph:
    kind = spec.get("type")
    if kind == "grid":
        return build_grid(spec["n"], spec["weight"])
    if kind == "explicit":
        edges = [
            Edge(e[0], e[1], e[2], bool(e[3]) if len(e) > 3 else False)
            for e in spec["edges"]
        ]
        coords = spec.get("coords")
        return ResourceGraph(
            spec["num_nodes"],
            edges,
            frozenset(spec["anchors"]),
            coords=[tuple(c) for c in coords] if coords else None,
            unit_weight=spec.get("unit_weight"),
        )
    raise InvalidParameterError(f"unknown graph spec type {kind!r}")


def materialise(sc: Scenario):
    """Build the runnable pieces: subdivided graph, links, placements, demands."""
    base = _graph_from_spec(sc.graph)
    if sc.subdivisions < 1:
        raise InvalidParameterError("subdivisions must be at least 1")
    if sc.link_radius < 1:
        raise InvalidParameterError("link radius must be at least 1")
    g = subdivide(base, sc.subdivisions)
    links = build_adjacency_links(g, sc.link_radius)
    placements = {}
    for p in sc.placements:
        agv = p["agv"]
        if agv in placements:
            raise InvalidParameterError(f"duplicate placement for AGV {agv}")
        placements[agv] = SourceSpec(
            p["resource"], p.get("elapsed", 0), p.get("toward")
        )
    demands = tuple(
        Demand(d["id"], d["pickup"], d["dropoff"], d.get("horizon", 0))
        for d in sc.demands
    )
    return g, links, placements, demands


def validate_scenario(sc: Scenario):
    """Violation or error text if the scenario is unusable, else None."""
    try:
        for name in ("stop_pickup", "stop_dropoff"):
            stop = getattr(sc, name)
            # bool is an int subclass, but true/false is no tick count
            if type(stop) is not int or stop < 0:
                raise InvalidParameterError(f"{name} must be a tick count >= 0, got {stop!r}")
        g, links, placements, demands = materialise(sc)
        check_demands(g, demands)
        if sc.preset not in PRESETS:
            raise InvalidParameterError(f"unknown preset {sc.preset!r}")
        if sc.anchoriser not in ANCHORISERS:
            raise InvalidParameterError(f"unknown anchoriser {sc.anchoriser!r}")
        seen = set()
        for spec in placements.values():
            if not 0 <= spec.resource < g.num_resources:
                raise InvalidParameterError("placement off the graph")
            if spec.resource in seen:
                raise InvalidParameterError("two AGVs share a resource")
            seen.add(spec.resource)
    except InvalidParameterError as err:
        return str(err)
    return validate(g, len(placements))


def to_json(sc: Scenario) -> str:
    doc = {
        "graph": sc.graph,
        "placements": list(sc.placements),
        "demands": list(sc.demands),
        "seed": sc.seed,
        "preset": sc.preset,
        "anchoriser": sc.anchoriser,
        "subdivisions": sc.subdivisions,
        "link_radius": sc.link_radius,
        "stop_pickup": sc.stop_pickup,
        "stop_dropoff": sc.stop_dropoff,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def from_json(text: str) -> Scenario:
    doc = json.loads(text)
    return Scenario(
        graph=doc["graph"],
        placements=tuple(doc["placements"]),
        demands=tuple(doc["demands"]),
        seed=doc.get("seed", 0),
        preset=doc.get("preset", "full-zero"),
        anchoriser=doc.get("anchoriser", "greedy"),
        subdivisions=doc.get("subdivisions", 1),
        link_radius=doc.get("link_radius", 1),
        stop_pickup=doc.get("stop_pickup", 0),
        stop_dropoff=doc.get("stop_dropoff", 0),
    )


def _spread_placements(g, links, count, rng, tries=4000):
    """Distinct nodes pairwise farther apart than the link radius."""
    chosen = []
    blocked = set()
    for _ in range(tries):
        if len(chosen) == count:
            break
        v = rng.randrange(g.num_nodes)
        if v in blocked or v in chosen:
            continue
        chosen.append(v)
        blocked.add(v)
        blocked.update(links.linked[v])
    if len(chosen) < count:
        raise InvalidParameterError(
            f"could not place {count} AGVs this sparsely; lower the count or radius"
        )
    return chosen


def generate(
    *,
    grid: int,
    agvs: int,
    demands: int,
    seed: int = 0,
    weight: int = 10,
    subdivisions: int = 1,
    link_radius: int = 1,
    preset: str = "full-zero",
    anchoriser: str = "greedy",
    stop_pickup: int = 0,
    stop_dropoff: int = 0,
) -> Scenario:
    """Seeded random scenario on an n-by-n grid.

    The link radius is capped at 2*subdivisions - 1: a parked AGV's footprint
    then stays strictly inside its own incident edge chains, which is what
    keeps every demand reachable no matter how the fleet is parked.
    """
    if link_radius > 2 * subdivisions - 1:
        raise InvalidParameterError(
            "link radius above 2*subdivisions-1 voids the routing guarantee"
        )
    base = build_grid(grid, weight)
    g = subdivide(base, subdivisions)
    if agvs > len(g.anchors):
        raise InvalidParameterError("more AGVs than anchors")
    links = build_adjacency_links(g, link_radius)
    rng = random.Random(seed)
    spots = _spread_placements(g, links, agvs, rng)
    placements = tuple(
        {"agv": i + 1, "resource": spots[i]} for i in range(agvs)
    )
    free_nodes = sorted(
        set(range(base.num_nodes)) - base.anchors
    )
    if demands and len(free_nodes) < 2:
        raise InvalidParameterError("no interior nodes for demands")
    ds = []
    for i in range(demands):
        pickup = rng.choice(free_nodes)
        dropoff = rng.choice(free_nodes)
        while dropoff == pickup:
            dropoff = rng.choice(free_nodes)
        ds.append({"id": i, "pickup": pickup, "dropoff": dropoff, "horizon": 0})
    return Scenario(
        graph={"type": "grid", "n": grid, "weight": weight},
        placements=placements,
        demands=tuple(ds),
        seed=seed,
        preset=preset,
        anchoriser=anchoriser,
        subdivisions=subdivisions,
        link_radius=link_radius,
        stop_pickup=stop_pickup,
        stop_dropoff=stop_dropoff,
    )
