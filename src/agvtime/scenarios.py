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
from .pathing import SourceSpec, check_source
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


def _int(value, what: str, low: int = 0) -> int:
    """``value`` if it is an integer >= ``low``; true/false are no integers here."""
    if type(value) is not int or value < low:
        raise InvalidParameterError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _ints(entry, what: str, *keys, **defaults):
    """Integer fields of one JSON object: ``keys`` required, ``defaults`` optional."""
    if not isinstance(entry, dict) or any(k not in entry for k in keys):
        raise InvalidParameterError(f"{what} must be an object with {', '.join(keys)}")
    return [_int(entry.get(k, defaults.get(k)), f"{what} {k}") for k in (*keys, *defaults)]


def _graph_from_spec(spec) -> ResourceGraph:
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "grid":
        return build_grid(*_ints(spec, "grid graph", "n", "weight"))
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


def _graph_and_fleet(sc: Scenario):
    """Subdivided graph, placements and demands, checked: materialise minus links."""
    g = subdivide(_graph_from_spec(sc.graph), _int(sc.subdivisions, "subdivisions", 1))
    _int(sc.link_radius, "link radius", 1)
    placements = {}
    for p in sc.placements:
        agv, rid, elapsed = _ints(p, "placement", "agv", "resource", elapsed=0)
        if agv in placements:
            raise InvalidParameterError(f"duplicate placement for AGV {agv}")
        spec = SourceSpec(rid, elapsed, p.get("toward"))
        check_source(g, spec)
        if any(spec.resource == q.resource for q in placements.values()):
            raise InvalidParameterError("two AGVs share a resource")
        placements[agv] = spec
    demands = tuple(Demand(*_ints(d, "demand", "id", "pickup", "dropoff", horizon=0)) for d in sc.demands)
    return g, placements, demands


def materialise(sc: Scenario):
    """Build the runnable pieces: subdivided graph, links, placements, demands."""
    g, placements, demands = _graph_and_fleet(sc)
    return g, build_adjacency_links(g, sc.link_radius), placements, demands


def validate_scenario(sc: Scenario):
    """Violation or error text if the scenario is unusable, else None."""
    try:
        for name in ("stop_pickup", "stop_dropoff"):
            _int(getattr(sc, name), name)
        if type(sc.seed) is not int:
            raise InvalidParameterError(f"seed must be an integer, got {sc.seed!r}")
        g, placements, demands = _graph_and_fleet(sc)
        check_demands(g, demands)
        if sc.preset not in PRESETS:
            raise InvalidParameterError(f"unknown preset {sc.preset!r}")
        if sc.anchoriser not in ANCHORISERS:
            raise InvalidParameterError(f"unknown anchoriser {sc.anchoriser!r}")
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
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k), list) for k in ("placements", "demands"))):
        raise InvalidParameterError("a scenario is an object with placements and demands lists")
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
