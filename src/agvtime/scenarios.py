"""Scenario files: a complete experiment in one JSON document.

A scenario pins the layout (a grid recipe or an explicit graph), the fleet
placement, the demand list, and every knob the pipeline reads. Generation is
fully seeded so a scenario file can always be recreated byte for byte.

Every scenario, loaded or generated, is built by ``_graph_and_fleet`` and
passes ``scheduling.check_plan``, so each input rule is checked in one place.
``Scenario`` alone states the fields' defaults.
"""

from __future__ import annotations

import dataclasses
import json
import random

from .graph import (
    Edge,
    InvalidParameterError,
    ResourceGraph,
    build_adjacency_links,
    build_grid,
    subdivide,
    validate,
)
from .pathing import SourceSpec, check_source
from .scheduling import Demand, check_plan, demand_node_fault


@dataclasses.dataclass(frozen=True)
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


def _list(value, what: str, *lengths) -> list:
    """``value`` if it is a list, of lists with one of ``lengths`` items if any are given."""
    if not isinstance(value, list) or lengths and any(not isinstance(r, list) or len(r) not in lengths for r in value):
        shape = f" of {' or '.join(map(str, lengths))}-item lists" if lengths else ""
        raise InvalidParameterError(f"{what} must be a list{shape}, got {value!r}")
    return value


def _graph_from_spec(spec) -> ResourceGraph:
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "grid":
        return build_grid(*_ints(spec, "grid graph", "n", "weight"))
    if kind == "explicit":
        (num_nodes,) = _ints(spec, "explicit graph", "num_nodes")
        edges = []
        for e in _list(spec.get("edges"), "explicit graph edges", 3, 4):
            if e[3:] not in ([], [False], [True]):
                raise InvalidParameterError(f"edge direction must be true or false, got {e[3]!r}")
            edges.append(Edge(*(_int(v, "edge endpoint or weight") for v in e[:3]), e[3:] == [True]))
        coords = spec.get("coords")
        unit = spec.get("unit_weight")
        return ResourceGraph(
            num_nodes,
            edges,
            [_int(a, "anchor") for a in _list(spec.get("anchors"), "explicit graph anchors")],
            coords=None if coords is None else [
                tuple(_int(v, "coordinate") for v in c) for c in _list(coords, "explicit graph coords", 2)
            ],
            unit_weight=None if unit is None else _int(unit, "unit_weight", 1),
        )
    raise InvalidParameterError(f"unknown graph spec type {kind!r}")


def _graph_and_fleet(sc: Scenario):
    """Subdivided graph, placements and demands: materialise minus links.

    The one builder of every scenario. It checks every field but the preset
    and the anchoriser, which ``check_plan`` takes with the graph.
    """
    for name in ("stop_pickup", "stop_dropoff"):
        _int(getattr(sc, name), name)
    if type(sc.seed) is not int:
        raise InvalidParameterError(f"seed must be an integer, got {sc.seed!r}")
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


def materialise(sc: Scenario, built=None):
    """Build the runnable pieces: subdivided graph, links, placements, demands.

    ``built`` is ``_graph_and_fleet(sc)`` when the caller already has it.
    """
    g, placements, demands = _graph_and_fleet(sc) if built is None else built
    return g, build_adjacency_links(g, sc.link_radius), placements, demands


def validate_scenario(sc: Scenario, built=None):
    """Violation or error text if the scenario is unusable, else None.

    ``built`` is ``_graph_and_fleet(sc)`` when the caller already has it;
    its faults are then the caller's to report.
    """
    try:
        g, placements, demands = _graph_and_fleet(sc) if built is None else built
        check_plan(g, placements, demands, sc.preset, sc.anchoriser)
    except InvalidParameterError as err:
        return str(err)
    return validate(g, len(placements))


def to_json(sc: Scenario) -> str:
    return json.dumps(dataclasses.asdict(sc), sort_keys=True, indent=2) + "\n"


def from_json(text: str) -> Scenario:
    """The scenario in ``text``; keys that are not ``Scenario`` fields are ignored."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and "graph" in doc and all(isinstance(doc.get(k), list) for k in ("placements", "demands"))):
        raise InvalidParameterError("a scenario is an object with a graph and placements and demands lists")
    fields = {f.name: doc[f.name] for f in dataclasses.fields(Scenario) if f.name in doc}
    return Scenario(**{**fields, "placements": tuple(doc["placements"]), "demands": tuple(doc["demands"])})


# Random draws allowed before the generator gives up on a sparse placement.
PLACEMENT_TRIES = 4000


def _spread_placements(g, links, count, rng):
    """Distinct nodes pairwise farther apart than the link radius."""
    chosen = []
    blocked = set()
    for _ in range(PLACEMENT_TRIES):
        if len(chosen) == count:
            break
        v = rng.randrange(g.num_nodes)
        if v in blocked:
            continue
        chosen.append(v)
        blocked.update(links.linked[v])
    if len(chosen) < count:
        raise InvalidParameterError(
            f"could not place {count} AGVs this sparsely; lower the count or radius"
        )
    return chosen


def generate(*, grid: int, agvs: int, demands: int, weight: int = 10, **fields) -> Scenario:
    """Seeded random scenario on a ``grid``-by-``grid`` grid of ``weight``-tick
    edges, with ``agvs`` spread-out AGVs and ``demands`` demands.

    ``fields`` are ``Scenario`` fields, with its defaults. The scenario is
    built and checked as a loaded one is; on top of that, the link radius is
    capped at 2*subdivisions - 1: a parked AGV's footprint then stays strictly
    inside its own incident edge chains, which is what keeps every demand
    reachable no matter how the fleet is parked.
    """
    _int(agvs, "agvs")
    _int(demands, "demands")
    sc = Scenario(graph={"type": "grid", "n": grid, "weight": weight}, placements=(), demands=(), **fields)
    g = _graph_and_fleet(sc)[0]
    if sc.link_radius > 2 * sc.subdivisions - 1:
        raise InvalidParameterError(
            "link radius above 2*subdivisions-1 voids the routing guarantee"
        )
    if agvs > len(g.anchors):
        raise InvalidParameterError("more AGVs than anchors")
    links = build_adjacency_links(g, sc.link_radius)
    rng = random.Random(sc.seed)
    spots = _spread_placements(g, links, agvs, rng)
    free_nodes = [v for v in range(g.num_nodes) if demand_node_fault(g, v) is None]
    if demands and len(free_nodes) < 2:
        raise InvalidParameterError("no interior nodes for demands")
    ds = []
    for i in range(demands):
        pickup = rng.choice(free_nodes)
        dropoff = rng.choice(free_nodes)
        while dropoff == pickup:
            dropoff = rng.choice(free_nodes)
        ds.append(Demand(i, pickup, dropoff))
    check_plan(g, {i + 1: SourceSpec(v) for i, v in enumerate(spots)}, ds, sc.preset, sc.anchoriser)
    placements = tuple({"agv": i + 1, "resource": v} for i, v in enumerate(spots))
    return dataclasses.replace(sc, placements=placements, demands=tuple(map(dataclasses.asdict, ds)))
