"""Conflict-free AGV fleet routing on reservation timelines.

The pieces, bottom up: reservation trees with gap queries (`intervals`),
layout graphs with geographic link families (`graph`), per-resource
reservation state (`timegraph`), earliest-arrival routing through reservation
gaps (`pathing`), footprint expansion (`footprint`), fleet parking
(`anchoring`), timetable construction (`scheduling`), and scenario/benchmark
plumbing (`scenarios`, `bench`, `cli`).
"""

from .anchoring import AnchorResult, greedy_anchorise, initialise_reservations, naive_anchorise
from .footprint import (
    PathShapeError,
    WorkCounter,
    boundary_reservations,
    naive_reservations,
    normalise,
)
from .graph import (
    Edge,
    GeoLinks,
    InvalidParameterError,
    ResourceGraph,
    Violation,
    build_adjacency_links,
    build_grid,
    manhattan_bound,
    spatial_path,
    subdivide,
    validate,
)
from .intervals import INF, AgvId, GapTree
from .pathing import (
    SourceSpec,
    Stage,
    Step,
    TimePath,
    manhattan_guide,
    multi_source_time_path,
    route_corridor,
    time_path,
    zero_guide,
)
from .scenarios import Scenario, from_json, generate, materialise, to_json, validate_scenario
from .scheduling import (
    ANCHORISERS,
    PRESETS,
    Demand,
    NoPathFault,
    StalledAnchorisation,
    Timetable,
    build_timetable,
    metrics,
)
from .timegraph import Reservation, SafetyViolation, TimeGraph, audit_safety

__version__ = "0.1.0"

__all__ = [
    "AgvId",
    "AnchorResult",
    "ANCHORISERS",
    "Demand",
    "Edge",
    "GapTree",
    "GeoLinks",
    "INF",
    "InvalidParameterError",
    "NoPathFault",
    "PRESETS",
    "PathShapeError",
    "Reservation",
    "ResourceGraph",
    "SafetyViolation",
    "Scenario",
    "SourceSpec",
    "Stage",
    "StalledAnchorisation",
    "Step",
    "TimeGraph",
    "TimePath",
    "Timetable",
    "Violation",
    "WorkCounter",
    "audit_safety",
    "boundary_reservations",
    "build_adjacency_links",
    "build_grid",
    "build_timetable",
    "from_json",
    "generate",
    "greedy_anchorise",
    "initialise_reservations",
    "manhattan_bound",
    "manhattan_guide",
    "materialise",
    "metrics",
    "multi_source_time_path",
    "naive_anchorise",
    "naive_reservations",
    "normalise",
    "route_corridor",
    "spatial_path",
    "subdivide",
    "time_path",
    "to_json",
    "validate",
    "validate_scenario",
    "zero_guide",
]
