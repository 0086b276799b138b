"""Timetable construction: hand-checked routes, immutability, determinism."""

import pytest

from agvtime.graph import (
    Edge,
    InvalidParameterError,
    ResourceGraph,
    build_adjacency_links,
    build_grid,
    subdivide,
)
from agvtime.intervals import INF
from agvtime.pathing import SourceSpec
from agvtime.scheduling import (
    PRESETS,
    Demand,
    StalledAnchorisation,
    Timetable,
    build_timetable,
    metrics,
)
from agvtime.timegraph import audit_safety

from oracles import shortest_ticks, snapshot_before, timetable_json


def rid_at(g, xy):
    return g.coords.index(xy)


def anchors_sorted(g):
    return sorted(g.anchors)


def build(g, placements, demands, **kw):
    links = build_adjacency_links(g, kw.pop("radius", 1))
    return build_timetable(g, links, placements, demands, **kw)


def assert_clean(tt):
    assert tt.is_anchored()
    assert audit_safety(tt.tg, tt.occupations()) is None
    for steps in tt.trimmed_steps().values():
        for a, b in zip(steps, steps[1:]):
            assert a.end == b.start
        assert steps[0].start == 0
        assert steps[-1].end == INF


def test_zero_demands_from_anchors():
    g = build_grid(4, 5000)
    a = anchors_sorted(g)
    placements = {1: SourceSpec(a[0]), 2: SourceSpec(a[1])}
    tt = build(g, placements, [])
    assert_clean(tt)
    assert tt.makespan() == 0
    assert tt.total_distance() == 0
    m = metrics(tt)
    assert m["makespan"] == 0 and m["total_distance"] == 0
    assert m["runtime_ms"] >= 0


def test_single_hop_anchoring_metrics():
    g = build_grid(4, 5000)
    tt = build(g, {1: SourceSpec(rid_at(g, (1, 1)))}, [])
    assert_clean(tt)
    assert tt.makespan() == 5000
    assert tt.total_distance() == 5000


def test_one_demand_route_is_shortest():
    g = build_grid(4, 1)
    start = rid_at(g, (0, 1))
    placements = {1: SourceSpec(start)}
    pickup = rid_at(g, (1, 1))
    dropoff = rid_at(g, (2, 2))
    tt = build(g, placements, [Demand(0, pickup, dropoff)], seed=5)
    assert_clean(tt)
    route = tt.paths[1][-1]
    chosen = route.steps[-1].resource
    want = (
        shortest_ticks(g, start)[pickup]
        + shortest_ticks(g, pickup)[dropoff]
        + shortest_ticks(g, dropoff)[chosen]
    )
    assert route.arrival == want


def test_stops_delay_the_route():
    g = build_grid(4, 1)
    start = rid_at(g, (0, 1))
    pickup = rid_at(g, (1, 1))
    dropoff = rid_at(g, (2, 2))
    base = build(g, {1: SourceSpec(start)}, [Demand(0, pickup, dropoff)], seed=5)
    slow = build(
        g,
        {1: SourceSpec(start)},
        [Demand(0, pickup, dropoff)],
        seed=5,
        stop_pickup=7,
        stop_dropoff=3,
    )
    assert slow.paths[1][-1].arrival == base.paths[1][-1].arrival + 10
    assert_clean(slow)


def test_demand_horizon_delays_departure():
    g = build_grid(4, 1)
    start = rid_at(g, (0, 1))
    pickup = rid_at(g, (1, 1))
    dropoff = rid_at(g, (2, 2))
    tt = build(
        g, {1: SourceSpec(start)}, [Demand(0, pickup, dropoff, horizon=50)], seed=5
    )
    route = tt.paths[1][-1]
    assert route.steps[0].start == 50
    assert_clean(tt)


def test_earlier_batches_never_rewritten():
    g = build_grid(5, 2)
    placements = {
        1: SourceSpec(rid_at(g, (1, 1))),
        2: SourceSpec(rid_at(g, (3, 3))),
    }
    first = [Demand(0, rid_at(g, (2, 1)), rid_at(g, (2, 3))), Demand(1, rid_at(g, (1, 2)), rid_at(g, (3, 2)))]
    later = [Demand(2, rid_at(g, (2, 2)), rid_at(g, (1, 3)), horizon=40)]
    only_first = build(g, placements, first, seed=9)
    both = build(g, placements, first + later, seed=9)
    assert snapshot_before(both.tg, 40) == snapshot_before(only_first.tg, 40)
    assert_clean(both)


def test_all_presets_complete_and_agree_where_promised():
    g = build_grid(5, 10)
    placements = {
        1: SourceSpec(rid_at(g, (1, 1))),
        2: SourceSpec(rid_at(g, (3, 3))),
    }
    demands = [
        Demand(0, rid_at(g, (2, 1)), rid_at(g, (3, 2))),
        Demand(1, rid_at(g, (1, 3)), rid_at(g, (2, 2))),
        Demand(2, rid_at(g, (1, 2)), rid_at(g, (3, 1)), horizon=30),
        Demand(3, rid_at(g, (2, 3)), rid_at(g, (2, 1)), horizon=30),
    ]
    results = {}
    for preset in PRESETS:
        tt = build(g, dict(placements), list(demands), preset=preset, seed=4)
        assert_clean(tt)
        results[preset] = tt
    assert results["full-zero"].makespan() == results["full-manhattan"].makespan()


def test_deterministic_output():
    g = build_grid(5, 3)
    placements = {
        1: SourceSpec(rid_at(g, (1, 1))),
        2: SourceSpec(rid_at(g, (2, 2))),
    }
    demands = [
        Demand(0, rid_at(g, (2, 1)), rid_at(g, (1, 3))),
        Demand(1, rid_at(g, (3, 2)), rid_at(g, (1, 2))),
    ]
    a = build(g, dict(placements), list(demands), seed=11)
    b = build(g, dict(placements), list(demands), seed=11)
    assert a.to_json() == b.to_json()
    ma, mb = metrics(a), metrics(b)
    assert (ma["makespan"], ma["total_distance"]) == (mb["makespan"], mb["total_distance"])


def test_rejects_bad_demands():
    g = build_grid(4, 10)
    a = anchors_sorted(g)[0]
    inner = rid_at(g, (1, 1))
    with pytest.raises(InvalidParameterError):
        build(g, {1: SourceSpec(inner)}, [Demand(0, a, inner)])
    s = subdivide(g, 2)
    sub = sorted(s.subdivision_nodes)[0]
    with pytest.raises(InvalidParameterError):
        build(s, {1: SourceSpec(rid_at(s, (2, 2)))}, [Demand(0, sub, rid_at(s, (2, 2)))])
    with pytest.raises(InvalidParameterError):
        build(g, {1: SourceSpec(inner)}, [Demand(0, inner, inner), Demand(0, inner, inner)])
    with pytest.raises(InvalidParameterError):
        build(g, {}, [Demand(0, inner, inner)])


def test_stall_propagates():
    edges = [Edge(i, i + 1, 10) for i in range(3)]
    g = ResourceGraph(4, edges, anchors={0, 3})
    links = build_adjacency_links(g, 3)
    with pytest.raises(StalledAnchorisation):
        build_timetable(
            g, links, {1: SourceSpec(1), 2: SourceSpec(2)}, [], anchoriser="naive"
        )


def test_timetable_json_shape():
    g = build_grid(4, 5000)
    tt = build(g, {3: SourceSpec(rid_at(g, (1, 1)))}, [])
    text = tt.to_json()
    import json

    doc = json.loads(text)
    assert [a["id"] for a in doc["agvs"]] == [3]
    steps = doc["agvs"][0]["steps"]
    assert steps[-1]["end"] == "inf"
    assert steps[0]["start"] == 0
    assert all(isinstance(s["resource"], str) for s in steps)
    assert doc["metrics"]["total_distance"] == 5000


def test_timetable_json_matches_standard_encoder():
    g = build_grid(5, 3)
    placements = {
        1: SourceSpec(rid_at(g, (1, 1))),
        2: SourceSpec(rid_at(g, (3, 3))),
        7: SourceSpec(rid_at(g, (2, 2))),
    }
    demands = [
        Demand(0, rid_at(g, (2, 1)), rid_at(g, (1, 3))),
        Demand(1, rid_at(g, (3, 2)), rid_at(g, (1, 2))),
        Demand(2, rid_at(g, (1, 2)), rid_at(g, (3, 1)), horizon=30),
        Demand(3, rid_at(g, (2, 3)), rid_at(g, (2, 1)), horizon=30),
        Demand(4, rid_at(g, (3, 1)), rid_at(g, (1, 1)), horizon=60),
    ]
    tt = build(g, placements, demands, seed=11)
    assert max(len(plist) for plist in tt.paths.values()) > 2
    assert all(steps[-1].end == INF for steps in tt.trimmed_steps().values())
    assert tt.to_json() == timetable_json(tt)

    empty = build(g, {}, [])
    assert empty.to_json() == timetable_json(empty)
    assert '"agvs": []' in empty.to_json()
