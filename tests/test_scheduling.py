"""Timetable construction: hand-checked routes, immutability, determinism."""

import dataclasses
import hashlib
import json
import random

import pytest

from agvtime.footprint import naive_reservations, normalise
from agvtime.graph import (
    Edge,
    InvalidParameterError,
    ResourceGraph,
    build_adjacency_links,
    build_grid,
    subdivide,
)
from agvtime.intervals import INF, GapTree
from agvtime.pathing import SourceSpec, Stage, time_path
from agvtime.scheduling import (
    PRESETS,
    Demand,
    StalledAnchorisation,
    Timetable,
    build_timetable,
    choose_anchor,
    metrics,
)
from agvtime.timegraph import TimeGraph
from agvtime.scenarios import generate, materialise
from agvtime.timegraph import Reservation, audit_safety

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
    for steps in tt.steps.values():
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


@pytest.mark.parametrize("preset", ["full-manhattan", "partial-manhattan"])
def test_manhattan_preset_needs_coords_before_anchorisation(preset):
    # No demand ever asks for the guide here: check_plan alone refuses it.
    g = ResourceGraph(4, [Edge(i, (i + 1) % 4, 5) for i in range(4)], anchors={0, 2})
    with pytest.raises(InvalidParameterError, match="needs graph coords"):
        build(g, {1: SourceSpec(1)}, [], preset=preset)


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
    assert all(steps[-1].end == INF for steps in tt.steps.values())
    assert tt.to_json() == timetable_json(tt)
    # The audit reads the timeline the file was written from.
    written = [
        (agv["id"], g.resource_id(s["resource"]), s["start"], INF if s["end"] == "inf" else s["end"])
        for agv in json.loads(tt.to_json())["agvs"]
        for s in agv["steps"]
    ]
    assert tt.occupations() == written

    empty = build(g, {}, [])
    assert empty.to_json() == timetable_json(empty)
    assert '"agvs": []' in empty.to_json()


def test_committed_state_is_exactly_timeline_footprints():
    # After every demand's release and commit, each AGV holds on each
    # resource exactly the footprint of its trimmed timeline: the released
    # hold and the timeline's cut meet at the same tick.
    for preset in PRESETS:
        for seed in range(3):
            sc = generate(
                grid=6, agvs=3, demands=6, seed=seed, subdivisions=2, link_radius=3, preset=preset
            )
            g, links, placements, demands = materialise(sc)
            demands = [dataclasses.replace(d, horizon=40 * (d.id % 3)) for d in demands]
            tt = build_timetable(
                g, links, placements, demands,
                preset=preset, stop_pickup=3, stop_dropoff=2, seed=seed,
            )
            want = [r for agv, steps in tt.steps.items() for r in naive_reservations(steps, links, agv)]
            got = [
                Reservation(rid, agv, s, e)
                for rid, tree in enumerate(tt.tg.trees)
                for s, e, ids in tree.intervals()
                for agv in ids
            ]
            assert normalise(got) == normalise(want), (preset, seed)


def test_commits_splice_only_overlapping_inserts(monkeypatch):
    # Work-count twin of dense-footprint's insert speed, with no wall clock:
    # a footprint span that overlaps nothing stored is written straight into
    # its gap, so only overlapping inserts and removes reach _splice.
    overlapping, removes, splices = [], [], []
    insert, remove, splice = GapTree.insert, GapTree.remove, GapTree._splice

    def recorded_insert(tree, agv, start, end):
        overlapping.append(any(s < end and start < e for s, e, _ in tree.intervals()))
        insert(tree, agv, start, end)

    def counted_remove(tree, *args):
        removes.append(1)
        remove(tree, *args)

    def counted_splice(tree, *args):
        splices.append(1)
        splice(tree, *args)

    monkeypatch.setattr(GapTree, "insert", recorded_insert)
    monkeypatch.setattr(GapTree, "remove", counted_remove)
    monkeypatch.setattr(GapTree, "_splice", counted_splice)
    sc = generate(grid=8, agvs=3, demands=20, seed=5, subdivisions=2, link_radius=3)
    g, links, placements, demands = materialise(sc)
    build_timetable(g, links, placements, demands, preset="partial-manhattan", seed=5)
    assert 0 < sum(overlapping) < len(overlapping) / 2
    assert len(splices) == sum(overlapping) + len(removes)


def anchor_choice_setup():
    """A 5-grid where AGV 9 holds every anchor to INF but two: AGV 2 holds
    ``held`` until tick 5000, and ``free`` is nobody's."""
    g = build_grid(5, 10)
    anchors = anchors_sorted(g)
    held, free = anchors[2], anchors[5]
    tg = TimeGraph(g)
    for a in anchors:
        if a not in (held, free):
            tg.reserve(a, 9, 0, INF)
    tg.reserve(held, 2, 0, 5000)
    return g, tg, anchors, held, free


def drew_once(rng, seed, choices):
    twin = random.Random(seed)
    twin.choice(choices)
    return rng.getstate() == twin.getstate()


def test_final_anchor_is_one_free_from_the_start_tick():
    _, tg, anchors, held, free = anchor_choice_setup()
    for seed in range(200):
        rng = random.Random(seed)
        assert choose_anchor(tg, anchors, 1, 40, rng) == free
        assert drew_once(rng, seed, [free])
    # Once the hold has ended by the start tick, both anchors are ready.
    picked = {choose_anchor(tg, anchors, 1, 5000, random.Random(seed)) for seed in range(40)}
    assert picked == {held, free}


def test_final_anchor_falls_back_to_the_open_ones():
    g, tg, anchors, held, free = anchor_choice_setup()
    tg.reserve(free, 3, 0, 6000)
    picked = set()
    for seed in range(40):
        rng = random.Random(seed)
        anchor = choose_anchor(tg, anchors, 1, 40, rng)
        assert drew_once(rng, seed, [held, free])
        picked.add(anchor)
        # The demand still plans: it waits for the anchor's hold to end.
        stages = [
            Stage({rid_at(g, (2, 1))}, 0),
            Stage({rid_at(g, (2, 3))}, 0),
            Stage({anchor}, INF),
        ]
        p = time_path(tg, 1, SourceSpec(rid_at(g, (1, 1))), stages, earliest=40)
        assert p is not None
        assert p.steps[-1].resource == anchor and p.steps[-1].end == INF
        assert p.arrival >= (5000 if anchor == held else 6000)
    assert picked == {held, free}


# Small seeded scenarios over every preset and both anchorisers, one of them
# subdivided, each with demands.
PINNED_PLANS = (
    dict(grid=8, agvs=3, demands=24, seed=1, preset="full-zero", anchoriser="greedy"),
    dict(grid=8, agvs=4, demands=24, seed=2, preset="full-manhattan", anchoriser="naive"),
    dict(grid=8, agvs=3, demands=24, seed=3, preset="partial-dijkstras", anchoriser="naive"),
    dict(grid=8, agvs=3, demands=24, seed=4, preset="partial-manhattan", anchoriser="greedy"),
    dict(grid=6, agvs=3, demands=16, seed=5, weight=12, subdivisions=2, link_radius=3,
         preset="partial-manhattan", anchoriser="naive", stop_pickup=3, stop_dropoff=5),
    dict(grid=10, agvs=6, demands=30, seed=6, preset="full-manhattan", anchoriser="greedy"),
)


def test_planned_timetables_are_pinned():
    # Digest taken once final anchors were drawn among those free from the
    # plan's start tick; a change that promises the same plans must keep it.
    digest = hashlib.sha256()
    for kw in PINNED_PLANS:
        sc = generate(**kw)
        g, links, placements, demands = materialise(sc)
        tt = build_timetable(
            g, links, placements, demands,
            preset=sc.preset, anchoriser=sc.anchoriser,
            stop_pickup=sc.stop_pickup, stop_dropoff=sc.stop_dropoff, seed=sc.seed,
        )
        assert_clean(tt)
        digest.update(tt.to_json().encode())
    assert digest.hexdigest() == "95c272ab9ac811eb6dc77be8476e30fd75e3f95395c2441e786a9a401eb230fb"
