"""Timetable construction: hand-checked routes, immutability, determinism."""

import hashlib
import json
import random
import sys
import tracemalloc
from itertools import chain

import pytest

from agvtime import scheduling
from agvtime.footprint import naive_reservations, normalise
from agvtime.graph import (
    Edge,
    InvalidParameterError,
    ResourceGraph,
    build_adjacency_links,
    build_grid,
    subdivide,
    validate,
)
from agvtime.intervals import INF, GapTree
from agvtime.pathing import NearestTarget, SourceSpec, Stage, time_path
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

from oracles import (
    anchor_ticks,
    pickup_arrival_pick,
    service_faults,
    shortest_ticks,
    snapshot_before,
    timetable_json,
)


def rid_at(g, xy):
    return g.coords.index(xy)


def anchors_sorted(g):
    return sorted(g.anchors)


def nearest_table(g):
    """The nearest-anchor table ``build_timetable`` hands ``choose_anchor``."""
    return NearestTarget(g, g.anchors).root


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


@pytest.mark.parametrize(
    "field, value",
    [("id", 0.0), ("id", True), ("pickup", 5.0), ("dropoff", 6.0), ("horizon", 1000.5), ("horizon", True)],
)
@pytest.mark.parametrize("preset", PRESETS)
def test_demand_fields_must_be_integers(field, value, preset):
    # Python callers bypass the scenario files' integer rule; check_plan
    # applies it, so no fractional tick reaches a timetable.
    g = build_grid(4, 10)
    demand = Demand(0, rid_at(g, (1, 1)), rid_at(g, (2, 2)))._replace(**{field: value})
    with pytest.raises(InvalidParameterError, match=f"demand {field} must be an integer"):
        build(g, {1: SourceSpec(rid_at(g, (1, 2)))}, [demand], preset=preset)


def test_stops_and_placements_must_be_integers(monkeypatch):
    # check_plan refuses them before anchorisation runs, with or without a
    # demand that would carry the stops into a search.
    def anchorise(*args, **kw):
        raise AssertionError("anchorisation ran before the plan was checked")

    monkeypatch.setattr(scheduling, "greedy_anchorise", anchorise)
    g = build_grid(4, 10)
    inner, other = rid_at(g, (1, 1)), rid_at(g, (2, 2))
    with pytest.raises(InvalidParameterError, match="pickup stop must be an integer >= 0, got -1"):
        build(g, {1: SourceSpec(inner)}, [], stop_pickup=-1, stop_dropoff=2.5)
    with pytest.raises(InvalidParameterError, match="pickup stop must be an integer"):
        build(g, {1: SourceSpec(inner)}, [Demand(0, other, inner)], stop_pickup=2.5)
    for value in (True, -3, "3"):
        with pytest.raises(InvalidParameterError, match="dropoff stop must be an integer"):
            build(g, {1: SourceSpec(inner)}, [Demand(0, other, inner)], stop_dropoff=value)
    with pytest.raises(InvalidParameterError, match="source resource must be an integer"):
        build(g, {1: SourceSpec(float(inner))}, [Demand(0, other, inner)], preset="full-manhattan")


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
    assert list(tt.occupations()) == written

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
            demands = [d._replace(horizon=40 * (d.id % 3)) for d in demands]
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
    # its gap, and a release that overlaps one interval held by the AGV alone
    # is cut out of it in place, so only overlapping inserts and the other
    # removes reach _splice.
    overlapping, spliced_removes, splices = [], [], []
    insert, remove, splice = GapTree.insert, GapTree.remove, GapTree._splice

    def recorded_insert(tree, agv, start, end):
        overlapping.append(any(s < end and start < e for s, e, _ in tree.intervals()))
        insert(tree, agv, start, end)

    def recorded_remove(tree, agv, start, end):
        hit = [ids for s, e, ids in tree.intervals() if s < end and start < e]
        spliced_removes.append(hit != [{agv}])
        remove(tree, agv, start, end)

    def counted_splice(tree, *args):
        splices.append(1)
        splice(tree, *args)

    monkeypatch.setattr(GapTree, "insert", recorded_insert)
    monkeypatch.setattr(GapTree, "remove", recorded_remove)
    monkeypatch.setattr(GapTree, "_splice", counted_splice)
    sc = generate(grid=8, agvs=3, demands=20, seed=5, subdivisions=2, link_radius=3)
    g, links, placements, demands = materialise(sc)
    build_timetable(g, links, placements, demands, preset="partial-manhattan", seed=5)
    assert 0 < sum(overlapping) < len(overlapping) / 2
    assert 0 < sum(spliced_removes) < len(spliced_removes)
    assert len(splices) == sum(overlapping) + sum(spliced_removes)


def subdivided_plan():
    sc = generate(
        grid=8, agvs=4, demands=24, seed=3, subdivisions=2, link_radius=3, preset="partial-manhattan"
    )
    g, links, placements, demands = materialise(sc)
    return build_timetable(g, links, placements, demands, preset=sc.preset, seed=sc.seed)


def test_trees_share_one_single_holder_set_per_agv():
    # Nearly every stored interval is a footprint span held by one AGV; a set
    # object apiece was over half the planner's memory on dense-footprint.
    tt = subdivided_plan()
    singles = [ids for tree in tt.tg.trees for _, _, ids in tree.intervals() if len(ids) == 1]
    assert len(singles) > 1000
    assert len({id(ids) for ids in singles}) <= len(tt.steps)


def test_serialiser_peak_stays_near_twice_its_output():
    # The AGVs' joined rows and the result hold the text twice; the bound
    # leaves half the text for one AGV's rows being formatted. Writing with
    # chained "+" peaked at 3.4 times the text on Python 3.10 to 3.13.
    tt = subdivided_plan()
    tracemalloc.start()
    try:
        text = tt.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def test_streamed_json_matches_the_text(tmp_path):
    for tt in (subdivided_plan(), build(build_grid(4, 10), {}, [])):
        path = tmp_path / "timetable.json"
        with open(path, "w", encoding="utf-8") as f:
            assert tt.to_json(f) is None
        assert path.read_text(encoding="utf-8") == tt.to_json()


def test_streamed_write_peak_stays_below_its_output(tmp_path):
    # A streamed write holds one AGV's formatted rows and their join at a
    # time, about three times that AGV's text, plus the name table, which
    # is measured here on its own; never the file's text, which the
    # returned string alone is. With Python 3.11 it read 0.67 times the
    # text here: 2.6 times the largest AGV's text plus a 271-name table of
    # 23.8 KB, itself twice that AGV's text.
    sc = generate(
        grid=8, agvs=8, demands=24, seed=3, subdivisions=2, link_radius=3, preset="partial-manhattan"
    )
    g, links, placements, demands = materialise(sc)
    tt = build_timetable(g, links, placements, demands, preset=sc.preset, seed=sc.seed)
    chunks = list(tt._chunks())
    size, largest = len("".join(chunks)), max(map(len, chunks))
    del chunks
    tracemalloc.start()
    try:
        names = scheduling._Names(g.describe)
        for steps in tt.steps.values():
            for r, _, _ in steps:
                names[r]
        name_table = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del names
    with open(tmp_path / "timetable.json", "w", encoding="utf-8") as f:
        tracemalloc.start()
        try:
            tt.to_json(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < size
    assert peak < 3.5 * largest + name_table


def anchor_choice_setup():
    """A 5-grid where AGV 9 holds every anchor to INF but two: AGV 2 holds
    ``held`` (3, 0) until tick 5000, and ``free`` (0, 2) is nobody's."""
    g = build_grid(5, 10)
    anchors = anchors_sorted(g)
    held, free = anchors[2], anchors[5]
    tg = TimeGraph(g)
    for a in anchors:
        if a not in (held, free):
            tg.reserve(a, 9, 0, INF)
    tg.reserve(held, 2, 0, 5000)
    return g, tg, anchors, held, free


def recorded_reads(monkeypatch, tg):
    """The resources of ``tg.gaps_from`` calls from now on, in call order;
    each call must be AGV 1's."""
    reads = []
    real = tg.gaps_from

    def gaps_from(rid, agv, since):
        assert agv == 1
        reads.append(rid)
        return real(rid, agv, since)

    monkeypatch.setattr(tg, "gaps_from", gaps_from)
    return reads


def by_nearness(g, dropoff):
    """Anchors reachable from ``dropoff`` past no other anchor, nearest
    first, ties to the lower id."""
    ticks = anchor_ticks(g, dropoff)
    return sorted(ticks, key=lambda a: (ticks[a], a))


def test_final_anchor_is_one_free_from_the_start_tick(monkeypatch):
    # With nothing held, the nearest anchor; (1, 0) and (0, 1) are both one
    # edge from (1, 1), as are (4, 3) and (3, 4) from (3, 3): the lower id wins.
    g = build_grid(5, 10)
    tg = TimeGraph(g)
    assert choose_anchor(tg, 1, rid_at(g, (1, 1)), 0, nearest_table(g)) == rid_at(g, (1, 0))
    assert choose_anchor(tg, 1, rid_at(g, (3, 3)), 0, nearest_table(g)) == rid_at(g, (4, 3))

    g, tg, anchors, held, free = anchor_choice_setup()
    reads = recorded_reads(monkeypatch, tg)
    dropoff = rid_at(g, (3, 1))
    # ``held`` is one edge away but AGV 2 holds it until 5000: the nearest
    # ready anchor is ``free``, and only the anchors nearer than it are read.
    assert choose_anchor(tg, 1, dropoff, 40, nearest_table(g)) == free
    order = by_nearness(g, dropoff)
    assert reads == order[: order.index(free) + 1]
    # Once the hold has ended by the start tick, the nearer one is ready.
    reads.clear()
    assert choose_anchor(tg, 1, dropoff, 5000, nearest_table(g)) == held
    assert reads == [held]


def test_final_anchor_falls_back_to_the_open_ones(monkeypatch):
    g, tg, anchors, held, free = anchor_choice_setup()
    tg.reserve(free, 3, 0, 6000)
    reads = recorded_reads(monkeypatch, tg)
    # No anchor is ready, so every anchor is read once, nearest first, and
    # the nearest open one is chosen.
    for xy, anchor in (((3, 1), held), ((1, 2), free)):
        reads.clear()
        dropoff = rid_at(g, xy)
        assert choose_anchor(tg, 1, dropoff, 40, nearest_table(g)) == anchor
        assert reads == by_nearness(g, dropoff) and sorted(reads) == anchors
        # The demand still plans: it waits for the anchor's hold to end.
        stages = [
            Stage({rid_at(g, (2, 1))}, 0),
            Stage({dropoff}, 0),
            Stage({anchor}, INF),
        ]
        p = time_path(tg, 1, SourceSpec(rid_at(g, (1, 1))), stages, earliest=40)
        assert p is not None
        assert p.steps[-1].resource == anchor and p.steps[-1].end == INF
        assert p.arrival >= (5000 if anchor == held else 6000)
    # With every anchor held to INF by another AGV, none is open.
    tg.reserve(held, 9, 5000, INF)
    tg.reserve(free, 9, 6000, INF)
    assert choose_anchor(tg, 1, rid_at(g, (2, 2)), 40, nearest_table(g)) is None


def test_final_anchor_reads_one_gap_list_per_anchor(monkeypatch):
    g, tg, anchors, held, free = anchor_choice_setup()
    own, shared, late = anchors[0], anchors[1], anchors[3]
    tg.remove_all([Reservation(own, 9, 0, INF), Reservation(late, 9, 0, 5000)])
    tg.reserve(own, 1, 0, INF)
    tg.reserve(shared, 1, 0, INF)
    reads = recorded_reads(monkeypatch, tg)

    def chosen(xy):
        # Reads stop at a ready pick; with none ready, every anchor is read.
        reads.clear()
        anchor = choose_anchor(tg, 1, rid_at(g, xy), 40, nearest_table(g))
        order = by_nearness(g, rid_at(g, xy))
        assert reads in (order[: order.index(anchor) + 1], order)
        return anchor

    # AGV 1's own hold to INF leaves its anchor (1, 0) open and ready; the
    # one it shares with AGV 9, (2, 0), is closed and passed over for it.
    assert chosen((1, 1)) == own and reads == [own]
    assert chosen((2, 1)) == own and reads == [shared, own]
    assert chosen((1, 3)) == free and reads[-1] == free and len(reads) < len(anchors)
    # Once other AGVs hold them for a while, no anchor is ready: the nearest
    # open one, of (1, 0) and (3, 0) two edges from (2, 1), is the lower id.
    tg.reserve(own, 2, 0, 6000)
    tg.reserve(free, 3, 0, 6000)
    assert chosen((2, 1)) == own
    assert sorted(reads) == anchors
    assert chosen((1, 2)) == free
    assert sorted(reads) == anchors
    # With (1, 0) closed as well, both anchors one edge from (1, 1) are
    # passed over for (0, 2), two edges away.
    tg.reserve(own, 9, 6000, INF)
    assert chosen((1, 1)) == free
    assert reads[:2] == [own, late]


def explicit_weighted_grid(rng):
    """``build_grid(6, 1)`` spelled out without coords, edge weights drawn
    from 1 to 3, one edge in five one way, and three more edges from an
    anchor to an inner node, so that a route through an anchor can be a
    shortcut."""
    g = build_grid(6, 1)
    edges = [Edge(e.a, e.b, rng.randint(1, 3), rng.random() < 0.2) for e in g.edges]
    inner = [v for v in range(g.num_nodes) if v not in g.anchors]
    for a in rng.sample(sorted(g.anchors), 3):
        edges.append(Edge(a, rng.choice(inner), 1))
    return ResourceGraph(g.num_nodes, edges, g.anchors)


def test_final_anchor_matches_the_nearest_ready_reference(monkeypatch):
    # Random holds on the anchors of small grids, one subdivided grid and
    # explicit graphs without coords; the chooser must pick what the rule
    # says, from travel ticks the engine does not compute and from the holds
    # themselves, and read only the anchors nearer than its pick, each once.
    # The nearest-anchor table must name each plain node's nearest anchor;
    # a call whose nearest anchor is ready reads that one gap list ("ready").
    rng = random.Random(7)
    graphs = [build_grid(n, w) for n in (4, 5, 6, 7) for w in (1, 10)]
    graphs.append(subdivide(build_grid(5, 12), 2))
    while len(graphs) < 14:
        g = explicit_weighted_grid(rng)
        if validate(g, 1) is None:
            graphs.append(g)
    seen = set()
    for g in graphs:
        anchors = anchors_sorted(g)
        plain = [v for v in range(g.num_nodes) if v not in g.anchors]
        table = nearest_table(g)
        for v in plain:
            order = by_nearness(g, v)
            assert table[v] == (order[0] if order else None), (g.num_nodes, v)
        for _ in range(25):
            # Some trials hold nearly every anchor, most of them to INF.
            p_held, p_inf = rng.choice((0.3, 0.9, 1.0)), rng.choice((0.3, 0.9, 1.0))
            tg = TimeGraph(g)
            holds = {a: [] for a in anchors}
            for a in anchors:
                for agv, p in ((1, 0.2), (rng.choice((2, 3)), p_held)):
                    if rng.random() < p:
                        start = rng.choice((0, rng.randint(0, 300)))
                        end = INF if rng.random() < p_inf else start + rng.randint(1, 300)
                        tg.reserve(a, agv, start, end)
                        holds[a].append((agv, end))
            reads = recorded_reads(monkeypatch, tg)
            for _ in range(4):
                dropoff, start = rng.choice(plain), rng.randint(0, 400)
                others = {a: [end for agv, end in holds[a] if agv != 1] for a in anchors}
                ready = [a for a in anchors if all(end <= start for end in others[a])]
                open_ = [a for a in anchors if INF not in others[a]]
                order = by_nearness(g, dropoff)
                want = next((a for a in order if a in ready), None)
                if want is None:
                    want = next((a for a in order if a in open_), None)
                reads.clear()
                got = choose_anchor(tg, 1, dropoff, start, table)
                assert got == want, (g.num_nodes, dropoff, start)
                if got is not None and got in ready:
                    assert reads == order[: order.index(got) + 1]
                    seen.add("ready" if reads[-1] == order[0] else "passed over")
                else:
                    assert reads == order
                    seen.add("open" if got is not None else "none")
    assert seen == {"ready", "passed over", "open", "none"}


def test_nearest_anchor_dijkstras_per_run(monkeypatch):
    # The anchoriser's bound is one ``NearestTarget``; a run with demands
    # builds one more, its nearest-anchor table, and one without builds none.
    built = []
    real = NearestTarget.__init__

    def counted(self, g, targets):
        built.append(g)
        real(self, g, targets)

    monkeypatch.setattr(NearestTarget, "__init__", counted)
    sc = generate(grid=6, agvs=3, demands=6, seed=2)
    g, links, placements, demands = materialise(sc)
    for anchoriser in ("naive", "greedy"):
        for plan, want in ((demands, 2), ([], 1)):
            built.clear()
            tt = build_timetable(g, links, placements, plan, anchoriser=anchoriser, seed=2)
            assert_clean(tt)
            assert built == [g] * want, (anchoriser, len(plan))


def test_only_the_naive_anchoriser_draws_at_random(monkeypatch):
    # Assignment draws nothing at random: a run under the greedy anchoriser
    # builds no ``random.Random``, and one under the naive anchoriser builds
    # only that anchoriser's, seeded with the run's seed.
    built = []

    class Recorded(random.Random):
        def __init__(self, seed=None):
            super().__init__(seed)
            built.append((sys._getframe(1).f_globals["__name__"], seed))

    assert not hasattr(scheduling, "random")
    sc = generate(grid=8, agvs=3, demands=18, seed=11)
    g, links, placements, demands = materialise(sc)
    monkeypatch.setattr(random, "Random", Recorded)
    for anchoriser, want in (("greedy", []), ("naive", [("agvtime.anchoring", 11)])):
        built.clear()
        assert_clean(build_timetable(g, links, placements, demands, anchoriser=anchoriser, seed=11))
        assert built == want, anchoriser


def test_no_open_anchor_is_a_no_path_fault():
    # Node 5 is entered one way only, so no anchor can be reached from it.
    # The graph rules the CLI checks rule this out; build_timetable, called
    # directly, reports the demand as a fault.
    edges = [Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 1), Edge(3, 4, 1), Edge(2, 5, 1, True)]
    g = ResourceGraph(6, edges, {0, 4})
    with pytest.raises(scheduling.NoPathFault) as err:
        build(g, {1: SourceSpec(0)}, [Demand(7, 1, 5)])
    assert (err.value.demand_id, err.value.agv, err.value.preset) == (7, 1, "full-zero")


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


def planned(sc, demands=None):
    """``sc`` planned, with ``demands`` in place of its own when given: the
    timetable, the demands and the two stops."""
    g, links, placements, own = materialise(sc)
    demands = own if demands is None else demands
    tt = build_timetable(
        g, links, placements, demands,
        preset=sc.preset, anchoriser=sc.anchoriser,
        stop_pickup=sc.stop_pickup, stop_dropoff=sc.stop_dropoff, seed=sc.seed,
    )
    return tt, demands, (sc.stop_pickup, sc.stop_dropoff)


def pinned_plans():
    for kw in PINNED_PLANS:
        yield planned(generate(**kw))


def test_planned_timetables_are_pinned():
    # Digest taken once each batch went by estimated pickup arrival; a
    # change that promises the same plans must keep it.
    digest = hashlib.sha256()
    for tt, demands, stops in pinned_plans():
        assert_clean(tt)
        assert service_faults(tt, demands, *stops) == []
        digest.update(tt.to_json().encode())
    assert digest.hexdigest() == "3e8381d85c214963a06069fa0db5e6715c3eaa5ac4d2432a885440026fb6485e"


def test_zero_length_steps_share_their_tick():
    # A zero-length step keeps one int object alive, not two equal ones:
    # ticks past 256 are not cached by CPython, so a tick read back off the
    # search heap is a fresh object unless the step reuses the one it
    # starts on. About half of all planned steps have zero length.
    zero = ticks = 0
    for tt, _, _ in pinned_plans():
        parts = [p.steps for plist in tt.paths.values() for p in plist]
        for steps in [*parts, *tt.steps.values()]:
            for step in steps:
                if step.start == step.end:
                    zero += 1
                    ticks += step.start > 256
                    assert step.start is step.end, step
    assert ticks > zero / 2 > 100


MIXED_HORIZONS = (0, 40, 90, 400, 1000)


def mixed_horizon_plans():
    # Horizons drawn from MIXED_HORIZONS and the demands shuffled, so every
    # batch is read out of a list that interleaves all of them; stops are
    # non-zero.
    for seed in (11, 12, 13):
        for k, preset in enumerate(PRESETS):
            sc = generate(
                grid=8, agvs=3, demands=18, seed=seed, preset=preset,
                anchoriser=("greedy", "naive")[(seed + k) % 2], stop_pickup=2, stop_dropoff=3,
            )
            rng = random.Random(seed)
            demands = [d._replace(horizon=rng.choice(MIXED_HORIZONS)) for d in materialise(sc)[3]]
            rng.shuffle(demands)
            yield planned(sc, demands)


def test_mixed_horizon_batches_are_pinned():
    # Digest taken once each batch went by estimated pickup arrival.
    digest = hashlib.sha256()
    for tt, demands, stops in mixed_horizon_plans():
        assert_clean(tt)
        assert service_faults(tt, demands, *stops) == []
        digest.update(tt.to_json().encode())
    assert digest.hexdigest() == "4cc4d4600d5819fae880dc6ae0809502ac0f923d8a76a6395e1d94b0bddc773e"


def recorded_commits(monkeypatch):
    """Every commit of the ``build_timetable`` calls from now on, as
    ``(agv, demand, start)``: each pair ``_assignments`` yields, with the
    start tick the route call that follows it receives."""
    commits = []
    assign, plan = scheduling._assignments, scheduling._plan

    def assignments(*args):
        for d, agv in assign(*args):
            commits.append((agv, d))
            yield d, agv

    def route(tg, g, agv, src, stages, preset, earliest):
        assert commits[-1][0] == agv and len(commits[-1]) == 2
        commits[-1] += (earliest,)
        return plan(tg, g, agv, src, stages, preset, earliest)

    monkeypatch.setattr(scheduling, "_assignments", assignments)
    monkeypatch.setattr(scheduling, "_plan", route)
    return commits


def coordless_plans():
    """One generated grid plan, on the same graph without coords, where
    every estimate is the AGV's start tick."""
    sc = generate(grid=8, agvs=3, demands=20, seed=7)
    g, _, placements, demands = materialise(sc)
    bare = ResourceGraph(g.num_nodes, g.edges, g.anchors)
    links = build_adjacency_links(bare, sc.link_radius)
    yield build_timetable(bare, links, placements, demands, seed=sc.seed), demands, (0, 0)


def test_each_batch_goes_by_estimated_pickup_arrival(monkeypatch):
    # Every commit of the pinned, the mixed-horizon and a coord-less plan is
    # the one the full scan of ``pickup_arrival_pick`` names, over the paths
    # committed before it: the same AGV, demand and start tick.
    commits = recorded_commits(monkeypatch)
    plans = []
    for tt, demands, stops in chain(pinned_plans(), mixed_horizon_plans(), coordless_plans()):
        assert_clean(tt)
        assert service_faults(tt, demands, *stops) == []
        mine = iter(commits[:])
        commits.clear()
        done = dict.fromkeys(tt.paths, 1)
        for h in sorted({d.horizon for d in demands}):
            pending = [d for d in demands if d.horizon == h]
            while pending:
                paths = {agv: plist[: done[agv]] for agv, plist in tt.paths.items()}
                agv, d, start = pickup_arrival_pick(tt.tg.graph, paths, h, pending)
                assert next(mine) == (agv, d, start)
                assert tt.paths[agv][done[agv]].steps[0].start == start
                pending.remove(d)
                done[agv] += 1
        assert next(mine, None) is None
        assert done == {agv: len(plist) for agv, plist in tt.paths.items()}
        plans.append(tt.tg.graph.coords is None)
    assert plans == [False] * (len(PINNED_PLANS) + 3 * len(PRESETS)) + [True]


def test_a_nearer_agv_free_later_wins(monkeypatch):
    # AGV 1 waits on (0, 1), AGV 2 on (5, 4), both free at tick 0. Demand 0
    # picks up one edge from AGV 2, which ends it on (5, 3) at tick 30.
    # Demand 1's pickup (4, 3) is then one edge from AGV 2, 30 + 10 ticks,
    # and six from AGV 1, 0 + 60 ticks: AGV 2 takes it, though AGV 1 has
    # been free since tick 0 and free-first assignment would have sent it.
    commits = recorded_commits(monkeypatch)
    g = build_grid(6, 10)
    at = lambda *xy: rid_at(g, xy)
    placements = {1: SourceSpec(at(0, 1)), 2: SourceSpec(at(5, 4))}
    demands = [Demand(0, at(4, 4), at(4, 3)), Demand(1, at(4, 3), at(3, 3))]
    tt = build(g, placements, demands)
    assert_clean(tt)
    assert service_faults(tt, demands, 0, 0) == []
    assert commits == [(2, demands[0], 0), (2, demands[1], 30)]
    assert tt.paths[2][1].steps[-1].resource == at(5, 3)
    assert len(tt.paths[1]) == 1 and tt.paths[1][0].arrival == 0


def test_ties_go_to_the_lower_agv_then_the_lower_demand(monkeypatch):
    # AGV 1 on (0, 2) and AGV 2 on (2, 0), both free at tick 0, are two
    # edges from demand 5's pickup (2, 2). AGV 1 is as near demand 7's
    # (1, 3) and AGV 2 demand 3's (3, 1); each is four from the other.
    # Every AGV's best is 20 ticks: AGV 1 goes first, and takes demand 5
    # before 7, though AGV 2's best, demand 3, has the lowest id.
    commits = recorded_commits(monkeypatch)
    g = build_grid(6, 10)
    at = lambda *xy: rid_at(g, xy)
    placements = {1: SourceSpec(at(0, 2)), 2: SourceSpec(at(2, 0))}
    demands = [
        Demand(7, at(1, 3), at(1, 4)),
        Demand(3, at(3, 1), at(4, 1)),
        Demand(5, at(2, 2), at(3, 2)),
    ]
    tt = build(g, placements, demands)
    assert_clean(tt)
    assert service_faults(tt, demands, 0, 0) == []
    assert [(agv, d.id, start) for agv, d, start in commits[:2]] == [(1, 5, 0), (2, 3, 0)]


def test_each_commit_rescans_only_the_agvs_whose_best_it_took(monkeypatch):
    # Each batch scans every AGV once; after each commit but the batch's
    # last, exactly the AGVs whose best was the demand just taken are
    # rescanned, in id order, each from where its last path ends. An AGV is
    # told apart by its anchor's coords, which no two AGVs share.
    events = []
    cheapest, assign = scheduling._cheapest, scheduling._assignments

    def scan(pickups, start, x, y, unit):
        best = cheapest(pickups, start, x, y, unit)
        events.append(((x, y), best))
        return best

    def assignments(*args):
        for d, agv in assign(*args):
            events.append((agv, d.id))
            yield d, agv

    monkeypatch.setattr(scheduling, "_cheapest", scan)
    monkeypatch.setattr(scheduling, "_assignments", assignments)
    scans = rescans = full = 0
    for tt, demands, _ in chain(pinned_plans(), mixed_horizon_plans()):
        coords = tt.tg.graph.coords
        fleet = sorted(tt.paths)
        ends = {agv: [coords[p.steps[-1].resource] for p in plist] for agv, plist in tt.paths.items()}
        done = dict.fromkeys(fleet, 0)
        mine = iter(events[:])
        events.clear()
        for h in sorted({d.horizon for d in demands}):
            size = sum(d.horizon == h for d in demands)
            best, due = {}, fleet
            for k in range(size):
                for a in due:
                    xy, best[a] = next(mine)
                    assert xy == ends[a][done[a]]
                scans += len(due)
                agv, taken = next(mine)
                assert best[agv][1] == taken
                assert (best[agv][0], agv) == min((best[a][0], a) for a in fleet)
                done[agv] += 1
                due = [a for a in fleet if best[a][1] == taken]
                if k < size - 1:
                    rescans += len(due)
                    full += len(fleet)
        assert next(mine, None) is None
    # On these fleets of 3 to 6 AGVs: 493 rescans, where rescanning the
    # whole fleet after each commit would make 986.
    assert 0 < rescans < full
