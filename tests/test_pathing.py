"""Earliest-arrival search: boundary semantics, guides, and an exhaustive oracle."""

import hashlib
import heapq
import random

import pytest

from agvtime import pathing
from agvtime.graph import (
    Edge,
    InvalidParameterError,
    ResourceGraph,
    build_grid,
    subdivide,
)
from agvtime.intervals import INF
from agvtime.pathing import (
    NearestTarget,
    SourceSpec,
    Stage,
    Step,
    manhattan_guide,
    multi_source_time_path,
    route_corridor,
    time_path,
    zero_guide,
)
from agvtime.timegraph import TimeGraph, audit_safety

from oracles import (
    counted_reads,
    eager_multi_source_time_path,
    exhaustive_earliest_arrival,
    nearest_target_guide,
    shortest_ticks,
)


def line(weights, anchors=()):
    edges = [Edge(i, i + 1, w) for i, w in enumerate(weights)]
    return ResourceGraph(len(weights) + 1, edges, anchors)


def test_free_corridor_direct():
    tg = TimeGraph(line([1000]))
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 0)])
    assert p.arrival == 1000
    assert p.steps == (Step(0, 0, 0), Step(2, 0, 1000), Step(1, 1000, 1000))


def test_waits_until_destination_frees():
    tg = TimeGraph(line([1000]))
    tg.reserve(1, 9, 1000, 5000)
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 0)])
    assert p.arrival == 5000
    assert Step(0, 0, 4000) in p.steps
    assert Step(2, 4000, 5000) in p.steps


def test_arrival_tick_strictly_inside_window():
    tg = TimeGraph(line([1000]))
    tg.reserve(1, 9, 1000, 2000)
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 0)])
    # landing exactly at the window end 1000 is not a free arrival tick
    assert p.arrival == 2000


def test_departure_may_touch_own_window_end():
    tg = TimeGraph(line([1000]))
    tg.reserve(2, 9, 0, 1000)
    tg.reserve(0, 9, 1000, 2000)
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 0)])
    assert p.arrival == 2000
    assert Step(0, 0, 1000) in p.steps


def test_window_trap_forces_later_departure():
    g = line([10, 10])
    tg = TimeGraph(g)
    tg.reserve(1, 9, 12, 30)
    stages = [Stage({1}, 5), Stage({2}, 0)]
    p = time_path(tg, 1, SourceSpec(0), stages)
    # reaching the middle at 10 is a trap: its window closes at 12, too soon
    # to serve 5 ticks, so the best plan leaves home late and serves at 30
    assert p.arrival == 45
    busy = {1: set(range(12, 30))}
    assert (
        exhaustive_earliest_arrival(
            g, busy, 1, 0, 0, [({1}, 5), ({2}, 0)], horizon=100
        )
        == 45
    )


def test_completion_on_window_boundary_departs_at_once():
    g = line([10, 10])
    tg = TimeGraph(g)
    tg.reserve(1, 9, 15, 40)
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 5), Stage({2}, 0)])
    assert p.arrival == 25
    assert Step(1, 10, 15) in p.steps
    assert Step(4, 15, 25) in p.steps


def test_edge_source_finishes_crossing():
    tg = TimeGraph(line([1000]))
    p = time_path(tg, 1, SourceSpec(2, elapsed=400), [Stage({1}, 0)])
    assert p.steps[0] == Step(2, 0, 600)
    assert p.arrival == 600


def test_edge_source_toward_named_end():
    tg = TimeGraph(line([1000]))
    p = time_path(tg, 1, SourceSpec(2, elapsed=400, toward=0), [Stage({0}, 0)])
    assert p.steps[0] == Step(2, 0, 600)
    assert p.arrival == 600
    assert p.steps[-1].resource == 0


def test_edge_source_blocked_mid_crossing():
    # From tick 100 the AGV needs the edge for [100, 700) to finish crossing.
    source, stages = SourceSpec(2, elapsed=400), [Stage({1}, 0)]
    for hold in ((300, 310), (50, 101), (699, 800), (0, INF)):
        tg = TimeGraph(line([1000]))
        tg.reserve(2, 9, *hold)
        assert time_path(tg, 1, source, stages, earliest=100) is None, hold
    # holds that end at earliest or start at tau leave the crossing free
    tg = TimeGraph(line([1000]))
    tg.reserve(2, 9, 0, 100)
    tg.reserve(2, 9, 700, 900)
    p = time_path(tg, 1, source, stages, earliest=100)
    assert p.steps[0] == Step(2, 100, 700)
    assert p.arrival == 700


def test_infinite_hold_needs_window_open_to_infinity():
    tg = TimeGraph(line([1000]))
    tg.reserve(1, 9, 5000, INF)
    assert time_path(tg, 1, SourceSpec(0), [Stage({1}, INF)]) is None

    tg = TimeGraph(line([1000]))
    tg.reserve(1, 9, 5000, 9000)
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, INF)])
    assert p.arrival == 9000
    assert p.steps[-1] == Step(1, 9000, INF)


def test_route_validation():
    tg = TimeGraph(line([1000]))
    with pytest.raises(InvalidParameterError):
        time_path(tg, 1, SourceSpec(0), [])
    with pytest.raises(InvalidParameterError):
        time_path(tg, 1, SourceSpec(0), [Stage(set(), 0)])
    with pytest.raises(InvalidParameterError):
        time_path(tg, 1, SourceSpec(0), [Stage({1}, INF), Stage({0}, 0)])
    with pytest.raises(InvalidParameterError):
        time_path(tg, 1, SourceSpec(0), [Stage({1}, -2)])


@pytest.mark.parametrize(
    "source, stages",
    [
        (SourceSpec(2, 2.5), [Stage({1}, 0)]),
        (SourceSpec(0.0), [Stage({1}, 0)]),
        (SourceSpec(True), [Stage({0}, 0)]),
        (SourceSpec(0), [Stage({1}, 2.5), Stage({0}, INF)]),
        (SourceSpec(0), [Stage({1}, True)]),
    ],
)
def test_positions_and_stops_must_be_integers(source, stages):
    # Python callers bypass the scenario files' integer rule; the search's
    # own gates apply it, so no fractional tick reaches a path.
    tg = TimeGraph(line([1000]))
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        time_path(tg, 1, source, stages)


def rid_at(g, xy):
    return g.coords.index(xy)


def test_manhattan_guide_values():
    g = build_grid(5, 5000)
    a = rid_at(g, (1, 1))
    b = rid_at(g, (3, 4))
    guide = manhattan_guide(g, [Stage({b}, INF)])
    assert guide(a, 0) == 5 * 5000
    assert guide(b, 0) == 0
    assert guide(a, 1) == 0.0

    m = rid_at(g, (2, 1))
    two = manhattan_guide(g, [Stage({m}, 7), Stage({b}, INF)])
    assert two(a, 0) == 5000 * 1 + 7 + 5000 * 4
    assert two(m, 1) == 5000 * 4


def test_nearest_target_guide_is_exact_and_consistent():
    directed = directed_cycle_graph()
    for g in (build_grid(6, 10), subdivide(build_grid(5, 6), 3), directed):
        h = nearest_target_guide(g, [Stage(g.anchors, INF)])
        for u in range(g.num_nodes):
            ticks = shortest_ticks(g, u)
            assert h(u, 0) == min((ticks[a] for a in g.anchors if a in ticks), default=INF), u
            assert h(u, 1) == 0
        assert all(h(a, 0) == 0 for a in g.anchors)
        for u, out in enumerate(g.moves):
            for _, v, w in out:
                assert h(u, 0) <= w + h(v, 0), (u, v)
    h = nearest_target_guide(directed, [Stage(directed.anchors, INF)])
    assert [h(u, 0) for u in range(6)] == [0, 9, 5, 7, 0, INF]


def directed_cycle_graph():
    # 0 -> 1 -> 2 -> 0 is a directed cycle; 3 reaches anchor 4 only one way
    # and 5 reaches no anchor at all.
    return ResourceGraph(
        6,
        [Edge(0, 1, 3, True), Edge(1, 2, 4, True), Edge(2, 0, 5, True), Edge(2, 3, 2),
         Edge(3, 4, 7, True), Edge(4, 5, 2, True)],
        anchors={0, 4},
    )


def random_graph(rng, n):
    """n nodes on a ring plus random chords, some directed, weights 1-4 so
    that many nodes have shortest paths of equal length to two targets."""
    edges = [Edge(i, (i + 1) % n, rng.randint(1, 4), rng.random() < 0.3) for i in range(n)]
    for _ in range(n):
        a, b = rng.sample(range(n), 2)
        edges.append(Edge(a, b, rng.randint(1, 4), rng.random() < 0.3))
    return ResourceGraph(n, edges, anchors=())


def assert_exact_and_consistent(g, h, targets):
    fresh = nearest_target_guide(g, [Stage(targets, INF)])
    assert [h(u, 0) for u in range(g.num_nodes)] == [fresh(u, 0) for u in range(g.num_nodes)]
    assert all(h(u, 1) == 0 for u in range(g.num_nodes))
    for u, out in enumerate(g.moves):
        for _, v, w in out:
            assert h(u, 0) <= w + h(v, 0), (u, v)


def assert_members_partition(nearest, g):
    # Each open target lists exactly the nodes rooted at it, the lists cover
    # every node of finite distance once, and no closed target keeps a list.
    assert nearest._members.keys() == nearest.open
    listed = [v for members in nearest._members.values() for v in members]
    assert sorted(listed) == [v for v in range(g.num_nodes) if nearest.bound(v, 0) < INF]
    for t, members in nearest._members.items():
        assert all(nearest.root[v] == t for v in members), t


def test_nearest_target_close_stays_exact_and_consistent():
    # Targets close a few at a time, as anchorisation closes a parked AGV's
    # footprint ball; after each close the bound must equal a fresh build
    # over the targets still open.
    rng = random.Random(7)
    graphs = [directed_cycle_graph()]
    for _ in range(6):
        graphs.append(build_grid(rng.randint(4, 8), rng.choice((1, 2, 10))))
        graphs.append(subdivide(build_grid(rng.randint(4, 6), 6), rng.choice((2, 3))))
        graphs.append(random_graph(rng, rng.randint(8, 40)))
    for g in graphs:
        nodes = list(range(g.num_nodes))
        targets = set(g.anchors) or set(rng.sample(nodes, max(2, g.num_nodes // 4)))
        nearest = NearestTarget(g, targets)
        h = nearest.bound
        assert_exact_and_consistent(g, h, targets)
        assert_members_partition(nearest, g)
        # A non-target node and every edge resource change nothing.
        others = [u for u in nodes if u not in targets]
        nearest.close(others[:3] + list(range(g.num_nodes, g.num_resources)))
        assert_exact_and_consistent(g, h, targets)
        assert_members_partition(nearest, g)
        while targets:
            shut = set(rng.sample(sorted(targets), rng.randint(1, min(3, len(targets)))))
            # Closed targets and non-targets ride along and change nothing.
            rest = [u for u in nodes if u not in targets]
            nearest.close(shut | set(rng.sample(rest, min(2, len(rest)))))
            targets -= shut
            assert nearest.open == targets
            assert_exact_and_consistent(g, h, targets)
            assert_members_partition(nearest, g)
        assert all(h(u, 0) == INF for u in nodes)
        nearest.close(nodes)  # nothing left to close
        assert all(h(u, 0) == INF for u in nodes)
        assert_members_partition(nearest, g)


def test_nearest_target_close_on_the_directed_graph():
    g = directed_cycle_graph()
    nearest = NearestTarget(g, g.anchors)
    h = nearest.bound
    nearest.close({4})
    assert [h(u, 0) for u in range(6)] == [0, 9, 5, 7, INF, INF]
    nearest.close({0, 5})
    assert [h(u, 0) for u in range(6)] == [INF] * 6


def seeded_setup(seed, weight=2):
    rng = random.Random(seed)
    g = build_grid(4, weight)
    tg = TimeGraph(g)
    busy = {}
    src = rng.randrange(g.num_nodes)
    for _ in range(rng.randrange(3, 9)):
        rid = rng.randrange(g.num_resources)
        s = rng.randrange(1, 50)
        e = s + rng.randrange(1, 13)
        if rid == src and s <= 0:
            continue
        tg.reserve(rid, 9, s, e)
        busy.setdefault(rid, set()).update(range(s, e))
    n_stages = rng.randrange(1, 3)
    stages = []
    for _ in range(n_stages):
        targets = {rng.randrange(g.num_nodes) for _ in range(rng.randrange(1, 3))}
        stages.append(Stage(targets, rng.randrange(0, 4)))
    return g, tg, busy, src, stages


def test_matches_exhaustive_search():
    # Both guides: the guided search breaks equal-f ties toward deeper labels,
    # which must still leave every arrival optimal and every path safe.
    for seed in range(40):
        g, tg, busy, src, stages = seeded_setup(seed)
        want = exhaustive_earliest_arrival(
            g, busy, 1, src, 0, [(st.targets, st.stop) for st in stages], horizon=200
        )
        for make_guide in (zero_guide, manhattan_guide):
            p = time_path(tg, 1, SourceSpec(src), stages, guide=make_guide(g, stages))
            if want is None:
                assert p is None, (seed, make_guide)
            else:
                assert p is not None and p.arrival == want, (seed, make_guide)
                assert audit_safety(tg, p.occupations()) is None, (seed, make_guide)


def test_guides_agree_on_arrival():
    for seed in range(40, 60):
        g, tg, busy, src, stages = seeded_setup(seed, weight=10)
        results = []
        for guide in (zero_guide(g, stages), manhattan_guide(g, stages)):
            p = time_path(tg, 1, SourceSpec(src), stages, guide=guide)
            results.append(None if p is None else p.arrival)
        assert results[0] == results[1], seed


def test_zero_guide_order_is_pinned():
    # The zero-guided steps of seeded_setup seeds 0-39 and of the
    # test_multi_source_* races, hashed: route search under the zero guide
    # (full-zero, partial-*) and both anchorisers read these tie orders, so a
    # change to the heap key must leave them byte-identical.
    def outputs():
        for seed in range(40):
            g, tg, busy, src, stages = seeded_setup(seed)
            yield time_path(tg, 1, SourceSpec(src), stages)
        g = line([10, 20])
        sources = [(1, SourceSpec(0)), (2, SourceSpec(2))]
        yield multi_source_time_path(TimeGraph(g), sources, [Stage({1}, 0)])
        tg = TimeGraph(g)
        tg.reserve(1, 2, 0, 40)
        yield multi_source_time_path(tg, sources, [Stage({1}, 0)])
        sources = [(1, SourceSpec(4, elapsed=2)), (2, SourceSpec(6, elapsed=5))]
        tg = TimeGraph(line([10, 10, 10]))
        yield multi_source_time_path(tg, sources, [Stage({3}, 0)], earliest=3)

    digest = hashlib.sha256()
    for p in outputs():
        digest.update(repr(None if p is None else (p.agv, p.steps)).encode())
    assert digest.hexdigest() == "d2028825046fffe49f643b9934231860bc035123547e8fcf13487aa28f18d047"


def race_result(tg, sources, stages, **kwargs):
    p = multi_source_time_path(tg, sources, stages, **kwargs)
    return None if p is None else (p.agv, p.steps, p.arrival)


def assert_bound_changes_nothing(tg, sources, stages, bound, **kwargs):
    free = race_result(tg, sources, stages, **kwargs)
    assert race_result(tg, sources, stages, bound=bound, **kwargs) == free
    return free


def test_bound_leaves_seeded_searches_unchanged():
    found = 0
    for seed in range(40):
        g, tg, busy, src, stages = seeded_setup(seed)
        bound = manhattan_guide(g, stages)
        found += assert_bound_changes_nothing(tg, [(1, SourceSpec(src))], stages, bound) is not None
    assert found >= 30


def test_bound_leaves_multi_source_races_unchanged():
    # The three test_multi_source_* races; a line carries no coordinates, so
    # the exact nearest-target guide bounds them.
    g = line([10, 20])
    stages = [Stage({1}, 0)]
    bound = nearest_target_guide(g, stages)
    sources = [(1, SourceSpec(0)), (2, SourceSpec(2))]
    assert assert_bound_changes_nothing(TimeGraph(g), sources, stages, bound)[0] == 1
    tg = TimeGraph(g)
    tg.reserve(1, 2, 0, 40)
    assert assert_bound_changes_nothing(tg, sources, stages, bound)[0] == 2

    g = line([10, 10, 10])
    stages = [Stage({3}, 0)]
    sources = [(1, SourceSpec(4, elapsed=2)), (2, SourceSpec(6, elapsed=5))]
    got = assert_bound_changes_nothing(
        TimeGraph(g), sources, stages, nearest_target_guide(g, stages), earliest=3
    )
    assert got[0] == 2 and got[2] == 8


def test_bound_leaves_random_races_unchanged():
    # Small grids with reservations held by bystanders and by the racers
    # themselves, node and mid-edge sources, later start ticks, one- and
    # two-stage routes; both bounds, under both orders.
    found = 0
    for seed in range(60):
        rng = random.Random(seed)
        g = build_grid(rng.choice((4, 5)), rng.choice((2, 3)))
        tg = TimeGraph(g)
        racers = rng.sample(range(1, 9), rng.randrange(1, 5))
        for _ in range(rng.randrange(4, 14)):
            s = rng.randrange(0, 40)
            owner = rng.choice((9, 9, *racers))
            tg.reserve(rng.randrange(g.num_resources), owner, s, s + rng.randrange(1, 15))
        sources = []
        for agv in racers:
            rid = rng.randrange(g.num_resources)
            if g.is_node(rid):
                sources.append((agv, SourceSpec(rid)))
            else:
                sources.append((agv, SourceSpec(rid, elapsed=rng.randrange(g.edge_at(rid).weight))))
        targets = set(rng.sample(range(g.num_nodes), rng.randrange(1, 4)))
        stages = [Stage(targets, rng.choice((0, 2, INF)))]
        if rng.random() < 0.3:
            stages = [Stage(targets, rng.randrange(3)), Stage({rng.randrange(g.num_nodes)}, 0)]
        earliest = rng.choice((0, 0, rng.randrange(1, 20)))
        for bound in (nearest_target_guide(g, stages), manhattan_guide(g, stages)):
            for guide in (None, manhattan_guide(g, stages)):
                got = assert_bound_changes_nothing(
                    tg, sources, stages, bound, earliest=earliest, guide=guide
                )
                found += got is not None
    assert found >= 100


def test_race_admits_racers_by_their_bound(monkeypatch):
    # 0 -e5- 1 -e6- 2 -e7- 3 -e8- 4, every edge 10 ticks, the target node 0.
    # AGV 1 on node 1 finishes at 10; AGV 2 on node 4 (bound 40) and AGV 3,
    # 2 ticks into e8 toward node 3 (bound 8 + 30), cannot beat that, so
    # their roots are never built and their start gaps never read.
    g = line([10, 10, 10, 10])
    stages = [Stage({0}, INF)]
    sources = [(2, SourceSpec(4)), (3, SourceSpec(8, elapsed=2, toward=3)), (1, SourceSpec(1))]
    bound = nearest_target_guide(g, stages)
    tg = TimeGraph(g)
    reads = counted_reads(monkeypatch, tg)
    got = race_result(tg, sources, stages, bound=bound)
    assert got == (1, (Step(1, 0, 0), Step(5, 0, 10), Step(0, 10, INF)), 10)
    assert {agv for _, agv in reads} == {1}
    assert got == race_result(TimeGraph(g), sources, stages)
    # With node 1 held by someone else until 20, AGV 1 cannot start: AGV 3
    # is admitted next and wins at 38, its crossing leading its path, and
    # AGV 2 is still never read; the unbounded race agrees.
    tg = TimeGraph(g)
    tg.reserve(1, 9, 0, 20)
    reads = counted_reads(monkeypatch, tg)
    got = race_result(tg, sources, stages, bound=bound)
    assert got[0] == 3 and got[2] == 38 and got[1][0] == Step(8, 0, 8)
    assert {agv for _, agv in reads} == {1, 3}
    assert got == race_result(tg, sources, stages)


def counted_pushes(monkeypatch):
    """Labels the searches push from now on, as a one-item list; the
    stand-ins of deferred moves, -INF where a label has -entry, are not
    labels."""
    pushed = [0]
    real = heapq.heappush

    def heappush(heap, item):
        pushed[0] += item[2] != -INF
        real(heap, item)

    monkeypatch.setattr(pathing.heapq, "heappush", heappush)
    return pushed


def test_guided_plateau_runs_deep(monkeypatch):
    # On an empty grid every label on a shortest route has the same f; ties
    # broken toward the deepest label walk one route (47 labels with every
    # move expanded at once, where breadth-first ties built 97), and a move
    # that raises the guide is never expanded: 26 labels here.
    g = build_grid(10, 10)
    stages = [Stage({rid_at(g, (8, 8))}, 0)]
    pushed = counted_pushes(monkeypatch)
    p = time_path(TimeGraph(g), 1, SourceSpec(rid_at(g, (1, 1))), stages, guide=manhattan_guide(g, stages))
    assert p.arrival == 140
    assert pushed[0] <= 30


def test_search_is_deterministic():
    g, tg, _, src, stages = seeded_setup(7)
    a = time_path(tg, 1, SourceSpec(src), stages)
    b = time_path(tg, 1, SourceSpec(src), stages)
    assert a.steps == b.steps


def test_corridor_keeps_path_inside():
    g = build_grid(5, 10)
    a = rid_at(g, (1, 1))
    t = rid_at(g, (3, 3))
    corridor = route_corridor(g, [a, t])
    assert corridor is not None
    tg = TimeGraph(g)
    free = time_path(tg, 1, SourceSpec(a), [Stage({t}, 0)])
    boxed = time_path(tg, 1, SourceSpec(a), [Stage({t}, 0)], allowed=corridor)
    assert {s.resource for s in boxed.steps} <= corridor
    assert boxed.arrival == free.arrival == 40


def test_multi_source_soonest_finisher_wins():
    g = line([10, 20])
    sources = [(1, SourceSpec(0)), (2, SourceSpec(2))]
    tg = TimeGraph(g)
    p = multi_source_time_path(tg, sources, [Stage({1}, 0)])
    assert p.agv == 1 and p.arrival == 10

    tg = TimeGraph(g)
    tg.reserve(1, 2, 0, 40)
    p = multi_source_time_path(tg, sources, [Stage({1}, 0)])
    assert p.agv == 2 and p.arrival == 20


def test_multi_source_race_between_edge_sources():
    # 0 -e4- 1 -e5- 2 -e6- 3: AGV 1 is 2 ticks into e4, AGV 2 is 5 ticks
    # into e6 and so reaches node 3 first; its own crossing leads its path.
    g = line([10, 10, 10])
    sources = [(1, SourceSpec(4, elapsed=2)), (2, SourceSpec(6, elapsed=5))]
    tg = TimeGraph(g)
    p = multi_source_time_path(tg, sources, [Stage({3}, 0)], earliest=3)
    assert p.agv == 2 and p.arrival == 8
    assert p.steps[0] == Step(6, 3, 8)
    assert all(s.resource != 4 for s in p.steps)


def test_matches_exhaustive_search_from_later_tick():
    # Reservations near the source end before ``earliest``, end exactly at
    # it, and straddle it: windows that end by ``earliest`` are dropped, the
    # ones that straddle it must stay.
    found = 0
    for seed in range(40):
        g, tg, busy, src, stages = seeded_setup(seed)
        rng = random.Random(seed)
        earliest = rng.randrange(5, 30)
        near = [r for erid, dest, _ in g.moves[src] for r in (erid, dest)]
        for rid, s, e in (
            (rng.choice([src, *near]), earliest - 5, earliest - 2),
            (rng.choice([src, *near]), earliest - 3, earliest),
            (rng.choice(near), earliest - 2, earliest + 4),
        ):
            tg.reserve(rid, 9, s, e)
            busy.setdefault(rid, set()).update(range(s, e))
        want = exhaustive_earliest_arrival(
            g, busy, 1, src, earliest, [(st.targets, st.stop) for st in stages], horizon=250
        )
        found += want is not None
        for make_guide in (zero_guide, manhattan_guide):
            guide = make_guide(g, stages)
            p = time_path(tg, 1, SourceSpec(src), stages, earliest=earliest, guide=guide)
            if want is None:
                assert p is None, (seed, make_guide)
            else:
                assert p is not None and p.arrival == want, (seed, make_guide)
                assert p.steps[0].start == earliest, (seed, make_guide)
                assert audit_safety(tg, p.occupations()) is None, (seed, make_guide)
    assert found >= 30


def test_search_reads_each_gap_list_once(monkeypatch):
    g = build_grid(6, 10)
    tg = TimeGraph(g)
    a = rid_at(g, (1, 1))
    b = rid_at(g, (4, 4))
    m = rid_at(g, (2, 3))
    for xy, span in (((2, 2), (0, 30)), ((3, 3), (40, 90)), ((1, 2), (10, 25))):
        tg.reserve(rid_at(g, xy), 9, *span)
    stages = [Stage({m}, 5), Stage({b}, 0)]
    # Unbounded, then bounded: both passes of a bounded search share one memo.
    for bound in (None, manhattan_guide(g, stages)):
        reads = counted_reads(monkeypatch, tg)
        p = time_path(tg, 1, SourceSpec(a), stages, earliest=20, bound=bound)
        assert p is not None and p.arrival == 85
        assert reads and max(reads.values()) == 1

    # A race: AGV 2 holds node 1 itself, AGV 1 may land there only from 40.
    g = line([10, 20])
    tg = TimeGraph(g)
    tg.reserve(1, 2, 0, 40)
    tg.reserve(0, 9, 0, 3)
    tg.reserve(4, 9, 1, 4)
    sources, stages = [(1, SourceSpec(0)), (2, SourceSpec(2))], [Stage({1}, 0)]
    for bound in (None, nearest_target_guide(g, stages)):
        reads = counted_reads(monkeypatch, tg)
        p = multi_source_time_path(tg, sources, stages, earliest=5, bound=bound)
        assert p.agv == 2 and p.arrival == 25
        assert p.steps == (Step(2, 5, 5), Step(4, 5, 25), Step(1, 25, 25))
        assert {agv for _, agv in reads} == {1, 2}
        assert max(reads.values()) == 1


def counted(h, tag, calls):
    """``h`` recording each call as (tag, node, stage) in ``calls``."""

    def guide(node, stage):
        calls.append((tag, node, stage))
        return h(node, stage)

    return guide


def work_digest(monkeypatch, searches):
    """sha256 over each search's guide calls and its tg.gaps_from reads;
    ``searches`` yields (search, calls, tg, args, kwargs)."""
    digest = hashlib.sha256()
    for search, calls, tg, args, kwargs in searches:
        calls.clear()
        reads = counted_reads(monkeypatch, tg)
        search(tg, *args, **kwargs)
        digest.update(repr((calls, sorted(reads.items()))).encode())
    return digest.hexdigest()


def test_search_work_is_pinned(monkeypatch):
    # The zero and the Manhattan guide over seeded_setup seeds 0-39. A change
    # that only makes a label or a gap read cheaper must leave every search
    # doing the same work in the same order. Digest taken once moves that
    # raise the guide were deferred, so the Manhattan guide runs once per
    # examined move and the zero guide still once per pushed label.
    def searches():
        calls = []
        for seed in range(40):
            g, tg, _, src, stages = seeded_setup(seed)
            for make_guide in (zero_guide, manhattan_guide):
                guide = counted(make_guide(g, stages), "g", calls)
                yield time_path, calls, tg, (1, SourceSpec(src), stages), {"guide": guide}

    assert work_digest(monkeypatch, searches()) == (
        "5cffaa747e44b97d06bc8d4a246d02647e2e964f019a26b4bf46271981482eea"
    )


def test_race_work_is_pinned(monkeypatch):
    # The test_multi_source_* races bounded by nearest_target_guide: the
    # bound's calls (first pass and cuts) and the guide's, and the gap reads.
    # Digest taken once racers were admitted by their bound.
    def searches():
        calls = []
        g = line([10, 20])
        stages = [Stage({1}, 0)]
        sources = [(1, SourceSpec(0)), (2, SourceSpec(2))]
        races = [(TimeGraph(g), sources, stages, 0)]
        tg = TimeGraph(g)
        tg.reserve(1, 2, 0, 40)
        races.append((tg, sources, stages, 0))
        stages = [Stage({3}, 0)]
        sources = [(1, SourceSpec(4, elapsed=2)), (2, SourceSpec(6, elapsed=5))]
        races.append((TimeGraph(line([10, 10, 10])), sources, stages, 3))
        for tg, sources, stages, earliest in races:
            kwargs = {
                "earliest": earliest,
                "guide": counted(zero_guide(tg.graph, stages), "g", calls),
                "bound": counted(nearest_target_guide(tg.graph, stages), "b", calls),
            }
            yield multi_source_time_path, calls, tg, (sources, stages), kwargs

    assert work_digest(monkeypatch, searches()) == (
        "794f6eb9bf508915f01737bf0b19eb921e6460f70ad38014bf1d4b07b6fd7b84"
    )


def multi_source_races():
    """The test_multi_source_* races as (tg, sources, stages, earliest)."""
    g = line([10, 20])
    sources = [(1, SourceSpec(0)), (2, SourceSpec(2))]
    yield TimeGraph(g), sources, [Stage({1}, 0)], 0
    tg = TimeGraph(g)
    tg.reserve(1, 2, 0, 40)
    yield tg, sources, [Stage({1}, 0)], 0
    sources = [(1, SourceSpec(4, elapsed=2)), (2, SourceSpec(6, elapsed=5))]
    yield TimeGraph(line([10, 10, 10])), sources, [Stage({3}, 0)], 3


def searched(search, tg, *args, **kwargs):
    """``search``'s result and its gap reads per (resource, agv)."""
    with pytest.MonkeyPatch.context() as mp:
        reads = counted_reads(mp, tg)
        return search(tg, *args, **kwargs), reads


def crowded_race(seed):
    """A seeded race on a small grid crowded with holds, some the racers'
    own: (tg, sources, stages, earliest), over one to three stages."""
    rng = random.Random(seed)
    g = build_grid(rng.choice((4, 5, 7)), rng.choice((1, 2, 3)))
    tg = TimeGraph(g)
    racers = rng.sample(range(1, 9), rng.randrange(1, 5))
    for _ in range(rng.randrange(4, 40)):
        s, owner = rng.randrange(0, 60), rng.choice((9, 9, *racers))
        tg.reserve(rng.randrange(g.num_resources), owner, s, s + rng.randrange(1, 15))
    sources = []
    for agv in racers:
        rid = rng.randrange(g.num_resources)
        elapsed = 0 if g.is_node(rid) else rng.randrange(g.edge_at(rid).weight)
        sources.append((agv, SourceSpec(rid, elapsed=elapsed)))
    targets = set(rng.sample(range(g.num_nodes), rng.randrange(1, 4)))
    stages = [Stage(targets, rng.choice((0, 2, INF)))]
    if rng.random() < 0.5:
        stages = [
            Stage(targets, rng.randrange(3)),
            Stage({rng.randrange(g.num_nodes)}, rng.randrange(3)),
            Stage({rng.randrange(g.num_nodes)}, 0),
        ]
    return tg, sources, stages, rng.choice((0, 0, rng.randrange(1, 20)))


def test_deferred_moves_change_no_path():
    # The search defers each move that raises the guide until it reaches the
    # move's bound; the eager search expanded every move at once. Both return
    # the same TimePath on seeded_setup seeds 0-39 under both guides (the
    # zero guide defers nothing, so it reads the same gaps too) and on the
    # test_multi_source_* races bounded by the exact nearest-target guide,
    # whose first pass that bound orders. Under the Manhattan guide most
    # deferred moves are never expanded, so fewer gaps are read in all.
    guided = []
    for seed in range(40):
        g, tg, _, src, stages = seeded_setup(seed)
        for make_guide in (zero_guide, manhattan_guide):
            args = ([(1, SourceSpec(src))], stages)
            got, reads = searched(multi_source_time_path, tg, *args, guide=make_guide(g, stages))
            want, eager_reads = searched(eager_multi_source_time_path, tg, *args, guide=make_guide(g, stages))
            assert got == want, (seed, make_guide)
            if make_guide is zero_guide:
                assert reads == eager_reads, seed
            else:
                guided.append((sum(reads.values()), sum(eager_reads.values())))
    assert sum(r for r, _ in guided) < sum(e for _, e in guided)
    races = [(*race, nearest_target_guide(race[0].graph, race[2]), None) for race in multi_source_races()]
    # A deferred move's labels are pushed late. In crowded races 424 and
    # 2027 one of them enters a dominance key at the same tick as a label
    # pushed after its stand-in: the eager search kept the older of the
    # two, so the late one is queued beside it and its older push number
    # pops first. In races 334 and 472 racers' labels tie up to their push
    # numbers, which stand-ins keep in the eager order. Any other tie rule
    # changes a path there.
    for seed in (334, 424, 472, 2027):
        tg, sources, stages, earliest = crowded_race(seed)
        guide = manhattan_guide(tg.graph, stages)
        for bound in (None, nearest_target_guide(tg.graph, stages), guide):
            races.append((tg, sources, stages, earliest, bound, guide))
    for tg, sources, stages, earliest, bound, guide in races:
        kwargs = {"earliest": earliest, "bound": bound, "guide": guide}
        got = multi_source_time_path(tg, sources, stages, **kwargs)
        assert got == eager_multi_source_time_path(tg, sources, stages, **kwargs)
