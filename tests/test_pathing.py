"""Earliest-arrival search: boundary semantics, guides, and an exhaustive oracle."""

import random

import pytest

from agvtime.graph import (
    Edge,
    InvalidParameterError,
    ResourceGraph,
    build_grid,
)
from agvtime.intervals import INF, Interval
from agvtime.pathing import (
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

from oracles import exhaustive_earliest_arrival


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
    tg.reserve(1, 9, Interval(1000, 5000))
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 0)])
    assert p.arrival == 5000
    assert Step(0, 0, 4000) in p.steps
    assert Step(2, 4000, 5000) in p.steps


def test_arrival_tick_strictly_inside_window():
    tg = TimeGraph(line([1000]))
    tg.reserve(1, 9, Interval(1000, 2000))
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 0)])
    # landing exactly at the window end 1000 is not a free arrival tick
    assert p.arrival == 2000


def test_departure_may_touch_own_window_end():
    tg = TimeGraph(line([1000]))
    tg.reserve(2, 9, Interval(0, 1000))
    tg.reserve(0, 9, Interval(1000, 2000))
    p = time_path(tg, 1, SourceSpec(0), [Stage({1}, 0)])
    assert p.arrival == 2000
    assert Step(0, 0, 1000) in p.steps


def test_window_trap_forces_later_departure():
    g = line([10, 10])
    tg = TimeGraph(g)
    tg.reserve(1, 9, Interval(12, 30))
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
    tg.reserve(1, 9, Interval(15, 40))
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
        tg.reserve(2, 9, Interval(*hold))
        assert time_path(tg, 1, source, stages, earliest=100) is None, hold
    # holds that end at earliest or start at tau leave the crossing free
    tg = TimeGraph(line([1000]))
    tg.reserve(2, 9, Interval(0, 100))
    tg.reserve(2, 9, Interval(700, 900))
    p = time_path(tg, 1, source, stages, earliest=100)
    assert p.steps[0] == Step(2, 100, 700)
    assert p.arrival == 700


def test_infinite_hold_needs_window_open_to_infinity():
    tg = TimeGraph(line([1000]))
    tg.reserve(1, 9, Interval(5000, INF))
    assert time_path(tg, 1, SourceSpec(0), [Stage({1}, INF)]) is None

    tg = TimeGraph(line([1000]))
    tg.reserve(1, 9, Interval(5000, 9000))
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
        tg.reserve(rid, 9, Interval(s, e))
        busy.setdefault(rid, set()).update(range(s, e))
    n_stages = rng.randrange(1, 3)
    stages = []
    for _ in range(n_stages):
        targets = {rng.randrange(g.num_nodes) for _ in range(rng.randrange(1, 3))}
        stages.append(Stage(targets, rng.randrange(0, 4)))
    return g, tg, busy, src, stages


def test_matches_exhaustive_search():
    for seed in range(40):
        g, tg, busy, src, stages = seeded_setup(seed)
        p = time_path(tg, 1, SourceSpec(src), stages)
        want = exhaustive_earliest_arrival(
            g, busy, 1, src, 0, [(st.targets, st.stop) for st in stages], horizon=200
        )
        if want is None:
            assert p is None, seed
        else:
            assert p is not None and p.arrival == want, seed
            assert audit_safety(tg, p.occupations()) is None, seed


def test_guides_agree_on_arrival():
    for seed in range(40, 60):
        g, tg, busy, src, stages = seeded_setup(seed, weight=10)
        results = []
        for guide in (zero_guide(g, stages), manhattan_guide(g, stages)):
            p = time_path(tg, 1, SourceSpec(src), stages, guide=guide)
            results.append(None if p is None else p.arrival)
        assert results[0] == results[1], seed


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
    tg.reserve(1, 2, Interval(0, 40))
    p = multi_source_time_path(tg, sources, [Stage({1}, 0)])
    assert p.agv == 2 and p.arrival == 20


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
            tg.reserve(rid, 9, Interval(s, e))
            busy.setdefault(rid, set()).update(range(s, e))
        p = time_path(tg, 1, SourceSpec(src), stages, earliest=earliest)
        want = exhaustive_earliest_arrival(
            g, busy, 1, src, earliest, [(st.targets, st.stop) for st in stages], horizon=250
        )
        if want is None:
            assert p is None, seed
        else:
            found += 1
            assert p is not None and p.arrival == want, seed
            assert p.steps[0].start == earliest, seed
            assert audit_safety(tg, p.occupations()) is None, seed
    assert found >= 30


def counted_reads(monkeypatch, tg):
    """Per (resource, agv) count of ``tg.gaps_from`` calls from now on."""
    reads = {}
    real = tg.gaps_from

    def gaps_from(rid, agv, since):
        reads[rid, agv] = reads.get((rid, agv), 0) + 1
        return real(rid, agv, since)

    monkeypatch.setattr(tg, "gaps_from", gaps_from)
    return reads


def test_search_reads_each_gap_list_once(monkeypatch):
    g = build_grid(6, 10)
    tg = TimeGraph(g)
    a = rid_at(g, (1, 1))
    b = rid_at(g, (4, 4))
    m = rid_at(g, (2, 3))
    for xy, ivl in (((2, 2), Interval(0, 30)), ((3, 3), Interval(40, 90)), ((1, 2), Interval(10, 25))):
        tg.reserve(rid_at(g, xy), 9, ivl)
    reads = counted_reads(monkeypatch, tg)
    p = time_path(tg, 1, SourceSpec(a), [Stage({m}, 5), Stage({b}, 0)], earliest=20)
    assert p is not None and p.arrival == 85
    assert reads and max(reads.values()) == 1

    # A race: AGV 2 holds node 1 itself, AGV 1 may land there only from 40.
    g = line([10, 20])
    tg = TimeGraph(g)
    tg.reserve(1, 2, Interval(0, 40))
    tg.reserve(0, 9, Interval(0, 3))
    tg.reserve(4, 9, Interval(1, 4))
    reads = counted_reads(monkeypatch, tg)
    p = multi_source_time_path(tg, [(1, SourceSpec(0)), (2, SourceSpec(2))], [Stage({1}, 0)], earliest=5)
    assert p.agv == 2 and p.arrival == 25
    assert p.steps == (Step(2, 5, 5), Step(4, 5, 25), Step(1, 25, 25))
    assert {agv for _, agv in reads} == {1, 2}
    assert max(reads.values()) == 1
