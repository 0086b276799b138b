"""Parking runs: both strategies clear small fleets, and deadlock is reported."""

import hashlib

import pytest

from agvtime import anchoring
from agvtime.anchoring import (
    blockers,
    greedy_anchorise,
    initialise_reservations,
    naive_anchorise,
)
from agvtime.footprint import normalise
from agvtime.graph import Edge, InvalidParameterError, ResourceGraph, build_adjacency_links, build_grid
from agvtime.intervals import INF
from agvtime import pathing
from agvtime.pathing import SourceSpec, check_source
from agvtime.scenarios import generate, materialise
from agvtime.timegraph import TimeGraph, audit_safety

from oracles import (
    counted_reads,
    dump_csv,
    greedy_anchorise_fixed_bound,
    greedy_anchorise_rebuilt,
    naive_anchorise_fixed_bound,
)


def line(weights, anchors):
    edges = [Edge(i, i + 1, w) for i, w in enumerate(weights)]
    return ResourceGraph(len(weights) + 1, edges, anchors)


def interior_placements(g, count):
    inner = sorted(set(range(g.num_nodes)) - g.anchors)
    return {i + 1: SourceSpec(inner[i]) for i in range(count)}


def all_occupations(result):
    out = []
    for p in result.paths.values():
        out.extend(p.occupations())
    return out


@pytest.mark.parametrize("run", [naive_anchorise, greedy_anchorise])
def test_grid_fleet_parks_cleanly(run):
    g = build_grid(4, 10)
    links = build_adjacency_links(g, 1)
    tg = TimeGraph(g)
    placements = interior_placements(g, 4)
    res = run(tg, links, placements)
    assert res.ok and not res.stalled
    assert set(res.paths) == set(placements)
    for p in res.paths.values():
        final = p.steps[-1]
        assert final.resource in g.anchors and final.end == INF
    assert audit_safety(tg, all_occupations(res)) is None


def test_naive_attempt_budget():
    g = build_grid(5, 10)
    links = build_adjacency_links(g, 1)
    tg = TimeGraph(g)
    placements = interior_placements(g, 6)
    res = naive_anchorise(tg, links, placements, seed=3)
    assert res.ok
    n = len(placements)
    assert res.attempts <= n * (n + 1) // 2


def test_initialise_pins_start_and_surroundings():
    g = build_grid(4, 10)
    links = build_adjacency_links(g, 1)
    tg = TimeGraph(g)
    initialise_reservations(tg, links, {1: SourceSpec(5)})
    pinned = {r for r, tree in enumerate(tg.trees) if len(tree)}
    assert pinned == {5} | set(links.linked[5])
    for r in pinned:
        assert tg.trees[r].intervals() == [(0, INF, frozenset({1}))]


@pytest.mark.parametrize("run", [naive_anchorise, greedy_anchorise])
def test_mutual_blockade_is_reported(run):
    # 0 - 1 - 2 - 3 with wide footprints: each AGV pins the other's only
    # escape edge forever, so neither can ever move
    g = line([10, 10, 10], anchors={0, 3})
    links = build_adjacency_links(g, 3)
    tg = TimeGraph(g)
    placements = {1: SourceSpec(1), 2: SourceSpec(2)}
    kwargs = {"seed": 0} if run is naive_anchorise else {}
    res = run(tg, links, placements, **kwargs)
    assert res.stalled == {1, 2}
    assert not res.paths


@pytest.mark.parametrize("run", [naive_anchorise, greedy_anchorise])
def test_edge_placement_parks(run):
    g = line([10, 10, 10], anchors={0, 3})
    links = build_adjacency_links(g, 1)
    tg = TimeGraph(g)
    erid = 5  # the 1 - 2 edge
    placements = {7: SourceSpec(erid, elapsed=3, toward=2)}
    kwargs = {"seed": 0} if run is naive_anchorise else {}
    res = run(tg, links, placements, **kwargs)
    assert res.ok
    p = res.paths[7]
    assert p.steps[0].resource == erid and p.steps[0].end == 7
    assert p.steps[-1].resource == 3 and p.steps[-1].end == INF
    assert audit_safety(tg, p.occupations()) is None


def test_committed_state_is_exactly_path_footprints():
    g = build_grid(4, 10)
    links = build_adjacency_links(g, 1)
    tg = TimeGraph(g)
    placements = interior_placements(g, 2)
    res = greedy_anchorise(tg, links, placements)
    assert res.ok
    from agvtime.footprint import boundary_reservations

    expect = []
    for agv, p in res.paths.items():
        expect.extend(boundary_reservations(p.steps, links, agv))
    want = set(normalise(expect))
    got = set()
    for rid, tree in enumerate(tg.trees):
        for s, e, ids in tree.intervals():
            for a in ids:
                got.add((rid, a, s, e))
    # stored intervals may be split where footprints of different AGVs abut,
    # so compare per (resource, agv) coverage instead of raw tuples
    def coverage(items):
        by = {}
        for rid, a, s, e in items:
            by.setdefault((rid, a), []).append((s, e))
        return {
            k: tuple(sorted(v)) for k, v in by.items()
        }

    cov_want = coverage(want)
    cov_got = coverage(got)
    assert set(cov_want) == set(cov_got)
    for key in cov_want:
        def merged(spans):
            out = []
            for s, e in spans:
                if out and s <= out[-1][1]:
                    out[-1] = (out[-1][0], max(out[-1][1], e))
                else:
                    out.append((s, e))
            return tuple(out)

        assert merged(list(cov_want[key])) == merged(list(cov_got[key])), key


def test_anchoriser_outputs_are_pinned():
    # Greedy and naive results on seeded fleets, hashed: who parks where and
    # when, in how many attempts, and who stalls. The search's bound must
    # leave every one of them byte-identical.
    digest = hashlib.sha256()
    cases = [dict(grid=12, agvs=20, seed=s) for s in range(10)]
    cases += [dict(grid=8, agvs=12, seed=s, subdivisions=2, link_radius=3) for s in range(5)]
    for case in cases:
        g, links, placements, _ = materialise(generate(demands=0, **case))
        for res in (
            greedy_anchorise(TimeGraph(g), links, placements),
            naive_anchorise(TimeGraph(g), links, placements, seed=case["seed"]),
        ):
            paths = [(agv, p.steps) for agv, p in sorted(res.paths.items())]
            digest.update(repr((paths, res.attempts, sorted(res.stalled))).encode())
    assert digest.hexdigest() == "9ce84db782ffa6ad7f312bda7f787dd2551ded13e6795ccbfd636cd59cc24d38"


# The 80-AGV grid-26 fleet of the fleet-parking benchmark, the grid-8 fleet
# whose generated starts stall, and small seeded fleets; naive shuffles with
# the fleet's seed.
BOUND_FLEETS = [
    dict(grid=26, agvs=80, seed=1),
    dict(grid=8, agvs=20, seed=144, subdivisions=2, link_radius=2),
    *(dict(grid=12, agvs=30, seed=s) for s in range(8)),
    *(dict(grid=16, agvs=50, seed=s) for s in range(4)),
    *(dict(grid=8, agvs=12, seed=s, subdivisions=2, link_radius=3) for s in range(6)),
]


@pytest.mark.parametrize("case", BOUND_FLEETS, ids=lambda c: "-".join(f"{k}{v}" for k, v in c.items()))
def test_open_anchor_bound_leaves_results_unchanged(case):
    # Closing each parked AGV's anchors only tightens the bound: both
    # anchorisers return what they return with the bound built once over
    # every anchor, paths, stalls, attempts and stall report alike.
    g, links, placements, _ = materialise(generate(demands=0, **case))
    runs = [
        (greedy_anchorise, greedy_anchorise_fixed_bound, {}),
        (naive_anchorise, naive_anchorise_fixed_bound, {"seed": case["seed"]}),
    ]
    for run, oracle, kwargs in runs:
        tg, want_tg = TimeGraph(g), TimeGraph(g)
        got = run(tg, links, placements, **kwargs)
        want = oracle(want_tg, links, placements, **kwargs)
        assert got == want, run.__name__
        assert blockers(tg, placements, got.stalled) == blockers(want_tg, placements, want.stalled)
        if case["seed"] == 144:
            assert got.stalled == {1, 6, 8, 19}


def test_open_anchor_bound_cuts_gap_reads(monkeypatch):
    # The work the open-anchor bound saves, pinned as a count: greedy
    # anchorisation of the 80-AGV grid-26 fleet reads gap lists about four
    # times less often than with the bound built once over every anchor
    # (10,433 against 45,448 reads at seed 1).
    g, links, placements, _ = materialise(generate(grid=26, agvs=80, demands=0, seed=1))
    tg, want_tg = TimeGraph(g), TimeGraph(g)
    got = counted_reads(monkeypatch, tg)
    want = counted_reads(monkeypatch, want_tg)
    assert greedy_anchorise(tg, links, placements).ok
    assert greedy_anchorise_fixed_bound(want_tg, links, placements).ok
    assert 3 * sum(got.values()) <= sum(want.values())


def test_races_build_only_the_roots_their_bound_admits(monkeypatch):
    # Greedy anchorisation of a seeded 20-AGV fleet: each round's race builds
    # a root only for a racer whose bound does not exceed the least f still
    # queued, 54 over the 20 rounds here against 210 = 20 + 19 + ... + 1
    # for a root per pending AGV per round, and 450 gap reads against 670
    # (514 before the first pass deferred the moves that raise its bound).
    g, links, placements, _ = materialise(generate(grid=12, agvs=20, demands=0, seed=0))
    built = 0
    real = pathing._source_label

    def source_label(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(pathing, "_source_label", source_label)
    tg = TimeGraph(g)
    reads = counted_reads(monkeypatch, tg)
    res = greedy_anchorise(tg, links, placements)
    assert res.ok and res.attempts == 20
    assert built == 54
    assert sum(reads.values()) == 450


def edge_starts(case):
    """A seeded fleet with every other AGV moved onto the first edge out of
    its start node, partway along it and heading away from it."""
    g, links, placements, _ = materialise(generate(demands=0, **case))
    moved = {}
    for agv, spec in placements.items():
        if agv % 2:
            erid, dest, w = g.moves[spec.resource][0]
            spec = SourceSpec(erid, elapsed=w // 2, toward=dest)
        moved[agv] = spec
    return g, links, moved


# BOUND_FLEETS's grid-26 fleet and seed-144 stall, plain and subdivided
# grids, and fleets whose odd AGVs start partway along an edge.
CARRIED_FLEETS = [
    *((case, False) for case in BOUND_FLEETS[:2]),
    *((dict(grid=12, agvs=30, seed=s), False) for s in range(4)),
    *((dict(grid=8, agvs=12, seed=s, subdivisions=2, link_radius=3), False) for s in range(3)),
    *((dict(grid=12, agvs=30, seed=s), True) for s in range(3)),
    *((dict(grid=8, agvs=10, seed=s, subdivisions=2, link_radius=1), True) for s in range(3)),
]


def carried_fleet(case, on_edges):
    if on_edges:
        return edge_starts(case)
    g, links, placements, _ = materialise(generate(demands=0, **case))
    return g, links, placements


def fleet_id(param):
    case, on_edges = param
    return "-".join(f"{k}{v}" for k, v in case.items()) + ("-edges" if on_edges else "")


@pytest.mark.parametrize("param", CARRIED_FLEETS, ids=fleet_id)
def test_carried_entrants_match_the_rebuilt_rounds(param):
    # Greedy carries each pending AGV's race entrant across rounds; the
    # reference rebuilds every entrant every round. Paths, stalls, attempts
    # and the trees they leave must agree.
    g, links, placements = carried_fleet(*param)
    tg, want_tg = TimeGraph(g), TimeGraph(g)
    got = greedy_anchorise(tg, links, placements)
    want = greedy_anchorise_rebuilt(want_tg, links, placements)
    assert got == want
    assert dump_csv(tg) == dump_csv(want_tg)
    if param[0].get("seed") == 144:
        assert got.stalled == {1, 6, 8, 19}
    if param[1]:
        assert any(not g.is_node(p.steps[0].resource) for p in got.paths.values())


@pytest.mark.parametrize("param", CARRIED_FLEETS[::3], ids=fleet_id)
def test_carried_lows_match_fresh_lows(monkeypatch, param):
    # Every round's race gets one entrant per pending AGV, in AGV order,
    # whose low equals the one read afresh off the bound the race is given.
    g, links, placements = carried_fleet(*param)
    real = anchoring.multi_source_time_path
    parked = set()
    rounds = 0

    def race(tg, sources, stages, *, bound, **kwargs):
        nonlocal rounds
        rounds += 1
        entrants = list(sources)
        assert [e[1] for e in entrants] == sorted(set(placements) - parked)
        for low, agv, spec, head in entrants:
            assert spec == placements[agv] and head == check_source(g, spec)
            if head is None:
                fresh = bound(spec.resource, 0)
            else:
                fresh = g.edge_at(spec.resource).weight - spec.elapsed + bound(head, 0)
            assert low == fresh, (rounds, agv)
        p = real(tg, entrants, stages, bound=bound, **kwargs)
        if p is not None:
            parked.add(p.agv)
        return p

    monkeypatch.setattr(anchoring, "multi_source_time_path", race)
    res = greedy_anchorise(TimeGraph(g), links, placements)
    assert rounds == res.attempts and parked == set(res.paths)


def test_greedy_checks_each_placement_once(monkeypatch):
    # The 80-AGV grid-26 fleet: one check_source per placement, where
    # checking every pending AGV every round made 3,240 = 80 + 79 + ... + 1;
    # one race per round; and 155 lows, 80 at the start and 75 refreshed
    # after a close reset the node they read.
    g, links, placements, _ = materialise(generate(grid=26, agvs=80, demands=0, seed=1))
    calls = {"check_source": 0, "entrant": 0, "multi_source_time_path": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (anchoring, pathing):
        counting(module, "check_source")
        counting(module, "entrant")
    counting(anchoring, "multi_source_time_path")
    res = greedy_anchorise(TimeGraph(g), links, placements)
    assert res.ok and res.attempts == 80
    assert calls == {"check_source": 80, "entrant": 155, "multi_source_time_path": 80}


BAD_SPECS = [SourceSpec(10**6), SourceSpec("7"), SourceSpec(-1)]


@pytest.mark.parametrize("run", [naive_anchorise, greedy_anchorise])
@pytest.mark.parametrize("bad", BAD_SPECS, ids=repr)
@pytest.mark.parametrize("before", [False, True], ids=["alone", "after-a-good-one"])
def test_bad_placements_raise_before_any_pin(run, bad, before):
    # Every placement is checked before any start ball is pinned, so a bad
    # one raises InvalidParameterError and leaves every tree empty.
    g = build_grid(4, 10)
    links = build_adjacency_links(g, 1)
    tg = TimeGraph(g)
    placements = {1: SourceSpec(5)} if before else {}
    placements[2] = bad
    with pytest.raises(InvalidParameterError):
        run(tg, links, placements)
    assert all(len(tree) == 0 for tree in tg.trees)
