"""End-to-end gate for the package's headline guarantees.

Each test checks one deliverable claim at its stated tolerance and prints a
single pass line; run with -v (or -s for the lines) to read the scorecard.
"""

import heapq
import random
import time

import agvtime.graph
import oracles
from agvtime.anchoring import greedy_anchorise, naive_anchorise
from agvtime.bench import bench_reservers, reservers_route
from agvtime.footprint import WorkCounter, boundary_reservations, naive_reservations, normalise
from agvtime.graph import ResourceGraph, Edge, build_adjacency_links, build_grid, spatial_path, subdivide
from agvtime.intervals import GapTree
from agvtime.pathing import SourceSpec, Stage, manhattan_guide, time_path, zero_guide
from agvtime.scenarios import generate, materialise
from agvtime.scheduling import PRESETS, Timetable, build_timetable
from agvtime.timegraph import TimeGraph, audit_safety

from oracles import TimelineOracle, exhaustive_earliest_arrival, spatial_path_cost_first


def canon(rs):
    return [tuple(r) for r in normalise(rs)]


def assert_clean(tt):
    assert tt.is_anchored()
    assert audit_safety(tt.tg, tt.occupations()) is None


def test_gap_tree_matches_tick_oracle_over_10k_ops():
    horizon = 200
    rng = random.Random(2024)
    tree, oracle = GapTree(), TimelineOracle(horizon)
    t0 = time.perf_counter()
    for _ in range(10_000):
        kind = rng.choice(("insert", "insert", "remove", "query"))
        agv = rng.randrange(8)
        a = rng.randrange(horizon - 1)
        b = rng.randrange(a + 1, horizon + 1)
        if kind == "insert":
            tree.insert(agv, a, b)
            oracle.insert(agv, a, b)
        elif kind == "remove":
            tree.remove(agv, a, b)
            oracle.remove(agv, a, b)
        else:
            assert tree.gap_query(agv, a, b) == oracle.gaps(agv, a, b)
        tree.check_invariants()
    assert [(s, e, ids) for s, e, ids in tree.intervals()] == oracle.segments()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"PASS gap tree == tick oracle over 10000 ops in {elapsed:.1f}s")


def contiguous_walk(g, rng, max_steps=40):
    v = rng.randrange(g.num_nodes)
    t = rng.randrange(30)
    steps = []
    arrive = t
    for _ in range(rng.randrange(1, max_steps)):
        depart = arrive + rng.randrange(0, 7)
        steps.append((v, arrive, depart))
        moves = g.moves[v]
        if not moves:
            break
        erid, u, w = moves[rng.randrange(len(moves))]
        steps.append((erid, depart, depart + w))
        v = u
        arrive = depart + w
    steps.append((v, arrive, arrive + rng.randrange(0, 7)))
    return steps


def test_expansion_equivalence_on_500_random_paths():
    t0 = time.perf_counter()
    paths = 0
    for s in range(1, 7):
        g = subdivide(build_grid(4, 60), s)
        links = build_adjacency_links(g, s)
        rng = random.Random(s)
        for _ in range(84):
            steps = contiguous_walk(g, rng)
            agv = rng.randrange(4)
            assert canon(boundary_reservations(steps, links, agv)) == canon(
                naive_reservations(steps, links, agv)
            )
            paths += 1
    elapsed = time.perf_counter() - t0
    assert paths >= 500
    assert elapsed < 120
    print(f"PASS boundary == naive on {paths} random paths in {elapsed:.1f}s")


def test_boundary_speedup_trend_on_corner_route():
    rows = [r.split(",") for r in bench_reservers(grid=40, reps=40)]
    cells = {}
    for row in rows:
        assert row[-1] == "equal"
        cells[(int(row[1]), row[2])] = float(row[3])
    subdivisions = (1, 2, 4, 6)
    ratios = [cells[(s, "naive")] / cells[(s, "boundary")] for s in subdivisions]
    for s, ratio in zip(subdivisions, ratios):
        if s >= 2:
            assert ratio >= 1.0, f"boundary slower than naive at s={s}: {cells}"
    assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
    print(
        "PASS boundary speedup trend: naive/boundary = "
        + ", ".join(f"{r:.2f}" for r in ratios)
    )


def test_boundary_work_trend_on_corner_route():
    # The same claim as the wall-clock trend above, in resources handled:
    # naive expansion costs O(nm) per route and the boundary sweep O(n), so
    # their work ratio rises with every subdivision.
    ratios = []
    for s in (1, 2, 4, 6):
        g, links, steps = reservers_route(40, s)
        naive, boundary = WorkCounter(), WorkCounter()
        naive_reservations(steps, links, 1, counter=naive)
        boundary_reservations(steps, links, 1, counter=boundary)
        ratios.append(sum(naive.per_step) / sum(boundary.per_step))
    assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
    print("PASS boundary work trend: naive/boundary = " + ", ".join(f"{r:.2f}" for r in ratios))


class PopCounter:
    """Stand-in for a module's ``heapq`` that counts pops."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def test_corridor_leg_pops_fall_under_manhattan(monkeypatch):
    # Deeper-first ties run each Manhattan-guided leg down one route across
    # its equal-f plateau; the cost-first order widens over all of it. Under
    # the zero guide f is the cost, so the two orders pop the same nodes.
    g = subdivide(build_grid(14, 10), 2)
    rng = random.Random(0)
    interior = sorted(set(range(g.num_nodes)) - g.anchors)
    legs = [(rng.choice(interior), rng.choice(interior)) for _ in range(300)]
    pops = {}
    for guide in ("none", "manhattan"):
        deep, wide = PopCounter(), PopCounter()
        monkeypatch.setattr(agvtime.graph, "heapq", deep)
        monkeypatch.setattr(oracles, "heapq", wide)
        for frm, to in legs:
            got = spatial_path(g, frm, to, forbidden=g.anchors, guide=guide)
            assert got == spatial_path_cost_first(g, frm, to, forbidden=g.anchors, guide=guide)
        pops[guide] = (deep.pops, wide.pops)
    assert pops["none"][0] == pops["none"][1], pops
    assert 2 * pops["manhattan"][0] <= pops["manhattan"][1], pops
    print(f"PASS corridor leg pops, deeper-first vs cost-first: {pops}")


def test_anchorisation_guarantee_100_seeds_per_fleet_size():
    checked = 0
    for count in (5, 20, 50):
        for seed in range(100):
            sc = generate(grid=20, agvs=count, demands=0, seed=seed)
            g, links, placements, _ = materialise(sc)
            for kind in ("naive", "greedy"):
                tg = TimeGraph(g)
                if kind == "naive":
                    parked = naive_anchorise(tg, links, placements, seed=seed)
                else:
                    parked = greedy_anchorise(tg, links, placements)
                assert not parked.stalled, (count, seed, kind)
                tt = Timetable({a: [parked.paths[a]] for a in placements}, tg)
                assert_clean(tt)
                checked += 1
    assert checked == 600
    print(f"PASS anchorisation parked every fleet: {checked} runs, zero stalls")


def test_optimality_parity_of_full_presets():
    for seed in range(200):
        sc = generate(grid=6, agvs=1, demands=1, seed=seed)
        g, links, placements, demands = materialise(sc)
        arrivals = {}
        for preset in ("full-zero", "full-manhattan"):
            tt = build_timetable(
                g, links, placements, demands, preset=preset, seed=seed
            )
            arrivals[preset] = {
                a: [p.arrival for p in plist] for a, plist in tt.paths.items()
            }
        assert arrivals["full-zero"] == arrivals["full-manhattan"], seed
    print("PASS full presets reach identical arrivals on 200 seeded routes")


def tiny_line(k, w):
    edges = [Edge(i, i + 1, w) for i in range(k)]
    coords = [(i, 0) for i in range(k + 1)]
    return ResourceGraph(k + 1, edges, frozenset(), coords=coords, unit_weight=w)


def test_full_presets_match_exhaustive_oracle_on_tiny_graphs():
    for seed in range(60):
        rng = random.Random(seed)
        g = tiny_line(rng.choice((1, 2)), rng.choice((2, 3)))
        tg = TimeGraph(g)
        busy = {}
        src = rng.randrange(g.num_nodes)
        for _ in range(rng.randrange(2, 7)):
            rid = rng.randrange(g.num_resources)
            s = rng.randrange(1, 40)
            e = s + rng.randrange(1, 10)
            tg.reserve(rid, 9, s, e)
            busy.setdefault(rid, set()).update(range(s, e))
        stages = [
            Stage({rng.randrange(g.num_nodes)}, rng.randrange(0, 3))
            for _ in range(rng.randrange(1, 3))
        ]
        want = exhaustive_earliest_arrival(
            g, busy, 1, src, 0, [(st.targets, st.stop) for st in stages], horizon=250
        )
        for guide in (zero_guide(g, stages), manhattan_guide(g, stages)):
            p = time_path(tg, 1, SourceSpec(src), stages, guide=guide)
            if want is None:
                assert p is None, seed
            else:
                assert p is not None and p.arrival == want, seed
    print("PASS both full guides match the exhaustive schedule oracle")


def test_guaranteed_timetabling_across_sizes_and_presets():
    runtimes_at_30 = {}
    for n in (8, 12, 16, 20, 30):
        sc = generate(grid=n, agvs=4, demands=40, seed=n)
        g, links, placements, demands = materialise(sc)
        for preset in PRESETS:
            tt = build_timetable(
                g, links, placements, demands, preset=preset, seed=n
            )
            assert_clean(tt)
            if n == 30:
                runtimes_at_30[preset] = tt.runtime_ms
    slowest = max(runtimes_at_30, key=runtimes_at_30.get)
    assert slowest == "full-zero", runtimes_at_30
    others = max(v for k, v in runtimes_at_30.items() if k != "full-zero")
    assert runtimes_at_30["full-zero"] > others
    print(
        "PASS all presets timetable every size with zero faults; "
        f"unguided search slowest at n=30 ({runtimes_at_30['full-zero']:.0f}ms)"
    )


def test_partial_presets_quality_within_factor():
    for seed in (0, 1, 2):
        sc = generate(grid=20, agvs=4, demands=40, seed=seed)
        g, links, placements, demands = materialise(sc)
        results = {}
        for preset in PRESETS:
            tt = build_timetable(
                g, links, placements, demands, preset=preset, seed=seed
            )
            results[preset] = (tt.makespan(), tt.total_distance())
        base_mk, base_dist = results["full-zero"]
        for preset in ("partial-dijkstras", "partial-manhattan"):
            mk, dist = results[preset]
            assert base_mk / 1.5 <= mk <= base_mk * 1.5, (seed, preset, results)
            assert base_dist / 1.5 <= dist <= base_dist * 1.5, (seed, preset, results)
    print("PASS partial presets stay within 1.5x of the unguided baseline")


def metrics_row(tt, tag):
    return f"{tag},{tt.makespan()},{tt.total_distance()}"


def test_timetables_are_deterministic():
    for grid, seed in ((6, 0), (10, 5)):
        sc = generate(grid=grid, agvs=3, demands=6, seed=seed)
        g, links, placements, demands = materialise(sc)
        for preset in ("full-zero", "partial-manhattan"):
            for anchoriser in ("naive", "greedy"):
                outs = []
                for _ in range(2):
                    tt = build_timetable(
                        g,
                        links,
                        placements,
                        demands,
                        preset=preset,
                        anchoriser=anchoriser,
                        seed=seed,
                    )
                    outs.append((tt.to_json(), metrics_row(tt, preset)))
                assert outs[0] == outs[1], (grid, seed, preset, anchoriser)
    print("PASS repeated runs emit byte-identical timetables and metrics")
