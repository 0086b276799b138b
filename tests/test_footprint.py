"""Naive vs boundary geographic expansion, with the naive form as oracle."""

import random

import pytest

from agvtime.anchoring import hold
from agvtime.footprint import (
    PathShapeError,
    WorkCounter,
    boundary_reservations,
    naive_reservations,
    normalise,
)
from agvtime.graph import build_adjacency_links, build_grid, subdivide
from agvtime.intervals import INF
from agvtime.pathing import SourceSpec, Stage, Step, time_path
from agvtime.timegraph import Reservation, TimeGraph


def canon(rs):
    return [tuple(r) for r in normalise(rs)]


def linked_graph(s=1, n=4, weight=600, subdiv=1):
    g = subdivide(build_grid(n, weight), subdiv)
    return g, build_adjacency_links(g, s)


def test_naive_single_step():
    g, links = linked_graph()
    v = sorted(set(range(g.num_nodes)) - g.anchors)[0]
    rs = naive_reservations([(v, 0, 10)], links, agv=1)
    got = {(r.resource, r.start, r.end) for r in rs}
    assert (v, 0, 10) in got
    assert got == {(p, 0, 10) for p in links.linked[v] | {v}}


def test_zero_length_steps_reserve_nothing():
    g, links = linked_graph()
    assert naive_reservations([(0, 5, 5)], links, 1) == []
    assert boundary_reservations([(0, 5, 5)], links, 1) == []


def test_non_contiguous_path_faults():
    g, links = linked_graph()
    with pytest.raises(PathShapeError):
        naive_reservations([(0, 0, 5), (1, 6, 9)], links, 1)
    with pytest.raises(PathShapeError):
        boundary_reservations([(0, 0, 5), (1, 6, 9)], links, 1)
    with pytest.raises(PathShapeError):
        naive_reservations([(0, 5, 3)], links, 1)


def malformed_walk(kind, g, links):
    """A walk from node v over its edge e, broken the way ``kind`` names."""
    v = sorted(set(range(g.num_nodes)) - g.anchors)[0]
    e, u, _ = g.moves[v][0]
    far = next(x for x in range(g.num_nodes) if x not in links.linked[e])
    far_e = g.moves[far][0][0]
    return {
        "unlinked step": [(v, 0, 5), (far, 5, 9)],
        "unlinked hop among instants": [(v, 0, 5), (e, 5, 5), (far, 5, 5), (far_e, 5, 9)],
        "gap between steps": [(v, 0, 5), (e, 6, 9), (u, 9, 12)],
        "inverted step": [(v, 0, 5), (e, 5, 3), (u, 3, 12)],
    }[kind]


@pytest.mark.parametrize(
    "kind, why",
    [
        ("unlinked step", "unlinked"),
        ("unlinked hop among instants", "unlinked"),
        ("gap between steps", "not contiguous"),
        ("inverted step", "inverted"),
    ],
)
@pytest.mark.parametrize("expand", [naive_reservations, boundary_reservations])
def test_both_expansions_refuse_the_same_malformed_walks(kind, why, expand):
    g, links = linked_graph()
    with pytest.raises(PathShapeError, match=why):
        expand(malformed_walk(kind, g, links), links, 1)


def test_planner_items_are_exactly_step_and_reservation():
    # The planner builds these by tuple.__new__; readers use their fields
    # (r.start, s.resource, and r.ivl in perfbench/check.py), so a plain
    # tuple in their place must fail here.
    g, links = linked_graph()
    tg = TimeGraph(g)
    v = sorted(set(range(g.num_nodes)) - g.anchors)[0]
    path = time_path(tg, 1, SourceSpec(v), [Stage(g.anchors, INF)])
    assert path.steps and all(type(s) is Step for s in path.steps)
    for expand in (boundary_reservations, naive_reservations):
        out = expand(path.steps, links, 1)
        assert out and all(type(r) is Reservation for r in out), expand.__name__
    held = hold(links, 1, v, 5)
    assert held and all(type(r) is Reservation for r in held)
    assert held[0].ivl.end == INF


def test_normalise_merges_and_sorts():
    rs = [
        Reservation(3, 1, 10, 20),
        Reservation(3, 1, 0, 10),
        Reservation(3, 1, 30, 40),
        Reservation(2, 1, 5, 15),
        Reservation(3, 2, 0, 50),
    ]
    out = canon(rs)
    assert out == [
        (2, 1, 5, 15),
        (3, 1, 0, 20),
        (3, 1, 30, 40),
        (3, 2, 0, 50),
    ]
    # idempotent
    assert canon(normalise(rs)) == out


def walk_steps(g, rng, max_steps=40, start_tick=None, zero_edges=0.0):
    """Random contiguous node/edge occupation chain over the graph.

    With ``zero_edges`` > 0 that share of edge crossings takes no time, so a
    zero-length node step can meet a zero-length edge step: runs of several
    instants, which no planner path contains.
    """
    v = rng.randrange(g.num_nodes)
    t = rng.randrange(50) if start_tick is None else start_tick
    steps = []
    arrive = t
    for _ in range(rng.randrange(1, max_steps)):
        depart = arrive + rng.randrange(0, 9)
        steps.append((v, arrive, depart))
        moves = g.moves[v]
        if not moves:
            break
        erid, u, w = moves[rng.randrange(len(moves))]
        if zero_edges and rng.random() < zero_edges:
            w = 0
        steps.append((erid, depart, depart + w))
        v = u
        arrive = depart + w
    steps.append((v, arrive, arrive + rng.randrange(0, 9)))
    return steps


def test_boundary_equals_naive_on_random_walks():
    # Planner-shaped walks, then walks with zero-length edge crossings, whose
    # runs of instants the sweep fuses into one transition each.
    cases = [(seed, 0.0) for seed in range(60)] + [(seed, 0.3) for seed in range(200)]
    for seed, zero_edges in cases:
        rng = random.Random(seed)
        subdiv = rng.choice((1, 1, 2, 3))
        radius = rng.randrange(1, 2 * subdiv + 2)
        g, links = linked_graph(s=radius, n=rng.choice((4, 5)), weight=6, subdiv=subdiv)
        steps = walk_steps(g, rng, zero_edges=zero_edges)
        agv = rng.randrange(4)
        naive = naive_reservations(steps, links, agv)
        fast = boundary_reservations(steps, links, agv)
        assert canon(fast) == canon(naive), f"seed {seed}, zero_edges {zero_edges}"


def test_boundary_output_already_merged():
    cases = [(seed, 0.0) for seed in (3, 11, 27)] + [(seed, 0.3) for seed in range(200)]
    for seed, zero_edges in cases:
        rng = random.Random(seed)
        g, links = linked_graph(s=2, n=5, weight=10, subdiv=2)
        fast = boundary_reservations(walk_steps(g, rng, zero_edges=zero_edges), links, 7)
        assert canon(fast) == sorted(fast, key=lambda r: (r.resource, r.start)), (
            f"seed {seed}, zero_edges {zero_edges}"
        )


def test_infinite_final_step():
    g, links = linked_graph()
    v = sorted(g.anchors)[0]
    erid, u, w = g.moves[v][0]
    steps = [(v, 0, 4), (erid, 4, 4 + w), (u, 4 + w, INF)]
    naive = naive_reservations(steps, links, 0)
    fast = boundary_reservations(steps, links, 0)
    assert canon(fast) == canon(naive)
    ends = {r.end for r in fast if r.resource == u}
    assert INF in ends


def test_step_staying_on_one_resource():
    # A step from a resource onto itself has no exits and no entries, so the
    # footprint stays open across it; alone, as an instant, or mid-walk.
    g, links = linked_graph(s=2)
    v = sorted(set(range(g.num_nodes)) - g.anchors)[0]
    erid, u, w = g.moves[v][0]
    for steps in (
        [(v, 0, 5), (v, 5, 9)],
        [(v, 0, 5), (v, 5, 5), (v, 5, 9)],
        [(v, 0, 3), (erid, 3, 3 + w), (erid, 3 + w, 9 + w), (u, 9 + w, INF)],
    ):
        naive = naive_reservations(steps, links, 2)
        fast = boundary_reservations(steps, links, 2)
        assert canon(fast) == canon(naive), steps
    assert canon(boundary_reservations([(v, 0, 5), (v, 5, 9)], links, 2)) == [
        (p, 2, 0, 9) for p in sorted(links.linked[v])
    ]
    # A step between linked resources that are not neighbours: u and v are
    # two hops apart, so u's three other edges leave the footprint at tick 5
    # without lying on u's shell.
    g = build_grid(6, 10)
    links = build_adjacency_links(g, 2)
    u, v = g.coords.index((2, 2)), g.coords.index((3, 2))
    steps = [(u, 0, 5), (v, 5, 10)]
    assert canon(boundary_reservations(steps, links, 2)) == canon(naive_reservations(steps, links, 2))


def test_boundary_work_scales_with_shell_not_ball():
    """Per-step touched counts: naive grows with the linked set, boundary
    with the boundary shell plus frontier."""
    lengths = {}
    for radius in (2, 4, 6):
        g = subdivide(build_grid(4, 60), 6)
        links = build_adjacency_links(g, radius)
        rng = random.Random(9)
        steps = walk_steps(g, rng, max_steps=30)
        nc, bc = WorkCounter(), WorkCounter()
        naive_reservations(steps, links, 0, counter=nc)
        boundary_reservations(steps, links, 0, counter=bc)
        # ignore the seeding step, which is O(linked) for both
        lengths[radius] = (
            sum(nc.per_step[1:]) / max(1, len(nc.per_step) - 1),
            sum(bc.per_step[1:]) / max(1, len(bc.per_step) - 1),
        )
    naive2, fast2 = lengths[2]
    naive6, fast6 = lengths[6]
    assert naive6 / naive2 > 2.0  # ball grows roughly linearly in radius here
    assert fast6 / fast2 < 1.8  # shell stays near constant on chain stretches
