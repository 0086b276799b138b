"""Grids, validity rules, subdivision, geographic links, spatial search."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvtime import graph
from agvtime.graph import (
    Edge,
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

from oracles import (
    derived_tables_reference,
    grid_reference,
    links_reference,
    shortest_ticks,
    spatial_path_cost_first,
    validate_reference,
)


def grid4():
    return build_grid(4, 5000)


def star5():
    """Plus-shaped graph: centre node 4 joined to four anchors."""
    edges = [Edge(4, i, 6000) for i in range(4)]
    coords = [(1, 0), (0, 1), (2, 1), (1, 2), (1, 1)]
    return ResourceGraph(5, edges, anchors=(0, 1, 2, 3), coords=coords, unit_weight=6000)


def test_grid4_shape():
    g = grid4()
    assert g.num_nodes == 12
    assert len(g.edges) == 12
    assert len(g.anchors) == 8
    degree = [0] * g.num_nodes
    for e in g.edges:
        degree[e.a] += 1
        degree[e.b] += 1
    for a in g.anchors:
        assert degree[a] == 1
    assert validate(g, 8) is None


def test_grid_general_counts():
    for n in (5, 6, 9):
        g = build_grid(n, 100)
        assert g.num_nodes == n * n - 4
        assert len(g.anchors) == 4 * (n - 2)
        assert validate(g, len(g.anchors)) is None


def test_grid_bad_params():
    with pytest.raises(InvalidParameterError):
        build_grid(3, 5000)
    with pytest.raises(InvalidParameterError):
        build_grid(4, 0)


def test_resource_id_reads_back_only_what_describe_writes():
    g = build_grid(6, 10)  # 32 nodes, 40 edges
    for rid in range(g.num_resources):
        assert g.resource_id(g.describe(rid)) == rid
    for token in ("n32", "e40", "e-1", "n-0", "n+3", "n 3", " n3", "n3 ", "n03", "e00", "n", "e",
                  "x3", "", "N3", "n3.0", "n\u0663"):
        with pytest.raises(InvalidParameterError):
            g.resource_id(token)


def test_validate_violations():
    g = grid4()
    v = validate(g, 9)
    assert v is not None and v.assumption == 2

    # two disconnected components
    g2 = ResourceGraph(4, [Edge(0, 1, 1), Edge(2, 3, 1)], anchors=(0,))
    assert validate(g2, 1).assumption == 1

    # removing anchors disconnects the rest
    g3 = ResourceGraph(
        5, [Edge(0, 2, 1), Edge(2, 1, 1), Edge(3, 0, 1), Edge(4, 1, 1)], anchors=(2,)
    )
    assert validate(g3, 1).assumption == 3

    # anchor-anchor edge
    g4 = ResourceGraph(4, [Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 1)], anchors=(0, 1))
    assert validate(g4, 1).assumption == 4

    # one-way edge breaks strong connectivity
    g5 = ResourceGraph(3, [Edge(0, 1, 1, directed=True), Edge(1, 2, 1)], anchors=(0,))
    assert validate(g5, 1).assumption == 1


def random_explicit_graph(rng):
    """2 to 8 nodes, up to twice as many edges as nodes, weights 1 to 3,
    about one edge in three one way, and a random set of anchors."""
    n = rng.randint(2, 8)
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        a, b = rng.sample(range(n), 2)
        edges.append(Edge(a, b, rng.randint(1, 3), rng.random() < 0.3))
    anchors = rng.sample(range(n), rng.randint(0, n // 2))
    return ResourceGraph(n, edges, anchors)


def reaches_each_other(g, nodes):
    """Whether every node of ``nodes`` reaches every other along edges that
    join two of them, by ``oracles.shortest_ticks`` from each one."""
    inner = ResourceGraph(g.num_nodes, [e for e in g.edges if e.a in nodes and e.b in nodes], ())
    return all(nodes <= shortest_ticks(inner, v).keys() for v in nodes)


def counted_walks(monkeypatch):
    """The skip set of every ``_strongly_connected`` call ``validate`` makes:
    one call is rule 3's two walks alone, two calls are all four."""
    calls = []
    walks = graph._strongly_connected

    def counted(g, skip):
        calls.append(skip)
        return walks(g, skip)

    monkeypatch.setattr(graph, "_strongly_connected", counted)
    return calls


def test_derived_tables_match_the_edge_list(monkeypatch):
    # ``into`` is ``moves`` reversed and ``adjacent`` the symmetric resource
    # adjacency, each checked against the edge list; rules 1 and 3 of
    # ``validate`` agree with a reachability check by a separate Dijkstra,
    # both when rule 1 is read off rule 3's walks and when it takes its own.
    calls = counted_walks(monkeypatch)
    walks = set()
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        g = random_explicit_graph(rng)
        calls.clear()
        nn = g.num_nodes
        moves, into = [Counter() for _ in range(nn)], [Counter() for _ in range(nn)]
        incident = [Counter() for _ in range(nn)]
        for i, e in enumerate(g.edges):
            rid = nn + i
            incident[e.a][rid] += 1
            incident[e.b][rid] += 1
            for u, v in ((e.a, e.b),) if e.directed else ((e.a, e.b), (e.b, e.a)):
                moves[u][rid, v, e.weight] += 1
                into[v][rid, u, e.weight] += 1
            assert g.adjacent[rid] == (e.a, e.b)
        for v in range(nn):
            assert Counter(g.moves[v]) == moves[v]
            assert Counter(g.into[v]) == into[v]
            assert Counter(g.adjacent[v]) == incident[v]
        assert len(g.adjacent) == g.num_resources
        for r in range(g.num_resources):
            for q in g.adjacent[r]:
                assert g.is_node(r) != g.is_node(q) and r in g.adjacent[q]
        broken = validate(g, 0)
        plain = {v for v in range(nn) if v not in g.anchors}
        if not reaches_each_other(g, set(range(nn))):
            want = 1
        elif not reaches_each_other(g, plain):
            want = 3
        else:
            want = None
        got = broken.assumption if broken is not None and broken.assumption != 4 else None
        assert got == want, (g.edges, g.anchors)
        seen.add(want)
        walks.add(len(calls))
    assert seen == {1, 3, None}
    assert walks == {1, 2}


def assert_builds_like_the_references(g):
    assert (g.moves, g.into, g.adjacent) == derived_tables_reference(g.num_nodes, g.edges)
    for radius in (1, 2, 3):
        assert build_adjacency_links(g, radius).linked == links_reference(g, radius)
    for agvs in (0, len(g.anchors), len(g.anchors) + 1):
        assert validate(g, agvs) == validate_reference(g, agvs)


def test_grid_builders_match_their_references():
    # The flat-list grid, its unpacked-edge tables, the balls seeded with
    # their first ring and validate's two-walk shortcut give exactly what
    # the reference builders give, subdivided or not.
    for n in range(4, 13):
        for weight in (1, 10):
            g = build_grid(n, weight)
            num_nodes, edges, anchors, coords = grid_reference(n, weight)
            assert (g.num_nodes, g.anchors, g.coords) == (num_nodes, anchors, coords)
            assert g.edges == tuple(edges)
            assert all(type(e) is Edge for e in g.edges)
            assert_builds_like_the_references(g)
            for s in (2, 5) if weight == 10 else ():
                assert_builds_like_the_references(subdivide(g, s))


def test_explicit_graph_builders_match_their_references():
    rng = random.Random(5)
    directed = 0
    for _ in range(200):
        g = random_explicit_graph(rng)
        directed += any(e.directed for e in g.edges)
        assert_builds_like_the_references(g)
    assert directed > 100


@pytest.mark.parametrize(
    "edges, anchors, want, calls",
    [
        # Every anchor hangs off the grid's interior: rule 1 is read off
        # rule 3's two walks.
        (grid4().edges, grid4().anchors, None, 1),
        # Anchor 3's only move leads to anchor 2, so rule 1 takes its own
        # walks: it holds, and rule 4 is the one broken.
        ([Edge(0, 1, 1), Edge(2, 0, 1), Edge(3, 2, 1)], (2, 3), Violation(4, "edge e2 joins two anchors"), 2),
        # The same, one way out of anchor 3: nothing reaches it.
        ([Edge(0, 1, 1), Edge(2, 0, 1), Edge(3, 2, 1, directed=True)], (2, 3),
         Violation(1, "graph is not strongly connected"), 2),
        # Rules 1 and 3 broken together: rule 1 is reported.
        ([Edge(0, 1, 1), Edge(2, 3, 1)], (0,), Violation(1, "graph is not strongly connected"), 2),
        ([Edge(0, 2, 1, directed=True), Edge(2, 1, 1)], (2,), Violation(1, "graph is not strongly connected"), 2),
        # Rule 3 alone: the anchor joins the two halves.
        ([Edge(0, 2, 1), Edge(2, 1, 1)], (2,), Violation(3, "graph minus anchors is not strongly connected"), 2),
    ],
)
def test_validate_reads_rule_1_off_rule_3_or_walks_for_it(monkeypatch, edges, anchors, want, calls):
    g = ResourceGraph(1 + max(max(e.a, e.b) for e in edges), edges, anchors)
    walks = counted_walks(monkeypatch)
    assert validate(g, 1) == validate_reference(g, 1) == want
    assert len(walks) == calls


def test_subdivide_counts_and_weights():
    g = grid4()
    for s in (2, 4):
        gs = subdivide(g, s)
        assert gs.num_nodes == g.num_nodes + (s - 1) * len(g.edges)
        assert len(gs.edges) == s * len(g.edges)
        # resource count identity
        assert gs.num_resources == g.num_nodes + (2 * s - 1) * len(g.edges)
        assert all(e.weight == 5000 // s for e in gs.edges)
        assert gs.anchors == g.anchors
        assert validate(gs, 8) is None
        assert len(gs.subdivision_nodes) == (s - 1) * len(g.edges)


def test_edge_below_manhattan_bound_rejected():
    # Nodes 9 units apart joined by a weight-10 edge at 10 ticks per unit:
    # the guide would overestimate that edge, so the graph is refused.
    coords = [(0, 0), (9, 0), (1, 0)]
    with pytest.raises(InvalidParameterError, match="edge e0 weight 10 is below its Manhattan bound 90"):
        ResourceGraph(3, [Edge(0, 1, 10)], anchors=(), coords=coords, unit_weight=10)
    ResourceGraph(3, [Edge(0, 2, 10), Edge(0, 1, 90)], anchors=(), coords=coords, unit_weight=10)
    ResourceGraph(3, [Edge(0, 1, 10)], anchors=(), coords=coords)


def test_subdivide_identity_and_errors():
    g = grid4()
    assert subdivide(g, 1) is g
    with pytest.raises(InvalidParameterError):
        subdivide(g, 3)  # 5000 not divisible by 3


def test_subdivided_coords_stay_consistent():
    g = subdivide(grid4(), 2)
    assert g.unit_weight == 2500
    for e in g.edges:
        (x1, y1), (x2, y2) = g.coords[e.a], g.coords[e.b]
        assert abs(x1 - x2) + abs(y1 - y2) == 1


def test_links_radius1():
    g = grid4()
    links = build_adjacency_links(g, 1)
    adj = adjacency(g)
    for v in range(g.num_nodes):
        assert links.linked[v] == frozenset(g.adjacent[v]) | {v}
        assert shell(adj, v, 1) == links.linked[v] - {v}
    for i, e in enumerate(g.edges):
        rid = g.num_nodes + i
        assert links.linked[rid] == {rid, e.a, e.b}


def test_links_symmetry_and_boundary_subset():
    g = subdivide(grid4(), 2)
    links = build_adjacency_links(g, 3)
    adj = adjacency(g)
    for r in range(g.num_resources):
        assert r in links.linked[r]
        assert shell(adj, r, 3) <= links.linked[r]
        for q in links.linked[r]:
            assert r in links.linked[q]


def adjacency(g):
    nn = g.num_nodes
    adj = {v: set(g.adjacent[v]) for v in range(nn)}
    for i, e in enumerate(g.edges):
        adj[nn + i] = {e.a, e.b}
    return adj


def shell(adj, r, s):
    """Resources at resource-adjacency distance exactly s from r."""
    seen = frontier = {r}
    for _ in range(s):
        frontier = {q for p in frontier for q in adj[p]} - seen
        seen = seen | frontier
    return frontier


def test_boundary_exit_property():
    """Stepping to an adjacent resource only ever adds boundary resources."""
    for g, s in ((grid4(), 1), (grid4(), 2), (subdivide(grid4(), 2), 3), (star5(), 2)):
        links = build_adjacency_links(g, s)
        adj = adjacency(g)
        for r in range(g.num_resources):
            for r2 in adj[r]:
                fresh = links.linked[r2] - links.linked[r] - {r}
                assert fresh <= shell(adj, r2, s), (r, r2, fresh)


def test_star_boundary_of_centre_is_all_edges():
    g = subdivide(star5(), 3)
    centre = 4
    b = shell(adjacency(g), centre, 3)
    assert b and all(not g.is_node(r) for r in b)
    assert len(b) == 4


def test_spatial_path_basics():
    g = grid4()
    assert spatial_path(g, 5, 5) == ([5], 0)
    interior = sorted(set(range(g.num_nodes)) - g.anchors)
    a, b = interior[0], interior[-1]
    res = spatial_path(g, a, b)
    assert res is not None
    path, cost = res
    assert path[0] == a and path[-1] == b
    # alternating node, edge, node
    for i, rid in enumerate(path):
        assert g.is_node(rid) == (i % 2 == 0)
    assert cost == 5000 * (len(path) // 2)


def test_spatial_path_respects_forbidden():
    g = ResourceGraph(
        4,
        [Edge(0, 1, 1), Edge(1, 3, 1), Edge(0, 2, 1), Edge(2, 3, 10)],
        anchors=(),
    )
    path, cost = spatial_path(g, 0, 3)
    assert cost == 2
    path, cost = spatial_path(g, 0, 3, forbidden={1})
    assert cost == 11
    assert spatial_path(g, 0, 3, forbidden={1, 2}) is None


def test_spatial_path_guides_agree():
    g = build_grid(6, 100)
    nodes = sorted(set(range(g.num_nodes)) - g.anchors)
    for frm, to in itertools.islice(itertools.product(nodes, nodes), 0, 400, 7):
        base = spatial_path(g, frm, to)
        other = spatial_path(g, frm, to, guide="manhattan")
        assert (base is None) == (other is None)
        if base is not None:
            assert base[1] == other[1], (frm, to)
            # the guide never overestimates the exact unguided cost
            assert manhattan_bound(g, frm, to) <= base[1], (frm, to)


def test_spatial_path_matches_cost_first_order_on_random_legs():
    # Deeper-first pops could in principle give a node an equal-cost parent
    # the cost-first order would not; every leg must come back the same.
    rng = random.Random(22)
    graphs = {}
    for _ in range(300):
        n, s = rng.randint(10, 30), rng.randint(1, 3)
        if (n, s) not in graphs:
            graphs[n, s] = subdivide(build_grid(n, 6), s)
        g = graphs[n, s]
        frm, to = rng.randrange(g.num_nodes), rng.randrange(g.num_nodes)
        forbidden = g.anchors - {frm, to}
        for guide in ("none", "manhattan"):
            got = spatial_path(g, frm, to, forbidden=forbidden, guide=guide)
            want = spatial_path_cost_first(g, frm, to, forbidden=forbidden, guide=guide)
            assert got == want, (n, s, frm, to, guide)


def test_directed_edges_one_way():
    g = ResourceGraph(3, [Edge(0, 1, 2, directed=True), Edge(1, 2, 2), Edge(2, 0, 2)], anchors=())
    assert spatial_path(g, 0, 1)[1] == 2
    assert spatial_path(g, 1, 0)[1] == 4


@given(st.integers(4, 8), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_grid_always_validates(n, s):
    g = subdivide(build_grid(n, 600), s)
    assert validate(g, len(g.anchors)) is None
