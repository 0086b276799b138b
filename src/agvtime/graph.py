"""Resource graphs: nodes and edges in one reservable id space.

Nodes take resource ids 0..N-1 and edges N..N+E-1. An undirected edge is a
single resource, so two AGVs can never hold it at once and head-on conflicts
are impossible by construction. Anchor nodes are the designated long-term
parking spots; the validity rules keep them out of the way of through
traffic.

Geographic links tie each resource to its spatial surroundings via
resource-adjacency distance (a node is adjacent to its incident edges and
vice versa). ``linked[r]`` is the closed ball: r and everything within the
radius, which is the footprint an AGV on r holds.
"""

import heapq
from typing import NamedTuple


class InvalidParameterError(ValueError):
    pass


class Edge(NamedTuple):
    """One edge between nodes a and b; ``ResourceGraph`` checks its weight."""

    a: int
    b: int
    weight: int
    directed: bool = False


class Violation(NamedTuple):
    """First graph-validity rule a graph broke, with a human-readable detail."""

    assumption: int
    detail: str

    def __str__(self):
        return f"graph rule {self.assumption}: {self.detail}"


class ResourceGraph:
    """Immutable node/edge structure with the shared resource id space.

    Built once here, the tables every walk over the graph reads:
    ``moves[v]``, the ``(edge rid, node, ticks)`` moves out of node v;
    ``into[v]``, the moves into v in the same shape, each naming the node it
    leaves; ``adjacent[r]``, a node's incident edges or an edge's ``(a, b)``
    endpoints.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: list[Edge],
        anchors,
        coords=None,
        unit_weight: int | None = None,
        subdivision_nodes=(),
    ):
        self.num_nodes = num_nodes
        self.edges = tuple(edges)
        self.anchors = frozenset(anchors)
        self.coords = tuple(coords) if coords is not None else None
        self.unit_weight = unit_weight
        self.subdivision_nodes = frozenset(subdivision_nodes)
        if self.coords is not None and len(self.coords) != num_nodes:
            raise InvalidParameterError("coords length does not match node count")
        for n in self.anchors:
            if not 0 <= n < num_nodes:
                raise InvalidParameterError(f"anchor {n} is not a node")
        adjacent = [[] for _ in range(num_nodes)]
        moves = [[] for _ in range(num_nodes)]
        into = [[] for _ in range(num_nodes)]
        # ``manhattan_bound`` inlined: checked per edge, the bound holds for
        # every route by the triangle inequality.
        coords = self.coords if unit_weight is not None else None
        for i, e in enumerate(self.edges):
            rid = num_nodes + i
            if e.weight < 1:
                raise InvalidParameterError(f"edge weight must be >= 1, got {e.weight}")
            if not (0 <= e.a < num_nodes and 0 <= e.b < num_nodes):
                raise InvalidParameterError(f"edge {i} endpoint out of range")
            if coords is not None:
                (ax, ay), (bx, by) = coords[e.a], coords[e.b]
                bound = unit_weight * (abs(ax - bx) + abs(ay - by))
                if bound > e.weight:
                    raise InvalidParameterError(f"edge e{i} weight {e.weight} is below its Manhattan bound {bound}")
            adjacent[e.a].append(rid)
            adjacent[e.b].append(rid)
            adjacent.append((e.a, e.b))
            # ``into`` names the node a move leaves, so it shares ``moves``' tuples.
            ahead, back = (rid, e.b, e.weight), (rid, e.a, e.weight)
            moves[e.a].append(ahead)
            into[e.b].append(back)
            if not e.directed:
                moves[e.b].append(back)
                into[e.a].append(ahead)
        self.adjacent = tuple(tuple(x) for x in adjacent)
        self.moves = tuple(tuple(x) for x in moves)
        self.into = tuple(tuple(x) for x in into)

    @property
    def num_resources(self) -> int:
        return self.num_nodes + len(self.edges)

    def is_node(self, rid: int) -> bool:
        return rid < self.num_nodes

    def edge_at(self, rid: int) -> Edge:
        return self.edges[rid - self.num_nodes]

    def describe(self, rid: int) -> str:
        if self.is_node(rid):
            return f"n{rid}"
        return f"e{rid - self.num_nodes}"

    def resource_id(self, token: str) -> int:
        """Inverse of describe: 'n12' or 'e7' back to the unified id.

        Only tokens describe writes come back: a sign, a space, a leading
        zero or an index past the node or edge count raises
        InvalidParameterError.
        """
        base = {"n": 0, "e": self.num_nodes}.get(token[:1])
        digits = token[1:]
        if base is not None and digits.isascii() and digits.isdigit():
            rid = base + int(digits)
            if rid < self.num_resources and self.describe(rid) == token:
                return rid
        raise InvalidParameterError(f"bad resource token {token!r}")


def build_grid(n: int, weight: int) -> ResourceGraph:
    """n-by-n grid with corners cut, perimeter anchors, and isolated approaches.

    The four corner nodes are removed, every remaining perimeter node becomes
    an anchor, and edges between two anchors are dropped, which leaves each
    anchor hanging off the interior by a single approach edge.
    """
    if n < 4:
        raise InvalidParameterError(f"grid side must be >= 4, got {n}")
    if weight < 1:
        raise InvalidParameterError("edge weight must be >= 1")
    corners = {(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)}
    ids = {}
    coords = []
    for y in range(n):
        for x in range(n):
            if (x, y) in corners:
                continue
            ids[(x, y)] = len(coords)
            coords.append((x, y))

    def perimeter(x, y):
        return x == 0 or y == 0 or x == n - 1 or y == n - 1

    anchors = {ids[p] for p in ids if perimeter(*p)}
    edges = []
    for (x, y), u in ids.items():
        for dx, dy in ((1, 0), (0, 1)):
            q = (x + dx, y + dy)
            if q not in ids:
                continue
            v = ids[q]
            if u in anchors and v in anchors:
                continue
            edges.append(Edge(u, v, weight))
    return ResourceGraph(len(coords), edges, anchors, coords, unit_weight=weight)


def _strongly_connected(g: ResourceGraph, keep) -> bool:
    """Whether the nodes ``keep`` admits reach each other along moves
    between kept nodes: one walk over ``g.moves`` and one over ``g.into``
    from the same node each reach all of them."""
    nodes = [v for v in range(g.num_nodes) if keep(v)]

    def reaches_all(adj):
        stack = nodes[:1]
        seen = set(stack)
        while stack:
            for _, u, _ in adj[stack.pop()]:
                if u not in seen and keep(u):
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(nodes)

    return reaches_all(g.moves) and reaches_all(g.into)


def validate(g: ResourceGraph, num_agvs: int) -> Violation | None:
    """Check the standing graph rules; None when everything holds.

    1: graph strongly connected. 2: at least as many anchors as AGVs.
    3: graph minus anchors strongly connected. 4: no anchor-anchor edge.
    """
    if not _strongly_connected(g, lambda v: True):
        return Violation(1, "graph is not strongly connected")
    if len(g.anchors) < num_agvs:
        return Violation(2, f"{num_agvs} AGVs but only {len(g.anchors)} anchors")
    anchors = g.anchors
    if not _strongly_connected(g, lambda v: v not in anchors):
        return Violation(3, "graph minus anchors is not strongly connected")
    for i, e in enumerate(g.edges):
        if e.a in anchors and e.b in anchors:
            return Violation(4, f"edge e{i} joins two anchors")
    return None


def subdivide(g: ResourceGraph, s: int) -> ResourceGraph:
    """Split every edge into s equal sub-edges joined by fresh plain nodes.

    Every edge weight must be divisible by s. Original node ids are
    preserved; the inserted nodes are flagged as subdivision nodes and are
    never anchors. With coordinates present, all coordinates scale by s so
    they stay integral.
    """
    if s < 1:
        raise InvalidParameterError(f"subdivision count must be >= 1, got {s}")
    if s == 1:
        return g
    for i, e in enumerate(g.edges):
        if e.weight % s:
            raise InvalidParameterError(f"edge e{i} weight {e.weight} not divisible by {s}")
    coords = [(x * s, y * s) for x, y in g.coords] if g.coords is not None else None
    next_node = g.num_nodes
    new_edges = []
    sub_nodes = []
    for e in g.edges:
        w = e.weight // s
        chain = [e.a]
        for k in range(1, s):
            chain.append(next_node)
            sub_nodes.append(next_node)
            if coords is not None:
                ax, ay = coords[e.a]
                bx, by = g.coords[e.b][0] * s, g.coords[e.b][1] * s
                coords.append((ax + (bx - ax) * k // s, ay + (by - ay) * k // s))
            next_node += 1
        chain.append(e.b)
        for u, v in zip(chain, chain[1:]):
            new_edges.append(Edge(u, v, w, e.directed))
    uw = g.unit_weight // s if g.unit_weight is not None else None
    return ResourceGraph(next_node, new_edges, g.anchors, coords, uw, sub_nodes)


class GeoLinks:
    """Radius-limited spatial surroundings of every resource: ``linked[r]``
    is the frozenset of rids within 0..radius of r, r included, and
    ``transitions[a][b]`` caches, once first used, the exact exit and entry
    sets of a step off a onto b, which derive from ``linked`` alone."""

    __slots__ = ("radius", "linked", "transitions")

    def __init__(self, radius: int, linked: tuple):
        self.radius = radius
        self.linked = linked
        self.transitions = {}


def build_adjacency_links(g: ResourceGraph, s: int) -> GeoLinks:
    """Breadth-first resource-adjacency balls of radius s around each resource."""
    if s < 1:
        raise InvalidParameterError(f"link radius must be >= 1, got {s}")
    adj = g.adjacent
    linked = []
    for r in range(g.num_resources):
        ball = {r}
        frontier = [r]
        for _ in range(s):
            nxt = []
            for p in frontier:
                for q in adj[p]:
                    if q not in ball:
                        ball.add(q)
                        nxt.append(q)
            frontier = nxt
        linked.append(frozenset(ball))
    return GeoLinks(s, tuple(linked))


def manhattan_bound(g: ResourceGraph, u: int, v: int) -> int:
    """Admissible travel-tick bound between nodes of a uniform embedded graph."""
    if g.coords is None or g.unit_weight is None:
        raise InvalidParameterError("manhattan guide needs an embedded uniform-weight graph")
    (x1, y1), (x2, y2) = g.coords[u], g.coords[v]
    return g.unit_weight * (abs(x1 - x2) + abs(y1 - y2))


def spatial_path(g, frm, to, forbidden=frozenset(), guide="none"):
    """Cheapest node/edge path from ``frm`` to ``to`` avoiding forbidden nodes.

    Returns (resources, cost) where resources alternate node, edge, node and
    both endpoints are nodes, or None when no path exists. ``guide`` picks the
    search heuristic: "none" (uniform) or "manhattan" (embedded
    uniform-weight graphs only).

    The heap is keyed ``(f, -cost, v)``: among equal ``f`` the deepest node,
    the one with the highest cost so far, pops first. Under the Manhattan
    guide much of a leg's bounding box shares one ``f``, and this order runs
    down one route across that plateau instead of widening over all of it
    (Asai & Fukunaga, "Tie-Breaking Strategies for Cost-Optimal Best First
    Search", JAIR 58, 2017). Both guides are consistent, so the first pop of
    ``to`` still has the least cost. Under "none" ``f`` is the cost itself,
    so ``-cost`` breaks no tie and nodes pop in cost, then id, order.
    """
    if frm == to:
        return [frm], 0
    if to in forbidden or frm in forbidden:
        return None

    if guide == "manhattan":
        h = lambda v: manhattan_bound(g, v, to)
    elif guide == "none":
        h = lambda v: 0
    else:
        raise InvalidParameterError(f"unknown guide {guide!r}")

    best = {frm: 0}
    parent = {}
    heap = [(h(frm), 0, frm)]
    while heap:
        f, neg, v = heapq.heappop(heap)
        cost = -neg
        if v == to:
            path = [to]
            while path[-1] != frm:
                erid, prev = parent[path[-1]]
                path.append(erid)
                path.append(prev)
            path.reverse()
            return path, cost
        if cost > best.get(v, -1):
            continue
        for erid, u, w in g.moves[v]:
            if u in forbidden:
                continue
            nc = cost + w
            if nc < best.get(u, float("inf")):
                best[u] = nc
                parent[u] = (erid, v)
                heapq.heappush(heap, (nc + h(u), -nc, u))
    return None

