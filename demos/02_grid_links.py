"""Build a grid layout, subdivide its edges, and inspect geographic links.

Run: python3 demos/02_grid_links.py
"""

from agvtime.graph import build_adjacency_links, build_grid, subdivide, validate


def main():
    g = build_grid(6, 12)
    print(f"6x6 grid: {g.num_nodes} nodes, {len(g.edges)} edges, "
          f"{len(g.anchors)} perimeter anchors")
    print(f"validate for 8 AGVs: {validate(g, 8)}")

    s = 3
    fine = subdivide(g, s)
    print(f"\nafter subdividing each edge into {s}: "
          f"{fine.num_nodes} nodes, {len(fine.edges)} edges "
          f"(weights {g.edges[0].weight} -> {fine.edges[0].weight})")

    # The shell at radius r is the ball of radius r minus the ball of r - 1.
    radii = (1, 2, 3, 5)
    balls = {r: build_adjacency_links(fine, r).linked for r in range(1, max(radii) + 1)}

    def shell(r, v):
        return balls[r][v] - (balls[r - 1][v] if r > 1 else {v})

    interior = sorted(set(range(fine.num_nodes)) - fine.anchors)
    mid = interior[len(interior) // 2]
    ball = balls[s][mid]
    print(f"\nlink radius {s} around resource {fine.describe(mid)}:")
    print(f"  footprint size {len(ball)} (itself plus {len(ball) - 1} linked)")
    print(f"  boundary shell size {len(shell(s, mid))}: "
          f"{sorted(fine.describe(r) for r in shell(s, mid))[:6]} ...")
    print("  a step to a neighbour gains or loses coverage only on the shells")

    for radius in radii:
        sizes = [len(balls[radius][v]) for v in interior]
        shells = [len(shell(radius, v)) for v in interior]
        print(f"radius {radius}: mean ball {sum(sizes)/len(sizes):6.1f}   "
              f"mean shell {sum(shells)/len(shells):5.1f}")
    print("balls grow with the square of the radius, shells roughly linearly")


if __name__ == "__main__":
    main()
