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

    links = build_adjacency_links(fine, s)
    interior = sorted(set(range(fine.num_nodes)) - fine.anchors)
    mid = interior[len(interior) // 2]
    ball = links.linked[mid]
    shell = links.boundary[mid]
    print(f"\nlink radius {s} around resource {fine.describe(mid)}:")
    print(f"  footprint size {len(ball)} (itself plus {len(ball) - 1} linked)")
    print(f"  boundary shell size {len(shell)}: "
          f"{sorted(fine.describe(r) for r in shell)[:6]} ...")
    print("  a moving footprint can only gain or lose coverage through the shell")

    for radius in (1, 2, 3, 5):
        lr = build_adjacency_links(fine, radius)
        sizes = [len(lr.linked[v]) for v in interior]
        shells = [len(lr.boundary[v]) for v in interior]
        print(f"radius {radius}: mean ball {sum(sizes)/len(sizes):6.1f}   "
              f"mean shell {sum(shells)/len(shells):5.1f}")
    print("balls grow with the square of the radius, shells roughly linearly")


if __name__ == "__main__":
    main()
