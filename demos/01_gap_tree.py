"""Walk through the reservation tree on a single resource.

Run: python3 demos/01_gap_tree.py
"""

from agvtime.intervals import INF, GapTree, fmt_tick


def spans(gaps):
    return [f"[{s}, {fmt_tick(e)})" for s, e in gaps]


def show(tree, label):
    print(f"--- {label}")
    print(tree.dump())


def main():
    tree = GapTree()
    show(tree, "empty tree: one infinite free segment")

    tree.insert(1, 10, 30)
    tree.insert(2, 20, 50)
    show(tree, "AGV 1 holds [10,30), AGV 2 holds [20,50): the overlap splits")

    tree.insert(1, 30, 35)
    show(tree, "AGV 1 extends to [10,35): touching pieces with equal holders fuse")

    for agv in (1, 3):
        gaps = tree.gap_query(agv, 0, 100)
        print(f"gaps for AGV {agv} in [0,100): {spans(gaps)}")
    print("an AGV's own reservations count as free time for itself\n")

    tree.remove(2, 20, 50)
    show(tree, "AGV 2 releases: neighbours with equal holders merge back")

    tree.insert(4, 90, INF)
    for agv in (4, 3):
        gaps = tree.gap_query(agv, 0, INF)
        print(f"gaps for AGV {agv} to infinity: {spans(gaps)}")
    print("AGV 4's hold to infinity is free time for AGV 4 and closes AGV 3's last gap")


if __name__ == "__main__":
    main()
