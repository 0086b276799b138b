"""The benchmark's workloads: which scenarios a run generates from its seed.

Scenario ``i`` of a run uses generator seed ``seed + SUBSEED_STRIDE * i``, so
scenario 0 is exactly ``scenarios.generate(seed=seed, ...)``. A run times
``scenarios`` scenarios and averages over them: one scenario's run time and
makespan depend on how its demands happen to fall, and averaging several per
run keeps the seed-to-seed spread of the reported numbers small.
"""

from dataclasses import dataclass

SUBSEED_STRIDE = 100_003


@dataclass(frozen=True)
class Workload:
    name: str
    generate: dict  # keyword arguments for agvtime.scenarios.generate
    scenarios: int  # scenarios averaged per untraced run
    must_fire: tuple  # per-layer counters the traced run must see nonzero


WORKLOADS = {
    w.name: w
    for w in (
        # Time-window search and gap reads over a long horizon; anchoring is
        # under 1% of the run.
        Workload(
            "long-horizon",
            dict(grid=30, agvs=8, demands=160, preset="full-manhattan", anchoriser="greedy"),
            scenarios=5,
            must_fire=("pathing.labels_pushed", "scheduling.demands"),
        ),
        # 80 unguided multi-source anchorisation searches, no demands.
        Workload(
            "fleet-parking",
            dict(grid=26, agvs=80, demands=0, anchoriser="greedy"),
            scenarios=12,
            must_fire=("pathing.labels_pushed", "anchoring.attempts", "anchoring.labels_pushed"),
        ),
        # Large footprints: the write side of timegraph and intervals, with
        # corridor-restricted search.
        Workload(
            "dense-footprint",
            dict(
                grid=14,
                agvs=8,
                demands=200,
                subdivisions=2,
                link_radius=3,
                preset="partial-manhattan",
                anchoriser="greedy",
            ),
            scenarios=5,
            must_fire=(
                "pathing.labels_pushed",
                "scheduling.demands",
                "graph.spatial_path_calls",
            ),
        ),
    )
}


def scenario_seeds(workload: Workload, seed: int, count: int | None = None) -> list[int]:
    n = workload.scenarios if count is None else count
    return [seed + SUBSEED_STRIDE * i for i in range(n)]
