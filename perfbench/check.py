"""Independent check of a written ``timetable.json`` against its scenario.

The check reads the file back rather than trusting the planner's memory. Each
AGV's footprint is re-expanded with ``footprint.naive_reservations``, which
shares no code with the boundary sweep the planner commits with, and every
other AGV's positive-length base claim is tested against it here, without
``GapTree`` or the planner's own audit.
"""

from __future__ import annotations

import json
from bisect import bisect_right

from agvtime.footprint import PathShapeError, naive_reservations
from agvtime.scenarios import from_json, materialise

INF = float("inf")


def _tick(value, *, allow_inf=False):
    if allow_inf and value == "inf":
        return INF
    if type(value) is not int or value < 0:
        raise ValueError(f"bad tick {value!r}")
    return value


def _read_steps(g, agv_doc):
    steps = []
    raw = agv_doc["steps"]
    for k, s in enumerate(raw):
        rid = g.resource_id(s["resource"])
        if not 0 <= rid < g.num_resources:
            raise ValueError(f"resource {s['resource']} is not on the graph")
        start = _tick(s["start"])
        end = _tick(s["end"], allow_inf=k == len(raw) - 1)
        if end < start:
            raise ValueError(f"inverted step {s}")
        steps.append((rid, start, end))
    return steps


def _movement_problem(g, agv, steps, source):
    """First way the step chain is not a physical walk, or None."""
    if not steps:
        return f"agv {agv}: no steps"
    if steps[0][0] != source or steps[0][1] != 0:
        return f"agv {agv}: does not start at tick 0 on its placement"
    for (r0, _, e0), (r1, s1, e1) in zip(steps, steps[1:]):
        if s1 != e0:
            return f"agv {agv}: step on {g.describe(r1)} starts at {s1}, previous ended at {e0}"
        if g.is_node(r1):
            if g.is_node(r0):
                ok = r0 == r1
            else:
                e = g.edge_at(r0)
                ok = r1 in (e.a, e.b)
        else:
            e = g.edge_at(r1)
            ok = g.is_node(r0) and (r0 == e.a or (r0 == e.b and not e.directed))
            if ok and e1 - s1 != e.weight:
                return f"agv {agv}: crosses {g.describe(r1)} in {e1 - s1} ticks, weight {e.weight}"
        if not ok:
            return f"agv {agv}: {g.describe(r0)} to {g.describe(r1)} is not a move"
    return None


def _merged(spans):
    spans.sort()
    starts, ends = [], []
    for s, e in spans:
        if ends and s <= ends[-1]:
            ends[-1] = max(ends[-1], e)
        else:
            starts.append(s)
            ends.append(e)
    return starts, ends


def check_timetable(scenario_text: str, timetable_text: str) -> list[str]:
    """Problems found in the timetable; an empty list means it passed."""
    sc = from_json(scenario_text)
    g, links, placements, _ = materialise(sc)
    doc = json.loads(timetable_text)

    by_agv = {}
    try:
        for agv_doc in doc["agvs"]:
            by_agv[agv_doc["id"]] = _read_steps(g, agv_doc)
    except (KeyError, TypeError, ValueError) as err:
        return [f"unreadable timetable: {err}"]
    if sorted(by_agv) != sorted(placements):
        return [f"AGVs {sorted(by_agv)} in the file, {sorted(placements)} placed"]

    problems = []
    for agv, steps in by_agv.items():
        bad = _movement_problem(g, agv, steps, placements[agv].resource)
        if bad:
            problems.append(bad)
            continue
        rid, _, end = steps[-1]
        if rid not in g.anchors or end != INF:
            problems.append(f"agv {agv}: does not end on an anchor with end inf")
    if problems:
        return problems

    # Footprints, merged per (resource, agv) into sorted disjoint spans.
    footprint = {}
    for agv, steps in by_agv.items():
        spans = {}
        try:
            expanded = naive_reservations(steps, links, agv)
        except PathShapeError as err:
            return [f"agv {agv}: {err}"]
        for r in expanded:
            spans.setdefault(r.resource, []).append((r.ivl.start, r.ivl.end))
        for rid, rs in spans.items():
            footprint.setdefault(rid, {})[agv] = _merged(rs)

    for agv, steps in by_agv.items():
        for rid, start, end in steps:
            if start == end:
                continue
            for other, (starts, ends) in footprint.get(rid, {}).items():
                if other == agv:
                    continue
                k = bisect_right(starts, start) - 1
                hit = (k >= 0 and ends[k] > start) or (k + 1 < len(starts) and starts[k + 1] < end)
                if hit:
                    problems.append(
                        f"agv {agv} on {g.describe(rid)} [{start}, {end}) "
                        f"enters the footprint of agv {other}"
                    )
                    break
            if len(problems) >= 10:
                return problems

    makespan = max(steps[-1][1] for steps in by_agv.values())
    distance = sum(
        end - start for steps in by_agv.values() for rid, start, end in steps if not g.is_node(rid)
    )
    m = doc.get("metrics", {})
    if m.get("makespan") != makespan:
        problems.append(f"metrics.makespan {m.get('makespan')} but the steps give {makespan}")
    if m.get("total_distance") != distance:
        problems.append(
            f"metrics.total_distance {m.get('total_distance')} but the steps give {distance}"
        )
    return problems
