"""Per-layer tracing of one pipeline run, from outside the package.

``Tracer.install`` swaps the public entry points of each agvtime module for
timing wrappers and ``Tracer.uninstall`` puts the originals back. A function
is patched under the name its caller looks it up by, because the modules
import functions by name: ``agvtime.scheduling.time_path`` is a different
binding from ``agvtime.pathing.time_path``. Methods are patched on their class,
which every caller shares.

Every wrapped call is a span. A span's self time is its duration minus the
durations of the spans nested directly inside it, so self times add up to the
traced run's wall time without double counting.
"""

from __future__ import annotations

import math
from pathlib import Path
from time import perf_counter

import agvtime.anchoring
import agvtime.cli
import agvtime.pathing
import agvtime.scenarios
import agvtime.scheduling
from agvtime.footprint import WorkCounter
from agvtime.intervals import GapTree
from agvtime.scheduling import Timetable
from agvtime.timegraph import TimeGraph


class Span:
    """Accumulated calls and times of one span name."""

    __slots__ = ("calls", "self_s", "total_s", "samples")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.samples = []


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Spans and counters of one traced run; install, run once, uninstall."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        # Frames of the open spans: [time spent in child spans, span name].
        self.stack = [[0.0, "cli"]]
        self.labels = 0
        self._gaps_full_totals = lambda: (0, 0.0, 0)
        self.touched = 0  # sum of GapTree.last_touched after each tree op
        self.reservations_committed = 0
        self.footprint_out = 0
        self.work = WorkCounter()
        self.unlabelled_searches = 0
        self.anchor_attempts = 0
        self.anchor_labels = 0
        self.audit_claims = 0
        self.demand_ms = []
        self._demand_mark = None
        self.timetable = None
        self._saved = []

    def span(self, name: str) -> Span:
        if name not in self.spans:
            self.spans[name] = Span()
        return self.spans[name]

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, *, sample=False, after=None):
        """Wrap fn in a span; ``after(result, args)`` sees each call's result."""
        stat = self.span(name)
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stat.total_s += dt
                if sample:
                    stat.samples.append(dt)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _gaps_full(self, fn):
        # Up to 800k calls per run, so this wrapper keeps its state in
        # closure cells and opens no frame of its own: its only traced child
        # is GapTree.gap_query, whose time it reads back off the caller's
        # frame. Tree versions seen are kept per AGV, indexed by resource.
        stack = self.stack
        seen = {}
        calls = 0
        self_s = 0.0
        repeats = 0

        def gaps_full(tg, resource, agv):
            nonlocal calls, self_s, repeats
            version = tg.trees[resource].version
            row = seen.get(agv)
            if row is None:
                row = seen[agv] = [-1] * len(tg.trees)
            if row[resource] == version:
                repeats += 1
            else:
                row[resource] = version
            top = stack[-1]
            before = top[0]
            t0 = perf_counter()
            result = fn(tg, resource, agv)
            dt = perf_counter() - t0
            self_s += dt - (top[0] - before)
            top[0] = before + dt
            calls += 1
            return result

        def totals():
            return calls, self_s, repeats

        self._gaps_full_totals = totals
        return gaps_full

    def _tree_op(self, name, fn):
        tracer = self

        def after(_result, args):
            tracer.touched += args[0].last_touched

        return self.timed(name, fn, after=after)

    def _guide_factory(self, factory):
        tracer = self

        def make(g, stages):
            h = factory(g, stages)

            def counted(node, stage):
                tracer.labels += 1
                return h(node, stage)

            return counted

        return make

    def _search(self, fn):
        tracer = self
        inner = self.timed("pathing.search", fn, sample=True)

        def search(*args, **kwargs):
            before = tracer.labels
            path = inner(*args, **kwargs)
            # A search that found a path pushed its finishing label at least.
            if path is not None and tracer.labels == before:
                tracer.unlabelled_searches += 1
            return path

        return search

    def _anchorise(self, fn):
        tracer = self
        inner = self.timed("anchoring", fn)

        def anchorise(*args, **kwargs):
            before = tracer.labels
            res = inner(*args, **kwargs)
            tracer.anchor_attempts += res.attempts
            tracer.anchor_labels += tracer.labels - before
            tracer._demand_mark = perf_counter()
            return res

        return anchorise

    def _footprint(self, fn):
        tracer = self

        def expand(steps, links, agv, counter=None):
            out = fn(steps, links, agv, tracer.work if counter is None else counter)
            tracer.footprint_out += len(out)
            return out

        return self.timed("footprint", expand)

    def _reserve_all(self, fn):
        tracer = self
        stack = self.stack
        inner = self.timed("timegraph.reserve_all", fn)

        def reserve_all(tg, reservations):
            reservations = list(reservations)
            tracer.reservations_committed += len(reservations)
            # A commit made by build_timetable itself ends one demand: the
            # demand's latency runs from the previous commit (or the end of
            # anchorisation) to here, covering corridor, search and commit.
            demand = stack[-1][1] == "scheduling"
            inner(tg, reservations)
            if demand:
                now = perf_counter()
                tracer.demand_ms.append((now - tracer._demand_mark) * 1000.0)
                tracer._demand_mark = now

        return reserve_all

    def _remove_all(self, fn):
        inner = self.timed("timegraph.remove_all", fn)

        def remove_all(tg, reservations):
            inner(tg, list(reservations))

        return remove_all

    def _audit(self, fn):
        tracer = self

        def audit(tg, occupations):
            occupations = list(occupations)
            tracer.audit_claims += len(occupations)
            return fn(tg, occupations)

        return self.timed("timegraph.audit", audit)

    def _build(self, fn):
        tracer = self

        def after(tt, _args):
            tracer.timetable = tt

        return self.timed("scheduling", fn, after=after)

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self):
        cli, sch, anc, pth, scn = (
            agvtime.cli,
            agvtime.scheduling,
            agvtime.anchoring,
            agvtime.pathing,
            agvtime.scenarios,
        )
        t = self.timed
        p = self._patch
        p(cli, "from_json", lambda f: t("scenarios.from_json", f))
        p(cli, "validate_scenario", lambda f: t("scenarios.validate", f))
        p(cli, "materialise", lambda f: t("scenarios.materialise", f))
        p(scn, "subdivide", lambda f: t("graph.subdivide", f))
        p(scn, "build_adjacency_links", lambda f: t("graph.links", f))
        p(cli, "build_timetable", self._build)
        p(cli, "audit_safety", self._audit)
        p(sch, "greedy_anchorise", self._anchorise)
        p(sch, "naive_anchorise", self._anchorise)
        for owner in (sch, anc):
            p(owner, "time_path", self._search)
            p(owner, "boundary_reservations", self._footprint)
        p(anc, "multi_source_time_path", self._search)
        p(sch, "route_corridor", lambda f: t("pathing.corridor", f))
        p(pth, "spatial_path", lambda f: t("graph.spatial_path", f))
        p(sch, "manhattan_guide", self._guide_factory)
        p(pth, "zero_guide", self._guide_factory)
        p(TimeGraph, "gaps_full", self._gaps_full)
        p(TimeGraph, "reserve_all", self._reserve_all)
        p(TimeGraph, "remove_all", self._remove_all)
        p(GapTree, "insert", lambda f: self._tree_op("intervals.insert", f))
        p(GapTree, "remove", lambda f: self._tree_op("intervals.remove", f))
        p(GapTree, "gap_query", lambda f: self._tree_op("intervals.gap_query", f))
        p(Timetable, "to_json", lambda f: t("scheduling.serialise", f))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, fn):
        """Call fn() with the wrappers installed; returns (result, wall seconds)."""
        self.install()
        try:
            t0 = perf_counter()
            result = fn()
            wall = perf_counter() - t0
        finally:
            self.uninstall()
        root = self.span("cli")
        root.calls += 1
        root.total_s += wall
        root.self_s += wall - self.stack[0][0]
        return result, wall

    # -- metrics ------------------------------------------------------------

    def problems(self) -> list[str]:
        """Signs that a wrapper missed calls it should have seen."""
        out = []
        if self.unlabelled_searches:
            out.append(
                f"{self.unlabelled_searches} searches found a path without a counted label: "
                "a guide factory is called under a name the tracer does not wrap"
            )
        return out

    def metrics(self, timetable_path: Path) -> dict:
        """Per-layer metrics of the finished run, by name, as plain numbers."""
        s = self.span
        search = s("pathing.search")
        trees = self.timetable.tg.trees if self.timetable is not None else []
        sizes = [len(tree) for tree in trees]
        tree_ops = sum(s(n).calls for n in ("intervals.insert", "intervals.remove", "intervals.gap_query"))
        steps = self.work.per_step
        demands = len(self.demand_ms)
        gaps_calls, gaps_s, gaps_repeats = self._gaps_full_totals()
        return {
            "intervals.insert_calls": s("intervals.insert").calls,
            "intervals.insert_s": s("intervals.insert").self_s,
            "intervals.remove_calls": s("intervals.remove").calls,
            "intervals.gap_query_calls": s("intervals.gap_query").calls,
            "intervals.gap_query_s": s("intervals.gap_query").self_s,
            "intervals.touched_per_op": self.touched / tree_ops if tree_ops else 0.0,
            "intervals.stored_per_tree_mean": sum(sizes) / len(sizes) if sizes else 0.0,
            "intervals.stored_per_tree_max": max(sizes, default=0),
            "graph.subdivide_s": s("graph.subdivide").self_s,
            "graph.links_s": s("graph.links").self_s,
            "graph.spatial_path_calls": s("graph.spatial_path").calls,
            "graph.spatial_path_s": s("graph.spatial_path").self_s,
            "timegraph.gaps_full_calls": gaps_calls,
            "timegraph.gaps_full_s": gaps_s,
            "timegraph.gaps_full_repeat_ratio": gaps_repeats / gaps_calls if gaps_calls else 0.0,
            "timegraph.reserve_all_s": s("timegraph.reserve_all").self_s,
            "timegraph.remove_all_s": s("timegraph.remove_all").self_s,
            "timegraph.reservations_committed": self.reservations_committed,
            "timegraph.audit_s": s("timegraph.audit").self_s,
            "timegraph.audit_claims": self.audit_claims,
            "pathing.searches": search.calls,
            "pathing.search_s": search.self_s,
            "pathing.search_ms_p50": percentile(search.samples, 0.50) * 1000.0,
            "pathing.search_ms_p95": percentile(search.samples, 0.95) * 1000.0,
            "pathing.labels_pushed": self.labels,
            "pathing.labels_per_search": self.labels / search.calls if search.calls else 0.0,
            "pathing.us_per_label": search.total_s * 1e6 / self.labels if self.labels else 0.0,
            "pathing.corridor_s": s("pathing.corridor").self_s,
            "anchoring.s": s("anchoring").total_s,
            "anchoring.attempts": self.anchor_attempts,
            "anchoring.labels_pushed": self.anchor_labels,
            "footprint.calls": s("footprint").calls,
            "footprint.s": s("footprint").self_s,
            "footprint.reservations_out": self.footprint_out,
            "footprint.work_per_step": sum(steps) / len(steps) if steps else 0.0,
            "scheduling.demands": demands,
            "scheduling.ms_per_demand": sum(self.demand_ms) / demands if demands else 0.0,
            "scheduling.demand_ms_p50": percentile(self.demand_ms, 0.50),
            "scheduling.demand_ms_p95": percentile(self.demand_ms, 0.95),
            "scheduling.self_s": s("scheduling").self_s,
            "scheduling.serialise_s": s("scheduling.serialise").self_s,
            "scheduling.timetable_bytes": timetable_path.stat().st_size,
            "scenarios.from_json_s": s("scenarios.from_json").self_s,
            "scenarios.validate_s": s("scenarios.validate").self_s,
            "scenarios.materialise_s": s("scenarios.materialise").self_s,
            "cli.self_s": s("cli").self_s,
        }
