"""Command line front end: generate scenarios, run pipelines, benchmark."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import CSV_HEADER, run_suite
from .graph import InvalidParameterError
from .intervals import Interval, parse_tick
from .scenarios import Scenario, from_json, generate, materialise, to_json, validate_scenario
from .scheduling import (
    ANCHORISERS,
    PRESETS,
    NoPathFault,
    StalledAnchorisation,
    build_timetable,
    metrics,
)
from .timegraph import audit_safety

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAULT = 3
EXIT_AUDIT = 4


def _report(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Usage errors take the path of every other bad input: one JSON line, exit 2."""

    def error(self, message):
        _report("invalid", message)
        sys.exit(EXIT_INVALID)


def _add_generate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, help="grid side length")
    p.add_argument("--agvs", type=int, help="fleet size")
    p.add_argument("--demands", type=int, help="number of demands")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--weight", type=int, help="edge weight in ticks")
    p.add_argument("--subdivide", type=int, dest="subdivisions", help="edge subdivisions")
    p.add_argument("--link-radius", type=int, help="geographic link radius")
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--anchoriser", choices=ANCHORISERS)
    p.add_argument("--stop-pickup", type=int, help="ticks held at pickup")
    p.add_argument("--stop-dropoff", type=int, help="ticks held at dropoff")


def _generate_kwargs(args) -> dict:
    kw = {}
    for name in (
        "grid",
        "agvs",
        "demands",
        "seed",
        "weight",
        "subdivisions",
        "link_radius",
        "preset",
        "anchoriser",
        "stop_pickup",
        "stop_dropoff",
    ):
        v = getattr(args, name, None)
        if v is not None:
            kw[name] = v
    return kw


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    kw = _generate_kwargs(args)
    for required in ("grid", "agvs", "demands"):
        if required not in kw:
            _report("invalid", f"--{required} is required")
            return EXIT_INVALID
    try:
        sc = generate(**kw)
    except InvalidParameterError as err:
        _report("invalid", str(err))
        return EXIT_INVALID
    out = _out_dir(args) / "scenario.json"
    out.write_text(to_json(sc))
    print(out)
    return EXIT_OK


def _load_scenario(args) -> Scenario | None:
    if args.scenario:
        sc = from_json(Path(args.scenario).read_text())
        overrides = {}
        for name in ("seed", "preset", "anchoriser", "subdivisions", "link_radius", "stop_pickup", "stop_dropoff"):
            v = getattr(args, name, None)
            if v is not None:
                overrides[name] = v
        return dataclasses.replace(sc, **overrides)
    kw = _generate_kwargs(args)
    if not all(k in kw for k in ("grid", "agvs", "demands")):
        return None
    return generate(**kw)


def _parse_inject(g, text: str):
    """(resource id, agv, Interval) from RESOURCE,AGV,START,END; raises
    ValueError or InvalidParameterError on anything that is not on ``g``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise InvalidParameterError("--inject wants RESOURCE,AGV,START,END")
    raw, agv, start, end = parts
    rid = g.resource_id(raw) if raw[:1] in ("n", "e") else int(raw)
    if not 0 <= rid < g.num_resources:
        raise InvalidParameterError(f"--inject resource {raw!r} is not on the graph")
    return rid, int(agv), Interval(parse_tick(start), parse_tick(end))


def _scenario_tag(sc: Scenario) -> str:
    graph = sc.graph
    if graph.get("type") == "grid":
        shape = f"grid{graph['n']}"
    else:
        shape = "explicit"
    return (
        f"{shape}-sub{sc.subdivisions}-r{sc.link_radius}"
        f"-a{len(sc.placements)}-d{len(sc.demands)}-seed{sc.seed}"
    )


def cmd_run(args) -> int:
    try:
        sc = _load_scenario(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        _report("invalid", f"cannot load scenario: {err}")
        return EXIT_INVALID
    except InvalidParameterError as err:
        _report("invalid", str(err))
        return EXIT_INVALID
    if sc is None:
        _report("invalid", "give --scenario FILE or --grid/--agvs/--demands")
        return EXIT_INVALID
    problem = validate_scenario(sc)
    if problem is not None:
        _report("invalid", str(problem))
        return EXIT_INVALID
    g, links, placements, demands = materialise(sc)
    inject = None
    if args.inject:
        try:
            inject = _parse_inject(g, args.inject)
        except (ValueError, InvalidParameterError) as err:
            _report("invalid", str(err))
            return EXIT_INVALID
    try:
        tt = build_timetable(
            g,
            links,
            placements,
            demands,
            preset=sc.preset,
            anchoriser=sc.anchoriser,
            stop_pickup=sc.stop_pickup,
            stop_dropoff=sc.stop_dropoff,
            seed=sc.seed,
        )
    except StalledAnchorisation as err:
        _report("stalled", str(err))
        return EXIT_FAULT
    except NoPathFault as err:
        _report("no-path", str(err))
        return EXIT_FAULT

    if inject is not None:
        tt.tg.reserve(*inject)

    bad = audit_safety(tt.tg, tt.occupations())
    if bad is not None:
        _report("audit", str(bad))
        return EXIT_AUDIT

    out = _out_dir(args)
    (out / "timetable.json").write_text(tt.to_json())
    m = metrics(tt)
    row = ",".join(
        str(x)
        for x in (
            "run",
            _scenario_tag(sc),
            sc.preset,
            f"{m['runtime_ms']:.3f}",
            m["makespan"],
            m["total_distance"],
            sc.anchoriser,
        )
    )
    (out / "metrics.csv").write_text(CSV_HEADER + "\n" + row + "\n")
    print(f"ok makespan={m['makespan']} total_distance={m['total_distance']}")
    print(out / "timetable.json")
    print(out / "metrics.csv")
    return EXIT_OK


def _int_list(text: str):
    return tuple(int(x) for x in text.split(",") if x)


def cmd_bench(args) -> int:
    kw = {}
    if args.seed is not None:
        kw["seed"] = args.seed
    if args.suite == "anchorisers":
        if args.grid is not None:
            kw["grid"] = args.grid
        if args.agv_counts:
            kw["agv_counts"] = _int_list(args.agv_counts)
    elif args.suite == "presets":
        if args.sizes:
            kw["sizes"] = _int_list(args.sizes)
        if args.agvs is not None:
            kw["agvs"] = args.agvs
        if args.demands is not None:
            kw["demands"] = args.demands
    elif args.suite == "reservers":
        if args.grid is not None:
            kw["grid"] = args.grid
        if args.subdivisions_list:
            kw["subdivisions"] = _int_list(args.subdivisions_list)
        kw.pop("seed", None)
    try:
        rows = run_suite(args.suite, **kw)
    except (InvalidParameterError, ValueError) as err:
        _report("invalid", str(err))
        return EXIT_INVALID
    text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    out = _out_dir(args) / f"bench_{args.suite}.csv"
    out.write_text(text)
    print(text, end="")
    print(out, file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    top = _Parser(prog="agvtime", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded random scenario file")
    _add_generate_flags(gen)
    gen.add_argument("--out", help="output directory")

    run = sub.add_parser("run", help="run the full pipeline on a scenario")
    run.add_argument("--scenario", help="scenario JSON file")
    _add_generate_flags(run)
    run.add_argument("--inject", help="RESOURCE,AGV,START,END extra reservation before the audit")
    run.add_argument("--out", help="output directory")

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("--suite", choices=("anchorisers", "presets", "reservers"), required=True)
    bench.add_argument("--grid", type=int)
    bench.add_argument("--agvs", type=int)
    bench.add_argument("--demands", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--agv-counts", help="comma list for the anchorisers suite")
    bench.add_argument("--sizes", help="comma list of grid sizes for the presets suite")
    bench.add_argument(
        "--subdivisions", dest="subdivisions_list", help="comma list for the reservers suite"
    )
    bench.add_argument("--out", help="output directory")

    args = top.parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
