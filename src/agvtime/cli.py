"""Command line front end: generate scenarios, run pipelines, benchmark."""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from .bench import CSV_HEADER, SUITES, csv_row
from .graph import InvalidParameterError
from .intervals import INF, fmt_tick, parse_tick
from .scenarios import (
    Scenario,
    _graph_and_fleet,
    from_json,
    generate,
    materialise,
    to_json,
    validate_scenario,
)
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

# The generator's named parameters shape the layout, so they cannot change a
# scenario file; those without a default must be given. Every other flag
# names a Scenario field, which generate takes as one of its **fields.
_GENERATE = [p for p in inspect.signature(generate).parameters.values() if p.kind is p.KEYWORD_ONLY]
_SHAPE = {p.name for p in _GENERATE}
_REQUIRED = [p.name for p in _GENERATE if p.default is p.empty]


def _report(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Usage errors take the path of every other bad input: one JSON line, exit 2."""

    def error(self, message):
        _report("invalid", message)
        sys.exit(EXIT_INVALID)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def int_list(text: str):
    """Comma-separated integers; as an argparse type, a bad or empty item is
    a usage error."""
    return tuple(int(x) for x in text.split(","))


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


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _generated(knobs: dict) -> Scenario:
    missing = [_flag(name) for name in _REQUIRED if name not in knobs]
    if missing:
        raise InvalidParameterError(f"{', '.join(missing)} required")
    return generate(**knobs)


def cmd_generate(opts: dict) -> int:
    out = opts.pop("out", ".")
    sc = _generated(opts)
    path = _out_dir(out) / "scenario.json"
    path.write_text(to_json(sc))
    print(path)
    return EXIT_OK


def _load_scenario(knobs: dict) -> Scenario:
    """The ``--scenario`` file with the given fields overridden, else a generated one."""
    path = knobs.pop("scenario", None)
    if path is None:
        return _generated(knobs)
    shape = sorted(_SHAPE & knobs.keys())
    if shape:
        raise InvalidParameterError(f"{_flag(shape[0])} cannot change a scenario file")
    try:
        sc = from_json(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise InvalidParameterError(f"cannot load scenario {path}: {err}") from err
    return dataclasses.replace(sc, **knobs)


def _parse_inject(g, text: str):
    """(resource id, agv, start, end) from RESOURCE,AGV,START,END; raises
    InvalidParameterError on anything else. RESOURCE is a name as
    ``timetable.json`` writes it (``n12``, ``e7``), on ``g``; AGV, START and
    END are ticks as it writes them (ASCII digits, no sign, space or leading
    zero), END may be ``inf``, and START < END."""
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidParameterError("--inject wants RESOURCE,AGV,START,END")
    raw, agv, start, end = parts
    try:
        rid = g.resource_id(raw)
        agv, start, end = parse_tick(agv), parse_tick(start), parse_tick(end)
    except ValueError as err:
        raise InvalidParameterError(f"--inject {text}: {err}") from err
    if agv == INF:
        raise InvalidParameterError(f"--inject {text}: AGV must be finite")
    if not start < end:  # an inf START fails here too
        raise InvalidParameterError(
            f"--inject {text}: wants START < END, got [{fmt_tick(start)}, {fmt_tick(end)})"
        )
    return rid, agv, start, end


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


def cmd_run(opts: dict) -> int:
    out = opts.pop("out", ".")
    inject = opts.pop("inject", None)
    sc = _load_scenario(opts)
    built = _graph_and_fleet(sc)  # once, for both checks and planning
    problem = validate_scenario(sc, built)
    if problem is not None:
        raise InvalidParameterError(str(problem))
    g, links, placements, demands = materialise(sc, built)
    if inject is not None:
        inject = _parse_inject(g, inject)
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

    if inject is not None:
        tt.tg.reserve(*inject)

    bad = audit_safety(tt.tg, tt.occupations())
    if bad is not None:
        _report("audit", str(bad))
        return EXIT_AUDIT

    out = _out_dir(out)
    (out / "timetable.json").write_text(tt.to_json())
    m = metrics(tt)
    row = csv_row(
        "run", _scenario_tag(sc), sc.preset, f"{m['runtime_ms']:.3f}",
        m["makespan"], m["total_distance"], sc.anchoriser,
    )
    (out / "metrics.csv").write_text(CSV_HEADER + "\n" + row + "\n")
    print(f"ok makespan={m['makespan']} total_distance={m['total_distance']}")
    print(out / "timetable.json")
    print(out / "metrics.csv")
    return EXIT_OK


def cmd_bench(opts: dict) -> int:
    out = opts.pop("out", ".")
    suite = opts.pop("suite")
    takes = inspect.signature(SUITES[suite]).parameters
    for name in opts:
        if name not in takes:
            raise InvalidParameterError(f"suite {suite} takes no {_flag(name)}")
    rows = SUITES[suite](**opts)
    text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    path = _out_dir(out) / f"bench_{suite}.csv"
    path.write_text(text)
    print(text, end="")
    print(path, file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    top = _Parser(prog="agvtime", description=__doc__)
    sub = top.add_subparsers(required=True)
    # Only the flags given land in the parsed namespace.
    given = {"argument_default": argparse.SUPPRESS}

    gen = sub.add_parser("generate", help="write a seeded random scenario file", **given)
    _add_generate_flags(gen)
    gen.add_argument("--out", help="output directory")
    gen.set_defaults(command=cmd_generate)

    run = sub.add_parser("run", help="run the full pipeline on a scenario", **given)
    run.add_argument("--scenario", help="scenario JSON file")
    _add_generate_flags(run)
    run.add_argument("--inject", help="RESOURCE,AGV,START,END extra reservation before the audit")
    run.add_argument("--out", help="output directory")
    run.set_defaults(command=cmd_run)

    bench = sub.add_parser("bench", help="run a benchmark suite", **given)
    bench.add_argument("--suite", choices=SUITES, required=True)
    bench.add_argument("--grid", type=int)
    bench.add_argument("--agvs", type=int)
    bench.add_argument("--demands", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--agv-counts", type=int_list, help="comma list for the anchorisers suite")
    bench.add_argument("--sizes", type=int_list, help="comma list of grid sizes for the presets suite")
    bench.add_argument("--subdivisions", type=int_list, help="comma list for the reservers suite")
    bench.add_argument("--out", help="output directory")
    bench.set_defaults(command=cmd_bench)

    opts = vars(top.parse_args(argv))
    try:
        return opts.pop("command")(opts)
    except StalledAnchorisation as err:
        _report("stalled", str(err))
        return EXIT_FAULT
    except NoPathFault as err:
        _report("no-path", str(err))
        return EXIT_FAULT
    except (InvalidParameterError, OSError) as err:
        _report("invalid", str(err))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
