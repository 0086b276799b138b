"""Command line front end: generate scenarios, run pipelines, benchmark
footprint expansion."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import CSV_HEADER, bench_reservers, csv_row
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

# generate's keyword-only parameters shape the layout, so they cannot change
# a scenario file; those without a default must be given. Every other flag
# names a Scenario field, which generate takes as one of its **fields.
_GENERATE = generate.__code__.co_varnames[: generate.__code__.co_kwonlyargcount]
_SHAPE = set(_GENERATE)
_REQUIRED = [name for name in _GENERATE if name not in generate.__kwdefaults__]


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


def _write_together(files) -> None:
    """Call each ``(path, write)`` pair's ``write`` on a text file opened under
    a temporary name beside ``path``, then move all of them into place: a
    failed write leaves every path as it was, and no temporary file behind."""
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    try:
        for (_, write), tmp in zip(files, tmps):
            with open(tmp, "w", encoding="utf-8") as f:
                write(f)
        for (path, _), tmp in zip(files, tmps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _generated(knobs: dict) -> Scenario:
    missing = [_flag(name) for name in _REQUIRED if name not in knobs]
    if missing:
        raise InvalidParameterError(f"{', '.join(missing)} required")
    return generate(**knobs)


def cmd_generate(opts: dict) -> int:
    out = opts.pop("out", ".")
    sc = _generated(opts)
    path = _out_dir(out) / "scenario.json"
    _write_together([(path, lambda f: f.write(to_json(sc)))])
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
    return sc._replace(**knobs)


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
    m = metrics(tt)
    row = csv_row(
        "run", _scenario_tag(sc), sc.preset, f"{m['runtime_ms']:.3f}",
        m["makespan"], m["total_distance"], sc.anchoriser,
    )
    _write_together([
        (out / "timetable.json", tt.to_json),
        (out / "metrics.csv", lambda f: f.write(CSV_HEADER + "\n" + row + "\n")),
    ])
    print(f"ok makespan={m['makespan']} total_distance={m['total_distance']}")
    print(out / "timetable.json")
    print(out / "metrics.csv")
    return EXIT_OK


def cmd_bench(opts: dict) -> int:
    out = opts.pop("out", ".")
    suite = opts.pop("suite")
    text = CSV_HEADER + "\n" + "\n".join(bench_reservers(**opts)) + "\n"
    path = _out_dir(out) / f"bench_{suite}.csv"
    _write_together([(path, lambda f: f.write(text))])
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

    bench = sub.add_parser(
        "bench", help="time naive against boundary-sweep footprint expansion", **given
    )
    bench.add_argument("--suite", choices=["reservers"], required=True)
    bench.add_argument("--grid", type=int, help="grid side length of the corner route")
    bench.add_argument("--subdivisions", type=int_list, help="comma list of edge subdivisions")
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
