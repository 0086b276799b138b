"""Scenario files, the seeded generator, and the command line round trip."""

import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from operator import setitem
from pathlib import Path

import pytest

from agvtime import cli, scenarios, scheduling
from agvtime.anchoring import greedy_anchorise, naive_anchorise
from agvtime.cli import EXIT_AUDIT, EXIT_FAULT, EXIT_INVALID, EXIT_OK, main
from agvtime.graph import (
    Edge,
    InvalidParameterError,
    ResourceGraph,
    build_adjacency_links,
    build_grid,
    spatial_path,
    subdivide,
)
from agvtime.pathing import SourceSpec
from agvtime.scheduling import ANCHORISERS, PRESETS, Timetable, build_timetable
from agvtime.scenarios import (
    Scenario,
    from_json,
    generate,
    materialise,
    to_json,
    validate_scenario,
)
from agvtime.timegraph import TimeGraph


# Child interpreters do not see pytest's ``pythonpath`` setting, so they are
# given the checkout's ``src`` on ``PYTHONPATH``.
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")))
)}


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "agvtime", *args],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )


def drop_runtime(csv_text):
    rows = []
    for line in csv_text.strip().splitlines():
        cols = line.split(",")
        del cols[3]
        rows.append(cols)
    return rows


# ---------------------------------------------------------------- scenarios


def test_json_roundtrip_exact():
    for sc in (
        generate(grid=6, agvs=3, demands=8, seed=17, subdivisions=2, link_radius=3),
        generate(grid=8, agvs=4, demands=0, seed=3, preset="partial-manhattan", anchoriser="naive"),
        generate(grid=7, agvs=2, demands=5, seed=9, weight=12, stop_pickup=2, stop_dropoff=4),
    ):
        back = from_json(to_json(sc))
        assert type(back) is Scenario
        assert back == sc


def test_generate_is_deterministic():
    a = generate(grid=10, agvs=4, demands=10, seed=7)
    b = generate(grid=10, agvs=4, demands=10, seed=7)
    assert to_json(a) == to_json(b)
    c = generate(grid=10, agvs=4, demands=10, seed=8)
    assert to_json(c) != to_json(a)


def test_generated_scenarios_validate():
    # Generator property run: everything it emits must be runnable.
    n = 0
    for seed in range(25):
        for grid, agvs, demands, s in (
            (6, 2, 0, 1),
            (8, 4, 5, 2),
            (10, 6, 10, 3),
            (8, 3, 8, 2),
        ):
            sc = generate(
                grid=grid,
                agvs=agvs,
                demands=demands,
                seed=seed,
                weight=12,
                subdivisions=s,
                link_radius=2 * s - 1,
            )
            assert validate_scenario(sc) is None
            n += 1
    assert n == 100


def test_demands_avoid_anchors_and_subdivision_nodes():
    sc = generate(grid=8, agvs=2, demands=30, seed=3, weight=12, subdivisions=3, link_radius=2)
    base = build_grid(8, 12)
    for d in sc.demands:
        for node in (d["pickup"], d["dropoff"]):
            assert node < base.num_nodes
            assert node not in base.anchors
        assert d["pickup"] != d["dropoff"]
    assert len({d["id"] for d in sc.demands}) == len(sc.demands)


def test_placements_spread_beyond_link_radius():
    sc = generate(grid=10, agvs=8, demands=0, seed=5, subdivisions=1, link_radius=1)
    g, links, placements, _ = materialise(sc)
    spots = [spec.resource for spec in placements.values()]
    assert len(set(spots)) == len(spots)
    for i, p in enumerate(spots):
        for q in spots[i + 1 :]:
            assert q not in links.linked[p]


def test_generate_rejects_radius_above_cap():
    with pytest.raises(InvalidParameterError):
        generate(grid=6, agvs=2, demands=0, seed=0, subdivisions=2, link_radius=4)
    generate(grid=6, agvs=2, demands=0, seed=0, subdivisions=2, link_radius=3)


def test_generate_rejects_impossible_density():
    with pytest.raises(InvalidParameterError):
        generate(grid=4, agvs=10, demands=0, seed=0)


def test_generate_rejects_fleet_beyond_anchors():
    with pytest.raises(InvalidParameterError):
        generate(grid=4, agvs=13, demands=0, seed=0)


@pytest.mark.parametrize("name, value", [("preset", "bogus"), ("anchoriser", "x"), ("seed", "abc")])
def test_generate_checks_what_a_file_is_checked_for(name, value):
    with pytest.raises(InvalidParameterError):
        generate(grid=6, agvs=2, demands=1, **{name: value})
    sc = generate(grid=6, agvs=2, demands=1)._replace(**{name: value})
    assert validate_scenario(sc) is not None


# The benchmark workloads' generator keywords, as in perfbench/workloads.py.
BENCH_WORKLOADS = (
    dict(grid=30, agvs=8, demands=160, preset="full-manhattan", anchoriser="greedy"),
    dict(grid=26, agvs=80, demands=0, anchoriser="greedy"),
    dict(grid=14, agvs=8, demands=200, subdivisions=2, link_radius=3,
         preset="partial-manhattan", anchoriser="greedy"),
)
GENERATE_MATRIX = [dict(kw, seed=seed) for kw in BENCH_WORKLOADS for seed in (1, 97)] + [
    dict(grid=8, agvs=3, demands=12, seed=sub * 10 + r, weight=12, subdivisions=sub, link_radius=r,
         stop_pickup=pickup, stop_dropoff=dropoff)
    for sub in (2, 3) for r in range(1, 2 * sub) for pickup, dropoff in ((0, 0), (3, 5))
]


def test_generate_output_is_pinned():
    # Digest taken before generate built through the scenario checks; every
    # scenario file the benchmark writes comes from this function.
    digest = hashlib.sha256()
    for kw in GENERATE_MATRIX:
        digest.update(to_json(generate(**kw)).encode())
    assert digest.hexdigest() == "a4a77b7d805c7d71b7b0976acd8530ceb90c66c72776b4fa02a23ae799272f46"


def test_validate_scenario_reports_bad_fields():
    sc = generate(grid=6, agvs=2, demands=2, seed=1)
    bad = Scenario(
        graph=sc.graph,
        placements=sc.placements,
        demands=sc.demands,
        preset="no-such-preset",
    )
    assert "preset" in validate_scenario(bad)
    off = Scenario(
        graph=sc.graph,
        placements=({"agv": 1, "resource": 10_000},),
        demands=sc.demands,
    )
    assert validate_scenario(off) is not None


def stalling_scenario():
    # Two AGVs whose pinned start footprints cover the whole graph block
    # each other forever, whichever anchoriser runs.
    base = build_grid(4, 4)
    interior = sorted(set(range(base.num_nodes)) - base.anchors)
    return Scenario(
        graph={"type": "grid", "n": 4, "weight": 4},
        placements=(
            {"agv": 1, "resource": interior[0]},
            {"agv": 2, "resource": interior[-1]},
        ),
        demands=(),
        link_radius=50,
    )


def test_stalling_scenario_still_validates():
    assert validate_scenario(stalling_scenario()) is None


# ---------------------------------------------------------------------- cli


def test_cli_generate_then_run(tmp_path):
    gen = run_cli(
        ["generate", "--grid", "6", "--agvs", "3", "--demands", "5", "--seed", "11",
         "--out", str(tmp_path)]
    )
    assert gen.returncode == EXIT_OK, gen.stderr
    scenario = tmp_path / "scenario.json"
    assert scenario.exists()

    out = tmp_path / "run1"
    res = run_cli(["run", "--scenario", str(scenario), "--out", str(out)])
    assert res.returncode == EXIT_OK, res.stderr
    assert res.stdout.startswith("ok makespan=")
    doc = json.loads((out / "timetable.json").read_text())
    assert doc["metrics"]["makespan"] >= 0
    assert (out / "metrics.csv").read_text().startswith("suite,param,algorithm,")


def test_cli_regenerate_and_rerun_byte_identical(tmp_path):
    args = ["generate", "--grid", "8", "--agvs", "4", "--demands", "10", "--seed", "7"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli([*args, "--out", str(d1)]).returncode == EXIT_OK
    assert run_cli([*args, "--out", str(d2)]).returncode == EXIT_OK
    blob = (d1 / "scenario.json").read_bytes()
    assert blob == (d2 / "scenario.json").read_bytes()

    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    for d in (r1, r2):
        res = run_cli(["run", "--scenario", str(d1 / "scenario.json"), "--out", str(d)])
        assert res.returncode == EXIT_OK, res.stderr
    assert (r1 / "timetable.json").read_bytes() == (r2 / "timetable.json").read_bytes()
    m1 = drop_runtime((r1 / "metrics.csv").read_text())
    m2 = drop_runtime((r2 / "metrics.csv").read_text())
    assert m1 == m2


def test_cli_empty_demands_from_anchor_is_trivial(tmp_path, capsys):
    base = build_grid(4, 5)
    anchor = sorted(base.anchors)[0]
    sc = Scenario(
        graph={"type": "grid", "n": 4, "weight": 5},
        placements=({"agv": 1, "resource": anchor},),
        demands=(),
    )
    f = tmp_path / "sc.json"
    f.write_text(to_json(sc))
    code = main(["run", "--scenario", str(f), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "ok makespan=0 total_distance=0" in capsys.readouterr().out


def test_cli_preset_override_lands_in_metrics(tmp_path, capsys):
    gen = main(
        ["generate", "--grid", "6", "--agvs", "2", "--demands", "3", "--seed", "2",
         "--out", str(tmp_path)]
    )
    assert gen == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", str(tmp_path / "scenario.json"),
         "--preset", "full-manhattan", "--out", str(out)]
    )
    assert code == EXIT_OK
    row = (out / "metrics.csv").read_text().strip().splitlines()[-1]
    assert row.split(",")[2] == "full-manhattan"


@pytest.mark.parametrize("demands", [3, 0])
@pytest.mark.parametrize("anchoriser", ANCHORISERS)
@pytest.mark.parametrize("preset", PRESETS)
def test_cli_run_compares_presets_and_anchorisers(tmp_path, capsys, preset, anchoriser, demands):
    # Presets and anchorisers are compared with one run per pair: its
    # metrics.csv row names both, with the makespan and distance the planner
    # reaches on the generated scenario.
    knobs = {"grid": 6, "agvs": 3, "demands": demands, "seed": 3}
    argv = [f"--{name}={value}" for name, value in knobs.items()]
    code = main(["run", *argv, "--preset", preset, "--anchoriser", anchoriser, "--out", str(tmp_path)])
    assert code == EXIT_OK
    row = drop_runtime((tmp_path / "metrics.csv").read_text())[-1]
    assert row[0] == "run" and row[2] == preset and row[5] == anchoriser

    sc = generate(**knobs, preset=preset, anchoriser=anchoriser)
    g, links, placements, ds = materialise(sc)
    tt = build_timetable(
        g, links, placements, ds, preset=preset, anchoriser=anchoriser,
        stop_pickup=sc.stop_pickup, stop_dropoff=sc.stop_dropoff, seed=sc.seed,
    )
    assert row[3:5] == [str(tt.makespan()), str(tt.total_distance())]
    if demands:
        assert tt.makespan() > 0
        return
    # With no demands the run is the anchorisation alone: makespan and
    # distance recomputed from the anchoriser's own paths.
    park, kwargs = {"naive": (naive_anchorise, {"seed": sc.seed}), "greedy": (greedy_anchorise, {})}[anchoriser]
    res = park(TimeGraph(g), links, placements, **kwargs)
    assert res.ok
    makespan = max(p.arrival for p in res.paths.values())
    distance = sum(
        s.end - s.start for p in res.paths.values() for s in p.steps if not g.is_node(s.resource)
    )
    assert row[3:5] == [str(makespan), str(distance)]


def test_cli_run_overrides_every_field_of_a_file(tmp_path, capsys):
    args = ["generate", "--grid", "6", "--agvs", "2", "--demands", "3", "--seed", "2"]
    assert main([*args, "--out", str(tmp_path)]) == EXIT_OK
    out = tmp_path / "out"
    code = main(
        ["run", "--scenario", str(tmp_path / "scenario.json"), "--seed", "5", "--anchoriser", "naive",
         "--subdivide", "2", "--link-radius", "3", "--stop-pickup", "2", "--stop-dropoff", "1",
         "--preset", "partial-manhattan", "--out", str(out)]
    )
    assert code == EXIT_OK
    row = drop_runtime((out / "metrics.csv").read_text())[-1]
    assert row == ["run", "grid6-sub2-r3-a2-d3-seed5", "partial-manhattan", "136", "190", "naive"]


def test_cli_injected_conflict_fails_audit(tmp_path, capsys):
    gen = main(
        ["generate", "--grid", "6", "--agvs", "2", "--demands", "2", "--seed", "4",
         "--out", str(tmp_path)]
    )
    assert gen == EXIT_OK
    scenario = str(tmp_path / "scenario.json")
    first = tmp_path / "plain"
    assert main(["run", "--scenario", scenario, "--out", str(first)]) == EXIT_OK
    doc = json.loads((first / "timetable.json").read_text())
    final = doc["agvs"][0]["steps"][-1]
    assert final["end"] == "inf"
    capsys.readouterr()

    inject = f"{final['resource']},99,0,inf"
    code = main(
        ["run", "--scenario", scenario, "--inject", inject,
         "--out", str(tmp_path / "clash")]
    )
    assert code == EXIT_AUDIT
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "audit"
    # The audit names the holder's first claim on that resource, which AGV
    # 99's injected hold now crosses.
    g = materialise(from_json(Path(scenario).read_text()))[0]
    holder = doc["agvs"][0]
    rid = g.resource_id(final["resource"])
    t = min(s["start"] for s in holder["steps"]
            if s["resource"] == final["resource"] and s["start"] != s["end"])
    assert err["detail"] == (
        f"agv {holder['id']} occupation [{t}, inf) on resource {rid} conflicts with agv(s) 99"
    )


def test_cli_failed_write_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    # timetable.json is streamed to a temporary name and moved into place
    # only when whole: a write that fails partway exits 2 with one JSON line,
    # leaves no temporary file, and leaves an earlier run's files as they were.
    args = ["run", "--grid", "6", "--agvs", "2", "--demands", "3", "--out"]
    kept = tmp_path / "kept"
    assert main([*args, str(kept), "--seed", "2"]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    capsys.readouterr()

    chunks = Timetable._chunks
    mid_stream = []

    def failing(tt):
        for i, chunk in enumerate(chunks(tt)):
            if i == 4:
                mid_stream.append(sorted(p.name for p in out.iterdir()))
                raise OSError(28, "No space left on device")
            yield chunk

    monkeypatch.setattr(Timetable, "_chunks", failing)
    for out in (tmp_path / "fresh", kept):
        assert main([*args, str(out), "--seed", "3"]) == EXIT_INVALID
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "invalid", "detail": "[Errno 28] No space left on device"}
    # The temporary file existed while the stream ran, beside the old files.
    tmp = f".timetable.json.{os.getpid()}.tmp"
    assert mid_stream == [[tmp], sorted([*before, tmp])]
    assert not list((tmp_path / "fresh").iterdir())
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_cli_failed_metrics_write_keeps_the_older_pair(tmp_path, capsys, monkeypatch):
    # timetable.json and metrics.csv are both written under temporary names
    # before either is moved: a failed metrics.csv write leaves the earlier
    # run's pair as it was, not a new timetable beside old metrics.
    args = ["run", "--grid", "6", "--agvs", "2", "--demands", "3", "--out", str(tmp_path)]
    assert main([*args, "--seed", "2"]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["metrics.csv", "timetable.json"]
    capsys.readouterr()

    seen = []

    def failing_open(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        if Path(path).name.startswith(".metrics.csv."):
            seen.append(sorted(p.name for p in tmp_path.iterdir()))

            def write(_text):
                raise OSError(28, "No space left on device")

            f.write = write
        return f

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main([*args, "--seed", "3"]) == EXIT_INVALID
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "invalid", "detail": "[Errno 28] No space left on device"}
    # Both temporary files existed when the write failed, beside the old pair.
    pid = os.getpid()
    assert seen == [sorted([*before, f".timetable.json.{pid}.tmp", f".metrics.csv.{pid}.tmp"])]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as after ``| head -c 0``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_closed_stdout_after_the_files_exits_ok(tmp_path, capsys, monkeypatch):
    # Every command prints only once its files are in place, so a stdout
    # the reader closed is no fault of the run: exit 0, with no error line.
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    args = ["run", "--grid", "6", "--agvs", "2", "--demands", "3", "--seed", "2", "--out", str(tmp_path)]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "timetable.json"]
    assert json.loads((tmp_path / "timetable.json").read_text())["agvs"]


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_closed_stdout_pipe_exits_ok(tmp_path, unbuffered):
    # The same through a real pipe whose read end is closed, buffered and
    # not: the write or the final flush fails, and neither may print a
    # traceback or an error line at exit, nor exit 120.
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "agvtime", "run", "--grid", "6", "--agvs", "2", "--demands", "3",
             "--seed", "2", "--out", str(tmp_path)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**SRC_ENV, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (EXIT_OK, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "timetable.json"]


@pytest.mark.parametrize("command", [
    ["generate", "--grid", "6", "--agvs", "2", "--demands", "3", "--seed"],
    ["bench", "--suite", "reservers", "--grid", "4", "--subdivisions"],
])
def test_cli_failed_write_keeps_the_earlier_file(tmp_path, capsys, monkeypatch, command):
    # generate and bench, too, write under a temporary name and move only a
    # whole file into place: a write that fails partway exits 2 with one
    # JSON line and leaves the earlier file as it was, with no temporary
    # file beside it.
    assert main([*command, "1", "--out", str(tmp_path)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(before) == 1
    capsys.readouterr()

    def failing_open(path, *args, **kwargs):
        f = open(path, *args, **kwargs)

        def write(_text):
            raise OSError(28, "No space left on device")

        f.write = write
        return f

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main([*command, "2", "--out", str(tmp_path)]) == EXIT_INVALID
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "invalid", "detail": "[Errno 28] No space left on device"}
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_cli_generate_refuses_demands_without_a_fleet(tmp_path, capsys):
    # The drawn demands pass the same plan gate a scenario file does.
    with pytest.raises(InvalidParameterError, match="fleet is empty"):
        generate(grid=6, agvs=0, demands=1)
    code = main(["generate", "--grid", "6", "--agvs", "0", "--demands", "1", "--out", str(tmp_path)])
    assert code == EXIT_INVALID
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "invalid"
    assert not (tmp_path / "scenario.json").exists()


def test_cli_invalid_parameters_exit_code(tmp_path, capsys):
    code = main(["run", "--grid", "6", "--agvs", "2"])
    assert code == EXIT_INVALID
    code = main(
        ["generate", "--grid", "6", "--agvs", "2", "--demands", "0",
         "--subdivide", "2", "--link-radius", "4", "--out", str(tmp_path)]
    )
    assert code == EXIT_INVALID
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "invalid"
    # an inverted, negative, never-starting or empty span, an off-graph
    # resource, resource tokens describe never writes (a bare number among
    # them), and AGVs and ticks with a sign, a space, a leading zero, a
    # non-ASCII digit or an infinite AGV
    for inject in ("n10,0,50,20", "n10,0,-5,5", "n10,0,inf,inf", "n10,0,5,5", "99999,0,0,5",
                   "e-1,0,0,5", "n32,0,0,5", "n+3,0,0,5", "n 3,0,0,5", "n03,0,0,5",
                   "03,1,0,5", "+3,1,0,5", "n3,01,0,5", "n3,1,+0,5", "n3,1,0,\u0665",
                   "n3,inf,0,5", "n3, 1,0,5"):
        code = main(
            ["run", "--grid", "6", "--agvs", "2", "--demands", "0",
             "--inject", inject, "--out", str(tmp_path / "inject")]
        )
        assert code == EXIT_INVALID, inject
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] == "invalid"
    # a scenario file that is not UTF-8 text
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    assert main(["run", "--scenario", str(binary), "--out", str(tmp_path / "binary")]) == EXIT_INVALID
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "invalid"
    # a leading "-" makes argparse read the value as an option: a usage error
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--grid", "6", "--agvs", "2", "--demands", "0",
              "--inject", "-1,0,0,5", "--out", str(tmp_path / "inject")])
    assert exit_.value.code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert "usage:" not in out + err
    lines = err.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "invalid"
    # an unusable --out, shape flags on a scenario file, a bad list, a flag
    # bench does not take, and a retired bench suite
    scenario = tmp_path / "scenario.json"
    scenario.write_text(to_json(generate(grid=6, agvs=2, demands=3, seed=2)))
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (
        ["run", "--scenario", str(scenario), "--out", str(taken)],
        ["generate", "--grid", "6", "--agvs", "2", "--demands", "0", "--out", str(taken)],
        ["run", "--scenario", str(scenario), "--grid", "50", "--out", str(tmp_path / "shape")],
        ["run", "--scenario", str(scenario), "--weight", "3", "--out", str(tmp_path / "shape")],
        ["bench", "--suite", "reservers", "--subdivisions", "2,x", "--out", str(tmp_path / "bench")],
        ["bench", "--suite", "reservers", "--seed", "5", "--out", str(tmp_path / "bench")],
        ["bench", "--suite", "presets", "--out", str(tmp_path / "bench")],
        ["bench", "--suite", "anchorisers", "--out", str(tmp_path / "bench")],
        # negative counts and stop ticks, wherever a scenario is generated
        ["generate", "--grid", "6", "--agvs", "2", "--demands", "1", "--stop-pickup", "-5", "--out", str(tmp_path / "gen")],
        ["generate", "--grid", "6", "--agvs", "2", "--demands", "1", "--stop-dropoff", "-1", "--out", str(tmp_path / "gen")],
        ["generate", "--grid", "6", "--agvs", "2", "--demands", "-3", "--out", str(tmp_path / "gen")],
        ["generate", "--grid", "6", "--agvs", "-1", "--demands", "0", "--out", str(tmp_path / "gen")],
        ["run", "--grid", "6", "--agvs", "2", "--demands", "-1", "--out", str(tmp_path / "neg")],
        ["bench", "--suite", "reservers", "--grid", "4", "--subdivisions", "-1", "--out", str(tmp_path / "bench")],
        # an empty list
        ["bench", "--suite", "reservers", "--grid", "4", "--subdivisions", "", "--out", str(tmp_path / "bench")],
        # an empty item inside a list
        ["bench", "--suite", "reservers", "--grid", "4", "--subdivisions", "2,,3", "--out", str(tmp_path / "bench")],
    ):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == EXIT_INVALID, argv
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] == "invalid"
    assert not list(tmp_path.glob("bench/*"))
    # the detail names what is wrong: the subdivision count, not the link
    # radius it caps, and a broken graph rule in words
    doc = json.loads(to_json(generate(grid=6, agvs=2, demands=0)))
    doc["graph"] = {"type": "explicit", "num_nodes": 3, "edges": [[0, 1, 10], [1, 2, 10]], "anchors": [0]}
    doc["placements"] = [{"agv": 1, "resource": 1}, {"agv": 2, "resource": 2}]
    broken = tmp_path / "line.json"
    broken.write_text(json.dumps(doc))
    for argv, detail in (
        (["generate", "--grid", "6", "--agvs", "1", "--demands", "1", "--subdivide", "0",
          "--out", str(tmp_path / "gen")], "subdivisions must be an integer >= 1, got 0"),
        (["run", "--scenario", str(broken), "--out", str(tmp_path / "line")],
         "graph rule 2: 2 AGVs but only 1 anchors"),
    ):
        assert main(argv) == EXIT_INVALID, argv
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0]) == {"error": "invalid", "detail": detail}
    assert not list(tmp_path.rglob("timetable.json"))
    assert not list(tmp_path.rglob("bench_*.csv"))
    assert not (tmp_path / "gen" / "scenario.json").exists()


@pytest.mark.parametrize("stop", [2.5, True, -1, "3"])
def test_cli_rejects_non_integer_stop_ticks(tmp_path, stop):
    sc = generate(grid=6, agvs=2, demands=3, seed=2)
    for field in ("stop_pickup", "stop_dropoff"):
        f = tmp_path / f"{field}.json"
        doc = json.loads(to_json(sc))
        doc[field] = stop
        f.write_text(json.dumps(doc))
        res = run_cli(["run", "--scenario", str(f), "--out", str(tmp_path / field)])
        assert res.returncode == EXIT_INVALID, res.stderr
        assert "Traceback" not in res.stderr
        assert json.loads(res.stderr.strip())["error"] == "invalid"
        assert not (tmp_path / field / "timetable.json").exists()


def _edge_placement(doc, elapsed):
    # AGV 1 starts on the first edge, `elapsed` ticks along it (weight 10)
    doc["placements"][0] = {"agv": 1, "resource": build_grid(6, 10).num_nodes, "elapsed": elapsed}


def explicit_grid():
    """The grid of ``generate(grid=6)`` spelled out as an ``"explicit"`` graph spec."""
    g = build_grid(6, 10)
    return {
        "type": "explicit",
        "num_nodes": g.num_nodes,
        "edges": [[e.a, e.b, e.weight] for e in g.edges],
        "anchors": sorted(g.anchors),
        "coords": [list(c) for c in g.coords],
        "unit_weight": g.unit_weight,
    }


def _explicit(doc, change):
    doc["graph"] = explicit_grid()
    change(doc["graph"])


MALFORMED = {
    "demand-without-pickup": lambda doc: doc["demands"][0].pop("pickup"),
    "scenario-without-graph": lambda doc: doc.pop("graph"),
    "graph-is-a-list": lambda doc: doc.update(graph=[1, 2]),
    "grid-n-is-a-string": lambda doc: doc["graph"].update(n="6"),
    "subdivisions-is-a-string": lambda doc: doc.update(subdivisions="2"),
    "placement-resource-is-a-string": lambda doc: doc["placements"][0].update(resource="3"),
    "elapsed-outside-its-edge": lambda doc: _edge_placement(doc, 10),
    "fractional-horizon": lambda doc: doc["demands"][0].update(horizon=7.5),
    "fractional-elapsed": lambda doc: _edge_placement(doc, 2.5),
    "fractional-pickup": lambda doc: doc["demands"][0].update(pickup=float(doc["demands"][0]["pickup"])),
    # without coords, whose length check would catch the string on its own
    "explicit-num-nodes-is-a-string": lambda doc: _explicit(
        doc, lambda g: (g.pop("coords"), g.update(num_nodes=str(g["num_nodes"])))
    ),
    "explicit-edges-is-a-number": lambda doc: _explicit(doc, lambda g: g.update(edges=5)),
    "explicit-edge-without-weight": lambda doc: _explicit(doc, lambda g: g["edges"][0].pop()),
    "explicit-fractional-edge-weight": lambda doc: _explicit(doc, lambda g: setitem(g["edges"][0], 2, 2.5)),
    "explicit-without-anchors": lambda doc: _explicit(doc, lambda g: g.pop("anchors")),
    "explicit-anchors-is-a-string": lambda doc: _explicit(doc, lambda g: g.update(anchors="02")),
    "explicit-fractional-coordinate": lambda doc: _explicit(doc, lambda g: setitem(g["coords"][0], 0, 0.5)),
    "explicit-unit-weight-is-a-string": lambda doc: _explicit(doc, lambda g: g.update(unit_weight="10")),
    "explicit-edge-below-manhattan-bound": lambda doc: _explicit(doc, lambda g: g.update(unit_weight=11)),
    "manhattan-preset-without-coords": lambda doc: (
        _explicit(doc, lambda g: g.pop("coords")), doc.update(preset="full-manhattan")
    ),
    "empty-fleet-with-demands": lambda doc: doc.update(placements=[]),
    "toward-on-a-node-placement": lambda doc: doc["placements"][0].update(toward="x"),
    "placements-share-a-resource": lambda doc: doc["placements"][1].update(resource=doc["placements"][0]["resource"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_rejects_malformed_scenario_fields(tmp_path, case):
    doc = json.loads(to_json(generate(grid=6, agvs=2, demands=3, seed=2)))
    MALFORMED[case](doc)
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(doc))
    res = run_cli(["run", "--scenario", str(f), "--out", str(tmp_path / "out")])
    assert res.returncode == EXIT_INVALID, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "invalid"
    assert not (tmp_path / "out" / "timetable.json").exists()


def test_cli_run_builds_each_scenario_once(tmp_path, capsys, monkeypatch):
    # One run builds its scenario's graph, placements and demands once and
    # hands them to both validate_scenario and materialise; called alone,
    # each builds its own and reports every fault as before, so a bad file
    # fails the run with the text validate_scenario gives it.
    doc = json.loads(to_json(generate(grid=6, agvs=2, demands=3, seed=2, subdivisions=2)))
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(doc))
    built, subdivided = 0, 0
    real_build, real_subdivide = cli._graph_and_fleet, scenarios.subdivide

    def graph_and_fleet(sc):
        nonlocal built
        built += 1
        return real_build(sc)

    def subdivide(*args):
        nonlocal subdivided
        subdivided += 1
        return real_subdivide(*args)

    monkeypatch.setattr(cli, "_graph_and_fleet", graph_and_fleet)
    monkeypatch.setattr(scenarios, "subdivide", subdivide)
    assert main(["run", "--scenario", str(f), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert (built, subdivided) == (1, 1)

    sc = from_json(f.read_text())
    assert validate_scenario(sc) is None
    g, links, placements, demands = materialise(sc)
    assert g.num_nodes == subdivide(build_grid(6, 10), 2).num_nodes
    assert len(links.linked) == g.num_resources
    assert placements == {p["agv"]: SourceSpec(p["resource"]) for p in doc["placements"]}
    assert [d.id for d in demands] == [0, 1, 2]

    bad = {name: change for name, change in MALFORMED.items() if name != "scenario-without-graph"}
    bad["link-radius-zero"] = lambda doc: doc.update(link_radius=0)
    bad["unknown-preset"] = lambda doc: doc.update(preset="no-such-preset")
    bad["more-agvs-than-anchors"] = lambda doc: doc.update(
        graph={"type": "explicit", "num_nodes": 3, "edges": [[0, 1, 10], [1, 2, 10]], "anchors": [0]},
        placements=[{"agv": 1, "resource": 1}, {"agv": 2, "resource": 2}],
        demands=[],
        subdivisions=1,
    )
    capsys.readouterr()
    for name, change in bad.items():
        broken = json.loads(json.dumps(doc))
        change(broken)
        f.write_text(json.dumps(broken))
        sc = from_json(f.read_text())
        problem = validate_scenario(sc)
        assert problem is not None, name
        detail = str(problem)
        try:
            materialise(sc)
        except InvalidParameterError as err:
            assert str(err) == detail, name
        assert main(["run", "--scenario", str(f), "--out", str(tmp_path / name)]) == EXIT_INVALID, name
        lines = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in lines] == [{"error": "invalid", "detail": detail}], name


def test_zero_weight_edge_is_refused_with_its_weight(tmp_path, capsys):
    # The weight rule lives in ResourceGraph, which every edge reaches:
    # from build_grid, subdivide and explicit scenario graphs alike.
    detail = "edge weight must be >= 1, got 0"
    with pytest.raises(InvalidParameterError, match=f"^{detail}$"):
        ResourceGraph(2, [Edge(0, 1, 0)], anchors=())
    doc = json.loads(to_json(generate(grid=6, agvs=2, demands=3, seed=2)))
    _explicit(doc, lambda g: setitem(g["edges"][0], 2, 0))
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(doc))
    assert validate_scenario(from_json(f.read_text())) == detail
    assert main(["run", "--scenario", str(f), "--out", str(tmp_path / "out")]) == EXIT_INVALID
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [{"error": "invalid", "detail": detail}]
    assert not (tmp_path / "out").exists()


def test_cli_runs_explicit_graph(tmp_path):
    # The grid spelled out edge by edge plans exactly what the grid spec plans.
    sc = generate(grid=6, agvs=2, demands=3, seed=2, preset="full-manhattan")
    files = {}
    for name, graph in (("grid", sc.graph), ("explicit", explicit_grid())):
        f = tmp_path / f"{name}.json"
        f.write_text(to_json(sc._replace(graph=graph)))
        res = run_cli(["run", "--scenario", str(f), "--out", str(tmp_path / name)])
        assert res.returncode == EXIT_OK, res.stderr
        files[name] = (tmp_path / name / "timetable.json").read_bytes()
    assert files["explicit"] == files["grid"]


def test_import_loads_only_the_standard_library(tmp_path):
    # Modules loaded before the import (by site, or the probe itself) do not
    # count. Records are NamedTuples or plain classes, so importing generates
    # no code and needs neither dataclasses nor inspect, nor what they bring
    # (ast, dis, tokenize): together they were a third of the import's time.
    for module in ("agvtime", "agvtime.cli"):
        probe = (
            f"import json, sys; before = set(sys.modules); import {module}; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=SRC_ENV)
        assert res.returncode == 0, res.stderr
        loaded = set(json.loads(res.stdout))
        tops = {name.partition(".")[0] for name in loaded}
        assert tops - sys.stdlib_module_names == {"agvtime"}, module
        assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, module
    # Nor does any command load them when it runs: a whole bench, whose
    # flags argparse alone checks.
    argv = ["bench", "--suite", "reservers", "--grid", "4", "--subdivisions", "1", "--out", str(tmp_path)]
    probe = (
        "import json, sys; before = set(sys.modules); from agvtime.cli import main; "
        f"code = main({argv!r}); "
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=SRC_ENV)
    assert res.returncode == 0, res.stderr
    code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert (tmp_path / "bench_reservers.csv").exists()
    assert not set(loaded) & {"dataclasses", "inspect"}


def test_cli_stalled_anchorisation_exit_code(tmp_path, capsys):
    f = tmp_path / "stall.json"
    f.write_text(to_json(stalling_scenario()))
    for anchoriser in ("naive", "greedy"):
        code = main(
            ["run", "--scenario", str(f), "--anchoriser", anchoriser,
             "--out", str(tmp_path / anchoriser)]
        )
        assert code == EXIT_FAULT
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "stalled"


def test_cli_no_open_anchor_exit_code(tmp_path, capsys, monkeypatch):
    # Under the graph rules ``run`` checks, an AGV's own anchor is always
    # open to it, so the chooser is stubbed to find none: the demand faults
    # with one JSON line, and no file is written.
    monkeypatch.setattr(scheduling, "choose_anchor", lambda tg, agv, dropoff, start, nearest: None)
    out = tmp_path / "out"
    code = main(["run", "--grid", "6", "--agvs", "2", "--demands", "3", "--seed", "2", "--out", str(out)])
    assert code == EXIT_FAULT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "no-path"
    assert re.fullmatch(r"no path for demand \d+ \(AGV \d+, preset full-zero\)", err["detail"])
    assert not (out / "timetable.json").exists()


def test_cli_stall_names_each_blocker(tmp_path, capsys):
    # Four generated starts on the midpoints of one grid cell's sides block
    # each other: every move off a midpoint meets another AGV's start pin.
    for anchoriser in ("naive", "greedy"):
        code = main(
            ["run", "--grid", "8", "--agvs", "20", "--demands", "0", "--seed", "144",
             "--subdivide", "2", "--link-radius", "2", "--anchoriser", anchoriser,
             "--out", str(tmp_path / anchoriser)]
        )
        assert code == EXIT_FAULT
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "stalled"
        assert err["detail"] == (
            "anchorisation stalled for AGVs [1, 6, 8, 19]: "
            "AGV 1 blocked by n35 held by AGV 19; AGV 6 blocked by n27 held by AGV 19; "
            "AGV 8 blocked by n28 held by AGV 6; AGV 19 blocked by n27 held by AGV 6"
        ), anchoriser


def test_cli_bench_reservers_smallest(tmp_path, capsys):
    code = main(
        ["bench", "--suite", "reservers", "--grid", "4", "--subdivisions", "1",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    text = (tmp_path / "bench_reservers.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("suite,param,algorithm,")
    body = [l.split(",") for l in lines[1:]]
    assert [b[2] for b in body] == ["naive", "boundary"]
    assert all(b[-1] == "equal" for b in body)


def _perfbench_module(stem):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_tracer():
    return _perfbench_module("layers").Tracer()


def test_benchmark_checker_reads_what_the_run_writes(tmp_path, capsys):
    # The benchmark checks every timetable it makes with perfbench/check.py,
    # which re-expands each walk with naive_reservations and reads the
    # reservations it returns.
    check = _perfbench_module("check")
    text = to_json(generate(grid=6, agvs=2, demands=2, seed=4))
    f = tmp_path / "scenario.json"
    f.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(f), "--out", str(out)]) == EXIT_OK
    written = (out / "timetable.json").read_text()
    assert check.check_timetable(text, written) == []

    # Walk the second AGV off its anchor onto the first one's, still a
    # physical walk that ends on an anchor.
    doc = json.loads(written)
    g = materialise(from_json(text))[0]
    first, second = doc["agvs"]
    last = second["steps"][-1]
    t = last["end"] = last["start"] + 1
    route, _ = spatial_path(
        g, g.resource_id(last["resource"]), g.resource_id(first["steps"][-1]["resource"])
    )
    for rid in route[1:]:
        w = 0 if g.is_node(rid) else g.edge_at(rid).weight
        second["steps"].append({"resource": g.describe(rid), "start": t, "end": t + w})
        t += w
    second["steps"][-1]["end"] = "inf"
    problems = check.check_timetable(text, json.dumps(doc))
    assert any("enters the footprint" in p for p in problems), problems


def test_cli_run_keeps_the_benchmark_trace_hooks(tmp_path, capsys):
    # The traced benchmark patches the pipeline's entry points under the
    # names the CLI calls them by; a call that bypasses them goes unseen.
    f = tmp_path / "scenario.json"
    f.write_text(to_json(generate(grid=6, agvs=2, demands=3, seed=2, preset="partial-manhattan")))
    out = tmp_path / "out"
    tracer = _perfbench_tracer()
    code, _ = tracer.run(lambda: main(["run", "--scenario", str(f), "--out", str(out)]))
    assert code == EXIT_OK
    assert tracer.problems() == []
    assert tracer.metrics(out / "timetable.json")["scheduling.demands"] == 3
    for name in (
        "scenarios.from_json",
        "scenarios.validate",
        "scenarios.materialise",
        "scheduling",
        "timegraph.audit",
        "scheduling.serialise",
    ):
        assert tracer.span(name).calls == 1, name
    # One anchorisation, then a search and a footprint per AGV and per
    # demand; a pin per AGV besides those commits, and a release per commit.
    for name, calls in (
        ("anchoring", 1),
        ("pathing.search", 5),
        ("footprint", 5),
        ("timegraph.reserve_all", 7),
        ("timegraph.remove_all", 5),
    ):
        assert tracer.span(name).calls == calls, name
