"""agvtime pipeline benchmark: scenario file to checked timetable.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an agvtime checkout; the package is imported from
``src/``. The run generates its scenarios from the seed (see
``workloads.py``), times the set-up in fresh interpreters, runs the pipeline
in one worker process (``worker.py``), checks every written timetable
independently (``check.py``) and prints one line per scenario followed by one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics, from
runs wrapped by ``layers.Tracer``. ``run_s`` and ``setup_s`` are reported at
the nominal machine speed of ``reference.py``: each measured time is scaled
by how much slower or faster than nominal the reference ran beside it. The
per-scenario lines also give the raw wall times. Scratch files go under
``.perfbench_work/`` in the checkout; the run's own directory is removed at
the end. ``.perfbench_work/determinism.json`` keeps the timetable sha256 and
the per-layer counts seen for each scenario under the current source, and a
later run that disagrees with them fails.

Exit status: 0 when every run passed; 1 when a run failed, a check failed or
the outputs were not deterministic; 2 when there is no agvtime source to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RECORD = WORK / "determinism.json"
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
DEADLINE_S = 175  # a run must end within 180 s
TIME_UNITS = ("s", "ms", "us")


def _args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _python(script, *args, timeout):
    """Run a benchmark script in a fresh interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), "--src", str(SRC), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _recorded(key: str, value) -> bool:
    """Record value under key, or compare it with the one recorded earlier."""
    record = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    if key in record:
        return record[key] == value
    record[key] = value
    tmp = RECORD.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, RECORD)
    return True


def nominal(seconds, ref_s):
    """A time measured next to a reference run, at the nominal machine speed."""
    return seconds * REF_S / ref_s


def main(argv=None) -> int:
    from workloads import WORKLOADS, scenario_seeds

    args = _args(argv, WORKLOADS)
    started = perf_counter()
    if not (SRC / "agvtime" / "__init__.py").is_file():
        print(f"perfbench: no agvtime package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from agvtime.scenarios import generate, to_json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    wl = WORKLOADS[args.workload]
    seeds = scenario_seeds(wl, args.seed, 1 if args.trace else None)
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        dirs = []
        for i, s in enumerate(seeds):
            d = run_dir / f"scenario{i}"
            d.mkdir(parents=True)
            (d / "scenario.json").write_text(to_json(generate(seed=s, **wl.generate)))
            dirs.append(d)
        probes = [
            _python("setup_probe.py", dirs[j % len(dirs)] / "scenario.json", timeout=60)
            for j in range(SETUP_PROBES)
        ]
        worker = _python(
            "worker.py",
            "--seconds",
            args.seconds,
            "--trace",
            args.trace,
            *dirs,
            timeout=DEADLINE_S - (perf_counter() - started),
        )
        result, problems = _evaluate(args.trace, wl, seeds, dirs, probes, worker, units)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    # A run with problems reports only the metrics it could still compute.
    metrics = {k: {"value": result[k], "unit": u} for k, u in units.items() if k in result}
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(worker["runs"]),
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _evaluate(trace, wl, seeds, dirs, probes, worker, units):
    """Metric values by name, plus every problem found (empty when correct)."""
    from check import check_timetable

    problems = []
    runs = worker["runs"]
    digest = _code_digest()
    failed_scenarios = set()
    tables = {}
    for i, d in enumerate(dirs):
        mine = [r for r in runs if r["scenario"] == i]
        shas = {r["sha"] for r in mine}
        if any(r["rc"] != 0 or not r["written"] for r in mine):
            problems.append(f"scenario {i}: a run exited nonzero or wrote no output")
            failed_scenarios.add(i)
            continue
        if len(shas) != 1:
            problems.append(f"scenario {i}: runs wrote different timetable.json files")
            failed_scenarios.add(i)
            continue
        scenario_text = (d / "scenario.json").read_text()
        table_text = (d / "timetable.json").read_text()
        sha = shas.pop()
        if hashlib.sha256(table_text.encode()).hexdigest() != sha:
            problems.append(f"scenario {i}: timetable.json changed after the last run")
        key = hashlib.sha256((digest + scenario_text).encode()).hexdigest()
        if not _recorded(key, sha):
            problems.append(f"scenario {i}: timetable.json differs from an earlier run at this seed")
        bad = check_timetable(scenario_text, table_text)
        if bad:
            problems.extend(f"scenario {i}: {b}" for b in bad)
            failed_scenarios.add(i)
        tables[i] = (key, json.loads(table_text)["metrics"])

    out = {"failed": sum(1 for r in runs if r["scenario"] in failed_scenarios)}
    nominal_medians = []
    for i in range(len(dirs)):
        mine = [r for r in runs if r["scenario"] == i and not r["traced"]]
        wall = [r["s"] for r in mine]
        nominal_medians.append(statistics.median(nominal(r["s"], r["ref_s"]) for r in mine))
        print(
            f"{wl.name} scenario {i} seed {seeds[i]}: {len(mine)} untraced runs, "
            f"nominal median {nominal_medians[-1]:.4f} s; wall median {statistics.median(wall):.4f} s, "
            f"min {min(wall):.4f} s, max {max(wall):.4f} s; "
            f"reference median {statistics.median(r['ref_s'] for r in mine):.4f} s"
        )
    if failed_scenarios:
        return out, problems

    if trace:
        _per_layer(wl, runs, probes, tables[0][0], units, out, problems)
    else:
        out["setup_s"] = statistics.median(nominal(p["setup_s"], p["ref_s"]) for p in probes)
        out["run_s"] = statistics.fmean(nominal_medians)
        out["peak_rss_mb"] = worker["rss_kb"] / 1024.0
        out["makespan"] = statistics.fmean(m["makespan"] for _, m in tables.values())
        out["total_distance"] = statistics.fmean(m["total_distance"] for _, m in tables.values())
        out["pass_ratio"] = 1.0 - out["failed"] / len(runs)
    return out, problems


def _per_layer(wl, runs, probes, key, units, out, problems):
    traced = [r for r in runs if r["traced"]]
    layers = [r["layers"] for r in traced]
    first = layers[0]
    counts = {k: v for k, v in first.items() if units[k] not in TIME_UNITS}
    for other in layers[1:]:
        if {k: other[k] for k in counts} != counts:
            changed = sorted(k for k in counts if other[k] != counts[k])
            problems.append(f"per-layer counts differ between traced runs: {changed}")
    if not _recorded(key + ":layers", counts):
        problems.append("per-layer counts differ from an earlier traced run at this seed")
    problems.extend(sorted({p for r in traced for p in r["problems"]}))
    for name in wl.must_fire:
        if not first[name]:
            problems.append(f"{name} is 0: a wrapper the {wl.name} workload must hit never fired")
    if first["scheduling.demands"] != wl.generate["demands"]:
        problems.append(
            f"traced {first['scheduling.demands']} demand commits for {wl.generate['demands']} demands"
        )
    for k in first:
        out[k] = counts[k] if k in counts else statistics.median(m[k] for m in layers)
    out["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    out["trace.run_s"] = statistics.median(r["s"] for r in traced)
    out["trace.untraced_run_s"] = statistics.median(r["s"] for r in runs if not r["traced"])
    out["trace_overhead_ratio"] = out["trace.run_s"] / out["trace.untraced_run_s"]


if __name__ == "__main__":
    sys.exit(main())
