"""Runs the pipeline in one fresh process and reports what it measured.

    python3 perfbench/worker.py --src SRC --seconds S --trace 0|1 DIR [DIR ...]

Each DIR holds a ``scenario.json``; every run calls
``agvtime.cli.main(["run", "--scenario", DIR/scenario.json, "--out", DIR])``
in this process and is timed from the call until it returns with
``timetable.json`` and ``metrics.csv`` written.

Untraced (``--trace 0``): all scenarios are set up first, then run in rounds,
one run of each scenario per round, for as many whole rounds as fit in S
seconds (at least one).

Traced (``--trace 1``): the first scenario only, in pairs of one untraced and
one traced run, for as many pairs as fit in S seconds (at least two, so the
traced counts can be compared between runs).

Every run is followed by one run of the reference workload
(``reference.py``), and one more precedes the first run; a run's ``ref_s``
is the mean of the two around it.

The last line of standard output is one JSON object with every run's time,
``ref_s``, exit code and sha256 of the written ``timetable.json``, the
per-layer metrics of each traced run, and this process's peak resident set
size.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("dirs", nargs="+")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, args.src)
    from agvtime import cli, scenarios

    dirs = [Path(d) for d in args.dirs]
    if args.trace:
        dirs = dirs[:1]
    for d in dirs:
        sc = scenarios.from_json((d / "scenario.json").read_text())
        problem = scenarios.validate_scenario(sc)
        if problem is not None:
            print(f"scenario {d} is invalid: {problem}", file=sys.stderr)
            return 2
        scenarios.materialise(sc)

    from reference import reference_s

    ref_before = reference_s()

    def one_run(i, tracer=None):
        nonlocal ref_before
        d = dirs[i]
        table = d / "timetable.json"
        for name in ("timetable.json", "metrics.csv"):
            (d / name).unlink(missing_ok=True)
        argv = ["run", "--scenario", str(d / "scenario.json"), "--out", str(d)]
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                t = perf_counter()
                rc = cli.main(argv)
                wall = perf_counter() - t
            else:
                rc, wall = tracer.run(lambda: cli.main(argv))
        ref_after = reference_s()
        written = table.is_file() and (d / "metrics.csv").is_file()
        run = {
            "scenario": i,
            "traced": tracer is not None,
            "s": wall,
            "ref_s": (ref_before + ref_after) / 2,
            "rc": rc,
            "written": written,
            "sha": hashlib.sha256(table.read_bytes()).hexdigest() if written else None,
        }
        ref_before = ref_after
        if tracer is not None and rc == 0 and written:
            run["layers"] = tracer.metrics(table)
            run["problems"] = tracer.problems()
        return run

    runs = []
    start = perf_counter()
    if args.trace:
        from layers import Tracer

        while True:
            t = perf_counter()
            runs.append(one_run(0))
            runs.append(one_run(0, Tracer()))
            pair = perf_counter() - t
            if len(runs) >= 4 and perf_counter() - start + pair > args.seconds:
                break
    else:
        while True:
            t = perf_counter()
            runs.extend(one_run(i) for i in range(len(dirs)))
            lap = perf_counter() - t
            if perf_counter() - start + lap > args.seconds:
                break

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rss_kb": rss_kb, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
