"""Times the pipeline's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py --src SRC SCENARIO_JSON

Times ``import agvtime``, then ``scenarios.from_json``,
``validate_scenario`` and ``materialise`` on the scenario file, then one run
of the reference workload (``reference.py``), and prints the times and the
sum of the first four, in seconds, as one JSON object.
"""

import argparse
import json
import sys
from time import perf_counter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("scenario")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)

    t0 = perf_counter()
    import agvtime

    t1 = perf_counter()
    with open(args.scenario) as f:
        sc = agvtime.scenarios.from_json(f.read())
    t2 = perf_counter()
    problem = agvtime.scenarios.validate_scenario(sc)
    t3 = perf_counter()
    agvtime.scenarios.materialise(sc)
    t4 = perf_counter()
    if problem is not None:
        print(f"invalid scenario: {problem}", file=sys.stderr)
        return 2
    from reference import reference_s

    ref_s = reference_s()
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "from_json_s": t2 - t1,
                "validate_s": t3 - t2,
                "materialise_s": t4 - t3,
                "setup_s": t4 - t0,
                "ref_s": ref_s,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
