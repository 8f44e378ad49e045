"""One benchmark process: set up a workload, run timed rounds, report JSON.

Started by ``run.py`` in a fresh interpreter so the program's memo caches
start empty, as they do for a user's ``repro run`` or ``repro sweep``::

    python3 perfbench/worker.py --workload NAME --seed N --t0 MONOTONIC \
        [--budget SECONDS] [--rounds N] [--trace] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` includes interpreter
start and imports.  The last stdout line is the JSON result.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from spans import ROOT_SPAN, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        root = tracer.open(ROOT_SPAN)
    start = time.perf_counter()
    workload.setup()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "rounds": []}

    if not args.setup_only:
        while True:
            round_start = time.perf_counter()
            result["rounds"].append(vars(workload.run_round(tracer)))
            now = time.perf_counter()
            done = len(result["rounds"])
            if args.rounds:
                if done >= args.rounds:
                    break
            elif now - start + (now - round_start) > args.budget:
                break
    result["wall_s"] = time.perf_counter() - start

    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, args.workload)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)

    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
