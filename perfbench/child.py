"""One benchmark child: set up a workload in a fresh interpreter, run its
job once, and print the measurements as one JSON line on stdout.

Started by run.py with the thread variables pinned and `src` on
PYTHONPATH.  Times are CLOCK_MONOTONIC readings (`time.monotonic`), which
the parent shares, so it can measure set-up from the moment it spawned us.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from workloads import WORKLOADS, make_inputs
    setup, run, _ = WORKLOADS[args.workload]
    inputs = make_inputs(args.workload, args.seed)

    import critgap  # noqa: F401  (its import is part of set-up)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    state = setup(inputs)
    t_setup = time.monotonic()
    groups = run(state, inputs)
    t_job = time.monotonic()

    record = {"t_setup": t_setup, "t_job": t_job, "groups": groups,
              "trace": tracer.metrics() if tracer else None,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
