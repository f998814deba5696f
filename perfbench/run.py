"""critgap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gap-sweep [--seed 1] [--seconds 20]
                             [--trace 0|1]

Run from the root of a checkout.  The workload's job runs in fresh child
processes (child.py), one after another, until --seconds of child time
have passed and at least three children have run.  Every child makes the
same inputs from --seed, so the medians are over repeats of identical work.
With --trace 0 the end-to-end metrics are reported; with --trace 1 traced
and untraced children alternate and the per-layer metrics are reported.

Output: one line per metric (name, value, unit), an `env:` line with the
interpreter, library versions and thread settings, and, last, one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every op passed its gate, 1 when one failed, and 2 when the
benchmark could not run (no critgap source, a child crashed or hung).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Pinned identically on every commit: default OpenBLAS threading makes the
# gap sweep 1.5-2x slower and much noisier on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_CHILDREN = 3
RUN_LIMIT_S = 170.0  # a hung child is killed so the run ends within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics but not in the result object: the MC
# gate error is statistical in the seed, and fail_frac is 0 on a healthy run
REPORTED = {"accuracy_digits": "digits", "fail_frac": "ratio"}
PER_LAYER = {
    "special.calls": "count",
    "special.self_s": "s",
    "contours.builds": "count",
    "contours.nodes": "count",
    "contours.unique_ratio": "ratio",
    "contours.self_s": "s",
    "kernels.matrices": "count",
    "kernels.entries": "count",
    "kernels.self_s": "s",
    "fredholm.operators": "count",
    "fredholm.assembly_self_s": "s",
    "fredholm.lu_count": "count",
    "fredholm.lu_flops": "flop",
    "fredholm.lu_s": "s",
    "fredholm.det_s": "s",
    "fredholm.solve_count": "count",
    "fredholm.solve_s": "s",
    "fredholm.self_s": "s",
    "observables.workspace_builds": "count",
    "observables.workspace_s": "s",
    "observables.y1_count": "count",
    "observables.y1_self_s": "s",
    "observables.self_s": "s",
    "mc.trials": "count",
    "mc.draw_s": "s",
    "mc.product_self_s": "s",
    "mc.top_eig_s": "s",
    "mc.self_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not measure the workload."""


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(SRC)
    env.pop("CRITGAP_THREADS", None)  # mc-sample passes its thread count
    return env


def run_child(workload: str, seed: int, traced: bool, env: dict,
              timeout: float) -> dict:
    """Spawn one child, wait for it, and return its record with wall_s,
    setup_s and job_s measured from the spawn."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child still running after {timeout:.0f} s")
    exited = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    try:
        rec = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("child printed no record") from None
    rec["traced"] = traced
    rec["wall_s"] = exited - spawned
    rec["setup_s"] = rec["t_setup"] - spawned
    rec["job_s"] = rec["t_job"] - rec["t_setup"]
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Children until `seconds` of child time and MIN_CHILDREN children;
    with trace, untraced and traced children alternate."""
    env = child_env()
    children: list = []
    started = time.monotonic()
    while (len(children) < MIN_CHILDREN
           or time.monotonic() - started < seconds):
        traced = trace and len(children) % 2 == 1
        children.append(run_child(workload, seed, traced, env,
                                  started + RUN_LIMIT_S - time.monotonic()))
    return children


def gate(workload: str, children: list) -> tuple[int, int, float]:
    """(attempted ops, failed ops, largest gate error) over all children."""
    from workloads import WORKLOADS
    check = WORKLOADS[workload][2]
    refs: dict = {}
    attempted = failed = 0
    worst = 0.0
    for child in children:
        for group in child["groups"]:
            attempted += sum(n for _, n, _ in group["ops"])
            bad, error = check(group, refs)
            failed += bad
            worst = max(worst, error)
            for _, _, err in group["ops"]:
                if err:
                    print(f"op failed: {err}", file=sys.stderr)
    return attempted, failed, worst


def end_to_end(children: list, attempted: int, failed: int,
               worst: float) -> dict:
    plain = [c for c in children if not c["traced"]]
    latencies = [ms for c in plain for g in c["groups"] for ms, _, _ in g["ops"]]
    rates = [sum(n for g in c["groups"] for _, n, _ in g["ops"]) / c["job_s"]
             for c in plain]
    return {
        "wall_s": median(c["wall_s"] for c in plain),
        "setup_s": median(c["setup_s"] for c in plain),
        "ops_per_s": median(rates),
        "op_p50_ms": percentile(latencies, 50.0),
        "op_p90_ms": percentile(latencies, 90.0),
        "peak_rss_mb": median(c["rss_kb"] for c in plain) / 1024.0,
        "accuracy_digits": -math.log10(worst) if worst > 0.0 else math.inf,
        "fail_frac": failed / attempted if attempted else 1.0,
    }


def per_layer(workload: str, children: list) -> tuple[dict, list]:
    """Medians of the traced children's layer metrics, the trace overhead,
    and the problems the traced-run self-check found."""
    from workloads import CLAIMS, LAYER_COUNTS
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    out = {name: median(c["trace"][name] for c in traced)
           for name in traced[0]["trace"]}
    out["trace.wall_s"] = median(c["wall_s"] for c in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - median(
        c["wall_s"] for c in plain)
    problems = []
    for c in traced:
        for layer in CLAIMS[workload]:
            if not c["trace"][LAYER_COUNTS[layer]] > 0:
                problems.append(f"{LAYER_COUNTS[layer]} is 0 on {workload}")
        if c["trace"]["trace.self_sum_s"] > c["wall_s"]:
            problems.append("layer self times exceed the traced wall time")
    return out, problems


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return f'{deps["blas"]["name"]} {deps["blas"]["version"]}'
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads
    if not (SRC / "critgap" / "__init__.py").is_file():
        print(f"run.py: no critgap source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        children = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 2
    attempted, failed, worst = gate(args.workload, children)
    values = end_to_end(children, attempted, failed, worst)
    shown = {**END_TO_END, **REPORTED}
    reported = END_TO_END
    correct = failed == 0
    if args.trace:
        layers, problems = per_layer(args.workload, children)
        for problem in problems:
            print(f"trace self-check: {problem}", file=sys.stderr)
        correct = correct and not problems
        values.update(layers)
        shown.update(PER_LAYER)
        reported = PER_LAYER

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"children={len(children)} ops={attempted} failed={failed}")
    for name, unit in shown.items():
        print(f"  {name:30s} {values[name]:.6g} {unit}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
