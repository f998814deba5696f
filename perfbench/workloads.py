"""The four benchmark workloads.

Each workload has seeded inputs, a one-time setup and a job, both run in a
fresh child process, and a correctness gate the parent applies to the job's
outputs afterwards, outside the timed region.  A job returns a list of
groups; a group is the ops that share one gate, with their outputs:

    {"ops": [[latency_ms, op_count, error_or_None], ...], "out": {...}}

Every op is timed by the job's own loop around one public critgap call.
Functions are looked up on their modules at call time, so a traced child
sees every call.
"""

from __future__ import annotations

import math
import random
import sys
import time

ROUTE_TOL = 1e-7       # largest spread between the three routes' P(a)
CLOSURE_TOL = 1e-4     # |log P from u - log P from the determinant|
MC_SLACK = 0.03        # |phat - P| <= ci95 + MC_SLACK
KERNEL_TOL = 1e-8      # |K(order 16) - K(order 24)|, kernel values are O(1)

# a values per alpha, one per stratum of [0.5, 4].  Op costs cluster by
# route and alpha; with as many points at alpha 0.5 as at alpha 2 the
# latency median falls in the gap between the u op and the halfline op at
# alpha 1, and jumps across it from seed to seed.
GAP_POINTS = {0.5: 3, 1.0: 4, 2.0: 5}
GAP_A_RANGE = (0.5, 4.0)
# alpha 1 once and alpha 2 twice: unequal counts keep the latency median
# inside one cluster (a y1 solve costs ~1.7x more at alpha 1)
CLOSURE_ALPHAS = (1.0, 2.0, 2.0)
CLOSURE_A_RANGE = (1.0, 4.0)
MC_N = MC_M = 48
MC_BATCHES = 24
MC_BATCH_TRIALS = 16
MC_THREADS = 2
MC_COMPARE = (1.0, 2.0, 3.0)
# (x, y) points per (N, M), centered coordinates.  An evaluation at
# (32, 32) costs more than one at (24, 48); unequal counts keep the latency
# median inside the (24, 48) cluster rather than between the two.
FINITE_POINTS = {(32, 32): 3, (24, 48): 5}
FINITE_XY_RANGE = (-1.5, 1.5)
FINITE_REFINES = (1.0, 0.5)  # `critgap kernel` evaluates every point twice

# layers each workload reaches, and the traced count that must be nonzero
LAYER_COUNTS = {
    "special": "special.calls",
    "contours": "contours.builds",
    "kernels": "kernels.matrices",
    "fredholm": "fredholm.operators",
    "observables": "observables.y1_count",
    "mc": "mc.trials",
}
CLAIMS = {
    "gap-sweep": ("special", "contours", "kernels", "fredholm", "observables"),
    "rh-closure": ("special", "contours", "kernels", "fredholm",
                   "observables"),
    "mc-sample": ("special", "contours", "kernels", "fredholm", "mc"),
    "finite-kernel": ("special", "contours", "kernels"),
}


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi]."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "gap-sweep":
        return {"points": [(alpha, a) for alpha, n in GAP_POINTS.items()
                           for a in _stratified(rng, *GAP_A_RANGE, n)]}
    if workload == "rh-closure":
        a_values = _stratified(rng, *CLOSURE_A_RANGE, len(CLOSURE_ALPHAS))
        rng.shuffle(a_values)
        return {"points": list(zip(CLOSURE_ALPHAS, a_values))}
    if workload == "mc-sample":
        return {"batch_seeds": [rng.getrandbits(63) for _ in range(MC_BATCHES)]}
    if workload == "finite-kernel":
        return {"points": [(n, m, rng.uniform(*FINITE_XY_RANGE),
                            rng.uniform(*FINITE_XY_RANGE))
                           for (n, m), count in FINITE_POINTS.items()
                           for _ in range(count)]}
    raise ValueError(f"unknown workload {workload!r}")


def _reference(refs: dict, key: tuple, fn, *args, **kwargs):
    """fn(*args, **kwargs), computed once per key; None if it raised, which
    fails the ops it was to check."""
    if key not in refs:
        try:
            refs[key] = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001  (reported, ops fail)
            print(f"reference {key} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            refs[key] = None
    return refs[key]


def _timed(ops: list, fn, *args, count: int = 1, **kwargs):
    """Call fn, append [latency per op in ms, count, error] to ops, and
    return its value (None if it raised: the op is counted as failed)."""
    start = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001  (any raise is a failed op)
        error = f"{type(exc).__name__}: {exc}"
        value = None
    else:
        error = None
    ops.append([(time.perf_counter() - start) * 1e3 / count, count, error])
    return value


# -- gap-sweep: what `critgap gap` does for each point ------------------------

def _gap_setup(inputs: dict):
    from critgap import observables
    # `critgap gap` builds one workspace per sweep, sized to its a_max
    return {alpha: observables.RhWorkspace(alpha, GAP_A_RANGE[1])
            for alpha in GAP_POINTS}


def _u_pair(a: float, alpha: float, workspace) -> float:
    from critgap import observables
    u = observables.u_of_x(a, alpha, workspace)
    observables.u_asymptotic(a, alpha)
    return u


def _gap_run(workspaces, inputs: dict) -> list:
    from critgap import fredholm
    groups = []
    for alpha, a in inputs["points"]:
        ops: list = []
        p = []
        for route in fredholm.ROUTES:
            res = _timed(ops, fredholm.gap_probability, a, alpha, route)
            p.append(None if res is None else res.p)
        u = _timed(ops, _u_pair, a, alpha, workspaces[alpha])
        groups.append({"ops": ops, "out": {"alpha": alpha, "a": a, "p": p,
                                           "u": u}})
    return groups


def _gap_gate(group: dict, refs: dict) -> tuple[int, float]:
    out, ops = group["out"], group["ops"]
    values = [p for p in out["p"] if p is not None]
    spread = max(values) - min(values) if len(values) >= 2 else math.inf
    failed = sum(n for _, n, err in ops[:-1] if err or spread > ROUTE_TOL)
    u = out["u"]
    if ops[-1][2] or u is None or not math.isfinite(u):
        failed += ops[-1][1]
    return failed, spread


# -- rh-closure: log P reconstructed from u on one workspace per alpha --------

def _closure_range(alpha: float) -> float:
    """Right end of every x that log_gap_from_u integrates u over for
    a in CLOSURE_A_RANGE: max(x_end, a + 5), x_end where u < 1e-20."""
    from critgap import contours
    x_end = contours.truncation_radius(0.5 / alpha, growth=0.0, target=46.0)
    return max(x_end, CLOSURE_A_RANGE[1] + 5.0)


def _closure_setup(inputs: dict):
    from critgap import observables
    return {alpha: observables.RhWorkspace(alpha, _closure_range(alpha))
            for alpha in sorted(set(CLOSURE_ALPHAS))}


class _TimedWorkspace:
    """Passed to log_gap_from_u in place of its workspace: times each
    public `y1` solve, the op of this workload, and delegates the rest."""

    def __init__(self, workspace, ops: list):
        self._workspace = workspace
        self._ops = ops

    def y1(self, a: float):
        start = time.perf_counter()
        error = "raised"
        try:
            value = self._workspace.y1(a)
            error = None
            return value
        finally:
            self._ops.append([(time.perf_counter() - start) * 1e3, 1, error])

    def __getattr__(self, name):
        return getattr(self._workspace, name)


def _closure_run(workspaces, inputs: dict) -> list:
    from critgap import observables
    groups = []
    for alpha, a in inputs["points"]:
        ops: list = []
        out = {"alpha": alpha, "a": a, "log_p": None, "error": None}
        try:
            out["log_p"] = observables.log_gap_from_u(
                a, alpha, workspace=_TimedWorkspace(workspaces[alpha], ops))
        except Exception as exc:  # noqa: BLE001  (counted as failed ops)
            out["error"] = f"{type(exc).__name__}: {exc}"
            if not ops:
                ops.append([0.0, 1, out["error"]])
        groups.append({"ops": ops, "out": out})
    return groups


def _closure_gate(group: dict, refs: dict) -> tuple[int, float]:
    from critgap import fredholm
    out = group["out"]
    ref = _reference(refs, ("halfline", out["alpha"], out["a"]),
                     fredholm.gap_probability, out["a"], out["alpha"],
                     "halfline", estimate_error=False)
    ops = sum(n for _, n, _ in group["ops"])
    if out["log_p"] is None or ref is None:
        return ops, math.inf
    diff = abs(out["log_p"] - ref.log_p)
    return (ops if diff > CLOSURE_TOL else 0), diff


# -- mc-sample: Ginibre-product sampling plus the --compare table -------------

def _no_setup(inputs: dict):
    return None


def _mc_run(state, inputs: dict) -> list:
    import numpy as np
    from critgap import fredholm, mc
    ops: list = []
    samples = []
    for batch_seed in inputs["batch_seeds"]:
        cfg = mc.McConfig(N=MC_N, M=MC_M, trials=MC_BATCH_TRIALS,
                          seed=batch_seed)
        res = _timed(ops, mc.sample_rightmost, cfg, threads=MC_THREADS,
                     count=MC_BATCH_TRIALS)
        if res is not None:
            samples.append(res.samples)
    out = {"rows": [], "error": None}
    try:
        drawn = np.concatenate(samples)
        pooled = mc.McResult(
            mc.McConfig(N=MC_N, M=MC_M, trials=drawn.size,
                        seed=inputs["batch_seeds"][0]),
            mc.center_aN(MC_N, MC_M), drawn)
        for a in MC_COMPARE:
            phat, ci95 = mc.empirical_gap(pooled, a)
            p = fredholm.gap_probability(a, MC_M / MC_N, "halfline",
                                         estimate_error=False).p
            out["rows"].append({"a": a, "phat": phat, "ci95": ci95, "p": p})
    except Exception as exc:  # noqa: BLE001  (counted as failed ops)
        out["error"] = f"{type(exc).__name__}: {exc}"
    return [{"ops": ops, "out": out}]


def _mc_gate(group: dict, refs: dict) -> tuple[int, float]:
    out, ops = group["out"], group["ops"]
    ratio = max((abs(r["phat"] - r["p"]) / (r["ci95"] + MC_SLACK)
                 for r in out["rows"]), default=math.inf)
    if out["error"] or ratio > 1.0:
        return sum(n for _, n, _ in ops), ratio
    return sum(n for _, n, err in ops if err), ratio


# -- finite-kernel: what `critgap kernel --finite N M --centered` does --------

def _finite_run(state, inputs: dict) -> list:
    from critgap import kernels
    groups = []
    for n, m, x, y in inputs["points"]:
        shift = kernels.centering_shift(n, m)
        ops: list = []
        values = [_timed(ops, kernels.finite_kernel, x + shift, y + shift, n, m,
                         refine=refine) for refine in FINITE_REFINES]
        groups.append({"ops": ops, "out": {"n": n, "m": m, "x": x, "y": y,
                                           "shift": shift, "values": values}})
    return groups


def _finite_gate(group: dict, refs: dict) -> tuple[int, float]:
    from critgap import kernels
    out = group["out"]
    ref = _reference(refs, ("order24", out["n"], out["m"], out["x"], out["y"]),
                     kernels.finite_kernel, out["x"] + out["shift"],
                     out["y"] + out["shift"], out["n"], out["m"], order=24)
    failed, worst = 0, 0.0
    for (_, n, err), value in zip(group["ops"], out["values"]):
        diff = math.inf if value is None or ref is None else abs(value - ref)
        worst = max(worst, diff)
        if err or diff > KERNEL_TOL:
            failed += n
    return failed, worst


WORKLOADS = {
    "gap-sweep": (_gap_setup, _gap_run, _gap_gate),
    "rh-closure": (_closure_setup, _closure_run, _closure_gate),
    "mc-sample": (_no_setup, _mc_run, _mc_gate),
    "finite-kernel": (_no_setup, _finite_run, _finite_gate),
}
