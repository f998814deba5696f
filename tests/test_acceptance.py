"""Acceptance suite: the eight gate criteria, one test per criterion.

Each test prints a single scorecard line (visible with -s, or on failure)
carrying the measured figures next to their pinned tolerances; the assert
fails if any figure is out of tolerance.  Runtime bounds are asserted
where the contract states them.  Criteria 1-5 call critgap.validate's
function for each identity, on their own grids and bounds.
"""

from __future__ import annotations

import math
import time

import numpy as np

import test_observables
from critgap import fredholm, mc, special, validate

GRID_A = (1.0, 2.0, 3.0, 4.0)
GRID_ALPHA = (0.5, 1.0, 2.0)


def _criterion(num, title, parts, note=""):
    """parts: list of (label, measured, bound); passes iff all within."""
    ok = all(m <= b for _, m, b in parts)
    body = "  ".join(f"{lbl}={m:.3g} (tol {b:.3g})" for lbl, m, b in parts)
    tail = f"  [{note}]" if note else ""
    print(f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}  "
          f"{body}{tail}")
    assert ok, f"criterion {num} ({title}) out of tolerance: {body}"


def test_criterion_1_route_equivalence():
    started = time.time()
    worst = max(validate.route_spread(a, alpha)
                for a in GRID_A for alpha in GRID_ALPHA)
    elapsed = time.time() - started
    _criterion(1, "determinant-route equivalence",
               [("max route spread", worst, 1e-7),
                ("runtime_s", elapsed, 60.0)],
               note="12-point (a, alpha) grid")


def test_criterion_2_factorization_and_residue():
    # |K| < 0.34 at validate's five points, so a relative error of 5e-9
    # holds |K - K_factored| below 1e-8
    _criterion(2, "kernel factorization + loop residue",
               [("max rel |K-K_factored|",
                 validate.check_kernel_factorization().measured, 5e-9),
                ("max residue error",
                 validate.check_loop_residue().measured, 1e-10)])


def test_criterion_3_rh_observable_identities():
    started = time.time()
    grid = [(a, alpha) for alpha in (1.0, 2.0) for a in (1.5, 2.0, 3.0)]
    worst_logd = max(validate.log_derivative_error(*p) for p in grid)
    worst_ode = max(validate.ode_error(*p) for p in grid)
    worst_close = max(validate.closure_error(*p) for p in grid)
    elapsed = time.time() - started
    _criterion(3, "residue-matrix identities",
               [("log-derivative rel", worst_logd, 1e-4),
                ("ODE abs", worst_ode, 1e-3),
                ("closure abs", worst_close, 1e-4),
                ("runtime_s", elapsed, 300.0)],
               note="a in {1.5, 2, 3} x alpha in {1, 2}")


def test_rh_identity_checks_read_no_contour_q(monkeypatch):
    # contour-Q shares its factored Schur complement with the RH workspace,
    # so a fault in that one assembly would cancel out of a check that
    # compared the two: with contour-Q refused, the checks and the unit
    # tests that compare Y1 or u with log P still pass
    route_det = fredholm._route_det

    def refuse_contour_q(a, alpha, route, refine):
        if route == "contour-Q":
            raise AssertionError("an RH identity check read contour-Q")
        return route_det(a, alpha, route, refine)

    monkeypatch.setattr(fredholm, "_route_det", refuse_contour_q)
    assert validate.check_log_derivative().passed
    assert validate.check_closure().passed
    test_observables.test_y1_log_derivative_identity()
    test_observables.test_closure_against_determinant()
    test_observables.test_u_equals_second_log_derivative()


def test_criterion_4_asymptotics():
    r6, r8 = validate.u_ratio(6.0, 2.0), validate.u_ratio(8.0, 2.0)
    worst_21 = max(validate.loop_moment_error(a, 2.0) for a in (4.0, 6.0))
    ratio_12 = validate.line_moment_ratio(10.0, 2.0)
    _criterion(4, "right-tail asymptotics",
               [("|u/u_asym - 1| @a=6", abs(r6 - 1.0), 0.5),
                ("|u/u_asym - 1| @a=8", abs(r8 - 1.0), abs(r6 - 1.0)),
                ("loop moment quad-vs-residue", worst_21, 1e-10),
                ("|line moment/closed - 1| @a=10", abs(ratio_12 - 1.0),
                 0.25)])


def test_criterion_5_tail_bound():
    worst = max(validate.tail_excess(float(a), 2.0)
                for a in np.arange(4.0, 12.5, 1.0))
    _criterion(5, "tail bound shape",
               [("max (1-P) e^{a/2}", worst, 1e-2)],
               note="a in [4, 12], alpha = 2")


def test_criterion_6_special_functions():
    worst = validate.check_gamma_identities().measured
    eps, worst_residue = 1e-7, 0.0
    for k in range(4):
        lim = special.gamma(-k + eps) * eps
        target = (-1.0) ** k / math.factorial(k)
        worst_residue = max(worst_residue, abs(lim / target - 1.0))
    _criterion(6, "special-function identities",
               [("identity suite", worst, 1e-10),
                ("pole residue limits (eps=1e-7)", worst_residue, 5e-7)])


def test_criterion_7_mc_scalar_oracle():
    cfg = mc.McConfig(N=1, M=1, trials=10_000, seed=7)
    res = mc.sample_rightmost(cfg, threads=1)
    s = np.sort(res.samples - 1.0)       # log|X|^2, law of log Exp(1)
    n = s.size
    cdf = 1.0 - np.exp(-np.exp(s))
    ranks = np.arange(1, n + 1) / n
    dist = max(float(np.max(ranks - cdf)),
               float(np.max(cdf - (ranks - 1.0 / n))))
    _criterion(7, "Monte-Carlo scalar oracle",
               [("KS distance", dist, 1.63 / math.sqrt(n))],
               note="N = M = 1, 10000 trials")


def test_criterion_8_mc_vs_theory():
    # flagged diagnostic in the contract (no finite-size rate is known),
    # but the pinned seed passes deterministically, so it gates here
    started = time.time()
    cfg = mc.McConfig(N=48, M=48, trials=4000, seed=1)
    res = mc.sample_rightmost(cfg, threads=4)
    parts = []
    for a in (1.0, 2.0, 3.0):
        phat, ci95 = mc.empirical_gap(res, a)
        p = fredholm.gap_probability(a, 1.0, "halfline",
                                     estimate_error=False).p
        parts.append((f"|phat-P| @a={a:g}", abs(phat - p), ci95 + 0.03))
    elapsed = time.time() - started
    _criterion(8, "finite-size Monte-Carlo vs theory", parts,
               note=f"N = M = 48, 4000 trials, diagnostic; "
                    f"runtime {elapsed:.0f}s")
