"""Acceptance suite: the eight gate criteria, one test per criterion.

Each test prints a single scorecard line (visible with -s, or on failure)
carrying the measured figures next to their pinned tolerances; the assert
fails if any figure is out of tolerance.  Runtime bounds are asserted
where the contract states them.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from critgap import fredholm, kernels, mc, observables, special, validate

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
    worst_hq, worst_qh = 0.0, 0.0
    for a in GRID_A:
        for alpha in GRID_ALPHA:
            p_half = fredholm.gap_probability(a, alpha, "halfline",
                                              estimate_error=False).p
            p_q = fredholm.gap_probability(a, alpha, "contour-Q",
                                           estimate_error=False).p
            p_h = fredholm.gap_probability(a, alpha, "contour-H",
                                           estimate_error=False).p
            worst_hq = max(worst_hq, abs(p_half - p_q))
            worst_qh = max(worst_qh, abs(p_q - p_h))
    elapsed = time.time() - started
    _criterion(1, "determinant-route equivalence",
               [("max|P_half-P_Q|", worst_hq, 1e-7),
                ("max|P_Q-P_H|", worst_qh, 1e-7),
                ("runtime_s", elapsed, 60.0)],
               note="12-point (a, alpha) grid")


def test_criterion_2_factorization_and_residue():
    worst_fact = 0.0
    for x, y, alpha in [(1.0, 2.0, 2.0), (0.5, 0.7, 0.5), (2.0, 2.0, 2.0),
                        (0.3, 1.1, 1.0), (1.5, 0.4, 1.0)]:
        worst_fact = max(worst_fact,
                         abs(kernels.conjugated_kernel(x, y, alpha)
                             - kernels.factored_kernel(x, y, alpha)))
    _criterion(2, "kernel factorization + loop residue",
               [("max|K-K_factored|", worst_fact, 1e-8),
                ("max residue error",
                 validate.check_loop_residue().measured, 1e-10)])


def test_criterion_3_rh_observable_identities():
    started = time.time()
    step = 1e-3
    worst_logd, worst_ode, worst_close = 0.0, 0.0, 0.0
    for alpha in (1.0, 2.0):
        ws = observables.RhWorkspace(alpha, 3.0 + 2.0 * step)
        for a in (1.5, 2.0, 3.0):
            lo = fredholm.gap_probability(a - step, alpha, "contour-Q",
                                          estimate_error=False).log_p
            hi = fredholm.gap_probability(a + step, alpha, "contour-Q",
                                          estimate_error=False).log_p
            diff = (hi - lo) / (2.0 * step)
            y0 = ws.y1(a)
            worst_logd = max(worst_logd,
                             abs(y0.log_deriv - diff) / (1.0 + abs(diff)))
            lhs = (ws.y1(a + step).e11.real
                   - ws.y1(a - step).e11.real) / (2.0 * step)
            worst_ode = max(worst_ode, abs(lhs - (y0.e12 * y0.e21).real))
            rebuilt = observables.log_gap_from_u(a, alpha)
            direct = fredholm.gap_probability(a, alpha, "contour-Q",
                                              estimate_error=False).log_p
            worst_close = max(worst_close, abs(rebuilt - direct))
    elapsed = time.time() - started
    _criterion(3, "residue-matrix identities",
               [("log-derivative rel", worst_logd, 1e-4),
                ("ODE abs", worst_ode, 1e-3),
                ("closure abs", worst_close, 1e-4),
                ("runtime_s", elapsed, 300.0)],
               note="a in {1.5, 2, 3} x alpha in {1, 2}")


def test_criterion_4_asymptotics():
    r6 = observables.u_of_x(6.0, 2.0) / observables.u_asymptotic(6.0, 2.0)
    r8 = observables.u_of_x(8.0, 2.0) / observables.u_asymptotic(8.0, 2.0)
    worst_21 = 0.0
    for a, alpha in [(4.0, 2.0), (6.0, 2.0)]:
        quad = observables.asym_u1_21(a, alpha, method="quadrature")
        res = observables.asym_u1_21(a, alpha, method="residue")
        worst_21 = max(worst_21, abs(quad - res) / abs(res))
    ratio_12 = (observables.asym_u1_12(10.0, 2.0)
                / observables.asym_u1_12_closed(10.0, 2.0))
    _criterion(4, "right-tail asymptotics",
               [("|u/u_asym - 1| @a=6", abs(r6 - 1.0), 0.5),
                ("|u/u_asym - 1| @a=8", abs(r8 - 1.0), abs(r6 - 1.0)),
                ("loop moment quad-vs-residue", worst_21, 1e-10),
                ("|line moment/closed - 1| @a=10", abs(ratio_12 - 1.0),
                 0.25)])


def test_criterion_5_tail_bound():
    worst = 0.0
    for a in np.arange(4.0, 12.5, 1.0):
        p = fredholm.gap_probability(float(a), 2.0, "halfline",
                                     estimate_error=False).p
        worst = max(worst, (1.0 - p) * math.exp(a / 2.0))
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
