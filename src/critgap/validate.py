"""Self-validation suite: every exact identity the package is built on,
re-measured at runtime and reported as a machine-readable pass/fail table.

These are hard checks: each one holds to rounding (or to a stated window)
whenever the numerics are healthy, so a single failure means the build is
wrong, not that a tolerance is tight.  The CLI exposes the suite as the
`validate` subcommand with exit code 1 on any failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fredholm, kernels, observables, special
from .contours import build_closed_loop

__all__ = ["CheckResult", "run_all", "report", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    identity: str
    description: str
    measured: float
    tolerance: float
    passed: bool


def _result(identity: str, description: str, measured: float,
            tolerance: float) -> CheckResult:
    measured = float(measured)
    return CheckResult(identity, description, measured, tolerance,
                       bool(measured <= tolerance))


def check_gamma_identities() -> CheckResult:
    """Recurrence, reflection, conjugate symmetry, reciprocal zeros."""
    z = np.array([0.3 + 0.7j, -1.4 + 0.2j, 2.5 - 3.0j, 0.5 + 0.0j, -0.5 + 2.0j])
    g, g1 = special.gamma(z), special.gamma(z + 1.0)
    refl = g * special.gamma(1.0 - z)
    errors = [
        np.abs(g1 - z * g) / (1.0 + np.abs(g1)),
        np.abs(refl - math.pi / np.sin(math.pi * z)) / (1.0 + np.abs(refl)),
        np.abs(special.gamma(z.conj()) - g.conj()) / (1.0 + np.abs(g)),
        np.abs(special.recip_gamma(z) * g - 1.0),
        np.abs(special.recip_gamma(-np.arange(4.0))),
    ]
    return _result("gamma-identities",
                   "recurrence, reflection, conjugation, reciprocal zeros",
                   max(float(np.max(e)) for e in errors), 1e-10)


def check_kernel_factorization() -> CheckResult:
    """Half-line kernel equals its rank-factored double-integral form."""
    pts = [(1.0, 2.0, 2.0), (0.5, 0.7, 0.5), (2.0, 2.0, 2.0),
           (0.3, 1.1, 1.0), (1.5, 0.4, 1.0)]
    worst = 0.0
    for x, y, alpha in pts:
        direct = kernels.conjugated_kernel(x, y, alpha)
        split = kernels.factored_kernel(x, y, alpha)
        worst = max(worst, abs(direct - split) / (1.0 + abs(direct)))
    return _result("kernel-factorization",
                   "conjugated kernel vs factored double-integral form",
                   worst, 1e-8)


def check_loop_residue() -> CheckResult:
    """Small loop around the origin picks out exp(-(x+q)/2)."""
    loop = build_closed_loop(left_edge=-0.5)
    t = loop.nodes
    g = special.gamma(t)
    worst = 0.0
    for x, q, alpha in [(1.0, 1.0, 2.0), (0.5, 2.0, 1.0), (2.0, 0.3, 0.5)]:
        vals = g * np.exp(-alpha * t ** 2 / 2.0 + (x + q) * (t - 0.5))
        integral = loop.integrate(vals) / (2.0j * math.pi)
        worst = max(worst, abs(integral - math.exp(-(x + q) / 2.0)))
    return _result("loop-residue",
                   "single-pole loop integral vs its residue value",
                   worst, 1e-10)


def check_route_equivalence() -> CheckResult:
    """The three determinant routes give the same gap probability."""
    worst = 0.0
    for a, alpha in [(1.0, 1.0), (2.0, 0.5), (2.0, 2.0), (3.0, 1.0)]:
        p_half = fredholm.gap_probability(a, alpha, "halfline",
                                          estimate_error=False).p
        p_q = fredholm.gap_probability(a, alpha, "contour-Q",
                                       estimate_error=False).p
        p_h = fredholm.gap_probability(a, alpha, "contour-H",
                                       estimate_error=False).p
        worst = max(worst, abs(p_half - p_q), abs(p_q - p_h))
    return _result("route-equivalence",
                   "half-line vs two-contour vs line-reduced determinants",
                   worst, 1e-7)


def check_jump_unipotent() -> CheckResult:
    """f.h = 0 on the line and on the loop, so det(I - 2 pi i f h^T) = 1."""
    pair = kernels.qa_pair(1.0, a_max=2.0)
    f_line, h_line, f_loop, h_loop = kernels.rh_vectors(pair, 2.0)
    # (f, h) rows: ((f_line, 0), (0, h_line)) and ((0, f_loop), (h_loop, 0))
    zero_line, zero_loop = np.zeros_like(f_line), np.zeros_like(f_loop)
    f = np.concatenate([np.stack([f_line, zero_line], axis=1),
                        np.stack([zero_loop, f_loop], axis=1)])
    h = np.concatenate([np.stack([zero_line, h_line], axis=1),
                        np.stack([h_loop, zero_loop], axis=1)])
    dot = np.einsum("ij,ij->i", f, h)
    jdet = 1.0 - 2.0j * math.pi * dot  # det of I - 2 pi i f h^T
    worst = max(float(np.max(np.abs(dot))), float(np.max(np.abs(jdet - 1.0))))
    return _result("jump-unipotent",
                   "pointwise f.h = 0 and unit jump-matrix determinant",
                   worst, 1e-12)


def check_line_reduction() -> CheckResult:
    """Line-reduced kernel equals the loop-contracted product of the two
    coupling blocks when evaluated on the same loop grid (both in real
    form, weights included)."""
    a, alpha = 2.0, 1.0
    pair = kernels.qa_pair(alpha, a_max=a)
    block_a, block_bt = kernels.cross_blocks(pair, a)
    direct = kernels.real_form(block_a) @ kernels.real_form(block_bt.conj()).T
    reduced = kernels.ha_matrix(pair, a, pair.loop)
    worst = float(np.max(np.abs(direct - reduced))
                  / (1.0 + np.max(np.abs(direct))))
    return _result("line-reduction",
                   "reduced kernel vs contracted product of coupling blocks",
                   worst, 1e-12)


def check_log_derivative() -> CheckResult:
    """(Y1)_11 equals d/da log P: a central difference of halfline's
    determinant, which shares no assembly with the RH workspace."""
    worst = 0.0
    for a, alpha in [(2.0, 1.0), (1.5, 2.0)]:
        step = 1e-3
        lo = fredholm.gap_probability(a - step, alpha, "halfline",
                                      estimate_error=False).log_p
        hi = fredholm.gap_probability(a + step, alpha, "halfline",
                                      estimate_error=False).log_p
        diff = (hi - lo) / (2.0 * step)
        y1 = observables.y1_matrix(a, alpha)
        worst = max(worst, abs(y1.log_deriv - diff) / (1.0 + abs(diff)))
    return _result("log-derivative",
                   "residue-matrix (1,1) entry vs d/da of log determinant",
                   worst, 1e-4)


def check_second_derivative() -> CheckResult:
    """d/da (Y1)_11 equals the off-diagonal product (the u-function ODE)."""
    a, alpha, step = 2.0, 1.0, 1e-3
    ws = observables.RhWorkspace(alpha, a + 1.0)
    lhs = (ws.y1(a + step).e11.real - ws.y1(a - step).e11.real) / (2.0 * step)
    rhs = -ws.y1(a).u
    return _result("second-derivative-ode",
                   "d/da of residue (1,1) vs off-diagonal product",
                   abs(lhs - rhs), 1e-3)


def check_closure() -> CheckResult:
    """log P rebuilt from the u-function double integral vs halfline's."""
    a, alpha = 3.0, 1.0
    rebuilt = observables.log_gap_from_u(a, alpha)
    direct = fredholm.gap_probability(a, alpha, "halfline",
                                      estimate_error=False).log_p
    return _result("double-integral-closure",
                   "log P from (x-a) u(x) integral vs determinant",
                   abs(rebuilt - direct), 1e-4)


def check_tail_moment_loop() -> CheckResult:
    """Loop tail moment: steepest-descent quadrature vs pole expansion."""
    worst = 0.0
    for a, alpha in [(4.0, 2.0), (2.0, 1.0), (6.0, 2.0)]:
        quad = observables.asym_u1_21(a, alpha, method="quadrature")
        res = observables.asym_u1_21(a, alpha, method="residue")
        worst = max(worst, abs(quad - res) / abs(res))
    return _result("tail-moment-loop",
                   "loop moment quadrature vs residue series", worst, 1e-10)


def check_tail_moment_line() -> CheckResult:
    """Line tail moment: purely imaginary, and near its closed form."""
    m4 = observables.asym_u1_12(4.0, 2.0)
    imag_purity = abs(m4.real) / abs(m4)
    ratio = (observables.asym_u1_12(10.0, 2.0)
             / observables.asym_u1_12_closed(10.0, 2.0))
    window = max(0.0, abs(ratio.real - 1.0) - 0.25, abs(ratio.imag))
    return _result("tail-moment-line",
                   "line moment imaginarity and closed-form window",
                   max(imag_purity, window), 1e-10)


def check_tail_bound() -> CheckResult:
    """(1 - P(a)) e^{a/2} stays below a fixed constant on the right tail."""
    worst = 0.0
    for a in (4.0, 6.0, 8.0, 10.0, 12.0):
        p = fredholm.gap_probability(a, 2.0, "halfline",
                                     estimate_error=False).p
        worst = max(worst, (1.0 - p) * math.exp(a / 2.0))
    return _result("tail-bound", "(1-P) exp(a/2) bounded on a in [4,12]",
                   worst, 1e-2)


def check_asymptotic_window() -> CheckResult:
    """u/u_asymptotic near 1 at a = 6 and closer at a = 8 (alpha = 2)."""
    r6 = observables.u_of_x(6.0, 2.0) / observables.u_asymptotic(6.0, 2.0)
    r8 = observables.u_of_x(8.0, 2.0) / observables.u_asymptotic(8.0, 2.0)
    shrink = 0.0 if abs(r8 - 1.0) < abs(r6 - 1.0) else 1.0
    return _result("asymptotic-window",
                   "u over its right-tail form: in [0.5, 1.5] and improving",
                   max(abs(r6 - 1.0) - 0.5, shrink, 0.0), 1e-12)


CHECKS = (
    check_gamma_identities,
    check_kernel_factorization,
    check_loop_residue,
    check_route_equivalence,
    check_jump_unipotent,
    check_line_reduction,
    check_log_derivative,
    check_second_derivative,
    check_closure,
    check_tail_moment_loop,
    check_tail_moment_line,
    check_tail_bound,
    check_asymptotic_window,
)


def run_all() -> list[CheckResult]:
    return [check() for check in CHECKS]


def report(results: list[CheckResult] | None = None) -> dict:
    """JSON-ready validation report; all_passed gates the CLI exit code."""
    results = run_all() if results is None else results
    return {
        "suite": "critgap-validate",
        "checks": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
