"""Self-validation suite: every exact identity the package is built on,
re-measured at runtime and reported as a machine-readable pass/fail table.

These are hard checks: each one holds to rounding (or to a stated window)
whenever the numerics are healthy, so a single failure means the build is
wrong, not that a tolerance is tight.  The CLI exposes the suite as the
`validate` subcommand with exit code 1 on any failure.

An identity checked at several points has one residual function of the
point: check_* takes the worst over its points, the tests over theirs.
The two-contour checks read the real factors that contour-Q and the RH
workspace take their determinant and solves from (kernels.cross_blocks,
on Gamma's pole rule), so they test the one writer of them: against the
jump vectors, and against contour-H's loop quadrature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fredholm, kernels, observables, special
from .contours import build_closed_loop

__all__ = ["CheckResult", "report", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    identity: str
    description: str
    measured: float
    tolerance: float
    passed: bool


def _result(identity: str, description: str, measured: float,
            tolerance: float) -> CheckResult:
    return CheckResult(identity, description, float(measured), tolerance,
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


def route_spread(a: float, alpha: float) -> float:
    """Largest minus smallest P(a) over the three determinant routes."""
    ps = [fredholm.gap_probability(a, alpha, route, estimate_error=False).p
          for route in fredholm.ROUTES]
    return max(ps) - min(ps)


def check_route_equivalence() -> CheckResult:
    pts = [(1.0, 1.0), (2.0, 0.5), (2.0, 2.0), (3.0, 1.0)]
    return _result("route-equivalence",
                   "half-line vs two-contour vs line-reduced determinants",
                   max(route_spread(*p) for p in pts), 1e-7)


def check_jump_unipotent() -> CheckResult:
    """The jump I - 2 pi i f h^T is unipotent because f and h are nonzero
    on complementary components (f = (f_line, 0), h = (0, h_line) on the
    line, f = (0, f_loop), h = (h_loop, 0) on the loop), so f.h = 0 by
    construction.  What that rests on is that these components build the
    two-contour operator: on the pole rule, f_line(z) (W h)_k / (z + k)
    must be A W_poles and f_k h_line(z) w_z / (-k - z) must be
    (B W_line)^T, whose real coordinates, of A W_poles and of
    2 conj((B W_line)^T), cross_blocks writes on the upper-half line
    rows."""
    a, alpha = 2.0, 1.0
    line = kernels.qa_pair(alpha, a_max=a).line
    f_line, h_line, f_poles, wh_poles = kernels.rh_vectors(line, alpha, a)
    factors = kernels.cross_blocks(line, alpha, a)
    m = factors[0].shape[0] // 2
    z, wz = line.nodes[m:], line.weights[m:]
    z_plus_k = np.add.outer(z, np.arange(f_poles.size))
    rebuilt_a = np.outer(f_line[m:], wh_poles) / z_plus_k
    rebuilt_bt = 2.0 * (np.outer(h_line[m:] * wz, f_poles) / -z_plus_k).conj()
    rebuilt = [np.concatenate([x.real, x.imag])
               for x in (rebuilt_a, rebuilt_bt)]
    worst = max(float(np.max(np.abs(r - f)) / np.max(np.abs(f)))
                for r, f in zip(rebuilt, factors))
    return _result("jump-unipotent",
                   "coupling blocks rebuilt from the jump vectors f, h vs "
                   "cross_blocks",
                   worst, 1e-12)


def check_line_reduction() -> CheckResult:
    """Line-reduced kernel, a divided difference of one loop sum over the
    pair's loop quadrature, equals the product left @ right.T of the two
    coupling blocks' real factors on the pole rule (weights included)."""
    a, alpha = 2.0, 1.0
    pair = kernels.qa_pair(alpha, a_max=a)
    left, right = kernels.cross_blocks(pair.line, alpha, a)
    direct = left @ right.T
    reduced = kernels.ha_matrix(pair, a, pair.loop)
    worst = float(np.max(np.abs(direct - reduced))
                  / (1.0 + np.max(np.abs(direct))))
    return _result("line-reduction",
                   "reduced kernel vs contracted product of coupling blocks",
                   worst, 1e-12)


def _halfline(a: float, alpha: float) -> fredholm.GapResult:
    # halfline shares no assembly with the RH workspace's two-contour factors
    return fredholm.gap_probability(a, alpha, "halfline", estimate_error=False)


def log_derivative_error(a: float, alpha: float) -> float:
    """|(Y1)_11 - d/da log P| / (1 + |d/da log P|), by central difference."""
    step = 1e-3
    hi, lo = _halfline(a + step, alpha).log_p, _halfline(a - step, alpha).log_p
    diff = (hi - lo) / (2.0 * step)
    y1 = observables.y1_matrix(a, alpha)
    return abs(y1.log_deriv - diff) / (1.0 + abs(diff))


def check_log_derivative() -> CheckResult:
    return _result("log-derivative",
                   "residue-matrix (1,1) entry vs d/da of log determinant",
                   max(log_derivative_error(2.0, 1.0),
                       log_derivative_error(1.5, 2.0)), 1e-4)


def ode_error(a: float, alpha: float) -> float:
    """|d/da (Y1)_11 + u|, by central difference on one workspace."""
    step = 1e-3
    ws = observables.RhWorkspace(alpha, a + 1.0)
    lhs = (ws.y1(a + step).e11.real - ws.y1(a - step).e11.real) / (2.0 * step)
    return abs(lhs + ws.y1(a).u)


def check_second_derivative() -> CheckResult:
    return _result("second-derivative-ode",
                   "d/da of residue (1,1) vs off-diagonal product",
                   ode_error(2.0, 1.0), 1e-3)


def closure_error(a: float, alpha: float) -> float:
    """|log P rebuilt from the u-function double integral - halfline's|."""
    return abs(observables.log_gap_from_u(a, alpha) - _halfline(a, alpha).log_p)


def check_closure() -> CheckResult:
    return _result("double-integral-closure",
                   "log P from (x-a) u(x) integral vs determinant",
                   closure_error(3.0, 1.0), 1e-4)


def loop_moment_error(a: float, alpha: float) -> float:
    """Relative gap of the loop moment's quadrature to its pole series."""
    quad = observables.asym_u1_21(a, alpha)
    res = (1j * math.exp(-a * a / (4.0 * alpha) + math.log(alpha / a))
           * observables.residue_sum(alpha, a))
    return abs(quad - res) / abs(res)


def check_tail_moment_loop() -> CheckResult:
    pts = [(4.0, 2.0), (2.0, 1.0), (6.0, 2.0)]
    return _result("tail-moment-loop",
                   "loop moment quadrature vs residue series",
                   max(loop_moment_error(*p) for p in pts), 1e-10)


def line_moment_ratio(a: float, alpha: float) -> complex:
    """The line tail moment over its closed form; 1 + O((log a)^2 / a)."""
    return (observables.asym_u1_12(a, alpha)
            / observables.asym_u1_12_closed(a, alpha))


def check_tail_moment_line() -> CheckResult:
    """Line tail moment: purely imaginary, and near its closed form."""
    m4 = observables.asym_u1_12(4.0, 2.0)
    imag_purity = abs(m4.real) / abs(m4)
    ratio = line_moment_ratio(10.0, 2.0)
    window = max(0.0, abs(ratio.real - 1.0) - 0.25, abs(ratio.imag))
    return _result("tail-moment-line",
                   "line moment imaginarity and closed-form window",
                   max(imag_purity, window), 1e-10)


def tail_excess(a: float, alpha: float) -> float:
    """(1 - P(a)) e^{a/2}, P from halfline."""
    return (1.0 - _halfline(a, alpha).p) * math.exp(a / 2.0)


def check_tail_bound() -> CheckResult:
    worst = max(tail_excess(a, 2.0) for a in (4.0, 6.0, 8.0, 10.0, 12.0))
    return _result("tail-bound", "(1-P) exp(a/2) bounded on a in [4,12]",
                   worst, 1e-2)


def u_ratio(a: float, alpha: float) -> float:
    """u(a) over its right-tail asymptotic form."""
    return observables.u_of_x(a, alpha) / observables.u_asymptotic(a, alpha)


def check_asymptotic_window() -> CheckResult:
    """u/u_asymptotic near 1 at a = 6 and closer at a = 8 (alpha = 2)."""
    r6, r8 = u_ratio(6.0, 2.0), u_ratio(8.0, 2.0)
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


def report() -> dict:
    """JSON-ready validation report; all_passed gates the CLI exit code."""
    results = [check() for check in CHECKS]
    return {
        "suite": "critgap-validate",
        "checks": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
