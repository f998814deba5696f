"""Riemann-Hilbert observables: the residue matrix Y1(a), the density-like
function u(x), reconstruction of log P by double integration, and the
right-tail closed forms.

Y1(a) is the 1/z coefficient of the solution of the Riemann-Hilbert problem
attached to the two-contour operator.  Its entries carry the derivatives of
the gap probability:

    (Y1)_{11} = P'(a)/P(a),
    d/da (Y1)_{11} = (Y1)_{12}(Y1)_{21} = -u(a),
    log P(a)  = integral_a^inf (x - a) (Y1)_{12}(Y1)_{21} dx.

critgap.validate checks each of them.  Y1 is computed from the resolvent
formula: solve (I - Q_a)F = f on the contour union, then Y1 = sum of
w_i F(s_i) h(s_i)^T, on the line grid through the two real factors from
which contour-Q reads its determinant, with every loop sum taken on
Gamma's pole rule (kernels.cross_blocks; see RhWorkspace).  Everything
here reuses the Nystrom machinery; no boundary-value problem is solved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, special
from .contours import (GeometryError, _gl_panels, deformed_contours,
                       gamma_contour_integral, truncation_radius)
from .fredholm import (DiscreteOperator, HalfLineGrid, _decay_end,
                       check_rounding_scale, det_one_minus, solve_resolvent)

__all__ = [
    "UnderflowWarning",
    "Y1Matrix",
    "RhWorkspace",
    "y1_matrix",
    "u_of_x",
    "u_asymptotic",
    "log_u_asymptotic",
    "log_gap_from_u",
    "residue_sum",
    "asym_u1_21",
    "asym_u1_12",
    "asym_u1_12_closed",
]

_IM_TOL = 1e-8
_LOG_FLOOR = -700.0


class UnderflowWarning(RuntimeWarning):
    """A magnitude left the representable range; use the log channel."""


@dataclass(frozen=True)
class Y1Matrix:
    """2x2 residue matrix of the Riemann-Hilbert solution at infinity.

    e11 is real (the log-derivative of the gap probability) and the product
    e12*e21 is real; the individual off-diagonal phases are convention-bound
    and not asserted.  log_p is log P(a) = log|det(I - K W)| of the same
    line operator: log|det| of the solve's K x K Woodbury matrix (nan when
    not computed)."""

    e11: complex
    e12: complex
    e21: complex
    e22: complex
    a: float
    alpha: float
    log_p: float = math.nan

    @property
    def log_deriv(self) -> float:
        """P'(a)/P(a)."""
        return self.e11.real

    @property
    def u(self) -> float:
        """u(a) = -(Y1)_12 (Y1)_21."""
        return -(self.e12 * self.e21).real


class RhWorkspace:
    """Precomputed contour data for Y1 sweeps at fixed alpha.

    The two-contour operator is Q = [[0, A], [B, 0]] over (line, loop), with
    A[z, t] = f(z).h(t) / (z - t) and B[t, s] = f(t).h(s) / (t - s).  Its
    a-dependence sits in scalar exponential factors, e^{-az} on line rows of
    f and e^{+at} on loop rows of h, so only A moves with a.  The block
    structure reduces each solve to the line grid (W: quadrature weights):

        (I - K W_line) F_line = f_line + e,   K = A W_loop B,
        F_loop = f_loop + B W_line F_line,

    with e = A W_loop f_loop and W_line g = (B W_line)^T W_loop h_loop.  The
    loop enters Y1 only through g and a constant:
    sum_loop F_loop h_loop^T W = f_loop^T W h_loop + sum_line W F_line g.

    Every loop sum here is taken on Gamma's pole rule, the K poles t = -k
    that contour-Q's determinant reads at the same a (kernels.rh_vectors
    and kernels.cross_blocks): W_loop h_loop becomes 2 pi i times Gamma's
    residues, and the constant is sum_k (-1)^k / k! e^{-alpha k^2/2 - ak},
    residue_sum's series.  The grids are mirror images under conjugation,
    and both coupling blocks commute with it, so y1 builds only their real
    forms at a, contour-Q's two (2m, K) factors: left, that of A W_poles,
    and right, that of 2 conj((B W_line)^T), with left @ right.T the real
    form of K W.  The right side and F_line are odd under the mirror
    (v[::-1] = -conj v), so i F_line lies in the real subspace: both
    columns are real solves, and the lower half of F_line is the mirror
    of the upper.  The poles are real and i f_loop and i conj(W h_loop) are
    real on them, so e and W g come from the same two factors: left maps
    i f_poles to i e, and right maps i conj(W h_poles) to 2 i conj(W g).
    The Y1 sums then have exactly mirrored terms, and their
    imaginary-residue checks see only rounding.  Valid for evaluation
    points 0 < a <= x_max (x_max sets the oscillation budget of the line
    grid).

    The solve is fredholm.solve_resolvent's Woodbury solve through the
    K x K matrix I_K - right.T @ left, with the full factored operator
    checking the residual, and log|det| of that matrix is log P(a), the
    bits of contour-Q's log P on the same line, returned as Y1Matrix.log_p.
    The rounding guard (fredholm.check_rounding_scale) reads
    max|left @ right.T| without forming it, and shows an unresolved
    discretization (alpha 128, alpha <= 0.15), which the real solves'
    imaginary residues cannot.

    The workspace holds its line grid and nothing it writes.  What does
    not depend on a, the Cauchy block 1/(z + k), e^{alpha z^2/4}, h_line
    and the whole right factor, is kept on the read-only line in one table
    per alpha that kernels.cross_blocks and rh_vectors both read
    (QuadratureGrid.memo), written by the first y1 or contour-Q call at
    that alpha.  A y1 then multiplies in e^{-az} and e^{-ak} and gets
    fresh factors and pole vectors, line- or pole-length arrays and
    (2m, K) blocks, and no n x n array.  So threads may share one
    workspace, and call contour-Q on its line, in parallel."""

    def __init__(self, alpha: float, x_max: float, order: int = 16,
                 refine: float = 1.0):
        special._require_finite(alpha=alpha, x_max=x_max)
        if x_max <= 0.0:
            raise ValueError("x_max must be positive")
        self.alpha = float(alpha)
        self.x_max = float(x_max)
        self.line = kernels._qa_line(alpha, a_max=x_max, order=order,
                                     refine=refine)
        if self.line.spec.kind != "line":
            # f_line = e^{alpha z^2/4 - az} decays only up a vertical line
            raise GeometryError(
                f"workspace needs a vertical line, got a {self.line.spec.kind}")

    def y1(self, a: float) -> Y1Matrix:
        if not 0.0 < a <= self.x_max + 1e-9:
            raise ValueError(f"a={a} outside workspace range (0, {self.x_max}]")
        left, right = kernels.cross_blocks(self.line, self.alpha, a)
        op = DiscreteOperator(None, (left, right))
        check_rounding_scale(op, f"RhWorkspace.y1 at alpha={self.alpha}, a={a}")
        f_line, h_line, f_poles, wh_poles = kernels.rh_vectors(
            self.line, self.alpha, a)
        m = f_line.size // 2
        # coordinates (Re, Im) of the upper halves of i f_line(a) and of
        # i e = A W_poles (i f_poles), in which the solution is i F_line
        fl = f_line[m:]
        rhs = np.empty((2 * m, 2))
        rhs[:m, 0], rhs[m:, 0] = -fl.imag, fl.real
        rhs[:, 1] = left @ (1j * f_poles).real
        x = solve_resolvent(op, rhs)
        log_p = float(det_one_minus(op)[1])
        upper = x[m:] - 1j * x[:m]                        # F_line, upper half
        big_f_line = np.concatenate([-upper[::-1].conj(), upper])
        # W g = (B W_line)^T v with v = W h_poles: right maps i conj(v) to
        # 2 i conj(W g).  W g is odd under the mirror, like the right side
        r = right @ (0.5j * wh_poles.conj()).real
        gw_up = r[m:] + 1j * r[:m]
        gw = np.concatenate([-gw_up[::-1].conj(), gw_up])
        gh = np.stack([gw, self.line.weights * h_line])   # W (g, h) rows
        y1 = big_f_line.T @ gh.T
        y1[1, 0] += np.sum(f_poles * wh_poles)
        e11, e12, e21, e22 = y1[0, 0], y1[0, 1], y1[1, 0], y1[1, 1]
        if abs(e11.imag) > _IM_TOL * (1.0 + abs(e11)):
            raise ArithmeticError(f"(Y1)_11 has imaginary residue {e11.imag:.3e}")
        prod = e12 * e21
        if abs(prod.imag) > _IM_TOL * (1.0 + abs(prod)):
            raise ArithmeticError(
                f"(Y1)_12 (Y1)_21 has imaginary residue {prod.imag:.3e}")
        return Y1Matrix(e11, e12, e21, e22, a, self.alpha, log_p)


def y1_matrix(a: float, alpha: float,
              workspace: RhWorkspace | None = None) -> Y1Matrix:
    """Residue matrix Y1(a) from the resolvent formula.  Raises ValueError
    for an a or alpha that is not finite."""
    special._require_finite(a=a, alpha=alpha)
    if a <= 0.0:
        raise ValueError(f"need a > 0, got {a}")
    ws = workspace or RhWorkspace(alpha, a)
    return ws.y1(a)


def u_of_x(x: float, alpha: float,
           workspace: RhWorkspace | None = None) -> float:
    """u(x) = -(Y1)_12 (Y1)_21, the integrand of the gap-probability
    double-integral representation.  Raises ValueError for an x or alpha
    that is not finite."""
    special._require_finite(x=x, alpha=alpha)
    return y1_matrix(x, alpha, workspace).u


def log_u_asymptotic(x: float, alpha: float) -> float:
    """Log of the right-tail asymptotic of u; never under- or overflows.
    Raises ValueError for an x or alpha that is not finite."""
    special._require_finite(x=x, alpha=alpha)
    if x <= 0.0 or alpha <= 0.0:
        raise special.DomainError("x and alpha must be positive")
    t = x / alpha
    lg = special.log_gamma(complex(t)).real
    return (-(x * x + math.log(t) ** 2) / (2.0 * alpha)
            - lg - 0.5 * math.log(2.0 * math.pi * alpha))


def u_asymptotic(x: float, alpha: float) -> float:
    """Right-tail asymptotic exp(-(x^2 + log^2(x/alpha))/(2 alpha)) /
    (Gamma(x/alpha) sqrt(2 pi alpha)); use log_u_asymptotic below 1e-300."""
    lg = log_u_asymptotic(x, alpha)
    return math.exp(lg) if lg > _LOG_FLOOR else 0.0


def log_gap_from_u(a: float, alpha: float,
                   workspace: RhWorkspace | None = None) -> float:
    """log P(a) reconstructed as -integral_a^(a+length) (x-a) u(x) dx.

    The grid, 6 panels of order 8, is graded toward a like the half-line
    determinant grid; u decays like exp(-x^2 / 2 alpha), so the tail past
    (x-a) u < 1e-20 is dropped rather than spent on resolvent solves:
    length = min(30, max(5, x_end - a)), x_end that of the halfline
    determinant grid.  Raises ValueError for an a or alpha that is not
    finite."""
    special._require_finite(a=a, alpha=alpha)
    if a <= 0.0:
        raise ValueError(f"need a > 0, got {a}")
    length = min(30.0, max(5.0, _decay_end(alpha) - a))
    ws = workspace or RhWorkspace(alpha, a + length)
    grid = HalfLineGrid(a, length, 6, 8)
    total = 0.0
    for x, w in zip(grid.nodes, grid.weights):
        total += w * (x - a) * u_of_x(float(x), alpha, ws)
    return -total


def residue_sum(alpha: float, a: float) -> float:
    """S(a) = sum_k (-1)^k / k! * exp(-alpha k^2/2 - a k); the pole expansion
    of the loop integral in the right-tail moment, summed over the poles of
    Gamma's pole rule (kernels._poles), the terms of size at least e^-45.
    For a > 0 the terms fall and alternate, and S >= e^-1, so the tail the
    rule drops is under 1e-19 of S.  Raises ValueError for an alpha or a
    that is not finite, DomainError for one that is not positive."""
    special._require_finite(alpha=alpha, a=a)
    if alpha <= 0.0 or a <= 0.0:
        raise special.DomainError("alpha and a must be positive")
    k, residues = kernels._poles(alpha, a)
    return float(np.sum(residues * np.exp(-alpha * k * k / 2.0 - a * k)))


def asym_u1_21(a: float, alpha: float) -> complex:
    """Leading right-tail moment carried by the loop contour: the loop
    integral on the steepest-descent contour, which equals
    (i alpha / a) exp(-a^2 / 4 alpha) S(a) exactly (S: residue_sum).
    Raises ValueError for an a or alpha that is not finite."""
    special._require_finite(a=a, alpha=alpha)
    if a * a <= 1.0:
        raise GeometryError(f"need a^2 > 1 for the deformed contour, got a={a}")
    log_pref = -a * a / (4.0 * alpha) + math.log(alpha / a)
    loop, _ = deformed_contours(alpha, a)
    factor = gamma_contour_integral(loop, alpha, a)
    if log_pref + math.log(abs(factor) + 1e-300) < _LOG_FLOOR:
        warnings.warn("tail moment below 1e-300; log channel only",
                      UnderflowWarning)
        return 0.0j
    return 1j * math.exp(log_pref) * factor


def _u1_12_grid(a: float, alpha: float, order: int,
                truncation: float) -> tuple[np.ndarray, np.ndarray]:
    # Gaussian weight width ~ sqrt(alpha)/a; phase frequency ~ (a/alpha) log(a/alpha)
    sigma = math.sqrt(alpha) / a
    freq = (a / alpha) * (1.0 + abs(math.log(a / alpha)))
    cap = max(1.3 * order / freq, 0.02)
    first = min(1.0, 2.0 * sigma, cap)
    cuts = [0.0]
    while cuts[-1] < truncation:
        w = min(first * 1.4 ** (len(cuts) - 1), cap, truncation - cuts[-1])
        cuts.append(cuts[-1] + max(w, 1e-3))
    edges = np.array(cuts)
    edges[-1] = truncation
    x, w = _gl_panels(edges, order)
    x, w = x.ravel(), w.ravel()
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def asym_u1_12(a: float, alpha: float) -> complex:
    """Leading right-tail moment carried by the line contour:
    (1/2 pi i) integral over the real line of exp(-(a^2/2 alpha)(x^2 + 1/2))
    / Gamma((a/alpha)(1 - ix)) dx, evaluated in log space on panels of
    order 16 over |x| <= T, where the integrand falls below e^-40.  Raises
    ValueError for an a or alpha that is not finite."""
    special._require_finite(a=a, alpha=alpha)
    if a <= 0.0 or alpha <= 0.0:
        raise special.DomainError("a and alpha must be positive")
    t = a / alpha
    # integrand magnitude exp(-(a^2/2a)x^2 + (pi t / 2)|x|) below e^-40
    truncation = truncation_radius(a * a / (2.0 * alpha),
                                   growth=math.pi * t / 2.0, target=40.0)
    x, w = _u1_12_grid(a, alpha, 16, truncation)
    z = t * (1.0 - 1j * x)
    loggam = special.log_gamma(z)
    log_integrand = -loggam - (a * a / (2.0 * alpha)) * (x * x + 0.5)
    peak = float(np.max(log_integrand.real))
    total = np.sum(w * np.exp(log_integrand - peak)) / (2.0j * math.pi)
    mag = abs(total)
    if mag == 0.0 or peak + math.log(mag) < _LOG_FLOOR:
        warnings.warn("tail moment below 1e-300; log channel only",
                      UnderflowWarning)
        return 0.0j
    return total * math.exp(peak)


def asym_u1_12_closed(a: float, alpha: float) -> complex:
    """Closed-form limit of asym_u1_12, exact up to O((log a)^2 / a):
    exp(-(a^2 + 2 log^2(a/alpha))/(4 alpha)) / (i sqrt(2 pi alpha)
    Gamma(1 + a/alpha)).  Raises ValueError for an a or alpha that is not
    finite."""
    special._require_finite(a=a, alpha=alpha)
    if a <= 0.0 or alpha <= 0.0:
        raise special.DomainError("a and alpha must be positive")
    t = a / alpha
    log_mag = (-(a * a + 2.0 * math.log(t) ** 2) / (4.0 * alpha)
               - special.log_gamma(complex(1.0 + t)).real
               - 0.5 * math.log(2.0 * math.pi * alpha))
    if log_mag < _LOG_FLOOR:
        warnings.warn("tail moment below 1e-300; log channel only",
                      UnderflowWarning)
        return 0.0j
    return -1j * math.exp(log_mag)
