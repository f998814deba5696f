"""Nystrom discretization and Fredholm determinants; the three routes to the
gap probability P(a).

P(a) is the probability that the rightmost particle of the critical process
sits left of a.  It equals the Fredholm determinant of the (conjugated)
kernel on (a, inf), and also the determinant of the two-contour operator
Q = [[0, A], [B, 0]] on the line/loop union.  Both two-contour routes are
posed on the line grid: contour-Q by the Schur complement
det(I - Q) = det(I - A W_loop B W_line), contour-H by the line-reduced
kernel, a divided difference of one sum over a separately graded loop
(kernels.ha_matrix).  Their grids are mirror images under conjugation, so
both line operators are real (kernels.real_form) and every LU is real.
Every route hands the determinant one real K W with the weights folded in
(DiscreteOperator): halfline and contour-H as a dense n x n array, contour-Q
as its two real factors, never formed.

halfline and contour-Q sum their loops on Gamma's pole rule (kernels._poles),
building none: the only singular factor inside the loop is Gamma(t), so the
loop sum is a residue series over t = -k, K = 1 to 21 terms above e^-45.
halfline's kernel is a rank-K product on its own line (kernels.kernel_matrix),
whose dense LU, at n = 48 to 128, costs no more than a K x K one.  contour-Q's
K W = left @ right.T (kernels.cross_blocks) has exact rank K, and by
Sylvester's identity det(I - K W) = det(I_K - right.T @ left), a K x K
determinant, as for the separable kernels of Bornemann (arXiv:0804.2543).
Only e^{-az} and e^{-ak} in the left factor are written per a, at m x K
entries; the rest is kept on the line per alpha (kernels._cross_table), and
each call gets fresh factors.  The RH workspace (observables.RhWorkspace)
solves on the same operator, by Woodbury's identity through the same K x K
matrix, so at one a and line its log P is contour-Q's, bit for bit.  Dense operators take a dense
LU of I - K W.  Every determinant and solve goes through numpy.linalg, by the
two functions lu_factor and lu_solve below.  halfline and contour-Q share
only the pole count and the gamma functions, each with its own line, and
contour-H keeps a loop quadrature, so the routes' agreement is the primary
internal consistency check of the package.

The halfline grid is sized from the kernel's decay: on (a, inf) it falls
like u(x) ~ exp(-x^2 / 2 alpha), so the grid ends where that drops below
e^{-46}, or at a floor for small alpha (Bornemann, arXiv:0804.2543,
truncates the infinite intervals of Fredholm determinants by the kernel's
decay in the same way), and its panel count follows that length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .contours import (GeometryError, QuadratureGrid, _gl_panels,
                       truncation_radius)
from .special import _require_finite

__all__ = [
    "SingularError",
    "SingularWarning",
    "HalfLineGrid",
    "DiscreteOperator",
    "halfline_operator",
    "ha_operator",
    "det_one_minus",
    "solve_resolvent",
    "GapResult",
    "gap_probability",
    "ROUTES",
]

ROUTES = ("halfline", "contour-Q", "contour-H")

_EPS = float(np.finfo(float).eps)
_ROUNDING_TOL = 3e-10  # largest n eps max|K W| a two-contour matrix may reach
_P_SLACK = 1e-7       # how far a returned P may stray outside [0, 1]
_FIXED_LENGTH = 40.0  # cap of the halfline length floor 2 / alpha
_DECAY_LOG = 46.0   # the halfline grid ends where exp(-x^2 / 2 alpha) < e^-46
_MAX_PANELS = 8  # halfline's panels: one per 5 of its length, 3 to this
_DEFAULT_ORDER = 16
_GRID_GROWTH = 1.6
_GUARD_ROWS = 32     # rows of left per block of the guard's max|K W|


class SingularError(np.linalg.LinAlgError):
    """Resolvent solve requested on a numerically singular operator."""


class SingularWarning(RuntimeWarning):
    """The LU of a determinant met an exactly zero pivot."""


def lu_factor(a: np.ndarray) -> tuple:
    """(sign, log|det a|) from numpy's pivoted LU of a (numpy.linalg.slogdet,
    which factors a copy).  With lu_solve, the one seam through which the
    package factors matrices; the benchmark's tracer hooks both by name."""
    return np.linalg.slogdet(a)


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b by numpy's pivoted LU of a copy of a (numpy.linalg.solve);
    raises numpy.linalg.LinAlgError on an exactly zero pivot."""
    return np.linalg.solve(a, b)


@dataclass
class HalfLineGrid:
    """Composite Gauss-Legendre grid on (a, a + length), graded toward a.

    The conjugated kernel decays like exp(-(x+y)/2) near a, so panels grow
    geometrically away from the left endpoint.  halfline_operator sizes
    the length from the kernel's Gaussian decay.  Raises ValueError unless
    length is finite and positive.
    """

    a: float
    length: float
    panels: int = _MAX_PANELS
    order: int = _DEFAULT_ORDER
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.panels < 1 or self.order < 2:
            raise ValueError("need at least one panel and order >= 2")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(
                f"length must be finite and positive, got {self.length}")
        widths = _GRID_GROWTH ** np.arange(self.panels)
        widths = self.length * widths / widths.sum()
        edges = self.a + np.concatenate([[0.0], np.cumsum(widths)])
        nodes, weights = _gl_panels(edges, self.order)
        self.nodes, self.weights = nodes.ravel(), weights.ravel()

    def __len__(self) -> int:
        return self.nodes.size


@dataclass
class DiscreteOperator:
    """A real line operator K W, with the quadrature weights folded in:
    held as an n x n float64 array kw, or as its two real (n, K) factors
    (left, right), K W = left @ right.T, with kw None.  A complex or
    otherwise non-float64 kw raises TypeError.

    halfline and contour-H hold kw, the Nystrom matrix with its columns
    scaled by the weights; contour-Q and the RH workspace hold the factors
    of the pole rule (kernels.cross_blocks), from which K W is applied,
    never formed.

    A dense operator takes the LU of I - K W for its determinant and its
    solves.  A factored one takes those of the K x K matrix
    I_K - right.T @ left, formed when the operator is made: its determinant
    is det(I - K W) (Sylvester's identity), and a solve is Woodbury's.
    rounding_scale is the rounding guard's measurement, n eps max|K W|
    (check_rounding_scale): None until the guard first reads it, then kept.

    numpy's slogdet and solve factor a copy of their input, so I - K W is
    written into this thread's grow-only buffer (kernels._buffer) rather
    than into a fresh array, which the allocator would fault in anew on
    every operator; only (sign, log|det|) is kept on the operator.  slogdet
    is handed the buffer's transpose, which has the same determinant and is
    already in LAPACK's column-major order, so numpy's copy is contiguous
    instead of strided.  The dense solve writes the same buffer again.
    kw is never written, so the residual check of a solve reads the
    operator as given.
    """

    kw: np.ndarray | None
    factors: tuple[np.ndarray, np.ndarray] | None = None
    _slogdet: tuple | None = field(default=None, init=False, repr=False)
    rounding_scale: float | None = field(default=None, init=False)
    _small: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.factors is None:
            if self.kw.dtype != np.float64:
                raise TypeError(
                    f"K W must be a float64 array, got {self.kw.dtype}")
            return
        left, right = self.factors
        self._small = np.eye(left.shape[1]) - right.T @ left

    def matrix(self) -> np.ndarray | None:
        """K W of a dense operator; None for a factored one, whose K W is
        never formed."""
        return self.kw

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """K W x, through the factors when the operator has them."""
        if self.factors is not None:
            left, right = self.factors
            return left @ (right.T @ x)
        return self.kw @ x

    def _one_minus(self) -> np.ndarray:
        """I - K W of a dense operator in this thread's buffer: valid until
        the thread's next call."""
        n = self.kw.shape[0]
        a = np.negative(self.kw, out=_square_buffer(n))
        a.flat[::n + 1] += 1.0
        return a

    def _factor(self) -> tuple:
        """(sign, log|det|) of I - K W: from the LU of I_K - right.T @ left,
        or of the transpose of I - K W for a dense operator."""
        if self._slogdet is None:
            self._slogdet = lu_factor(
                self._one_minus().T if self._small is None else self._small)
        return self._slogdet

    def _rounding(self) -> float:
        """rounding_scale, measured on the first call: n eps max|K W| (see
        check_rounding_scale), through the factors when the operator has
        them."""
        if self.rounding_scale is None:
            if self.factors is None:
                n, peak = self.kw.shape[0], max(self.kw.max(), -self.kw.min())
            else:
                left, right = self.factors
                n, peak = left.shape[0], _max_abs_product(left, right.T)
            self.rounding_scale = n * _EPS * float(peak)
        return self.rounding_scale


def _square_buffer(n: int) -> np.ndarray:
    """An n x n float64 view of this thread's grow-only square buffer."""
    return kernels._buffer("one_minus", n * n, float).reshape(n, n)


def det_one_minus(op: DiscreteOperator) -> tuple[float, float]:
    """det(I - K W) of a DiscreteOperator, with its log-magnitude as a
    companion.

    The value is the sign times exp(log|det|); the companion stays
    meaningful when the value itself under- or overflows.  Emits
    SingularWarning, and returns (0, -inf), when the LU meets an exactly
    zero pivot; a tiny nonzero pivot gives its finite log-magnitude.  This
    is the dense LU of I - K W, or, for an operator held as its factors
    (contour-Q and the RH workspace), the LU of I_K - right.T @ left (see
    DiscreteOperator)."""
    sign, log_mag = op._factor()
    if sign == 0.0 or log_mag == -math.inf:
        warnings.warn("determinant of I - K W is zero", SingularWarning)
        return 0.0, -math.inf
    log_mag = float(log_mag)
    if log_mag >= 700.0:
        return math.inf, log_mag
    return float(sign) * math.exp(log_mag), log_mag  # NaN stays NaN


def solve_resolvent(op: DiscreteOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - K W) x = rhs for a DiscreteOperator; a real rhs makes a
    real solve.

    A factored operator K W = left @ right.T solves by Woodbury's identity,
    x = rhs + left (I_K - right.T left)^{-1} right.T rhs, a dense one by an
    LU solve of I - K W (see DiscreteOperator).  Raises SingularError when
    either LU meets an exactly zero pivot, or when the residual against the
    full operator, applied through its factors, exceeds 1e-10 (1 + |rhs|)."""
    try:
        if op.factors is None:
            x = lu_solve(op._one_minus(), rhs)
        else:
            left, right = op.factors
            x = rhs + left @ lu_solve(op._small, right.T @ rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularError("operator I - K is numerically singular") from exc
    resid = rhs - (x - op._apply(x))
    scale = 1.0 + float(np.linalg.norm(np.asarray(rhs)))
    if float(np.linalg.norm(resid)) > 1e-10 * scale:
        raise SingularError("resolvent residual above tolerance")
    return x


def _max_abs_product(q: np.ndarray, b: np.ndarray) -> float:
    """max|Q B| of an (n, k) Q and a (k, n) B without forming the n x n
    Q B: the guard's max|K W| of a factored K W = left @ right.T.  Since
    |Q_i B_:j| <= ||Q_i|| max_j ||B_:j||, the rows of Q are visited in
    blocks of 32, largest norm first, until that bound for the next row
    cannot beat the maximum found so far (the factor 1 + 1e-12 covers the
    rounding of both sides).  The blocks' entries are those of
    Q @ B, so the result is abs(Q @ B).max(); NaN anywhere gives NaN."""
    row_norms = np.sqrt(np.einsum("ij,ij->i", q, q))
    col_norm = math.sqrt(float(np.einsum("ij,ij->j", b, b).max()))
    bound = float(row_norms.max()) * col_norm  # NaN if q or b holds one
    if not math.isfinite(bound):
        return bound
    order = np.argsort(row_norms)[::-1]
    col_bound = col_norm * (1.0 + 1e-12)
    peak = 0.0
    for start in range(0, order.size, _GUARD_ROWS):
        rows = order[start:start + _GUARD_ROWS]
        if row_norms[rows[0]] * col_bound <= peak:
            break
        block = q[rows] @ b
        peak = max(peak, block.max(), -block.min())
    return float(peak)


def check_rounding_scale(op: DiscreteOperator, context: str) -> None:
    """Raise ArithmeticError when n eps max|K W|, the scale of the LU's
    backward error in det(I - K W), exceeds 3e-10 or is NaN.  It reads the
    operator's own entries, or, for an operator held as its factors, the
    entries of left @ right.T, which is never formed (_max_abs_product):
    n is then the line's 2m, not the K of the determinant's LU, so the
    guard measures the same n x n operator on every route.  The scale is
    measured once per operator and kept as its rounding_scale.

    The two-contour matrices (contour-Q, contour-H and the RH workspace) are
    sums of large terms that cancel, and their entries grow where the
    default contours stop resolving the kernel.  Their real forms carry no
    imaginary residue that could show the loss.  The scale is at most
    1.1e-10 on alpha [0.2, 96] x a [0.1, 16], and at least 8e-10 at alpha
    128 and at alpha <= 0.15 for a <= 4, where contour-Q and contour-H come
    out up to 3e-4 (alpha 128) and 8e-7 (alpha 0.12) away from halfline."""
    scale = op._rounding()
    if not scale <= _ROUNDING_TOL:  # NaN entries give a NaN scale
        raise ArithmeticError(
            f"{context}: entries reach rounding scale {scale:.1e} "
            f"(limit {_ROUNDING_TOL:.0e})")


def _decay_end(alpha: float) -> float:
    """Abscissa past which exp(-x^2 / 2 alpha), the decay of the kernel on
    (a, inf) and of u(x), has dropped below e^-46 (about 1e-20); at least 5."""
    return truncation_radius(0.5 / alpha, growth=0.0, target=_DECAY_LOG)


def halfline_operator(a: float, alpha: float,
                      refine: float = 1.0) -> DiscreteOperator:
    """Conjugated kernel discretized on (a, a + L): the Nystrom matrix with
    its columns scaled by the grid's weights, K W, a real operator whose
    determinant is a real LU.  The kernel is kernels.kernel_matrix, on
    Gamma's pole rule and the kernel's own line; no loop is built.

    The grid follows the kernel's decay: L = max(5, x_end - a,
    min(40, 2 / alpha)), with x_end = _decay_end(alpha) where
    exp(-x^2 / 2 alpha) < e^-46; below alpha 0.4 the Gaussian cut alone is
    too short (at alpha 0.05 P would move 3e-5 from a refined reference).
    It has min(8, max(3, ceil(L / 5))) panels of order 16, times refine
    (at least one), and its line resolves frequencies up to max(11, a + L).
    On alpha [0.2, 64] x a [0.1, 8] P stays within 2e-14 of a 16-panel
    grid on a line refined twice.  Raises ValueError for an a or alpha that
    is not finite, GeometryError for alpha <= 0."""
    _require_finite(a=a, alpha=alpha)
    if alpha <= 0.0:
        raise GeometryError("alpha must be positive")
    length = max(5.0, _decay_end(alpha) - a, min(_FIXED_LENGTH, 2.0 / alpha))
    panels = min(_MAX_PANELS, max(3, math.ceil(length / 5.0)))
    grid = HalfLineGrid(a, length, max(1, round(panels * refine)))
    line = kernels._kernel_line(alpha, x_max=max(11.0, a + length),
                                refine=refine)
    kw = kernels.kernel_matrix(grid.nodes, grid.nodes, line, alpha)
    kw *= grid.weights
    return DiscreteOperator(kw)


def _contour_q_operator(a: float, alpha: float,
                        refine: float) -> DiscreteOperator:
    """contour-Q's line operator K W, the Schur complement of
    [[0, A], [B, 0]] on the pole rule, held as its two factors
    (kernels.cross_blocks) on the (a, alpha) pair's line; the pair's loop
    is not built."""
    line = kernels._qa_line(alpha, a_max=a, refine=refine)
    return DiscreteOperator(None, kernels.cross_blocks(line, alpha, a))


def ha_operator(a: float, alpha: float, refine: float = 1.0) -> DiscreteOperator:
    """Line-reduced operator (kernels.ha_matrix), dense; its loop is built
    apart from the coupling pair, of order 12 and refined 1.4 times, so this
    route stays an independent quadrature.  Raises ValueError for an a or
    alpha that is not finite."""
    _require_finite(a=a, alpha=alpha)
    inner = kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                            order=_DEFAULT_ORDER - 4)
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine)
    return DiscreteOperator(kernels.ha_matrix(pair, a, inner.loop))


@dataclass(frozen=True)
class GapResult:
    a: float
    alpha: float
    route: str
    p: float
    log_p: float
    err: float


def _route_det(a: float, alpha: float, route: str, refine: float) -> tuple[float, float]:
    context = f"{route} at alpha={alpha}, a={a}"
    if route == "halfline":
        op = halfline_operator(a, alpha, refine=refine)
    elif route == "contour-Q":
        # det(I_K - right.T @ left), with the guard on max|left @ right.T|
        op = _contour_q_operator(a, alpha, refine)
    elif route == "contour-H":
        op = ha_operator(a, alpha, refine=refine)
    else:
        raise ValueError(f"unknown route {route!r}; pick one of {ROUTES}")
    if route != "halfline":
        # halfline's entries stay small; its failure at large alpha is
        # truncation, which the rounding scale cannot see
        check_rounding_scale(op, context)
    det, log_mag = det_one_minus(op)
    if not math.isfinite(det):  # a kernel the contours do not resolve
        raise ArithmeticError(f"{context}: determinant is {det}")
    return det, log_mag


def gap_probability(a: float, alpha: float, route: str = "halfline",
                    refine: float = 1.0, estimate_error: bool = True) -> GapResult:
    """Gap probability P(a) for scale parameter alpha along one route.

    The reported err is the self-convergence estimate |P(refine) - P(refine/2)|;
    the halved run reuses the same route with every panel budget halved.
    Raises ValueError for an a or alpha that is not finite, ArithmeticError
    for a determinant that is not finite (from alpha 1/64 down), a tripped
    rounding guard, or a P outside [-1e-7, 1 + 1e-7], the routes' agreement
    gate: from alpha 0.05 down halfline's P can be finite but not a
    probability (2.54 at alpha 1/32, a = 1), while at alpha 1/16 it stays
    within 3.5e-9 of [0, 1].  The halved run is not held to that bound, so
    err still reports how far it moved, but an err above 1 + 2e-7, more
    than two such P can differ, raises (7.5 at alpha 1/32, a = 2)."""
    _require_finite(a=a, alpha=alpha)
    if a <= 0.0:
        raise ValueError(f"gap probability evaluated for a > 0 only, got {a}")
    p, log_mag = _route_det(a, alpha, route, refine)
    if not -_P_SLACK <= p <= 1.0 + _P_SLACK:
        raise ArithmeticError(
            f"{route} at alpha={alpha}, a={a}: P = {p:.10g} is not a "
            f"probability (outside [-{_P_SLACK:g}, 1 + {_P_SLACK:g}])")
    err = math.nan
    if estimate_error:
        p_half, _ = _route_det(a, alpha, route, refine * 0.5)
        err = abs(p - p_half)
        if err > 1.0 + 2.0 * _P_SLACK:
            raise ArithmeticError(f"{route} at alpha={alpha}, a={a}: err = "
                                  f"{err:.3g}, more than any two P can differ")
    log_p = log_mag if p > 0 else math.nan
    return GapResult(a, alpha, route, p, log_p, err)
