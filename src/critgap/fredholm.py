"""Nystrom discretization and Fredholm determinants; the three routes to the
gap probability P(a).

P(a) is the probability that the rightmost particle of the critical process
sits left of a.  It equals the Fredholm determinant of the (conjugated)
kernel on (a, inf), and also the determinant of the two-contour operator
Q = [[0, A], [B, 0]] on the line/loop union.  Both two-contour routes are
posed on the line grid: contour-Q by the Schur complement
det(I - Q) = det(I - A W_loop B W_line) on the pair's own loop, contour-H by
the line-reduced kernel on a separately graded loop.  The three routes share
no kernel code beyond the gamma functions, so their agreement is the primary
internal consistency check of the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import kernels
from .contours import QuadratureGrid, truncation_radius

__all__ = [
    "SingularError",
    "SingularWarning",
    "HalfLineGrid",
    "DiscreteOperator",
    "halfline_operator",
    "qa_operator",
    "ha_operator",
    "det_one_minus",
    "solve_resolvent",
    "operator_trace",
    "GapResult",
    "gap_probability",
    "ROUTES",
]

ROUTES = ("halfline", "contour-Q", "contour-H")

_PIVOT_FLOOR = 1e-300
_DEFAULT_LENGTH = 40.0
_DEFAULT_PANELS = 8
_DEFAULT_ORDER = 16
_GRID_GROWTH = 1.6


class SingularError(np.linalg.LinAlgError):
    """Resolvent solve requested on a numerically singular operator."""


class SingularWarning(RuntimeWarning):
    """A determinant pivot fell below the representable floor."""


@dataclass
class HalfLineGrid:
    """Composite Gauss-Legendre grid on (a, a + length), graded toward a.

    The kernel decays like exp(-(x+y)/2), so panels grow geometrically away
    from the left endpoint; length 40 puts the truncation error near 1e-17.
    """

    a: float
    length: float = _DEFAULT_LENGTH
    panels: int = _DEFAULT_PANELS
    order: int = _DEFAULT_ORDER
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.panels < 1 or self.order < 2:
            raise ValueError("need at least one panel and order >= 2")
        widths = _GRID_GROWTH ** np.arange(self.panels)
        widths = self.length * widths / widths.sum()
        edges = self.a + np.concatenate([[0.0], np.cumsum(widths)])
        xg, wg = np.polynomial.legendre.leggauss(self.order)
        ns, ws = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            ns.append(mid + half * xg)
            ws.append(half * wg)
        self.nodes = np.concatenate(ns)
        self.weights = np.concatenate(ws)

    def __len__(self) -> int:
        return self.nodes.size


@dataclass
class DiscreteOperator:
    """Kernel values sampled on a grid plus the quadrature weights.

    weighting picks how the determinant matrix is formed: "right" multiplies
    columns by the weights, "symmetric" splits principal square roots of the
    weights on both sides.  The two are similar matrices, so determinants and
    traces agree to rounding; solves use the right-weighted form, whose
    solutions are the kernel's Nystrom samples.
    """

    kernel_values: np.ndarray
    weights: np.ndarray
    weighting: str = "right"
    _lu: tuple | None = field(default=None, repr=False)

    def _weight_factors(self) -> tuple[np.ndarray | None, np.ndarray]:
        """(left, right) weight factors of matrix(); left is None for the
        right-weighted form."""
        if self.weighting == "right":
            return None, self.weights
        if self.weighting == "symmetric":
            r = np.sqrt(self.weights.astype(complex))
            return r, r
        raise ValueError(f"unknown weighting {self.weighting!r}")

    def matrix(self) -> np.ndarray:
        left, right = self._weight_factors()
        m = self.kernel_values * right[None, :]
        return m if left is None else left[:, None] * m

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """matrix() @ x without forming the weighted matrix."""
        left, right = self._weight_factors()
        col = (slice(None),) + (None,) * (x.ndim - 1)
        y = self.kernel_values @ (right[col] * x)
        return y if left is None else left[col] * y

    def _factor(self):
        if self._lu is None:
            n = self.weights.size
            a = np.asarray(-self.matrix(), dtype=complex)
            a.flat[::n + 1] += 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # LAPACK singularity warning
                self._lu = lu_factor(a, check_finite=False)
        return self._lu


def det_one_minus(op: DiscreteOperator) -> tuple[complex, float]:
    """det(I - op) by pivoted LU, with its log-magnitude as a companion.

    The value is the pivot product with the permutation sign; the companion
    sum of log|pivots| stays meaningful when the value itself under- or
    overflows.  Emits SingularWarning when a pivot falls below 1e-300."""
    lu, piv = op._factor()
    d = np.diag(lu)
    mag = np.abs(d)
    if mag.min() < _PIVOT_FLOOR:
        warnings.warn("determinant pivot below 1e-300", SingularWarning)
        log_mag = -math.inf
        value = 0.0 + 0.0j
        return value, log_mag
    log_mag = float(np.sum(np.log(mag)))
    phase = np.prod(d / mag)
    swaps = int(np.sum(piv != np.arange(piv.size)))
    sign = -1.0 if swaps % 2 else 1.0
    value = sign * phase * math.exp(log_mag) if log_mag < 700.0 else math.inf
    return value, log_mag


def solve_resolvent(op: DiscreteOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - op) x = rhs through the cached LU factorization."""
    lu, piv = op._factor()
    d = np.abs(np.diag(lu))
    if d.min() < _PIVOT_FLOOR:
        raise SingularError("operator I - K is numerically singular")
    x = lu_solve((lu, piv), np.asarray(rhs, dtype=complex), check_finite=False)
    resid = rhs - (x - op._apply(x))
    scale = 1.0 + float(np.linalg.norm(np.asarray(rhs)))
    if float(np.linalg.norm(resid)) > 1e-10 * scale:
        raise SingularError("resolvent residual above tolerance")
    return x


def operator_trace(op: DiscreteOperator) -> complex:
    return complex(np.sum(np.diag(op.kernel_values) * op.weights))


def halfline_operator(a: float, alpha: float, length: float = _DEFAULT_LENGTH,
                      panels: int = _DEFAULT_PANELS, order: int = _DEFAULT_ORDER,
                      refine: float = 1.0, weighting: str = "right") -> DiscreteOperator:
    """Conjugated kernel discretized on (a, a + length)."""
    grid = HalfLineGrid(a, length, max(1, round(panels * refine)), order)
    pair = kernels.kernel_pair(alpha, x_max=a + length, refine=refine)
    kv = kernels.kernel_matrix(grid.nodes, grid.nodes, pair, shift=0.5)
    kv = kv.real  # symmetric grids leave only rounding-level imaginary parts
    return DiscreteOperator(kv, grid.weights.astype(complex), weighting)


def _line_operator(a: float, alpha: float, order: int, refine: float,
                   deformed: bool, weighting: str,
                   loop: QuadratureGrid | None = None) -> DiscreteOperator:
    """Two-contour operator reduced to the line grid of the (a, alpha) pair.

    Without a loop grid the coupling blocks are contracted over the pair's
    own loop: the exact Schur complement of [[0, A], [B, 0]].  With one, the
    loop variable is integrated on it by the line-reduced kernel."""
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine, order=order,
                           deformed=deformed, a=a)
    if loop is None:
        block_a, block_b = kernels.cross_blocks(pair, a)
        kv = (block_a * pair.loop.weights[None, :]) @ block_b
    else:
        kv = kernels.ha_matrix(pair, a, loop_override=loop)
    return DiscreteOperator(kv, pair.line.weights, weighting)


def qa_operator(a: float, alpha: float, order: int = _DEFAULT_ORDER,
                refine: float = 1.0, deformed: bool = False,
                weighting: str = "right") -> DiscreteOperator:
    """Two-contour coupling operator Q = [[0, A], [B, 0]] on the (line, loop)
    union, as its line-grid Schur complement A W_loop B:
    det(I - Q W) = det(I - A W_loop B W_line)."""
    return _line_operator(a, alpha, order, refine, deformed, weighting)


def ha_operator(a: float, alpha: float, order: int = _DEFAULT_ORDER,
                refine: float = 1.0, deformed: bool = False,
                weighting: str = "right") -> DiscreteOperator:
    """Line-reduced operator; its loop integration grid is built separately
    from the coupling pair so this route stays an independent quadrature."""
    inner = kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                            order=max(8, order - 4), deformed=deformed, a=a)
    return _line_operator(a, alpha, order, refine, deformed, weighting,
                          loop=inner.loop)


@dataclass(frozen=True)
class GapResult:
    a: float
    alpha: float
    route: str
    p: float
    log_p: float
    err: float


def _route_det(a: float, alpha: float, route: str, refine: float) -> tuple[float, float]:
    if route == "halfline":
        op = halfline_operator(a, alpha, refine=refine)
    elif route == "contour-Q":
        op = qa_operator(a, alpha, refine=refine)
    elif route == "contour-H":
        op = ha_operator(a, alpha, refine=refine)
    else:
        raise ValueError(f"unknown route {route!r}; pick one of {ROUTES}")
    det, log_mag = det_one_minus(op)
    det = complex(det)
    if abs(det.imag) > 1e-8 * (1.0 + abs(det)):
        raise ArithmeticError(f"gap determinant has imaginary residue: {det}")
    return det.real, log_mag


def gap_probability(a: float, alpha: float, route: str = "halfline",
                    refine: float = 1.0, estimate_error: bool = True) -> GapResult:
    """Gap probability P(a) for scale parameter alpha along one route.

    The reported err is the self-convergence estimate |P(refine) - P(refine/2)|;
    the halved run reuses the same route with every panel budget halved."""
    if a <= 0.0:
        raise ValueError(f"gap probability evaluated for a > 0 only, got {a}")
    p, log_mag = _route_det(a, alpha, route, refine)
    err = math.nan
    if estimate_error:
        p_half, _ = _route_det(a, alpha, route, refine * 0.5)
        err = abs(p - p_half)
    log_p = log_mag if p > 0 else math.nan
    return GapResult(a, alpha, route, p, log_p, err)
