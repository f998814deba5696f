"""Nystrom discretization and Fredholm determinants; the three routes to the
gap probability P(a).

P(a) is the probability that the rightmost particle of the critical process
sits left of a.  It equals the Fredholm determinant of the (conjugated)
kernel on (a, inf), and also the determinant of the two-contour operator
Q = [[0, A], [B, 0]] on the line/loop union.  Both two-contour routes are
posed on the line grid: contour-Q by the Schur complement
det(I - Q) = det(I - A W_loop B W_line) on the pair's own loop, contour-H by
the line-reduced kernel on a separately graded loop.  Their grids are mirror
images under conjugation, so both line operators are factored in their real
form (kernels.real_form), a real LU of the same size.  The three routes share
no kernel code beyond the gamma functions, so their agreement is the primary
internal consistency check of the package.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve, qr

from . import kernels
from .contours import QuadratureGrid, _gl_rule

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
    "GapResult",
    "gap_probability",
    "ROUTES",
]

ROUTES = ("halfline", "contour-Q", "contour-H")

_PIVOT_FLOOR = 1e-300
_EPS = float(np.finfo(float).eps)
_ROUNDING_TOL = 3e-10  # largest n eps max|K W| a two-contour matrix may reach
_DEFAULT_LENGTH = 40.0
_DEFAULT_PANELS = 8
_DEFAULT_ORDER = 16
_GRID_GROWTH = 1.6
_SKETCH_RANK = 16    # first rank of a resolvent sketch
_TAIL_PROBES = 4     # fresh probe columns that measure a sketch's tail
_TAIL_TOL = 1e-13    # largest ||K W T - Q Q^H K W T|| / ||K W T|| accepted


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
        xg, wg = _gl_rule(self.order)
        ns, ws = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            ns.append(mid + half * xg)
            ws.append(half * wg)
        self.nodes = np.concatenate(ns)
        self.weights = np.concatenate(ws)

    def __len__(self) -> int:
        return self.nodes.size


@functools.lru_cache(maxsize=16)
def _probes(n: int, k: int) -> np.ndarray:
    """Fixed-seed Gaussian probes [Omega | T] of a rank-k sketch on n nodes:
    k range columns, then _TAIL_PROBES fresh columns for the tail.  They are
    cached read-only, so every sketch of one size draws the same probes."""
    probes = np.random.default_rng([n, k]).standard_normal(
        (n, k + _TAIL_PROBES))
    probes.setflags(write=False)
    return probes


@dataclass
class DiscreteOperator:
    """Kernel values sampled on a grid plus the quadrature weights.

    The determinant matrix is the right-weighted form K W (columns scaled by
    the weights); its solves are the kernel's Nystrom samples.  The
    two-contour operators pass the real form of K W (kernels.real_form),
    in which the weights no longer scale columns, with unit weights.

    Resolvent solves go through a range sketch of K W.  Its eigenvalues are
    those of the limiting kernel on (a, inf), which decay
    super-exponentially, so a few directions carry all of it.  K W applied
    to fixed-seed Gaussian probes Omega (k columns, 16 at first) gives an
    orthonormal Q, and with B = Q^H K W the solve is Woodbury's on
    K W ~ Q B through the k x k matrix S = I_k - B Q.  Fresh probes T
    measure the tail ||K W T - Q B T||; while it exceeds 1e-13 of
    ||K W T|| the rank doubles, and past n/4 the solve falls back to the
    dense LU.  After a solve, solve_path is "sketch" or "dense",
    sketch_rank the last rank tried (0 if n < 64 left no room for one) and
    sketch_tail its relative tail (nan if none was tried).

    Determinants stay on the dense LU, for two reasons.  The benchmark's
    tracing test (perfbench/test_perfbench.py) pins one n x n LU of
    (8/3) n^3 flops for a contour-H evaluation.  And that test may be
    re-pinned only by a change to the benchmark itself, which claims no
    gain of its own.

    For the LU, I - K W is formed once, in a fresh array, and its transpose
    is LU-factored in place (the transposed view is Fortran-ordered, so
    LAPACK takes it without a copy); dense solves use the transposed system.
    A transpose has the same determinant, and its pivots the same parity.
    kernel_values is never written, so the residual check of a solve reads
    the operator as given.
    """

    kernel_values: np.ndarray
    weights: np.ndarray
    _lu: tuple | None = field(default=None, repr=False)
    solve_path: str | None = field(default=None, init=False)
    sketch_rank: int = field(default=0, init=False)
    sketch_tail: float = field(default=math.nan, init=False)
    _sketch: tuple | None = field(default=None, init=False, repr=False)

    def matrix(self) -> np.ndarray:
        return self.kernel_values * self.weights[None, :]

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """matrix() @ x without forming the weighted matrix."""
        col = (slice(None),) + (None,) * (x.ndim - 1)
        return self.kernel_values @ (self.weights[col] * x)

    def _factor(self):
        """LU of (I - K W)^T, held as (lu, piv)."""
        if self._lu is None:
            n = self.weights.size
            # real or complex, as the operator is
            a = np.multiply(self.kernel_values, -self.weights)
            a.flat[::n + 1] += 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # LAPACK singularity warning
                self._lu = lu_factor(a.T, overwrite_a=True, check_finite=False)
        return self._lu

    def _sketch_factor(self):
        """(Q, B, LU of S) of the range sketch, or None for the dense LU;
        the path is chosen on the first solve and kept."""
        if self.solve_path is None:
            self._sketch = self._range_sketch()
            self.solve_path = "dense" if self._sketch is None else "sketch"
        return self._sketch

    def _range_sketch(self):
        n = self.weights.size
        k = _SKETCH_RANK
        while 4 * k <= n:
            y = self._apply(_probes(n, k))              # K W [Omega | T]
            q = qr(y[:, :k], mode="economic", check_finite=False)[0]
            qh = q.conj().T
            kt = y[:, k:]
            scale = float(np.linalg.norm(kt))
            tail = float(np.linalg.norm(kt - q @ (qh @ kt)))
            self.sketch_rank = k
            self.sketch_tail = tail / scale if scale else 0.0
            if tail <= _TAIL_TOL * scale:
                b = (qh @ self.kernel_values) * self.weights
                s = np.eye(k) - b @ q
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # singular S is checked
                    return q, b, lu_factor(s, overwrite_a=True,
                                           check_finite=False)
            k *= 2
        return None


def det_one_minus(op: DiscreteOperator) -> tuple[complex, float]:
    """det(I - op) by pivoted LU, with its log-magnitude as a companion.

    The value is the pivot product with the permutation sign; the companion
    sum of log|pivots| stays meaningful when the value itself under- or
    overflows.  Emits SingularWarning when a pivot falls below 1e-300.
    Always the dense LU: see DiscreteOperator for why not the sketch."""
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
    """Solve (I - op) x = rhs; a real operator and a real rhs make a real
    solve.

    On the sketch path x = rhs + Q S^{-1} B rhs, on the dense path the
    transposed system of the cached LU (see DiscreteOperator).  Raises
    SingularError when a pivot of the factored matrix, S or I - K W, falls
    below 1e-300, or when the residual against the full operator exceeds
    1e-10 (1 + |rhs|)."""
    sketch = op._sketch_factor()
    lu, piv = op._factor() if sketch is None else sketch[2]
    if np.abs(np.diag(lu)).min() < _PIVOT_FLOOR:
        raise SingularError("operator I - K is numerically singular")
    if sketch is None:
        x = lu_solve((lu, piv), rhs, trans=1, check_finite=False)
    else:
        q, b, _ = sketch
        x = rhs + q @ lu_solve((lu, piv), b @ rhs, check_finite=False)
    resid = rhs - (x - op._apply(x))
    scale = 1.0 + float(np.linalg.norm(np.asarray(rhs)))
    if float(np.linalg.norm(resid)) > 1e-10 * scale:
        raise SingularError("resolvent residual above tolerance")
    return x


def check_rounding_scale(op: DiscreteOperator, context: str) -> None:
    """Raise ArithmeticError when n eps max|K| max|w|, the scale of the LU's
    backward error in det(I - K W), exceeds 3e-10.  K must be real.

    The two-contour matrices (contour-Q, contour-H and the RH workspace) are
    sums of large terms that cancel, and their entries grow where the
    default contours stop resolving the kernel.  Their real forms carry no
    imaginary residue that could show the loss.  The scale is at most
    1.1e-10 on alpha [0.2, 96] x a [0.1, 16], and at least 8e-10 at alpha
    128 and at alpha <= 0.15 for a <= 4, where contour-Q and contour-H come
    out up to 3e-4 (alpha 128) and 8e-7 (alpha 0.12) away from halfline."""
    kv = op.kernel_values
    peak = max(kv.max(), -kv.min())  # max|K| of a real K, no |K| temporary
    scale = (op.weights.size * _EPS * float(peak)
             * float(np.abs(op.weights).max()))
    if scale > _ROUNDING_TOL:
        raise ArithmeticError(
            f"{context}: entries reach rounding scale {scale:.1e} "
            f"(limit {_ROUNDING_TOL:.0e})")


def halfline_operator(a: float, alpha: float, length: float = _DEFAULT_LENGTH,
                      panels: int = _DEFAULT_PANELS, order: int = _DEFAULT_ORDER,
                      refine: float = 1.0) -> DiscreteOperator:
    """Conjugated kernel discretized on (a, a + length): a real operator,
    so its determinant is a real LU."""
    grid = HalfLineGrid(a, length, max(1, round(panels * refine)), order)
    pair = kernels.kernel_pair(alpha, x_max=a + length, refine=refine)
    kv = kernels.kernel_matrix(grid.nodes, grid.nodes, pair, shift=0.5)
    return DiscreteOperator(kv, grid.weights)


def _line_operator(a: float, alpha: float, order: int, refine: float,
                   deformed: bool,
                   loop: QuadratureGrid | None = None) -> DiscreteOperator:
    """Two-contour operator reduced to the line grid of the (a, alpha) pair,
    in its real form.

    Without a loop grid the coupling blocks are contracted over the pair's
    own loop: the exact Schur complement of [[0, A], [B, 0]].  With one, the
    loop variable is integrated on it by the line-reduced kernel."""
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine, order=order,
                           deformed=deformed, a=a)
    if loop is None:
        block_a, block_bt = kernels.cross_blocks(pair, a)
        np.conjugate(block_bt, out=block_bt)
        kv = kernels.real_form(block_a) @ kernels.real_form(block_bt).T
    else:
        kv = kernels.ha_matrix(pair, a, loop_override=loop)
    return DiscreteOperator(kv, np.ones(kv.shape[0]))


def qa_operator(a: float, alpha: float, order: int = _DEFAULT_ORDER,
                refine: float = 1.0, deformed: bool = False) -> DiscreteOperator:
    """Two-contour coupling operator Q = [[0, A], [B, 0]] on the (line, loop)
    union, as its line-grid Schur complement A W_loop B:
    det(I - Q W) = det(I - A W_loop B W_line)."""
    return _line_operator(a, alpha, order, refine, deformed)


def ha_operator(a: float, alpha: float, order: int = _DEFAULT_ORDER,
                refine: float = 1.0, deformed: bool = False) -> DiscreteOperator:
    """Line-reduced operator; its loop integration grid is built separately
    from the coupling pair so this route stays an independent quadrature."""
    inner = kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                            order=max(8, order - 4), deformed=deformed, a=a)
    return _line_operator(a, alpha, order, refine, deformed, loop=inner.loop)


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
    if route != "halfline":
        # halfline's entries stay small; its failure at large alpha is
        # truncation, which the rounding scale cannot see
        check_rounding_scale(op, f"{route} at alpha={alpha}, a={a}")
    det, log_mag = det_one_minus(op)
    return complex(det).real, log_mag


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
