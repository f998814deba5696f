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
form (kernels.real_form), a real LU of the same size.  Every determinant and
dense solve goes through numpy.linalg, by the two functions lu_factor and
lu_solve below.  The three routes share no kernel code beyond the gamma
functions, so their agreement is the primary internal consistency check of
the package.

The halfline grid is sized from the kernel's decay: on (a, inf) it falls
like u(x) ~ exp(-x^2 / 2 alpha), so the grid ends where that drops below
e^{-46}, or at a floor for small alpha (Bornemann, arXiv:0804.2543,
truncates the infinite intervals of Fredholm determinants by the kernel's
decay in the same way).  The
two-contour routes form their line operator as one product of two real
factors that kernels._real_factors writes into per-thread buffers.
"""

from __future__ import annotations

import functools
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
    "qa_operator",
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
_FIXED_LENGTH = 40.0  # cap of the halfline length floor 2 / alpha
_DECAY_LOG = 46.0   # the halfline grid ends where exp(-x^2 / 2 alpha) < e^-46
_DEFAULT_PANELS = 8
_DEFAULT_ORDER = 16
_GRID_GROWTH = 1.6
_SKETCH_RANK = 16    # first rank of a resolvent sketch
_TAIL_PROBES = 4     # fresh probe columns that measure a sketch's tail
_TAIL_TOL = 1e-13    # largest ||K W T - Q Q^H K W T|| / ||K W T|| accepted


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
    panels: int = _DEFAULT_PANELS
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
    ||K W T|| the rank doubles, and past n/4 the solve falls back to an
    LU solve of I - K W itself.  After a solve, solve_path is "sketch" or
    "dense", sketch_rank the last rank tried (0 if n < 64 left no room for
    one) and sketch_tail its relative tail (nan if none was tried).

    Determinants stay on the dense LU, for two reasons.  The benchmark's
    tracing test (perfbench/test_perfbench.py) pins one n x n LU of
    (8/3) n^3 flops for a contour-H evaluation.  And that test may be
    re-pinned only by a change to the benchmark itself, which claims no
    gain of its own.

    numpy's slogdet and solve factor a copy of their input, so I - K W is
    written into this thread's grow-only buffer (kernels._buffer) rather
    than into a fresh array, which the allocator would fault in anew on
    every operator; only (sign, log|det|) is kept on the operator.  The
    dense solve writes the same buffer again.  kernel_values is never
    written, so the residual check of a solve reads the operator as given.
    """

    kernel_values: np.ndarray
    weights: np.ndarray
    _slogdet: tuple | None = field(default=None, init=False, repr=False)
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

    def _one_minus(self) -> np.ndarray:
        """I - K W, real or complex as the operator is, in this thread's
        buffer: valid until the thread's next call."""
        n = self.weights.size
        dtype = np.result_type(self.kernel_values, self.weights)
        a = kernels._buffer(f"one_minus_{dtype.char}", n * n, dtype)
        a = np.multiply(self.kernel_values, -self.weights,
                        out=a.reshape(n, n))
        a.flat[::n + 1] += 1.0
        return a

    def _factor(self) -> tuple:
        """(sign, log|det|) of I - K W."""
        if self._slogdet is None:
            self._slogdet = lu_factor(self._one_minus())
        return self._slogdet

    def _sketch_factor(self):
        """(Q, B, S, sign of det S) of the range sketch, or None for the
        dense solve; the path is chosen on the first solve and kept."""
        if self.solve_path is None:
            self._sketch = self._range_sketch()
            self.solve_path = "dense" if self._sketch is None else "sketch"
        return self._sketch

    def _range_sketch(self):
        n = self.weights.size
        k = _SKETCH_RANK
        while 4 * k <= n:
            y = self._apply(_probes(n, k))              # K W [Omega | T]
            q = np.linalg.qr(y[:, :k])[0]
            qh = q.conj().T
            kt = y[:, k:]
            scale = float(np.linalg.norm(kt))
            tail = float(np.linalg.norm(kt - q @ (qh @ kt)))
            self.sketch_rank = k
            self.sketch_tail = tail / scale if scale else 0.0
            if tail <= _TAIL_TOL * scale:
                b = (qh @ self.kernel_values) * self.weights
                s = np.eye(k) - b @ q
                return q, b, s, lu_factor(s)[0]
            k *= 2
        return None


def det_one_minus(op: DiscreteOperator) -> tuple[complex, float]:
    """det(I - op) by pivoted LU, with its log-magnitude as a companion.

    The value is the sign (a phase if the operator is complex) times
    exp(log|det|); the companion stays meaningful when the value itself
    under- or overflows.  Emits SingularWarning, and returns (0, -inf),
    when the LU meets an exactly zero pivot; a tiny nonzero pivot gives
    its finite log-magnitude.  Always the dense LU: see DiscreteOperator
    for why not the sketch."""
    sign, log_mag = op._factor()
    if sign == 0.0 or log_mag == -math.inf:
        warnings.warn("determinant of I - K W is zero", SingularWarning)
        return 0.0 + 0.0j, -math.inf
    log_mag = float(log_mag)
    if log_mag >= 700.0:
        return math.inf, log_mag
    return sign * math.exp(log_mag), log_mag  # NaN entries stay NaN


def solve_resolvent(op: DiscreteOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - op) x = rhs; a real operator and a real rhs make a real
    solve.

    On the sketch path x = rhs + Q S^{-1} B rhs, on the dense path an LU
    solve of I - K W (see DiscreteOperator).  Raises SingularError when the
    LU of S or of I - K W meets an exactly zero pivot, or when the residual
    against the full operator exceeds 1e-10 (1 + |rhs|)."""
    sketch = op._sketch_factor()
    try:
        if sketch is None:
            x = lu_solve(op._one_minus(), rhs)
        else:
            q, b, s, sign = sketch
            if sign == 0.0:
                raise np.linalg.LinAlgError("S is singular")
            x = rhs + q @ lu_solve(s, b @ rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularError("operator I - K is numerically singular") from exc
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


def _decay_end(alpha: float) -> float:
    """Abscissa past which exp(-x^2 / 2 alpha), the decay of the kernel on
    (a, inf) and of u(x), has dropped below e^-46 (about 1e-20); at least 5."""
    return truncation_radius(0.5 / alpha, growth=0.0, target=_DECAY_LOG)


def halfline_operator(a: float, alpha: float,
                      panels: int = _DEFAULT_PANELS, order: int = _DEFAULT_ORDER,
                      refine: float = 1.0) -> DiscreteOperator:
    """Conjugated kernel discretized on (a, a + length): a real operator,
    so its determinant is a real LU.

    The grid follows the kernel's decay: its length is
    max(5, x_end - a, min(40, 2 / alpha)), with x_end = _decay_end(alpha)
    where exp(-x^2 / 2 alpha) < e^-46, and its contour pair resolves
    frequencies up to max(11, a + length).  Below alpha 0.4 the Gaussian
    cut alone is too short (at alpha 0.05 P would move 3e-5 from a refined
    reference), and the floor 2 / alpha takes over.  It is capped at the
    fixed length 40 that every alpha used before, so from alpha 0.05 down
    grid and pair are that fixed budget's.  With the frequency floor 11, P
    at refine 1 stays within 1.1e-14 of the length-40 grid on alpha
    [0.2, 8] x a [0.1, 6]; 10 leaves 2.6e-13 at a = 2, alpha 0.25.  Raises
    ValueError for an a or alpha that is not finite, GeometryError for
    alpha <= 0."""
    _require_finite(a=a, alpha=alpha)
    if alpha <= 0.0:
        raise GeometryError("alpha must be positive")
    length = max(5.0, _decay_end(alpha) - a, min(_FIXED_LENGTH, 2.0 / alpha))
    grid = HalfLineGrid(a, length, max(1, round(panels * refine)), order)
    pair = kernels.kernel_pair(alpha, x_max=max(11.0, a + length),
                               refine=refine)
    kv = kernels.kernel_matrix(grid.nodes, grid.nodes, pair, shift=0.5)
    return DiscreteOperator(kv, grid.weights)


def _line_operator(a: float, alpha: float, order: int, refine: float,
                   loop: QuadratureGrid | None = None) -> DiscreteOperator:
    """Two-contour operator reduced to the line grid of the (a, alpha) pair,
    in its real form.

    Without a loop grid the coupling blocks are contracted over the pair's
    own loop: the exact Schur complement of [[0, A], [B, 0]].  With one, the
    loop variable is integrated on it by the line-reduced kernel."""
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine, order=order)
    if loop is None:
        left, right = kernels._real_factors(pair, a)
        kv = left @ right.T
    else:
        kv = kernels.ha_matrix(pair, a, loop)
    return DiscreteOperator(kv, np.ones(kv.shape[0]))


def qa_operator(a: float, alpha: float, order: int = _DEFAULT_ORDER,
                refine: float = 1.0) -> DiscreteOperator:
    """Two-contour coupling operator Q = [[0, A], [B, 0]] on the (line, loop)
    union, as its line-grid Schur complement A W_loop B:
    det(I - Q W) = det(I - A W_loop B W_line).  Raises ValueError for an a
    or alpha that is not finite."""
    _require_finite(a=a, alpha=alpha)
    return _line_operator(a, alpha, order, refine)


def ha_operator(a: float, alpha: float, order: int = _DEFAULT_ORDER,
                refine: float = 1.0) -> DiscreteOperator:
    """Line-reduced operator; its loop integration grid is built separately
    from the coupling pair so this route stays an independent quadrature.
    Raises ValueError for an a or alpha that is not finite."""
    _require_finite(a=a, alpha=alpha)
    inner = kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                            order=max(8, order - 4))
    return _line_operator(a, alpha, order, refine, loop=inner.loop)


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
    the halved run reuses the same route with every panel budget halved.
    Raises ValueError for an a or alpha that is not finite."""
    _require_finite(a=a, alpha=alpha)
    if a <= 0.0:
        raise ValueError(f"gap probability evaluated for a > 0 only, got {a}")
    p, log_mag = _route_det(a, alpha, route, refine)
    err = math.nan
    if estimate_error:
        p_half, _ = _route_det(a, alpha, route, refine * 0.5)
        err = abs(p - p_half)
    log_p = log_mag if p > 0 else math.nan
    return GapResult(a, alpha, route, p, log_p, err)
