"""Nystrom discretization and Fredholm determinants; the three routes to the
gap probability P(a).

P(a) is the probability that the rightmost particle of the critical process
sits left of a.  It equals the Fredholm determinant of the (conjugated)
kernel on (a, inf), and also the determinant of the two-contour operator
Q = [[0, A], [B, 0]] on the line/loop union.  Both two-contour routes are
posed on the line grid: contour-Q by the Schur complement
det(I - Q) = det(I - A W_loop B W_line) on the pair's own loop, contour-H by
the line-reduced kernel, a divided difference of one sum over a separately
graded loop (kernels.ha_matrix).  Their grids are mirror images under
conjugation, so both line operators are real (kernels.real_form) and every
LU is real.  Every route hands the determinant one real K W with the
weights folded in (DiscreteOperator): halfline and contour-H as a dense
n x n array, contour-Q as its two real factors (RealFactors), never formed.
Only a factored operator is sketched: its determinant is read from a
rank-8 range sketch of the factors (Halko, Martinsson and Tropp,
arXiv:0909.4061), an 8 x 8 determinant: K W has at most 7 singular values
above 1e-15 of its largest on alpha {0.1, ..., 64} x a {0.1, ..., 8}, and
rank 8 passes the tail test on alpha {0.1, ..., 128} x a {0.1, ..., 16}.
A sketch whose tail does not pass raises ArithmeticError; K W is never
formed.  The rounding guard (check_rounding_scale) reads max|Q B| of the
sketch without forming the n x n Q B.

In the Schur complement a enters only as e^{-az} on line rows and e^{at}
on loop columns, so contour-Q holds the pair's a = 0 factors with those
two scalings (RealFactors.rows and cols).  The factors are numerically
thin: their singular values fall below 1e-16 of the largest after 40-48
of 352-384, so PairFactors compress each once per pair, as an orthonormal
rank-48 basis and its coefficients (a randomized range finder, the
sketch's method), and every later product costs (n + p) 48 flops per
column in place of n p.  The RH workspace (observables.RhWorkspace)
solves on the same operator: it holds its pair's PairFactors, which keep
the sketched operator at the last a.  Live PairFactors are listed in
_SHARED, a weak table keyed by the pair's alpha and two grids; contour-Q
and a new workspace on the same pair take them from there, and contour-Q
keeps the last two it built alive (_RECENT), so a sweep that returns to
a recent pair does not compress it again, and a P and a u at one a share
one sketch.  Every PairFactors of a pair holds the same bits, so P does
not depend on whether a workspace is alive.  Dense operators take a dense
LU of I - K W.  Every determinant and dense solve goes through
numpy.linalg, by the two functions lu_factor and lu_solve below.  The
three routes share no kernel code beyond the gamma functions, so their
agreement is the primary internal consistency check of the package.

The halfline grid is sized from the kernel's decay: on (a, inf) it falls
like u(x) ~ exp(-x^2 / 2 alpha), so the grid ends where that drops below
e^{-46}, or at a floor for small alpha (Bornemann, arXiv:0804.2543,
truncates the infinite intervals of Fredholm determinants by the kernel's
decay in the same way).
"""

from __future__ import annotations

import collections
import functools
import math
import warnings
import weakref
from dataclasses import dataclass, field, replace

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
    "RealFactors",
    "PairFactors",
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
_DEFAULT_PANELS = 8
_DEFAULT_ORDER = 16
_GRID_GROWTH = 1.6
_SKETCH_RANK = 8     # rank of a resolvent sketch
_TAIL_PROBES = 4     # fresh probe columns that measure a sketch's tail
_TAIL_TOL = 1e-13    # largest ||K W T - Q Q^T K W T|| / ||K W T|| accepted
_BASIS_RANK = 48     # rank of a two-contour factor's basis
_BASIS_TOL = 1e-14   # largest ||X T - U U^T X T|| / ||X T|| of a factor X
_GUARD_ROWS = 32     # rows of Q per block of the guard's max|Q B|
# splitmix64's increment and output multipliers (Steele, Lea and Flood 2014)
_SPLITMIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9),
             np.uint64(0x94D049BB133111EB))


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


def _normals(n: int, k: int) -> np.ndarray:
    """Fixed Gaussians [Omega | T] of a rank-k range finder on n nodes: k
    range columns, then _TAIL_PROBES fresh columns for the tail.

    The uniforms are a splitmix64 counter stream seeded by (n, k), in numpy
    uint64 arithmetic (which wraps silently), and Box-Muller turns their
    pairs into Gaussians, so no range finder imports numpy.random, which
    costs more time and memory than the draw."""
    increment, mul1, mul2 = _SPLITMIX
    half = (n * (k + _TAIL_PROBES) + 1) // 2
    z = np.arange(1, 2 * half + 1, dtype=np.uint64)
    z *= increment
    z += np.uint64(n << 32 | k)
    z ^= z >> 30
    z *= mul1
    z ^= z >> 27
    z *= mul2
    z ^= z >> 31
    u = (z >> 11).astype(float) * 2.0 ** -53          # uniform on [0, 1)
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = 2.0 * math.pi * u[half:]
    normals = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    probes = normals[:n * (k + _TAIL_PROBES)].reshape(n, k + _TAIL_PROBES)
    probes.setflags(write=False)
    return probes


@functools.lru_cache(maxsize=16)
def _probes(n: int, k: int) -> np.ndarray:
    """The probes of a rank-k sketch of an n x n K W (_normals), cached
    read-only, so every sketch of one size uses the same probes."""
    return _normals(n, k)


@functools.lru_cache(maxsize=4)
def _factor_probes(p: int, r: int) -> np.ndarray:
    """The probes of a rank-r basis of an (n, p) factor (_normals), cached
    apart from the sketch's, so that neither evicts the other."""
    return _normals(p, r)


def _range_finder(probe, k: int, tol: float) -> tuple:
    """Orthonormal rank-k range basis of an operator X known through
    probe(k) = X [Omega | T] on fixed Gaussian probes (_normals: k range
    columns and _TAIL_PROBES fresh ones).

    Q is the orthonormal basis of X Omega, and the relative tail
    ||X T - Q Q^T X T|| / ||X T|| decides.  Returns (Q, tail), with Q None
    when the tail exceeds tol, and (None, nan) when the probe product is
    not finite."""
    y = probe(k)                                        # X [Omega | T]
    if not math.isfinite(np.linalg.norm(y)):
        return None, math.nan
    q = np.linalg.qr(y[:, :k])[0]
    kt = y[:, k:]
    scale = float(np.linalg.norm(kt))
    tail = float(np.linalg.norm(kt - q @ (q.T @ kt)))
    rel_tail = tail / scale if scale else 0.0
    return (q if tail <= tol * scale else None), rel_tail


def _compress(x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(U, G) with x ~ U G for an (n, p) factor x: U the orthonormal
    (n, 48) range basis of x (_range_finder on x @ _factor_probes(p, 48),
    with tail tolerance 1e-14) and G = U^T x, fresh arrays.  A factor whose
    tail does not pass, or whose probe product is not finite, is returned
    as (None, a copy of x)."""
    p = x.shape[1]
    u = _range_finder(lambda r: x @ _factor_probes(p, r), _BASIS_RANK,
                      _BASIS_TOL)[0]
    return (None, x.copy()) if u is None else (u, u.T @ x)


def _turn(x: np.ndarray, d: np.ndarray | None, conj: bool = False
          ) -> np.ndarray:
    """x in real coordinates (Re v, Im v) along its first axis, with v
    multiplied by d (by conj(d) with conj=True); d = None leaves x as it
    is.  On such coordinates the multiplication is the real matrix
    [[Re D, -Im D], [Im D, Re D]], D = diag(d), and conj(d) is its
    transpose."""
    if d is None:
        return x
    h = d.size
    v = x[h:] * 1j
    v += x[:h]
    v *= (d.conj() if conj else d).reshape((h,) + (1,) * (x.ndim - 1))
    return np.concatenate([v.real, v.imag])


@dataclass(frozen=True)
class RealFactors:
    """A real line operator held as its two factors: K W = Dr left Dc
    right^T, with left and right real (n, p) arrays, and Dr and Dc
    multiplications by complex scalars on the (Re, Im) halves of the n
    line and p loop coordinates (_turn; rows has n/2 entries and cols p/2,
    None is the identity).

    left and right are the real forms (kernels.real_form) of the two
    coupling blocks A W_loop and conj((B W_line)^T), whose product is the
    Schur complement A W_loop B W_line of the two-contour operator.  Only A
    moves with a, by e^{-az} on line rows and e^{at} on loop columns, so
    PairFactors keep the a = 0 factors and pass those two scalings.

    A factor may be held through an orthonormal (n, r) basis: with
    left_basis U, the factor is U left, and left is its (r, p)
    coefficients (likewise right_basis and right).  The scalings act on
    the basis's n rows and on the coefficients' p columns, so they are
    unchanged by it.  The operator is applied, probed and projected
    through the bases and coefficients, and never formed: each product
    costs (n + p) r columns' flops with both bases, n p without, and no
    n x n or n x p array."""

    left: np.ndarray
    right: np.ndarray
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    left_basis: np.ndarray | None = None
    right_basis: np.ndarray | None = None

    @property
    def n(self) -> int:
        """The line size n: K W is n x n."""
        return (self.left if self.left_basis is None
                else self.left_basis).shape[0]

    def left_times(self, y: np.ndarray) -> np.ndarray:
        """The unscaled left factor times y, a (p, ...) array."""
        y = self.left @ y
        return y if self.left_basis is None else self.left_basis @ y

    def right_times(self, y: np.ndarray) -> np.ndarray:
        """The unscaled right factor times y, a (p, ...) array."""
        y = self.right @ y
        return y if self.right_basis is None else self.right_basis @ y

    def _finish(self, y: np.ndarray) -> np.ndarray:
        """Dr left Dc y."""
        return _turn(self.left_times(_turn(y, self.cols)), self.rows)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K W x."""
        if self.right_basis is not None:
            x = self.right_basis.T @ x
        return self._finish(self.right.T @ x)

    def probe(self, k: int) -> np.ndarray:
        """K W [Omega | T] on the rank-k probes (_probes)."""
        return self.apply(_probes(self.n, k))

    def project(self, q: np.ndarray) -> np.ndarray:
        """q^T K W, a (k, n) array for a real (n, k) q."""
        ql = _turn(q, self.rows, conj=True).T
        if self.left_basis is not None:
            ql = ql @ self.left_basis
        ql = ql @ self.left
        if self.cols is not None:
            ql = _turn(ql.T, self.cols, conj=True).T
        ql = ql @ self.right.T
        return ql if self.right_basis is None else ql @ self.right_basis.T

    def dense(self) -> np.ndarray:
        """K W as a fresh n x n array, the reference that tests compare
        the sketch against (no solve forms it): each factor formed whole
        from its basis, then their product."""
        left, right = self.left, self.right
        if self.cols is not None:
            left = _turn(left.T, self.cols, conj=True).T
        if self.left_basis is not None:
            left = self.left_basis @ left
        if self.right_basis is not None:
            right = self.right_basis @ right
        return _turn(left, self.rows) @ right.T


@dataclass
class DiscreteOperator:
    """A real line operator K W, with the quadrature weights folded in:
    held as an n x n float64 array kw, or as its two factors (RealFactors)
    with kw None.  A complex or otherwise non-float64 kw raises TypeError.

    halfline and contour-H hold kw, the Nystrom matrix with its columns
    scaled by the weights; contour-Q and the RH workspace hold the factors,
    from which K W is applied and projected, never formed.

    A dense operator (solve_path "dense") takes the LU of I - K W for its
    determinant and its solves.  A factored one (solve_path "sketch") is
    sketched once, when it is made: a rank-8 range sketch of K W on the
    factors' probes (_range_finder), with its relative tail kept as
    sketch_tail (nan for a dense operator, or when the probe product is not
    finite).  Its eigenvalues are those of the limiting kernel on (a, inf),
    which decay super-exponentially, so a few directions carry all of it.
    With the sketch's orthonormal Q and B = Q^T K W the solve is Woodbury's
    on K W ~ Q B through the 8 x 8 matrix S = I - B Q, and the determinant
    is det S, which equals det(I - K W) up to the sketch's tail.  When the
    tail is above 1e-13 no sketch is kept: the determinant, the solves and
    the rounding scale raise ArithmeticError naming the rank and the tail,
    and K W is not formed in the sketch's place.  rounding_scale is the
    rounding guard's measurement, n eps max|K W| (check_rounding_scale):
    None until the guard first reads it, then kept, so an operator shared
    by several callers is measured once.  A probe product that is not
    finite sets it to nan at once.

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
    factors: RealFactors | None = None
    _slogdet: tuple | None = field(default=None, init=False, repr=False)
    solve_path: str = field(default="dense", init=False)
    sketch_tail: float = field(default=math.nan, init=False)
    rounding_scale: float | None = field(default=None, init=False)
    _sketch: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.factors is None:
            if self.kw.dtype != np.float64:
                raise TypeError(
                    f"K W must be a float64 array, got {self.kw.dtype}")
            return
        self.solve_path = "sketch"
        q, self.sketch_tail = _range_finder(self.factors.probe, _SKETCH_RANK,
                                            _TAIL_TOL)
        if q is not None:
            b = self.factors.project(q)
            s = np.eye(q.shape[1]) - b @ q
            self._sketch = q, b, s, lu_factor(s)
        elif math.isnan(self.sketch_tail):
            self.rounding_scale = math.nan  # a probe product not finite

    def matrix(self) -> np.ndarray | None:
        """K W of a dense operator; None for a factored one, whose K W is
        never formed."""
        return self.kw

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """K W x, through the factors when the operator has them."""
        if self.factors is not None:
            return self.factors.apply(x)
        return self.kw @ x

    def _one_minus(self) -> np.ndarray:
        """I - K W of a dense operator in this thread's buffer: valid until
        the thread's next call."""
        n = self.kw.shape[0]
        a = np.negative(self.kw, out=_square_buffer(n))
        a.flat[::n + 1] += 1.0
        return a

    def _factor(self) -> tuple:
        """(sign, log|det|) of I - K W: det S of the sketch, or from the LU
        of the transpose of I - K W for a dense operator."""
        if self._slogdet is None:
            sketch = self._sketch_factor()
            self._slogdet = (lu_factor(self._one_minus().T) if sketch is None
                             else sketch[3])
        return self._slogdet

    def _sketch_factor(self) -> tuple | None:
        """(Q, B, S, (sign, log|det S|)) of the sketch, None for a dense
        operator; raises ArithmeticError when the sketch's tail did not
        pass."""
        if self._sketch is None and self.factors is not None:
            raise ArithmeticError(
                f"the rank-{_SKETCH_RANK} sketch of K W leaves a relative "
                f"tail of {self.sketch_tail:.1e} (limit {_TAIL_TOL:.0e})")
        return self._sketch

    def _rounding(self) -> float:
        """rounding_scale, measured on the first call: max|Q B| of the
        sketch, or max|K W| of a dense operator (see check_rounding_scale);
        raises as _sketch_factor does, unless the scale is already nan."""
        if self.rounding_scale is None:
            sketch = self._sketch_factor()
            if sketch is None:
                n, peak = self.kw.shape[0], max(self.kw.max(), -self.kw.min())
            else:
                n, peak = sketch[0].shape[0], _max_abs_product(*sketch[:2])
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
    is the dense LU of I - K W, or, for an operator held as RealFactors
    (contour-Q and the RH workspace), det S of its rank-8 sketch; raises
    ArithmeticError, naming the rank and the tail, when that sketch's tail
    did not pass (see DiscreteOperator)."""
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

    On the sketch path x = rhs + Q S^{-1} B rhs, on the dense path an LU
    solve of I - K W (see DiscreteOperator).  Raises SingularError when the
    LU of S or of I - K W meets an exactly zero pivot, or when the residual
    against the full operator exceeds 1e-10 (1 + |rhs|), and
    ArithmeticError, naming the rank and the tail, on a sketch whose tail
    did not pass."""
    sketch = op._sketch_factor()
    try:
        if sketch is None:
            x = lu_solve(op._one_minus(), rhs)
        else:
            q, b, s, (sign, _) = sketch
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


def _max_abs_product(q: np.ndarray, b: np.ndarray) -> float:
    """max|Q B| of an (n, k) Q and a (k, n) B without forming the n x n
    Q B.  Since |Q_i B_:j| <= ||Q_i|| max_j ||B_:j||, the rows of Q are
    visited in blocks of 32, largest norm first, until that bound for the
    next row cannot beat the maximum found so far (the factor 1 + 1e-12
    covers the rounding of both sides).  The blocks' entries are those of
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
    operator's own entries, or, for an operator held as RealFactors,
    max|Q B| of its sketch, from which max|K W| differs by the sketch's
    tail; Q B is never formed (_max_abs_product).  A probe product that is
    not finite gives a NaN scale at once, and a sketch whose tail did not
    pass raises its ArithmeticError with the context prefixed.  The scale
    is measured once per operator and kept as its rounding_scale, so
    callers that share an operator each raise with their own context.

    The two-contour matrices (contour-Q, contour-H and the RH workspace) are
    sums of large terms that cancel, and their entries grow where the
    default contours stop resolving the kernel.  Their real forms carry no
    imaginary residue that could show the loss.  The scale is at most
    1.1e-10 on alpha [0.2, 96] x a [0.1, 16], and at least 8e-10 at alpha
    128 and at alpha <= 0.15 for a <= 4, where contour-Q and contour-H come
    out up to 3e-4 (alpha 128) and 8e-7 (alpha 0.12) away from halfline."""
    try:
        scale = op._rounding()
    except ArithmeticError as exc:
        raise ArithmeticError(f"{context}: {exc}") from None
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
    """Conjugated kernel discretized on (a, a + length): the Nystrom matrix
    with its columns scaled by the grid's weights, K W, a real operator
    whose determinant is a real LU.  The grid has round(8 refine) panels
    (at least one) of order 16.

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
    grid = HalfLineGrid(a, length, max(1, round(_DEFAULT_PANELS * refine)))
    pair = kernels.kernel_pair(alpha, x_max=max(11.0, a + length),
                               refine=refine)
    kw = kernels.kernel_matrix(grid.nodes, grid.nodes, pair, shift=0.5)
    kw *= grid.weights
    return DiscreteOperator(kw)


# live PairFactors by _pair_key: the a = 0 factors depend on alpha as well
# as on the grids, and the grids alone do not tell alphas apart (from alpha
# about 7.7 on both truncation radii sit at their floor, so alpha 8 and 64
# share their grids).  An entry holds its pair's grids, so their ids cannot
# be reused while it lives
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# the PairFactors contour-Q built last, kept alive (and so in _SHARED) until
# two newer ones replace them
_RECENT: collections.deque = collections.deque(maxlen=2)


def _pair_key(pair: kernels.ContourPair) -> tuple[float, int, int]:
    """_SHARED's key of a contour pair: its alpha and its two grids."""
    return float(pair.alpha), id(pair.line), id(pair.loop)


class PairFactors:
    """A contour pair's two-contour line operator at a = 0, as its real
    factors, each compressed once, read-only, for sharing between
    contour-Q and observables.RhWorkspace.

    The factors are written by kernels._real_factors(pair, 0.0) and each
    is held as U G (_compress): U the orthonormal (n, 48) range basis of
    the factor X, accepted when the 4 tail probes' relative residual is at
    most 1e-14, and G = U^T X.  Their singular values fall below 1e-16 of
    the largest after 40-48 of the 352-384 loop columns (workspace pairs
    of alpha 0.5, 1 and 2, x_max 4 to 12), and rank 48 passes on every
    pair of alpha 0.2 to 96 tried, with U G within 4e-15 of each factor's
    largest entry, so every product with the factors costs (n + p) 48 in
    place of n p flops per column.  A factor that rank 48 does not
    capture, or whose probe product is not finite, stays whole.  ranks
    gives the rows of the two coefficient arrays: each factor's rank, or n
    where it stays whole.  at_zero is the a = 0 RealFactors.

    While the object lives it is listed in _SHARED under the pair's alpha
    and grids, and contour-Q and a new workspace on that pair take it
    rather than compress the pair again (_pair_factors).  operator(a)
    keeps the operator of the last a, sketched, as one entry, so a P and a
    u at one a share one sketch and one rounding scale.  Every PairFactors
    of a pair holds the same bits, so the operator does not depend on
    which caller built them."""

    def __init__(self, pair: kernels.ContourPair):
        self.pair = pair
        left, right = kernels._real_factors(pair, 0.0)
        left_basis, left = _compress(left)
        right_basis, right = _compress(right)
        self.at_zero = RealFactors(left, right, left_basis=left_basis,
                                   right_basis=right_basis)
        for array in (left, right, left_basis, right_basis):
            if array is not None:
                array.setflags(write=False)
        self._last: tuple | None = None   # (a, operator at a)
        _SHARED[_pair_key(pair)] = self

    @property
    def ranks(self) -> tuple[int, int]:
        """Rows of the left and right coefficient arrays."""
        return self.at_zero.left.shape[0], self.at_zero.right.shape[0]

    def operator(self, a: float) -> DiscreteOperator:
        """K W at a, the a = 0 factors with e^{-az} on the upper-half line
        nodes and e^{at} on the upper-half loop nodes (RealFactors.rows and
        cols), sketched; the guard is left to the caller."""
        last = self._last
        if last is not None and last[0] == a:
            return last[1]
        z, t = self.pair.line.nodes, self.pair.loop.nodes
        op = DiscreteOperator(None, replace(
            self.at_zero, rows=np.exp(-a * z[z.size // 2:]),
            cols=np.exp(a * t[t.size // 2:])))
        self._last = a, op
        return op


def _pair_factors(pair: kernels.ContourPair, keep: bool = False
                 ) -> PairFactors:
    """The live PairFactors of the pair (_SHARED), or new ones; keep=True
    holds new ones among the two that contour-Q built last (_RECENT), so a
    sweep compresses each pair it returns to once."""
    factors = _SHARED.get(_pair_key(pair))
    if factors is None:
        factors = PairFactors(pair)
        if keep:
            _RECENT.append(factors)
    return factors


def _contour_q_operator(a: float, alpha: float,
                        refine: float) -> DiscreteOperator:
    """contour-Q's line operator K W, the exact Schur complement of
    [[0, A], [B, 0]] on the (a, alpha) pair's own loop, held as the pair's
    compressed a = 0 factors scaled to a (PairFactors): a workspace's when
    one of the pair is alive, else contour-Q's own, kept among the last
    two it built."""
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine)
    return _pair_factors(pair, keep=True).operator(a)


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
        # det S of the rank-8 sketch of the scaled a = 0 factors, with the
        # guard on max|Q B|
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
    probability (2.52 at alpha 1/32, a = 1), while at alpha 1/16 it stays
    within 3.5e-9 of [0, 1].  The halved run is not held to that bound, so err still
    reports how far it moved."""
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
    log_p = log_mag if p > 0 else math.nan
    return GapResult(a, alpha, route, p, log_p, err)
