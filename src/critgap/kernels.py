"""Correlation kernels: critical, conjugated, finite-product, factored forms,
and the real factors of the two-contour operator with its line reduction.

Everything is a double (or single) contour integral over a hairpin-loop /
vertical-line pair.  Matrix-valued evaluators batch the node sums as three
dense products so Nystrom assembly stays cheap.  The finite-N kernel is one
contraction u @ C @ v with the Cauchy matrix C = 1/(s - t) between its
closed loop and its line; as every line node has the same real part, C is
carried by two real arrays, built and contracted block by block of loop rows.
contour-Q's line operator is one product of two real factors, which one
loop writes (cross_blocks): into fresh arrays for validate, into this
thread's buffers (_real_factors) as the input that fredholm.PairFactors
compresses once per pair for contour-Q and the RH workspace.  contour-H's
(ha_matrix) is a divided difference of one loop sum.

The grids come from the contours builders, shared and read-only, and each
keeps its own node values (QuadratureGrid.memo): Gamma and 1/Gamma of its
nodes (_gamma_on, _recip_gamma_on), and finite_kernel's x- and y-free
log-gamma parts at each (n, m).  So these are evaluated once per grid,
not once per call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .special import (DomainError, _digamma, _require_finite, gamma,
                      log_gamma, recip_gamma)
from .contours import (
    GeometryError,
    QuadratureGrid,
    build_closed_loop,
    build_hairpin,
    build_vertical,
    deformed_contours,
    truncation_radius,
)

__all__ = [
    "ContourPair",
    "kernel_pair",
    "qa_pair",
    "real_form",
    "critical_kernel",
    "conjugated_kernel",
    "kernel_matrix",
    "finite_kernel",
    "centering_shift",
    "factored_kernel",
    "rh_vectors",
    "ha_matrix",
    "cross_blocks",
]

_TWO_PI_I = 2.0j * math.pi
_IM_TOL = 1e-9
# largest relative asymmetry a grid may have and still be folded by conjugation
_MIRROR_TOL = 1e-12
_NEAR = 0.05  # ha_matrix sums K W directly for nodes this close in Im

# decay budget: contour tails are cut where integrands drop by e^{-40}
_TAIL_LOG = 40.0

# byte budget of each (rows, line) array of finite_kernel's blocked Cauchy
# contraction: small enough for the elementwise passes to stay in cache
_BLOCK_BYTES = 1 << 19

# per-thread, grow-only buffers (_buffer): _real_factors' two factors,
# cross_blocks' block of Cauchy rows, and fredholm's square buffer (I - K W
# of a dense LU), which ha_matrix's work arrays reuse; held until the thread
# ends
_FACTORS = threading.local()


def _gamma_on(grid: QuadratureGrid) -> np.ndarray:
    """Gamma of every node of `grid`, kept on the grid (read-only)."""
    return grid.memo("gamma", lambda: gamma(grid.nodes))


def _recip_gamma_on(grid: QuadratureGrid) -> np.ndarray:
    """1/Gamma of every node of `grid`, kept on the grid (read-only)."""
    return grid.memo("recip_gamma", lambda: recip_gamma(grid.nodes))


def _log_gamma_left(z: np.ndarray) -> np.ndarray:
    """A logarithm of Gamma(z) valid on either half-plane, for use inside a
    single exp(); its branch may differ from the principal one by 2 pi i k."""
    out = np.empty(z.shape, dtype=complex)
    right = z.real >= 0.5
    out[right] = log_gamma(z[right])
    # reflection in log form; sin stays away from 0 by the pole clearance
    zl = z[~right]
    out[~right] = (math.log(math.pi) - np.log(np.sin(math.pi * zl))
                   - log_gamma(1.0 - zl))
    return out


@dataclass
class ContourPair:
    """A loop/line grid pair plus the parameters it was built for."""

    loop: QuadratureGrid
    line: QuadratureGrid
    alpha: float


def kernel_pair(alpha: float, x_max: float = 30.0, x_min: float = 0.0,
                refine: float = 1.0) -> ContourPair:
    """Contour pair sized for the critical/conjugated kernel at |x|,|y| within
    [x_min, x_max]: Gaussian coefficient alpha/2 on both contours."""
    if alpha <= 0.0:
        raise GeometryError("alpha must be positive")
    growth_loop = max(0.0, -x_min)  # exp(x t) grows along the arms iff x < 0
    T_loop = truncation_radius(alpha / 2.0, growth=growth_loop,
                               target=_TAIL_LOG, gamma_decay=True)
    T_line = truncation_radius(alpha / 2.0, growth=math.pi / 2.0,
                               target=_TAIL_LOG)
    loop = build_hairpin(T=T_loop, refine=refine, max_frequency=abs(x_max))
    line = build_vertical(T=T_line, refine=refine, max_frequency=abs(x_max))
    return ContourPair(loop, line, alpha)


def qa_pair(alpha: float, a_max: float, order: int = 16, refine: float = 1.0,
            deformed: bool = False, a: float | None = None) -> ContourPair:
    """Contour pair sized for the two-contour operator kernels (Gaussian
    coefficient alpha/4).  With deformed=True the steepest-descent pair for
    the given a is used instead of the defaults."""
    if alpha <= 0.0:
        raise GeometryError("alpha must be positive")
    if deformed:
        loop, line = deformed_contours(alpha, a if a is not None else a_max,
                                       order=order, refine=refine)
        return ContourPair(loop, line, alpha)
    T_loop = truncation_radius(alpha / 4.0, growth=0.0, target=_TAIL_LOG,
                               gamma_decay=True)
    T_line = truncation_radius(alpha / 4.0, growth=math.pi / 2.0,
                               target=_TAIL_LOG)
    loop = build_hairpin(T=T_loop, order=order, refine=refine,
                         max_frequency=a_max)
    line = build_vertical(T=T_line, order=order, refine=refine,
                          max_frequency=a_max)
    return ContourPair(loop, line, alpha)


def _upper_half(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the second half of a grid that is its own mirror
    image under conjugation: z[::-1] = conj(z) and w[::-1] = -conj(w).

    Every hairpin and vertical line that `contours` builds is such a grid
    (traversed upward, lower half first), so its second half holds the
    Im > 0 nodes.  Values memoised on the grid are over all its nodes;
    their second half, [n // 2:], belongs to these.  Raises GeometryError
    for an odd node count or an asymmetry above _MIRROR_TOL relative: a
    fold over such a grid would return a wrong number."""
    z, w = grid.nodes, grid.weights
    n = z.size
    if n % 2:
        raise GeometryError(f"{n} nodes: an odd grid has no mirror pairing")
    if (np.abs(z[::-1] - z.conj()).max() > _MIRROR_TOL * np.abs(z).max()
            or np.abs(w[::-1] + w.conj()).max() > _MIRROR_TOL * np.abs(w).max()):
        raise GeometryError("grid is not symmetric under conjugation")
    return z[n // 2:], w[n // 2:]


def real_form(upper: np.ndarray) -> np.ndarray:
    """Real matrix similar to an operator X between two mirror-symmetric
    grids that commutes with their conjugation J conj (J reverses a grid):
    J conj(X) J = X.  Takes X's rows at the upper-half nodes, over all
    columns; its lower-half rows are their mirror and are not needed.

    Such an X maps the real subspace {v : J conj v = v} of each grid to the
    other's.  In the coordinates (Re v_up, Im v_up) of that subspace it acts
    as the real matrix

        [[Re S, -Im D], [Im S, Re D]],  S, D = X_up,up +- X_up,mirror,

    where column j of X_up,mirror is the column at the mirror of upper-half
    node j.  The same coordinates span the whole space over C, so for a
    square X this is a similarity, det(I - X) = det(I - real_form(X_up)),
    and the real form of a product is the product of the real forms.
    """
    m, p = upper.shape
    if p % 2:
        raise GeometryError(f"{p} columns: an odd grid has no mirror pairing")
    out = np.empty((2 * m, p))
    _write_real_form(upper, out[:m], out[m:])
    return out


def _write_real_form(upper: np.ndarray, top: np.ndarray, bottom: np.ndarray,
                     conj: bool = False) -> None:
    """Write real_form(upper), or with conj=True real_form(conj(upper)),
    as its top and bottom (m, p) halves.  The conjugate's entries are
    formed as the sums and differences of the negated imaginary parts
    would be: (-h) - l = (-h) + (-l) and h - l = (-l) - (-h) exactly, so
    they equal real_form(np.conjugate(upper)) bit for bit."""
    k = upper.shape[1] // 2
    hi = upper[:, k:]
    lo = upper[:, k - 1::-1]  # at the mirror of each upper-half node
    np.add(hi.real, lo.real, out=top[:, :k])
    np.subtract(hi.real, lo.real, out=bottom[:, k:])
    if conj:
        np.negative(hi.imag, out=bottom[:, :k])
        bottom[:, :k] -= lo.imag
        np.subtract(hi.imag, lo.imag, out=top[:, k:])
    else:
        np.add(hi.imag, lo.imag, out=bottom[:, :k])
        np.subtract(lo.imag, hi.imag, out=top[:, k:])


def kernel_matrix(x: np.ndarray, y: np.ndarray, pair: ContourPair,
                  shift: float = 0.5) -> np.ndarray:
    """Real matrix K[i, j] of the double-contour kernel at (x_i, y_j).

    shift=0.5 gives the conjugated kernel exp(-(x-y)/2) K_crit(x, y); shift=0
    gives K_crit itself.  Both grids of the pair are mirror images under
    conjugation and the integrand is real on the real axis, so the lower-half
    nodes contribute the complex conjugate of the upper-half ones and the
    sum folds onto the upper halves t (loop) and s (line):

        K = (2 / (2 pi i)^2) Re[Vu (C+ Wu^T - C- conj(Wu)^T)],

    Vu[x, t] = w_t Gamma(t) e^{-alpha t^2/2 + x(t - shift)},
    Wu[y, s] = e^{alpha s^2/2 - y(s - shift)} / Gamma(s),
    C+[t, s] = w_s / (s - t),  C-[t, s] = conj(w_s) / (conj(s) - t).

    The line side is contracted in real arithmetic.  With E[y, s] =
    e^{-y(s - shift)}, h = conj(w_s e^{alpha s^2/2} / Gamma(s)),
    p = 1/(conj(s) - conj(t)) and q = 1/(conj(s) - t), the rows

        Z0 = h (p - q),  Z1 = i h (p + q)

    satisfy: the interleaved (re, im) views of Z0 and E multiply to Re M,
    and those of Z1 and E to Im M, where M = C+ Wu^T - C- conj(Wu)^T.  So M
    is one real matrix product with half the multiply-adds of the complex
    one.  Raises GeometryError if either grid is not mirror-symmetric.
    """
    alpha = pair.alpha
    t, wt = _upper_half(pair.loop)
    s, ws = _upper_half(pair.line)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))

    m, k = t.size, s.size
    h = (ws * _recip_gamma_on(pair.line)[k:]
         * np.exp(alpha * s * s / 2.0)).conj()
    sb = s.conj()
    Z = np.empty((2, m, k), dtype=complex)
    np.subtract.outer(-t.conj(), -sb, out=Z[0])  # conj(s) - conj(t), exactly
    np.subtract.outer(-t, -sb, out=Z[1])         # conj(s) - t
    np.reciprocal(Z, out=Z)                      # p, q
    Z[0] -= Z[1]                                 # p - q
    Z[1] *= 2.0
    Z[1] += Z[0]                                 # p + q
    Z[0] *= h
    Z[1] *= 1j * h
    E = np.exp(np.outer(-y, s - shift))
    M = Z.reshape(2 * m, k).view(float) @ E.view(float).T  # [Re M; Im M]
    V = np.exp(np.outer(x, t - shift)) * (wt * _gamma_on(pair.loop)[m:]
                                          * np.exp(-alpha * t * t / 2.0))
    return (V.real @ M[:m] - V.imag @ M[m:]) * (2.0 / _TWO_PI_I ** 2).real


def _kernel_sum(x: np.ndarray, y: np.ndarray, pair: ContourPair,
                shift: float) -> np.ndarray:
    """The double-contour sum of kernel_matrix over the full grids, complex.

    Its imaginary part is the quadrature's leftover, which the point
    evaluators check; no symmetry of the grids is assumed."""
    alpha = pair.alpha
    t, wt = pair.loop.nodes, pair.loop.weights
    s, ws = pair.line.nodes, pair.line.weights
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))

    gt = _gamma_on(pair.loop) * np.exp(-alpha * t * t / 2.0)
    gs = _recip_gamma_on(pair.line) * np.exp(alpha * s * s / 2.0)
    V = np.exp(np.outer(x, t - shift)) * gt            # (nx, nt)
    W = np.exp(np.outer(-y, s - shift)) * gs           # (ny, ns)
    C = (wt[:, None] * ws[None, :]) / (s[None, :] - t[:, None])
    return (V @ C @ W.T) / _TWO_PI_I ** 2


def _as_real(value: complex, scale: float = 1.0) -> float:
    if abs(value.imag) > _IM_TOL * (scale + abs(value)):
        raise ArithmeticError(f"kernel value has residual imaginary part {value}")
    return value.real


def critical_kernel(x: float, y: float, alpha: float,
                    refine: float = 1.0) -> float:
    """Limiting kernel of the critically-scaled product process at real (x, y).
    Raises ValueError for an x, y or alpha that is not finite."""
    _require_finite(x=x, y=y, alpha=alpha)
    pair = kernel_pair(alpha, x_max=max(abs(x), abs(y), 1.0),
                       x_min=min(x, y, 0.0), refine=refine)
    val = _kernel_sum(np.array([x]), np.array([y]), pair, shift=0.0)[0, 0]
    return _as_real(val)


def conjugated_kernel(x: float, y: float, alpha: float) -> float:
    """exp(-(x-y)/2) K_crit(x, y): the symmetric-decay form used on (a, inf).

    Requires x, y > 0; the decay bound exp(-(x+y)/2) only holds there.
    Raises ValueError for an x, y or alpha that is not finite."""
    _require_finite(x=x, y=y, alpha=alpha)
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"conjugated kernel needs x, y > 0, got ({x}, {y})")
    pair = kernel_pair(alpha, x_max=max(x, y, 1.0))
    val = _kernel_sum(np.array([x]), np.array([y]), pair, shift=0.5)[0, 0]
    return _as_real(val)


def centering_shift(n: int, m: int) -> float:
    """Centering a_N = (M+1)(log N - 1/(2N)) of the finite-N process."""
    if n < 1 or m < 1:
        raise DomainError("matrix dimension and factor count must be >= 1")
    return (m + 1) * (math.log(n) - 1.0 / (2.0 * n))


# samples of the line half [0, T] on which _line_rate reads the phase rate
_RATE_SAMPLES = 65


def _line_rate(y: float, n: int, m: int, T: float) -> float:
    """Upper bound on the phase rate |part_s'| of finite_kernel's line
    integrand exp(part_s), part_s = (m+1) log Gamma(s+n) - log Gamma(s) - y s,
    over s = 1/2 + i sigma, |sigma| <= T.

    f = part_s' = (m+1) psi(s+n) - psi(s) - y is sampled at _RATE_SAMPLES
    evenly spaced sigma in [0, T] (the line is its own mirror image).  On a
    gap of width h whose ends have |f| = f0, f1 and on which |f'| <= L,
    |f| <= (f0 + f1)/2 + L h/2.  L comes from |psi'(a + i sigma)| <=
    sum_k 1/((a+k)^2 + sigma^2) <= 1/(a^2 + sigma^2) + atan(sigma/a)/sigma,
    which decreases in sigma, so its value at a gap's left end holds on the
    whole gap.
    """
    sigma = np.linspace(0.0, T, _RATE_SAMPLES)
    s = 0.5 + 1j * sigma
    psi = _digamma(np.concatenate([s + n, s]))
    f = np.abs((m + 1) * psi[:_RATE_SAMPLES] - psi[_RATE_SAMPLES:] - y)
    h = sigma[1]
    # each gap's left end; atan(sigma/a)/sigma tends to 1/a at sigma = 0
    left = np.maximum(sigma[:-1], 1e-300)

    def psi1(a):
        return 1.0 / (a * a + left * left) + np.arctan(left / a) / left

    slope = (m + 1) * psi1(n + 0.5) + psi1(0.5)
    return float(np.max(0.5 * (f[:-1] + f[1:] + slope * h)))


def _finite_grids(x: float, y: float, n: int, m: int, order: int = 16,
                  refine: float = 1.0) -> tuple[QuadratureGrid, QuadratureGrid]:
    """finite_kernel's closed loop and vertical line at (x, y, n, m).

    The loop resolves exp(x t) up to frequency max(|x|, |y|, 1).  The line
    resolves its integrand's own phase rate (_line_rate), which is small
    near the centering a_N, where (m+1) log Gamma(s+n) cancels the linear
    phase of exp(-y s), rather than |y|."""
    alpha_eff = (m + 1) / n
    T_line = truncation_radius(alpha_eff / 2.0, growth=math.pi / 2.0)
    loop = build_closed_loop(-n + 0.5, order=order, refine=refine,
                             max_frequency=max(abs(x), abs(y), 1.0))
    line = build_vertical(0.5, T_line, order=order, refine=refine,
                          max_frequency=_line_rate(y, n, m, T_line))
    return loop, line


def finite_kernel(x: float, y: float, n: int, m: int, order: int = 16,
                  refine: float = 1.0) -> float:
    """Finite-N product-process kernel at real (x, y), log-space evaluation.

    The loop encircles the n gamma poles {0, -1, ..., -n+1} and closes at
    -n + 1/2.  The exponent e[i, j] = part_t[i] + part_s[j] - log(s_j - t_i)
    is separable, each part being a log-gamma sum on its own contour, so the
    double sum is one contraction u @ C @ v with the Cauchy matrix
    C = 1/(s - t) and u, v the exponentiated parts.  The grids come from
    _finite_grids: the loop is sized by max(|x|, |y|, 1), the line by the
    phase rate of exp(part_s).

    C is never formed in complex arithmetic.  Every line node has real part
    exactly c = line.spec.crossing, so s_j - t_i = d_i + i b_ij with
    d_i = c - Re t_i and b_ij = Im s_j - Im t_i, and C = (d - i b) r with
    r = 1/(d^2 + b^2).  The real arrays r and b r multiply the (re, im)
    view of v as a real matrix product, and C v = d (r v) - i (b r) v.
    The full complex sum is kept, so its imaginary part, the quadrature's
    leftover, is still checked.

    The pair (r, b r) is built and contracted in blocks of loop rows, in
    one (2, rows, line) buffer reused for every block, with rows sized so
    that each array holds about _BLOCK_BYTES (0.5 MB).  The elementwise
    passes and the product run in cache, and no loop x line array exists:
    beyond the grids, a call's memory grows with loop + line only.

    u and v are scaled by e^{-c_t} and e^{-c_s}, the maxima of Re part_t and
    Re part_s, so |u| <= |w_t| and |v| <= |w_s|, and |C| <= 1/(c - nose) = 4
    bounds the contraction; this keeps factor counts up to m = 512 finite
    without a pass over the loop x line exponent.  c_t + c_s bounds
    Re e to within log 4, and OverflowError is raised when it exceeds 700.
    The line is its own mirror image (s[::-1] == conj(s)), so part_s is
    evaluated on its upper half and mirrored.  The x- and y-free parts,
    -(m+1) log Gamma(t+n) + log Gamma(t) on the loop and
    (m+1) log Gamma(s+n) - log Gamma(s) on the upper line, are kept on
    the grids (QuadratureGrid.memo) at each (n, m).
    """
    if n < 1 or m < 1:
        raise DomainError("need n >= 1 and m >= 1")
    if m > 512:
        raise DomainError("factor count above the supported envelope of 512")
    loop, line = _finite_grids(x, y, n, m, order, refine)

    t, wt = loop.nodes, loop.weights
    s, ws = line.nodes, line.weights
    part_t = loop.memo(("finite", n, m), lambda: (
        -(m + 1) * log_gamma(t + n) + _log_gamma_left(t))) + x * t
    s_up, _ = _upper_half(line)
    half_s = line.memo(("finite", n, m), lambda: (
        (m + 1) * log_gamma(s_up + n) - log_gamma(s_up))) - y * s_up
    part_s = np.concatenate([half_s[::-1].conj(), half_s])

    c_t = float(part_t.real.max())
    c_s = float(part_s.real.max())
    scale = c_t + c_s
    if scale > 700.0:
        raise OverflowError(f"finite-kernel scale c_t + c_s = {scale:.1f} "
                            "exceeds 700")
    u = wt * np.exp(part_t - c_t)
    v = ws * np.exp(part_s - c_s)

    d = line.spec.crossing - t.real
    dd = d * d
    # b = Im s - Im t as the product [-Im t, 1] @ [1; Im s]: each entry is
    # the one rounding of a sum of two exact products, so it equals the
    # subtraction bit for bit, and a matrix product fills it faster than a
    # broadcast subtract
    tb = np.stack([-t.imag, np.ones(t.size)], axis=1)
    sb = np.stack([np.ones(s.size), s.imag])
    vr = v.view(float).reshape(-1, 2)
    rows = min(t.size, max(1, _BLOCK_BYTES // (8 * s.size)))
    rb = np.empty((2, rows, s.size))
    rv = np.empty((2, t.size, 2))
    for i in range(0, t.size, rows):
        j = min(i + rows, t.size)
        blk = rb[:, :j - i]
        np.matmul(tb[i:j], sb, out=blk[1])          # b
        np.square(blk[1], out=blk[0])
        blk[0] += dd[i:j, None]
        np.reciprocal(blk[0], out=blk[0])           # r
        blk[1] *= blk[0]                            # b r
        # [r v; (b r) v] as (re, im) rows
        np.matmul(blk, vr, out=rv[:, i:j])
    rv = rv.view(complex)[..., 0]
    cv = d * rv[0] - 1j * rv[1]  # C v
    val = (u @ cv) * math.exp(scale) / _TWO_PI_I ** 2
    return _as_real(complex(val))


def factored_kernel(x: float, y: float, alpha: float) -> float:
    """Conjugated kernel rebuilt from its rank-factorization: the product of
    the two one-contour factors integrated over the coupling variable.

    The coupling integral over q in (0, inf) is mapped to u in (0, 1) by
    q = -2 log(1-u), under which the integrand becomes smooth and one
    Gauss-Legendre panel of order 32 converges spectrally.  Raises
    ValueError for an x, y or alpha that is not finite.
    """
    _require_finite(x=x, y=y, alpha=alpha)
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"factored kernel needs x, y > 0, got ({x}, {y})")
    un, uw = np.polynomial.legendre.leggauss(32)
    u = 0.5 * (un + 1.0)
    w = 0.5 * uw
    q = -2.0 * np.log1p(-u)
    jac = 2.0 / (1.0 - u)

    T_loop = truncation_radius(alpha / 2.0, gamma_decay=True)
    loop = build_hairpin(T=T_loop, max_frequency=max(1.0, x + float(q.max())))
    T_line = truncation_radius(alpha / 2.0, growth=math.pi / 2.0)
    line = build_vertical(T=T_line, max_frequency=max(1.0, y + float(q.max())))

    t, wt = loop.nodes, loop.weights
    s, ws = line.nodes, line.weights
    gt = _gamma_on(loop) * np.exp(-alpha * t * t / 2.0)
    gs = _recip_gamma_on(line) * np.exp(alpha * s * s / 2.0)
    G = np.exp(np.outer(x + q, t - 0.5)) @ (wt * gt) / _TWO_PI_I
    Gt = np.exp(np.outer(-(y + q), s - 0.5)) @ (ws * gs) / _TWO_PI_I
    return _as_real(complex(np.sum(w * jac * G * Gt)))


# -- two-contour operator ---------------------------------------------------

def rh_vectors(pair: ContourPair, a: float) -> tuple[np.ndarray, ...]:
    """The two-vectors (f, h) whose products build the two-contour operator
    and its jump I - 2 pi i f h^T, by their nonzero components on each grid:
    f = (f_line, 0), h = (0, h_line) on the line and f = (0, f_loop),
    h = (h_loop, 0) on the loop, so f.h = 0 on both.  f carries the
    1/(2 pi i) normalization.  Returns (f_line, h_line, f_loop, h_loop)."""
    alpha = pair.alpha
    z, t = pair.line.nodes, pair.loop.nodes
    quarter_z = alpha * z * z / 4.0
    quarter_t = alpha * t * t / 4.0
    f_line = np.exp(quarter_z - a * z) / _TWO_PI_I
    h_line = -_recip_gamma_on(pair.line) * np.exp(quarter_z)
    f_loop = np.exp(-quarter_t) / _TWO_PI_I
    h_loop = _gamma_on(pair.loop) * np.exp(-quarter_t + a * t)
    return f_line, h_line, f_loop, h_loop


def ha_matrix(pair: ContourPair, a: float, loop: QuadratureGrid) -> np.ndarray:
    """Real form (see real_form) of the line-reduced kernel times the line
    weights, K W, on the pair's vertical line, with the loop variable
    integrated on `loop`, a grid of its own or the pair's.

    K W = L Rt, L = diag(e^{-az + alpha z^2/4}) R diag(g), Rt = R^T diag(b),
    R = 1/(z - t), g = w_t Gamma(t) e^{at - alpha t^2/2} / (2 pi i) and
    b = w_z e^{alpha z^2/4} / Gamma(z) / (2 pi i), is integrable (Its,
    Izergin, Korepin and Slavnov): by partial fractions it is a divided
    difference of one loop sum f(z) = sum_t g_t / (z - t), K W[z, z'] =
    e^{-az + alpha z^2/4} (f(z) - f(z')) / (z' - z) b(z'), with z' - z =
    i (Im z' - Im z) on the line and f(conj z) = conj f(z): one pass over
    R and O(n^2), not an n x p x n product.  Where |Im z' - Im z| < _NEAR
    the difference cancels and the entry is summed over the loop instead.
    With f numpy's pairwise sum, K W is within 2.7e-15 of max|K W| of the
    complex product.  The result is a fresh array; the work arrays are
    this thread's buffers.  Raises GeometryError if the line is not
    vertical or either grid is not mirror-symmetric."""
    alpha, line = pair.alpha, pair.line
    if line.spec.kind != "line":
        raise GeometryError(f"ha_matrix needs a line, got a {line.spec.kind}")
    z = _upper_half(line)[0]
    _upper_half(loop)  # the symmetry check; the sum runs over the loop
    t, wt = loop.nodes, loop.weights
    g = wt * _gamma_on(loop) * np.exp(a * t - alpha * t * t / 2.0) / _TWO_PI_I
    m, p, y = z.size, t.size, z.imag
    r = _buffer("left", 2 * m * p, float).view(complex).reshape(m, p)
    np.reciprocal(np.subtract.outer(z, t, out=r), out=r)
    rg = _buffer("right", 2 * m * p, float).view(complex).reshape(m, p)
    np.multiply(r, g, out=rg)
    f = rg.sum(axis=1)
    # sum_t g r_i r_j for node i and each node j = i + d up to _NEAR above
    # it, and for the k nodes within _NEAR of the real axis and their mirrors
    near = [(np.arange(m), 0, np.einsum("ij,ij->i", rg, r))]
    for d in range(1, m):
        i = np.flatnonzero(y[d:] - y[:m - d] < _NEAR)
        if not i.size:
            break
        near.append((i, d, np.einsum("ij,ij->i", rg[i], r[i + d])))
    k = int(np.searchsorted(y, _NEAR))
    mirror = rg[:k] @ r[:k][::-1, ::-1].conj().T
    lead = np.exp(-a * z + alpha * z * z / 4.0)
    b = (line.weights * _recip_gamma_on(line)
         * np.exp(alpha * line.nodes * line.nodes / 4.0) / _TWO_PI_I)
    kw = _buffer("one_minus", 4 * m * m, float).view(complex).reshape(m, 2 * m)
    np.matmul(np.stack([lead * f, -lead], axis=1) / 1j,
              np.stack([b, np.concatenate([f[::-1].conj(), f]) * b]), out=kw)
    out = np.empty((2 * m, 2 * m))  # its upper half holds Im z' - Im z first
    gap = np.subtract.outer(-y, -line.nodes.imag, out=out[:m])
    np.fill_diagonal(gap[:, m:], np.inf)  # z' = z: summed directly
    kw *= np.reciprocal(gap, out=gap)
    for i, d, s in near:
        kw[i, m + i + d] = lead[i] * s * b[m + i + d]
        kw[i + d, m + i] = lead[i + d] * s * b[m + i]
    kw[:k, m - k:m] = lead[:k, None] * mirror * b[m - k:m]
    _write_real_form(kw, out[:m], out[m:])
    return out


def _buffer(name: str, size: int, dtype: type) -> np.ndarray:
    """The first `size` entries of this thread's flat buffer `name`, which
    is kept between calls and replaced only by a larger one."""
    buf = getattr(_FACTORS, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        setattr(_FACTORS, name, buf)
    return buf[:size]


def _real_factors(pair: ContourPair, a: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """cross_blocks(pair, a), the same bits, in views of this thread's
    grow-only buffers, valid until its next call: the input of
    fredholm.PairFactors, which compresses them, so repeated builds reuse
    that memory instead of asking the allocator for megabytes that it may
    trim and fault in again each time.  A thread holds its largest factors
    so far until it ends, 1.3 to 11.8 MB after one contour-Q call on alpha
    [0.2, 64] x a [1, 16] x refine [1, 2]."""
    m, p = pair.line.nodes.size // 2, pair.loop.nodes.size
    return cross_blocks(pair, a, (
        _buffer("left", 2 * m * p, float).reshape(2 * m, p),
        _buffer("right", 2 * m * p, float).reshape(2 * m, p)))


def cross_blocks(pair: ContourPair, a: float,
                 out: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Real forms (left, right) of the two coupling blocks at a, as (2m,
    loop) arrays, fresh or the pair `out` written in place:
    left = real_form(A W_loop) of line<-loop and
    right = real_form(conj((B W_line)^T)) of loop<-line, on the upper-half
    line rows.  Both blocks commute with conjugation, so left @ right.T is
    the real form of the Schur complement A W_loop B W_line.

    Both blocks are the Cauchy matrix R = 1/(z - t) scaled by rows and
    columns, each entry rounded as (R * cols) * rows.  R is built a block
    of rows at a time in this thread's buffer "cauchy", which holds it and
    its scaled copy in _BLOCK_BYTES (0.5 MB), and both real forms are
    written from the block straight into the factors: no line x loop
    complex array exists.  Raises GeometryError if either grid is not
    mirror-symmetric."""
    alpha = pair.alpha
    z, wz = _upper_half(pair.line)
    _upper_half(pair.loop)  # the symmetry check; the blocks span the loop
    t, wt = pair.loop.nodes, pair.loop.weights
    m, p = z.size, t.size
    left, right = out or (np.empty((2 * m, p)), np.empty((2 * m, p)))
    col_a = wt * _gamma_on(pair.loop) * np.exp(-alpha * t * t / 4.0 + a * t)
    row_a = np.exp(alpha * z * z / 4.0 - a * z) / _TWO_PI_I
    col_b = np.exp(-alpha * t * t / 4.0)
    row_b = (wz * _recip_gamma_on(pair.line)[z.size:]
             * np.exp(alpha * z * z / 4.0) / _TWO_PI_I)
    rows = min(m, max(1, _BLOCK_BYTES // (32 * p)))
    block = _buffer("cauchy", 2 * rows * p, complex).reshape(2, rows, p)
    for i in range(0, m, rows):
        j = min(i + rows, m)
        r, scaled = block[0, :j - i], block[1, :j - i]
        np.subtract.outer(z[i:j], t, out=r)
        np.reciprocal(r, out=r)
        np.multiply(r, col_a, out=scaled)
        scaled *= row_a[i:j, None]
        _write_real_form(scaled, left[i:j], left[m + i:m + j])
        r *= col_b  # in place: R is not needed again
        r *= row_b[i:j, None]
        _write_real_form(r, right[i:j], right[m + i:m + j], conj=True)
    return left, right
