"""Integration contours and composite Gauss-Legendre grids.

Two families of contours appear throughout: a hairpin loop wrapping the
non-positive real axis (where the gamma factors have their poles) and a
vertical line to its right.  Grids carry complex weights with the contour
parametrization derivative already folded in, so `sum(w * f(nodes))`
approximates the contour integral of f directly.

The builders' float arguments (a frequency cap, a refinement factor) only
pick integer panel counts, or, for a line, its half-line cut array, so many
calls ask for the same grid.  Each builder validates its arguments on every
call, resolves them to the geometry that fixes the grid, and returns the
one grid built for that geometry in this process:

    hairpin      (delta, nose, T, panels, order, arc panels)
    line         (b, T, order, half-line cut array)
    closed loop  (left_edge, delta, nose, order, panels, arc panels)

These grids are shared, so their nodes and weights are read-only.  The
cache (_shared_grid) keeps the _GRID_CACHE_SIZE = 128 grids used last.  A
grid of n nodes holds 16 n bytes for its nodes, as much for its weights,
and what it memoises (QuadratureGrid.memo), at most _MEMO_SIZE = 6 values:
node arrays of at most 16 n bytes each (Gamma or 1/Gamma, finite_kernel's
parts), and on a line ha_matrix's near pairs, under 8 n bytes, and the
pole rule's a-free line factors for each alpha it serves, about
16 n K0 + 40 n bytes (kernels: K0 = K(alpha, 0) poles, 9 at alpha 1 and 15
at alpha 0.2).  A line serves one alpha unless its truncation sits at its
floor (alpha 8 and 64 share one), so a grid holds about 96 n + 16 n K0
bytes at most: 0.34 kB per node at alpha 0.2.  A 16-step
`critgap gap` sweep at alpha 1, a in [0.5, 4], keeps 12 grids of 0.26 MB
in all; one at alpha 0.2, a in [0.1, 16], keeps 91 grids of 12.7 MB, the
largest of 1376 nodes.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.polynomial lazily, on first use; importing it here puts
# that one-time cost (about 4 ms) into `import critgap`, not into the first
# quadrature grid a computation builds
from numpy.polynomial.legendre import leggauss

from .special import gamma

__all__ = [
    "GeometryError",
    "ContourSpec",
    "QuadratureGrid",
    "build_hairpin",
    "build_vertical",
    "build_closed_loop",
    "deformed_contours",
    "truncation_radius",
    "gamma_contour_integral",
]

# minimum horizontal separation between a loop's crossing and a line's abscissa
PAIR_MARGIN = 0.05

_DEFAULT_HALF_WIDTH = 0.25
_DEFAULT_NOSE = 0.25
_DEFAULT_LINE_ABSCISSA = 0.5
_ARM_GROWTH = 1.3       # geometric panel-width growth along hairpin arms
_ARM_FIRST_WIDTH = 0.3  # near-nose arm panel width the defaults aim for
_LINE_GROWTH = 1.35
_LINE_FIRST_WIDTH = 0.5
_ARC_PANELS = 4

# grids _shared_grid keeps, the ones used last: a `critgap gap --steps 16`
# sweep needs 14 at alpha 1 and 93 at alpha 0.2 for a in [0.1, 16]
_GRID_CACHE_SIZE = 128
# values one read-only grid memoises (QuadratureGrid.memo), the oldest
# dropped first: a line that serves contour-Q, contour-H and the RH
# workspace keeps 1/Gamma, ha_matrix's near pairs and two sets of pole-rule
# factors per alpha, for two alphas where lines of alpha 8 and 64 coincide
_MEMO_SIZE = 6
_MEMO_LOCK = threading.Lock()


class GeometryError(ValueError):
    """Contour constraints violated (sizes, separations, pole clearance)."""


@dataclass(frozen=True)
class ContourSpec:
    """Geometry summary of a contour, kept alongside its grid."""

    kind: str           # "hairpin" | "line" | "closed-loop"
    half_width: float   # smallest |Im| of the horizontal pieces / nose radius
    crossing: float     # abscissa where the contour crosses the real axis;
                        # every node of a "line" has exactly this real part
    truncation: float   # arm extent (hairpins/loops) or |Im| cutoff (lines)
    left_edge: float | None = None  # closing abscissa of a closed loop


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre grid along a contour.

    weights are complex and include dz, so weighted sums of node values are
    contour integrals.  The builders return shared grids, so a grid is
    frozen and their nodes and weights are read-only.  The memo (see
    `memo`) is an attribute, not a field: it takes no part in init,
    comparison or repr, and a dataclasses.replace copy starts with an
    empty one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panel_count: int
    order: int
    spec: ContourSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "_memo", {})

    def __len__(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * np.asarray(values)))

    def memo(self, key, compute):
        """compute(), an array or a tuple of arrays that depends only on
        this grid and on the numbers in `key` (integers, or a kernel's
        alpha), kept read-only on this grid under `key` if the grid is
        read-only, and computed afresh on every call if it is not.  A value
        holding a NaN or an infinity is returned but not kept.  At most
        _MEMO_SIZE values are kept, the oldest dropped first."""
        if self.nodes.flags.writeable or self.weights.flags.writeable:
            return compute()
        value = self._memo.get(key)
        if value is None:
            value = compute()
            arrays = value if isinstance(value, tuple) else (value,)
            if not all(np.isfinite(array).all() for array in arrays):
                return value
            for array in arrays:
                array.setflags(write=False)
            with _MEMO_LOCK:
                if len(self._memo) >= _MEMO_SIZE:
                    del self._memo[next(iter(self._memo))]
                self._memo[key] = value
        return value


@functools.lru_cache(maxsize=64)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of one panel on [-1, 1], shared
    and read-only."""
    rule = leggauss(order)
    for array in rule:
        array.setflags(write=False)
    return rule


def _gl_panels(cuts: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on every panel [cuts[i], cuts[i+1]]
    at once, one row of `order` per panel."""
    x, w = _gl_rule(order)
    a, b = cuts[:-1, None], cuts[1:, None]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, w * half


def _check_extent(T: float, order: int) -> None:
    if T < 5.0:
        raise GeometryError(f"truncation must be >= 5, got {T}")
    if not 4 <= order <= 64:
        raise GeometryError(f"order per panel must lie in [4, 64], got {order}")


def _geometric_cuts(length: float, count: int, growth: float,
                    cap: float = math.inf) -> np.ndarray:
    """Breakpoints on [0, length]: `count` panels, widths growing by `growth`.

    Widths above `cap` are redistributed by extra uniform splits, so the
    returned array may define more than `count` panels.
    """
    widths = growth ** np.arange(count)
    widths = length * widths / widths.sum()
    out = [0.0]
    for w in widths:
        splits = max(1, int(math.ceil(w / cap)))
        step = w / splits
        for _ in range(splits):
            out.append(out[-1] + step)
    out[-1] = length
    return np.asarray(out)


def _geometric_count(length: float, first: float, growth: float) -> int:
    # panels needed so the first width comes out near `first`
    n = math.log(1.0 + length * (growth - 1.0) / first) / math.log(growth)
    return max(4, int(math.ceil(n)))


def _segment(z0: complex, z1: complex, cuts: np.ndarray,
             order: int) -> tuple[np.ndarray, np.ndarray, int]:
    u, wu = _gl_panels(cuts, order)
    dz = z1 - z0
    nodes = z0 + dz * u
    weights = wu * dz
    return nodes.ravel(), weights.ravel(), len(cuts) - 1


def _arc(center: float, radius: float, th0: float, th1: float,
         n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray, int]:
    th, wth = _gl_panels(np.linspace(th0, th1, n_panels + 1), order)
    z = center + radius * np.exp(1j * th)
    weights = wth * 1j * radius * np.exp(1j * th)
    return z.ravel(), weights.ravel(), n_panels


def _min_pole_distance(nodes: np.ndarray) -> float:
    k = np.minimum(0.0, np.round(nodes.real))
    return float(np.min(np.abs(nodes - k)))


def _finish(pieces, order: int, spec: ContourSpec) -> QuadratureGrid:
    nodes = np.concatenate([p[0] for p in pieces])
    weights = np.concatenate([p[1] for p in pieces])
    count = sum(p[2] for p in pieces)
    return QuadratureGrid(nodes, weights, count, order, spec)


def _mirror_lower_half(grid: QuadratureGrid) -> QuadratureGrid:
    """Make an upward grid around the real axis exactly symmetric under
    conjugation: its lower half becomes the mirror image of its upper half
    (z -> conj z, w -> -conj w, order reversed).

    Built piece by piece, the halves agree only to rounding (node positions
    differ by up to 1e-14 at |z| = 25); exact symmetry makes the full sum
    over the grid and its fold onto the upper half the same quadrature."""
    n = grid.nodes.size
    k = n // 2
    grid.nodes[:k] = grid.nodes[n - k:][::-1].conj()
    grid.weights[:k] = -grid.weights[n - k:][::-1].conj()
    return grid


def truncation_radius(coeff: float, growth: float = 0.0, target: float = 40.0,
                      gamma_decay: bool = False) -> float:
    """Extent T where exp(-coeff T^2 + growth T) (optionally times the
    superexponential gamma decay along the arms) has dropped by exp(-target)."""
    if coeff <= 0.0:
        raise GeometryError("Gaussian coefficient must be positive")
    T = (growth + math.sqrt(growth * growth + 4.0 * coeff * target)) / (2.0 * coeff)
    if gamma_decay:
        for _ in range(40):  # Newton on the full decay budget
            f = coeff * T * T - growth * T + T * (math.log(T) - 1.0) + 1.0 - target
            df = 2.0 * coeff * T - growth + math.log(T)
            step = f / df
            T -= step
            if abs(step) < 1e-9:
                break
    return max(T, 5.0)


def _throat_cuts(length: float, radius: float) -> np.ndarray:
    # refine toward the end of the throat nearest the pole at the origin
    dists = [length]
    while dists[-1] > 0.8 * radius:
        dists.append(dists[-1] * 0.45)
    cuts = [0.0] + [length - d for d in dists[1:]] + [length]
    return np.asarray(cuts)


def _arc_panel_count(radius: float, max_frequency: float, order: int) -> int:
    # phase of exp(x z) sweeps ~2 x radius over the arc; keep panels resolved
    return max(_ARC_PANELS, int(math.ceil(2.0 * max_frequency * radius / order)))


def build_hairpin(delta: float = _DEFAULT_HALF_WIDTH, nose: float = _DEFAULT_NOSE,
                  T: float = 10.0, order: int = 16, *, max_frequency: float = 0.0,
                  refine: float = 1.0) -> QuadratureGrid:
    """Open hairpin around the non-positive reals, positively oriented.

    Runs from -T - i*delta along the lower arm, closes around the real axis
    at abscissa `nose` with a semicircular arc, and returns to -T + i*delta.
    When nose < delta the loop pinches: the outer arms stay at height delta
    and only a short throat near the origin drops to the nose radius, which
    keeps every node at least half the nose radius away from the gamma poles
    without refining the whole arm.  The grid is shared and read-only.
    """
    arm_first = _ARM_FIRST_WIDTH / refine
    if max_frequency > 0.0:
        arm_first = min(arm_first, 1.3 * order / max_frequency)
    if not 0.0 < delta < 0.5:
        raise GeometryError(f"half-width must lie in (0, 1/2), got {delta}")
    _check_extent(T, order)
    if not nose > 0.0:
        raise GeometryError(f"nose abscissa must be positive, got {nose}")
    panels = _geometric_count(T, arm_first, _ARM_GROWTH)
    arc_panels = _arc_panel_count(min(delta, nose), max_frequency, order)
    return _shared_grid(_hairpin, delta, nose, T, panels, order, arc_panels)


def _hairpin(delta: float, nose: float, T: float, panels: int, order: int,
             arc_panels: int) -> QuadratureGrid:
    d_nose = min(delta, nose)
    center = nose - d_nose
    pinched = d_nose < delta
    throat_start = -0.25 if pinched else center
    arm_end = -0.7 if pinched else center
    if T <= -arm_end + 1.0:
        raise GeometryError(f"truncation {T} too small for the arm layout")

    # arm breakpoints: fine near the nose end, geometrically coarser far out
    arm_len = T + arm_end
    arm_cuts = _geometric_cuts(arm_len, panels, _ARM_GROWTH)
    lower = _segment(complex(-T, -delta), complex(arm_end, -delta),
                     1.0 - arm_cuts[::-1] / arm_len, order)
    pieces = [lower]
    if pinched:
        slant_cuts = np.linspace(0.0, 1.0, 3)
        pieces.append(_segment(complex(arm_end, -delta),
                               complex(throat_start, -d_nose), slant_cuts, order))
        tc = _throat_cuts(center - throat_start, d_nose)
        pieces.append(_segment(complex(throat_start, -d_nose),
                               complex(center, -d_nose),
                               tc / (center - throat_start), order))
    pieces.append(_arc(center, d_nose, -math.pi / 2.0, math.pi / 2.0,
                       arc_panels, order))
    if pinched:
        tc = _throat_cuts(center - throat_start, d_nose)
        back = 1.0 - tc[::-1] / (center - throat_start)
        pieces.append(_segment(complex(center, d_nose),
                               complex(throat_start, d_nose), back, order))
        pieces.append(_segment(complex(throat_start, d_nose),
                               complex(arm_end, delta), np.linspace(0, 1, 3), order))
    # upper arm mirrors the lower one: fine near the nose, coarse far out
    upper = _segment(complex(arm_end, delta), complex(-T, delta),
                     arm_cuts / arm_len, order)
    pieces.append(upper)

    spec = ContourSpec("hairpin", d_nose, nose, T)
    grid = _mirror_lower_half(_finish(pieces, order, spec))
    if _min_pole_distance(grid.nodes) < 0.5 * d_nose - 1e-12:
        raise GeometryError("hairpin nodes too close to a gamma pole")
    return grid


def build_vertical(b: float = _DEFAULT_LINE_ABSCISSA, T: float = 10.0,
                   order: int = 16, *, max_frequency: float = 0.0,
                   refine: float = 1.0) -> QuadratureGrid:
    """Upward vertical line Re s = b, |Im s| <= T, graded toward the axis.

    Every node has real part exactly b (spec.crossing), so differences of
    line nodes are purely imaginary: z - s = i (Im z - Im s).

    max_frequency caps panel widths at ~1.3*order/frequency so integrands
    carrying a factor exp(-i y Im s) stay resolved up to |y| = max_frequency.
    The grid is shared and read-only.
    """
    first = _LINE_FIRST_WIDTH / refine
    cap = math.inf
    if max_frequency > 0.0:
        cap = max(1.3 * order / max_frequency, 0.05)
        first = min(first, cap)
    _check_extent(T, order)
    half = _geometric_cuts(T, _geometric_count(T, first, _LINE_GROWTH),
                           _LINE_GROWTH, cap=cap)
    return _shared_grid(_vertical, b, T, order, tuple(half.tolist()))


def _vertical(b: float, T: float, order: int,
              half: tuple[float, ...]) -> QuadratureGrid:
    half = np.asarray(half)
    cuts = np.concatenate([-half[::-1], half[1:]])  # -T ... 0 ... T
    norm = (cuts + T) / (2.0 * T)
    piece = _segment(complex(b, -T), complex(b, T), norm, order)
    piece[0].real = b
    spec = ContourSpec("line", 0.0, b, T)
    return _mirror_lower_half(_finish([piece], order, spec))


def build_closed_loop(left_edge: float, delta: float = _DEFAULT_HALF_WIDTH,
                      nose: float = _DEFAULT_NOSE, order: int = 16, *,
                      max_frequency: float = 0.0, refine: float = 1.0) -> QuadratureGrid:
    """Closed positively-oriented loop: arms from `left_edge` to the nose arc,
    closed by a vertical edge at Re z = left_edge.

    Encircles exactly the gamma poles in (left_edge, nose).  max_frequency
    declares the largest |x| of an exp(x z) factor the grid must resolve.
    The grid is shared and read-only."""
    if not 0.0 < delta < 0.5:
        raise GeometryError(f"half-width must lie in (0, 1/2), got {delta}")
    if nose < delta:
        raise GeometryError(f"closed loop needs nose >= half-width, got {nose}")
    if nose <= left_edge:
        raise GeometryError("left edge must sit left of the nose")
    if abs(left_edge - round(left_edge)) < 0.5 * delta and round(left_edge) <= 0:
        raise GeometryError("closing edge too close to a gamma pole")
    first = _ARM_FIRST_WIDTH / refine
    if max_frequency > 0.0:
        first = min(first, 1.3 * order / max_frequency)
    panels = _geometric_count(nose - delta - left_edge, first, _ARM_GROWTH)
    return _shared_grid(_closed_loop, left_edge, delta, nose, order, panels,
                        _arc_panel_count(delta, max_frequency, order))


def _closed_loop(left_edge: float, delta: float, nose: float, order: int,
                 panels: int, arc_panels: int) -> QuadratureGrid:
    center = nose - delta
    length = center - left_edge
    arm_cuts = _geometric_cuts(length, panels, _ARM_GROWTH)

    lower = _segment(complex(left_edge, -delta), complex(center, -delta),
                     1.0 - arm_cuts[::-1] / length, order)
    arc = _arc(center, delta, -math.pi / 2.0, math.pi / 2.0, arc_panels, order)
    upper = _segment(complex(center, delta), complex(left_edge, delta),
                     arm_cuts / length, order)
    edge = _segment(complex(left_edge, delta), complex(left_edge, -delta),
                    np.linspace(0.0, 1.0, 3), order)

    pieces = [lower, arc, upper, edge]
    spec = ContourSpec("closed-loop", delta, nose, abs(left_edge), left_edge)
    grid = _finish(pieces, order, spec)
    if _min_pole_distance(grid.nodes) < 0.5 * delta - 1e-12:
        raise GeometryError("loop nodes too close to a gamma pole")
    return grid


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _shared_grid(construct, *geometry) -> QuadratureGrid:
    """construct(*geometry) with read-only nodes and weights, built once
    and shared by every caller while it is among the _GRID_CACHE_SIZE
    grids used last.  A construction that raises is not kept, so it
    raises again on the next call."""
    grid = construct(*geometry)
    grid.nodes.setflags(write=False)
    grid.weights.setflags(write=False)
    return grid


def deformed_contours(alpha: float, a: float, order: int = 16, *,
                      refine: float = 1.0) -> tuple[QuadratureGrid, QuadratureGrid]:
    """Steepest-descent-adapted contour pair: loop nose at 1/(alpha a), line
    through a/alpha, both cut where their Gaussian alpha/4 has dropped by
    e^-40, and the line resolving frequencies up to a.  Requires a^2 > 1
    so the two crossings stay separated."""
    if alpha <= 0.0:
        raise GeometryError("alpha must be positive")
    if a * a <= 1.0:
        raise GeometryError(f"deformed pair needs a^2 > 1, got a = {a}")
    nose = 1.0 / (alpha * a)
    b = a / alpha
    if b - nose < PAIR_MARGIN:
        raise GeometryError(f"loop nose {nose} and line {b} too close")
    T_loop = truncation_radius(alpha / 4.0, gamma_decay=True)
    T_line = truncation_radius(alpha / 4.0, growth=math.pi / 2.0)
    loop = build_hairpin(_DEFAULT_HALF_WIDTH, nose, T_loop, order=order,
                         refine=refine)
    line = build_vertical(b, T_line, order=order, refine=refine,
                          max_frequency=a)
    return loop, line


def gamma_contour_integral(grid: QuadratureGrid, alpha: float, a: float) -> complex:
    """(1/2pi i) * integral of Gamma(z) exp(-alpha z^2/2 + a z) over the grid.

    For any loop around the non-positive reals this equals the alternating
    residue series sum_k (-1)^k/k! exp(-alpha k^2/2 - a k)."""
    z = grid.nodes
    integrand = gamma(z) * np.exp(-alpha * z * z / 2.0 + a * z)
    return grid.integrate(integrand) / (2.0j * math.pi)
