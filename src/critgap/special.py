"""Complex gamma, log-gamma and reciprocal gamma.

All downstream contour integrands are built from these three functions, so the
accuracy targets here (about 1e-13 relative away from poles) set the noise
floor for every kernel evaluation and determinant in the package.  Each
function is elementwise over an array of any shape, so a contour's node
array is evaluated in one call; a scalar argument returns a Python complex.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "PoleError",
    "gamma",
    "log_gamma",
    "recip_gamma",
]


class PoleError(ZeroDivisionError):
    """Evaluation requested at (or within 1e-12 of) a non-positive integer."""


class DomainError(ValueError):
    """Argument outside the documented domain of the function."""


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is not finite; the
    public entry points call it before any grid is sized from a value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# Lanczos approximation, g = 7, 9 coefficients.  Relative error is a few
# units of 1e-14 over the right half-plane, uniform enough for |z| <= 50.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_TWO_PI = math.log(2.0 * math.pi)
_POLE_TOL = 1e-12

# Stirling series coefficients B_{2n} / (2n (2n-1)) for n = 1..8.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# psi's Stirling series: the coefficients (2n - 1) c_n of w^{-2n}, highest n
# first, from psi(w) = (d/dw) log Gamma(w)
_DIGAMMA_SERIES = tuple((2 * n - 1) * c
                        for n, c in reversed(list(enumerate(_STIRLING, 1))))

# Stirling is accurate once |z| is at least this large (with Re z > 0): the
# first omitted term, B_18 / (18 * 17 z^17), times the sec^18(arg z / 2) <= 2^9
# of the right half-plane remainder bound, is below 1e-15 at |z| = 10.
_STIRLING_RADIUS = 10.0


def _unwrap(out: np.ndarray):
    """A 0-d result goes back to the caller as a Python complex."""
    return complex(out) if out.ndim == 0 else out


def _lanczos(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0.5
    zm = z - 1.0
    acc = np.full(zm.shape, _LANCZOS_C[0], dtype=complex)
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (zm + 0.5) * np.exp(-t) * acc


def _by_half_plane(z: np.ndarray, right, left):
    """right(z) on Re z >= 1/2 and left(z) on Re z < 1/2, elementwise; each
    branch only ever sees the elements of its own half-plane."""
    out = np.empty(z.shape, dtype=complex)
    on_left = z.real < 0.5
    out[on_left] = left(z[on_left])
    out[~on_left] = right(z[~on_left])
    return _unwrap(out)


def gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Gamma function for complex argument, elementwise over any array shape.

    Lanczos rational approximation on Re z >= 1/2, reflection formula on the
    left half-plane.  Raises PoleError if any element lies within 1e-12 of a
    non-positive integer.
    """
    z = np.asarray(z, dtype=complex)
    pole = np.minimum(np.round(z.real), 0.0)
    near = (z.real < 0.5) & (np.abs(z - pole) < _POLE_TOL)
    if np.any(near):
        raise PoleError(f"gamma pole at or near {complex(z[near][0])}")
    # Gamma(z) Gamma(1-z) = pi / sin(pi z)
    return _by_half_plane(
        z, _lanczos,
        lambda w: math.pi / (np.sin(math.pi * w) * _lanczos(1.0 - w)))


def log_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Principal branch of log Gamma on the right half-plane Re z > 0,
    elementwise over any array shape.

    Computed by shifting z up with the recurrence until Stirling's series
    applies; both the shift logs and the series are analytic on Re z > 0, so
    the result is the analytic continuation from the positive real axis (NOT
    the principal log of gamma(z), whose imaginary part would wrap).  Raises
    DomainError if any element has Re z <= 0.
    """
    z = np.asarray(z, dtype=complex)
    bad = z.real <= 0.0
    if np.any(bad):
        raise DomainError(f"log_gamma requires Re z > 0, got {complex(z[bad][0])}")
    # |z + k| grows with k on Re z > 0, so the fewest shifts reaching the
    # Stirling radius is the least k >= 0 with Re z + k >= sqrt(R^2 - Im^2 z)
    reach = np.sqrt(np.maximum(_STIRLING_RADIUS ** 2 - z.imag ** 2, 0.0))
    count = np.maximum(np.ceil(reach - z.real), 0.0)
    # log Gamma(z) = log Gamma(z + count) - sum_k log(z + k), the logs taken
    # in pairs log((z + k)(z + k + 1)): both factors have Re > 0, so the
    # product's argument stays in (-pi, pi) and its principal log adds no
    # 2 pi i; an odd count leaves its last factor alone
    low = count > 0
    steps = np.arange(0.0, count.max(initial=0.0), 2.0)
    left = count[low][:, None]
    terms = z[low][:, None] + steps
    np.multiply(terms, terms + 1.0, out=terms, where=steps + 1.0 < left)
    shift = np.zeros(z.shape, dtype=complex)
    shift[low] = np.log(terms, out=np.zeros(terms.shape, dtype=complex),
                        where=steps < left).sum(axis=1)
    z = z + count
    w = (z - 0.5) * np.log(z) - z + 0.5 * _LOG_TWO_PI
    zi = 1.0 / z
    zi2 = zi * zi
    term = zi
    for c in _STIRLING:
        w += c * term
        term = term * zi2
    return _unwrap(w - shift)


def _digamma(z: np.ndarray) -> np.ndarray:
    """Digamma psi = (log Gamma)' on Re z > 0, elementwise over an array.

    The same shift-then-Stirling scheme as log_gamma: psi(z) =
    psi(z + count) - sum_{k < count} 1/(z + k), with count the fewest shifts
    reaching the Stirling radius and psi(w) = log w - 1/(2w) -
    sum_n (2n - 1) c_n w^{-2n}, c_n the log-gamma series coefficients
    (_DIGAMMA_SERIES).
    The caller keeps Re z > 0.
    """
    z = np.asarray(z, dtype=complex)
    reach = np.sqrt(np.maximum(_STIRLING_RADIUS ** 2 - z.imag ** 2, 0.0))
    count = np.maximum(np.ceil(reach - z.real), 0.0)
    steps = np.arange(count.max(initial=0.0))
    terms = np.reciprocal(z[..., None] + steps)
    shift = np.sum(terms, axis=-1, where=steps < count[..., None])
    w = z + count
    wi = np.reciprocal(w)
    wi2 = wi * wi
    # the series in Horner form, highest power first
    acc = np.full(w.shape, _DIGAMMA_SERIES[0], dtype=complex)
    for c in _DIGAMMA_SERIES[1:]:
        acc *= wi2
        acc += c
    acc *= wi2
    acc += 0.5 * wi
    acc += shift
    return np.log(w) - acc


def recip_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Entire reciprocal 1/Gamma(z), elementwise over any array shape;
    evaluates to ~0 at non-positive integers."""
    # 1/Gamma(z) = sin(pi z) Gamma(1-z) / pi, entire in z
    return _by_half_plane(
        np.asarray(z, dtype=complex), lambda w: 1.0 / _lanczos(w),
        lambda w: np.sin(math.pi * w) * _lanczos(1.0 - w) / math.pi)
