"""Gamma-family tests.

Anchor values were computed with mpmath at 25 significant digits and frozen
here; the library itself never imports mpmath.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from critgap.contours import build_closed_loop
from critgap.kernels import _log_gamma_left
from critgap.special import (DomainError, PoleError, _digamma, gamma, log_gamma,
                             recip_gamma)

REL = 1e-11

# (argument, mpmath reference)
GAMMA_ANCHORS = [
    (0.5 + 0.0j, 1.772453850905516027298167 + 0.0j),
    (-0.5 + 0.25j, -2.754726975789625734864114 - 0.03100041637541338904228665j),
    (20.0 + 10.0j, 2741188744832832.615201062 - 10006853062146087.7591915j),
    (0.1 - 0.3j, 0.5686400382609745232500375 + 2.766802519027832525340512j),
    (-3.3 + 0.1j, 0.3834750580868688582468366 + 0.1405555645475723101898699j),
    (-10.5 + 0.0j, -2.640121820547716316246385e-7 + 0.0j),
]

LOG_GAMMA_ANCHORS = [
    (10.0 + 0.0j, 12.80182748008146961120772 + 0.0j),
    (100.0 + 5.0j, 359.0086311027488142749278 + 23.00291194242365545003332j),
]


def test_gamma_anchors():
    for z, ref in GAMMA_ANCHORS:
        assert abs(gamma(z) - ref) <= REL * abs(ref)


def test_log_gamma_anchors():
    for z, ref in LOG_GAMMA_ANCHORS:
        assert abs(log_gamma(z) - ref) <= REL * abs(ref)


def test_recip_gamma_anchor():
    ref = 42.29498020969168067438639 - 13.53981770886549913713368j
    assert abs(recip_gamma(0.5 + 3.0j) - ref) <= REL * abs(ref)


def test_recurrence_grid():
    # Gamma(z+1) = z Gamma(z) on a grid straddling both Lanczos branches
    for re in (-2.3, -0.7, 0.2, 1.5, 6.0):
        for im in (-4.0, -0.5, 0.3, 2.0):
            z = complex(re, im)
            lhs, rhs = gamma(z + 1.0), z * gamma(z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_reflection_grid():
    for re in (-1.6, 0.25, 0.8, 2.2):
        for im in (-2.0, 0.4, 1.3):
            z = complex(re, im)
            lhs = gamma(z) * gamma(1.0 - z)
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


def test_conjugate_symmetry():
    for z in (0.3 + 0.7j, -1.2 + 2.0j, 5.0 - 3.0j):
        assert gamma(z.conjugate()) == pytest.approx(gamma(z).conjugate(), rel=1e-13)
        assert log_gamma(complex(abs(z), z.imag).conjugate()) == pytest.approx(
            log_gamma(complex(abs(z), z.imag)).conjugate(), rel=1e-13)


def test_residue_limits():
    # (z + k) Gamma(z) -> (-1)^k / k! as z -> -k
    eps = 1e-7
    fact = 1.0
    for k in range(5):
        if k:
            fact *= k
        want = (-1.0) ** k / fact
        got = eps * gamma(complex(-k + eps))
        assert abs(got - want) <= 1e-6 * abs(want)


def test_recip_gamma_zeros_at_poles():
    # zero quality degrades like k! * eps through the reflection formula
    assert recip_gamma(0.0 + 0.0j) == 0.0
    for k in (1, 2, 3, 7):
        assert abs(recip_gamma(complex(-k))) <= 1e-10


def test_recip_times_gamma_is_one():
    for z in (0.4 + 0.9j, -2.5 + 1.0j, 3.0 - 0.2j, 0.5 + 0.0j):
        assert abs(recip_gamma(z) * gamma(z) - 1.0) <= 1e-12


def test_log_gamma_exponentiates_to_gamma():
    for z in (1.3 + 0.4j, 8.0 - 2.0j, 0.2 + 5.0j):
        assert cmath.exp(log_gamma(z)) == pytest.approx(gamma(z), rel=1e-12)


def test_pole_errors():
    for z in (0.0 + 0.0j, -1.0 + 0.0j, -6.0 + 0.0j, -3.0 + 1e-14j):
        with pytest.raises(PoleError):
            gamma(z)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(-1.0 + 0.5j)
    with pytest.raises(DomainError):
        log_gamma(0.0 + 0.0j)


def test_real_axis_positive_values():
    # positive reals: positive value, zero imaginary part
    for x in (0.1, 1.0, 2.5, 9.0):
        g = gamma(complex(x))
        assert g.imag == pytest.approx(0.0, abs=1e-13 * abs(g))
        assert g.real > 0.0
    assert gamma(complex(5.0)) == pytest.approx(24.0, rel=1e-13)


def test_array_anchors_keep_shape():
    z = np.array([z for z, _ in GAMMA_ANCHORS]).reshape(2, 3)
    ref = np.array([r for _, r in GAMMA_ANCHORS]).reshape(2, 3)
    got = gamma(z)
    assert got.shape == (2, 3)
    assert np.all(np.abs(got - ref) <= REL * np.abs(ref))
    z = np.array([z for z, _ in LOG_GAMMA_ANCHORS]).reshape(2, 1)
    ref = np.array([r for _, r in LOG_GAMMA_ANCHORS]).reshape(2, 1)
    got = log_gamma(z)
    assert got.shape == (2, 1)
    assert np.all(np.abs(got - ref) <= REL * np.abs(ref))


def test_scalar_input_returns_complex():
    for f in (gamma, log_gamma, recip_gamma):
        for z in (2.5, 0.5 + 3.0j, np.complex128(1.5 - 0.5j), np.array(4.0)):
            assert type(f(z)) is complex


def test_array_errors_name_any_bad_element():
    with pytest.raises(PoleError):
        gamma(np.array([[0.5 + 1.0j, 2.0], [-3.0, 1.5 - 2.0j]]))
    with pytest.raises(DomainError):
        log_gamma(np.array([1.0 + 1.0j, 3.0, -0.2 + 4.0j]))
    with pytest.raises(DomainError):
        log_gamma(np.array([1.0 + 1.0j, 0.0 + 2.0j]))


def test_log_gamma_left_exponentiates_to_gamma_on_a_loop():
    # the nose past 1/2 puts nodes on both branches of the reflection switch
    z = build_closed_loop(-5.5, nose=1.5).nodes
    assert np.any(z.real < 0.5) and np.any(z.real >= 0.5)
    got = np.exp(_log_gamma_left(z))
    ref = gamma(z)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_log_gamma_matches_mpmath_across_the_shift_region():
    # every point with |z| < 10 is shifted and its logs taken in pairs; the
    # points near the imaginary axis at |z| >= 10 are Stirling's worst angle
    mpmath = pytest.importorskip("mpmath")
    re = np.array([1e-3, 0.25, 0.5, 1.5, 4.0, 9.0])
    z = (re[:, None] + 1j * np.linspace(0.0, 14.0, 57)[None, :]).ravel()
    z = np.concatenate([z, z.conj()])
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.loggamma(mpmath.mpc(c.real, c.imag)))
                        for c in z])
    assert np.abs(log_gamma(z) - ref).max() <= 1.6e-14


def test_digamma_matches_mpmath_on_the_finite_kernel_line():
    # psi(s) and psi(s + n) on s = 1/2 + i sigma, the arguments of the
    # finite kernel's phase rate, for n up to the envelope m = 512 allows
    mpmath = pytest.importorskip("mpmath")
    sigma = np.linspace(0.0, 40.0, 81)
    z = np.concatenate([0.5 + n + 1j * sigma
                        for n in (0, 1, 4, 9, 10, 32, 100, 512)])
    z = np.concatenate([z, z.conj()])
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.digamma(mpmath.mpc(c.real, c.imag)))
                        for c in z])
    assert np.all(np.abs(_digamma(z) - ref) <= 4e-15 * np.maximum(np.abs(ref), 1.0))
