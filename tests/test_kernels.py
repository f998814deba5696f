"""Kernel evaluation tests.

Scalar anchors were produced by an independent high-precision route (pole
expansion of the loop integral plus a single line quadrature in mpmath at 30
digits) and frozen; the package's double-contour quadrature must reproduce
them.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

import complex_reference
from critgap import fredholm, kernels, validate
from critgap.contours import (GeometryError, build_closed_loop, build_hairpin,
                              build_vertical, truncation_radius)
from critgap.fredholm import HalfLineGrid
from critgap.kernels import _kernel_sum, _log_gamma_left
from critgap.special import DomainError, gamma, log_gamma, recip_gamma

REL = 1e-9

# (x, y, alpha, reference)
CRITICAL_ANCHORS = [
    (0.0, 0.0, 1.0, 0.5913963162899638755171),
    (1.0, 2.0, 2.0, 0.1029915053121357598491),
    (0.5, 0.7, 0.5, 0.05880084247488987246259),
    (2.0, 2.0, 2.0, 0.1088168037165805618617),
    (0.0, 1.0, 1.0, 0.1512471671300937895064),
]


def test_critical_kernel_anchors():
    for x, y, alpha, ref in CRITICAL_ANCHORS:
        got = kernels.critical_kernel(x, y, alpha)
        assert abs(got - ref) <= REL * abs(ref), (x, y, alpha)


def test_critical_kernel_alpha_05_needs_wider_contours():
    # slow Gaussian decay regime: truncation solve must stretch the grids
    got = kernels.critical_kernel(0.5, 0.7, 0.5)
    assert got == pytest.approx(0.05880084247488987246259, rel=1e-8)


def test_conjugated_anchor_and_relation():
    ref = 0.1698042855095434681462
    got = kernels.conjugated_kernel(1.0, 2.0, 2.0)
    assert got == pytest.approx(ref, rel=REL)
    # conjugation relation against the critical kernel
    for x, y, alpha in [(1.0, 2.0, 2.0), (0.5, 0.25, 1.0), (2.0, 1.0, 1.0)]:
        lhs = kernels.conjugated_kernel(x, y, alpha)
        rhs = math.exp(-(x - y) / 2.0) * kernels.critical_kernel(x, y, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_conjugated_domain():
    with pytest.raises(DomainError):
        kernels.conjugated_kernel(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        kernels.conjugated_kernel(1.0, -0.5, 1.0)


FOLD_ALPHAS = (0.25, 0.5, 1.0, 2.0, 8.0)
FOLD_AS = (0.5, 2.0, 4.0)


@pytest.mark.parametrize("alpha", FOLD_ALPHAS)
def test_kernel_matrix_fold_matches_full_sum(alpha):
    # the conjugation fold against the complex sum over both full grids:
    # shift 0.5 on length-40 halfline grids, shift 0 at points in
    # [0, a] (further right the critical kernel grows like e^{(x-y)/2})
    for a in FOLD_AS:
        for refine in (1.0, 0.5):
            x = HalfLineGrid(a, 40.0, max(1, round(8 * refine))).nodes
            pair = kernels.kernel_pair(alpha, x_max=a + 40.0, refine=refine)
            got = kernels.kernel_matrix(x, x, pair, shift=0.5)
            assert got.dtype == np.float64
            want = _kernel_sum(x, x, pair, 0.5).real
            assert np.abs(got - want).max() <= 1e-14, (alpha, a, refine)

            x0 = np.linspace(0.0, a, 9)
            pair0 = kernels.kernel_pair(alpha, x_max=a, refine=refine)
            got0 = kernels.kernel_matrix(x0, x0[::-1], pair0, shift=0.0)
            want0 = _kernel_sum(x0, x0[::-1], pair0, 0.0).real
            assert np.abs(got0 - want0).max() <= 1e-14, (alpha, a, refine)


def test_kernel_matrix_refuses_asymmetric_pairs():
    pair = kernels.kernel_pair(1.0, x_max=10.0)
    x = np.array([0.5, 1.0])
    nodes = pair.line.nodes.copy()
    nodes[7] += 1e-6j
    bent = dataclasses.replace(pair.line, nodes=nodes)
    with pytest.raises(GeometryError, match="not symmetric"):
        kernels.kernel_matrix(x, x, dataclasses.replace(pair, line=bent))
    line = pair.line
    odd = dataclasses.replace(line, nodes=line.nodes[1:],
                              weights=line.weights[1:])
    with pytest.raises(GeometryError, match="odd"):
        kernels.kernel_matrix(x, x, dataclasses.replace(pair, line=odd))
    loop = pair.loop
    odd = dataclasses.replace(loop, nodes=loop.nodes[:-1],
                              weights=loop.weights[:-1])
    with pytest.raises(GeometryError, match="odd"):
        kernels.kernel_matrix(x, x, dataclasses.replace(pair, loop=odd))


def test_factored_kernel_matches_conjugated():
    assert validate.check_kernel_factorization().passed


def test_factor_anchors():
    # the one-contour factors whose product factored_kernel integrates over
    # the coupling variable q, at shift x + q (loop) and y + q (line)
    def left(shift, alpha):
        loop = build_hairpin(T=truncation_radius(alpha / 2.0, gamma_decay=True),
                             max_frequency=max(1.0, shift))
        t = loop.nodes
        vals = gamma(t) * np.exp(-alpha * t * t / 2.0 + shift * (t - 0.5))
        return loop.integrate(vals) / (2j * math.pi)

    def right(shift, alpha):
        line = build_vertical(T=truncation_radius(alpha / 2.0,
                                                  growth=math.pi / 2.0),
                              max_frequency=max(1.0, shift))
        s = line.nodes
        vals = recip_gamma(s) * np.exp(alpha * s * s / 2.0 - shift * (s - 0.5))
        return line.integrate(vals) / (2j * math.pi)

    assert left(2.0, 2.0) == pytest.approx(0.349625488429467690261474, rel=REL)
    assert right(3.0, 2.0) == pytest.approx(0.1878757254952171779975, rel=REL)
    assert right(1.5, 1.0) == pytest.approx(0.4382840921810653423492, rel=REL)


def test_centering_shift():
    assert kernels.centering_shift(100, 100) == pytest.approx(
        101.0 * (math.log(100.0) - 0.005), rel=1e-15)
    assert kernels.centering_shift(1, 1) == -1.0


def test_finite_kernel_approaches_critical():
    n = 60
    a_n = kernels.centering_shift(n, n)
    finite = kernels.finite_kernel(a_n, a_n, n, n)
    crit = kernels.critical_kernel(0.0, 0.0, 1.0)
    assert abs(finite - crit) <= 0.05 * abs(crit)


def test_finite_kernel_off_diagonal():
    # convergence to the scaling limit is logarithmic; N=100 sits at ~3%
    n = 100
    a_n = kernels.centering_shift(n, n)
    finite = kernels.finite_kernel(a_n + 1.0, a_n + 2.0, n, n)
    crit = kernels.critical_kernel(1.0, 2.0, 1.0)
    assert abs(finite - crit) <= 0.05 * abs(crit)


def test_finite_kernel_rejects_huge_powers():
    with pytest.raises(DomainError):
        kernels.finite_kernel(0.0, 0.0, 4, 600)


def _dense_finite_kernel(x, y, n, m, line=None):
    """Reference: the exponent formed on the whole loop x line array with a
    complex log, shifted by its real peak, then exponentiated and summed, on
    finite_kernel's own grids or on the given line."""
    loop, own_line = kernels._finite_grids(x, y, n, m)
    line = own_line if line is None else line
    t, s = loop.nodes, line.nodes
    e = ((-(m + 1) * log_gamma(t + n) + _log_gamma_left(t) + x * t)[:, None]
         + ((m + 1) * log_gamma(s + n) - log_gamma(s) - y * s)[None, :]
         - np.log(s[None, :] - t[:, None]))
    peak = e.real.max()
    acc = loop.weights @ np.exp(e - peak) @ line.weights
    return (acc * math.exp(peak) / (2j * math.pi) ** 2).real


# (n, m, relative tolerance).  At (4, 512) the node sum cancels: the sum of
# |terms| exceeds |K| by about 2e8, and the two summation orders measured
# 6e-10 to 1.9e-9 apart at the points below.  finite_kernel contracts the
# loop in blocks of rows; (1, 1) fits in one block, and (24, 48) and
# (60, 60) end on a partial block (test_separable_cases_cover_block_edges).
SEPARABLE_CASES = [(1, 1, 1e-12), (32, 32, 1e-12), (24, 48, 1e-12),
                   (60, 60, 1e-12), (8, 200, 1e-12), (4, 512, 1e-8)]


def _block_rows(n, m):
    """Loop size and rows per block of finite_kernel's contraction at the
    centered point of (n, m)."""
    shift = kernels.centering_shift(n, m)
    loop, line = kernels._finite_grids(shift, shift, n, m)
    rows = max(1, kernels._BLOCK_BYTES // (8 * line.nodes.size))
    return loop.nodes.size, rows


def test_separable_cases_cover_block_edges():
    loop, rows = _block_rows(1, 1)
    assert loop < rows
    for n, m in [(24, 48), (60, 60)]:
        loop, rows = _block_rows(n, m)
        assert loop > rows and loop % rows, (n, m, loop, rows)


@pytest.mark.parametrize("n, m, rel", SEPARABLE_CASES)
def test_finite_kernel_matches_dense_log_space_sum(n, m, rel):
    shift = kernels.centering_shift(n, m)
    for x, y in [(0.3, -0.7), (0.0, 0.0)]:
        want = _dense_finite_kernel(x + shift, y + shift, n, m)
        got = kernels.finite_kernel(x + shift, y + shift, n, m)
        assert abs(got - want) <= rel * abs(want), (n, m, x, y)


# (n, m, y): the centred SEPARABLE_CASES, a point 20 right of the (32, 32)
# centre, and the far-left y = 0.5 at (8, 8), 17.7 left of its centre
RATE_POINTS = ([(n, m, kernels.centering_shift(n, m) - 0.7)
                for n, m, _ in SEPARABLE_CASES]
               + [(32, 32, kernels.centering_shift(32, 32) + 20.0), (8, 8, 0.5)])


@pytest.mark.parametrize("n, m, y", RATE_POINTS)
def test_line_rate_bounds_the_phase_rate_at_every_node(n, m, y):
    # |part_s'| = |(m+1) psi(s+n) - psi(s) - y| on every node of the line
    # finite_kernel builds, psi from mpmath; the rate sizes that same line
    mpmath = pytest.importorskip("mpmath")
    _, line = kernels._finite_grids(y, y, n, m)
    rate = kernels._line_rate(y, n, m, line.spec.truncation)
    with mpmath.workdps(20):
        # the line is its own mirror image and |part_s'| is mirror
        # symmetric, so the upper half holds every node's value
        slope = [abs((m + 1) * mpmath.digamma(mpmath.mpc(0.5 + n, c.imag))
                     - mpmath.digamma(mpmath.mpc(0.5, c.imag)) - y)
                 for c in line.nodes if c.imag >= 0.0]
    assert rate >= float(max(slope))
    # and the bound is tight: within 1% (or 0.25) of the largest node value
    assert rate <= 1.01 * float(max(slope)) + 0.25, (rate, float(max(slope)))


def test_centred_line_follows_the_phase_rate_not_y():
    # at the centring a_N = 113.9 of (32, 32) the integrand's phase rate is
    # about 8.9; a line sized for |y| had 2016 nodes, this one at most 1/5
    shift = kernels.centering_shift(32, 32)
    loop, line = kernels._finite_grids(shift, shift, 32, 32)
    assert kernels._line_rate(shift, 32, 32, line.spec.truncation) < 10.0
    assert line.nodes.size <= 2016 // 5, line.nodes.size
    # the loop is still sized by max(|x|, |y|, 1)
    same = build_closed_loop(-31.5, max_frequency=shift)
    assert np.array_equal(loop.nodes, same.nodes)
    assert np.array_equal(loop.weights, same.weights)


def _y_sized_line(y, n, m):
    """A line sized by the frequency max(|y|, 1), finer than the phase rate
    needs near the centring."""
    T_line = truncation_radius((m + 1) / n / 2.0, growth=math.pi / 2.0)
    return build_vertical(0.5, T_line, max_frequency=max(abs(y), 1.0))


@pytest.mark.parametrize("n, m, rel", SEPARABLE_CASES)
def test_finite_kernel_matches_a_y_sized_line(n, m, rel):
    # the phase-rate line loses nothing against a line sized for |y| (2016
    # nodes at (32, 32)), summed densely on the same loop; the differences
    # measured up to 1.5e-12 at (60, 60), summation noise of the sums
    shift = kernels.centering_shift(n, m)
    for x, y in [(0.3, -0.7), (0.0, 0.0), (-1.5, 1.5), (3.0, 3.0)]:
        x, y = x + shift, y + shift
        want = _dense_finite_kernel(x, y, n, m, line=_y_sized_line(y, n, m))
        got = kernels.finite_kernel(x, y, n, m)
        assert abs(got - want) <= max(rel, 5e-12) * max(1.0, abs(want)), (
            n, m, x, y)


def test_finite_kernel_allocation_budget():
    # the Cauchy pair is built and contracted in blocks of loop rows in one
    # reused buffer; the whole (2, loop, line) array at (32, 32) is 2.8 MB
    # (608 x 288 nodes), and a warmed call peaks near 1.2 MB
    shift = kernels.centering_shift(32, 32)
    kernels.finite_kernel(shift, shift, 32, 32)
    tracemalloc.start()
    try:
        kernels.finite_kernel(shift + 0.3, shift - 0.7, 32, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def test_finite_kernel_overflow_is_loud():
    with pytest.raises(OverflowError, match="exceeds 700"):
        kernels.finite_kernel(0.0, -1500.0, 1, 1)


def test_finite_kernel_rescaling_near_double_range():
    # the exponent peaks just under 700 here; this pins the arithmetic of the
    # rescaling against the reference, not the kernel (the loop sum cancels
    # catastrophically this far left, so the value itself is not K)
    want = _dense_finite_kernel(-1400.0, 0.0, 1, 1)
    got = kernels.finite_kernel(-1400.0, 0.0, 1, 1)
    assert 1e299 < want < 1e302
    assert abs(got - want) <= 1e-12 * want


def test_finite_kernel_far_left_of_the_edge():
    # n = m = 1: one pole inside the loop, so K(x, 0) = 0.367909... for every
    # x.  Far left the loop sum cancels; at x = -80 the leftover imaginary
    # part of the full complex contraction must still make it raise
    for x in (-20.0, -40.0):
        for order in (16, 24):
            got = kernels.finite_kernel(x, 0.0, 1, 1, order=order)
            assert got == pytest.approx(0.367909, abs=1e-6), (x, order)
    for order in (16, 24):
        with pytest.raises(ArithmeticError, match="imaginary"):
            kernels.finite_kernel(-80.0, 0.0, 1, 1, order=order)


def test_qa_matrix_block_structure():
    # the dense union matrix couples the contours only: its same-contour
    # blocks vanish exactly (f and h live in complementary components), and
    # its off-diagonal blocks are the inline A and B formulas
    a, alpha = 2.0, 1.0
    pair = kernels.qa_pair(alpha, a_max=a)
    q = complex_reference.union_matrix(pair, a)
    n_line = len(pair.line)
    assert np.all(q[:n_line, :n_line] == 0.0)
    assert np.all(q[n_line:, n_line:] == 0.0)
    want_a, want_b = complex_reference.cross_blocks(pair, a)
    np.testing.assert_allclose(q[:n_line, n_line:], want_a, rtol=1e-12)
    np.testing.assert_allclose(q[n_line:, :n_line], want_b, rtol=1e-12)


def _assert_factors_match(got, want_a, want_bt):
    """cross_blocks' two real factors against real_form of the complex
    blocks A W_loop and conj((B W_line)^T) on the upper-half line rows,
    within 1e-15 of max|entry|.  The real-form entries are sums and
    differences of mirror columns that cancel, so an elementwise rtol
    would not hold (gaps reach 2e-10 of an entry)."""
    left, right = got
    for factor, want in ((left, kernels.real_form(want_a)),
                         (right, kernels.real_form(want_bt.conj()))):
        assert factor.flags.c_contiguous and factor.dtype == np.float64
        assert np.abs(factor - want).max() <= 1e-15 * np.abs(want).max()


def test_cross_blocks_match_qa_matrix():
    # the union matrix's blocks A W_loop and (B W_line)^T on the upper-half
    # line rows, in real form
    a, alpha = 1.5, 2.0
    pair = kernels.qa_pair(alpha, a_max=a)
    q = complex_reference.union_matrix(pair, a)
    n_line, m = len(pair.line), len(pair.line) // 2
    _assert_factors_match(kernels.cross_blocks(pair, a),
                          q[m:n_line, n_line:] * pair.loop.weights[None, :],
                          q[n_line:, m:n_line].T * pair.line.weights[m:, None])


@pytest.mark.parametrize("alpha, a", [(0.5, 0.5), (1.0, 2.0), (2.0, 4.0)])
def test_shared_cauchy_factor_matches_inline_formulas(alpha, a):
    pair = kernels.qa_pair(alpha, a_max=a)
    m = len(pair.line) // 2
    want_a, want_b = complex_reference.cross_blocks(pair, a)
    _assert_factors_match(kernels.cross_blocks(pair, a),
                          want_a[m:] * pair.loop.weights,
                          (want_b * pair.line.weights)[:, m:].T)
    inner = kernels.qa_pair(alpha, a_max=a, refine=1.4, order=12).loop
    got = kernels.ha_matrix(pair, a, inner)
    want = kernels.real_form(
        (complex_reference.ha_matrix(pair, a, inner) * pair.line.weights)[m:])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_line_reduced_matches_block_product():
    # validate measures max|diff| / (1 + max|A B|), and max|A B| = 0.044 at
    # its point, so 4e-15 holds max|diff| below 1e-13 max|A B|.  It compares
    # two algorithms, ha_matrix's divided difference and the product of the
    # coupling blocks: 8.0e-17 apart
    assert validate.check_line_reduction().measured <= 4e-15


def _parent_ha_factors(pair, a, loop):
    """The two complex factors L and conj(Rt^T) of the line-reduced kernel
    on the upper-half line rows, formed whole: the n x p x n product form
    that ha_matrix's divided difference replaces."""
    alpha = pair.alpha
    m = len(pair.line) // 2
    z, wz = pair.line.nodes[m:], pair.line.weights[m:]
    t, wt = loop.nodes, loop.weights
    g = wt * gamma(t) * np.exp(a * t - alpha * t * t / 2.0) / (2j * math.pi)
    r = np.reciprocal(np.subtract.outer(z, t))
    left = r * g
    left *= np.exp(-a * z + alpha * z * z / 4.0)[:, None]
    right = r * (wz * recip_gamma(z) * np.exp(alpha * z * z / 4.0)
                 / (2j * math.pi))[:, None]
    return left, right.conj()


def qa_dense(a, alpha, refine=1.0):
    """contour-Q's K W at (a, alpha), formed densely from its factors."""
    return fredholm.DiscreteOperator(
        fredholm._contour_q_operator(a, alpha, refine).factors.dense())


@pytest.mark.parametrize("refine", [1.0, 0.5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_direct_real_factors_match_real_forms_of_the_blocks(alpha, refine):
    # contour-Q's factors are cross_blocks' bits, written into reused
    # buffers and compressed once per pair (fredholm.PairFactors): basis
    # times coefficients must give each a = 0 factor within 1e-14 of its
    # largest entry (3.7e-15 at most here), and contour-Q's K W the
    # product of the whole factors at a = 0 with e^{-az} on the upper-half
    # line rows and e^{at} on the upper-half loop columns within 1e-14 of
    # max|K W| (3.2e-15 at most).  ha_matrix, a divided difference of one
    # loop sum, must lie within 5e-15 of max|K W| of the product of its
    # two factors (2.2e-15 here), and ha_operator must hold it bit for
    # bit.  The sizes vary across the parameters, so the buffers are also
    # reused at other shapes than the ones they were grown for
    for a in (0.5, 1.7, 4.0):
        pair = kernels.qa_pair(alpha, a_max=a, refine=refine)
        for at in (0.0, a):
            for got, want in zip(kernels._real_factors(pair, at),
                                 kernels.cross_blocks(pair, at)):
                np.testing.assert_array_equal(got, want)
        op = qa_dense(a, alpha, refine=refine)
        left, right = kernels.cross_blocks(pair, 0.0)
        zero = fredholm._SHARED[fredholm._pair_key(pair)].at_zero
        for basis, coef, whole in ((zero.left_basis, zero.left, left),
                                   (zero.right_basis, zero.right, right)):
            assert (np.abs(basis @ coef - whole).max()
                    <= 1e-14 * np.abs(whole).max())
        z, t = pair.line.nodes, pair.loop.nodes
        want = fredholm.RealFactors(
            left, right, np.exp(-a * z[z.size // 2:]),
            np.exp(a * t[t.size // 2:])).dense()
        assert np.abs(op.matrix() - want).max() <= 1e-14 * np.abs(want).max()
        # the scalings against the factors written at a itself, an
        # independent assembly: within 6.8e-16 of max|K W| here
        left, right = kernels.cross_blocks(pair, a)
        at_a = left @ right.T
        assert np.abs(op.matrix() - at_a).max() <= 1e-14 * np.abs(at_a).max()

        inner = kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                                order=12).loop
        left, right = _parent_ha_factors(pair, a, inner)
        want = kernels.real_form(left) @ kernels.real_form(right).T
        got = kernels.ha_matrix(pair, a, inner)
        assert np.abs(got - want).max() <= 5e-15 * np.abs(want).max()
        op = fredholm.ha_operator(a, alpha, refine=refine)
        np.testing.assert_array_equal(op.matrix(), got)


def _ha_inner(alpha, a, refine):
    """ha_operator's coupling pair and its own loop."""
    return (kernels.qa_pair(alpha, a_max=a, refine=refine),
            kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                            order=12).loop)


@pytest.mark.parametrize("refine", [1.0, 0.5])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 8.0, 64.0, 96.0])
def test_ha_matrix_divided_difference_matches_complex_product(alpha, refine):
    # the divided difference (f(z) - f(z')) / (z' - z) cancels for nearby
    # nodes; with those entries summed directly the real form stays within
    # 2.7e-15 of max|K W| of the unfolded complex product, and without them
    # (the diagonal alone summed directly) it reaches 8.8e-15
    for a in (0.5, 1.0, 2.0, 4.0, 8.0):
        pair, inner = _ha_inner(alpha, a, refine)
        m = len(pair.line) // 2
        want = kernels.real_form(
            (complex_reference.ha_matrix(pair, a, inner)
             * pair.line.weights)[m:])
        got = kernels.ha_matrix(pair, a, inner)
        assert np.abs(got - want).max() <= 5e-15 * np.abs(want).max()


@pytest.mark.parametrize("refine", [1.0, 0.5])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 8.0])
def test_contour_h_determinant_matches_product_form(alpha, refine):
    # contour-H's P against det(I - K W) of the product of ha_matrix's two
    # factors, each written whole: at most 1.8e-15 apart here
    for a in (0.5, 1.0, 2.0, 4.0):
        pair, inner = _ha_inner(alpha, a, refine)
        left, right = _parent_ha_factors(pair, a, inner)
        want = fredholm.det_one_minus(fredholm.DiscreteOperator(
            kernels.real_form(left) @ kernels.real_form(right).T))[0]
        got = fredholm.det_one_minus(fredholm.ha_operator(a, alpha, refine))
        assert abs(got[0] - want) <= 1e-14


def test_real_factors_are_per_thread():
    # each thread writes contour-Q's factors and contour-H's work arrays
    # into buffers of its own, so concurrent assemblies return what serial
    # ones do
    cases = [(0.5, 1.7), (2.0, 4.0), (1.0, 0.5), (0.5, 4.0)]

    def both(alpha, a):
        return (qa_dense(a, alpha).matrix(),
                fredholm.ha_operator(a, alpha).matrix())

    serial = [both(alpha, a) for alpha, a in cases]
    got = [None] * len(cases)

    def work(i):
        for _ in range(3):
            got[i] = both(*cases[i])

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(cases))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for want, value in zip(serial, got):
        np.testing.assert_array_equal(value[0], want[0])
        np.testing.assert_array_equal(value[1], want[1])


def _commuting(rng, rows, cols):
    """A random complex matrix X with J conj(X) J = X."""
    x = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return x + x[::-1, ::-1].conj()


def _real_basis(n):
    """Columns e_up + e_mirror and i (e_up - e_mirror): the coordinates
    (Re v_up, Im v_up) of the subspace J conj v = v."""
    m = n // 2
    up = np.eye(n)[:, m:]
    mirror = np.eye(n)[:, m - 1::-1]
    return np.hstack([up + mirror, 1j * (up - mirror)])


def test_real_form_is_a_similarity():
    rng = np.random.default_rng(11)
    x, y = _commuting(rng, 8, 6), _commuting(rng, 6, 8)
    got = kernels.real_form(x[4:])
    assert got.dtype == np.float64
    # X V_cols = V_rows real_form(X)
    np.testing.assert_allclose(_real_basis(8) @ got, x @ _real_basis(6),
                               atol=1e-13)
    np.testing.assert_allclose(got @ kernels.real_form(y[3:]),
                               kernels.real_form((x @ y)[4:]), atol=1e-12)
    xy = x @ y
    assert np.linalg.det(np.eye(8) - kernels.real_form(xy[4:])) == pytest.approx(
        np.linalg.det(np.eye(8) - xy), rel=1e-12)
    with pytest.raises(GeometryError, match="odd"):
        kernels.real_form(x[4:, 1:])


def test_cross_blocks_and_ha_matrix_refuse_odd_grids():
    # an asymmetric line is refused through both operators (test_fredholm)
    pair = kernels.qa_pair(1.0, a_max=2.0)
    loop = pair.loop
    odd = dataclasses.replace(pair, loop=dataclasses.replace(
        loop, nodes=loop.nodes[1:], weights=loop.weights[1:]))
    with pytest.raises(GeometryError, match="odd"):
        kernels.cross_blocks(odd, 2.0)
    with pytest.raises(GeometryError, match="odd"):
        kernels.ha_matrix(odd, 2.0, odd.loop)
    # the divided difference needs z' - z = i (Im z' - Im z): a vertical line
    hairpin = dataclasses.replace(pair, line=loop)
    with pytest.raises(GeometryError, match="needs a line, got a hairpin"):
        kernels.ha_matrix(hairpin, 2.0, loop)


# the faults each rh_vectors component is given below: a rescaled and
# shifted f_line, a rotated h_line, a constant f_loop, a shifted h_loop
RH_VECTOR_FAULTS = (lambda v: 3.7 * v + 1.0, lambda v: -2.0 * v + 5j,
                    lambda v: np.full_like(v, v[0]), lambda v: v + 1000.0)


@pytest.mark.parametrize("part", range(4))
def test_jump_check_fails_on_wrong_rh_vectors(part, monkeypatch):
    # f.h = 0 holds by the block structure of (f, h) whatever rh_vectors
    # returns, so validate compares the real forms of the blocks they build
    # with cross_blocks (4.7e-16 relative on the true vectors); one wrong
    # component fails it
    assert validate.check_jump_unipotent().measured <= 1e-14
    true_vectors = kernels.rh_vectors

    def broken(pair, a):
        parts = list(true_vectors(pair, a))
        parts[part] = RH_VECTOR_FAULTS[part](parts[part])
        return tuple(parts)

    monkeypatch.setattr(kernels, "rh_vectors", broken)
    assert not validate.check_jump_unipotent().passed


def test_line_reduction_check_fails_on_a_wrong_factor(monkeypatch):
    # validate compares ha_matrix's divided difference with the product of
    # cross_blocks' two real factors (8.0e-17 apart); a right factor 1% too
    # large fails it
    assert validate.check_line_reduction().passed
    true_blocks = kernels.cross_blocks

    def broken(pair, a):
        left, right = true_blocks(pair, a)
        return left, 1.01 * right

    monkeypatch.setattr(kernels, "cross_blocks", broken)
    assert not validate.check_line_reduction().passed


def test_rh_vectors_orthogonality():
    a, alpha = 2.0, 1.0
    pair = kernels.qa_pair(alpha, a_max=a)
    parts = kernels.rh_vectors(pair, a)
    for part, grid in zip(parts, (pair.line, pair.line, pair.loop, pair.loop)):
        assert part.shape == grid.nodes.shape
        assert np.all(np.isfinite(part)) and np.all(part != 0.0)
    f, h = complex_reference.union_rows(pair, a)
    dots = np.einsum("ij,ij->i", f, h)
    assert np.max(np.abs(dots)) == 0.0  # disjoint supports: exactly zero
