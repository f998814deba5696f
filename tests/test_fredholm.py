"""Determinant engine tests.

Trace anchors come from an independent high-precision quadrature of the
kernel diagonal (mpmath, 30 digits).  Determinant values are cross-checked
against numpy's generic determinant on small systems and between the three
independent operator constructions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import complex_reference
from critgap import contours, fredholm, kernels, observables, validate
from critgap.contours import GeometryError
from critgap.fredholm import (DiscreteOperator, HalfLineGrid, SingularError,
                              det_one_minus, gap_probability,
                              halfline_operator, ha_operator,
                              solve_resolvent)
from critgap.observables import RhWorkspace

TRACE_0_INF_ALPHA1 = 0.5131565138586352785453
TRACE_5_INF_ALPHA2 = 3.688412361201974893414e-5


def qa_dense(a, alpha, refine=1.0):
    """contour-Q's K W at (a, alpha), formed densely from its factors."""
    left, right = fredholm._contour_q_operator(a, alpha, refine).factors
    return DiscreteOperator(left @ right.T)


def contour_q_route(a, alpha):
    """P(a) on the contour-Q route."""
    return gap_probability(a, alpha, "contour-Q")


def test_halfline_grid_structure():
    grid = HalfLineGrid(2.0, length=40.0, panels=8, order=16)
    assert len(grid) == 128
    assert np.all(grid.nodes > 2.0)
    assert np.all(grid.nodes < 42.0)
    assert np.sum(grid.weights) == pytest.approx(40.0, rel=1e-13)
    assert np.all(np.diff(grid.nodes) > 0)
    # graded toward a: node spacing widens from the left end to the right
    assert grid.nodes[1] - grid.nodes[0] < grid.nodes[-1] - grid.nodes[-2]


def test_halfline_grid_validation():
    with pytest.raises(ValueError):
        HalfLineGrid(1.0, 40.0, panels=0)
    with pytest.raises(ValueError):
        HalfLineGrid(1.0, 40.0, order=1)


@pytest.mark.parametrize("length", [0.0, -5.0, math.nan, math.inf])
def test_halfline_grid_rejects_degenerate_lengths(length):
    # length 0 gave weights summing to 0, so P = 1 silently; -5 gave
    # negative weights
    with pytest.raises(ValueError, match="length must be finite and positive"):
        HalfLineGrid(1.0, length=length)


def _gl_panels_per_panel(cuts, order):
    """The panel-by-panel form of contours._gl_panels, in its operation
    order."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes.append(mid + half * xg)
        weights.append(half * wg)
    return np.array(nodes), np.array(weights)


def test_real_grids_match_the_per_panel_form_bit_for_bit(monkeypatch):
    # HalfLineGrid and the real-line grid of asym_u1_12 fill every panel in
    # one broadcast; each must equal the panel-by-panel build exactly
    builds = [lambda: HalfLineGrid(2.0, 40.0, 8, 16),
              lambda: HalfLineGrid(0.1, 17.3, 3, 8),
              lambda: HalfLineGrid(4.0, 5.0, 1, 24),
              lambda: HalfLineGrid(1.7, 30.0, 16, 16),
              lambda: observables._u1_12_grid(4.0, 2.0, 16, 7.0),
              lambda: observables._u1_12_grid(12.0, 3.0, 24, 5.5)]
    got = [build() for build in builds]
    monkeypatch.setattr(fredholm, "_gl_panels", _gl_panels_per_panel)
    monkeypatch.setattr(observables, "_gl_panels", _gl_panels_per_panel)
    for grid, build in zip(got, builds):
        want = build()
        if isinstance(grid, HalfLineGrid):
            grid, want = (grid.nodes, grid.weights), (want.nodes, want.weights)
        assert all(np.array_equal(g, w) for g, w in zip(grid, want))


@pytest.mark.parametrize("a, alpha, name", [
    (math.inf, 1.0, "a"), (math.nan, 1.0, "a"), (-math.inf, 1.0, "a"),
    (1.0, math.nan, "alpha"), (1.0, math.inf, "alpha")])
def test_gap_probability_rejects_non_finite_inputs(a, alpha, name):
    # a = inf raised ZeroDivisionError, a NaN or infinite alpha a ValueError
    # about converting NaN to an integer from inside a grid builder
    for route in fredholm.ROUTES:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gap_probability(a, alpha, route)


def test_trace_anchors():
    # the trace of K W is the Nystrom sum of the kernel's diagonal
    op = halfline_operator(1e-12, 1.0)
    assert np.trace(op.matrix()) == pytest.approx(TRACE_0_INF_ALPHA1,
                                                  rel=1e-10)
    op5 = halfline_operator(5.0, 2.0)
    assert np.trace(op5.matrix()) == pytest.approx(TRACE_5_INF_ALPHA2,
                                                   rel=1e-10)


def test_det_matches_numpy_on_dense_system():
    rng = np.random.default_rng(5)
    k = rng.normal(size=(40, 40)) * 0.1
    op = DiscreteOperator(k)
    det, log_mag = det_one_minus(op)
    ref = np.linalg.det(np.eye(40) - k)
    assert det == pytest.approx(ref, rel=1e-11)
    assert log_mag == pytest.approx(math.log(abs(ref)), rel=1e-11)


@pytest.fixture
def factored(monkeypatch):
    """(seam, shape, dtype) of every matrix that fredholm factors or solves."""
    seen = []
    for name in ("lu_factor", "lu_solve"):
        def spy(a, *args, _name=name, _seam=getattr(fredholm, name)):
            seen.append((_name, a.shape, a.dtype))
            return _seam(a, *args)
        monkeypatch.setattr(fredholm, name, spy)
    return seen


def test_determinant_and_dense_solve_match_numpy():
    # I - K W is formed in a per-thread buffer: the determinant, its sign
    # and the dense solve must match numpy's on a fresh matrix, with
    # non-unit weights folded into K W, which must be left as it was
    rng = np.random.default_rng(11)
    n = 30
    kw = rng.normal(size=(n, n)) * 0.2 * rng.uniform(0.5, 1.5, n)
    kept = kw.copy()
    op = DiscreteOperator(kw)
    a = np.eye(n) - kw
    det, log_mag = det_one_minus(op)
    ref = np.linalg.det(a)
    assert det == pytest.approx(ref, rel=1e-12)
    assert log_mag == pytest.approx(math.log(abs(ref)), rel=1e-12)
    rhs = rng.normal(size=(n, 2))
    np.testing.assert_allclose(solve_resolvent(op, rhs),
                               np.linalg.solve(a, rhs), rtol=1e-12, atol=1e-13)
    assert op.factors is None
    assert np.array_equal(op.matrix(), kept)
    assert op.matrix() is kw


def test_dense_operator_is_never_sketched(factored):
    # a dense operator is never reduced to a small matrix: the determinant
    # and the solve both take the n x n LU, and no K x K LU is made
    op = halfline_operator(1.5, 1.0)
    n = op.matrix().shape[0]
    assert n == 48  # 3 panels of 16 on the length-8.1 grid
    det_one_minus(op)
    solve_resolvent(op, np.exp(-np.linspace(0.0, 3.0, n)))
    assert op.factors is None
    assert [(seam, shape) for seam, shape, _ in factored] == [
        ("lu_factor", (n, n)), ("lu_solve", (n, n))]


@pytest.mark.parametrize("kw", [np.eye(4, dtype=complex) * 0.1,
                                np.eye(4, dtype=np.float32) * 0.1],
                         ids=["complex", "float32"])
def test_operator_refuses_a_kw_that_is_not_float64(kw):
    # K W is real by construction on every route; a complex K W is refused
    # where it is made rather than cast, or failing, at its first LU
    with pytest.raises(TypeError, match="float64"):
        DiscreteOperator(kw)


def _random_operator(n, seed):
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(n, n)) * (0.5 / math.sqrt(n))
    return k * rng.uniform(0.5, 1.5, n)


def test_determinant_buffer_carries_no_state():
    # every determinant writes I - K W into one grow-only buffer per
    # thread; interleaved operators of growing and shrinking sizes, with a
    # dense solve writing the buffer in between, must factor exactly the
    # matrix numpy factors from a fresh array.  The LU is of the transpose,
    # which numpy copies without strides
    cases = [(40, 1), (90, 2), (20, 3), (150, 4), (35, 5), (40, 1)]
    for case in cases + [(60, 6)] + cases[::-1]:
        kw = _random_operator(*case)
        op = DiscreteOperator(kw)
        if case[0] == 60:
            solve_resolvent(op, np.ones(60))
        else:
            want = np.linalg.slogdet((np.eye(case[0]) - kw).T)
            assert op._factor() == tuple(want)


def test_determinants_across_threads_are_bit_identical():
    # the buffer is per thread, so threads factoring operators of different
    # sizes at once never see each other's I - K W
    cases = [(120, 7), (60, 8), (200, 9)]
    want = [det_one_minus(DiscreteOperator(_random_operator(*c)))
            for c in cases]
    start = threading.Barrier(4)
    seen = [[] for _ in range(4)]

    def sweep(i):
        start.wait()
        for j in range(15):
            case = cases[(i + j) % len(cases)]
            op = DiscreteOperator(_random_operator(*case))
            seen[i].append((case, det_one_minus(op)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for runs in seen:
        assert len(runs) == 15
        assert all(det == want[cases.index(case)] for case, det in runs)


def test_solve_resolvent_residual():
    op = halfline_operator(1.5, 1.0)
    n = op.matrix().shape[0]
    rhs = np.exp(-np.linspace(0.0, 3.0, n))
    x = solve_resolvent(op, rhs)
    resid = rhs - (x - op.matrix() @ x)
    assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_halfline_operator_is_real(factored):
    op = halfline_operator(2.0, 1.0)
    n = op.matrix().shape[0]
    assert op.matrix().dtype == np.float64
    det, _ = det_one_minus(op)
    assert type(det) is float
    # the two-contour operators are factored in their real form
    op_q = qa_dense(2.0, 1.0)
    det_one_minus(op_q)
    m = op_q.matrix().shape[0]
    assert factored == [("lu_factor", (n, n), np.float64),
                        ("lu_factor", (m, m), np.float64)]  # real LUs only


def test_singular_operator_detected():
    op = DiscreteOperator(np.eye(6))  # I - K W is exactly singular
    with pytest.warns(fredholm.SingularWarning):
        det, log_mag = det_one_minus(op)
    assert det == 0.0
    assert log_mag == -math.inf
    with pytest.raises(SingularError):
        solve_resolvent(op, np.ones(6))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_operator_has_a_nan_determinant():
    # an unresolved kernel (halfline at alpha 1/256) is all NaN; its
    # determinant must read NaN, not overflow to inf
    op = DiscreteOperator(np.full((6, 6), math.nan))
    det, log_mag = det_one_minus(op)
    assert math.isnan(det) and math.isnan(log_mag)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("route", fredholm.ROUTES)
def test_unresolved_alpha_raises_on_every_route(route):
    # at alpha 1/256 the default contours do not resolve the kernel: every
    # route's matrix is NaN.  halfline's NaN determinant and the two-contour
    # routes' NaN rounding scale raise; neither returns P = NaN
    with pytest.raises(ArithmeticError, match="nan"):
        gap_probability(1.0, 1 / 256, route)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unresolved_alpha_raises_in_the_workspace():
    with pytest.raises(ArithmeticError, match="rounding scale nan"):
        RhWorkspace(1 / 256, 2.0).y1(1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("call", ["workspace", "contour-Q"])
def test_a_nan_operator_raises_without_a_square_array(call):
    # at alpha 1/256 the right factor holds NaN: the guard reads a NaN scale
    # and raises before any LU, and a warmed call allocates at most an
    # eighth of one n x n array (3.6 and 2.0 MB measured, n = 5504 for the
    # workspace's line and 3072 for contour-Q's)
    if call == "workspace":
        ws = RhWorkspace(1 / 256, 2.0)
        n = len(ws.line)
        run = lambda: ws.y1(1.0)  # noqa: E731
    else:
        n = len(kernels._qa_line(1 / 256, a_max=1.0))
        run = lambda: gap_probability(  # noqa: E731
            1.0, 1 / 256, "contour-Q", estimate_error=False)
    with pytest.raises(ArithmeticError):
        run()  # builds the grids and their gamma values
    tracemalloc.start()
    try:
        with pytest.raises(ArithmeticError, match="rounding scale nan"):
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == (5504 if call == "workspace" else 3072)
    assert peak <= n * n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1 / 128, 1 / 64])
def test_halfline_raises_on_an_infinite_determinant(alpha):
    # at 1/64 the pole rule's determinant is finite, -3.3e206, and is
    # refused as no probability
    with pytest.raises(ArithmeticError,
                       match="determinant is inf|is not a probability"):
        gap_probability(1.0, alpha, "halfline", estimate_error=False)


def _low_rank_operator(n, rank, seed):
    # K = U V^T from random factors, with non-unit weights: rank-`rank`
    # K W = U (W V)^T, held as those two factors
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, rank)) / np.sqrt(n)
    v = rng.normal(size=(n, rank)) / np.sqrt(n)
    w = rng.uniform(0.5, 1.5, n)
    return DiscreteOperator(None, (u, w[:, None] * v)), rng


def test_low_rank_operator_solves_by_woodbury(factored):
    op, rng = _low_rank_operator(200, 4, 21)
    left, right = op.factors
    a = np.eye(200) - left @ right.T
    rhs = rng.normal(size=(200, 2))
    x = solve_resolvent(op, rhs)
    assert op.matrix() is None
    want = np.linalg.solve(a, rhs)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    det, _ = det_one_minus(op)
    assert det == pytest.approx(np.linalg.det(a), rel=1e-12)
    # the only matrix factored is I_K - right^T left, once per solve and
    # once for the determinant
    assert [(seam, shape) for seam, shape, _ in factored] == [
        ("lu_solve", (4, 4)), ("lu_factor", (4, 4))]


def test_factored_solves_are_bit_identical():
    # two solves of one operator, and of an operator on copies of its
    # factors, give the same bits
    op, rng = _low_rank_operator(200, 4, 22)
    rhs = rng.normal(size=200)
    first = solve_resolvent(op, rhs)
    again = solve_resolvent(op, rhs)
    twin = DiscreteOperator(None, tuple(f.copy() for f in op.factors))
    other = solve_resolvent(twin, rhs)
    assert np.array_equal(first, again) and np.array_equal(first, other)


def test_singular_low_rank_operator_raises_through_the_k_by_k_matrix(
        factored):
    # K = e_0 e_0^T has rank 1 and I - K is exactly singular: the zero
    # pivot appears in the 1 x 1 matrix I_K - right^T left
    n = 200
    e0 = np.zeros((n, 1))
    e0[0] = 1.0
    op = DiscreteOperator(None, (e0, e0))
    with pytest.raises(SingularError, match="numerically singular"):
        solve_resolvent(op, np.ones(n))
    assert [shape for _, shape, _ in factored] == [(1, 1)]  # no n x n LU


def test_contour_q_and_u_load_no_numpy_random():
    # numpy.random costs megabytes of RSS on import; a fresh interpreter
    # that computes a contour-Q P and a u must never load it
    src = os.path.dirname(os.path.dirname(os.path.abspath(fredholm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from critgap import fredholm, observables\n"
            "fredholm.gap_probability(1.7, 1.0, 'contour-Q')\n"
            "observables.u_of_x(1.7, 1.0)\n"
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def test_contour_q_factors_only_the_k_by_k_matrix(factored, monkeypatch):
    # contour-Q's P is det(I_K - right^T left) on the pole rule: neither run
    # of the err pair forms or factors the n x n operator, and both factor
    # a K x K matrix, K the pole count, which depends on (alpha, a) alone
    def no_square(n):
        raise AssertionError(f"wrote a {n} x {n} buffer")

    monkeypatch.setattr(fredholm, "_square_buffer", no_square)
    res = gap_probability(1.7, 0.5, "contour-Q")
    assert 0.0 < res.p < 1.0 and res.err <= 1e-9
    k = kernels._poles(0.5, 1.7)[0].size
    assert 1 <= k <= 21
    assert factored == [("lu_factor", (k, k), np.float64)] * 2


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 8.0])
def test_contour_q_matches_the_dense_lu(alpha):
    # det(I_K - right^T left) equals det(I - left right^T), the dense LU of
    # the formed 2m x 2m K W, within 5e-14
    for a in (0.5, 1.0, 2.0, 4.0):
        for refine in (1.0, 0.5):
            small = gap_probability(a, alpha, "contour-Q", refine=refine,
                                    estimate_error=False).p
            dense, _ = det_one_minus(qa_dense(a, alpha, refine=refine))
            assert abs(small - dense) <= 5e-14, (a, refine)


def test_contour_q_matches_the_refined_halfline():
    # on the pole rule contour-Q's loop sum is exact to e^-45, and its P
    # lies within 2e-11 of halfline at refine 2 (6.9e-12 at most, at alpha
    # 0.2); the loop quadrature it replaced was 2.6e-11 off at alpha 0.25
    # and 3.6e-10 at alpha 0.5, a = 0.1, where qa_pair sizes the loop for
    # a frequency of a alone
    for alpha in (0.2, 0.25, 0.5, 1.0, 2.0, 8.0, 64.0):
        for a in (0.1, 0.5, 1.0, 2.0, 4.0):
            want = gap_probability(a, alpha, "halfline", refine=2.0,
                                   estimate_error=False).p
            got = gap_probability(a, alpha, "contour-Q",
                                  estimate_error=False).p
            assert abs(got - want) <= 2e-11, (alpha, a)


@pytest.mark.parametrize("alpha, raises", [
    (0.12, True), (128.0, True), (0.2, False), (96.0, False)])
def test_contour_q_keeps_the_rounding_guard(alpha, raises):
    # the guard reads max|K W| through the two factors; it must fire
    # exactly where the dense operator's scale did (a <= 4)
    for a in (0.5, 1.0, 2.0, 4.0):
        if raises:
            with pytest.raises(ArithmeticError, match="rounding scale"):
                gap_probability(a, alpha, "contour-Q")
        else:
            assert math.isfinite(gap_probability(a, alpha, "contour-Q").p)


# the guard's raise set on alpha x a: every a at alpha 0.1, and a up to 8
# at alpha 0.12, up to 4 at alpha 0.15 and alpha 128
GUARD_ALPHAS = (0.1, 0.12, 0.15, 0.2, 0.5, 1.0, 2.0, 8.0, 64.0, 96.0, 128.0)
GUARD_AS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
GUARD_RAISES_UP_TO = {0.1: 16.0, 0.12: 8.0, 0.15: 4.0, 128.0: 4.0}


def _trips_the_guard(call) -> bool:
    try:
        call()
    except ArithmeticError as exc:
        if "rounding scale" not in str(exc):
            raise
        return True
    return False


def test_rounding_guard_raise_set_is_pinned():
    # contour-Q and the workspace read the same guard, max|Q B| of their
    # sketches; on this grid both fire on exactly the same 23 points, at
    # sketch ranks 8 and 16 alike.  A cheaper guard or another rank must
    # keep this set
    want = {(alpha, a) for alpha in GUARD_ALPHAS for a in GUARD_AS
            if a <= GUARD_RAISES_UP_TO.get(alpha, 0.0)}
    assert len(want) == 23
    on_q, on_workspace = set(), set()
    for alpha in GUARD_ALPHAS:
        ws = RhWorkspace(alpha, 16.0)
        for a in GUARD_AS:
            if _trips_the_guard(lambda: gap_probability(
                    a, alpha, "contour-Q", estimate_error=False)):
                on_q.add((alpha, a))
            if _trips_the_guard(lambda: ws.y1(a)):
                on_workspace.add((alpha, a))
    assert on_q == want
    assert on_workspace == want


def test_contour_h_rounding_guard_raise_set_is_pinned():
    # contour-H reads max|K W| of its dense matrix, an independent
    # quadrature and assembly; it fires on the same 23 points as contour-Q,
    # and a new assembly of its matrix must keep this set
    want = {(alpha, a) for alpha in GUARD_ALPHAS for a in GUARD_AS
            if a <= GUARD_RAISES_UP_TO.get(alpha, 0.0)}
    got = {(alpha, a) for alpha in GUARD_ALPHAS for a in GUARD_AS
           if _trips_the_guard(lambda: gap_probability(
               a, alpha, "contour-H", estimate_error=False))}
    assert got == want


def test_guard_max_is_the_max_of_q_b_without_forming_it(monkeypatch):
    # on every operator the pinned raise set's grid measures, the guard's
    # max|K W| through the factors equals abs(left @ right.T).max() bit for
    # bit, and its scale is kept on the operator as rounding_scale.  No
    # square buffer is written
    seen = []
    max_abs = fredholm._max_abs_product

    def spy(q, b):
        peak = max_abs(q, b)
        seen.append((peak, float(np.abs(q @ b).max())))
        return peak

    def no_square(n):
        raise AssertionError(f"wrote a {n} x {n} buffer")

    monkeypatch.setattr(fredholm, "_max_abs_product", spy)
    monkeypatch.setattr(fredholm, "_square_buffer", no_square)
    for alpha in GUARD_ALPHAS:
        for a in GUARD_AS:
            op = fredholm._contour_q_operator(a, alpha, 1.0)
            _trips_the_guard(
                lambda: fredholm.check_rounding_scale(op, "guard grid"))
            peak, want = seen[-1]
            assert peak == want, (alpha, a)
            assert op.rounding_scale == (
                op.factors[0].shape[0] * fredholm._EPS * want)
    assert len(seen) == len(GUARD_ALPHAS) * len(GUARD_AS)


def test_guard_max_is_nan_on_a_nan_operator():
    rng = np.random.default_rng(31)
    q, b = rng.normal(size=(96, 8)), rng.normal(size=(8, 96))
    assert fredholm._max_abs_product(q, b) == float(np.abs(q @ b).max())
    for where in ("q", "b"):
        qn, bn = q.copy(), b.copy()
        (qn if where == "q" else bn)[5, 7] = math.nan
        assert math.isnan(fredholm._max_abs_product(qn, bn)), where


def test_a_shared_operator_is_measured_once(monkeypatch):
    # the guard measures an operator once and keeps the scale on it, so
    # callers that share one each raise with their own context (alpha 128
    # trips the guard)
    calls = []
    max_abs = fredholm._max_abs_product

    def spy(q, b):
        calls.append(q.shape)
        return max_abs(q, b)

    monkeypatch.setattr(fredholm, "_max_abs_product", spy)
    op = fredholm._contour_q_operator(1.0, 128.0, 1.0)
    scale = r"alpha=128.0, a=1.0: entries reach rounding scale"
    for context in ("contour-Q", "RhWorkspace.y1"):
        with pytest.raises(ArithmeticError, match=rf"^{context} at {scale}"):
            fredholm.check_rounding_scale(op, f"{context} at alpha=128.0, "
                                              "a=1.0")
    assert len(calls) == 1


@pytest.mark.parametrize("alpha", [0.1, 0.15, 0.2, 0.5, 1.0, 2.0, 8.0, 64.0,
                                   96.0, 128.0])
def test_pole_rule_covers_the_resolved_domain(alpha):
    # the pole rule keeps K <= 21 poles, the first dropped term below e^-45
    # of the first, and every contour-Q operator and every workspace point
    # of the guard's alphas, 0.1, 0.15 and 128 included, has a finite
    # determinant of that size.  A regime that left the rule's bounds
    # would fail here
    def check(op, where):
        k = op.factors[0].shape[1]
        assert 1 <= k <= 21, where
        assert np.isfinite(det_one_minus(op)[1]), where

    for a in (0.1, 1.0, 4.0, 16.0):
        k = kernels._poles(alpha, a)[0].size
        assert (alpha * k * k / 2.0 + a * k + math.lgamma(k + 1.0)
                > kernels._POLE_LOG), a
        for refine in (1.0, 0.5):
            check(fredholm._contour_q_operator(a, alpha, refine), (a, refine))
    ws = RhWorkspace(alpha, 16.0)
    for a in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        check(DiscreteOperator(None, kernels.cross_blocks(ws.line, alpha, a)),
              a)


@pytest.mark.parametrize("alpha", [0.2, 0.25, 0.5, 1.0, 2.0, 8.0, 64.0, 96.0])
def test_compressed_factors_keep_p_log_p_and_u(alpha):
    # the pole rule compresses each loop sum, and so the (2m, p) factors of
    # a loop quadrature, to K columns by the residue theorem.  On the same
    # line, contour-Q's P and log P and the workspace's u must be those of
    # a dense union solve whose loop is a quadrature refined 3 times at
    # order 24, to 4 rounding scales (the guard's n eps max|K W|) plus
    # 1e-13 for the rounding of the identity in either LU, which that scale
    # does not count.  Measured: at most 0.03 scales (alpha 0.2, a = 0.5);
    # past the scales, 5.3e-13 (alpha 96, a = 2)
    for a in (0.5, 2.0):
        res = gap_probability(a, alpha, "contour-Q", estimate_error=False)
        op = fredholm._contour_q_operator(a, alpha, 1.0)
        fredholm.check_rounding_scale(op, "compressed")
        ws = RhWorkspace(alpha, a)
        assert kernels.qa_pair(alpha, a_max=a).line is ws.line
        loop = kernels.qa_pair(alpha, a_max=a, refine=3.0, order=24).loop
        pair = kernels.ContourPair(loop, ws.line, alpha)
        w = np.concatenate([pair.line.weights, pair.loop.weights])
        one_minus = (np.eye(w.size)
                     - complex_reference.union_matrix(pair, a) * w[None, :])
        f, h = complex_reference.union_rows(pair, a)
        ref = (w[:, None] * np.linalg.solve(one_minus, f)).T @ h
        sign, log_p = np.linalg.slogdet(one_minus)
        bound = 4.0 * op.rounding_scale + 1e-13
        assert abs(res.p - (sign * np.exp(log_p)).real) <= bound, ("P", a)
        assert abs(res.log_p - log_p) <= bound, ("log P", a)
        u = -(ref[0, 1] * ref[1, 0])
        assert abs(ws.y1(a).u - u) <= bound, ("u", a)


def test_route_agreement_spot():
    for a, alpha in [(1.5, 1.0), (2.5, 2.0)]:
        assert validate.route_spread(a, alpha) <= 1e-9


def test_gap_probability_monotone_and_bounded():
    alpha = 1.0
    prev = 0.0
    for a in np.linspace(0.25, 5.0, 12):
        p = gap_probability(float(a), alpha, "halfline",
                            estimate_error=False).p
        assert 0.0 < p <= 1.0 + 1e-12
        assert p >= prev - 1e-12
        prev = p


def test_gap_result_fields():
    res = gap_probability(2.0, 1.0, "halfline", refine=1.0)
    assert res.a == 2.0 and res.alpha == 1.0 and res.route == "halfline"
    assert res.err <= 1e-9
    assert res.log_p == pytest.approx(math.log(res.p), rel=1e-12)


def test_gap_probability_rejects_bad_input():
    with pytest.raises(ValueError):
        gap_probability(0.0, 1.0)
    with pytest.raises(ValueError):
        gap_probability(-1.0, 1.0)
    with pytest.raises(ValueError):
        gap_probability(2.0, 1.0, route="simpson")


def test_refinement_converges():
    coarse = gap_probability(1.0, 1.0, "halfline", refine=0.5,
                             estimate_error=False).p
    fine = gap_probability(1.0, 1.0, "halfline", refine=1.5,
                           estimate_error=False).p
    default = gap_probability(1.0, 1.0, "halfline", estimate_error=False).p
    assert abs(fine - default) <= abs(coarse - default) + 1e-13


def test_operator_reuses_lu_factorization(factored):
    op = halfline_operator(2.0, 1.0)
    first = det_one_minus(op)
    assert det_one_minus(op) == first
    assert len(factored) == 1  # the second determinant reads the cache


def test_qa_and_ha_operator_shapes():
    op_q = qa_dense(2.0, 1.0)
    op_h = ha_operator(2.0, 1.0)
    # both live on the pair's line grid; contour-Q reaches it by a Schur
    # complement, contour-H by integrating out its own loop.  Each holds
    # the real form of K W as a dense array
    n = len(kernels.qa_pair(1.0, a_max=2.0, a=2.0).line)
    for op in (op_q, op_h):
        assert op.factors is None
        assert op.matrix().shape == (n, n)
        assert op.matrix().dtype == np.float64


def test_every_route_operator_is_float64(monkeypatch):
    # each route's determinant is taken of a real K W: a float64 array
    # (halfline, contour-H) or two float64 factors (contour-Q)
    seen = []

    def spy(op):
        seen.append(op)
        return det_one_minus(op)

    monkeypatch.setattr(fredholm, "det_one_minus", spy)
    for route in fredholm.ROUTES:
        gap_probability(1.7, 1.0, route, estimate_error=False)
    halfline, contour_q, contour_h = seen
    assert halfline.factors is None and contour_h.factors is None
    assert contour_q.kw is None
    arrays = [halfline.kw, contour_h.kw, *contour_q.factors]
    assert all(array.dtype == np.float64 for array in arrays)


def test_qa_operator_matches_union_determinant():
    # det(I - Q W) of the full [[0, A], [B, 0]] union matrix, formed densely
    for a, alpha in [(0.5, 1.0), (2.0, 0.5), (3.0, 2.0)]:
        pair = kernels.qa_pair(alpha, a_max=a)
        q = complex_reference.union_matrix(pair, a)
        w = np.concatenate([pair.line.weights, pair.loop.weights])
        full = np.linalg.det(np.eye(w.size) - q * w[None, :])
        det, _ = det_one_minus(qa_dense(a, alpha))
        assert abs(det - full) <= 1e-13 * abs(full)


ROUTE_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
ROUTE_AS = (0.5, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("alpha", ROUTE_ALPHAS)
@pytest.mark.parametrize("a", ROUTE_AS)
def test_route_agreement_grid(a, alpha):
    assert validate.route_spread(a, alpha) <= 1e-9


def test_two_contour_similarity_is_real():
    # J conj(K W) J = K W on the mirror-symmetric line grid, so U* (K W) U
    # is real: the premise of the real LUs of contour-Q, contour-H and the
    # workspace solve
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, 4.0)
        for kw in (complex_reference.line_matrix(1.7, alpha, "contour-Q"),
                   complex_reference.line_matrix(1.7, alpha, "contour-H"),
                   complex_reference.workspace_matrix(ws, 1.7)):
            u = complex_reference.mirror_similarity(kw.shape[0])
            similar = u.conj().T @ kw @ u
            assert np.abs(similar.imag).max() <= 1e-14 * np.abs(similar).max()


@pytest.mark.parametrize("alpha", ROUTE_ALPHAS)
def test_folded_determinants_match_complex_reference(alpha):
    for a in ROUTE_AS:
        for refine in (1.0, 0.5):
            for route, build in (("contour-Q", qa_dense),
                                 ("contour-H", ha_operator)):
                kw = complex_reference.line_matrix(a, alpha, route, refine)
                want = np.linalg.det(np.eye(kw.shape[0]) - kw)
                op = build(a, alpha, refine=refine)
                assert op.matrix().dtype == np.float64
                det, _ = det_one_minus(op)
                assert abs(det - want) <= 1e-13 * abs(want), (route, a, refine)


def test_asymmetric_line_grid_is_refused(monkeypatch):
    build_vertical = kernels.build_vertical

    def bent(*args, **kwargs):
        # the builder's grid is shared and read-only: bend a copy
        grid = build_vertical(*args, **kwargs)
        nodes = grid.nodes.copy()
        nodes[5] += 1e-6
        return dataclasses.replace(grid, nodes=nodes)

    monkeypatch.setattr(kernels, "build_vertical", bent)
    with pytest.raises(GeometryError, match="not symmetric"):
        qa_dense(2.0, 1.0)
    with pytest.raises(GeometryError, match="not symmetric"):
        ha_operator(2.0, 1.0)


@pytest.mark.parametrize("alpha", [0.05, 128.0])
def test_rounding_dominated_two_contour_routes_are_loud(alpha):
    # outside the alpha range the default contours resolve, the two-contour
    # entries grow until the determinant is lost to cancellation: at alpha
    # 128, a = 1 the real forms give P = 0.51488 and 0.51490 against
    # halfline's 0.51507, at alpha 0.05 near 4e5 and 2e7
    for a in (0.5, 1.0):
        for route in ("contour-Q", "contour-H"):
            with pytest.raises(ArithmeticError, match="rounding scale"):
                gap_probability(a, alpha, route, estimate_error=False)


def test_rounding_guard_passes_resolved_alphas():
    # alpha 64 and 0.2 lie inside the resolved range; their rounding scales
    # are 1.5e-12 and 7.8e-11
    for alpha in (0.2, 64.0):
        ps = [gap_probability(1.0, alpha, r, estimate_error=False).p
              for r in ("contour-Q", "contour-H")]
        assert abs(ps[0] - ps[1]) <= 1e-9


# mpmath (25 digits) of the one-pole formula, which gives P as alpha -> inf:
# 1 - (1/2 pi i) int_{Re s = 1/2} e^{alpha s^2/2 - a s} / (s Gamma(s + 1)) ds
P_ONE_POLE_A1_ALPHA128 = 0.51511153151002166


def test_halfline_has_no_rounding_guard():
    # halfline returns where the two-contour routes raise.  At alpha 0.05
    # its err is the signal: it covers the distance of P from 1.  At alpha
    # 128 (rounding scale 5e-10) its decay-sized grid reaches x = 108 and
    # P matches the one-pole anchor; the fixed length 40 it replaced was
    # about 4e-5 away, and its refine-0.5 run came out negative
    res = gap_probability(4.0, 0.05)
    assert abs(res.p - 1.0) <= res.err <= 1e-6
    res = gap_probability(1.0, 128.0)
    assert abs(res.p - P_ONE_POLE_A1_ALPHA128) <= 1e-8


def test_a_p_that_is_not_a_probability_raises():
    # at alpha 1/32 halfline's determinant is finite but P = 2.54 at a = 1;
    # at alpha 1/16 P stays within 3.5e-9 of [0, 1] and is returned
    with pytest.raises(ArithmeticError, match="is not a probability"):
        gap_probability(1.0, 1 / 32, "halfline")
    res = gap_probability(1.0, 1 / 16, "halfline")
    assert -1e-7 <= res.p <= 1.0 + 1e-7


def test_the_halved_run_is_not_held_to_the_probability_bound(monkeypatch):
    # err compares P with the refine/2 run, which may stray further than
    # the bound; only the P that is returned is checked
    route_det = fredholm._route_det

    def stray_half(a, alpha, route, refine):
        p, log_mag = route_det(a, alpha, route, refine)
        return (p + 0.5, log_mag) if refine < 1.0 else (p, log_mag)

    monkeypatch.setattr(fredholm, "_route_det", stray_half)
    res = gap_probability(2.0, 1.0, "halfline")
    assert 0.0 < res.p < 1.0 and res.err == pytest.approx(0.5)


# mpmath (ROADMAP item 12): the loop's residue series, the trapezoid rule
# on the line and a Gauss-Legendre Nystrom determinant, all in mpmath;
# shares only the residue identity with the package's double-precision
# halfline
P_MPMATH_A2_ALPHA1 = 0.99583929270890362976


def test_halfline_matches_the_mpmath_anchor():
    res = gap_probability(2.0, 1.0, "halfline", estimate_error=False)
    assert abs(res.p - P_MPMATH_A2_ALPHA1) <= 1e-14


def _halfline_p(a, alpha, panels, line_refine):
    """halfline's P on its own length, with the given panel count and a
    line refined line_refine times."""
    length = max(5.0, fredholm._decay_end(alpha) - a, min(40.0, 2.0 / alpha))
    grid = HalfLineGrid(a, length, panels)
    line = kernels._kernel_line(alpha, x_max=max(11.0, a + length),
                                refine=line_refine)
    kw = kernels.kernel_matrix(grid.nodes, grid.nodes, line, alpha)
    return det_one_minus(DiscreteOperator(kw * grid.weights))[0]


@pytest.mark.parametrize("alpha", [0.2, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                                   32.0, 64.0])
def test_halfline_is_converged_in_its_grid_and_line(alpha):
    # 3 to 8 panels and the default line against 16 panels on a line
    # refined twice.  Measured: at most 1.1e-14 (alpha 32, a = 0.25)
    for a in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0):
        p = gap_probability(a, alpha, "halfline", estimate_error=False).p
        assert abs(p - _halfline_p(a, alpha, 16, 2.0)) <= 2e-14, a


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_routes_agree_at_alpha_64(a):
    # the decay-sized halfline grid reaches x = 77 here; the fixed length
    # 40 it replaced cut off the Gaussian tail and sat 2e-7 from the
    # two-contour routes
    ps = [gap_probability(a, 64.0, route, estimate_error=False).p
          for route in fredholm.ROUTES]
    assert max(ps) - min(ps) <= 1e-9


@pytest.mark.parametrize("alpha", [1 / 256, 0.05, 0.25, 0.5, 1.0, 8.0, 64.0])
def test_halfline_grid_follows_the_decay(alpha):
    # length L = max(5, x_end - a, min(40, 2 / alpha)), x_end where
    # exp(-x^2 / 2 alpha) reaches e^-46, min(8, max(3, ceil(L / 5)))
    # panels of 16, and a line of frequency max(11, a + L): the operator's
    # K W is the kernel matrix on that grid with its columns scaled by the
    # weights, bit for bit.  From alpha 0.05 down (mc --compare reaches
    # alpha = M/N = 1/256) the capped floor gives the fixed length 40.  At
    # 1/256 the entries are NaN on both (the default line does not resolve
    # the kernel there: 1/Gamma on its nodes divides by zero and overflows
    # as it is built, and numpy warns of the invalid value), hence
    # assert_array_equal.  The grid cache is cleared, so the line is built
    # here whatever ran before
    a = 1.0
    panels = {1 / 256: 8, 0.05: 8, 0.25: 3, 0.5: 3, 1.0: 3, 8.0: 6,
              64.0: 8}[alpha]
    x_end = math.sqrt(92.0 * alpha)
    length = max(5.0, x_end - a, min(40.0, 2.0 / alpha))
    if alpha <= 0.05:
        assert length == 40.0
    assert panels == min(8, max(3, math.ceil(length / 5.0)))
    grid = HalfLineGrid(a, length, panels, 16)
    assert grid.weights.sum() == pytest.approx(length, rel=1e-13)
    unresolved = alpha < 0.01
    contours._shared_grid.cache_clear()
    with (pytest.warns(RuntimeWarning) if unresolved
          else contextlib.nullcontext()) as seen:
        op = halfline_operator(a, alpha)
        line = kernels._kernel_line(alpha, x_max=max(11.0, a + length))
        want = kernels.kernel_matrix(grid.nodes, grid.nodes, line, alpha)
    if unresolved:
        messages = [str(w.message) for w in seen]
        assert any(m.startswith("invalid value") for m in messages)
        build = ("divide by zero", "overflow", "invalid value")
        assert all(m.startswith(build) for m in messages), messages
    assert op.matrix().shape == (16 * panels, 16 * panels)
    assert np.isnan(op.matrix()).all() == unresolved
    np.testing.assert_array_equal(op.matrix(), want * grid.weights)


@pytest.mark.parametrize("call, args, name", [
    (observables.y1_matrix, (math.nan, 1.0), "a"),
    (observables.y1_matrix, (2.0, math.nan), "alpha"),
    (observables.y1_matrix, (math.inf, 1.0), "a"),
    (observables.u_of_x, (math.nan, 1.0), "x"),
    (observables.log_gap_from_u, (2.0, math.inf), "alpha"),
    (observables.log_gap_from_u, (math.nan, 1.0), "a"),
    (RhWorkspace, (math.nan, 2.0), "alpha"),
    (RhWorkspace, (1.0, math.inf), "x_max"),
    (kernels.critical_kernel, (math.nan, 1.0, 1.0), "x"),
    (kernels.critical_kernel, (1.0, 1.0, math.inf), "alpha"),
    (kernels.conjugated_kernel, (1.0, math.nan, 1.0), "y"),
    (halfline_operator, (math.nan, 1.0), "a"),
    (halfline_operator, (1.0, math.inf), "alpha"),
    (contour_q_route, (1.0, math.nan), "alpha"),
    (contour_q_route, (-math.inf, 1.0), "a"),
    (ha_operator, (math.inf, 1.0), "a"),
    (ha_operator, (1.0, math.nan), "alpha"),
    (kernels.factored_kernel, (math.nan, 1.0, 1.0), "x"),
    (kernels.factored_kernel, (math.inf, 1.0, 1.0), "x"),
    (observables.residue_sum, (1.0, math.nan), "a"),
    (observables.asym_u1_21, (math.nan, 1.0), "a"),
    (observables.u_asymptotic, (math.nan, 1.0), "x"),
    (observables.asym_u1_12, (math.nan, 1.0), "a"),
    (observables.asym_u1_12_closed, (1.0, math.inf), "alpha"),
])
def test_entry_points_reject_non_finite_inputs(call, args, name):
    # each raised from inside a grid builder before: "cannot convert float
    # NaN to integer", ZeroDivisionError for an infinite a, or "Gaussian
    # coefficient must be positive" for an infinite alpha
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(*args)


def test_halfline_still_refuses_negative_alpha():
    with pytest.raises(GeometryError, match="alpha must be positive"):
        halfline_operator(1.0, -1.0)
