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
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import complex_reference
from critgap import contours, fredholm, kernels, observables, validate
from critgap.contours import GeometryError
from critgap.fredholm import (DiscreteOperator, HalfLineGrid, RealFactors,
                              SingularError, det_one_minus, gap_probability,
                              halfline_operator, ha_operator,
                              solve_resolvent)
from critgap.observables import RhWorkspace

TRACE_0_INF_ALPHA1 = 0.5131565138586352785453
TRACE_5_INF_ALPHA2 = 3.688412361201974893414e-5


def qa_dense(a, alpha, refine=1.0):
    """contour-Q's K W at (a, alpha), formed densely from its factors."""
    return DiscreteOperator(
        fredholm._contour_q_operator(a, alpha, refine).factors.dense())


def whole_factors(a, alpha, refine=1.0):
    """contour-Q's K W at (a, alpha) as the whole a = 0 factors of its pair
    (kernels.cross_blocks) with the e^{-az} and e^{at} scalings: the
    factors that contour-Q holds compressed."""
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine)
    left, right = kernels.cross_blocks(pair, 0.0)
    z, t = pair.line.nodes, pair.loop.nodes
    return RealFactors(left, right, np.exp(-a * z[z.size // 2:]),
                       np.exp(a * t[t.size // 2:]))


def whole_operator(a, alpha, refine=1.0):
    """whole_factors' operator, sketched."""
    return DiscreteOperator(None, whole_factors(a, alpha, refine))


def qa_whole(a, alpha, refine=1.0):
    """whole_factors' K W, formed densely."""
    return DiscreteOperator(whole_factors(a, alpha, refine).dense())


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
    assert op.solve_path == "dense" and math.isnan(op.sketch_tail)
    assert np.array_equal(op.matrix(), kept)
    assert op.matrix() is kw


def test_dense_operator_is_never_sketched(factored):
    # halfline's n = 128 leaves room for a sketch, but only a factored
    # operator is sketched: the determinant and the solve both take the
    # n x n LU, and no sketch's k x k LU is made
    op = halfline_operator(1.5, 1.0)
    n = op.matrix().shape[0]
    assert n == 128
    det_one_minus(op)
    solve_resolvent(op, np.exp(-np.linspace(0.0, 3.0, n)))
    assert op.solve_path == "dense" and math.isnan(op.sketch_tail)
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
    op_q = qa_whole(2.0, 1.0)
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
    assert op.solve_path == "dense"


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
def test_a_nan_operator_fails_at_the_first_sketch_rank(call, monkeypatch):
    # at alpha 1/256 the probe product is NaN: the sketch stops at rank 8,
    # the guard reads a NaN scale and raises, and neither a larger rank
    # nor the dense n x n fallback is tried (n = 5504 for the workspace,
    # 3072 for contour-Q's pair).  The rank-8 probes are the only ones
    # drawn, and a warmed call allocates at most an eighth of one n x n
    # array (1.6 and 0.9 MB measured, against 242 and 75 MB)
    drawn = []
    probes = fredholm._probes

    def spy(n, k):
        drawn.append((n, k))
        return probes(n, k)

    monkeypatch.setattr(fredholm, "_probes", spy)
    if call == "workspace":
        ws = RhWorkspace(1 / 256, 2.0)
        run = lambda: ws.y1(1.0)  # noqa: E731
    else:
        run = lambda: gap_probability(  # noqa: E731
            1.0, 1 / 256, "contour-Q", estimate_error=False)
        with pytest.raises(ArithmeticError):
            run()  # grows this thread's factor buffers
    tracemalloc.start()
    try:
        with pytest.raises(ArithmeticError, match="rounding scale nan"):
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [n] = {n for n, _ in drawn}
    assert {k for _, k in drawn} == {fredholm._SKETCH_RANK}
    assert n == (5504 if call == "workspace" else 3072)
    assert peak <= n * n


def test_a_failed_sketch_forms_no_square_array(monkeypatch):
    # with a zero tail tolerance no sketch passes, and contour-Q and the
    # workspace raise without forming K W in its place: neither
    # RealFactors.dense() nor the square LU buffer is reached, and a warm
    # call allocates less than one n x n array of bytes
    def no_operator(factors):
        raise AssertionError(f"formed a {factors.n}-row K W")

    def no_square(n):
        raise AssertionError(f"wrote a {n} x {n} buffer")

    monkeypatch.setattr(fredholm, "_TAIL_TOL", 0.0)
    monkeypatch.setattr(RealFactors, "dense", no_operator)
    monkeypatch.setattr(fredholm, "_square_buffer", no_square)
    ws = RhWorkspace(1.0, 16.0)
    calls = {
        "contour-Q": lambda: gap_probability(8.0, 1.0, "contour-Q",
                                             estimate_error=False),
        "workspace": lambda: ws.y1(8.0)}
    n = len(ws.line)
    for name, run in calls.items():
        with pytest.raises(ArithmeticError, match="rank-8 sketch"):
            run()  # compresses the pair, grows this thread's buffers
        tracemalloc.start()
        try:
            with pytest.raises(ArithmeticError, match="rank-8 sketch"):
                run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= n * n, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1 / 128, 1 / 64])
def test_halfline_raises_on_an_infinite_determinant(alpha):
    with pytest.raises(ArithmeticError, match="determinant is inf"):
        gap_probability(1.0, alpha, "halfline", estimate_error=False)


def _low_rank_operator(n, rank, seed):
    # K = U V^T from random factors, with non-unit weights: rank-`rank`
    # K W = U (W V)^T, held as those two factors
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, rank)) / np.sqrt(n)
    v = rng.normal(size=(n, rank)) / np.sqrt(n)
    w = rng.uniform(0.5, 1.5, n)
    return DiscreteOperator(None, RealFactors(u, w[:, None] * v)), rng


def test_low_rank_operator_solves_through_the_sketch(factored):
    op, rng = _low_rank_operator(200, 4, 21)
    a = np.eye(200) - op.factors.dense()
    rhs = rng.normal(size=(200, 2))
    x = solve_resolvent(op, rhs)
    assert op.solve_path == "sketch" and op.matrix() is None
    k = fredholm._SKETCH_RANK
    assert op.sketch_tail <= 1e-13
    want = np.linalg.solve(a, rhs)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    # the only matrix factored is S, once for its sign and once per solve
    assert [(seam, shape) for seam, shape, _ in factored] == [
        ("lu_factor", (k, k)), ("lu_solve", (k, k))]


def test_sketched_solves_are_bit_identical():
    # the probes are drawn from a fixed seed per (n, k), so two operators
    # with the same factors, and two solves of one, give the same bits, also
    # when the probes are drawn afresh in between
    op, rng = _low_rank_operator(200, 4, 22)
    rhs = rng.normal(size=200)
    first = solve_resolvent(op, rhs)
    again = solve_resolvent(op, rhs)
    fredholm._probes.cache_clear()
    twin = DiscreteOperator(None, RealFactors(op.factors.left.copy(),
                                              op.factors.right.copy()))
    other = solve_resolvent(twin, rhs)
    assert twin.solve_path == op.solve_path == "sketch"
    assert np.array_equal(first, again) and np.array_equal(first, other)
    assert twin.sketch_tail == op.sketch_tail


def test_singular_low_rank_operator_raises_through_the_sketch(factored):
    # K = e_0 e_0^T has rank 1 and I - K is exactly singular; the sketch
    # captures K exactly, so the zero pivot appears in the k x k system
    n = 200
    e0 = np.zeros((n, 1))
    e0[0] = 1.0
    op = DiscreteOperator(None, RealFactors(e0, e0))
    with pytest.raises(SingularError, match="numerically singular"):
        solve_resolvent(op, np.ones(n))
    assert op.solve_path == "sketch" and op.sketch_tail == 0.0
    k = fredholm._SKETCH_RANK
    assert [shape for _, shape, _ in factored] == [(k, k)]  # no n x n LU


def test_full_rank_operator_raises_naming_rank_and_tail(factored):
    # a random K, held as the factors (K, I), has no small tail at rank 8:
    # the determinant, the solve and the rounding guard raise
    # ArithmeticError naming the rank and the tail (the guard after its
    # context), and K W is neither formed nor factored
    rng = np.random.default_rng(23)
    n = 128
    k = rng.normal(size=(n, n)) * 0.05
    op = DiscreteOperator(None, RealFactors(k, np.eye(n)))
    assert op.solve_path == "sketch" and op.sketch_tail > 0.1
    message = re.escape(
        f"the rank-8 sketch of K W leaves a relative tail of "
        f"{op.sketch_tail:.1e} (limit 1e-13)")
    with pytest.raises(ArithmeticError, match="^" + message):
        det_one_minus(op)
    with pytest.raises(ArithmeticError, match="^" + message):
        solve_resolvent(op, rng.normal(size=n))
    with pytest.raises(ArithmeticError, match="^full rank: " + message):
        fredholm.check_rounding_scale(op, "full rank")
    assert op.matrix() is None and op.rounding_scale is None
    assert factored == []


def test_probes_are_fixed_read_only_gaussians():
    # drawn from a splitmix64 stream seeded by (n, k), not numpy.random:
    # the same bits on every draw, and standard normal to sampling error
    first = fredholm._probes(670, 16)
    fredholm._probes.cache_clear()
    again = fredholm._probes(670, 16)
    assert first is not again and np.array_equal(first, again)
    assert first.shape == (670, 16 + fredholm._TAIL_PROBES)
    assert not first.flags.writeable
    assert abs(first.mean()) <= 0.05 and abs(first.std() - 1.0) <= 0.05
    assert not np.array_equal(fredholm._probes(670, 32)[:, :20], first)


def test_sketches_load_no_numpy_random():
    # numpy.random costs megabytes of RSS on import; a fresh interpreter
    # that computes a contour-Q P (a sketched determinant) and a u (a
    # sketched solve) must never load it
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


def test_contour_q_factors_only_the_sketch(factored, monkeypatch):
    # contour-Q's P is det(I_k - B Q) of the rank-k sketch of its factors:
    # neither run of the err pair forms the n x n operator or factors it
    def no_operator(factors):
        raise AssertionError(f"formed a {factors.left.shape[0]}-row operator")

    monkeypatch.setattr(RealFactors, "dense", no_operator)
    res = gap_probability(1.7, 0.5, "contour-Q")
    assert 0.0 < res.p < 1.0 and res.err <= 1e-9
    k = fredholm._SKETCH_RANK
    assert factored == [("lu_factor", (k, k), np.float64)] * 2


@pytest.mark.parametrize("a, alpha", [(1.7, 0.5), (0.5, 2.0)])
def test_contour_q_raises_past_the_tail_tolerance(a, alpha, factored,
                                                  monkeypatch):
    # no sketch passes a zero tail tolerance: the route raises
    # ArithmeticError naming its context, the rank and the tail, and so do
    # det_one_minus and solve_resolvent on its operator; nothing is
    # factored
    monkeypatch.setattr(fredholm, "_TAIL_TOL", 0.0)
    op = fredholm._contour_q_operator(a, alpha, 1.0)
    assert op.solve_path == "sketch" and op.sketch_tail > 0.0
    message = re.escape(
        f"the rank-8 sketch of K W leaves a relative tail of "
        f"{op.sketch_tail:.1e} (limit 0e+00)")
    with pytest.raises(ArithmeticError, match=re.escape(
            f"contour-Q at alpha={alpha}, a={a}: ") + message):
        gap_probability(a, alpha, "contour-Q", estimate_error=False)
    with pytest.raises(ArithmeticError, match="^" + message):
        det_one_minus(op)
    with pytest.raises(ArithmeticError, match="^" + message):
        solve_resolvent(op, np.ones(op.factors.n))
    assert op.matrix() is None and factored == []


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 8.0])
def test_sketched_contour_q_matches_the_dense_lu(alpha):
    # the sketch's tail is below 1e-13 of K W, and its determinant lies
    # within 5e-14 of the dense LU's (3.5e-14 at most at rank 8, 1.1e-14 at
    # rank 16)
    for a in (0.5, 1.0, 2.0, 4.0):
        for refine in (1.0, 0.5):
            sketched = gap_probability(a, alpha, "contour-Q", refine=refine,
                                       estimate_error=False).p
            dense, _ = det_one_minus(qa_dense(a, alpha, refine=refine))
            assert abs(sketched - dense) <= 5e-14, (a, refine)


@pytest.mark.parametrize("alpha, raises", [
    (0.12, True), (128.0, True), (0.2, False), (96.0, False)])
def test_sketched_contour_q_keeps_the_rounding_guard(alpha, raises):
    # the guard reads max|Q B| of the sketch in place of max|K W|; it must
    # fire exactly where the dense operator's scale did (a <= 4)
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
    # max|Q B| equals abs(Q @ B).max() bit for bit, and its scale is kept
    # on the operator as rounding_scale.  No square buffer is written
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
                op.factors.n * fredholm._EPS * want)
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
    # contour-Q on the pair of a live workspace takes the workspace's
    # operator at that a; the guard measures it once, and contour-Q and
    # y1 each raise with their own context (alpha 128 trips the guard)
    calls = []
    max_abs = fredholm._max_abs_product

    def spy(q, b):
        calls.append(q.shape)
        return max_abs(q, b)

    monkeypatch.setattr(fredholm, "_max_abs_product", spy)
    ws = RhWorkspace(128.0, 1.0)
    scale = r"alpha=128.0, a=1.0: entries reach rounding scale"
    with pytest.raises(ArithmeticError, match=rf"^contour-Q at {scale}"):
        gap_probability(1.0, 128.0, "contour-Q", estimate_error=False)
    with pytest.raises(ArithmeticError, match=rf"^RhWorkspace.y1 at {scale}"):
        ws.y1(1.0)
    assert len(calls) == 1


COMPRESSED_AS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def _workspace_u(alpha, a):
    """u(a) on a workspace of contour-Q's pair at a, refine 1."""
    return RhWorkspace(alpha, a).y1(a).u


@pytest.mark.parametrize("alpha", [0.2, 0.25, 0.5, 1.0, 2.0, 8.0, 64.0, 96.0])
def test_compressed_factors_keep_p_log_p_and_u(alpha, monkeypatch):
    # contour-Q and the workspace hold each a = 0 factor as a rank-48 basis
    # and coefficients.  Against the same sketch on the whole factors,
    # contour-Q's P and log P and the workspace's u move by at most 4
    # rounding scales (the guard's n eps max|Q B|); measured at most 1.4,
    # 2.9 and 1.0 scales.  u is taken at refine 1 only: the refine-0.5
    # pair does not resolve alpha 96 (contour-Q's err there is 0.04-0.4),
    # and its solve moves u by up to 71 scales for any rounding-level change
    # of the factors
    with monkeypatch.context() as patch:
        patch.setattr(fredholm, "_BASIS_TOL", 0.0)  # nothing compresses
        fredholm._RECENT.clear()
        whole_u = {a: _workspace_u(alpha, a) for a in COMPRESSED_AS}
    fredholm._RECENT.clear()
    for refine in (1.0, 0.5):
        for a in COMPRESSED_AS:
            op = fredholm._contour_q_operator(a, alpha, refine)
            fredholm.check_rounding_scale(op, "compressed")
            pair = kernels.qa_pair(alpha, a_max=a, refine=refine)
            assert fredholm._SHARED[fredholm._pair_key(pair)].ranks == (
                48, 48)
            want = det_one_minus(whole_operator(a, alpha, refine))
            got = det_one_minus(op)
            bound = 4.0 * op.rounding_scale
            assert abs(got[0] - want[0]) <= bound, ("P", refine, a)
            assert abs(got[1] - want[1]) <= bound, ("log P", refine, a)
            if refine == 1.0:
                # the workspace shares contour-Q's operator at a
                u = _workspace_u(alpha, a)
                assert abs(u - whole_u[a]) <= bound, ("u", a)


def test_uncompressed_fallback_is_the_whole_factors_sketch(monkeypatch):
    # a factor that rank 48 does not capture stays whole; with the
    # tolerance at 0 neither factor is compressed, and contour-Q's
    # P and log P are the sketch of the whole factors, bit for bit
    monkeypatch.setattr(fredholm, "_BASIS_TOL", 0.0)
    for a, alpha in ((1.7, 0.5), (0.5, 2.0)):
        res = gap_probability(a, alpha, "contour-Q", estimate_error=False)
        pair = kernels.qa_pair(alpha, a_max=a)
        factors = fredholm._SHARED[fredholm._pair_key(pair)]
        assert factors.ranks == (len(pair.line),) * 2
        zero = factors.at_zero
        assert zero.left_basis is None and zero.right_basis is None
        assert (res.p, res.log_p) == det_one_minus(whole_operator(a, alpha))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_factor_with_a_nan_probe_product_stays_whole(monkeypatch):
    # at alpha 1/256 the right factor holds NaN: its range finder keeps it
    # whole, so the sketch meets the NaN at once; the finite left factor
    # compresses at rank 48
    drawn = []
    probes = fredholm._factor_probes

    def spy(p, r):
        drawn.append((p, r))
        return probes(p, r)

    monkeypatch.setattr(fredholm, "_factor_probes", spy)
    pair = kernels.qa_pair(1 / 256, a_max=1.0)
    factors = fredholm.PairFactors(pair)
    p = len(pair.loop)
    assert drawn == [(p, fredholm._BASIS_RANK)] * 2
    assert factors.ranks == (fredholm._BASIS_RANK, len(pair.line))
    with pytest.raises(ArithmeticError, match="rounding scale nan"):
        fredholm.check_rounding_scale(factors.operator(1.0), "nan")


# the workspace ranges of the benchmark's rh-closure job
CLOSURE_RANGES = {1.0: 9.6, 2.0: 13.6}


@pytest.mark.parametrize("alpha", [0.1, 0.15, 0.2, 0.5, 1.0, 2.0, 8.0, 64.0,
                                   96.0, 128.0])
def test_first_sketch_rank_covers_the_resolved_domain(alpha):
    # K W has only a few singular values above 1e-15 of its largest (at
    # most 7 on alpha {0.1, ..., 64} x a {0.1, ..., 8}), so the rank-8
    # sketch meets the tail test on every contour-Q operator and every
    # workspace point, the guard's alphas 0.1, 0.15 and 128 included, and
    # rank 48 captures both factors of every pair.  A regime that needs
    # more rank raises there, and fails here
    def check(op, where):
        assert op.solve_path == "sketch", where
        assert op.sketch_tail <= fredholm._TAIL_TOL, where
        assert np.isfinite(det_one_minus(op)[1]), where

    for a in (0.1, 1.0, 4.0, 16.0):
        for refine in (1.0, 0.5):
            op = fredholm._contour_q_operator(a, alpha, refine)
            assert (op.factors.left.shape[0],
                    op.factors.right.shape[0]) == (48, 48), (a, refine)
            check(op, (a, refine))
    for x_max in (16.0, CLOSURE_RANGES.get(alpha)):
        if x_max is None:
            continue
        ws = RhWorkspace(alpha, x_max)
        assert ws.factors.ranks == (48, 48), x_max
        for a in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, x_max):
            check(ws.factors.operator(a), (x_max, a))


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
    arrays = [halfline.kw, contour_h.kw, contour_q.factors.left,
              contour_q.factors.right]
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
            for route, build in (("contour-Q", qa_whole),
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
    # at alpha 1/32 halfline's determinant is finite but P = 2.52 at a = 1;
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
    # length max(5, x_end - a, min(40, 2 / alpha)), x_end where
    # exp(-x^2 / 2 alpha) reaches e^-46, and a pair of frequency
    # max(11, a + length): the operator's K W is the kernel matrix on that
    # grid with its columns scaled by the weights, bit for bit.  From alpha
    # 0.05 down (mc --compare reaches alpha = M/N = 1/256) the capped floor
    # gives the fixed length 40.  At 1/256 the entries are NaN on both (the
    # default contours do not resolve the kernel there: 1/Gamma on the
    # grids' nodes divides by zero and overflows as they are built, and
    # numpy warns of the invalid value), hence assert_array_equal.  The grid
    # cache is cleared, so the grids are built here whatever ran before
    a = 1.0
    x_end = math.sqrt(92.0 * alpha)
    length = max(5.0, x_end - a, min(40.0, 2.0 / alpha))
    if alpha <= 0.05:
        assert length == 40.0
    grid = HalfLineGrid(a, length, 8, 16)
    assert grid.weights.sum() == pytest.approx(length, rel=1e-13)
    unresolved = alpha < 0.01
    contours._shared_grid.cache_clear()
    with (pytest.warns(RuntimeWarning) if unresolved
          else contextlib.nullcontext()) as seen:
        op = halfline_operator(a, alpha)
        pair = kernels.kernel_pair(alpha, x_max=max(11.0, a + length))
        want = kernels.kernel_matrix(grid.nodes, grid.nodes, pair, shift=0.5)
    if unresolved:
        messages = [str(w.message) for w in seen]
        assert any(m.startswith("invalid value") for m in messages)
        build = ("divide by zero", "overflow", "invalid value")
        assert all(m.startswith(build) for m in messages), messages
    assert op.matrix().shape == (128, 128)
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
