"""Riemann-Hilbert observable tests.

The derivative identities are checked against finite differences of the
independently computed halfline determinant, through the residuals in
critgap.validate; asymptotic anchors were evaluated with mpmath at 25
digits and frozen.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import complex_reference
from critgap import fredholm, kernels, observables, validate
from critgap.contours import GeometryError
from critgap.observables import (RhWorkspace, UnderflowWarning, asym_u1_12,
                                 asym_u1_12_closed, asym_u1_21,
                                 log_gap_from_u, log_u_asymptotic,
                                 residue_sum, u_asym_composed, u_asymptotic,
                                 u_of_x, y1_matrix)

U_ASYM_ANCHORS = [
    (2.0, 2.0, 0.1037768743551486758350671),   # log(x/alpha) = 0 cases
    (1.0, 1.0, 0.2419707245191433497978302),
    (10.0, 2.0, 8.542491838342900122802461e-14),
    (6.0, 2.0, 1.287276724589378442184321e-5),
]

RESIDUE_SUM_ANCHORS = [
    (2.0, 1.0, 0.8659030689022088870830544),
    (2.0, 4.0, 0.9932651249807157175497042),
    (1.0, 1.0, 0.7859357343672298429280077),
]


def test_u_asymptotic_anchors():
    for x, alpha, ref in U_ASYM_ANCHORS:
        assert u_asymptotic(x, alpha) == pytest.approx(ref, rel=1e-12)


def test_u_asymptotic_log_channel():
    for x, alpha, ref in U_ASYM_ANCHORS:
        assert log_u_asymptotic(x, alpha) == pytest.approx(math.log(ref),
                                                           rel=1e-12)
    # beyond double range the log stays finite while the value floors at 0
    assert u_asymptotic(60.0, 1.0) == 0.0
    assert log_u_asymptotic(60.0, 1.0) < -1000.0


def test_residue_sum_anchors():
    for alpha, a, ref in RESIDUE_SUM_ANCHORS:
        assert residue_sum(alpha, a) == pytest.approx(ref, rel=1e-14)


def test_residue_sum_warns_at_its_term_cap(monkeypatch):
    # the term at k = 5 is still above 1e-18 of the sum, so a 5-term cap
    # stops the sum early; the value is already the converged one, but the
    # stop is reported
    monkeypatch.setattr(observables, "_RESIDUE_TERMS", 5)
    with pytest.warns(RuntimeWarning, match="5-term cap"):
        capped = residue_sum(2.0, 1.0)
    assert capped == pytest.approx(RESIDUE_SUM_ANCHORS[0][2], rel=1e-14)


def test_residue_sum_monotone_to_one():
    prev = 0.0
    for a in np.linspace(2.0, 12.0, 9):
        s = residue_sum(1.0, float(a))
        assert prev < s < 1.0
        prev = s
    assert 1.0 - residue_sum(1.0, 12.0) <= 2e-5


def test_y1_log_derivative_identity():
    for a, alpha in [(2.0, 1.0), (1.5, 2.0)]:
        assert validate.log_derivative_error(a, alpha) <= 1e-5


def test_y1_ode_identity():
    assert validate.ode_error(2.0, 1.0) <= 1e-4


def test_y1_el11_vanishes_at_large_a():
    y1 = y1_matrix(8.0, 2.0)
    assert abs(y1.e11) <= 1e-6


def test_u_positive_on_right_tail():
    ws = RhWorkspace(2.0, 8.0)
    for x in (4.0, 6.0, 8.0):
        assert u_of_x(x, 2.0, ws) >= 0.0


def test_u_equals_second_log_derivative():
    # 5-point central second difference of log P(a) at a=2, alpha=1
    a, alpha, h = 2.0, 1.0, 2e-2
    logps = [fredholm.gap_probability(a + k * h, alpha, "halfline",
                                      estimate_error=False).log_p
             for k in (-2, -1, 0, 1, 2)]
    second = (-logps[0] + 16 * logps[1] - 30 * logps[2] + 16 * logps[3]
              - logps[4]) / (12.0 * h * h)
    assert u_of_x(a, alpha) == pytest.approx(-second, rel=1e-3)


def test_workspace_matches_fresh_build():
    # rescaled base matrices vs a from-scratch workspace at a different x_max
    wide = RhWorkspace(1.0, 6.0)
    narrow = RhWorkspace(1.0, 2.0)
    y_wide, y_narrow = wide.y1(2.0), narrow.y1(2.0)
    assert y_wide.e11 == pytest.approx(y_narrow.e11, rel=1e-8, abs=1e-10)
    assert (y_wide.e12 * y_wide.e21) == pytest.approx(
        y_narrow.e12 * y_narrow.e21, rel=1e-8, abs=1e-12)


def test_workspace_matches_dense_union_solve():
    # reference: (I - Q W) F = f solved densely on the full line/loop union,
    # then Y1 = sum_i w_i F_i h_i^T
    x_max = 4.0
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, x_max)
        pair = kernels.qa_pair(alpha, a_max=x_max)
        w = np.concatenate([pair.line.weights, pair.loop.weights])
        for a in (0.5, 1.0):
            q = complex_reference.union_matrix(pair, a)
            f, h = complex_reference.union_rows(pair, a)
            big_f = np.linalg.solve(np.eye(w.size) - q * w[None, :], f)
            ref = (w[:, None] * big_f).T @ h
            y1 = ws.y1(a)
            assert y1.e11 == pytest.approx(ref[0, 0], rel=1e-12)
            assert y1.e12 * y1.e21 == pytest.approx(ref[0, 1] * ref[1, 0],
                                                    rel=1e-12)


def test_workspace_solves_are_real(monkeypatch):
    # i F_line lies in the real subspace of the mirror-symmetric line grid,
    # so both right-hand columns are one real solve, on an operator held as
    # the workspace's two real factors, each a real basis and real
    # coefficients: K W is never formed
    seen = []

    def spy(op, rhs):
        x = fredholm.solve_resolvent(op, rhs)
        factors = op.factors
        seen.append((op, factors.left.dtype, factors.right.dtype,
                     factors.left_basis.dtype, factors.right_basis.dtype,
                     rhs.dtype, rhs.shape, x.dtype))
        return x

    monkeypatch.setattr(observables, "solve_resolvent", spy)
    ws = RhWorkspace(1.0, 3.0)
    ws.y1(2.0)
    [(op, *dtypes)] = seen
    n = len(ws.line)
    assert dtypes == [np.float64] * 5 + [(n, 2), np.float64]
    zero = ws.factors.at_zero
    for name in ("left", "right", "left_basis", "right_basis"):
        assert getattr(op.factors, name) is getattr(zero, name), name
    assert op.kw is None


def _entries(y1):
    return (y1.e11, y1.e12, y1.e21, y1.e22, y1.log_p)


def _gap_entries(res):
    return res.p, res.log_p, res.err


def test_workspace_buffers_carry_no_state_between_solves(monkeypatch):
    # a solve writes nothing into the workspace, whose compressed factors
    # (bases and coefficients) are read-only, nor into this thread's
    # buffers, which every other
    # two-contour call writes.  So interleaved points, points after
    # contour-Q and contour-H calls that rewrite those buffers at other
    # sizes, and a point after a solve that raised once the guard had
    # passed, match solves on fresh workspaces bit for bit
    alpha, x_max, a1, a2 = 1.0, 4.0, 1.3, 3.1
    fresh = {a: _entries(RhWorkspace(alpha, x_max).y1(a)) for a in (a1, a2)}
    ws = RhWorkspace(alpha, x_max)
    zero = ws.factors.at_zero
    arrays = [zero.left, zero.right, zero.left_basis, zero.right_basis]
    copies = [array.copy() for array in arrays]
    assert not any(array.flags.writeable for array in arrays)
    assert _entries(ws.y1(a1)) == fresh[a1]
    assert _entries(ws.y1(a2)) == fresh[a2]
    assert _entries(ws.y1(a1)) == fresh[a1]
    for route, alpha_other in (("contour-Q", 0.5), ("contour-H", 2.0)):
        fredholm.gap_probability(1.7, alpha_other, route)
        assert _entries(ws.y1(a2)) == fresh[a2]

    def refuse(op, rhs):
        raise fredholm.SingularError("refused")

    with monkeypatch.context() as patch:
        patch.setattr(observables, "solve_resolvent", refuse)
        with pytest.raises(fredholm.SingularError):
            ws.y1(2.2)
    with pytest.raises(ValueError):
        ws.y1(x_max + 1.0)
    assert _entries(ws.y1(a2)) == fresh[a2]
    assert _entries(ws.y1(a1)) == fresh[a1]
    assert all(map(np.array_equal, arrays, copies))


def test_workspace_solve_allocation_budget():
    # K W is applied through the factors and the solve goes through a
    # low-rank sketch, so no n x n or line x loop array is allocated: a
    # warmed solve peaks at 0.18 n^2 * 8 bytes here (n = 288 line and
    # p = 384 loop nodes), 22 (n + p) doubles, which are line- and
    # loop-length blocks of at most 12 columns.  Both bounds leave a third
    # or more of margin, and one n x n real copy would exceed either
    ws = RhWorkspace(1.0, 4.0)
    n, p = len(ws.line), len(ws.loop)
    ws.y1(2.0)
    tracemalloc.start()
    try:
        ws.y1(2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * n * 8
    assert peak <= 50 * (n + p) * 8


def test_workspace_factors_are_contour_q_factors_at_zero():
    # one assembly of the Schur complement: the workspace's compressed a = 0
    # factors are the ones contour-Q takes for the same pair (listed in
    # fredholm._SHARED), and they are the bits of a fresh compression of
    # the pair, so P does not depend on which caller compressed it
    for alpha, x_max in ((0.5, 4.0), (2.0, 9.0)):
        ws = RhWorkspace(alpha, x_max)
        pair = kernels.qa_pair(alpha, a_max=x_max)
        assert fredholm._SHARED[fredholm._pair_key(pair)] is ws.factors
        zero = ws.factors.at_zero
        fresh = fredholm.PairFactors(pair).at_zero
        del ws
        for name in ("left", "right", "left_basis", "right_basis"):
            assert np.array_equal(getattr(zero, name), getattr(fresh, name))


def test_workspace_build_transient_is_small():
    # the two real factors are written a block of Cauchy rows at a time
    # straight into this thread's factor buffers and compressed from
    # there, so building one allocates little beyond what it holds:
    # 0.16-0.32 MB here, the range finder's line x 52 products and QR.
    # The two complex line x loop blocks alone, formed whole and then
    # folded, would take 2.15 and 1.31 MB.  A warm-up build keeps the
    # grids, their gamma values, this thread's buffers and the cached
    # probes out of the measurement
    for alpha, x_max in ((0.25, 6.0), (1.0, 9.0)):
        RhWorkspace(alpha, x_max)
        gc.collect()
        tracemalloc.start()
        try:
            ws = RhWorkspace(alpha, x_max)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained <= 0.5e6, (alpha, peak - retained)
        del ws


def test_workspace_footprint_is_its_two_factors():
    # the workspace keeps its two real (line, loop) factors compressed to
    # rank 48, each an (n, 48) basis and (48, p) coefficients, and line-
    # and loop-length vectors: 0.50-0.61 MB here, against 1.4-2.2 MB for
    # the two whole factors, and no n x n or line x loop array
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, 4.0)
        n, p = len(ws.line), len(ws.loop)
        zero = ws.factors.at_zero
        assert ws.factors.ranks == (48, 48)
        factors = [zero.left_basis, zero.left, zero.right_basis, zero.right]
        assert [v.shape for v in factors] == [(n, 48), (48, p)] * 2
        vectors = [v for obj in (ws, ws.line, ws.loop)
                   for v in vars(obj).values() if isinstance(v, np.ndarray)]
        assert all(v.size <= 2 * max(n, p) for v in vectors)
        assert (sum(v.nbytes for v in factors + vectors)
                <= 2 * 48 * (n + p) * 8 + 128 * (n + p))


def test_workspace_solves_through_the_sketch(monkeypatch):
    # the real form of K W has only a few singular values above rounding,
    # so the first sketch rank meets its tail tolerance and the only
    # matrix factored is the k x k S of the Woodbury system, once per
    # point for the solve, its guard and its log P together
    seen, factored = [], []

    def spy(op, rhs):
        seen.append(op)
        return fredholm.solve_resolvent(op, rhs)

    def lu_spy(a):
        factored.append(a.shape)
        return lu_factor(a)

    lu_factor = fredholm.lu_factor
    monkeypatch.setattr(observables, "solve_resolvent", spy)
    monkeypatch.setattr(fredholm, "lu_factor", lu_spy)
    k = fredholm._SKETCH_RANK
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, 4.0)
        for a in (1.0, 3.0):
            ws.y1(a)
            op = seen[-1]
            assert op.solve_path == "sketch", (alpha, a)
            assert op.sketch_tail <= 1e-14
    assert factored == [(k, k)] * 6


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 8.0])
def test_workspace_log_p_matches_halfline(alpha):
    # log|det S| of each solve's Woodbury matrix is log det(I - K W) up to
    # the sketch's tail, so every evaluation carries log P(a)
    ws = RhWorkspace(alpha, 4.0)
    for a in (0.5, 1.0, 2.0, 4.0):
        want = fredholm.gap_probability(a, alpha, "halfline",
                                        estimate_error=False).log_p
        assert abs(ws.y1(a).log_p - want) <= 1e-9, a


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_workspace_u_converges_at_alpha_96(a):
    # the factored Schur complement holds u to 1.6e-9 (a = 1) and 4.0e-9
    # (a = 2) across order {16, 20, 24} x refine {1, 1.5}; the integrable
    # form it replaced drifted by 8.2e-8 and 2.8e-8 there
    us = [RhWorkspace(96.0, 8.0, order=order, refine=refine).y1(a).u
          for order in (16, 20, 24) for refine in (1.0, 1.5)]
    assert max(us) - min(us) <= 1e-8


def test_workspace_refuses_a_line_off_one_abscissa(monkeypatch):
    # f_line = e^{alpha z^2/4 - az} decays only up a vertical line
    # (contours.build_vertical); a pair whose line grid is anything else,
    # here the mirror-symmetric hairpin, is refused
    qa_pair = kernels.qa_pair

    def hairpin_line(*args, **kwargs):
        pair = qa_pair(*args, **kwargs)
        return dataclasses.replace(pair, line=pair.loop)

    monkeypatch.setattr(kernels, "qa_pair", hairpin_line)
    with pytest.raises(GeometryError, match="vertical line"):
        RhWorkspace(1.0, 3.0)


def test_workspace_shared_between_threads_gives_identical_solves():
    # a solve writes only this thread's own buffers, so threads share one
    # workspace without a lock, and call contour-Q on its pair, which takes
    # the workspace's operator at the last a and so keeps replacing it:
    # more threads than cores, switching every 10 us, each get contour-Q's
    # (p, log_p, err) and Y1 at their own points bit for bit as computed
    # with no workspace alive and on fresh workspaces
    alpha, x_max, points = 1.0, 4.0, (1.3, 3.1, 0.7, 2.2)
    fresh = {a: (_gap_entries(fredholm.gap_probability(a, alpha,
                                                       "contour-Q")),
                 _entries(RhWorkspace(alpha, x_max).y1(a))) for a in points}
    ws = RhWorkspace(alpha, x_max)
    for a in points:
        pair = kernels.qa_pair(alpha, a_max=a)
        assert fredholm._SHARED[fredholm._pair_key(pair)] is ws.factors
    start = threading.Barrier(len(points))
    seen = {a: [] for a in points}

    def sweep(a):
        start.wait(timeout=60)
        for _ in range(10):
            p = _gap_entries(fredholm.gap_probability(a, alpha, "contour-Q"))
            seen[a].append((p, _entries(ws.y1(a))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep, args=(a,)) for a in points]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a in points:
        assert seen[a] == [fresh[a]] * 10


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 8.0])
def test_contour_q_is_the_same_with_or_without_a_workspace(alpha):
    # contour-Q reads its determinant from the a = 0 factors with the
    # e^{-az} and e^{at} scalings, written into this thread's buffers or
    # taken from a live workspace of its pair; (p, log_p, err) are the
    # same bits either way, and log_p is the workspace's y1(a).log_p
    for a in (0.5, 1.7, 4.0):
        alone = fredholm.gap_probability(a, alpha, "contour-Q")
        ws = RhWorkspace(alpha, a)
        pair = kernels.qa_pair(alpha, a_max=a)
        assert fredholm._SHARED[fredholm._pair_key(pair)] is ws.factors
        shared = fredholm.gap_probability(a, alpha, "contour-Q")
        # contour-Q took the workspace's operator
        assert ws.factors._last[0] == a
        assert _gap_entries(shared) == _gap_entries(alone), a
        assert ws.y1(a).log_p == shared.log_p, a
        del ws


def test_contour_q_log_p_is_the_workspace_log_p_where_the_pairs_match():
    # a sweep's workspace is sized to its a_max; contour-Q's pair at a
    # smaller a is often the same grids (18 of these 24 points, all 8 at
    # alpha 1 and 2), and there both read one sketch
    matched = 0
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, 4.0)
        for a in np.linspace(0.5, 4.0, 8):
            pair = kernels.qa_pair(alpha, a_max=float(a))
            res = fredholm.gap_probability(float(a), alpha, "contour-Q",
                                           estimate_error=False)
            if pair.line is ws.line and pair.loop is ws.loop:
                matched += 1
                assert ws.y1(float(a)).log_p == res.log_p, (alpha, a)
    assert matched == 18


def test_the_workspace_table_forgets_a_dead_workspace():
    # a workspace's factors leave the table with it; contour-Q's stay
    # while they are among the last two it built
    fredholm._RECENT.clear()
    ws = RhWorkspace(1.0, 3.0)
    ws.y1(2.0)
    assert list(fredholm._SHARED.values()) == [ws.factors]
    del ws
    gc.collect()
    assert len(fredholm._SHARED) == 0
    for alpha in (0.5, 1.0, 2.0):
        fredholm.gap_probability(2.0, alpha, "contour-Q",
                                 estimate_error=False)
    gc.collect()
    assert sorted(key[0] for key in fredholm._SHARED) == [1.0, 2.0]


def test_workspace_of_another_alpha_on_the_same_grids_is_not_shared():
    # from alpha about 7.7 on, the truncation radii sit at their floor, so
    # alpha 8 and 64 share their grids at one a_max; the factors differ,
    # and contour-Q at alpha 64 must not take alpha 8's operator
    a = 4.0
    alone = fredholm.gap_probability(a, 64.0, "contour-Q")
    ws = RhWorkspace(8.0, a)
    pair = kernels.qa_pair(64.0, a_max=a)
    assert pair.line is ws.line and pair.loop is ws.loop
    shared = fredholm.gap_probability(a, 64.0, "contour-Q")
    assert ws.factors._last is None
    assert _gap_entries(shared) == _gap_entries(alone)
    assert shared.p != fredholm.gap_probability(a, 8.0, "contour-Q").p


def test_workspace_raises_past_the_tail_tolerance(monkeypatch):
    # with a zero tail tolerance the sketch at a = 1.5 fails: y1 raises
    # ArithmeticError with its context, the rank and the tail, and no dense
    # K W takes the sketch's place.  The operator is kept as the last a's
    # all the same, so y1 at that a raises again without a new sketch
    ws = RhWorkspace(1.0, 3.0)
    monkeypatch.setattr(fredholm, "_TAIL_TOL", 0.0)
    want = (r"^RhWorkspace\.y1 at alpha=1\.0, a=1\.5: the rank-8 sketch of "
            r"K W leaves a relative tail of ")
    with pytest.raises(ArithmeticError, match=want):
        ws.y1(1.5)
    a, op = ws.factors._last
    assert a == 1.5 and op.solve_path == "sketch" and op.matrix() is None
    with pytest.raises(ArithmeticError, match=want):
        ws.y1(1.5)
    assert ws.factors._last[1] is op


def test_workspace_refuses_rounding_dominated_entries():
    # with real solves the Y1 imaginary-residue checks see only rounding in
    # the final sums (a complex solve at alpha 128 left an imaginary residue
    # of 4.7e-4 in (Y1)_11); the rounding scale of the real form, 3.6e-9
    # here, is what shows the loss.  At alpha 64 it is 2.2e-12 and the
    # solve goes through
    with pytest.raises(ArithmeticError, match="rounding scale"):
        RhWorkspace(128.0, 2.0).y1(1.0)
    assert np.isfinite(RhWorkspace(64.0, 2.0).y1(1.0).u)


def test_workspace_range_checks():
    ws = RhWorkspace(1.0, 3.0)
    with pytest.raises(ValueError):
        ws.y1(3.5)
    with pytest.raises(ValueError):
        ws.y1(0.0)
    with pytest.raises(ValueError):
        y1_matrix(-1.0, 1.0)
    with pytest.raises(ValueError):
        RhWorkspace(1.0, 0.0)


def test_closure_against_determinant():
    a, alpha = 2.0, 1.0
    assert validate.closure_error(a, alpha) <= 1e-4
    # integrand positivity: each node contributes with one sign
    ws = RhWorkspace(alpha, a + 8.0)
    grid = fredholm.HalfLineGrid(a, 8.0, 4, 6)
    for x in grid.nodes[::5]:
        assert (x - a) * u_of_x(float(x), alpha, ws) >= 0.0


def test_closure_vanishes_at_large_a():
    assert abs(log_gap_from_u(8.0, 1.0)) <= 1e-10


def test_tail_moment_loop_routes_agree():
    for a, alpha in [(4.0, 2.0), (2.0, 1.0), (8.0, 2.0)]:
        assert validate.loop_moment_error(a, alpha) <= 1e-10


def test_tail_moment_loop_normalization():
    # value * (a / (i alpha)) * exp(a^2 / (4 alpha)) -> 1 from below-ish
    for a in (6.0, 10.0, 14.0):
        val = asym_u1_21(a, 2.0)
        scaled = (val * a / (1j * 2.0) * math.exp(a * a / 8.0)).real
        assert abs(scaled - 1.0) <= 2.0 * math.exp(-a)


def test_tail_moment_loop_geometry_guard():
    with pytest.raises(GeometryError):
        asym_u1_21(1.0, 2.0)
    with pytest.raises(GeometryError):
        asym_u1_21(0.5, 1.0)


def test_tail_moment_line_structure(monkeypatch):
    val = asym_u1_12(4.0, 2.0)
    assert abs(val.real) <= 1e-10 * abs(val)   # purely imaginary
    # stable under moving the truncation from x = 8 to x = 12
    values = []
    for radius in (8.0, 12.0):
        monkeypatch.setattr(observables, "truncation_radius",
                            lambda *args, **kwargs: radius)
        values.append(asym_u1_12(4.0, 2.0))
    assert abs(values[0] - values[1]) <= 1e-12 * abs(values[1])


def test_tail_moment_line_closed_form_window():
    ratio = validate.line_moment_ratio(10.0, 2.0)
    assert 0.75 <= ratio.real <= 1.25
    assert abs(ratio.imag) <= 1e-10
    # window tightens as a grows
    r6 = validate.line_moment_ratio(6.0, 2.0)
    assert abs(ratio.real - 1.0) < abs(r6.real - 1.0)


def test_u_asym_composed_windows():
    comp = u_asym_composed(6.0, 2.0)
    assert comp > 0.0
    assert 0.7 <= comp / u_asymptotic(6.0, 2.0) <= 1.3
    assert 0.7 <= comp / u_of_x(6.0, 2.0) <= 1.3


def test_asymptotic_ratio_improves():
    r6, r8 = validate.u_ratio(6.0, 2.0), validate.u_ratio(8.0, 2.0)
    assert 0.5 <= r6 <= 1.5
    assert abs(r8 - 1.0) < abs(r6 - 1.0)


def test_underflow_warnings():
    with pytest.warns(UnderflowWarning):
        assert asym_u1_12(80.0, 1.0) == 0.0j
    with pytest.warns(UnderflowWarning):
        assert asym_u1_21(80.0, 1.0) == 0.0j
    with pytest.warns(UnderflowWarning):
        asym_u1_12_closed(80.0, 1.0)


def test_domain_guards():
    from critgap.special import DomainError
    with pytest.raises(DomainError):
        u_asymptotic(-1.0, 1.0)
    with pytest.raises(DomainError):
        residue_sum(1.0, 0.0)
    with pytest.raises(DomainError):
        asym_u1_12(0.0, 1.0)
    with pytest.raises(ValueError):
        log_gap_from_u(0.0, 1.0)
