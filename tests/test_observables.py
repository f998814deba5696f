"""Riemann-Hilbert observable tests.

The derivative identities are checked against finite differences of the
independently computed halfline determinant, through the residuals in
critgap.validate; asymptotic anchors were evaluated with mpmath at 25
digits and frozen.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import tracemalloc
import weakref

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
    # then Y1 = sum_i w_i F_i h_i^T, on the workspace's line and a loop
    # quadrature of its own, refined 3 times at order 24: at alpha 0.5 the
    # pair's own refine-1 loop is 2.2e-9 off the pole rule, the refined one
    # 6.3e-14 in u at a = 0.5
    x_max = 4.0
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, x_max)
        loop = kernels.qa_pair(alpha, a_max=x_max, refine=3.0, order=24).loop
        pair = kernels.ContourPair(loop, ws.line, alpha)
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
    # its two real (n, K) factors: K W is never formed
    seen = []

    def spy(op, rhs):
        x = fredholm.solve_resolvent(op, rhs)
        seen.append((op, *(f.dtype for f in op.factors), rhs.dtype,
                     rhs.shape, x.dtype))
        return x

    monkeypatch.setattr(observables, "solve_resolvent", spy)
    ws = RhWorkspace(1.0, 3.0)
    ws.y1(2.0)
    [(op, *dtypes)] = seen
    n = len(ws.line)
    assert dtypes == [np.float64] * 3 + [(n, 2), np.float64]
    k = kernels._poles(1.0, 2.0)[0].size
    assert [f.shape for f in op.factors] == [(n, k)] * 2
    assert op.kw is None


def _entries(y1):
    return (y1.e11, y1.e12, y1.e21, y1.e22, y1.log_p)


def _gap_entries(res):
    return res.p, res.log_p, res.err


def test_workspace_buffers_carry_no_state_between_solves(monkeypatch):
    # a solve writes nothing into the workspace, which holds its line grid
    # alone, nor into this thread's buffers, which contour-H's calls
    # write.  So interleaved points, points after contour-Q and contour-H
    # calls, and a point after a solve that raised once the guard had
    # passed, match solves on fresh workspaces bit for bit
    alpha, x_max, a1, a2 = 1.0, 4.0, 1.3, 3.1
    fresh = {a: _entries(RhWorkspace(alpha, x_max).y1(a)) for a in (a1, a2)}
    ws = RhWorkspace(alpha, x_max)
    held = dict(vars(ws))
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
    assert vars(ws) == held


def test_workspace_solve_allocation_budget():
    # K W is applied through its (n, K) factors and the solve goes through
    # the K x K Woodbury matrix, so no n x n or line x loop array is
    # allocated.  The bounds are those of the rank-48 factors of the pair's
    # 384-node loop, which the pole rule replaces: 0.5 n^2 * 8 bytes and
    # 50 (n + p) doubles, p = 384 (n = 288 line nodes); one n x n real copy
    # would exceed either
    ws = RhWorkspace(1.0, 4.0)
    n, p = len(ws.line), len(kernels.qa_pair(1.0, a_max=4.0).loop)
    ws.y1(2.0)
    tracemalloc.start()
    try:
        ws.y1(2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * n * 8
    assert peak <= 50 * (n + p) * 8


def test_workspace_factors_are_contour_q_factors(monkeypatch):
    # one writer of the Schur complement's factors: contour-Q and y1 both
    # call kernels.cross_blocks through the module attribute, the seam the
    # benchmark's tracer counts as kernels.matrices, and on the same line
    # and a they get the same bits
    calls = []
    cross_blocks = kernels.cross_blocks

    def spy(line, alpha, a):
        factors = cross_blocks(line, alpha, a)
        calls.append((line, alpha, a, factors))
        return factors

    monkeypatch.setattr(kernels, "cross_blocks", spy)
    ws = RhWorkspace(1.0, 4.0)
    ws.y1(4.0)
    fredholm.gap_probability(4.0, 1.0, "contour-Q", estimate_error=False)
    (line_w, *_, from_y1), (line_q, *_, from_q) = calls
    assert line_w is ws.line and line_q is ws.line
    assert [c[1:3] for c in calls] == [(1.0, 4.0)] * 2
    assert all(map(np.array_equal, from_y1, from_q))


def test_workspace_build_transient_is_small():
    # a workspace builds its line grid and nothing else, so building one
    # allocates little beyond what it holds.  A warm-up build keeps the
    # grid out of the measurement
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


def test_workspace_footprint_is_its_line_vectors():
    # the workspace holds its line grid and no array of its own, and a y1
    # adds line-length vectors and (n, K) factors: a warm call's peak is at
    # most 12 (n + n K) doubles (5.1-6.9 measured)
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, 4.0)
        assert not [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
        n, k = len(ws.line), kernels._poles(alpha, 0.5)[0].size
        ws.y1(0.5)
        tracemalloc.start()
        try:
            ws.y1(0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * (n + n * k) * 8, (alpha, peak)


def test_workspace_solves_through_the_k_by_k_matrix(monkeypatch):
    # the only matrix factored is the K x K I_K - right^T left of the
    # Woodbury solve, once per point for the solve and once for its log P
    factored = []

    def spy(name, seam):
        def traced(a, *args):
            factored.append((name, a.shape))
            return seam(a, *args)
        return traced

    for name in ("lu_factor", "lu_solve"):
        monkeypatch.setattr(fredholm, name, spy(name, getattr(fredholm, name)))
    want = []
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, 4.0)
        for a in (1.0, 3.0):
            ws.y1(a)
            k = kernels._poles(alpha, a)[0].size
            want += [("lu_solve", (k, k)), ("lu_factor", (k, k))]
    assert factored == want


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
    # (contours.build_vertical); a line grid that is anything else, here
    # the mirror-symmetric hairpin, is refused
    hairpin = kernels.qa_pair(1.0, a_max=3.0).loop
    monkeypatch.setattr(kernels, "_qa_line", lambda *args, **kwargs: hairpin)
    with pytest.raises(GeometryError, match="vertical line"):
        RhWorkspace(1.0, 3.0)


def test_workspace_shared_between_threads_gives_identical_solves():
    # a solve writes only fresh arrays, so threads share one workspace
    # without a lock, and call contour-Q on its line, which builds its own
    # factors: more threads than cores, switching every 10 us, each get
    # contour-Q's (p, log_p, err) and Y1 at their own points bit for bit
    # as computed with no workspace alive and on fresh workspaces
    alpha, x_max, points = 1.0, 4.0, (1.3, 3.1, 0.7, 2.2)
    fresh = {a: (_gap_entries(fredholm.gap_probability(a, alpha,
                                                       "contour-Q")),
                 _entries(RhWorkspace(alpha, x_max).y1(a))) for a in points}
    ws = RhWorkspace(alpha, x_max)
    assert all(kernels.qa_pair(alpha, a_max=a).line is ws.line
               for a in points)
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
    # contour-Q writes its factors at a afresh, whatever workspace is
    # alive; (p, log_p, err) are the same bits either way, and log_p is the
    # y1(a).log_p of a workspace on its line
    for a in (0.5, 1.7, 4.0):
        alone = fredholm.gap_probability(a, alpha, "contour-Q")
        ws = RhWorkspace(alpha, a)
        assert kernels.qa_pair(alpha, a_max=a).line is ws.line
        beside = fredholm.gap_probability(a, alpha, "contour-Q")
        assert _gap_entries(beside) == _gap_entries(alone), a
        assert ws.y1(a).log_p == beside.log_p, a
        del ws


def test_contour_q_log_p_is_the_workspace_log_p_where_the_pairs_match():
    # a sweep's workspace is sized to its a_max; contour-Q's line at a
    # smaller a is often the same grid (18 of these 24 points, all 8 at
    # alpha 1 and 2), and there both read one K x K determinant
    matched = 0
    for alpha in (0.5, 1.0, 2.0):
        ws = RhWorkspace(alpha, 4.0)
        for a in np.linspace(0.5, 4.0, 8):
            line = kernels.qa_pair(alpha, a_max=float(a)).line
            res = fredholm.gap_probability(float(a), alpha, "contour-Q",
                                           estimate_error=False)
            if line is ws.line:
                matched += 1
                assert ws.y1(float(a)).log_p == res.log_p, (alpha, a)
    assert matched == 18


def test_workspace_of_another_alpha_on_the_same_grids_is_not_shared():
    # from alpha about 7.7 on, the truncation radii sit at their floor, so
    # alpha 8 and 64 share their grids at one a_max; the factors differ,
    # and contour-Q at alpha 64 must not move while an alpha 8 workspace
    # on the same line lives
    a = 4.0
    alone = fredholm.gap_probability(a, 64.0, "contour-Q")
    ws = RhWorkspace(8.0, a)
    assert kernels.qa_pair(64.0, a_max=a).line is ws.line
    ws.y1(a)
    beside = fredholm.gap_probability(a, 64.0, "contour-Q")
    assert _gap_entries(beside) == _gap_entries(alone)
    assert beside.p != fredholm.gap_probability(a, 8.0, "contour-Q").p


def test_the_workspace_table_forgets_a_dead_workspace():
    # no table keeps a workspace or what it wrote: once it dies, neither
    # it nor the factors its y1 and contour-Q on its line took from
    # kernels.cross_blocks stay alive.  Only its line grid outlives it, in
    # kernels' grid cache, which contour-Q shares
    written = []
    cross_blocks = kernels.cross_blocks

    def spy(line, alpha, a):
        factors = cross_blocks(line, alpha, a)
        written.extend(weakref.ref(f) for f in factors)
        return factors

    ws = RhWorkspace(1.0, 3.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "cross_blocks", spy)
        ws.y1(2.0)
        fredholm.gap_probability(3.0, 1.0, "contour-Q", estimate_error=False)
    line, dead = ws.line, weakref.ref(ws)
    assert kernels.qa_pair(1.0, a_max=3.0).line is line
    assert len(written) == 4
    del ws
    gc.collect()
    assert dead() is None
    assert [ref() for ref in written] == [None] * 4


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
