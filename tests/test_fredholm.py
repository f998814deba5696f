"""Determinant engine tests.

Trace anchors come from an independent high-precision quadrature of the
kernel diagonal (mpmath, 30 digits).  Determinant values are cross-checked
against numpy's generic determinant on small systems and between the three
independent operator constructions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import complex_reference
from critgap import fredholm, kernels
from critgap.contours import GeometryError
from critgap.fredholm import (DiscreteOperator, HalfLineGrid, SingularError,
                              det_one_minus, gap_probability,
                              halfline_operator, ha_operator, operator_trace,
                              qa_operator, solve_resolvent)
from critgap.observables import RhWorkspace

TRACE_0_INF_ALPHA1 = 0.5131565138586352785453
TRACE_5_INF_ALPHA2 = 3.688412361201974893414e-5


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
        HalfLineGrid(1.0, panels=0)
    with pytest.raises(ValueError):
        HalfLineGrid(1.0, order=1)


def test_trace_anchors():
    op = halfline_operator(1e-12, 1.0)
    assert complex(operator_trace(op)).real == pytest.approx(
        TRACE_0_INF_ALPHA1, rel=1e-10)
    op5 = halfline_operator(5.0, 2.0)
    assert complex(operator_trace(op5)).real == pytest.approx(
        TRACE_5_INF_ALPHA2, rel=1e-10)


def test_det_matches_numpy_on_dense_system():
    rng = np.random.default_rng(5)
    k = rng.normal(size=(40, 40)) * 0.1 + 1j * rng.normal(size=(40, 40)) * 0.1
    op = DiscreteOperator(k, np.ones(40, dtype=complex))
    det, log_mag = det_one_minus(op)
    ref = np.linalg.det(np.eye(40) - k)
    assert det == pytest.approx(ref, rel=1e-11)
    assert log_mag == pytest.approx(math.log(abs(ref)), rel=1e-11)


@pytest.mark.parametrize("dtype", [float, complex])
def test_transposed_in_place_lu_matches_numpy(dtype):
    # the LU factors (I - K W)^T in place in a fresh array: the determinant,
    # its pivot parity and the transposed solve must match numpy's, with
    # non-unit weights, and the kernel values must be left as they were
    rng = np.random.default_rng(11)
    n = 30
    k = rng.normal(size=(n, n)) * 0.2
    w = rng.uniform(0.5, 1.5, n)
    if dtype is complex:
        k = k + 1j * rng.normal(size=(n, n)) * 0.2
        w = w * np.exp(1j * rng.uniform(-1.0, 1.0, n))
    kept = k.copy()
    op = DiscreteOperator(k, w)
    a = np.eye(n) - k * w[None, :]
    det, log_mag = det_one_minus(op)
    ref = np.linalg.det(a)
    assert det == pytest.approx(ref, rel=1e-12)
    assert log_mag == pytest.approx(math.log(abs(ref)), rel=1e-12)
    rhs = rng.normal(size=(n, 2)).astype(dtype)
    np.testing.assert_allclose(solve_resolvent(op, rhs),
                               np.linalg.solve(a, rhs), rtol=1e-12, atol=1e-13)
    assert np.array_equal(op.kernel_values, kept)
    assert op.kernel_values is k


def test_solve_resolvent_residual():
    op = halfline_operator(1.5, 1.0)
    n = op.weights.size
    rhs = np.exp(-np.linspace(0.0, 3.0, n)).astype(complex)
    x = solve_resolvent(op, rhs)
    resid = rhs - (x - op.matrix() @ x)
    assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_halfline_operator_is_real():
    op = halfline_operator(2.0, 1.0)
    assert op.kernel_values.dtype == np.float64
    assert op.weights.dtype == np.float64
    lu, _ = op._factor()
    assert lu.dtype == np.float64  # a real LU, not a complex one
    det, _ = det_one_minus(op)
    assert complex(det).imag == 0.0
    # the two-contour operators are factored in their real form
    assert qa_operator(2.0, 1.0)._factor()[0].dtype == np.float64


def test_singular_operator_detected():
    k = np.eye(6, dtype=complex)  # I - K is exactly singular
    op = DiscreteOperator(k, np.ones(6, dtype=complex))
    with pytest.warns(fredholm.SingularWarning):
        det, log_mag = det_one_minus(op)
    assert det == 0.0
    assert log_mag == -math.inf
    with pytest.raises(SingularError):
        solve_resolvent(op, np.ones(6, dtype=complex))


def test_route_agreement_spot():
    for a, alpha in [(1.5, 1.0), (2.5, 2.0)]:
        ps = [gap_probability(a, alpha, r, estimate_error=False).p
              for r in fredholm.ROUTES]
        assert max(ps) - min(ps) <= 1e-9


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


def test_operator_reuses_lu_factorization():
    op = halfline_operator(2.0, 1.0)
    det_one_minus(op)
    first = op._lu
    det_one_minus(op)
    assert op._lu is first


def test_qa_and_ha_operator_shapes():
    op_q = qa_operator(2.0, 1.0)
    op_h = ha_operator(2.0, 1.0)
    assert op_q.kernel_values.shape[0] == op_q.weights.size
    assert op_h.kernel_values.shape[0] == op_h.weights.size
    # both live on the pair's line grid; contour-Q reaches it by a Schur
    # complement, contour-H by integrating out its own loop.  Each is the
    # real form of K W, which holds the weights, so its own are units
    assert np.array_equal(op_q.weights, op_h.weights)
    n = len(kernels.qa_pair(1.0, a_max=2.0, a=2.0).line)
    for op in (op_q, op_h):
        assert op.kernel_values.shape == (n, n)
        assert op.kernel_values.dtype == np.float64
        assert np.all(op.weights == 1.0)


def test_qa_operator_matches_union_determinant():
    # det(I - Q W) of the full [[0, A], [B, 0]] union matrix, formed densely
    for a, alpha in [(0.5, 1.0), (2.0, 0.5), (3.0, 2.0)]:
        union = kernels.qa_pair(alpha, a_max=a).union()
        q = kernels.qa_matrix(union, a, alpha)
        full = np.linalg.det(np.eye(union.weights.size)
                             - q * union.weights[None, :])
        det, _ = det_one_minus(qa_operator(a, alpha))
        assert abs(det - full) <= 1e-13 * abs(full)


ROUTE_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
ROUTE_AS = (0.5, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("alpha", ROUTE_ALPHAS)
@pytest.mark.parametrize("a", ROUTE_AS)
def test_route_agreement_grid(a, alpha):
    ps = [gap_probability(a, alpha, r, estimate_error=False).p
          for r in fredholm.ROUTES]
    assert max(ps) - min(ps) <= 1e-9


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
            for route, build in (("contour-Q", qa_operator),
                                 ("contour-H", ha_operator)):
                kw = complex_reference.line_matrix(a, alpha, route, refine)
                want = np.linalg.det(np.eye(kw.shape[0]) - kw)
                op = build(a, alpha, refine=refine)
                assert op.kernel_values.dtype == np.float64
                det, _ = det_one_minus(op)
                assert abs(det - want) <= 1e-13 * abs(want), (route, a, refine)


def test_asymmetric_line_grid_is_refused(monkeypatch):
    build_vertical = kernels.build_vertical

    def bent(*args, **kwargs):
        grid = build_vertical(*args, **kwargs)
        grid.nodes[5] += 1e-6
        return grid

    monkeypatch.setattr(kernels, "build_vertical", bent)
    with pytest.raises(GeometryError, match="not symmetric"):
        qa_operator(2.0, 1.0)
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


def test_halfline_has_no_rounding_guard():
    # halfline returns where the two-contour routes raise, and its err is
    # the signal: at alpha 0.05 it covers the distance of P from 1; at
    # alpha 128 (rounding scale 5e-10, truncation error about 1e-4) the
    # refine-0.5 run comes out negative
    res = gap_probability(4.0, 0.05)
    assert abs(res.p - 1.0) <= res.err <= 1e-6
    res = gap_probability(1.0, 128.0)
    assert 0.0 < res.p < 1.0 and res.err > 0.1
