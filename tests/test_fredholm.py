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

from critgap import fredholm, kernels
from critgap.fredholm import (DiscreteOperator, HalfLineGrid, SingularError,
                              det_one_minus, gap_probability,
                              halfline_operator, ha_operator, operator_trace,
                              qa_operator, solve_resolvent)

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


def test_weighting_similarity_invariance():
    op_r = halfline_operator(1.0, 1.0, weighting="right")
    op_s = halfline_operator(1.0, 1.0, weighting="symmetric")
    d_r, _ = det_one_minus(op_r)
    d_s, _ = det_one_minus(op_s)
    assert abs(d_r - d_s) <= 1e-12
    assert complex(operator_trace(op_r)) == pytest.approx(
        complex(operator_trace(op_s)), rel=1e-12)


def test_unknown_weighting_rejected():
    op = DiscreteOperator(np.zeros((3, 3)), np.ones(3, dtype=complex),
                          weighting="left")
    with pytest.raises(ValueError):
        op.matrix()


def test_solve_resolvent_residual():
    op = halfline_operator(1.5, 1.0)
    n = op.weights.size
    rhs = np.exp(-np.linspace(0.0, 3.0, n)).astype(complex)
    x = solve_resolvent(op, rhs)
    resid = rhs - (x - op.matrix() @ x)
    assert np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


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
    # complement, contour-H by integrating out its own loop
    assert np.array_equal(op_q.weights, op_h.weights)


def test_qa_operator_matches_union_determinant():
    # det(I - Q W) of the full [[0, A], [B, 0]] union matrix, formed densely
    for a, alpha in [(0.5, 1.0), (2.0, 0.5), (3.0, 2.0)]:
        union = kernels.qa_pair(alpha, a_max=a).union()
        q = kernels.qa_matrix(union, a, alpha)
        full = np.linalg.det(np.eye(union.weights.size)
                             - q * union.weights[None, :])
        det, _ = det_one_minus(qa_operator(a, alpha))
        assert abs(det - full) <= 1e-13 * abs(full)
