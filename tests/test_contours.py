"""Contour-builder and quadrature tests.

Reference integrals use closed forms (residues, Gaussian integrals) rather
than a second quadrature, so the grids are tested against exact numbers.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from critgap import contours
from critgap.contours import (GeometryError, build_closed_loop, build_hairpin,
                              build_vertical, deformed_contours,
                              gamma_contour_integral, truncation_radius)
from critgap.special import gamma


def alternating_pole_sum(alpha: float, a: float, terms: int = 20) -> float:
    total, fact = 0.0, 1.0
    for k in range(terms):
        if k:
            fact *= k
        total += (-1.0) ** k / fact * math.exp(-alpha * k * k / 2.0 - a * k)
    return total


def test_hairpin_structure():
    grid = build_hairpin()
    assert len(grid) == grid.panel_count * grid.order
    assert grid.weights.shape == grid.nodes.shape
    # endpoints approach -T -i delta and -T +i delta (open hairpin)
    assert grid.nodes[0].real < -5.0 and grid.nodes[0].imag < 0.0
    assert grid.nodes[-1].real < -5.0 and grid.nodes[-1].imag > 0.0


@pytest.mark.parametrize("build", [
    build_hairpin,
    lambda: build_hairpin(nose=0.1),
    build_vertical,
    lambda: build_closed_loop(-3.5),
])
def test_builder_grids_are_read_only(build):
    # the builders share one grid among every caller asking for its
    # geometry, so no caller may write into it
    grid = build()
    for array in (grid.nodes, grid.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.nodes = grid.nodes.copy()
    assert build() is grid


def test_hairpin_endpoint_integral():
    # integral of dz equals the endpoint difference 2 i delta
    grid = build_hairpin(delta=0.25, T=10.0)
    total = grid.integrate(np.ones(len(grid)))
    assert total == pytest.approx(0.5j, abs=1e-12)


def test_hairpin_residue_series():
    for alpha, a in [(2.0, 1.0), (1.0, 2.0), (0.5, 1.5)]:
        grid = build_hairpin(T=truncation_radius(alpha / 2.0, 0.0, 40.0,
                                                 gamma_decay=True))
        got = gamma_contour_integral(grid, alpha, a)
        want = alternating_pole_sum(alpha, a)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_pinched_hairpin_residue_series():
    # nose tighter than the arm half-width: throat grading keeps accuracy
    grid = build_hairpin(nose=0.1, T=10.0)
    got = gamma_contour_integral(grid, 2.0, 1.0)
    want = alternating_pole_sum(2.0, 1.0)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_vertical_line_gaussian():
    # along Re z = b the integral of exp(z^2) dz equals i sqrt(pi),
    # independent of b (shift invariance)
    for b in (0.5, 0.3):
        grid = build_vertical(b=b, T=8.0)
        total = grid.integrate(np.exp(grid.nodes ** 2))
        assert total == pytest.approx(1j * math.sqrt(math.pi), abs=1e-12)


def test_vertical_structure():
    grid = build_vertical()
    assert np.all(np.isclose(grid.nodes.real, 0.5))
    assert np.all(np.diff(grid.nodes.imag) > 0)


def test_vertical_line_nodes_sit_exactly_on_the_crossing():
    # consumers of a "line" grid (the RH workspace's real Cauchy factor
    # 1/(Im z - Im s)) rely on every node having real part spec.crossing
    grids = [build_vertical(), build_vertical(b=2.0, T=25.0, max_frequency=40.0),
             build_vertical(b=0.3, refine=0.5),
             deformed_contours(1.5, 2.5, refine=0.5)[1]]
    for grid in grids:
        assert grid.spec.kind == "line"
        assert np.all(grid.nodes.real == grid.spec.crossing)


def test_hairpin_and_line_are_exact_mirror_images():
    # z[::-1] = conj(z) and w[::-1] = -conj(w) bit for bit, pinched or not,
    # so a sum over the grid folds exactly onto its upper half
    grids = [build_hairpin(T=12.0), build_hairpin(nose=0.1, T=9.0, order=12),
             build_vertical(T=25.0, max_frequency=40.0), build_vertical(b=2.0)]
    for grid in grids:
        assert grid.nodes.size % 2 == 0
        assert np.array_equal(grid.nodes[::-1], grid.nodes.conj())
        assert np.array_equal(grid.weights[::-1], -grid.weights.conj())
        assert np.all(grid.nodes[grid.nodes.size // 2:].imag > 0)


def _segment_per_panel(z0, z1, cuts, order):
    """The panel-by-panel form of contours._segment, in its operation order."""
    x, w = contours._gl_rule(order)
    nodes, weights = [], []
    dz = z1 - z0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        nodes.append(z0 + dz * (mid + half * x))
        weights.append(w * half * dz)
    return np.concatenate(nodes), np.concatenate(weights), len(cuts) - 1


def _arc_per_panel(center, radius, th0, th1, n_panels, order):
    """The panel-by-panel form of contours._arc, in its operation order."""
    x, w = contours._gl_rule(order)
    cuts = np.linspace(th0, th1, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        th = mid + half * x
        nodes.append(center + radius * np.exp(1j * th))
        weights.append(w * half * 1j * radius * np.exp(1j * th))
    return np.concatenate(nodes), np.concatenate(weights), n_panels


def test_panel_builders_match_the_per_panel_form_bit_for_bit(monkeypatch):
    # the builders fill every panel of a piece in one broadcast; each grid
    # must equal the panel-by-panel build exactly, so the kernels' values
    # do not move
    builds = [lambda: build_hairpin(T=12.0),
              lambda: build_hairpin(nose=0.1, T=9.0, order=12),
              lambda: build_hairpin(T=20.0, max_frequency=30.0, refine=2.0),
              lambda: build_vertical(T=25.0, max_frequency=114.0),
              lambda: build_vertical(b=2.0, refine=0.5),
              lambda: build_closed_loop(-31.5, max_frequency=114.0),
              lambda: build_closed_loop(-0.5, order=24)]
    got = [build() for build in builds]
    monkeypatch.setattr(contours, "_segment", _segment_per_panel)
    monkeypatch.setattr(contours, "_arc", _arc_per_panel)
    for grid, build in zip(got, builds):
        want = build()
        assert np.array_equal(grid.nodes, want.nodes)
        assert np.array_equal(grid.weights, want.weights)
        assert grid.panel_count == want.panel_count


def test_closed_loop_residue():
    loop = build_closed_loop(left_edge=-0.5)
    # closed: integral of dz vanishes; Gamma picks up only the pole at 0
    assert abs(loop.integrate(np.ones(len(loop)))) <= 1e-12
    vals = np.array([gamma(z) for z in loop.nodes])
    assert loop.integrate(vals) / (2.0j * math.pi) == pytest.approx(1.0, abs=1e-12)


def test_closed_loop_two_poles():
    loop = build_closed_loop(left_edge=-1.5)
    vals = np.array([gamma(z) for z in loop.nodes])
    # residues at 0 and -1: 1 - 1 = 0
    assert abs(loop.integrate(vals) / (2.0j * math.pi)) <= 1e-12


def test_truncation_radius_solves_decay_budget():
    for coeff, growth, target in [(0.25, 0.0, 40.0), (0.5, math.pi / 2, 40.0),
                                  (0.125, math.pi / 2, 30.0)]:
        T = truncation_radius(coeff, growth, target)
        assert T >= 5.0
        assert coeff * T * T - growth * T == pytest.approx(target, abs=1e-6)
    # gamma decay contributes, shrinking the radius
    assert (truncation_radius(0.25, 0.0, 40.0, gamma_decay=True)
            < truncation_radius(0.25, 0.0, 40.0))


def test_truncation_radius_monotone_in_target():
    radii = [truncation_radius(0.25, 1.0, t) for t in (20.0, 40.0, 80.0)]
    assert radii[0] < radii[1] < radii[2]


def test_refine_and_frequency_grow_grids():
    base = build_hairpin()
    assert len(build_hairpin(refine=2.0)) > len(base)
    # nose-arc oscillation budget only bites once frequency ~ order/radius
    assert len(build_hairpin(max_frequency=300.0)) > len(base)
    line = build_vertical(T=10.0)
    assert len(build_vertical(T=10.0, max_frequency=40.0)) > len(line)


def test_deformed_pair_geometry():
    loop, line = deformed_contours(2.0, 3.0)
    assert loop.spec.crossing == pytest.approx(1.0 / 6.0)
    assert line.spec.crossing == pytest.approx(1.5)
    assert np.max(loop.nodes.real) < np.min(line.nodes.real)
    with pytest.raises(GeometryError):
        deformed_contours(2.0, 1.0)   # a^2 <= 1
    with pytest.raises(GeometryError):
        deformed_contours(2.0, 0.5)


def test_deformed_loop_still_sums_residues():
    loop, _ = deformed_contours(1.0, 4.0)
    got = gamma_contour_integral(loop, 1.0, 4.0)
    want = alternating_pole_sum(1.0, 4.0)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        build_hairpin(delta=0.5)
    with pytest.raises(GeometryError):
        build_hairpin(T=3.0)
    with pytest.raises(GeometryError):
        build_hairpin(order=2)
    with pytest.raises(GeometryError):
        build_vertical(T=3.0)
    with pytest.raises(GeometryError):
        build_closed_loop(left_edge=-1.0)   # sits on a pole
    with pytest.raises(GeometryError):
        build_closed_loop(left_edge=-0.5, nose=0.1)  # nose < delta


def test_line_integral_self_convergence():
    # reciprocal-gamma integrand: stable under doubling the truncation
    from critgap.special import recip_gamma
    vals = []
    for T in (8.0, 16.0):
        grid = build_vertical(b=0.5, T=T, max_frequency=3.0)
        f = np.array([recip_gamma(s) for s in grid.nodes])
        vals.append(grid.integrate(f * np.exp(grid.nodes ** 2 - 3.0 * grid.nodes)))
    assert abs(vals[0] - vals[1]) <= 1e-10 * (1.0 + abs(vals[1]))

