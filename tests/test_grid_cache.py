"""The shared contour grids and the node values memoised on them.

The builders return one read-only grid per geometry, and the gamma-function
values on its nodes are computed once.  None of that may change a number:
a cold and a warm evaluation, two threads racing on an empty cache, and a
grid built without the cache must all agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from critgap import contours, fredholm, kernels, observables
from critgap.contours import build_closed_loop, build_hairpin, build_vertical
from critgap.special import DomainError


def _hex(value: float) -> str:
    return float(value).hex()


def _sweep() -> list[str]:
    """P, log P and err of every route, u, and finite kernel values, as
    float.hex strings."""
    out = []
    for alpha, a in ((0.5, 1.3), (1.0, 3.1)):
        for route in fredholm.ROUTES:
            res = fredholm.gap_probability(a, alpha, route)
            out += [_hex(res.p), _hex(res.log_p), _hex(res.err)]
    out.append(_hex(observables.u_of_x(2.0, 1.0)))
    for n, m in ((32, 32), (24, 48), (8, 8)):
        shift = kernels.centering_shift(n, m)
        for order in (16, 24):
            for refine in (0.5, 1.0):
                out.append(_hex(kernels.finite_kernel(
                    shift - 0.4, shift + 0.9, n, m, order=order,
                    refine=refine)))
    return out


def test_cold_and_warm_evaluations_agree_bit_for_bit():
    contours._shared_grid.cache_clear()
    cold = _sweep()
    built = contours._shared_grid.cache_info().misses
    warm = _sweep()
    assert contours._shared_grid.cache_info().misses == built
    assert warm == cold


def test_two_threads_on_an_empty_cache_agree_bit_for_bit():
    contours._shared_grid.cache_clear()
    start = threading.Barrier(2)
    results = [None, None]

    def run(slot):
        start.wait()
        results[slot] = _sweep()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert results[0] is not None and results[0] == results[1]
    assert results[0] == _sweep()


def test_finite_parts_are_kept_per_n_and_m():
    # these share their loop at each n, and (3, 1) and (3, 4) their line
    # too; each value must be the one an empty cache gives
    cases = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 4))
    contours._shared_grid.cache_clear()
    shared = [_hex(kernels.finite_kernel(0.5, 0.25, n, m)) for n, m in cases]
    alone = []
    for n, m in cases:
        contours._shared_grid.cache_clear()
        alone.append(_hex(kernels.finite_kernel(0.5, 0.25, n, m)))
    assert shared == alone
    assert contours._shared_grid.cache_info().currsize == 2


def test_one_layout_one_grid():
    # a_max only caps the line's panel widths at 20.8 / a_max; while the
    # cap stays above every panel the layout, and so the grid, is the same
    assert (kernels.qa_pair(1.0, a_max=0.7).line
            is kernels.qa_pair(1.0, a_max=3.7).line)
    # at alpha 0.5 the outer panel is 6.9 wide: the cap splits it from
    # a_max 3.0 on
    below = kernels.qa_pair(0.5, a_max=2.9).line
    above = kernels.qa_pair(0.5, a_max=3.1).line
    assert below is not above
    assert (len(below), len(above)) == (320, 352)


def test_the_cache_stays_within_its_bound():
    contours._shared_grid.cache_clear()
    bound = contours._GRID_CACHE_SIZE
    first = build_vertical(0.5)
    for k in range(1, bound + 10):
        build_vertical(0.5 + k / 1024.0)
        assert contours._shared_grid.cache_info().currsize <= bound
    info = contours._shared_grid.cache_info()
    assert info.currsize == bound and info.misses == bound + 10
    assert build_vertical(0.5) is not first  # the oldest was dropped


def test_memo_stays_within_its_bound():
    grid = build_closed_loop(-7.5)
    for k in range(contours._MEMO_SIZE + 3):
        value = grid.memo(("test", k), lambda: np.full(3, float(k)))
        assert not value.flags.writeable
        assert grid.memo(("test", k), None) is value
        assert len(grid._memo) <= contours._MEMO_SIZE
    assert ("test", 0) not in grid._memo  # the oldest goes first


@pytest.mark.parametrize("build", [
    lambda: build_hairpin(T=12.0, max_frequency=3.0),
    lambda: build_hairpin(nose=0.1, refine=2.0),
    lambda: build_vertical(0.7, 14.0, max_frequency=9.0),
    lambda: build_closed_loop(-5.5, max_frequency=40.0, order=24),
])
def test_a_cached_grid_equals_a_fresh_construction(build, monkeypatch):
    cached = build()
    monkeypatch.setattr(contours, "_shared_grid",
                        contours._shared_grid.__wrapped__)
    fresh = build()
    assert fresh is not cached
    assert fresh.nodes.tobytes() == cached.nodes.tobytes()
    assert fresh.weights.tobytes() == cached.weights.tobytes()
    assert (fresh.panel_count, fresh.order, fresh.spec) == (
        cached.panel_count, cached.order, cached.spec)


def test_writable_grids_keep_no_memo():
    # _kernel_sum, the loop reference of the point evaluators, reads Gamma
    # on the loop and 1/Gamma on the line from the grids' memos
    pair = kernels.qa_pair(1.0, a_max=2.0)
    x = np.linspace(0.5, 2.0, 4)
    kernels._kernel_sum(x, x, pair, 0.5)
    assert "gamma" in pair.loop._memo and "recip_gamma" in pair.line._memo
    # a copy starts with an empty memo; one with writable nodes keeps none,
    # since its caller may still move them
    loop = dataclasses.replace(pair.loop, nodes=pair.loop.nodes.copy())
    line = dataclasses.replace(pair.line, nodes=pair.line.nodes.copy())
    own = dataclasses.replace(pair, loop=loop, line=line)
    assert np.array_equal(kernels._kernel_sum(x, x, own, 0.5),
                          kernels._kernel_sum(x, x, pair, 0.5))
    assert loop._memo == {} and line._memo == {}
    loop.nodes[:] += 0.01
    assert not np.array_equal(kernels._gamma_on(loop),
                              kernels._gamma_on(pair.loop))


def test_memo_keeps_no_value_that_is_not_finite():
    # a factor that overflowed (1/Gamma far up a line at alpha 1/256) is
    # returned, not kept: the grid would hold a useless array
    grid = build_closed_loop(-8.5)
    for value in (np.array([1.0, np.nan]), (np.ones(2), np.array([np.inf]))):
        got = grid.memo(("test", "bad"), lambda: value)
        assert got is value and ("test", "bad") not in grid._memo
    kept = grid.memo(("test", "pair"), lambda: (np.ones(2), np.zeros(3)))
    assert grid._memo[("test", "pair")] is kept
    assert not any(array.flags.writeable for array in kept)


def _writable(grid):
    """A copy of a grid with writable nodes and weights: it keeps no memo,
    so every call on it computes its factors afresh."""
    return dataclasses.replace(grid, nodes=grid.nodes.copy(),
                               weights=grid.weights.copy())


def _bits(arrays):
    return [(array.shape, array.tobytes()) for array in arrays]


@pytest.mark.parametrize("alpha", [0.2, 1.0, 8.0])
def test_line_factors_kept_per_alpha_equal_fresh_ones(alpha):
    # the pole rule's a-free line factors are kept on a read-only line for
    # its alpha at K(alpha, 0) poles, and a call slices the K(alpha, a) it
    # needs; a writable copy of the line computes them at each call.  A
    # sweep of a upward and downward must give the same bits either way
    line = kernels._qa_line(alpha, a_max=4.0)
    kline = kernels._kernel_line(alpha, x_max=20.0)
    pair = kernels.qa_pair(alpha, a_max=4.0)
    loop = kernels.qa_pair(alpha, a_max=4.0, refine=1.4, order=12).loop
    own, kown = _writable(line), _writable(kline)
    own_pair = dataclasses.replace(pair, line=_writable(pair.line))
    sweep = [0.0, 0.1, 0.5, 1.0, 2.0, 4.0]
    for a in sweep + sweep[::-1]:
        x = np.linspace(a, a + 8.0, 12)
        assert (_bits(kernels.cross_blocks(line, alpha, a))
                == _bits(kernels.cross_blocks(own, alpha, a)))
        assert (_bits(kernels.rh_vectors(line, alpha, a))
                == _bits(kernels.rh_vectors(own, alpha, a)))
        assert (_bits([kernels.kernel_matrix(x, x[::-1], kline, alpha)])
                == _bits([kernels.kernel_matrix(x, x[::-1], kown, alpha)]))
        if a > 0.0:
            assert (_bits([kernels.ha_matrix(pair, a, loop)])
                    == _bits([kernels.ha_matrix(own_pair, a, loop)]))
    assert {("cross_blocks", alpha), ("rh_vectors", alpha)} <= set(line._memo)
    assert ("kernel_matrix", alpha) in kline._memo
    assert own._memo == {} and kown._memo == {}


def test_line_factors_are_returned_fresh():
    # what a call returns is its own: writing into it must not reach the
    # factors kept on the line, so the next call is unchanged
    line = kernels._qa_line(1.0, a_max=4.0)
    kline = kernels._kernel_line(1.0, x_max=20.0)
    x = np.linspace(1.0, 9.0, 12)
    want = (_bits(kernels.cross_blocks(line, 1.0, 2.0))
            + _bits(kernels.rh_vectors(line, 1.0, 2.0))
            + _bits([kernels.kernel_matrix(x, x, kline, 1.0)]))
    returned = (kernels.cross_blocks(line, 1.0, 2.0)
                + kernels.rh_vectors(line, 1.0, 2.0)
                + (kernels.kernel_matrix(x, x, kline, 1.0),))
    for array in returned:
        array[...] = 7.0
    assert (_bits(kernels.cross_blocks(line, 1.0, 2.0))
            + _bits(kernels.rh_vectors(line, 1.0, 2.0))
            + _bits([kernels.kernel_matrix(x, x, kline, 1.0)])) == want


def test_kept_line_factors_keep_their_checks():
    # the mirror check runs where the factors are computed, so a writable
    # line that is not its own mirror image still raises; an x < 0 or
    # a < 0 would need more poles than are kept and raises too
    line = kernels._qa_line(1.0, a_max=4.0)
    kline = kernels._kernel_line(1.0, x_max=20.0)
    x = np.linspace(1.0, 9.0, 12)
    kernels.cross_blocks(line, 1.0, 2.0)
    kernels.kernel_matrix(x, x, kline, 1.0)
    for grid in (line, kline):
        bent = _writable(grid)
        bent.nodes[-1] += 1e-6j
        with pytest.raises(contours.GeometryError):
            kernels.cross_blocks(bent, 1.0, 2.0)
        with pytest.raises(contours.GeometryError):
            kernels.kernel_matrix(x, x, bent, 1.0)
    with pytest.raises(DomainError):
        kernels.kernel_matrix(np.array([-0.5, 1.0]), x, kline, 1.0)
    with pytest.raises(DomainError):
        kernels.cross_blocks(line, 1.0, -0.5)
    with pytest.raises(DomainError):
        kernels.rh_vectors(line, 1.0, -0.5)
