"""Monte-Carlo sampler tests.

The eigenvalue path is checked against a hand-rolled cyclic Jacobi solver
(run on the real symmetric embedding of the Hermitian Gram matrix), so the
power iteration never validates itself.  The scalar N = M = 1 case has a
closed-form law and is checked by Kolmogorov-Smirnov distance.  The
triangular-factor sampler is checked against a dense Ginibre-product
reference by a two-sample Kolmogorov-Smirnov test, and its lazily
normalized product chain against one normalized after every factor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from critgap import mc
from critgap.mc import (THREADS_ENV, ConvergenceError, McConfig, McResult,
                        center_aN, empirical_gap, read_samples_csv,
                        resolve_threads, sample_rightmost, summary_dict,
                        top_log_eigenvalue, triangular_factors,
                        write_samples_csv)


def _ginibre_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense standard complex Ginibre draw: |entry|^2 ~ Exp(1), uniform
    phase, by the polar transform of uniforms (the sampler's former draw)."""
    u = rng.random((2, n, n))
    radius = np.sqrt(-np.log1p(-u[0]))
    return radius * np.exp(2j * math.pi * u[1])


def _dense_rightmost(n: int, m: int, trials: int, seed: int) -> np.ndarray:
    """Reference sampler: centered rightmost log-eigenvalues of products of
    dense Ginibre matrices, top singular value by numpy's SVD."""
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for t in range(trials):
        prod, log_scale = np.eye(n, dtype=complex), 0.0
        for _ in range(m):
            prod = _ginibre_matrix(rng, n) @ prod
            norm = float(np.linalg.norm(prod))
            prod /= norm
            log_scale += math.log(norm)
        sigma = float(np.linalg.norm(prod, 2))
        out[t] = 2.0 * (log_scale + math.log(sigma)) - center_aN(n, m)
    return out


def _eager_product(rng: np.random.Generator, n: int,
                   m: int) -> tuple[np.ndarray, float]:
    """Reference product chain: rescale to unit Frobenius norm after every
    factor, and sum the log scales exactly."""
    prod, logs = np.eye(n, dtype=complex), [-0.5 * m * math.log(2.0)]
    for factor, _ in triangular_factors(rng, n, m):
        prod = factor @ prod
        norm = float(np.linalg.norm(prod))
        prod /= norm
        logs.append(math.log(norm))
    return prod, math.fsum(logs)


def jacobi_eigenvalues(herm: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a small Hermitian matrix by cyclic Jacobi rotations.

    Works on the real symmetric embedding [[A, -B], [B, A]] of H = A + iB,
    whose spectrum is that of H with every multiplicity doubled."""
    a_re, a_im = herm.real, herm.imag
    m = np.block([[a_re, -a_im], [a_im, a_re]])
    n = m.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(sum(m[p, q] ** 2 for p in range(n)
                            for q in range(n) if p != q))
        if off <= 1e-14 * max(1.0, float(np.abs(np.diag(m)).max())):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(m[p, q]) < 1e-300:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = math.copysign(1.0, tau) / (abs(tau)
                                               + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp, rq = m[p, :].copy(), m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                cp, cq = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
    return np.sort(np.diag(m))[::2]  # drop the doubled copies


def test_center_anchors():
    assert center_aN(100, 100) == pytest.approx(
        101.0 * (math.log(100.0) - 0.005), rel=1e-15)
    assert center_aN(1, 1) == -1.0
    assert center_aN(48, 48) == pytest.approx(
        49.0 * (math.log(48.0) - 1.0 / 96.0), rel=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(N=0, M=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        McConfig(N=1, M=0, trials=10, seed=0)
    with pytest.raises(ValueError):
        McConfig(N=257, M=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        McConfig(N=1, M=1, trials=0, seed=0)
    with pytest.raises(ValueError):
        McConfig(N=1, M=1, trials=10, seed=-1)
    with pytest.raises(ValueError):
        McConfig(N=1, M=1, trials=10, seed=2 ** 64)
    for field in ("N", "M", "trials", "seed"):
        for bad in (True, 2.5, 3.0, "3", None):
            kwargs = dict(N=2, M=2, trials=3, seed=1)
            kwargs[field] = bad
            with pytest.raises(ValueError, match=f"{field} must be"):
                McConfig(**kwargs)
    cfg = McConfig(N=np.int64(2), M=np.uint8(2), trials=np.int32(3),
                   seed=np.uint64(2 ** 64 - 1))
    assert all(type(v) is int for v in (cfg.N, cfg.M, cfg.trials, cfg.seed))
    with pytest.raises(ValueError):
        center_aN(2.5, 1)


def test_alpha_label_default():
    # M / N, read-only: reports cannot carry an alpha the run did not use
    assert McConfig(N=48, M=24, trials=1, seed=0).alpha_label == 0.5
    cfg = McConfig(N=10, M=30, trials=1, seed=0)
    assert cfg.alpha_label == 3.0
    with pytest.raises(TypeError):
        McConfig(N=10, M=10, trials=1, seed=0, alpha_label=2.0)
    with pytest.raises(AttributeError):
        cfg.alpha_label = 2.0


def test_triangular_factor_structure_and_moments():
    n, m = 8, 4000   # two generator calls: 2340 factors, then 1660
    drawn = list(triangular_factors(np.random.default_rng(12345), n, m))
    factors = np.array([factor for factor, _ in drawn])
    assert factors.shape == (m, n, n)
    lower = np.tril_indices(n, -1)
    assert not np.any(factors[:, lower[0], lower[1]])
    diag = factors[:, np.arange(n), np.arange(n)]
    assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
    dof = 2.0 * (n - np.arange(n))              # E r_jj^2 = 2(N - j)
    sd = np.sqrt(2.0 * dof / m)                 # of the mean of chi2(dof)
    assert np.all(np.abs((diag.real ** 2).mean(axis=0) - dof) <= 5.0 * sd)
    upper = np.triu_indices(n, 1)
    z = factors[:, upper[0], upper[1]]          # 112000 entries
    assert abs((np.abs(z) ** 2).mean() - 2.0) <= 0.03   # sd 0.006
    assert abs(complex(z.mean())) <= 0.02
    assert abs(complex((z ** 2).mean())) <= 0.04        # sd 0.0085


@pytest.mark.parametrize("n, m, seed", [(2, 3, 101), (4, 3, 102),
                                        (6, 8, 103)])
def test_triangular_sampler_matches_dense_products(n, m, seed):
    trials = 3000
    dense = np.sort(_dense_rightmost(n, m, trials, seed))
    tri = np.sort(sample_rightmost(McConfig(N=n, M=m, trials=trials,
                                            seed=seed), threads=1).samples)
    both = np.concatenate([dense, tri])
    gap = (np.searchsorted(dense, both, side="right")
           - np.searchsorted(tri, both, side="right")) / trials
    bound = 1.63 * math.sqrt((trials + trials) / (trials * trials))
    assert float(np.max(np.abs(gap))) < bound


def test_scaling_invariance():
    # rescaled product path vs the raw product of the unscaled (sqrt 2
    # removed) triangular factors of the same draw stream
    scaled, log_scale = mc.product_log_norms(mc._trial_rng(9, 0), 4, 3)
    raw = np.eye(4, dtype=complex)
    for factor, _ in triangular_factors(mc._trial_rng(9, 0), 4, 3):
        raw = (factor / math.sqrt(2.0)) @ raw
    direct = math.log(jacobi_eigenvalues(raw.conj().T @ raw)[-1])
    via_scale = 2.0 * log_scale + math.log(
        jacobi_eigenvalues(scaled.conj().T @ scaled)[-1])
    assert via_scale == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("n", [1, 8, 48, 256])
def test_factor_log_norms_match_the_factors(n):
    # n = 256: two factors per generator call, at the size cap
    for factor, log_norm in triangular_factors(mc._trial_rng(5, n), n, 5):
        assert log_norm == pytest.approx(math.log(np.linalg.norm(factor)),
                                         abs=1e-13)


@pytest.mark.parametrize("n, m", [(48, 256), (8, 256), (1, 256), (48, 48)])
def test_lazy_normalization_matches_eager(n, m):
    # (48, 256) and (8, 256): the norm bound passes 1e150 mid-chain;
    # (48, 48): only the final rescale runs
    for trial in range(3):
        rng, ref_rng = mc._trial_rng(21, trial), mc._trial_rng(21, trial)
        scaled, log_scale = mc.product_log_norms(rng, n, m)
        ref, ref_scale = _eager_product(ref_rng, n, m)
        assert np.linalg.norm(scaled) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(scaled - ref)) <= 1e-12
        assert log_scale == pytest.approx(ref_scale, abs=1e-12)
        assert top_log_eigenvalue(scaled, log_scale, rng) == pytest.approx(
            top_log_eigenvalue(ref, ref_scale, ref_rng), abs=1e-12)


def test_trial_at_the_size_cap_is_finite():
    value = mc._run_trial(McConfig(N=256, M=256, trials=1, seed=8), 0)
    assert math.isfinite(value)
    assert abs(value - center_aN(256, 256)) < 10.0   # about 2000 uncentered


def test_power_iteration_vs_jacobi():
    for n, trial in [(2, 0), (5, 1), (8, 2)]:
        rng = mc._trial_rng(77, trial)
        scaled, log_scale = mc.product_log_norms(rng, n, 2)
        got = top_log_eigenvalue(scaled, log_scale, rng)
        lam = jacobi_eigenvalues(scaled.conj().T @ scaled)[-1]
        assert got == pytest.approx(2.0 * log_scale + math.log(lam),
                                    abs=1e-9)


def test_seed_determinism_and_thread_invariance():
    cfg = McConfig(N=6, M=4, trials=24, seed=31415)
    seq = sample_rightmost(cfg, threads=1)
    par = sample_rightmost(cfg, threads=4)
    again = sample_rightmost(cfg, threads=1)
    assert np.array_equal(seq.samples, par.samples)
    assert np.array_equal(seq.samples, again.samples)
    other = sample_rightmost(McConfig(N=6, M=4, trials=24, seed=31416),
                             threads=1)
    assert not np.array_equal(seq.samples, other.samples)


def test_scalar_case_reconstruction():
    # at N = M = 1 the factor is sqrt(chisquare(2)) and sqrt(2) is divided
    # out, so the sample is log(chisquare(2)) - log 2 - a_N
    cfg = McConfig(N=1, M=1, trials=50, seed=4)
    res = sample_rightmost(cfg, threads=1)
    assert res.a_N == -1.0
    for t in range(cfg.trials):
        chi2 = float(mc._trial_rng(cfg.seed, t).chisquare(2))
        expected = math.log(chi2) - math.log(2.0) + 1.0
        assert res.samples[t] == pytest.approx(expected, abs=1e-12)


def test_thread_invariance_across_generator_calls():
    # (48, 60): 60 > 58 factors per generator call at N = 48, two calls a
    # trial; (8, 256): the norm bound also passes 1e150 mid-chain
    for n, m in [(48, 60), (8, 256)]:
        cfg = McConfig(N=n, M=m, trials=8, seed=2718)
        one = sample_rightmost(cfg, threads=1).samples
        for threads in (2, 4):
            assert np.array_equal(
                sample_rightmost(cfg, threads=threads).samples, one)


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert resolve_threads() == 1
    assert resolve_threads(3) == 3
    monkeypatch.setenv(THREADS_ENV, "2")
    assert resolve_threads() == 2
    assert resolve_threads(1) == 1               # the argument wins
    for bad in (0, -2, 2.5, True, "2"):
        with pytest.raises(ValueError, match="threads must be"):
            resolve_threads(bad)
    for bad in ("0", "-1", "two", "2.0", ""):
        monkeypatch.setenv(THREADS_ENV, bad)
        with pytest.raises(ValueError, match=THREADS_ENV):
            resolve_threads()
    cfg = McConfig(N=2, M=2, trials=4, seed=0)
    with pytest.raises(ValueError, match="threads must be"):
        sample_rightmost(cfg, threads=0)
    with pytest.raises(ValueError, match=THREADS_ENV):
        sample_rightmost(cfg)


def test_scalar_case_ks():
    # log|X|^2 is distributed as the log of a mean-1 exponential
    cfg = McConfig(N=1, M=1, trials=2000, seed=7)
    res = sample_rightmost(cfg, threads=1)
    s = np.sort(res.samples - 1.0)
    n = s.size
    cdf = 1.0 - np.exp(-np.exp(s))
    ranks = np.arange(1, n + 1) / n
    dist = max(float(np.max(ranks - cdf)),
               float(np.max(cdf - (ranks - 1.0 / n))))
    assert dist < 1.63 / math.sqrt(n)


def test_empirical_gap_edges():
    res = McResult(McConfig(N=1, M=1, trials=4, seed=0), -1.0,
                   np.array([-1.0, 0.0, 1.0, 2.0]))
    assert empirical_gap(res, 10.0) == (1.0, 0.0)
    assert empirical_gap(res, -5.0) == (0.0, 0.0)
    phat, ci = empirical_gap(res, 0.5)
    assert phat == 0.5
    assert ci == pytest.approx(1.96 * math.sqrt(0.25 / 4.0))


def test_csv_round_trip(tmp_path):
    cfg = McConfig(N=3, M=2, trials=17, seed=99)
    res = sample_rightmost(cfg, threads=1)
    path = str(tmp_path / "samples.csv")
    write_samples_csv(res, path)
    back = read_samples_csv(path)
    assert np.array_equal(back, res.samples)   # 17 digits round-trips doubles
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
    assert header.startswith("# N=3 M=2 trials=17 seed=99")
    assert header.rstrip().endswith(f" sampler={mc.SAMPLER}")
    old = tmp_path / "old.csv"   # written before the header named a sampler
    old.write_text("# N=3 M=2 trials=2 seed=99 alpha_label=0.66666666666666663"
                   " a_N=1.0\nsample\n0.5\n-1.25\n", encoding="utf-8")
    assert np.array_equal(read_samples_csv(str(old)), [0.5, -1.25])


def test_summary_dict_shape():
    cfg = McConfig(N=2, M=2, trials=64, seed=5)
    res = sample_rightmost(cfg, threads=1)
    summary = summary_dict(res, gap_points=[0.0, 1.0])
    assert summary["N"] == 2 and summary["trials"] == 64
    q = summary["quantiles"]
    assert q["5%"] <= q["25%"] <= q["50%"] <= q["75%"] <= q["95%"]
    assert summary["min"] <= q["5%"] and q["95%"] <= summary["max"]
    assert [row["a"] for row in summary["gap_table"]] == [0.0, 1.0]
    phat0 = summary["gap_table"][0]["phat"]
    assert 0.0 <= phat0 <= 1.0


def test_power_iteration_convergence_guard(monkeypatch):
    monkeypatch.setattr(mc, "_POWER_MAX_ITER", 1)
    rng = mc._trial_rng(0, 0)
    scaled, log_scale = mc.product_log_norms(rng, 8, 2)
    with pytest.raises(ConvergenceError):
        top_log_eigenvalue(scaled, log_scale, rng)
