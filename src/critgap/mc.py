"""Monte-Carlo ground truth: products of i.i.d. complex Ginibre matrices.

The squared singular values of the product of M independent N x N Ginibre
matrices form a determinantal process on the log scale; after centering by
a_N = (M+1)(log N - 1/(2N)) the rightmost point converges (M/N -> alpha) to
the critical process whose gap probability the rest of the package computes.
Only the rightmost particle is sampled: the gap on (a, inf) depends on
nothing else, and the top of the spectrum stays well-conditioned despite the
product's enormous dynamic range.

The factors are not drawn dense.  By unitary invariance G_M ... G_1 has the
singular values of R_M ... R_1, where the R are independent upper-triangular
QR factors of Ginibre matrices: chi-distributed diagonal, complex Gaussians
above it (Forrester, arXiv:1206.2001; Akemann-Burda-Kieburg,
arXiv:1406.0803).  That needs half the variates and none of the polar
transform, and the variates of many factors come from one generator call.
Each trial draws from its own SFC64 stream.  Samples for a given seed
therefore differ from those of versions that drew dense factors or used
Philox streams; the law is the same.

Entries of the product grow like exp(Theta(M log N)), far beyond double
range at N = M >= 32.  The chain keeps a running upper bound on the
product's Frobenius norm, the product of the factors' own norms, and
rescales the partial product to unit norm only when that bound passes
1e150, and once at the end; the scale is accumulated exactly in log space.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import centering_shift

__all__ = [
    "ConvergenceError",
    "SAMPLER",
    "McConfig",
    "McResult",
    "center_aN",
    "triangular_factors",
    "product_log_norms",
    "top_log_eigenvalue",
    "resolve_threads",
    "sample_rightmost",
    "empirical_gap",
    "write_samples_csv",
    "read_samples_csv",
    "summary_dict",
]

_SIZE_CAP = 256
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 10_000
# complex normals drawn per generator call: every factor of an N = M = 48
# trial at once, yet O(N^2) memory at the size cap (two factors a call)
_BLOCK_ENTRIES = 1 << 16
# rescale the partial product once its norm bound passes 1e150: after one
# more factor (Frobenius norm about 360 at the size cap) the sum of squares
# that np.linalg.norm forms stays below the double range of about 1.8e308
_LOG_NORM_LIMIT = math.log(1e150)
THREADS_ENV = "CRITGAP_THREADS"
# names the law and the stream layout; recorded with every sample file
SAMPLER = "triangular-sfc64"


class ConvergenceError(RuntimeError):
    """Power iteration failed to stabilize the top eigenvalue."""


def center_aN(N: int, M: int) -> float:
    """Centering constant (M+1)(log N - 1/(2N)) for the rightmost particle."""
    if int(N) != N or int(M) != M:
        raise ValueError("N and M must be integers")
    return centering_shift(int(N), int(M))


@dataclass(frozen=True)
class McConfig:
    N: int
    M: int
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("N", "M", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                          numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (1 <= self.N <= _SIZE_CAP and 1 <= self.M <= _SIZE_CAP):
            raise ValueError(f"N, M must be in [1, {_SIZE_CAP}]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    @property
    def alpha_label(self) -> float:
        """M / N, the alpha the limit is compared at; reporting only."""
        return self.M / self.N


@dataclass(frozen=True)
class McResult:
    config: McConfig
    a_N: float
    samples: np.ndarray  # centered rightmost log-eigenvalues, one per trial


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # one SFC64 stream per trial, keyed by the trial index in the seed's
    # SeedSequence; sharded runs derive identical streams
    seq = np.random.SeedSequence(seed, spawn_key=(trial,))
    return np.random.Generator(np.random.SFC64(seq))


@functools.lru_cache(maxsize=None)
def _triangle_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the strict upper triangle of an n x n matrix, and
    the chi-square degrees of freedom 2(n - j) of the diagonal entries."""
    rows, cols = np.triu_indices(n, 1)
    upper = rows * n + cols
    dof = 2.0 * np.arange(n, 0, -1)
    upper.flags.writeable = dof.flags.writeable = False
    return upper, dof


def triangular_factors(rng: np.random.Generator, n: int,
                       m: int) -> Iterator[tuple[np.ndarray, float]]:
    """Yield m independent n x n upper-triangular factors R, each distributed
    as sqrt(2) times the R of the QR decomposition of a standard complex
    Ginibre matrix: r_jj = sqrt(chisquare(2(n - j))) on the diagonal,
    complex entries with standard-normal real and imaginary parts above it,
    zeros below.  Each comes with log ||R||_F, taken from its variates.

    The variates of as many factors as fit in 2^16 complex normals (at
    least one) come from one generator call each for the normals and the
    chi-squares, in factor order; every factor is a fresh array."""
    upper, dof = _triangle_layout(n)
    per_call = max(1, _BLOCK_ENTRIES // max(upper.size, 1))
    for start in range(0, m, per_call):
        count = min(per_call, m - start)
        normals = rng.standard_normal((count, 2 * upper.size))
        chi2 = rng.chisquare(dof, (count, n))
        # ||R||_F^2: the squared normals above the diagonal plus r_jj^2
        log_norms = 0.5 * np.log(np.einsum("ij,ij->i", normals, normals)
                                 + chi2.sum(axis=1))
        above = normals.view(complex)
        diag = np.sqrt(chi2)
        for k in range(count):
            factor = np.zeros((n, n), dtype=complex)
            flat = factor.reshape(-1)
            flat[upper] = above[k]
            flat[::n + 1] = diag[k]
            yield factor, float(log_norms[k])


def product_log_norms(rng: np.random.Generator, n: int,
                      m: int) -> tuple[np.ndarray, float]:
    """Left-multiply m triangular factors.  Returns (product scaled to unit
    Frobenius norm, accumulated log scale), the scale already divided by
    the factors' sqrt(2)^m.

    The partial product is rescaled only when the sum of the factors' log
    Frobenius norms since the last rescale, an upper bound on its log norm
    (||R_k ... R_1||_F <= prod ||R_i||_F), passes log 1e150, and once at
    the end.  It cannot underflow in between: its norm is at least its
    (0, 0) entry, exactly the product of the factors' r_00, which grows at
    the product's top Lyapunov rate."""
    prod = np.eye(n, dtype=complex)
    log_scale = log_bound = 0.0
    for factor, log_norm in triangular_factors(rng, n, m):
        prod = factor @ prod
        log_bound += log_norm
        if log_bound > _LOG_NORM_LIMIT:
            log_scale += _normalize(prod)
            log_bound = 0.0
    log_scale += _normalize(prod)
    return prod, log_scale - 0.5 * m * math.log(2.0)


def _normalize(prod: np.ndarray) -> float:
    """Scale prod to unit Frobenius norm in place; return the log norm."""
    norm = float(np.linalg.norm(prod))
    prod /= norm
    return math.log(norm)


def top_log_eigenvalue(scaled: np.ndarray, log_scale: float,
                       rng: np.random.Generator) -> float:
    """log of the largest eigenvalue of the (descaled) product's Gram matrix,
    by power iteration on the explicitly formed scaled Gram matrix."""
    n = scaled.shape[0]
    if n == 1:
        return 2.0 * (log_scale + math.log(abs(scaled[0, 0])))
    gram = scaled.conj().T @ scaled
    v = rng.random(n) + 1.0  # deterministic positive start, no zero risk
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = gram @ v
        new_lam = float(np.real(np.vdot(v, w)))
        norm = float(np.linalg.norm(w))
        v = w / norm
        if abs(new_lam - lam) <= _POWER_TOL * abs(new_lam):
            return 2.0 * log_scale + math.log(new_lam)
        lam = new_lam
    raise ConvergenceError(
        f"power iteration: no 1e-10 stabilization in {_POWER_MAX_ITER} steps")


def _run_trial(cfg: McConfig, trial: int) -> float:
    rng = _trial_rng(cfg.seed, trial)
    scaled, log_scale = product_log_norms(rng, cfg.N, cfg.M)
    return top_log_eigenvalue(scaled, log_scale, rng)


def resolve_threads(threads: int | None = None) -> int:
    """Worker-thread count: `threads` if given, else the CRITGAP_THREADS
    environment variable, else 1.  Anything but a positive integer raises
    ValueError naming the argument or the variable it came from."""
    source = "threads"
    if threads is None:
        source = THREADS_ENV
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be a positive integer, "
                             f"got {raw!r}") from None
    if (isinstance(threads, bool) or not isinstance(threads, int)
            or threads < 1):
        raise ValueError(f"{source} must be a positive integer, "
                         f"got {threads!r}")
    return threads


def sample_rightmost(cfg: McConfig, threads: int | None = None) -> McResult:
    """Draw cfg.trials independent rightmost centered log-eigenvalues.

    Trials are sharded over a thread pool of `resolve_threads(threads)`
    workers; every trial owns a derived RNG stream keyed by its index, so
    the sample list is identical for any thread count."""
    threads = resolve_threads(threads)
    a_n = center_aN(cfg.N, cfg.M)
    out = np.empty(cfg.trials)
    if threads == 1:
        for t in range(cfg.trials):
            out[t] = _run_trial(cfg, t) - a_n
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for t, val in enumerate(pool.map(lambda i: _run_trial(cfg, i),
                                             range(cfg.trials))):
                out[t] = val - a_n
    return McResult(cfg, a_n, out)


def empirical_gap(result: McResult, a: float) -> tuple[float, float]:
    """Empirical gap frequency phat = #{samples <= a}/trials and its 95%
    binomial half-width 1.96 sqrt(phat(1-phat)/trials)."""
    n = result.samples.size
    phat = float(np.count_nonzero(result.samples <= a)) / n
    ci95 = 1.96 * math.sqrt(phat * (1.0 - phat) / n)
    return phat, ci95


def write_samples_csv(result: McResult, path: str) -> None:
    """One centered sample per line at 17 significant digits, preceded by a
    comment header echoing the configuration."""
    cfg = result.config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# N={cfg.N} M={cfg.M} trials={cfg.trials} seed={cfg.seed}"
                 f" alpha_label={cfg.alpha_label:.17g} a_N={result.a_N:.17g}"
                 f" sampler={SAMPLER}\n")
        fh.write("sample\n")
        for v in result.samples:
            fh.write(f"{v:.17g}\n")


def read_samples_csv(path: str) -> np.ndarray:
    vals = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "sample":
                continue
            vals.append(float(line))
    return np.array(vals)


def summary_dict(result: McResult, gap_points: list[float] | None = None) -> dict:
    """JSON-ready summary: sample quantiles and the empirical gap table."""
    s = np.sort(result.samples)
    qs = {q: float(np.quantile(s, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
    table = []
    for a in gap_points or []:
        phat, ci = empirical_gap(result, a)
        table.append({"a": a, "phat": phat, "ci95": ci})
    cfg = result.config
    return {
        "N": cfg.N, "M": cfg.M, "trials": cfg.trials, "seed": cfg.seed,
        "alpha_label": cfg.alpha_label, "a_N": result.a_N,
        "min": float(s[0]), "max": float(s[-1]),
        "quantiles": {f"{int(100 * q)}%": v for q, v in qs.items()},
        "gap_table": table,
    }
