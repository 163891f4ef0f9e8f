"""Monte-Carlo harness: sample covariance draws, oracle statistics, PRIAL.

Population eigenvectors are fixed to the standard basis (no generality lost
for Gaussian entries, by rotation invariance), so Sigma is diagonal with the
deterministic quantile eigenvalues and every overlap N|u_i* v_j|^2 is just
N|U_ji|^2.  Streams are split per replication with counter-based generators
keyed by (seed, rep index), so results do not depend on evaluation order:
the replication loops cut the replications into memory-capped stacks
(BATCH_ENTRIES), each drawn with one eigh call, and map the stacks onto
worker threads (see mc_workers); they return the same bits as a serial loop
over single draws.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import shrinkage as shrinkage_mod
from . import spectrum as spectrum_mod
from .errors import GammaOne
from .spectrum import PopulationSpectrum
from .stieltjes import StieltjesSolution, solve_density

ENTRY_LAWS = ("real-gaussian", "complex-gaussian")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# per worker thread: 81 replications at N = 20, p = 40; 1 at N = 400, p = 800
BATCH_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class SimulationConfig:
    N: int
    p: int
    spec: PopulationSpectrum
    reps: int
    seed: int = 0
    entry_law: str = "real-gaussian"

    def __post_init__(self):
        if self.N < 2 or self.p < 1 or self.reps < 1 or self.seed < 0:
            raise ValueError("need N >= 2, p >= 1, reps >= 1, seed >= 0")
        if self.entry_law not in ENTRY_LAWS:
            raise ValueError(f"entry_law must be one of {ENTRY_LAWS}")

    @property
    def gamma(self) -> float:
        return self.p / self.N

    @cached_property
    def population_diag(self) -> np.ndarray:
        """Diagonal of Sigma, the quantile eigenvalues of H; computed once
        per config and read-only, since every draw shares it."""
        diag = spectrum_mod.population_eigenvalues(self.spec, self.N)
        diag.flags.writeable = False
        return diag


@dataclass
class Realization:
    population_diag: np.ndarray
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # columns paired with eigenvalues


def _rng_for_rep(seed: int, rep_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,))
    return np.random.Generator(np.random.Philox(ss))


def _batch_reps(config: SimulationConfig) -> int:
    """Replications per stack: BATCH_ENTRIES entries of Sigma^(1/2) X at most."""
    per_rep = config.N * config.p * (1 if config.entry_law == "real-gaussian" else 2)
    return max(1, BATCH_ENTRIES // per_rep)


def generate(config: SimulationConfig, reps: int | range) -> Realization:
    """Draw sample covariance matrices and return their eigensystems.

    Sigma^(1/2) X has i.i.d. columns; S = (1/p) * (Sigma^(1/2) X)(...)^*.
    Eigenvalues are returned in decreasing order with orthonormal
    eigenvectors.  A rep index gives eigenvalues (N,) and eigenvectors
    (N, N); a range of B indices gives the stack, (B, N) and (B, N, N), from
    one eigh call.  Each draw is a pure function of (seed, rep index).  The
    real law fills one part x_0 of Sigma^(1/2) X, the complex law its real
    parts x_0, then its imaginary parts x_1; S is formed from real products,
    sum_k x_k x_k^T + i (M - M^T) with M = x_1 x_0^T, so Hermitian exactly.
    """
    batch = reps if isinstance(reps, range) else range(reps, reps + 1)
    root = np.sqrt(config.population_diag)[:, None]
    real_law = config.entry_law == "real-gaussian"
    x = np.empty((1 if real_law else 2, config.N, config.p))
    s = np.empty((len(batch), config.N, config.N), dtype=float if real_law else complex)
    xxt = None if real_law else np.empty((2, config.N, config.N))
    for b, r in enumerate(batch):
        _rng_for_rep(config.seed, r).standard_normal(out=x)
        if not real_law:
            x *= 1.0 / np.sqrt(2.0)  # as complex division by sqrt(2) rounds
        x *= root
        # one syrk per part, the real law's straight into S
        np.matmul(x, x.swapaxes(1, 2), out=s[b:b + 1] if real_law else xxt)
        if not real_law:
            np.add(*xxt, out=s[b].real)
            np.matmul(x[1], x[0].T, out=xxt[0])
            np.subtract(xxt[0], xxt[0].T, out=s[b].imag)
    del x, xxt
    s /= config.p
    vals, vecs = np.linalg.eigh(s)  # ascending
    vals, vecs = vals[:, ::-1].copy(), vecs[:, :, ::-1].copy()
    if not isinstance(reps, range):
        vals, vecs = vals[0], vecs[0]
    return Realization(population_diag=config.population_diag,
                       eigenvalues=vals, eigenvectors=vecs)


def blas_threads_setting() -> str | None:
    """The BLAS thread count asked for in the environment: the first of
    BLAS_THREAD_VARS that is set, or None."""
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var):
            return os.environ[var]
    return None


def mc_workers(reps: int) -> int:
    """Worker threads for a loop over reps replications: the usable CPUs
    divided by the BLAS threads of each call, at most reps.  With no BLAS
    setting, OpenBLAS and MKL already run every call on every core, and
    more threads would only oversubscribe them, so the loop stays serial."""
    try:
        blas = int(blas_threads_setting())
    except (TypeError, ValueError):
        return 1
    if blas < 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus // blas, reps))


def _replicate(config: SimulationConfig, reducer) -> tuple:
    """reducer(generate(config, range(config.reps))), drawn in stacks.

    The reducer returns a tuple of arrays with one row per replication of its
    stack.  The replications are cut into stacks of _batch_reps, mapped onto
    mc_workers threads (eigh, matmul and the Philox fill release the GIL), or
    looped over when there is one; the rows come back in replication order.
    Every draw is a pure function of (seed, r), so the result is the same for
    every worker count and stack size.  The reducer should return small rows,
    so that one stack per worker is alive."""
    config.population_diag  # computed once, before the workers share it
    workers = mc_workers(config.reps)
    step = _batch_reps(config)
    stacks = [range(k, min(k + step, config.reps))
              for k in range(0, config.reps, step)]

    def rows(reps: range) -> tuple:
        return reducer(generate(config, reps))

    if workers == 1:
        parts = map(rows, stacks)
    else:
        # imported here: concurrent.futures loads logging, which would add
        # about 5 ms to the start-up of every CLI process
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(rows, stacks))
    return tuple(np.concatenate(col) for col in zip(*parts))


def oracle_dtilde(U: np.ndarray, sigma_diag: np.ndarray) -> np.ndarray:
    """Diagonal of U* Sigma U for diagonal Sigma: the oracle replacements
    d_i = u_i* Sigma u_i, paired with the (descending) sample eigenvalues;
    one row per matrix of a stack U."""
    return np.einsum("...ji,j->...i", np.abs(U) ** 2, sigma_diag)


def zero_eig_count(eigenvalues: np.ndarray):
    """The zero eigenvalues of shrinkage.zero_eigenvalues, counted per row of
    a stack of spectra."""
    return np.sum(shrinkage_mod.zero_eigenvalues(eigenvalues), axis=-1)


def empirical_delta(config: SimulationConfig, x_grid) -> np.ndarray:
    """Average over replications of (1/N) * sum d_i * 1[lambda_i <= x], the
    zero eigenvalues (shrinkage.zero_eigenvalues) taken as 0."""
    x_grid = np.asarray(x_grid, dtype=float)

    def rows(real: Realization) -> tuple[np.ndarray]:
        d_asc = oracle_dtilde(real.eigenvectors, real.population_diag)[:, ::-1]
        csum = np.pad(np.cumsum(d_asc, axis=1), ((0, 0), (1, 0))) / config.N
        # eigenvalues <= x, as searchsorted(side="right") counts them
        below = np.sum(shrinkage_mod.zeroed(real.eigenvalues)[:, :, None]
                       <= x_grid, axis=1)
        return np.take_along_axis(csum, below, axis=1),

    values, = _replicate(config, rows)
    return values.sum(axis=0) / config.reps


@dataclass
class OverlapBinTable:
    lambda_edges: np.ndarray
    tau_edges: np.ndarray
    mean: np.ndarray       # (n_lambda_bins, n_tau_bins)
    std_error: np.ndarray  # across replication means
    count: np.ndarray      # total pair count
    empty: np.ndarray      # bins that never received a pair


def empirical_overlap(config: SimulationConfig, lambda_bins,
                      tau_bins) -> OverlapBinTable:
    """Binned means of N |u_i* v_j|^2 with per-bin standard errors.

    Bins are (lo, hi] intervals, zero eigenvalues (as in empirical_delta)
    taken as 0.  The standard error is computed across the per-replication
    bin means, which respects within-replication correlation.
    """
    lam_edges = np.asarray(lambda_bins, dtype=float)
    tau_edges = np.asarray(tau_bins, dtype=float)
    nl, nt = len(lam_edges) - 1, len(tau_edges) - 1
    size = (nl + 1) * (nt + 1)
    # pairs outside every bin go to row nl or column nt, dropped below
    tj = np.searchsorted(tau_edges, config.population_diag, side="left") - 1
    tj = np.where((tj >= 0) & (tj < nt), tj, nt)

    def rows(real: Realization) -> tuple[np.ndarray, np.ndarray]:
        overlaps = config.N * np.abs(real.eigenvectors.swapaxes(1, 2)) ** 2
        li = np.searchsorted(lam_edges, shrinkage_mod.zeroed(real.eigenvalues),
                             side="left") - 1
        li = np.where((li >= 0) & (li < nl), li, nl)
        shape = (len(li), nl + 1, nt + 1)  # replication b owns cells b*size...
        cell = (li[:, :, None] * (nt + 1) + tj
                + size * np.arange(len(li))[:, None, None]).ravel()
        sums = np.bincount(cell, overlaps.ravel(), len(li) * size)
        counts = np.bincount(cell, minlength=len(li) * size)
        return sums.reshape(shape)[:, :nl, :nt], counts.reshape(shape)[:, :nl, :nt]

    rep_sum, rep_cnt = _replicate(config, rows)
    count = rep_cnt.sum(axis=0)
    empty = count == 0
    mean = np.where(empty, np.nan, rep_sum.sum(axis=0) / np.maximum(count, 1))
    # the spread of the means of the replications that reach a bin (ddof 1)
    has = rep_cnt > 0
    reps = has.sum(axis=0)
    n = np.maximum(reps, 1)
    rep_mean = np.divide(rep_sum, rep_cnt, out=np.zeros(rep_sum.shape), where=has)
    dev = np.where(has, rep_mean - rep_mean.sum(axis=0) / n, 0.0)
    spread = np.sqrt((dev * dev).sum(axis=0) / np.maximum(reps - 1, 1))
    se = np.where(reps > 1, spread / np.sqrt(n), np.nan)
    return OverlapBinTable(lambda_edges=lam_edges, tau_edges=tau_edges,
                           mean=mean, std_error=se, count=count, empty=empty)


@dataclass
class SimulationReport:
    prial_nonlinear: float
    prial_linear: float
    prial_sample: float
    prial_oracle: float
    se_nonlinear: float
    se_linear: float
    loss_nonlinear: list[float]
    loss_linear: list[float]
    loss_sample: list[float]
    trace_identity_max_gap: float
    zero_count_ok: bool
    seeds_used: list[int]
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _prial(numer: np.ndarray, denom: np.ndarray) -> float:
    return 100.0 * (1.0 - float(np.mean(numer)) / float(np.mean(denom)))


def _jackknife_se(numer: np.ndarray, denom: np.ndarray) -> float:
    r = len(numer)
    if r < 2:
        return float("nan")
    tot_n, tot_d = numer.sum(), denom.sum()
    loo = 100.0 * (1.0 - (tot_n - numer) / (tot_d - denom))
    return float(np.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2)))


def run_prial(config: SimulationConfig,
              solution: StieltjesSolution | None = None) -> SimulationReport:
    """PRIAL experiment: nonlinear shrinkage vs the oracle linear projection.

    Per replication, three rotation-invariant estimators share the sample
    eigenvectors, so every Frobenius loss against U D~ U* reduces to a sum of
    squared eigenvalue differences.  PRIAL(M) = 100 * (1 - E loss(M) / E
    loss(S)); the sample matrix scores 0 and the oracle 100 by construction.
    A given solution must be of the config's spectrum and gamma (DomainError).
    """
    if config.p == config.N:
        raise GammaOne("PRIAL experiment requires p != N")
    gamma = config.gamma
    if solution is None:
        solution = solve_density(config.spec, gamma)
    solution._check(config.spec, gamma)
    lam, d = _replicate(config, lambda real: (
        real.eigenvalues,
        oracle_dtilde(real.eigenvectors, real.population_diag)))
    trace_sigma = float(config.population_diag.sum())
    trace_gap = np.max(np.abs(d.sum(axis=1) - trace_sigma))
    zero_ok = bool(np.all(zero_eig_count(lam) == max(config.N - config.p, 0)))
    shrunk = shrinkage_mod.shrink_spectrum(lam, solution)
    lin = shrinkage_mod.linear_shrinkage_oracle(
        lam, trace_sigma, np.einsum("ri,ri->r", lam, d))
    loss_nl = np.sum((shrunk - d) ** 2, axis=1)
    loss_lin = np.sum((lin - d) ** 2, axis=1)
    loss_sam = np.sum((lam - d) ** 2, axis=1)
    report = SimulationReport(
        prial_nonlinear=_prial(loss_nl, loss_sam),
        prial_linear=_prial(loss_lin, loss_sam),
        prial_sample=_prial(loss_sam, loss_sam),
        prial_oracle=_prial(np.zeros_like(loss_sam), loss_sam),
        se_nonlinear=_jackknife_se(loss_nl, loss_sam),
        se_linear=_jackknife_se(loss_lin, loss_sam),
        loss_nonlinear=[float(v) for v in loss_nl],
        loss_linear=[float(v) for v in loss_lin],
        loss_sample=[float(v) for v in loss_sam],
        trace_identity_max_gap=float(trace_gap),
        zero_count_ok=zero_ok,
        seeds_used=[config.seed],
        config={
            "N": config.N, "p": config.p, "reps": config.reps,
            "seed": config.seed, "entry_law": config.entry_law,
            "gamma": gamma, "spectrum": config.spec.to_json(),
        },
    )
    return report

