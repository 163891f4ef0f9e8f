"""Monte-Carlo harness: sample covariance draws, oracle statistics, PRIAL.

Population eigenvectors are fixed to the standard basis (no generality lost
for Gaussian entries, by rotation invariance), so Sigma is diagonal with the
deterministic quantile eigenvalues and every overlap N|u_i* v_j|^2 is just
N|U_ji|^2.  Streams are split per replication with counter-based generators
keyed by (seed, rep index), so results do not depend on evaluation order:
the replication loops run on worker threads (see mc_workers) and return the
same bits as a serial loop.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import shrinkage as shrinkage_mod
from . import spectrum as spectrum_mod
from .errors import GammaOne
from .spectrum import PopulationSpectrum
from .stieltjes import StieltjesSolution, solve_density

ZERO_EIG_REL_TOL = 1e-10
ENTRY_LAWS = ("real-gaussian", "complex-gaussian")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


@dataclass(frozen=True)
class SimulationConfig:
    N: int
    p: int
    spec: PopulationSpectrum
    reps: int
    seed: int = 0
    entry_law: str = "real-gaussian"

    def __post_init__(self):
        if self.N < 2 or self.p < 1 or self.reps < 1:
            raise ValueError("need N >= 2, p >= 1, reps >= 1")
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
    sample_matrix: np.ndarray
    population_diag: np.ndarray
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # columns paired with eigenvalues


def _rng_for_rep(seed: int, rep_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,))
    return np.random.Generator(np.random.Philox(ss))


def generate(config: SimulationConfig, rep_index: int) -> Realization:
    """Draw one sample covariance matrix and its eigensystem.

    Sigma^(1/2) X has i.i.d. columns; S = (1/p) * (Sigma^(1/2) X)(...)^*.
    Eigenvalues are returned in decreasing order with orthonormal
    eigenvectors; the draw is a pure function of (seed, rep_index).  The
    complex law draws every real part, then every imaginary part.
    """
    rng = _rng_for_rep(config.seed, rep_index)
    diag = config.population_diag
    root = np.sqrt(diag)[:, None]
    if config.entry_law == "real-gaussian":
        c = rng.standard_normal((config.N, config.p))
        c *= root
        s = c @ c.T  # syrk
    else:
        x = rng.standard_normal((2, config.N, config.p))
        x *= 1.0 / np.sqrt(2.0)  # as complex division by sqrt(2) rounds
        x *= root
        c = np.empty((config.N, config.p), dtype=complex)
        c.real, c.imag = x
        del x
        s = c @ c.conj().T
    del c
    s /= config.p
    if np.iscomplexobj(s):
        # gemm leaves S Hermitian only up to rounding (syrk fills the real S
        # symmetric), and at p < N the null space of S turns with any
        # rounding change of the triangle that eigh reads
        s += s.conj().T
        s *= 0.5
    vals, vecs = np.linalg.eigh(s)
    order = np.argsort(vals)[::-1]
    return Realization(sample_matrix=s, population_diag=diag,
                       eigenvalues=np.ascontiguousarray(vals[order]),
                       eigenvectors=np.ascontiguousarray(vecs[:, order]))


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


def _replicate(config: SimulationConfig, reducer) -> list:
    """[reducer(generate(config, r)) for r in range(config.reps)].

    The replications are split into one contiguous chunk per worker thread
    (mc_workers); eigh, matmul and the Philox fill release the GIL.  Every
    draw is a pure function of (seed, r) and the rows come back in
    replication order, so the result is the same for every worker count.  A
    reducer should return small rows, not the draw, so that at most one draw
    per worker is alive."""
    config.population_diag  # computed once, before the workers share it
    workers = mc_workers(config.reps)

    def rows(reps: range) -> list:
        return [reducer(generate(config, r)) for r in reps]

    if workers == 1:
        return rows(range(config.reps))
    # imported here: concurrent.futures loads logging, which would add
    # about 5 ms to the start-up of every CLI process
    from concurrent.futures import ThreadPoolExecutor

    chunks = [range(k * config.reps // workers, (k + 1) * config.reps // workers)
              for k in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [row for part in pool.map(rows, chunks) for row in part]


def oracle_dtilde(U: np.ndarray, sigma_diag: np.ndarray) -> np.ndarray:
    """Diagonal of U* Sigma U for diagonal Sigma: the oracle replacements
    d_i = u_i* Sigma u_i, paired with the (descending) sample eigenvalues."""
    return np.einsum("ji,j->i", np.abs(U) ** 2, sigma_diag)


def zero_eig_count(eigenvalues: np.ndarray):
    """Eigenvalues within ZERO_EIG_REL_TOL of zero, relative to the largest;
    one count per row of a stack of spectra."""
    top = np.max(eigenvalues, axis=-1, initial=0.0, keepdims=True)
    thresh = ZERO_EIG_REL_TOL * np.maximum(top, 1e-300)
    return np.sum(eigenvalues <= thresh, axis=-1)


def empirical_delta(config: SimulationConfig, x_grid) -> np.ndarray:
    """Average over replications of (1/N) * sum d_i * 1[lambda_i <= x]."""
    x_grid = np.asarray(x_grid, dtype=float)

    def row(real: Realization) -> np.ndarray:
        d_asc = oracle_dtilde(real.eigenvectors, real.population_diag)[::-1]
        csum = np.concatenate([[0.0], np.cumsum(d_asc)]) / config.N
        return csum[np.searchsorted(real.eigenvalues[::-1], x_grid,
                                    side="right")]

    acc = np.zeros(x_grid.shape)
    for values in _replicate(config, row):
        acc += values
    return acc / config.reps


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

    Bins are (lo, hi] intervals.  The standard error is computed across the
    per-replication bin means, which respects within-replication correlation.
    """
    lam_edges = np.asarray(lambda_bins, dtype=float)
    tau_edges = np.asarray(tau_bins, dtype=float)
    nl, nt = len(lam_edges) - 1, len(tau_edges) - 1
    size = (nl + 1) * (nt + 1)
    # pairs outside every bin go to row nl or column nt, dropped below
    tj = np.searchsorted(tau_edges, config.population_diag, side="left") - 1
    tj = np.where((tj >= 0) & (tj < nt), tj, nt)

    def row(real: Realization) -> tuple[np.ndarray, np.ndarray]:
        overlaps = config.N * np.abs(real.eigenvectors.T) ** 2  # (i, j)
        li = np.searchsorted(lam_edges, real.eigenvalues, side="left") - 1
        li = np.where((li >= 0) & (li < nl), li, nl)
        cell = (li[:, None] * (nt + 1) + tj).ravel()
        sums = np.bincount(cell, overlaps.ravel(), size)
        counts = np.bincount(cell, minlength=size)
        return (sums.reshape(nl + 1, nt + 1)[:nl, :nt],
                counts.reshape(nl + 1, nt + 1)[:nl, :nt])

    sums, counts = zip(*_replicate(config, row))
    rep_sum, rep_cnt = np.array(sums), np.array(counts)
    count = rep_cnt.sum(axis=0)
    empty = count == 0
    with np.errstate(invalid="ignore", divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # empty bins are flagged
        rep_mean = np.where(rep_cnt > 0, rep_sum / rep_cnt, np.nan)
        mean = np.where(empty, np.nan, np.nansum(rep_sum, axis=0)
                        / np.maximum(count, 1))
        valid_reps = np.sum(~np.isnan(rep_mean), axis=0)
        spread = np.nanstd(rep_mean, axis=0, ddof=1)
        se = np.where(valid_reps > 1, spread / np.sqrt(valid_reps), np.nan)
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
    """
    if config.p == config.N:
        raise GammaOne("PRIAL experiment requires p != N")
    gamma = config.gamma
    if solution is None:
        solution = solve_density(config.spec, gamma)
    rows = _replicate(config, lambda real: (
        real.eigenvalues,
        oracle_dtilde(real.eigenvectors, real.population_diag)))
    lam, d = (np.array(col) for col in zip(*rows))
    trace_sigma = float(config.population_diag.sum())
    trace_gap = np.max(np.abs(d.sum(axis=1) - trace_sigma))
    zero_ok = bool(np.all(zero_eig_count(lam) == max(config.N - config.p, 0)))
    shrunk = shrinkage_mod.shrink_spectrum(lam, solution)
    lin = np.array([shrinkage_mod.linear_shrinkage_oracle(
        lam_r, trace_sigma, float(np.dot(lam_r, d_r)))
        for lam_r, d_r in zip(lam, d)])
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


def null_space_dtilde_mean(config: SimulationConfig) -> float:
    """Monte-Carlo mean of d_i over the zero-eigenvalue eigenvectors.

    Only meaningful for p < N, where S has exactly N - p null directions."""
    if config.p >= config.N:
        raise ValueError("null space requires p < N")

    def row(real: Realization) -> tuple[float, int]:
        d = oracle_dtilde(real.eigenvectors, real.population_diag)
        k = int(zero_eig_count(real.eigenvalues))
        return (float(d[-k:].sum()) if k else 0.0), k

    totals, counts = zip(*_replicate(config, row))
    return sum(totals) / sum(counts)
