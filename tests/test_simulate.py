from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from mpshrink import shrinkage, simulate, spectrum
from mpshrink.errors import DomainError, GammaOne


def test_config_validation(spec_d1):
    with pytest.raises(ValueError):
        simulate.SimulationConfig(N=1, p=5, spec=spec_d1, reps=1)
    with pytest.raises(ValueError):
        simulate.SimulationConfig(N=5, p=5, spec=spec_d1, reps=0)
    with pytest.raises(ValueError):
        simulate.SimulationConfig(N=5, p=5, spec=spec_d1, reps=1,
                                  entry_law="uniform")
    cfg = simulate.SimulationConfig(N=10, p=5, spec=spec_d1, reps=1)
    assert cfg.gamma == 0.5


def test_large_sample_eigenvalues_concentrate(spec_d1):
    config = simulate.SimulationConfig(N=2, p=10 ** 6, spec=spec_d1, reps=1,
                                       seed=42)
    real = simulate.generate(config, 0)
    assert np.all(np.abs(real.eigenvalues - 1.0) < 0.01)


def test_eigenvector_orthonormality(spec_204040):
    config = simulate.SimulationConfig(N=60, p=120, spec=spec_204040, reps=1,
                                       seed=1)
    real = simulate.generate(config, 0)
    U = real.eigenvectors
    assert np.max(np.abs(U.T @ U - np.eye(60))) <= 1e-10
    assert np.all(np.diff(real.eigenvalues) <= 0)  # descending


def test_complex_entry_law(spec_204040):
    config = simulate.SimulationConfig(N=40, p=80, spec=spec_204040, reps=1,
                                       seed=1, entry_law="complex-gaussian")
    real = simulate.generate(config, 0)
    U = real.eigenvectors
    assert np.max(np.abs(U.conj().T @ U - np.eye(40))) <= 1e-10
    assert np.all(np.abs(real.eigenvalues.imag) == 0) \
        if np.iscomplexobj(real.eigenvalues) else True
    assert real.eigenvectors.dtype.kind == "c"


def test_rank_deficiency(spec_d1):
    config = simulate.SimulationConfig(N=10, p=5, spec=spec_d1, reps=1, seed=0)
    real = simulate.generate(config, 0)
    assert simulate.zero_eig_count(real.eigenvalues) == 5


def test_oracle_dtilde_identity_population(spec_d1):
    config = simulate.SimulationConfig(N=30, p=60, spec=spec_d1, reps=1, seed=2)
    real = simulate.generate(config, 0)
    d = simulate.oracle_dtilde(real.eigenvectors, real.population_diag)
    assert np.allclose(d, 1.0, atol=1e-12)


def test_oracle_dtilde_trace_identity(spec_204040):
    config = simulate.SimulationConfig(N=45, p=90, spec=spec_204040, reps=1,
                                       seed=2)
    real = simulate.generate(config, 0)
    d = simulate.oracle_dtilde(real.eigenvectors, real.population_diag)
    assert d.mean() == pytest.approx(real.population_diag.mean(), abs=1e-12)


def test_top_eigenvalue_bias(spec_204040):
    # the largest sample eigenvalue overshoots its oracle replacement
    config = simulate.SimulationConfig(N=100, p=200, spec=spec_204040,
                                       reps=100, seed=9)
    gaps = []
    for r in range(config.reps):
        real = simulate.generate(config, r)
        d = simulate.oracle_dtilde(real.eigenvectors, real.population_diag)
        gaps.append(real.eigenvalues[0] - d[0])
    assert np.mean(gaps) > 0


def test_empirical_delta_limits(spec_204040):
    config = simulate.SimulationConfig(N=40, p=80, spec=spec_204040, reps=3,
                                       seed=4)
    mu1 = spectrum.moment(spec_204040, 1)
    table = simulate.empirical_delta(config, np.array([-1.0, 1e9]))
    assert table[0] == 0.0
    assert table[1] == pytest.approx(mu1, abs=1e-12)


def test_generate_deterministic(spec_204040):
    config = simulate.SimulationConfig(N=20, p=40, spec=spec_204040, reps=2,
                                       seed=123)
    a = simulate.generate(config, 1)
    b = simulate.generate(config, 1)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    c = simulate.generate(config, 0)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues)
    assert not np.array_equal(a.eigenvectors, c.eigenvectors)


@pytest.mark.parametrize("entry_law", simulate.ENTRY_LAWS)
@pytest.mark.parametrize("n, p", [(20, 40), (30, 15)])
def test_generate_range_matches_single_draws(spec_204040, entry_law, n, p):
    config = simulate.SimulationConfig(N=n, p=p, spec=spec_204040, reps=1,
                                       seed=6, entry_law=entry_law)
    batch = simulate._batch_reps(config)
    # the last range straddles the loops' first batch boundary
    for reps in (range(0, 1), range(2, 7), range(batch - 1, batch + 2)):
        stack = simulate.generate(config, reps)
        assert stack.eigenvalues.shape == (len(reps), n)
        assert stack.eigenvectors.shape == (len(reps), n, n)
        for k, r in enumerate(reps):
            single = simulate.generate(config, r)
            assert np.array_equal(stack.eigenvalues[k], single.eigenvalues)
            assert np.array_equal(stack.eigenvectors[k], single.eigenvectors)
            assert single.eigenvectors.flags.c_contiguous


# eigenvalues of the real law at seed 123, rep 1, on 204040
PINNED_REAL_LAW = {
    (20, 40): [
        23.599835319632806, 16.500917511054755, 13.003026689081894,
        9.61508165347498, 9.140816200152676, 8.1931196828088,
        6.63494533207911, 5.351318380291371, 3.996845683054625,
        2.452341358672032, 2.1735421101637122, 1.8196777010575753,
        1.6423498365004074, 1.3896123412728394, 1.3602502693811878,
        0.7951032342948482, 0.7008226753940268, 0.6184742681425643,
        0.5118902469065325, 0.32106094243368116],
    (30, 15): [
        29.81704270203977, 20.835968794240763, 16.469447244476918,
        14.967095042547266, 11.808238100122146, 9.542574660579215,
        8.09241693160604, 6.835572655127701, 5.280705638259694,
        3.516543326727996, 2.962976971555046, 2.5957370672631,
        1.3650673714876624, 0.9346809201739802, 0.41135701956709547,
        4.422665930199345e-15, 2.144327744053572e-15, 1.1581580800648083e-15,
        1.055197446242804e-15, 5.697404651874434e-16, 1.0338570924888799e-16,
        -3.8783095325888106e-17, -2.8713832481834316e-16,
        -5.688614628996337e-16, -9.307756642681839e-16,
        -1.3086909888448956e-15, -1.7489160515266809e-15,
        -1.9717036033594314e-15, -2.496604869588443e-15,
        -3.6315674939662865e-15],
}


@pytest.mark.parametrize("n, p", sorted(PINNED_REAL_LAW))
def test_real_law_draws_are_pinned(spec_204040, n, p):
    # bit for bit, so that a change to the stream or to the assembly of S
    # shows; the null block at p < N is rounding, pinned all the same (a
    # different BLAS or LAPACK build may round differently)
    config = simulate.SimulationConfig(N=n, p=p, spec=spec_204040, reps=2,
                                       seed=123)
    assert simulate.generate(config, 1).eigenvalues.tolist() \
        == PINNED_REAL_LAW[(n, p)]


@pytest.mark.parametrize("entry_law", simulate.ENTRY_LAWS)
@pytest.mark.parametrize("n, p", [(20, 40), (30, 15)])
def test_generate_decomposes_exactly_hermitian_stacks(monkeypatch,
                                                      spec_204040,
                                                      entry_law, n, p):
    eigh = np.linalg.eigh
    seen = []

    def spy(s):
        seen.append(s.copy())
        return eigh(s)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    config = simulate.SimulationConfig(N=n, p=p, spec=spec_204040, reps=1,
                                       seed=3, entry_law=entry_law)
    simulate.generate(config, 0)
    simulate.generate(config, range(1, 5))
    assert [s.shape for s in seen] == [(1, n, n), (4, n, n)]
    for s in seen:
        assert np.array_equal(s, s.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("n, p", [(20, 40), (30, 15), (100, 200)])
def test_complex_law_matches_the_complex_product(spec_204040, n, p):
    # S from real products against A A*/p in complex arithmetic, with
    # A = Sigma^(1/2) (X_re + i X_im) / sqrt(2) from the same stream
    config = simulate.SimulationConfig(N=n, p=p, spec=spec_204040, reps=1,
                                       seed=9, entry_law="complex-gaussian")
    root = np.sqrt(config.population_diag)[:, None]
    for r in range(3):
        x = simulate._rng_for_rep(config.seed, r).standard_normal((2, n, p))
        a = root * (x[0] + 1j * x[1]) / np.sqrt(2.0)
        s = a @ a.conj().T / p
        expected = np.linalg.eigvalsh(s)[::-1]
        got = simulate.generate(config, r)
        tol = 1e-12 * expected[0]
        assert np.max(np.abs(got.eigenvalues - expected)) <= tol
        # the eigenvectors are those of S, not of its conjugate
        U = got.eigenvectors
        assert np.max(np.abs(s @ U - U * got.eigenvalues)) <= tol


def test_replication_batches_respect_memory_cap(monkeypatch, solutions,
                                                spec_204040):
    monkeypatch.setattr(simulate, "mc_workers", lambda reps: min(2, reps))
    draw = simulate.generate
    seen = []

    def spy(config, reps):
        seen.append(reps)
        return draw(config, reps)

    monkeypatch.setattr(simulate, "generate", spy)
    for n, p, law, reps in ((20, 40, "real-gaussian", 400),
                            (30, 15, "complex-gaussian", 200),
                            (100, 200, "real-gaussian", 9)):
        config = simulate.SimulationConfig(N=n, p=p, spec=spec_204040,
                                           reps=reps, seed=2, entry_law=law)
        cap = max(1, simulate.BATCH_ENTRIES
                  // (n * p * (2 if law == "complex-gaussian" else 1)))
        seen.clear()
        simulate.run_prial(config, solutions("204040", p / n))
        assert max(len(b) for b in seen) == min(cap, reps // 2)
        assert sorted(r for b in seen for r in b) == list(range(reps))


def test_run_prial_identities(solutions, spec_204040):
    sol = solutions("204040", 2.0)
    config = simulate.SimulationConfig(N=20, p=40, spec=spec_204040, reps=50,
                                       seed=99)
    report = simulate.run_prial(config, sol)
    assert report.prial_sample == 0.0
    assert report.prial_oracle == 100.0
    assert report.trace_identity_max_gap <= 1e-10 * 20 * 10
    assert report.zero_count_ok
    assert all(v >= 0 for v in report.loss_nonlinear)
    assert report.prial_nonlinear > report.prial_linear


def test_run_prial_deterministic(solutions, spec_204040):
    sol = solutions("204040", 2.0)
    config = simulate.SimulationConfig(N=15, p=30, spec=spec_204040, reps=20,
                                       seed=77)
    r1 = simulate.run_prial(config, sol)
    r2 = simulate.run_prial(config, sol)
    assert json.dumps(r1.to_dict(), sort_keys=True) == \
        json.dumps(r2.to_dict(), sort_keys=True)


def test_run_prial_rank_deficient(solutions, spec_d1):
    # gamma < 1: the zero eigenvalues flow through the delta(0) replacement
    sol = solutions("d1", 0.5)
    config = simulate.SimulationConfig(N=30, p=15, spec=spec_d1, reps=20,
                                       seed=17)
    report = simulate.run_prial(config, sol)
    assert report.prial_sample == 0.0
    assert report.prial_oracle == 100.0
    assert report.zero_count_ok
    assert report.prial_nonlinear > 0.0


def test_empirical_delta_at_zero_is_the_null_space(spec_unif56):
    # the null eigenvalues of S at p < N count as 0, whatever their rounding
    # sign, so at x = 0 empirical_delta holds all N - p of them
    config = simulate.SimulationConfig(N=100, p=60, spec=spec_unif56, reps=30,
                                       seed=4)
    emp, = simulate.empirical_delta(config, [0.0])
    real = simulate.generate(config, range(config.reps))
    zero = shrinkage.zero_eigenvalues(real.eigenvalues)
    assert np.all(zero.sum(axis=1) == 100 - 60)
    d = simulate.oracle_dtilde(real.eigenvectors, real.population_diag)
    assert emp == pytest.approx(d[zero].sum() / (100 * config.reps), rel=1e-12)


def test_overlap_bins_skip_null_eigenvalues(spec_unif56):
    # (0, hi] takes the p non-null eigenvalues of each draw and no null one
    config = simulate.SimulationConfig(N=100, p=60, spec=spec_unif56, reps=30,
                                       seed=4)
    table = simulate.empirical_overlap(config, [0.0, 100.0], [0.0, 100.0])
    assert table.count.sum() == 30 * 60 * 100


def test_run_prial_rejects_gamma_one(spec_204040):
    config = simulate.SimulationConfig(N=20, p=20, spec=spec_204040, reps=2)
    with pytest.raises(GammaOne):
        simulate.run_prial(config)


def test_prial_ordering_across_sizes(solutions, spec_204040):
    # nonlinear stays above the linear baseline at every tested size
    sol = solutions("204040", 2.0)
    for n in (10, 20, 50):
        config = simulate.SimulationConfig(N=n, p=2 * n, spec=spec_204040,
                                           reps=200, seed=2024)
        report = simulate.run_prial(config, sol)
        assert report.prial_nonlinear > report.prial_linear


def test_null_space_dtilde_point_mass(spec_d1):
    # Sigma = I makes every d_i exactly 1, including null directions; the
    # null-space mean is empirical_delta at 0 over its share (N - p)/N
    config = simulate.SimulationConfig(N=30, p=15, spec=spec_d1, reps=5,
                                       seed=21)
    emp, = simulate.empirical_delta(config, [0.0])
    assert emp * 30 / (30 - 15) == pytest.approx(1.0, abs=1e-12)


def test_empirical_overlap_identity_population(spec_d1):
    config = simulate.SimulationConfig(N=50, p=100, spec=spec_d1, reps=40,
                                       seed=31)
    table = simulate.empirical_overlap(
        config, np.array([0.0, 0.5, 1.1, 4.0]), np.array([0.5, 1.5, 2.5]))
    # columns beyond the population support never fill
    assert np.all(table.count[:, 1] == 0)
    assert np.all(table.empty[:, 1])
    filled = table.count[:, 0] > 0
    for a in np.flatnonzero(filled):
        if table.count[a, 0] >= 50:
            assert abs(table.mean[a, 0] - 1.0) <= 3 * table.std_error[a, 0] \
                + 1e-9


def test_empirical_overlap_bins_are_half_open(spec_204040):
    config = simulate.SimulationConfig(N=10, p=20, spec=spec_204040, reps=1,
                                       seed=8)
    table = simulate.empirical_overlap(
        config, np.array([0.0, 100.0]), np.array([0.5, 1.0, 3.0]))
    # atoms sit exactly on the right edges: (0.5, 1] catches tau = 1
    assert table.count[0, 0] > 0
    assert table.count[0, 1] > 0


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()


@pytest.fixture
def no_blas_setting(monkeypatch):
    for var in simulate.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


def test_mc_workers_rule(monkeypatch, no_blas_setting):
    # unset: OpenBLAS and MKL take every core, so the loop stays serial
    assert simulate.blas_threads_setting() is None
    assert simulate.mc_workers(100) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert simulate.blas_threads_setting() == "1"
    assert simulate.mc_workers(100) == min(_cpus(), 100)
    assert simulate.mc_workers(1) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(_cpus()))
    assert simulate.mc_workers(100) == 1
    # the first variable that is set wins
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", str(2 * _cpus()))
    assert simulate.blas_threads_setting() == str(2 * _cpus())
    assert simulate.mc_workers(100) == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "auto")
    assert simulate.mc_workers(100) == 1


def _mc_outputs(spec_204040, solutions) -> dict:
    """Every Monte-Carlo reduction, on odd rep counts (uneven chunks)."""
    out = {}
    for n, p in ((15, 30), (30, 15)):
        config = simulate.SimulationConfig(N=n, p=p, spec=spec_204040, reps=7,
                                           seed=3)
        sol = solutions("204040", p / n)
        out[f"prial_{n}_{p}"] = json.dumps(
            simulate.run_prial(config, sol).to_dict(), sort_keys=True)
    low = simulate.SimulationConfig(N=30, p=15, spec=spec_204040, reps=5,
                                    seed=8, entry_law="complex-gaussian")
    out["delta"] = simulate.empirical_delta(low, np.linspace(0.0, 30.0, 31))
    config = simulate.SimulationConfig(N=40, p=80, spec=spec_204040, reps=9,
                                       seed=4, entry_law="complex-gaussian")
    table = simulate.empirical_overlap(config, np.linspace(0.0, 40.0, 9),
                                       np.array([0.5, 2.0, 5.0, 11.0]))
    out.update({f"overlap_{k}": getattr(table, k)
                for k in ("mean", "std_error", "count", "empty")})
    return out


def test_replications_bit_identical_across_worker_counts(
        monkeypatch, solutions, spec_204040):
    # more workers than cores, switching threads as often as the
    # interpreter allows, with stacks of 1, 2 and 3 replications and of the
    # default size
    results = []
    interval = sys.getswitchinterval()
    default_batch = simulate._batch_reps
    try:
        sys.setswitchinterval(1e-6)
        for batch in (None, 1, 2, 3):
            monkeypatch.setattr(simulate, "_batch_reps", default_batch if batch
                                is None else lambda config, batch=batch: batch)
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulate, "mc_workers", lambda reps,
                                    workers=workers: min(workers, reps))
                results.append(_mc_outputs(spec_204040, solutions))
    finally:
        sys.setswitchinterval(interval)
    # the serial loop over generate is the reference
    config = simulate.SimulationConfig(N=15, p=30, spec=spec_204040, reps=7,
                                       seed=3)
    loss_sample = []
    for r in range(config.reps):
        real = simulate.generate(config, r)
        d = simulate.oracle_dtilde(real.eigenvectors, real.population_diag)
        loss_sample.append(float(np.sum((real.eigenvalues - d) ** 2)))
    assert json.loads(results[2]["prial_15_30"])["loss_sample"] == loss_sample
    for other in results[1:]:
        for key, value in results[0].items():
            same = value == other[key] if isinstance(value, str) else \
                np.array_equal(value, other[key], equal_nan=True)
            assert same, key


def test_run_prial_leaves_no_threads(monkeypatch, solutions, spec_204040):
    monkeypatch.setattr(simulate, "mc_workers", lambda reps: min(2, reps))
    baseline = threading.active_count()
    config = simulate.SimulationConfig(N=15, p=30, spec=spec_204040, reps=6,
                                       seed=1)
    simulate.run_prial(config, solutions("204040", 2.0))
    assert threading.active_count() == baseline


def test_run_prial_rejects_a_solution_of_another_config(solutions, spec_204040,
                                                        spec_unif56):
    # the gamma = 2 solution of 204040 gave a p/N = 0.5 config a nonlinear
    # PRIAL of 81.0, with no error
    sol = solutions("204040", 2.0)
    for config in (simulate.SimulationConfig(N=100, p=50, spec=spec_204040, reps=2),
                   simulate.SimulationConfig(N=20, p=40, spec=spec_unif56, reps=2)):
        with pytest.raises(DomainError):
            simulate.run_prial(config, sol)
