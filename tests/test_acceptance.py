"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Each check prints a single CRITERION nn PASS/FAIL line (visible with -s; the
-v test status carries the same verdict).  Checks with a runtime budget time
the work they perform.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import oracles
from conftest import interior_points
from mpshrink import overlap, shrinkage, simulate, spectrum, stieltjes

PRIAL_SEED = 20260808


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num:02d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_density(spec_d1):
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (2.0, 10.0):
        a, b = oracles.point_mass_edges(gamma)
        grid = np.linspace(a + 0.01, b - 0.01, 500)
        sol = stieltjes.boundary_values(spec_d1, gamma, grid)
        assert sol.valid.all()
        err = float(np.max(np.abs(sol.density
                                  - oracles.point_mass_density(grid, gamma))))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-6 and elapsed <= 5.0,
            f"max density error {worst:.2e} (tol 1e-6), "
            f"runtime {elapsed:.2f}s (budget 5s)")


def test_criterion_02_support_edges(solutions):
    sol = solutions("d1", 2.0)
    (lo, hi), = stieltjes.support_edges(sol)
    a, b = oracles.point_mass_edges(2.0)
    gap = max(abs(lo - a), abs(hi - b))
    _report(2, gap <= 1e-9,
            f"edge errors {abs(lo - a):.2e}/{abs(hi - b):.2e} (tol 1e-9)")


def test_criterion_03_kernel_normalization(solutions):
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("204040", "unif56"):
        spec = solutions.specs[name]
        for gamma in (2.0, 10.0, 100.0):
            sol = stieltjes.solve_density(spec, gamma, num_points=2400)
            solutions.put(name, gamma, sol)
            ls = interior_points(sol, 200)
            gaps = [abs(overlap.phi_h_integral(l, sol, spec) - 1.0)
                    for l in ls]
            worst = max(worst, max(gaps))
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 1e-3 and elapsed <= 30.0,
            f"max |integral phi dH - 1| = {worst:.2e} (tol 1e-3), "
            f"runtime {elapsed:.1f}s (budget 30s)")


def test_criterion_04_point_mass_reductions(solutions):
    worst = 0.0
    for gamma in (0.5, 2.0, 10.0):
        sol = solutions("d1", gamma)
        lams = interior_points(sol, 60)
        worst = max(worst, float(np.max(np.abs(
            [overlap.phi(l, 1.0, sol) - 1.0 for l in lams]))))
        worst = max(worst, float(np.max(np.abs(
            shrinkage.delta(lams, sol) - 1.0))))
        worst = max(worst, float(np.max(np.abs(
            shrinkage.psi(lams, sol) - 1.0))))
    _report(4, worst <= 1e-6,
            f"max |phi(l,1)-1|, |delta-1|, |psi-1| = {worst:.2e} (tol 1e-6)")


def test_criterion_05_moment_conservation(solutions):
    worst = 0.0
    for name in ("d1", "204040", "unif56"):
        spec = solutions.specs[name]
        for gamma in (0.5, 2.0, 10.0):
            sol = solutions(name, gamma)
            cov_gap, inv_gap = shrinkage.moment_residuals(sol, spec)
            worst = max(worst, abs(cov_gap), abs(inv_gap))
    _report(5, worst <= 1e-10,
            f"max moment-conservation gap {worst:.2e} over 9 cases (tol 1e-10)")


def test_criterion_06_recursion_consistency(solutions):
    from mpshrink import functionals as fn
    zs = np.linspace(0.3, 18.0, 20) + 1j * np.logspace(-3, 0, 20)
    worst = 0.0
    for name in ("204040", "unif56"):
        spec = solutions.specs[name]
        for z in zs:
            m = stieltjes.solve_mF(complex(z), spec, 2.0)
            for k in (1, 2, 3):
                # tau^k as a user weight stays on Gauss-Legendre panels
                tau_k = fn.WeightFunction(lambda t, k=k: t ** float(k))
                gap = abs(fn.theta_k(complex(z), k, spec, 2.0, m=m)
                          - fn.theta_g(complex(z), tau_k, spec, 2.0, m=m))
                worst = max(worst, gap)
    _report(6, worst <= 1e-8,
            f"max |theta_k - quadrature| = {worst:.2e} over 20-z grid, "
            f"k in 1..3, both spectra (tol 1e-8)")


def test_criterion_07_empirical_delta_convergence(solutions, spec_204040):
    t0 = time.perf_counter()
    sol = solutions("204040", 2.0)
    top = max(hi for _, hi in sol.support)
    xs = np.linspace(0.0, 1.05 * top, 121)
    config = simulate.SimulationConfig(N=200, p=400, spec=spec_204040,
                                       reps=50, seed=1234)
    emp = simulate.empirical_delta(config, xs)
    limit = shrinkage.delta_cumulative(xs, sol)
    gap = float(np.max(np.abs(emp - limit)))
    elapsed = time.perf_counter() - t0
    _report(7, gap <= 0.02 and elapsed <= 60.0,
            f"sup-grid |Delta_N - Delta| = {gap:.4f} (tol 0.02), "
            f"runtime {elapsed:.1f}s (budget 60s)")


def test_criterion_08_empirical_overlap(solutions, spec_204040):
    sol = solutions("204040", 2.0)
    # lambda deciles of the limiting law, tau bins isolating each atom
    fs = sol.cdf(sol.grid)
    qs = np.arange(1, 10) / 10.0
    inner = np.interp(qs, fs, sol.grid)
    lam_edges = np.concatenate([[0.0], inner,
                                [2.0 * max(hi for _, hi in sol.support)]])
    tau_edges = np.array([0.5, 1.5, 2.5, 3.5, 9.5, 10.5])
    atom_cols = [0, 2, 4]  # (0.5,1.5], (2.5,3.5], (9.5,10.5]
    # complex entries: their finite-size kernel corrections stay below the
    # 200-rep Monte-Carlo resolution at N=100, while real entries carry an
    # O(1/N) bias of 1-4% that exceeds 3 SE in the low/mid decile bins
    config = simulate.SimulationConfig(N=100, p=200, spec=spec_204040,
                                       reps=200, seed=4321,
                                       entry_law="complex-gaussian")
    table = simulate.empirical_overlap(config, lam_edges, tau_edges)
    checked = 0
    failed = []
    for a in range(10):
        f_mass = float(sol.cdf(lam_edges[a + 1]) - sol.cdf(lam_edges[a]))
        for b in atom_cols:
            h_mass = spectrum.cdf(spec_204040, tau_edges[b + 1]) \
                - spectrum.cdf(spec_204040, tau_edges[b])
            expected_count = config.reps * config.N ** 2 * f_mass * h_mass
            if expected_count < 50:
                continue
            limit = overlap.average_overlap(
                lam_edges[a], lam_edges[a + 1], tau_edges[b],
                tau_edges[b + 1], sol, spec_204040)
            got = table.mean[a, b]
            se = table.std_error[a, b]
            checked += 1
            if abs(got - limit) > 3.0 * se:
                failed.append((a, b, got, limit, se))
    _report(8, checked >= 25 and not failed,
            f"{checked} decile x atom bins within 3 SE of the limit kernel"
            + (f"; failures: {failed}" if failed else ""))


def test_criterion_09_prial(solutions, spec_204040):
    t0 = time.perf_counter()
    sol = solutions("204040", 2.0)
    config = simulate.SimulationConfig(N=20, p=40, spec=spec_204040,
                                       reps=1000, seed=PRIAL_SEED,
                                       entry_law="real-gaussian")
    report = simulate.run_prial(config, sol)
    elapsed = time.perf_counter() - t0
    ok = (report.prial_nonlinear >= 90.0
          and report.prial_nonlinear > report.prial_linear
          and elapsed <= 120.0)
    test_criterion_09_prial.report = report
    test_criterion_09_prial.config = config
    _report(9, ok,
            f"nonlinear PRIAL {report.prial_nonlinear:.2f}% "
            f"(+- {report.se_nonlinear:.2f} jackknife SE, floor 90), linear "
            f"{report.prial_linear:.2f}%, runtime {elapsed:.1f}s (budget 120s)")


def test_criterion_10_zero_branch(solutions, spec_d1):
    sol = solutions("d1", 0.5)
    d0 = shrinkage.delta_zero(sol)
    # delta(0) = gamma/((1-gamma)*mu0) evaluates to 1 here: mu0 = 1 for
    # H = delta_1 at gamma = 1/2 (oracle: Sigma = I forces every u*Sigma u = 1,
    # and moment conservation pins the zero branch).
    assert d0 == pytest.approx(1.0, abs=1e-9)
    config = simulate.SimulationConfig(N=100, p=50, spec=spec_d1, reps=200,
                                       seed=777)
    # the null-space mean: empirical_delta at 0 over its share (N - p)/N
    mc = simulate.empirical_delta(config, [0.0])[0] * 100 / (100 - 50)
    gap = abs(mc / d0 - 1.0)
    _report(10, gap <= 0.05,
            f"null-space mean dtilde {mc:.6f} vs delta(0) {d0:.6f}, "
            f"relative gap {gap:.2e} (tol 5%)")


def test_criterion_11_exact_identities(solutions, spec_204040, spec_d1):
    report = getattr(test_criterion_09_prial, "report", None)
    if report is None:
        config = simulate.SimulationConfig(N=20, p=40, spec=spec_204040,
                                           reps=1000, seed=PRIAL_SEED)
        report = simulate.run_prial(config, solutions("204040", 2.0))
    trace_sigma = 20 * spectrum.moment(spec_204040, 1)
    ok = (report.prial_sample == 0.0
          and report.prial_oracle == 100.0
          and report.trace_identity_max_gap <= 1e-10 * trace_sigma)
    # eigenvalue-sum identity and the zero-eigenvalue count at gamma < 1
    config_low = simulate.SimulationConfig(N=50, p=25, spec=spec_d1, reps=100,
                                           seed=55)
    zero_ok = True
    eig_sum_gap = 0.0
    for r in range(config_low.reps):
        real = simulate.generate(config_low, r)
        if simulate.zero_eig_count(real.eigenvalues) != 25:
            zero_ok = False
        # trace S = (1/p) sum_i sigma_i sum_j X_ij^2, from the same draw
        x = simulate._rng_for_rep(config_low.seed, r).standard_normal(
            (config_low.N, config_low.p))
        trace = np.sum(real.population_diag[:, None] * x * x) / config_low.p
        eig_sum_gap = max(eig_sum_gap, abs(real.eigenvalues.sum() - trace))
    ok = ok and zero_ok and eig_sum_gap <= 1e-10 * 50
    _report(11, ok,
            f"PRIAL(S)={report.prial_sample}, PRIAL(oracle)="
            f"{report.prial_oracle}, max trace gap "
            f"{report.trace_identity_max_gap:.2e}, eigval-sum gap "
            f"{eig_sum_gap:.2e}, zero-count ok={zero_ok}")


def test_criterion_12_determinism(solutions, spec_204040):
    sol = solutions("204040", 2.0)
    config = simulate.SimulationConfig(N=20, p=40, spec=spec_204040,
                                       reps=1000, seed=PRIAL_SEED,
                                       entry_law="real-gaussian")
    first = getattr(test_criterion_09_prial, "report", None)
    if first is None or getattr(test_criterion_09_prial, "config", None) != config:
        first = simulate.run_prial(config, sol)
    second = simulate.run_prial(config, sol)
    b1 = json.dumps(first.to_dict(), sort_keys=True).encode()
    b2 = json.dumps(second.to_dict(), sort_keys=True).encode()
    _report(12, b1 == b2,
            f"two same-seed runs produced byte-identical report bodies "
            f"({len(b1)} bytes)")
