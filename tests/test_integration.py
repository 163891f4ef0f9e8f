"""Cross-module runs on a mixed atom + segment population spectrum."""

from __future__ import annotations

import numpy as np
import pytest

from mpshrink import overlap, shrinkage, simulate, spectrum, stieltjes


@pytest.fixture(scope="module")
def mixed_spec():
    return spectrum.validate(atoms=[(0.3, 2.0)], segments=[(0.7, 4.0, 8.0)])


@pytest.fixture(scope="module")
def mixed_solutions(mixed_spec):
    return {g: stieltjes.solve_density(mixed_spec, g, num_points=1600)
            for g in (0.5, 2.0)}


def test_mass_and_support(mixed_spec, mixed_solutions):
    for gamma, sol in mixed_solutions.items():
        assert sol.total_mass() == pytest.approx(1.0, abs=1e-12)
        edges = stieltjes.support_edges(sol)
        hi_bound = (1 + gamma ** -0.5) ** 2 * mixed_spec.h2
        assert all(hi <= hi_bound * (1 + 1e-6) for _, hi in edges)


def test_kernel_normalization(mixed_spec, mixed_solutions):
    for sol in mixed_solutions.values():
        for lo, hi in sol.support:
            for l in np.linspace(lo + 0.03 * (hi - lo), hi - 0.03 * (hi - lo), 8):
                assert overlap.phi_h_integral(l, sol, mixed_spec) \
                    == pytest.approx(1.0, abs=1e-3)


def test_cumulative_total_mass_includes_atom(mixed_spec, mixed_solutions):
    sol = mixed_solutions[0.5]
    top = sol.grid[-1]
    assert overlap.phi_cumulative(10 * top, 100.0, sol, mixed_spec) \
        == pytest.approx(1.0, abs=1e-12)


def test_moment_conservation(mixed_spec, mixed_solutions):
    for sol in mixed_solutions.values():
        cov_gap, inv_gap = shrinkage.moment_residuals(sol, mixed_spec)
        assert abs(cov_gap) <= 1e-10
        assert abs(inv_gap) <= 1e-10


def test_empirical_delta_tracks_limit(mixed_spec, mixed_solutions):
    sol = mixed_solutions[2.0]
    top = max(hi for _, hi in sol.support)
    xs = np.linspace(0.0, 1.05 * top, 81)
    config = simulate.SimulationConfig(N=150, p=300, spec=mixed_spec,
                                       reps=30, seed=2718)
    emp = simulate.empirical_delta(config, xs)
    limit = shrinkage.delta_cumulative(xs, sol)
    assert np.max(np.abs(emp - limit)) <= 0.03


def test_empirical_inverse_curve_tracks_limit(solutions, spec_204040):
    # cumulative of u* Sigma^{-1} u paired with the sample eigenvalues
    # converges to the inverse-correction limit curve
    sol = solutions("204040", 2.0)
    top = max(hi for _, hi in sol.support)
    xs = np.linspace(0.0, 1.05 * top, 81)
    config = simulate.SimulationConfig(N=200, p=400, spec=spec_204040,
                                       reps=30, seed=1618)
    acc = np.zeros_like(xs)
    for r in range(config.reps):
        real = simulate.generate(config, r)
        inv_d = simulate.oracle_dtilde(real.eigenvectors,
                                       1.0 / real.population_diag)
        lam_asc = real.eigenvalues[::-1]
        csum = np.concatenate([[0.0], np.cumsum(inv_d[::-1])]) / config.N
        acc += csum[np.searchsorted(lam_asc, xs, side="right")]
    emp = acc / config.reps
    limit = shrinkage.psi_cumulative(xs, sol)
    assert np.max(np.abs(emp - limit)) <= 0.01  # curve total is ~0.373
