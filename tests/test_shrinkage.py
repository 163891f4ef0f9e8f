from __future__ import annotations

import numpy as np
import pytest

from mpshrink import shrinkage, simulate, spectrum, stieltjes
from mpshrink.errors import GammaOne
from conftest import interior_points


def test_delta_identity_on_point_mass(solutions):
    sol = solutions("d1", 2.0)
    for lam in interior_points(sol, 30):
        assert shrinkage.delta(lam, sol) == pytest.approx(1.0, abs=1e-6)


def test_delta_negative_lambda_is_zero(solutions):
    assert shrinkage.delta(-0.5, solutions("d1", 2.0)) == 0.0


def test_delta_zero_gamma_half(solutions):
    # gamma/((1-gamma)*mu0) with mu0 = 1 for delta_1 at gamma = 1/2.
    # Confirmed independently: Sigma = I forces u* Sigma u = 1 exactly, and
    # moment conservation gamma*1 + (1-gamma)*delta(0) = 1 forces delta(0) = 1.
    sol = solutions("d1", 0.5)
    assert shrinkage.delta_zero(sol) == pytest.approx(1.0, abs=1e-9)
    assert shrinkage.delta(0.0, sol) == pytest.approx(1.0, abs=1e-9)


def test_psi_identity_on_point_mass(solutions):
    sol = solutions("d1", 2.0)
    spec = solutions.specs["d1"]
    for lam in interior_points(sol, 30):
        assert shrinkage.psi(lam, sol, spec) == pytest.approx(1.0, abs=1e-6)


def test_psi_negative_lambda_is_zero(solutions):
    assert shrinkage.psi(-1.0, solutions("d1", 2.0),
                         solutions.specs["d1"]) == 0.0


def test_psi_zero_gamma_half(solutions):
    # psi(0) = m_H(0)/(1-gamma) - mu0 = 2 - 1 = 1; confirmed through the
    # inverse-moment conservation gamma*1 + (1-gamma)*psi(0) = m_H(0) = 1.
    sol = solutions("d1", 0.5)
    spec = solutions.specs["d1"]
    assert shrinkage.psi_zero(sol, spec) == pytest.approx(1.0, abs=1e-9)
    assert shrinkage.psi(0.0, sol, spec) == pytest.approx(1.0, abs=1e-9)


def test_point_mass_scaling():
    spec = spectrum.point_mass(2.0)
    sol = stieltjes.solve_density(spec, 2.0, num_points=1500)
    lo, hi = sol.support[0]
    lams = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 15)
    assert np.allclose(shrinkage.delta(lams, sol), 2.0, atol=2e-6)
    assert np.allclose(shrinkage.psi(lams, sol, spec), 0.5, atol=1e-6)


def test_moment_conservation_mixture(solutions):
    spec = solutions.specs["204040"]
    for gamma in (0.5, 2.0):
        cov_gap, inv_gap = shrinkage.moment_residuals(
            solutions("204040", gamma), spec)
        assert abs(cov_gap) <= 1e-10
        assert abs(inv_gap) <= 1e-10


@pytest.mark.parametrize("lo", [0.01, 0.003])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
def test_moment_conservation_near_zero(lo, gamma):
    # the inverse moment of a segment reaching close to zero; 64
    # Gauss-Legendre nodes missed it by 1.7e-4 and 6.4e-3 at gamma > 1
    spec = spectrum.uniform(lo, 10.0)
    sol = stieltjes.solve_density(spec, gamma)
    cov_gap, inv_gap = shrinkage.moment_residuals(sol, spec)
    assert abs(cov_gap) <= 1e-6 and abs(inv_gap) <= 1e-6


def test_curve_invariants(solutions):
    spec = solutions.specs["204040"]
    sol = solutions("204040", 2.0)
    curve = shrinkage.build_shrinkage_curve(sol, spec)
    assert np.all(curve.delta >= 0)
    assert curve.delta_zero is None and curve.psi_zero is None
    sol5 = solutions("d1", 0.5)
    curve5 = shrinkage.build_shrinkage_curve(sol5, solutions.specs["d1"])
    assert curve5.delta_zero == pytest.approx(1.0, abs=1e-9)


def test_delta_positive_inside_support(solutions):
    sol = solutions("204040", 2.0)
    lams = interior_points(sol, 40)
    assert np.all(shrinkage.delta(lams, sol) > 0)


def test_shrink_spectrum_zero_input(solutions):
    sol = solutions("d1", 0.5)
    out = shrinkage.shrink_spectrum(np.zeros(5), sol)
    assert np.allclose(out, shrinkage.delta_zero(sol))


def test_shrink_spectrum_order_preserved(solutions):
    sol = solutions("204040", 2.0)
    eigs = np.array([9.0, 2.0, 17.0, 0.7])
    out = shrinkage.shrink_spectrum(eigs, sol)
    singles = np.array([shrinkage.shrink_spectrum(np.array([e]), sol)[0]
                        for e in eigs])
    assert np.allclose(out, singles, rtol=0, atol=0)


def test_shrink_spectrum_rejects_negative(solutions):
    with pytest.raises(ValueError):
        shrinkage.shrink_spectrum(np.array([-1.0]), solutions("204040", 2.0))


def test_gamma_one_rejected(spec_d1):
    fake = stieltjes.StieltjesSolution(
        gamma=1.0, grid=np.array([1.0, 2.0]),
        m_breve=np.array([0j, 0j]), density=np.array([0.0, 0.0]),
        support=[], m_under_zero=None, mass_at_zero=0.0,
        valid=np.array([True, True]))
    with pytest.raises(GammaOne):
        shrinkage.delta(1.0, fake)
    with pytest.raises(GammaOne):
        shrinkage.shrink_spectrum(np.array([1.0]), fake)


def test_monte_carlo_identity_sanity(solutions, spec_d1):
    sol = solutions("d1", 2.0)
    config = simulate.SimulationConfig(N=100, p=200, spec=spec_d1, reps=10,
                                       seed=7)
    means = []
    for r in range(config.reps):
        real = simulate.generate(config, r)
        shrunk = shrinkage.shrink_spectrum(real.eigenvalues, sol)
        assert np.all(shrunk >= 0.5) and np.all(shrunk <= 1.5)
        means.append(shrunk.mean())
    assert np.mean(means) == pytest.approx(1.0, rel=0.05)


def test_shrinkage_reduces_dispersion(solutions, spec_204040):
    sol = solutions("204040", 2.0)
    config = simulate.SimulationConfig(N=100, p=200, spec=spec_204040,
                                       reps=10, seed=11)
    for r in range(config.reps):
        real = simulate.generate(config, r)
        shrunk = shrinkage.shrink_spectrum(real.eigenvalues, sol)
        assert np.var(shrunk) <= np.var(real.eigenvalues)


def test_trace_conservation_monte_carlo(solutions, spec_204040):
    sol = solutions("204040", 2.0)
    mu1 = spectrum.moment(spec_204040, 1)
    config = simulate.SimulationConfig(N=200, p=400, spec=spec_204040,
                                       reps=10, seed=3)
    totals = []
    for r in range(config.reps):
        real = simulate.generate(config, r)
        totals.append(shrinkage.shrink_spectrum(real.eigenvalues, sol).sum())
    assert np.mean(totals) == pytest.approx(config.N * mu1, rel=0.05)


def test_inverse_shrink_is_not_reciprocal(solutions, spec_204040):
    sol = solutions("204040", 2.0)
    config = simulate.SimulationConfig(N=100, p=200, spec=spec_204040,
                                       reps=1, seed=5)
    real = simulate.generate(config, 0)
    fwd = shrinkage.shrink_spectrum(real.eigenvalues, sol)
    inv = shrinkage.shrink_inverse_spectrum(real.eigenvalues, sol,
                                            spec_204040)
    rel_gap = np.abs(inv - 1.0 / fwd) / np.abs(inv)
    assert rel_gap.max() > 1e-3


def test_inverse_shrink_zero_branch(solutions):
    sol = solutions("d1", 0.5)
    spec = solutions.specs["d1"]
    out = shrinkage.shrink_inverse_spectrum(np.zeros(3), sol, spec)
    assert np.allclose(out, shrinkage.psi_zero(sol, spec))


def test_inverse_shrink_monte_carlo(solutions, spec_d1):
    sol = solutions("d1", 2.0)
    config = simulate.SimulationConfig(N=100, p=200, spec=spec_d1, reps=10,
                                       seed=13)
    means = []
    for r in range(config.reps):
        real = simulate.generate(config, r)
        means.append(shrinkage.shrink_inverse_spectrum(
            real.eigenvalues, sol, spec_d1).mean())
    assert np.mean(means) == pytest.approx(1.0, rel=0.05)


def test_linear_oracle_identity_target():
    # Sigma = I and S = I: projection of the target onto the span maps to 1
    eigs = np.ones(10)
    out = shrinkage.linear_shrinkage_oracle(eigs, 10.0, 10.0)
    assert np.allclose(out, 1.0)


def test_linear_oracle_target_in_span():
    # S = Sigma: the projection returns the eigenvalues unchanged
    eigs = np.array([1.0, 2.0, 5.0])
    trace_sigma = eigs.sum()
    trace_s_sigma = float(np.sum(eigs ** 2))
    out = shrinkage.linear_shrinkage_oracle(eigs, trace_sigma, trace_s_sigma)
    assert np.allclose(out, eigs, atol=1e-10)


def test_linear_limit_preserves_trace(spec_204040):
    a, b = shrinkage.linear_shrinkage_limit(spec_204040, 2.0)
    mu1 = spectrum.moment(spec_204040, 1)
    assert a + b * mu1 == pytest.approx(mu1, abs=1e-12)
    assert 0 < b < 1  # strictly shrinks toward the mean
