from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mpshrink import shrinkage, simulate, spectrum, stieltjes
from mpshrink.errors import DegenerateSpan, DomainError, GammaOne
from conftest import SOLUTION_POINTS, interior_points


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
    for lam in interior_points(sol, 30):
        assert shrinkage.psi(lam, sol) == pytest.approx(1.0, abs=1e-6)


def test_psi_negative_lambda_is_zero(solutions):
    assert shrinkage.psi(-1.0, solutions("d1", 2.0)) == 0.0


def test_psi_zero_gamma_half(solutions):
    # psi(0) = m_H(0)/(1-gamma) - mu0 = 2 - 1 = 1; confirmed through the
    # inverse-moment conservation gamma*1 + (1-gamma)*psi(0) = m_H(0) = 1.
    sol = solutions("d1", 0.5)
    assert shrinkage.psi_zero(sol) == pytest.approx(1.0, abs=1e-9)
    assert shrinkage.psi(0.0, sol) == pytest.approx(1.0, abs=1e-9)


def test_point_mass_scaling():
    spec = spectrum.point_mass(2.0)
    sol = stieltjes.solve_density(spec, 2.0, num_points=1500)
    lo, hi = sol.support[0]
    lams = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 15)
    assert np.allclose(shrinkage.delta(lams, sol), 2.0, atol=2e-6)
    assert np.allclose(shrinkage.psi(lams, sol), 0.5, atol=1e-6)


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


def test_delta_one_ulp_inside_both_edges(spec_unif56):
    # between an edge and its first knot delta reads the exact root: one ulp
    # inside the lower edge of U[5, 6] at gamma = 0.2 it raised NoConvergence
    sol = stieltjes.solve_density(spec_unif56, 0.2)
    (a, b), = sol.support
    lam = np.array([np.nextafter(a, np.inf), np.nextafter(b, 0.0)])
    assert np.all(np.isfinite(shrinkage.delta(lam, sol)))
    assert np.all(shrinkage.delta(lam, sol) > 0)


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
    assert shrinkage.shrink_spectrum(eigs[0], sol)[0] == out[0]  # a scalar


def test_shrink_spectrum_rejects_negative(solutions):
    with pytest.raises(ValueError):
        shrinkage.shrink_spectrum(np.array([-1.0]), solutions("204040", 2.0))
    # rounding below zero, inside the zero band of a row topping out at 10
    sol = solutions("204040", 0.5)
    out = shrinkage.shrink_spectrum(np.array([10.0, 2.0, -1e-17]), sol)
    assert out[2] == shrinkage.delta_zero(sol)
    for shrink in (shrinkage.shrink_spectrum,
                   shrinkage.shrink_inverse_spectrum):
        with pytest.raises(ValueError):
            shrink(np.array([10.0, 2.0, -1.0]), sol)


@pytest.mark.parametrize("scale", [1e-13, 1e13])
def test_zero_rule_is_per_row(solutions, scale):
    # zero_eig_count and both shrink_* read the same zero rule, row by row,
    # on a stack whose rows differ in scale
    sol, spec = solutions("204040", 0.5), solutions.specs["204040"]
    config = simulate.SimulationConfig(N=40, p=20, spec=spec, reps=2, seed=3)
    eigs = simulate.generate(config, range(2)).eigenvalues
    eigs[1] *= scale
    counts = simulate.zero_eig_count(eigs)
    assert counts.tolist() == [20, 20]
    shrunk = shrinkage.shrink_spectrum(eigs, sol)
    assert np.array_equal(
        np.sum(shrunk == shrinkage.delta_zero(sol), axis=-1), counts)
    inv = shrinkage.shrink_inverse_spectrum(eigs, sol)
    assert np.array_equal(
        np.sum(inv == shrinkage.psi_zero(sol), axis=-1), counts)


@pytest.mark.parametrize("name, gamma", [("d1", 2.0), ("204040", 100.0)])
def test_blocks_change_nothing(solutions, name, gamma):
    # lengths around the block boundaries, 0-d, 2-D and empty inputs read
    # what the same points give one at a time; d1 has one support interval
    # and 204040 at gamma = 100 three.  m_at solves the points between an
    # edge and its first knot, off the support and above the grid exactly
    sol = solutions(name, gamma)
    edges = np.ravel(sol.support)
    k = sol.grid.searchsorted(edges)
    first = sol.grid[k + np.resize([1, -1], len(k))]  # each edge's first knot
    rng = np.random.default_rng(11)
    pts = np.unique(np.concatenate([
        sol.grid[::37], edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        rng.uniform(0.0, 1.2 * sol.grid[-1], 200), [0.0],
        (edges + (first - edges) * rng.uniform(0.0, 1.0, (5, len(k)))).ravel()]))
    signed = np.concatenate([-pts[1:20], pts])
    # no positive eigenvalue so small that a longer row would zero it
    eigs = pts[(pts == 0) | (pts > 1e-6 * pts[-1])]
    lookups = [(sol.m_at, pts[pts > 0]),
               (lambda x: shrinkage.delta(x, sol), signed),
               (lambda x: shrinkage.psi(x, sol), signed),
               (lambda x: shrinkage.shrink_spectrum(x, sol), eigs)]
    b = stieltjes.BLOCK
    for f, x in lookups:
        one = np.array([f(x[i:i + 1])[0] for i in range(len(x))])
        for shape in (b - 1, b, b + 1, 2 * b + 1, (2, b + 1), 0, (3, 0)):
            idx = rng.integers(0, len(x), shape)
            out = f(x[idx])
            assert out.shape == idx.shape and np.array_equal(out, one[idx])
        assert f(np.float64(x[-1])) == one[-1]
    assert type(sol.m_at(np.float64(1.0))) is complex
    assert type(shrinkage.delta(np.array(1.0), sol)) is float


def test_non_finite_lambda_raises(solutions):
    sol = solutions("204040", 2.0)
    late = np.ones(2 * stieltjes.BLOCK + 1)
    late[-1] = np.nan  # in the last block
    for call in (lambda: shrinkage.shrink_spectrum([np.nan, 1.0], sol),
                 lambda: shrinkage.shrink_spectrum([np.inf, 1.0], sol),
                 lambda: shrinkage.shrink_inverse_spectrum([1.0, -np.inf], sol),
                 lambda: shrinkage.delta([0.5, np.nan], sol),
                 lambda: shrinkage.delta(late, sol),
                 lambda: shrinkage.delta(np.inf, sol),
                 lambda: shrinkage.delta(-np.inf, sol),
                 lambda: shrinkage.psi(np.nan, sol),
                 lambda: shrinkage.delta_cumulative(np.nan, sol),
                 lambda: shrinkage.psi_cumulative([1.0, np.nan], sol)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("case", ["204040", "U[0.01, 10]"])
def test_lookup_working_set(solutions, case):
    # a dense lookup holds its output and one block, whatever its length;
    # shrink_spectrum holds one zeroed copy of its input besides
    if case == "204040":
        sol = solutions("204040", 100.0)
    else:
        sol = stieltjes.solve_density(spectrum.uniform(0.01, 10.0), 2.0,
                                      num_points=SOLUTION_POINTS)
    lam = np.random.default_rng(5).uniform(0.0, 1.2 * sol.grid[-1], 10 ** 6)
    shrinkage.shrink_spectrum(lam[:10], sol)  # the cached interpolants
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for f, copies in ((sol.m_at, 1),
                          (lambda x: shrinkage.shrink_spectrum(x, sol), 2)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = f(lam)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= copies * out.nbytes + 4 * 2 ** 20
            del out
    finally:
        if started:
            tracemalloc.stop()


def test_gamma_one_rejected(spec_d1):
    # delta and shrink_spectrum never see gamma = 1: the solution refuses it
    # at construction, and solve_density before any solve
    with pytest.raises(GammaOne):
        stieltjes.StieltjesSolution(
            gamma=1.0, grid=np.array([1.0, 2.0]), m_breve=np.array([0j, 0j]),
            spec=spec_d1)
    with pytest.raises(GammaOne):
        stieltjes.solve_density(spec_d1, 1.0)


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
    inv = shrinkage.shrink_inverse_spectrum(real.eigenvalues, sol)
    rel_gap = np.abs(inv - 1.0 / fwd) / np.abs(inv)
    assert rel_gap.max() > 1e-3


def test_inverse_shrink_zero_branch(solutions):
    sol = solutions("d1", 0.5)
    out = shrinkage.shrink_inverse_spectrum(np.zeros(3), sol)
    assert np.allclose(out, shrinkage.psi_zero(sol))


def test_inverse_shrink_monte_carlo(solutions, spec_d1):
    sol = solutions("d1", 2.0)
    config = simulate.SimulationConfig(N=100, p=200, spec=spec_d1, reps=10,
                                       seed=13)
    means = []
    for r in range(config.reps):
        real = simulate.generate(config, r)
        means.append(shrinkage.shrink_inverse_spectrum(
            real.eigenvalues, sol).mean())
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


def _linear_oracle_row(eigs, trace_sigma, trace_s_sigma):
    # one spectrum, solved by lstsq: the least-norm solution
    n = len(eigs)
    gram = np.array([[n, eigs.sum()], [eigs.sum(), np.sum(eigs ** 2)]])
    coef, *_ = np.linalg.lstsq(gram, [trace_sigma, trace_s_sigma], rcond=None)
    return coef[0] + coef[1] * eigs


def test_linear_oracle_stack_matches_rows():
    rng = np.random.default_rng(5)
    eigs = rng.gamma(2.0, size=(40, 20))
    eigs[7] = 2.5  # S proportional to I: the span degenerates to span{I}
    trace_sigma = 20 * 3.0
    trace_s_sigma = np.sum(eigs * rng.gamma(2.0, size=eigs.shape), axis=1)
    trace_s_sigma[7] = 2.5 * trace_sigma  # Tr(S Sigma) for S = 2.5 I
    stack = shrinkage.linear_shrinkage_oracle(eigs, trace_sigma, trace_s_sigma)
    assert stack.shape == eigs.shape
    for row, lam, tss in zip(stack, eigs, trace_s_sigma):
        ref = _linear_oracle_row(lam, trace_sigma, tss)
        assert np.allclose(row, ref, rtol=1e-12, atol=0)
        assert np.array_equal(
            row, shrinkage.linear_shrinkage_oracle(lam, trace_sigma, tss))
    assert np.allclose(stack[7], trace_sigma / 20, rtol=1e-12, atol=0)
    with pytest.raises(DegenerateSpan):  # no eigenvalues in each spectrum
        shrinkage.linear_shrinkage_oracle(np.zeros((2, 0)), 1.0, 1.0)
    for bad in (np.nan, np.inf):
        tss = trace_s_sigma.copy()
        tss[3] = bad
        with pytest.raises(DegenerateSpan):
            shrinkage.linear_shrinkage_oracle(eigs, trace_sigma, tss)
        with pytest.raises(DegenerateSpan):
            shrinkage.linear_shrinkage_oracle(eigs, bad, trace_s_sigma)


LIMIT_GAMMAS = [0.5, 2.0, 10.0, 100.0]


@pytest.mark.parametrize("gamma", LIMIT_GAMMAS)
def test_linear_limit_preserves_trace(spec_204040, gamma):
    a, b = shrinkage.linear_shrinkage_limit(spec_204040, gamma)
    mu1 = spectrum.moment(spec_204040, 1)
    assert a + b * mu1 == pytest.approx(mu1, abs=1e-12)
    assert 0 < b < 1  # strictly shrinks toward the mean


@pytest.mark.parametrize("gamma", LIMIT_GAMMAS)
@pytest.mark.parametrize("c", [1.0, 2.5])
def test_linear_limit_of_a_point_mass(c, gamma):
    # Sigma = cI lies in span{I, S}: the projection is cI itself, exactly
    assert shrinkage.linear_shrinkage_limit(spectrum.point_mass(c), gamma) \
        == (c, 0.0)


@pytest.mark.parametrize("lo,hi", [(5.0, 5.0 + 1e-6), (100.0, 100.01)])
def test_linear_limit_of_a_narrow_segment(lo, hi):
    # (a, b) in exact rationals of the float ends: Var_H as M2 - M1^2 put b
    # 1.9% and 3.2e-7 off here
    var, m1 = (Fraction(hi) - Fraction(lo)) ** 2 / 12, (Fraction(lo) + Fraction(hi)) / 2
    b = var / (var + m1 * m1 / 2)
    got = shrinkage.linear_shrinkage_limit(spectrum.uniform(lo, hi), 2.0)
    assert got == pytest.approx((float(m1 * (1 - b)), float(b)), rel=1e-14, abs=0)


def test_a_spectrum_not_the_solutions_is_a_domain_error(solutions, spec_unif56):
    # the gamma = 2 solution of 204040 with U[5, 6]: moment_residuals
    # returned (-0.100, 0.191), with no error
    sol = solutions("204040", 2.0)
    with pytest.raises(DomainError):
        shrinkage.moment_residuals(sol, spec_unif56)
    with pytest.raises(DomainError):
        shrinkage.build_shrinkage_curve(sol, spec_unif56)
