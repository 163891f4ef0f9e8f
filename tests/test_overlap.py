from __future__ import annotations

import numpy as np
import pytest

from mpshrink import overlap, spectrum, stieltjes
from mpshrink.errors import DomainError, EmptyBin, GammaOne, ZeroBranchUnavailable
from conftest import interior_points

MIXTURE = spectrum.validate(atoms=[(0.27, 7.12)], segments=[(0.73, 2.14, 5.15)])

EDGE_CASES = [(name, gamma) for name in ("d1", "204040", "unif56")
              for gamma in (0.5, 2.0, 10.0)]


def test_point_mass_kernel_is_one(solutions):
    sol = solutions("d1", 2.0)
    for l in interior_points(sol, 12):
        assert overlap.phi(l, 1.0, sol) == pytest.approx(
            1.0, abs=1e-6)


def test_point_mass_kernel_other_gammas(solutions):
    for gamma in (0.5, 10.0):
        sol = solutions("d1", gamma)
        for l in interior_points(sol, 8):
            assert overlap.phi(l, 1.0, sol) \
                == pytest.approx(1.0, abs=1e-6)


def test_negative_l_is_zero(solutions):
    sol = solutions("d1", 2.0)
    assert overlap.phi(-1.0, 1.0, sol) == 0.0


def test_zero_branch_requires_small_gamma(solutions):
    sol2 = solutions("d1", 2.0)
    with pytest.raises(ZeroBranchUnavailable):
        overlap.phi(0.0, 1.0, sol2)
    sol5 = solutions("d1", 0.5)
    # mu0 = 1 for delta_1 at gamma = 1/2, so phi(0, 1) = 1/((1-g)(1+1)) = 1
    assert overlap.phi(0.0, 1.0, sol5) == pytest.approx(
        1.0, abs=1e-9)


def test_gamma_one_guard(spec_d1):
    # no gamma = 1 solution exists for phi or Phi to see: the solution
    # itself refuses gamma = 1 at construction
    with pytest.raises(GammaOne):
        stieltjes.StieltjesSolution(
            gamma=1.0, grid=np.array([1.0, 2.0]), m_breve=np.array([0j, 0j]),
            support=[(1.0, 2.0)], spec=spec_d1, valid=np.array([True, True]))


def test_fig1_profile_uniform_spectrum(solutions):
    # top-edge eigenvector profile over t: integrates to one, single peak
    spec = solutions.specs["unif56"]
    sol = solutions("unif56", 2.0)
    l_top = stieltjes.support_edges(sol)[-1][1]
    assert abs(overlap.phi_h_integral(l_top, sol, spec) - 1.0) <= 1e-3
    ts = np.linspace(5.0, 6.0, 400)
    vals = overlap.phi(l_top, ts, sol)
    assert np.all(vals >= 0)
    d = np.sign(np.diff(vals))
    switches = np.sum(np.abs(np.diff(d[d != 0])) > 0)
    assert switches <= 1  # single-peaked


def test_kernel_normalization_mixture(solutions):
    spec = solutions.specs["204040"]
    sol = solutions("204040", 2.0)
    ls = interior_points(sol, 50)
    gaps = [abs(overlap.phi_h_integral(l, sol, spec) - 1.0) for l in ls]
    assert max(gaps) <= 1e-3


@pytest.mark.parametrize("gamma", [87.5, 100.0])
def test_kernel_integrals_exact_at_large_gamma(gamma):
    # phi(l, .) peaks far inside the segment at large gamma, where 64
    # Gauss-Legendre nodes missed the H-integral 1 by 1.9e-3 and 4.5e-3, and
    # Phi(lambda, h2) = F(lambda) by 3.4e-6 and 9.1e-6
    sol = stieltjes.solve_density(MIXTURE, gamma)
    gaps = [abs(overlap.phi_h_integral(l, sol, MIXTURE) - 1.0)
            for l in interior_points(sol, 50)]
    assert max(gaps) <= 1e-12
    lams = np.random.default_rng(11).uniform(0.0, 1.1 * sol.grid[-1], 50)
    phis = [overlap.phi_cumulative(l, MIXTURE.h2, sol, MIXTURE) for l in lams]
    assert np.max(np.abs(np.array(phis) - sol.cdf(lams))) <= 1e-12


def test_cumulative_is_F_for_segment_near_zero():
    # U[0.01, 10] at gamma = 2: the nodes missed F by 7.0e-4
    spec = spectrum.uniform(0.01, 10.0)
    sol = stieltjes.solve_density(spec, 2.0)
    lams = np.random.default_rng(12).uniform(0.0, 1.1 * sol.grid[-1], 50)
    phis = [overlap.phi_cumulative(l, spec.h2, sol, spec) for l in lams]
    assert np.max(np.abs(np.array(phis) - sol.cdf(lams))) <= 1e-12


@pytest.mark.parametrize("name,gamma", EDGE_CASES)
def test_kernel_integral_at_support_edges(solutions, name, gamma):
    # the support edges are grid nodes, where m_at is the node's m_breve;
    # Im m_breve vanishes there, exactly so at the lower edge, and the
    # integral takes its limit as Im s -> 0
    sol = solutions(name, gamma)
    got = [overlap.phi_h_integral(e, sol, solutions.specs[name])
           for e in np.ravel(sol.support)]
    assert np.max(np.abs(np.array(got) - 1.0)) <= 1e-12


@pytest.mark.parametrize("gamma", [2.0, 10.0])
def test_kernel_integral_at_edges_of_segment_near_zero(gamma):
    # U[0.01, 10]: continuing the nearest knots' polynomials to the lower
    # edge read m_breve 1.4% (gamma = 2) and 7.9% (gamma = 10) off, and
    # phi_h_integral there 0.84 and -3.8
    spec = spectrum.uniform(0.01, 10.0)
    sol = stieltjes.solve_density(spec, gamma)
    got = [overlap.phi_h_integral(e, sol, spec) for e in np.ravel(sol.support)]
    assert np.max(np.abs(np.array(got) - 1.0)) <= 1e-10


def test_phi_nonnegative_on_grid(solutions):
    sol = solutions("204040", 2.0)
    ts = np.linspace(1.0, 10.0, 30)
    for l in interior_points(sol, 30):
        assert np.all(overlap.phi(l, ts, sol) >= 0)


def test_cumulative_limits(solutions):
    spec = solutions.specs["d1"]
    sol = solutions("d1", 2.0)
    top = sol.grid[-1]
    assert overlap.phi_cumulative(10 * top, 100.0, sol, spec) \
        == pytest.approx(1.0, abs=1e-12)
    assert overlap.phi_cumulative(1.0, 0.5, sol, spec) == 0.0  # tau < h1
    assert overlap.phi_cumulative(-1.0, 2.0, sol, spec) == 0.0


def test_cumulative_reduces_to_F_for_point_mass(solutions):
    spec = solutions.specs["d1"]
    sol = solutions("d1", 2.0)
    lam = stieltjes.support_edges(sol)[-1][1]
    assert overlap.phi_cumulative(lam, 1.0, sol, spec) == pytest.approx(
        float(sol.cdf(lam)), abs=1e-12)
    mid = 0.5 * (sol.support[0][0] + sol.support[0][1])
    assert overlap.phi_cumulative(mid, 1.0, sol, spec) == pytest.approx(
        float(sol.cdf(mid)), abs=1e-12)


def test_cumulative_includes_zero_atom(solutions):
    spec = solutions.specs["d1"]
    sol = solutions("d1", 0.5)
    # just above zero and below the bulk, all mass comes from the atom
    lo_bulk = sol.support[0][0]
    val = overlap.phi_cumulative(0.5 * lo_bulk, 1.0, sol, spec)
    assert val == pytest.approx(0.5, abs=1e-9)  # (1-gamma) * 1
    assert overlap.phi_cumulative(10 * sol.grid[-1], 10.0, sol, spec) \
        == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_cumulative_over_all_taus_is_F(solutions, gamma):
    # Phi(lambda, tau >= h2) is F(lambda), and both reach 1 at the top, to
    # rounding: dF is integrated by the trapezoid rule in the Chebyshev angle
    mixture = spectrum.validate(atoms=[(0.27, 7.12)],
                                segments=[(0.73, 2.14, 5.15)])
    cases = [(solutions.specs["204040"], solutions("204040", gamma)),
             (mixture, stieltjes.solve_density(mixture, gamma))]
    for spec, sol in cases:
        top = 1.1 * sol.grid[-1]
        lams = np.sort(np.random.default_rng(7).uniform(0.0, top, 50))
        fs = sol.cdf(lams)
        assert np.all(np.diff(fs) >= 0.0)
        phis = [overlap.phi_cumulative(l, spec.h2, sol, spec) for l in lams]
        assert np.max(np.abs(np.array(phis) - fs)) <= 1e-12
        assert abs(overlap.phi_cumulative(top, spec.h2, sol, spec) - 1.0) \
            <= 1e-12


def test_cumulative_monotone(solutions):
    spec = solutions.specs["204040"]
    sol = solutions("204040", 2.0)
    lams = np.linspace(0.0, sol.grid[-1], 7)
    taus = np.array([0.5, 1.0, 3.0, 10.0])
    table = np.array([[overlap.phi_cumulative(l, t, sol, spec) for t in taus]
                      for l in lams])
    assert np.all(np.diff(table, axis=0) >= -1e-9)
    assert np.all(np.diff(table, axis=1) >= -1e-9)


def test_average_overlap_full_ranges(solutions):
    spec = solutions.specs["204040"]
    sol = solutions("204040", 2.0)
    top = sol.grid[-1]
    val = overlap.average_overlap(-1.0, 10 * top, 0.0, 20.0, sol, spec)
    assert val == pytest.approx(1.0, abs=3e-3)


def test_average_overlap_point_mass_any_bin(solutions):
    spec = solutions.specs["d1"]
    sol = solutions("d1", 2.0)
    lo, hi = sol.support[0]
    for bin_ in ((lo, 0.3 * lo + 0.7 * hi), (0.5 * (lo + hi), hi)):
        val = overlap.average_overlap(bin_[0], bin_[1], 0.5, 1.5, sol, spec)
        assert val == pytest.approx(1.0, abs=1e-3)


def test_average_overlap_zero_atom_bin(solutions):
    # a bin straddling only the zero eigenvalue atom (gamma < 1) averages to
    # phi(0, t); for H = delta_1 at gamma = 1/2 that is 1/((1-g)(1+mu0)) = 1
    spec = solutions.specs["d1"]
    sol = solutions("d1", 0.5)
    lo_bulk = sol.support[0][0]
    val = overlap.average_overlap(-0.5, 0.5 * lo_bulk, 0.5, 1.5, sol, spec)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_average_overlap_empty_bin(solutions):
    spec = solutions.specs["204040"]
    sol = solutions("204040", 2.0)
    with pytest.raises(EmptyBin):
        overlap.average_overlap(0.0, 1e9, 4.0, 5.0, sol, spec)  # no H mass
    with pytest.raises(EmptyBin):
        overlap.average_overlap(1e8, 1e9, 0.0, 20.0, sol, spec)  # no F mass


def test_point_mass_reduction_scaled():
    spec = spectrum.point_mass(2.0)
    sol = stieltjes.solve_density(spec, 2.0, num_points=1500)
    lo, hi = sol.support[0]
    for l in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 9):
        assert overlap.phi(l, 2.0, sol) == pytest.approx(1.0, abs=1e-6)


def test_phi_at_nan_raises(solutions):
    sol, spec = solutions("204040", 2.0), solutions.specs["204040"]
    for call in (lambda: overlap.phi(np.nan, 3.0, sol),
                 lambda: overlap.phi(2.0, np.nan, sol),
                 lambda: overlap.phi(2.0, [3.0, np.nan], sol),
                 lambda: overlap.phi_h_integral(np.nan, sol, spec),
                 lambda: overlap.phi_cumulative(5.0, np.nan, sol, spec),
                 lambda: overlap.phi_cumulative(np.nan, 5.0, sol, spec),
                 # below h1, where Phi is 0 at every lambda
                 lambda: overlap.phi_cumulative(np.nan, 0.5, sol, spec),
                 lambda: overlap.average_overlap(1.0, np.nan, 0.5, 2.0, sol, spec),
                 lambda: overlap.average_overlap(1.0, 5.0, 0.5, np.nan, sol, spec)):
        with pytest.raises(DomainError):
            call()
    # infinities keep their limits
    assert overlap.phi_cumulative(5.0, np.inf, sol, spec) \
        == overlap.phi_cumulative(5.0, 10.0, sol, spec)
    assert overlap.phi_cumulative(np.inf, 5.0, sol, spec) \
        == overlap.phi_cumulative(sol.grid[-1], 5.0, sol, spec)


def test_phi_at_infinity_is_its_limit_zero(solutions):
    # the kernel falls like 1/t in t and like 1/l in l; a RuntimeWarning
    # (inf / inf) fails the test under this suite's filterwarnings
    sol, spec = solutions("204040", 2.0), solutions.specs["204040"]
    assert overlap.phi(2.0, np.inf, sol) == 0.0
    assert overlap.phi(np.inf, 3.0, sol) == 0.0
    assert overlap.phi_h_integral(np.inf, sol, spec) == 0.0
    t = np.array([3.0, np.inf, -np.inf])
    out = overlap.phi(2.0, t, sol)
    assert out[0] == overlap.phi(2.0, 3.0, sol) > 0.0
    assert np.array_equal(out[1:], [0.0, 0.0])
    assert np.array_equal(overlap.phi(np.inf, t, sol), np.zeros(3))


def test_phi_h_integral_below_and_at_zero(solutions):
    spec = solutions.specs["d1"]
    assert overlap.phi_h_integral(-1.0, solutions("d1", 2.0), spec) == 0.0
    with pytest.raises(ZeroBranchUnavailable):
        overlap.phi_h_integral(0.0, solutions("d1", 2.0), spec)
    # for gamma < 1 the eigenvectors of the zero atom carry the whole of H
    assert overlap.phi_h_integral(0.0, solutions("d1", 0.5), spec) \
        == pytest.approx(1.0, abs=1e-12)


def test_phi_at_the_top_edge(solutions):
    # at an exact edge Im k = 0, so the kernel is finite over supp H and
    # +inf only at t = l/k, the critical point of x above supp H
    sol, spec = solutions("204040", 2.0), solutions.specs["204040"]
    l = sol.support[-1][1]
    k = stieltjes.k_factor(l, sol.m_at(l), 2.0)
    assert k.imag == 0.0 and l / k.real > spec.h2
    assert np.all(np.isfinite(overlap.phi(l, np.linspace(spec.h1, spec.h2, 400), sol)))
    assert overlap.phi(l, l / k.real, sol) == np.inf


def test_a_spectrum_not_the_solutions_is_a_domain_error(solutions, spec_unif56):
    # the gamma = 2 solution of 204040 with U[5, 6]: phi_h_integral(4.0)
    # returned 2.24, with no error; an equal spectrum built anew is the same
    sol = solutions("204040", 2.0)
    for call in (lambda: overlap.phi_h_integral(4.0, sol, spec_unif56),
                 lambda: overlap.phi_h_integral(-1.0, sol, spec_unif56),
                 lambda: overlap.phi_cumulative(4.0, 5.5, sol, spec_unif56),
                 lambda: overlap.phi_cumulative(4.0, 0.5, sol, spec_unif56),
                 lambda: overlap.average_overlap(3.0, 5.0, 5.0, 6.0, sol,
                                                 spec_unif56)):
        with pytest.raises(DomainError):
            call()
    same = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    assert overlap.phi_h_integral(4.0, sol, same) == pytest.approx(1.0, abs=1e-9)
