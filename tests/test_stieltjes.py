from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import SOLUTION_POINTS, interior_points
from mpshrink import overlap, shrinkage, spectrum, stieltjes
from mpshrink.errors import DomainError, EmptySupport, GammaOne, NoConvergence

U_HARD = spectrum.uniform(0.01, 10.0)   # segment reaching down to 1e-3 * h2
MIXTURE = spectrum.validate(atoms=[(0.27, 7.12)], segments=[(0.73, 2.14, 5.15)])
LIMIT_CASES = [(name, gamma) for name in ("d1", "204040", "unif56")
               for gamma in (0.5, 2.0, 10.0, 100.0)]


def test_tail_behavior(spec_204040):
    z = 1e6j
    m = stieltjes.solve_mF(z, spec_204040, 2.0)
    assert abs(m + 1.0 / z) <= 1e-10


def test_point_mass_oracle_single_z(spec_d1):
    z = 1.0 + 1e-6j
    m = stieltjes.solve_mF(z, spec_d1, 2.0)
    assert abs(m - oracles.point_mass_m(z, 2.0)) <= 1e-9


def test_point_mass_oracle_z_grid(spec_d1):
    # 100 z values across and around the support, both gammas
    for gamma in (2.0, 10.0):
        re = np.linspace(0.02, 3.5, 50)
        zs = np.concatenate([re + 1e-3j, re + 0.3j])
        m = stieltjes.solve_mF(zs, spec_d1, gamma)
        assert np.max(np.abs(m - oracles.point_mass_m(zs, gamma))) <= 1e-9


@pytest.mark.parametrize("name, re_max", [("204040", 26.0), ("unif56", 20.0),
                                          ("d1", 3.5)])
def test_solve_mF_is_the_same_bits_alone_and_in_a_grid(solutions, name, re_max):
    # a z grid across the support and around it at gamma = 2, as one array
    # and one z at a time: each point takes its own Newton steps
    spec = solutions.specs[name]
    re, im = np.linspace(0.02, re_max, 60), np.logspace(-3.0, 0.5, 10)
    zs = (re[None, :] + 1j * im[:, None]).ravel()
    one = [stieltjes.solve_mF(z, spec, 2.0) for z in zs]
    assert np.array_equal(stieltjes.solve_mF(zs, spec, 2.0), one)


def test_below_edge_imaginary_part_vanishes(spec_d1):
    z = 0.05 + 1e-6j  # below the lower edge (1 - 1/sqrt(2))^2 ~ 0.0858
    m = stieltjes.solve_mF(z, spec_d1, 2.0)
    assert m.imag <= 1e-3


def test_residual_and_nevanlinna(spec_204040):
    taus, ws = spectrum.quadrature_nodes(spec_204040)
    for gamma in (0.5, 2.0, 10.0):
        zs = np.array([0.3 + 1e-4j, 2.0 + 1e-3j, 9.0 + 0.01j, 15.0 + 1.0j])
        m = stieltjes.solve_mF(zs, spec_204040, gamma)
        assert np.all(m.imag > 0)
        k = 1 - 1 / gamma - zs * m / gamma
        rhs = np.sum(ws[:, None] / (taus[:, None] * k[None, :] - zs[None, :]),
                     axis=0)
        assert np.max(np.abs(rhs - m) / np.maximum(1, np.abs(m))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(1e-4, 5.0),
       st.sampled_from([0.5, 2.0, 10.0]))
def test_nevanlinna_property(re, im, gamma):
    spec = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    m = stieltjes.solve_mF(complex(re, im), spec, gamma)
    assert m.imag > 0


@pytest.mark.parametrize("gamma", [10.0, 87.5, 100.0])
def test_solve_mF_exact_on_segments(spec_unif56, gamma):
    # near the real axis inside the support of segment spectra, m solves the
    # equation with H integrated exactly, and m(lambda + i*eta) tends to the
    # boundary value as eta falls (64 Gauss-Legendre nodes per segment stall
    # at a residual of 1.7e-3 |m| for the mixture at gamma = 87.5)
    mixture = spectrum.validate(atoms=[(0.27, 7.12)],
                                segments=[(0.73, 2.14, 5.15)])
    for spec in (mixture, spec_unif56):
        sol = stieltjes.solve_density(spec, gamma, num_points=SOLUTION_POINTS)
        lam = interior_points(sol, 20)
        errs = []
        for eta in (1e-2, 1e-6):
            z = lam + 1j * eta
            m = stieltjes.solve_mF(z, spec, gamma)
            gap = oracles.exact_gap(z, m, spec, gamma)
            assert np.all(gap <= 1e-12 * np.abs(m))
            errs.append(np.abs(m - sol.m_at(lam)) / np.abs(m))
        assert np.all(errs[1] <= 1e-2 * errs[0])


@pytest.mark.parametrize("gamma", [500.0, 1e4])
def test_solve_mF_large_gamma_small_z(spec_d1, gamma):
    # at gamma >> 1 and small |z| the two terms of (gamma - 1)/z + gamma*mu
    # cancel to |m| << gamma/|z|; that form missed the residual at 37 to 138
    # points of this grid per case, among them z = 0.001 + 1e-6j for d1 at
    # gamma = 1e4
    mixture = spectrum.validate(atoms=[(0.27, 7.12)],
                                segments=[(0.73, 2.14, 5.15)])
    z = (np.geomspace(1e-3, 3.0, 40)[:, None]
         + 1j * np.geomspace(1e-6, 1.0, 8)).ravel()
    for spec in (spec_d1, mixture):
        m = stieltjes.solve_mF(z, spec, gamma)
        gap = oracles.exact_gap(z, m, spec, gamma)
        assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(m)))
    m = stieltjes.solve_mF(z, spec_d1, gamma)
    assert np.all(np.abs(m - oracles.point_mass_m(z, gamma))
                  <= 1e-13 * np.maximum(1.0, np.abs(m)))
    # the oracle against the root of its quadratic in 40-digit arithmetic
    exact = 1.0011013116622095 + 1.0023042674216177e-06j
    assert abs(oracles.point_mass_m(0.001 + 1e-6j, 1e4) - exact) <= 1e-15
    m = stieltjes.solve_mF(0.001 + 1e-6j, spec_d1, 1e4)
    assert abs(m - oracles.point_mass_m(0.001 + 1e-6j, 1e4)) <= 1e-14


@pytest.mark.parametrize("eta", [1e-9, 1e-8])
def test_solve_mF_near_top_edge_of_mixture(eta):
    # 4.2e-4 below the top edge 7.99879 at gamma = 87.5: a damped fixed point
    # from -1/z ended on a root with Im m <= 0 or Im mu <= 0 here and raised
    # NoConvergence, although the physical root exists
    z = np.array([7.998369460579098 + 1j * eta])
    m = stieltjes.solve_mF(z, MIXTURE, 87.5)
    assert m.imag[0] > 0
    assert oracles.exact_gap(z, m, MIXTURE, 87.5)[0] <= 1e-12 * abs(m[0])
    ref = stieltjes.boundary_values(MIXTURE, 87.5, z.real).m_breve[0]
    assert abs(m[0] - ref) <= 1e-6 * abs(m[0])


@pytest.mark.parametrize("case", [("d1", 0.5), ("d1", 100.0), ("U", 2.0),
                                  ("U", 1e3), ("mixture", 87.5)])
def test_solve_mF_at_support_edges(solutions, case):
    # at an edge x'(u0) = 0 and Newton starts from the square-root step
    # sqrt(2i Im z / x''(u0)); a first-order seed i Im z / x'(u0) fails there
    name, gamma = case
    spec = {"U": U_HARD, "mixture": MIXTURE}.get(name) or solutions.specs[name]
    edges = stieltjes._critical_points(spec, gamma)[1]
    re = (edges[:, None] * np.array([1 - 1e-9, 1.0, 1 + 1e-9])).ravel()
    z = (re[:, None] + 1j * np.array([1e-12, 1e-9, 1e-6, 1e-3])).ravel()
    m = stieltjes.solve_mF(z, spec, gamma)
    assert np.all(m.imag > 0)
    # the residual at 40 digits: for U[0.01, 10] at gamma = 1e3, z/k lies next
    # to the segment end 0.01, where the double exact_gap has a rounding floor
    # of its own, up to 1.24e-11 |m|
    gaps = [oracles.exact_gap_mp(a, b, spec, gamma) for a, b in zip(z, m)]
    assert np.all(gaps <= 10 * stieltjes.TOL * np.maximum(1.0, np.abs(m)))


@pytest.mark.parametrize("gamma", [0.05, 0.2, 0.5, 0.9])
def test_solve_mF_on_imaginary_axis_near_zero(spec_d1, gamma):
    # k = 1 - 1/gamma - z*m/gamma formed from m cancels to -z*mu here, and a
    # residual on it grew like ulp / |z|: 10 of these 24 z raised
    # NoConvergence with k so formed; with k = z/u from the root they solve
    z = 1j * np.array([1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3])
    m = stieltjes.solve_mF(z, spec_d1, gamma)
    exact = oracles.point_mass_m(z, gamma)
    assert np.all(np.abs(m - exact) <= 1e-12 * np.abs(exact))


@pytest.mark.parametrize("gamma", [0.05, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("name", ["204040", "unif56", "U", "mixture"])
def test_solve_mF_near_zero_tends_to_companion_zero(solutions, name, gamma):
    # m = (gamma - 1)/z + gamma*mu(z), and mu(z) tends to the companion value
    # at zero as z -> 0 on the imaginary axis
    spec = {"U": U_HARD, "mixture": MIXTURE}.get(name) or solutions.specs[name]
    z = 1j * np.array([1e-12, 1e-9])
    m = stieltjes.solve_mF(z, spec, gamma)
    gamma_mu0 = gamma * stieltjes.companion_zero(spec, gamma)
    assert np.all(np.abs(m - (gamma - 1.0) / z - gamma_mu0) <= 1e-6 * gamma_mu0)


def test_solve_mF_at_gamma_one(spec_d1):
    # off the real axis gamma = 1 is in the domain; the support is [0, 4]
    z = (np.linspace(-1.0, 6.0, 71)[:, None]
         + 1j * np.array([1e-6, 1e-3, 1.0])).ravel()
    m = stieltjes.solve_mF(z, spec_d1, 1.0)
    assert np.all(np.abs(m - oracles.point_mass_m(z, 1.0)) <= 1e-9 * np.abs(m))


def test_solve_rejects_lower_half_plane(spec_d1):
    with pytest.raises(DomainError):
        stieltjes.solve_mF(1.0 - 1e-3j, spec_d1, 2.0)
    with pytest.raises(DomainError):
        stieltjes.solve_mF(1.0 + 1e-3j, spec_d1, -2.0)


def test_boundary_density_matches_closed_form(spec_d1):
    a, b = oracles.point_mass_edges(2.0)
    grid = np.linspace(a + 0.01, b - 0.01, 200)
    sol = stieltjes.boundary_values(spec_d1, 2.0, grid)
    assert sol.valid.all()
    expected = oracles.point_mass_density(grid, 2.0)
    assert np.max(np.abs(sol.density - expected)) <= 1e-6


def test_boundary_density_off_support(spec_d1):
    # a grid that misses the support still gets the exact edges, and off the
    # support m_breve is real: the density is exactly zero
    sol = stieltjes.boundary_values(spec_d1, 2.0, np.array([5.0, 5.5]))
    assert sol.valid.all()
    assert np.all(sol.density == 0.0) and np.all(sol.m_breve.imag == 0.0)
    (lo, hi), = stieltjes.support_edges(sol)
    a, b = oracles.point_mass_edges(2.0)
    assert abs(lo - a) <= 1e-9 and abs(hi - b) <= 1e-9
    expected = oracles.point_mass_m_boundary(np.array([5.0, 5.5]), 2.0)
    assert np.max(np.abs(sol.m_breve - expected)) <= 1e-12


@pytest.mark.parametrize("name, gamma", LIMIT_CASES + [
    ("uhard", 2.0), ("uhard", 10.0), ("uhard", 87.5)])
def test_m_at_matches_boundary_values(solutions, name, gamma):
    # between the knots of a support interval m_at interpolates; the
    # reference is the exact boundary value at the same lambda.  Between an
    # edge and its first knot, where the stencil would extrapolate (by up to
    # 8e-2 on U[0.01, 10]), m_at is that value, alone and in a dense block.
    # The support edges are grid nodes, where m_at returns the node's m_breve.
    sol, spec = solutions(name, gamma), solutions.specs[name]
    rng = np.random.default_rng(23)
    near = []
    for a, b in sol.support:
        lam = np.sort(rng.uniform(a, b, 200))
        exact = stieltjes.boundary_values(spec, gamma, lam)
        assert exact.valid.all()
        err = np.abs(sol.m_at(lam) - exact.m_breve) / np.abs(exact.m_breve)
        assert err.max() <= 1e-8
        knots = sol.grid[(sol.grid > a) & (sol.grid < b)]
        for lo, hi in ((a, knots[0]), (knots[-1], b)):
            near += [np.nextafter([lo, hi], [hi, lo]),
                     lo + (hi - lo) * rng.uniform(0.0, 1.0, 20)]
    near = np.unique(np.concatenate(near))
    exact = stieltjes.boundary_values(spec, gamma, near)
    for x in near[~exact.valid]:  # the solve can miss within rounding of an edge
        with pytest.raises(NoConvergence):
            sol.m_at(x)
    near, m = near[exact.valid], exact.m_breve[exact.valid]
    assert np.array_equal(sol.m_at(near), m)
    assert np.array_equal([sol.m_at(x) for x in near], m)
    dense = np.resize(sol.grid, 2 * stieltjes.BLOCK + 1)
    dense[-len(near):] = near  # in the last block
    assert np.array_equal(sol.m_at(dense)[-len(near):], m)
    edges = np.ravel(sol.support)
    i = np.searchsorted(sol.grid, edges)
    assert np.array_equal(sol.grid[i], edges)
    assert np.array_equal(sol.m_at(edges), sol.m_breve[i])


def test_stencils_reproduce_polynomials():
    # m_at between the knots of a support interval where v = Re m_breve +
    # i log(Im m_breve / sin theta) is a degree-5 polynomial in the Chebyshev
    # angle gives it back, one point at a time and as a dense array: the
    # Newton form through the 6 nearest of 10 unevenly spaced knots
    rng = np.random.default_rng(5)
    coef = rng.normal(size=6) + 1j * rng.normal(size=6)
    def m_breve(t):
        v = sum(c * t ** i for i, c in enumerate(coef))
        return v.real + 1j * np.sin(t) * np.exp(v.imag)
    th = np.sort(np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, 10)]))
    grid = 1.0 + (1.0 - np.cos(th)) / 2.0
    sol = stieltjes.StieltjesSolution(
        gamma=2.0, spec=spectrum.point_mass(1.0), grid=grid, m_breve=m_breve(th),
        support=[(1.0, 2.0)], valid=np.ones(len(grid), dtype=bool))
    lam = np.linspace(grid[1], grid[-2], 1001)  # the knot range
    exact = m_breve(stieltjes._angle(lam, 1.0, 2.0))
    one = np.array([sol.m_at(x) for x in lam])
    assert np.max(np.abs(one - exact) / np.abs(exact)) <= 1e-10
    assert np.array_equal(sol.m_at(lam), one) and one.imag.min() >= 0.0


@pytest.mark.parametrize("case", LIMIT_CASES)
def test_lookups_are_the_same_bits_one_point_at_a_time_and_dense(solutions, case):
    # a value has the same bits whether it is looked up alone, in a short
    # array or inside a dense one, before and after lookups at grid nodes
    name, gamma = case
    spec = solutions.specs[name]
    sol = dataclasses.replace(solutions(name, gamma))  # nothing built yet
    lam = interior_points(sol, 24)
    def lookups(x):
        return (sol.m_at(x), shrinkage.delta(x, sol), shrinkage.psi(x, sol),
                overlap._h_integral(x, sol.m_at(x), gamma, spec))
    one = [lookups(np.array([x])) for x in lam]
    assert [overlap.phi_h_integral(x, sol, spec) for x in lam] \
        == [float(h[0]) for *_, h in one]
    shrinkage.build_shrinkage_curve(sol, spec)
    shrinkage.moment_residuals(sol, spec)
    dense = np.linspace(sol.grid[0], sol.grid[-1], 20000)
    at = np.random.default_rng(1).choice(len(dense), len(lam), replace=False)
    dense[at] = lam
    dense_lookups = lookups(dense)
    for k, (single, block) in enumerate(zip(lookups(lam), dense_lookups)):
        assert np.array_equal(np.concatenate([o[k] for o in one]), single)
        assert np.array_equal(block[at], single)


@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0, 100.0])
@pytest.mark.parametrize("name", ["d1", "204040", "unif56"])
def test_m_at_off_support_matches_boundary_values(solutions, name, gamma):
    # off the support m_at is the exact root; interpolating the real m_breve
    # between the sparse nodes there missed by up to 0.60 (linearly) and
    # 2.1e-3 (in the Chebyshev angle of each tail and gap)
    sol = solutions(name, gamma)
    lam = np.linspace(sol.grid[0], sol.grid[-1], 20001)
    inside = np.zeros(lam.shape, dtype=bool)
    for a, b in sol.support:
        inside |= (lam >= a) & (lam <= b)
    exact = stieltjes.boundary_values(solutions.specs[name], gamma, lam[~inside])
    assert exact.valid.all()
    m = sol.m_at(lam[~inside])
    assert np.all(m.imag == 0.0)
    assert np.array_equal(m, exact.m_breve)


@pytest.mark.parametrize("grid, tol", [
    ([0.5, 1.0, 2.0], 0.1), (np.linspace(0.5, 2.0, 31), 1e-6),
    (np.linspace(0.5, 4.0, 40), 5e-4), (np.linspace(0.02, 2.0, 100), 5e-2),
    # one node, 0.05, below the lower edge: a stencil through it alone was
    # constant up to the first knot in the support, and 0.40 off
    (np.linspace(0.05, 2.0, 40), 2e-3)])
def test_m_at_on_grids_that_start_or_end_inside_the_support(spec_d1, grid, tol):
    # the grid range cuts the support of d1 at gamma = 2, [0.086, 2.914];
    # between the range of a support interval's knots and its edges, and
    # outside the grid range, m_at is the exact root
    sol = stieltjes.boundary_values(spec_d1, 2.0, grid)
    lam = np.linspace(sol.grid[0], sol.grid[-1], 2001)
    exact = stieltjes.boundary_values(spec_d1, 2.0, lam).m_breve
    err = np.abs(sol.m_at(lam) - exact) / np.maximum(1.0, np.abs(exact))
    assert err.max() <= tol
    assert np.array_equal(sol.m_at(lam.reshape(3, -1)),
                          sol.m_at(lam).reshape(3, -1))
    ends = np.array([0.01, 9.0])
    assert np.array_equal(sol.m_at(ends),
                          stieltjes.boundary_values(spec_d1, 2.0, ends).m_breve)


def test_m_at_is_exact_in_a_support_interval_without_knots(spec_d1):
    # no grid point in the support: there is nothing to interpolate from
    sol = stieltjes.boundary_values(spec_d1, 2.0, np.array([0.05, 5.0]))
    assert sol.m_at(5.0) == sol.m_breve[-1]
    lam = np.array([0.07, 1.0])
    assert np.array_equal(sol.m_at(lam),
                          stieltjes.boundary_values(spec_d1, 2.0, lam).m_breve)


def test_m_at_raises_at_nan_infinities_and_nonpositive_lambda(solutions):
    sol = solutions("204040", 2.0)
    late = np.ones(2 * stieltjes.BLOCK + 1)
    late[-1] = np.nan  # in the last block
    for lam in (np.nan, [1.0, np.nan], late, np.inf, -np.inf, [1.0, np.inf],
                0.0, -1.0, [-1e-300, 1.0]):
        with pytest.raises(DomainError):
            sol.m_at(lam)


def test_f_integral_raises_at_nan_and_clamps_infinities(solutions):
    sol = solutions("204040", 2.0)
    late = np.ones(2 * stieltjes.BLOCK + 1)
    late[-1] = np.nan  # in the last block
    for lam in (np.nan, [1.0, np.nan], late):
        with pytest.raises(DomainError):
            sol.cdf(lam)
        with pytest.raises(DomainError):
            sol.f_integral(lam, sol.grid)
    assert sol.cdf(np.inf) == sol.total_mass()
    assert sol.cdf(-np.inf) == 0.0


def test_curve_samples_are_computed_once_per_interval(monkeypatch):
    # the first solve on a (spectrum, gamma) samples the curve once per
    # support interval and a second solve not at all, also next to the hard
    # lower edge of U[0.01, 10] at gamma = 2
    sol = stieltjes.solve_density(U_HARD, 2.0)
    calls = []
    curve = stieltjes._curve
    def spy(spec, gamma, v):
        calls[-1].append(len(v))
        return curve(spec, gamma, v)
    monkeypatch.setattr(stieltjes, "_curve", spy)
    stieltjes._curve_samples.cache_clear()
    for _ in range(2):
        calls.append([])
        assert stieltjes.boundary_values(U_HARD, 2.0, sol.grid).valid.all()
    assert calls == [[stieltjes.PATH_POINTS - 2] * len(sol.support), []]


@pytest.mark.parametrize("gamma", [0.2, 2.0])
def test_one_ulp_inside_an_edge_takes_one_newton_solve(monkeypatch, gamma):
    # there the root is within rounding of the edge and Newton's last step is
    # noise: at gamma = 0.2, one ulp below the top edge of the mixture, the
    # root lands below the axis, and its conjugate is the physical root
    (a, b), = stieltjes.boundary_values(MIXTURE, gamma, [1.0]).support
    lam = np.array([np.nextafter(a, np.inf), np.nextafter(b, 0.0)])
    rounds = []
    newton = stieltjes._newton
    monkeypatch.setattr(stieltjes, "_newton",
                        lambda *args: rounds.append(1) or newton(*args))
    stieltjes._curve_samples.cache_clear()
    sol = stieltjes.boundary_values(MIXTURE, gamma, lam)
    assert len(rounds) == 1
    assert sol.valid.all() and np.all(sol.m_breve.imag >= 0)


def _near_edge_sample(gamma: float):
    """The support [a, b] of U[0.01, 10] at gamma and 8000 lambda in it: 4000
    within 1e-12 to 1e-2 (relative) of a random edge and 4000 uniform."""
    (a, b), = stieltjes.boundary_values(U_HARD, gamma, [1.0]).support
    rng = np.random.default_rng(7)
    rel = 10.0 ** rng.uniform(-12.0, -2.0, 4000)
    near = np.where(rng.random(4000) < 0.5, b * (1.0 - rel), a * (1.0 + rel))
    return a, b, np.unique(np.concatenate([near, rng.uniform(a, b, 4000)]))


@pytest.mark.parametrize("gamma", [87.5, 100.0, 1000.0])
def test_near_edge_sample_has_no_invalid_point(gamma):
    # next to the hard lower edge the residual of x(u) cannot fall below its
    # rounding floor, about gamma * eps / lambda, which is above TOL there
    _, _, lam = _near_edge_sample(gamma)
    sol = stieltjes.boundary_values(U_HARD, gamma, lam)
    assert sol.valid.all() and np.all(sol.m_breve.imag >= 0)


@pytest.mark.parametrize("gamma", [87.5, 100.0, 1000.0])
def test_near_hard_edge_roots_match_40_digits(gamma):
    # 17 points of the sample between 1e-8 and 1e-3 (relative) above the
    # lower edge, where the residual of some roots is above TOL and only the
    # rounding floor accepts them; closer to the edge the error is set by
    # the conditioning, which grows like 1/|x'(u)| (4.7e-9 at 1e-12 above it)
    a, _, lam = _near_edge_sample(gamma)
    lam = lam[(lam >= a * (1.0 + 1e-8)) & (lam <= a * (1.0 + 1e-3))]
    lam = lam[np.linspace(0, len(lam) - 1, 17).astype(int)]
    m = stieltjes.boundary_values(U_HARD, gamma, lam).m_breve
    ref = np.array([oracles.m_breve_mp(U_HARD, gamma, x) for x in lam])
    assert np.all(np.abs(m - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_hard_edge_solves_at_gamma_1e5():
    # there the residual's rounding floor, about gamma * eps / lambda, is
    # above TOL on the whole support
    sol = stieltjes.solve_density(U_HARD, 1e5)
    assert sol.valid.all()
    assert abs(sol.total_mass() - 1.0) <= stieltjes.MASS_TOL


@pytest.mark.parametrize("knots", [1, 3])
def test_m_at_reproduces_few_knots(spec_d1, knots):
    # fewer interior grid points than the stencil: one polynomial through
    # all of them, which passes through every knot
    a, b = oracles.point_mass_edges(2.0)
    grid = a + (b - a) * np.linspace(0.0, 1.0, knots + 2)
    sol = stieltjes.boundary_values(spec_d1, 2.0, grid)
    inner = sol.m_breve[1:-1]
    assert np.max(np.abs(sol.m_at(grid[1:-1]) - inner) / np.abs(inner)) <= 1e-13
    assert sol.m_at(np.linspace(a, b, 1001)).imag.min() >= 0.0


def test_total_mass(solutions):
    # and F's mass on each support interval: H's between the interval's
    # critical points, less the atom at zero on the lowest (exact separation)
    for name in ("d1", "204040", "unif56"):
        spec = solutions.specs[name]
        for gamma in (0.5, 2.0, 10.0, 100.0):
            sol = solutions(name, gamma)
            assert sol.total_mass() == pytest.approx(1.0, abs=1e-12)
            assert sol.mass_at_zero == (1 - gamma if gamma < 1 else 0.0)
            crit, values = stieltjes._critical_points(spec, gamma)
            exact = np.diff(spectrum.cdf(spec, crit).reshape(-1, 2)).ravel()
            exact[0] -= sol.mass_at_zero
            got = np.diff(sol.cdf(values).reshape(-1, 2)).ravel()
            assert np.max(np.abs(got - exact)) <= 1e-12


def test_support_edges_point_mass(solutions):
    sol = solutions("d1", 2.0)
    (lo, hi), = stieltjes.support_edges(sol)
    a, b = oracles.point_mass_edges(2.0)
    assert abs(lo - a) <= 1e-9
    assert abs(hi - b) <= 1e-9


def test_support_edges_gamma_10(solutions):
    sol = solutions("d1", 10.0)
    (lo, hi), = stieltjes.support_edges(sol)
    a, b = oracles.point_mass_edges(10.0)  # (1 +- sqrt(0.1))^2
    assert lo == pytest.approx(0.4675444679663241, abs=1e-9)
    assert hi == pytest.approx(1.7324555320336759, abs=1e-9)
    assert abs(lo - a) <= 1e-9 and abs(hi - b) <= 1e-9


def test_support_width_shrinks_with_gamma(spec_d1):
    widths = []
    for gamma in (2.0, 10.0, 100.0):
        sol = stieltjes.solve_density(spec_d1, gamma, num_points=1200)
        (lo, hi), = sol.support
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2]


def test_support_upper_edge_bound(solutions, spec_204040):
    for gamma in (2.0, 10.0):
        sol = solutions("204040", gamma)
        bound = (1 + gamma ** -0.5) ** 2 * spec_204040.h2
        assert all(hi <= bound * (1 + 1e-6) for _, hi in sol.support)


def test_companion_zero_point_mass(spec_d1):
    val = stieltjes.companion_zero(spec_d1, 0.5)
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gamma", [0.2, 0.5])
def test_companion_zero_matches_eta_limit(spec_204040, spec_unif56, gamma):
    # mu(i*eta) = m_under(i*eta) from solve_mF tends to the companion value
    # at zero; Re mu is off by O((eta/a)^2), with the lower edge a of the
    # support far from zero for these gammas
    eta = 1e-4
    for spec in (spec_204040, spec_unif56):
        m = stieltjes.solve_mF(1j * eta, spec, gamma)
        mu = (m - (gamma - 1.0) / (1j * eta)) / gamma
        val = stieltjes.companion_zero(spec, gamma)
        assert abs(mu.real - val) <= 1e-6 * max(1.0, val)


def test_companion_zero_is_cached_by_solve_density(monkeypatch):
    spec = spectrum.validate(atoms=[(0.3, 2.0), (0.7, 5.0)])
    sol = stieltjes.solve_density(spec, 0.5)
    calls = []
    rising_root = stieltjes._rising_root
    monkeypatch.setattr(stieltjes, "_rising_root",
                        lambda *args: calls.append(1) or rising_root(*args))
    assert stieltjes.companion_zero(spec, 0.5) == sol.m_under_zero
    assert calls == []
    assert stieltjes.companion_zero.__wrapped__(spec, 0.5) == sol.m_under_zero
    assert calls == [1]


@pytest.mark.parametrize("spec", [spectrum.point_mass(1.0), spectrum.validate(
    atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)]), U_HARD])
def test_critical_points_at_gamma_one_start_at_zero(spec):
    # x'(0) = 1 - 1/gamma = 0: the lower critical point is u = 0 itself
    crit, values = stieltjes._critical_points(spec, 1.0)
    assert crit[0] == values[0] == 0.0
    assert not np.signbit(crit[0]) and not np.signbit(values[0])


def test_companion_zero_scaling():
    # H = delta_c scales the root by 1/c
    base = stieltjes.companion_zero(spectrum.point_mass(1.0), 0.25)
    scaled = stieltjes.companion_zero(spectrum.point_mass(2.0), 0.25)
    assert scaled == pytest.approx(base / 2.0, rel=1e-10)
    assert base == pytest.approx(oracles.companion_zero_point_mass(0.25),
                                 rel=1e-10)


def test_companion_zero_mixture_residual(spec_204040):
    val = stieltjes.companion_zero(spec_204040, 0.5)
    taus, ws = spectrum.quadrature_nodes(spec_204040)
    resid = 1.0 / val - np.sum(ws * taus / (1 + taus * val)) / 0.5
    assert abs(resid) <= 1e-12


def test_companion_zero_rejects_gamma_ge_1(spec_d1):
    with pytest.raises(DomainError):
        stieltjes.companion_zero(spec_d1, 1.0)
    with pytest.raises(DomainError):
        stieltjes.companion_zero(spec_d1, 2.0)


@pytest.mark.parametrize("gamma", [0.0, -2.0, np.nan, np.inf])
def test_gamma_outside_domain_is_domain_error(spec_d1, gamma):
    with pytest.raises(DomainError):
        stieltjes.solve_density(spec_d1, gamma)
    with pytest.raises(DomainError):
        stieltjes.boundary_values(spec_d1, gamma, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        stieltjes.solve_mF(1.0 + 1e-3j, spec_d1, gamma)


def test_solution_needs_support():
    with pytest.raises(EmptySupport):
        stieltjes.StieltjesSolution(
            gamma=2.0, grid=np.array([1.0, 2.0]), m_breve=np.array([0j, 0j]),
            support=[], spec=spectrum.point_mass(1.0), valid=np.array([True, True]))


def test_boundary_values_rejects_gamma_one(spec_d1):
    with pytest.raises(GammaOne):
        stieltjes.boundary_values(spec_d1, 1.0, np.array([1.0, 2.0]))


def test_solve_density_rejects_gamma_one(spec_d1):
    with pytest.raises(GammaOne):
        stieltjes.solve_density(spec_d1, 1.0)


def test_boundary_values_rejects_bad_grid(spec_d1):
    with pytest.raises(ValueError):
        stieltjes.boundary_values(spec_d1, 2.0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        stieltjes.boundary_values(spec_d1, 2.0, np.array([]))
    with pytest.raises(ValueError):
        stieltjes.boundary_values(spec_d1, 2.0, np.array([-1.0, 1.0]))
    # nan differences compare false, and +inf is ascending: both are caught
    for bad in ([0.1, np.nan, 1.0], [0.1, 1.0, np.inf]):
        with pytest.raises(ValueError):
            stieltjes.boundary_values(spec_d1, 2.0, np.array(bad))


def test_boundary_imaginary_part_nonnegative(solutions):
    for name in ("d1", "204040", "unif56"):
        for gamma in (0.5, 2.0, 10.0):
            sol = solutions(name, gamma)
            assert float(sol.m_breve.imag.min()) >= 0.0
            assert float(sol.density.min()) >= 0.0


def test_solution_cdf_monotone(solutions):
    sol = solutions("204040", 2.0)
    xs = np.linspace(0, sol.grid[-1], 200)
    fs = sol.cdf(xs)
    assert np.all(np.diff(fs) >= -1e-12)
    assert fs[-1] == pytest.approx(1.0, abs=1e-12)


def test_solve_density_deterministic(spec_d1):
    a = stieltjes.solve_density(spec_d1, 2.0, num_points=900)
    b = stieltjes.solve_density(spec_d1, 2.0, num_points=900)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.m_breve, b.m_breve)
    assert a.support == b.support


def test_clip_to_support(solutions):
    sol = solutions("d1", 2.0)
    (lo, hi), = sol.support
    val, moved = sol.clip_to_support(hi + 1.0)
    assert moved and val == pytest.approx(hi)
    val, moved = sol.clip_to_support(0.5 * (lo + hi))
    assert not moved


@pytest.mark.parametrize("support", [[(1.0, 2.0)],
                                     [(1.0, 2.0), (4.0, 5.0), (7.0, 9.0)]])
def test_clip_to_support_rule(support):
    sol = stieltjes.StieltjesSolution(
        gamma=2.0, grid=np.array([0.5, 10.0]), m_breve=np.zeros(2, complex),
        support=support, spec=spectrum.point_mass(1.0), valid=np.ones(2, dtype=bool))
    edges = np.ravel(support)
    # an exact edge is inside and does not move; neither does a point inside
    inner = np.concatenate([edges, [1.5, np.nextafter(edges[-1], 0)]])
    val, moved = sol.clip_to_support(inner)
    assert np.array_equal(val, inner) and not moved.any()
    # below the lowest and above the highest edge, however far out
    below = [-np.inf, -1e300, 0.0, np.nextafter(1.0, 0)]
    above = [np.nextafter(edges[-1], np.inf), 1e17, 1e300, np.inf]
    val, moved = sol.clip_to_support(below + above)
    assert moved.all()
    assert np.array_equal(val, [edges[0]] * 4 + [edges[-1]] * 4)
    # a gap midpoint goes to the lower edge, one ulp off it to the nearer one
    for lo, hi in zip(edges[1:-1:2], edges[2::2]):
        mid = 0.5 * (lo + hi)
        val, moved = sol.clip_to_support(
            [mid, np.nextafter(mid, 0), np.nextafter(mid, np.inf)])
        assert np.array_equal(val, [lo, lo, hi]) and moved.all()
    val, moved = sol.clip_to_support(1.5)
    assert (type(val), type(moved), val, moved) == (float, bool, 1.5, False)
    val, moved = sol.clip_to_support(np.float64(20.0))
    assert (type(val), type(moved), val, moved) == (float, bool, edges[-1], True)


@st.composite
def mixtures(draw):
    """Random H of up to three atoms and two uniform segments, and a gamma."""
    n_atoms = draw(st.integers(0, 3))
    n_segs = draw(st.integers(0 if n_atoms else 1, 2))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(n_atoms + n_segs)]
    w = [r / sum(raw) for r in raw]
    w[-1] = 1.0 - sum(w[:-1])
    atoms = [(w[i], draw(st.floats(0.2, 10.0))) for i in range(n_atoms)]
    segs = []
    for j in range(n_segs):
        lo = draw(st.floats(0.2, 10.0))
        segs.append((w[n_atoms + j], lo, lo + draw(st.floats(0.05, 5.0))))
    gamma = draw(st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 200.0)))
    return spectrum.validate(atoms=atoms, segments=segs), gamma


@settings(max_examples=25, deadline=None)
@given(mixtures(), st.floats(0.0, 1.0), st.floats(-3.0, 0.5))
def test_inverse_map_properties(case, re_frac, log_im):
    spec, gamma = case
    sol = stieltjes.solve_density(spec, gamma, num_points=1500)
    assert sol.valid.all()
    assert sol.total_mass() == pytest.approx(1.0, abs=1e-5)
    probe = np.linspace(sol.grid[0], sol.grid[-1], 20001)
    assert sol.m_at(probe).imag.min() >= 0.0
    # x(mu(z)) = z for the companion value of solve_mF, with x evaluated
    # exactly (atoms summed, segments through their log antiderivative)
    z = complex(re_frac * 1.2 * sol.grid[-1], 10.0 ** log_im * spec.h2)
    m = stieltjes.solve_mF(z, spec, gamma)
    mu = (m - (gamma - 1.0) / z) / gamma
    x = stieltjes._in_u(np.array([-1.0 / mu]), spec, gamma)[0][0]
    assert abs(x - z) <= 1e-9 * max(1.0, abs(z))


@pytest.mark.parametrize("case", LIMIT_CASES + [("U", 2.0), ("U", 10.0),
                                                ("mixture", 87.5)])
def test_curve_samples_are_real_and_rising(solutions, case):
    # over the Chebyshev points of each critical pair the curve points have
    # x(u) real, and the Chebyshev angle of lambda = x(u) rises strictly
    name, gamma = case
    spec = {"U": U_HARD, "mixture": MIXTURE}.get(name) or solutions.specs[name]
    crit, values = stieltjes._critical_points(spec, gamma)
    n = stieltjes.PATH_POINTS
    for u_a, u_b, a, b in zip(crit[::2], crit[1::2], values[::2], values[1::2]):
        v = u_a + 0.5 * (u_b - u_a) * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))
        u = stieltjes._curve(spec, gamma, v[1:-1])
        x = stieltjes._in_u(u, spec, gamma, order=0)[0]
        assert np.all(u.imag > 0)
        assert np.all(np.abs(x.imag) <= 1e-12 * np.maximum(1.0, np.abs(x)))
        assert np.all(np.diff(stieltjes._angle(x.real, a, b)) > 0)


@pytest.mark.parametrize("gamma", [200.0, 1e3])
def test_hard_edge_at_large_gamma_solves(gamma):
    # the sequential Newton walk lost the root near the lower edge here and
    # raised NoConvergence at lambda ~ 0.00996 and 0.0313
    sol = stieltjes.solve_density(U_HARD, gamma)
    assert sol.valid.all()
    assert abs(sol.total_mass() - 1.0) <= stieltjes.MASS_TOL


def _bisect_fixed_steps(f, neg, pos, start=None):
    """The reference: 100 bisection steps, whatever the brackets and start,
    for an f with the (f, f') signature of _bracketed_newton."""
    neg, pos = np.array(neg, dtype=float), np.array(pos, dtype=float)
    for _ in range(100):
        mid = 0.5 * (neg + pos)
        below = f(mid, np.arange(mid.size))[0] < 0
        neg, pos = np.where(below, mid, neg), np.where(below, pos, mid)
    return 0.5 * (neg + pos)


def _bisection_steps(f, neg, pos):
    """Evaluations per point of bisection until its midpoint rounds to an end."""
    neg, pos = np.array(neg, dtype=float), np.array(pos, dtype=float)
    steps = np.zeros(neg.shape, dtype=int)
    while True:
        mid = 0.5 * (neg + pos)
        i = np.flatnonzero((np.minimum(neg, pos) < mid) & (mid < np.maximum(neg, pos)))
        if not len(i):
            return steps
        steps[i] += 1
        below = f(mid[i], i)[0] < 0
        neg[i], pos[i] = np.where(below, mid[i], neg[i]), np.where(below, pos[i], mid[i])


def _solve_counted(f, neg, pos):
    """_bracketed_newton with every evaluated point recorded; returns the
    roots, the (x, i) of each call and the evaluations per point."""
    calls, count = [], np.zeros(np.size(neg), dtype=int)

    def spy(x, i):
        calls.append((x.copy(), i.copy()))
        count[i] += 1
        return f(x, i)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = stieltjes._bracketed_newton(spy, neg, pos)
    return root, calls, count


@pytest.mark.parametrize("case", LIMIT_CASES)
def test_bisect_stop_matches_fixed_steps(solutions, monkeypatch, case):
    # where _bracketed_newton stops, critical points and edges match 100
    # bisection steps to 16 ulps: for unif56 at gamma = 0.5, x' changes sign
    # 5 or more times within 12 ulps of u* = -2.2747, so any two root finders
    # agree only to about that
    spec = solutions.specs[case[0]]
    crit, values = stieltjes._critical_points.__wrapped__(spec, case[1])
    monkeypatch.setattr(stieltjes, "_bracketed_newton", _bisect_fixed_steps)
    ref_crit, ref_values = stieltjes._critical_points.__wrapped__(spec, case[1])
    assert np.all(np.abs(crit - ref_crit) <= 16 * np.spacing(np.abs(ref_crit)))
    assert np.all(np.abs(values - ref_values)
                  <= 16 * np.spacing(np.abs(ref_values)))


def test_bracketed_newton_never_evaluates_an_end():
    # 1/(1 - x) - c has a pole at the end x = 1, which Newton steps from the
    # left overshoot (from the midpoint at c = 4, onto the pole exactly); the
    # midpoint is taken instead
    c = np.array([1.5, 4.0, 10.0, 1e3, 1e8])
    neg, pos = np.zeros(5), np.ones(5)
    f = lambda x, i: (1.0 / (1.0 - x) - c[i], 1.0 / (1.0 - x) ** 2)
    root, calls, count = _solve_counted(f, neg, pos)
    for x, i in calls:
        assert np.all((neg[i] < x) & (x < pos[i]))
    assert np.all(np.abs(root - (1.0 - 1.0 / c)) <= 4 * np.spacing(1.0))
    assert np.all(count <= 2 * _bisection_steps(f, neg, pos))


def test_bracketed_newton_flat_root():
    # x^3 - c: at c = 0 the root is triple and a Newton step only shrinks x
    # by a third
    c = np.array([2.0, 1e-30, 0.0])
    neg, pos = np.full(3, -1.0), np.full(3, 2.0)
    f = lambda x, i: (x ** 3 - c[i], 3.0 * x ** 2)
    root, calls, count = _solve_counted(f, neg, pos)
    for x, i in calls:
        assert np.all((neg[i] < x) & (x < pos[i]))
    exact = np.cbrt(c)
    assert np.all(np.abs(root[:2] - exact[:2]) <= 2 * np.spacing(exact[:2]))
    assert abs(root[2]) <= 1e-100
    assert np.all(count <= 2 * _bisection_steps(f, neg, pos))
    # f = 0 stops a point, also where f' = 0 leaves no Newton step
    root, _, count = _solve_counted(lambda x, i: (x ** 3, 3.0 * x ** 2), [-1.0], [1.0])
    assert root[0] == 0.0 and count[0] == 1
    # a root of multiplicity 21, which Newton shrinks by 1/21 a step
    f = lambda x, i: ((x - 1.0) ** 21, 21.0 * (x - 1.0) ** 20)
    root, _, count = _solve_counted(f, neg, pos)
    assert np.all(np.abs(root - 1.0) <= 1e-14)
    assert np.all(count <= 2 * _bisection_steps(f, neg, pos))


def test_bracketed_newton_nan_and_empty_brackets():
    f = lambda x, i: (x - 0.25, np.ones(x.shape))
    root, calls, _ = _solve_counted(f, [np.nan, 0.0, 0.0], [1.0, np.nan, 1.0])
    assert np.isnan(root[:2]).all() and root[2] == 0.25
    assert all(np.array_equal(i, [2]) for _, i in calls)
    root, calls, _ = _solve_counted(f, np.zeros(0), np.zeros(0))
    assert root.shape == (0,) and calls == []


def test_real_axis_evaluations_over_limit_cases(solutions, monkeypatch):
    # 2886 evaluations of x when every real root was bisected to the last
    # bit, 744 with the bracketed Newton finder from the midpoints of its
    # brackets (testing its step only after the fall-back to the midpoint
    # took 1364), 516 with seeded starts
    calls, in_u = [], stieltjes._in_u

    def spy(*args, **kwargs):
        calls.append(1)
        return in_u(*args, **kwargs)
    monkeypatch.setattr(stieltjes, "_in_u", spy)
    stieltjes._critical_points.cache_clear()
    stieltjes._curve_samples.cache_clear()
    for name, gamma in LIMIT_CASES:
        stieltjes.solve_density(solutions.specs[name], gamma)
        if gamma < 1:
            stieltjes.companion_zero(solutions.specs[name], gamma)
    assert len(calls) <= 540


def test_real_axis_finder_iterations_over_limit_cases(solutions, monkeypatch):
    # a vectorized finder call waits for its slowest point: from the
    # midpoints of their brackets _curve took up to 28 iterations a call and
    # _rising_root up to 17
    iterations, finder = {}, stieltjes._bracketed_newton

    def spy(f, *args):
        n = []
        root = finder(lambda x, i: n.append(1) or f(x, i), *args)
        iterations.setdefault(f.__qualname__.split(".")[0], []).append(len(n))
        return root
    monkeypatch.setattr(stieltjes, "_bracketed_newton", spy)
    stieltjes._critical_points.cache_clear()
    stieltjes._curve_samples.cache_clear()
    for name, gamma in LIMIT_CASES:
        stieltjes.solve_density(solutions.specs[name], gamma)
        if gamma < 1:
            stieltjes.companion_zero(solutions.specs[name], gamma)
    assert max(iterations["_curve"]) <= 10
    assert max(iterations["_rising_root"]) <= 13


def test_real_axis_solves_warn_nowhere(solutions, spec_d1):
    # includes grids whose first point rounds to the lower edge in theta
    stieltjes._critical_points.cache_clear()
    a, b = oracles.point_mass_edges(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, gamma in LIMIT_CASES:
            stieltjes.solve_density(solutions.specs[name], gamma)
            if gamma < 1:
                stieltjes.companion_zero(solutions.specs[name], gamma)
        for knots in (1, 3):
            stieltjes.boundary_values(spec_d1, 2.0, a + (b - a)
                                      * np.linspace(0.0, 1.0, knots + 2))
        for gamma in (200.0, 1e3):
            stieltjes.solve_density(U_HARD, gamma)


@pytest.mark.parametrize("name", ["d1", "unif56"])
def test_solve_density_warns_at_doubling_cap(solutions, name):
    # near gamma = 1 the lower edge approaches 0; at 1 +- 1e-4 the last
    # doubling still leaves a halving mass gap of about 9e-6
    spec = solutions.specs[name]
    for gamma in (1.0 - 1e-4, 1.0 + 1e-4):
        with pytest.warns(RuntimeWarning, match="halving gap"):
            stieltjes.solve_density(spec, gamma)
    for gamma in (1.0 - 1e-3, 1.0 + 1e-3):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = stieltjes.solve_density(spec, gamma)
        assert abs(sol.total_mass() - 1.0) <= stieltjes.MASS_TOL


@pytest.mark.parametrize("atoms, segments, gamma", [
    ([(0.6086956521739131, 9.65625)],
     [(0.043478260869565216, 6.703125, 8.875),
      (0.34782608695652173, 9.625, 12.625)], 146.0),
    ([(0.0986, 2.0), (0.4507, 6.046875), (0.4507, 8.703125)], [], 27.5),
    ([(0.6415094339622642, 1.0), (0.22012578616352202, 5.7734375)],
     [(0.1383647798742138, 4.35546875, 5.46875)], 177.0),
    ([(0.9697, 1.0)], [(0.0303, 0.5, 3.5)], 155.0),
    ([(0.47058823529411764, 4.0)], [(0.05882352941176472, 0.25, 3.25),
                                    (0.47058823529411764, 0.5, 1.5)], 81.0),
])
def test_near_split_cuts_the_grid(atoms, segments, gamma):
    # the curve of physical roots passes close to a branch point (a sharp
    # minimum of Im u, in a gap of supp H or over a thin segment) or to the
    # end of a segment, so the density changes over ~1e-4 there; doubling
    # the grid of the whole support interval left halving gaps of 3.7e-7,
    # 3.1e-6, 1.9e-7, 1.1e-7 and 1.7e-7 after 4 doublings
    spec = spectrum.validate(atoms=atoms, segments=segments)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = stieltjes.solve_density(spec, gamma, num_points=1500)
    assert sol.cuts and set(sol.cuts) <= set(stieltjes._near_splits(spec, gamma))
    assert set(sol.cuts) <= set(sol.grid) and len(sol.grid) < 15000
    # with the end terms at the cuts the pieces converge exponentially again
    assert abs(sol.total_mass() - 1.0) <= 1e-9


def test_interval_mass_check_catches_a_passing_halving_gap():
    # on the first 1547-node grid every halving gap is below MASS_TOL (3.4e-8
    # at most) while the mass is 1 + 1.19e-5: the one support interval
    # misses its exact mass and is cut at its two near splits
    spec = spectrum.validate(
        atoms=[(0.40782329984729754, 0.45249332838548273),
               (0.05892383706420279, 1.1)],
        segments=[(0.5332528630884996, 6.458681010021606, 8.508260824162713)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = stieltjes.solve_density(spec, 1.1, num_points=1500)
    assert len(sol.support) == 1 and len(sol.cuts) == 2 and len(sol.grid) > 1547
    assert abs(sol.total_mass() - 1.0) <= 1e-9


def test_density_and_mass_at_zero_follow_the_fields(solutions):
    sol = solutions("d1", 0.5)
    half = dataclasses.replace(sol, grid=sol.grid[::2], m_breve=sol.m_breve[::2],
                               valid=sol.valid[::2])
    assert np.array_equal(half.density, sol.density[::2])
    assert half.mass_at_zero == sol.mass_at_zero == 0.5
    assert dataclasses.replace(sol, gamma=2.0).mass_at_zero == 0.0


def test_solve_mF_raises_with_its_residual(spec_d1, monkeypatch):
    # a Newton solve that leaves its seed unsolved
    monkeypatch.setattr(stieltjes, "_newton",
                        lambda spec, gamma, z, u: (1.5 * u, np.zeros(u.shape, bool)))
    with pytest.raises(NoConvergence) as info:
        stieltjes.solve_mF(np.array([2.0 + 0.1j, 3.0 + 0.1j]), spec_d1, 2.0)
    assert isinstance(info.value.residual, float)
    assert info.value.residual > 10 * stieltjes.TOL


def test_solve_density_raises_on_an_invalid_point(spec_d1, monkeypatch):
    real_roots = stieltjes._real_roots

    def one_missed(spec, gamma, lam):
        u, ok = real_roots(spec, gamma, lam)
        ok[len(ok) // 2] = False
        return u, ok
    monkeypatch.setattr(stieltjes, "_real_roots", one_missed)
    with pytest.raises(NoConvergence, match="missed its residual"):
        stieltjes.solve_density(spec_d1, 2.0, num_points=300)

def test_f_integral_takes_end_terms_at_cuts():
    # density t^(1/2) (1 - t)^(1/2) (1 + t), t = lambda - 1, on [1, 2]: mass
    # 3 pi/16; Chebyshev grids on [1, 1.4] and [1.4, 2], cut at 1.4, where
    # the density does not vanish: without its end terms the rule is 4.3e-6 off
    theta = np.linspace(0.0, np.pi, 257)
    grid = np.unique(np.concatenate([1.0 + 0.2 * (1.0 - np.cos(theta)),
                                     1.4 + 0.3 * (1.0 - np.cos(theta))]))
    grid = np.concatenate([[0.5], grid, [2.5]])
    t = np.clip(grid - 1.0, 0.0, 1.0)
    density = np.sqrt(t * (1.0 - t)) * (1.0 + t)
    sol = stieltjes.StieltjesSolution(
        gamma=2.0, grid=grid, m_breve=1j * np.pi * density, support=[(1.0, 2.0)],
        spec=spectrum.point_mass(1.0), valid=np.ones(grid.shape, dtype=bool),
        cuts=(1.4,))
    assert abs(sol.total_mass() - 3.0 * np.pi / 16.0) <= 1e-9


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_atoms_one_ulp_apart_leave_no_gap(gamma):
    # no float lies between the atoms, so the gap's midpoint would be an atom
    spec = spectrum.validate(atoms=[(0.5, np.nextafter(10.0, 0.0)), (0.5, 10.0)])
    sol = stieltjes.solve_density(spec, gamma, num_points=1500)
    assert len(sol.support) == 1 and sol.valid.all()
    assert sol.total_mass() == pytest.approx(1.0, abs=1e-12)
