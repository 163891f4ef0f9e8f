from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import SOLUTION_POINTS, interior_points
from mpshrink import spectrum, stieltjes
from mpshrink.errors import DomainError, GammaOne


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
            gap = stieltjes._exact_gap(z, m, spec, gamma)
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
        gap = stieltjes._exact_gap(z, m, spec, gamma)
        assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(m)))
    m = stieltjes.solve_mF(z, spec_d1, gamma)
    assert np.all(np.abs(m - oracles.point_mass_m(z, gamma))
                  <= 1e-13 * np.maximum(1.0, np.abs(m)))
    # the oracle against the root of its quadratic in 40-digit arithmetic
    exact = 1.0011013116622095 + 1.0023042674216177e-06j
    assert abs(oracles.point_mass_m(0.001 + 1e-6j, 1e4) - exact) <= 1e-15
    m = stieltjes.solve_mF(0.001 + 1e-6j, spec_d1, 1e4)
    assert abs(m - oracles.point_mass_m(0.001 + 1e-6j, 1e4)) <= 1e-14


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


@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0, 100.0])
@pytest.mark.parametrize("name", ["d1", "204040", "unif56"])
def test_m_at_matches_boundary_values(solutions, name, gamma):
    # between grid points m_at interpolates; the reference is the exact
    # boundary value at the same lambda.  The support edges are grid nodes,
    # where m_at continues the polynomials of the nearest knots to theta = 0
    # and pi and must land on the exact edge value.
    sol = solutions(name, gamma)
    rng = np.random.default_rng(23)
    for a, b in sol.support:
        lam = np.sort(rng.uniform(a, b, 200))
        exact = stieltjes.boundary_values(solutions.specs[name], gamma, lam)
        assert exact.valid.all()
        err = np.abs(sol.m_at(lam) - exact.m_breve) / np.abs(exact.m_breve)
        assert err.max() <= 1e-8
    edges = np.ravel(sol.support)
    i = np.searchsorted(sol.grid, edges)
    assert np.array_equal(sol.grid[i], edges)
    err = np.abs(sol.m_at(edges) - sol.m_breve[i]) / np.abs(sol.m_breve[i])
    assert err.max() <= 1e-9


def test_monomial_recovers_polynomials():
    # divided differences on 6 unevenly spaced points per row give back the
    # coefficients of a degree-5 polynomial, row by row
    rng = np.random.default_rng(5)
    coef = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    t = np.sort(rng.uniform(-2.0, 3.0, (4, 6)), axis=1)
    v = sum(coef[i][:, None] * t ** i for i in range(6))
    assert np.max(np.abs(stieltjes._monomial(t, v) - coef)) <= 1e-10


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
    for name in ("d1", "204040", "unif56"):
        for gamma in (0.5, 2.0, 10.0):
            sol = solutions(name, gamma)
            assert sol.total_mass() == pytest.approx(1.0, abs=1e-12)
            assert sol.mass_at_zero == (1 - gamma if gamma < 1 else 0.0)


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
    # mu(i*eta) = m_under(i*eta) from the fixed-point solver tends to the
    # companion value at zero; Re mu is off by O((eta/a)^2), with the lower
    # edge a of the support far from zero for these gammas
    eta = 1e-4
    for spec in (spec_204040, spec_unif56):
        m = stieltjes.solve_mF(1j * eta, spec, gamma)
        mu = (m - (gamma - 1.0) / (1j * eta)) / gamma
        val = stieltjes.companion_zero(spec, gamma)
        assert abs(mu.real - val) <= 1e-6 * max(1.0, val)


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


def test_boundary_values_rejects_gamma_one(spec_d1):
    with pytest.raises(GammaOne):
        stieltjes.boundary_values(spec_d1, 1.0, np.array([1.0, 2.0]))


def test_boundary_values_rejects_bad_grid(spec_d1):
    with pytest.raises(ValueError):
        stieltjes.boundary_values(spec_d1, 2.0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        stieltjes.boundary_values(spec_d1, 2.0, np.array([]))
    with pytest.raises(ValueError):
        stieltjes.boundary_values(spec_d1, 2.0, np.array([-1.0, 1.0]))


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
