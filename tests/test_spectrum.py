from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshrink import spectrum
from mpshrink.errors import MassNotOne, NonPositiveSupport

MIXTURE = spectrum.validate(atoms=[(0.27, 7.12)], segments=[(0.73, 2.14, 5.15)])


def test_validate_three_atoms():
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    assert s.h1 == 1.0 and s.h2 == 10.0
    assert s.atoms == ((0.2, 1.0), (0.4, 3.0), (0.4, 10.0))


def test_validate_single_atom():
    s = spectrum.validate(atoms=[(1.0, 1.0)])
    assert s.h1 == s.h2 == 1.0


def test_validate_negative_location_rejected():
    with pytest.raises(NonPositiveSupport):
        spectrum.validate(atoms=[(0.5, 1.0), (0.5, -2.0)])


def test_validate_mass_must_be_one():
    with pytest.raises(MassNotOne):
        spectrum.validate(atoms=[(0.5, 1.0), (0.4, 2.0)])


def test_validate_sorts_and_merges():
    s = spectrum.validate(atoms=[(0.25, 5.0), (0.5, 1.0), (0.25, 5.0)])
    assert s.atoms == ((0.5, 1.0), (0.5, 5.0))


def test_validate_rejects_bad_segment():
    with pytest.raises(ValueError):
        spectrum.validate(segments=[(1.0, 6.0, 5.0)])
    with pytest.raises(NonPositiveSupport):
        spectrum.validate(segments=[(1.0, -1.0, 5.0)])


def test_integrate_point_mass_identity():
    s = spectrum.point_mass(1.0)
    assert spectrum.integrate(s, lambda t: t) == pytest.approx(1.0, abs=1e-15)


def test_integrate_uniform_mean():
    s = spectrum.uniform(5.0, 6.0)
    assert spectrum.integrate(s, lambda t: t) == pytest.approx(5.5, abs=1e-13)


def test_integrate_mixture_mean():
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    # 0.2*1 + 0.4*3 + 0.4*10
    assert spectrum.integrate(s, lambda t: t) == pytest.approx(5.4, abs=1e-13)


def test_integrate_complex_valued():
    s = spectrum.uniform(5.0, 6.0)
    val = spectrum.integrate(s, lambda t: 1.0 / (t - 2j))
    assert isinstance(val, complex)
    assert val.imag > 0


def test_m_H_at_zero_values():
    assert spectrum.m_H_at_zero(spectrum.point_mass(1.0)) == pytest.approx(1.0)
    assert spectrum.m_H_at_zero(spectrum.point_mass(2.0)) == pytest.approx(0.5)
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    assert spectrum.m_H_at_zero(s) == pytest.approx(0.2 + 0.4 / 3 + 0.04,
                                                    abs=1e-13)


@pytest.mark.parametrize("lo", [0.01, 0.003])
def test_m_H_at_zero_closed_form(lo):
    # 64 Gauss-Legendre nodes missed these by 2.4e-4 and 7.8e-3 relative
    s = spectrum.uniform(lo, 10.0)
    exact = np.log(10.0 / lo) / (10.0 - lo)
    assert abs(spectrum.m_H_at_zero(s) - exact) <= 1e-14 * exact
    assert spectrum.moment(s, -1) == spectrum.m_H_at_zero(s)


def _transform_by_quad(s, z):
    """S(z), S'(z), S''(z) of H: the integrals of p!/(t - z)^(p+1) dH(t),
    atoms summed and segments integrated by scipy's adaptive quadrature."""
    from scipy.integrate import quad

    out = []
    for p, fact in enumerate((1.0, 1.0, 2.0)):
        def f(t):
            return fact / (t - z) ** (p + 1)
        val = sum(w * f(t) for w, t in s.atoms)
        for w, lo, hi in s.segments:
            # a break at Re z, where the integrand peaks for small Im z
            near = [z.real] if lo < z.real < hi else None
            parts = [quad(lambda t: part(f(t)), lo, hi, epsabs=0.0,
                          epsrel=1e-12, limit=200, points=near)[0]
                     for part in ((np.real, np.imag) if np.imag(z) else
                                  (np.real,))]
            val += w / (hi - lo) * complex(*parts)
        out.append(val)
    return out


# quad warns where the cancellation across a peak keeps it from proving
# 1e-12; its results are still within 2e-12 of 40-digit values there
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("name,real_points", [
    ("204040", [-1.0, 0.5, 2.0, 5.0, 12.0]),
    ("unif56", [-1.0, 0.5, 4.0, 7.0]),
    ("mixture", [-1.0, 1.0, 6.0, 8.0])])
def test_stieltjes_h_matches_quadrature(name, real_points):
    s = {"204040": spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0),
                                            (0.4, 10.0)]),
         "unif56": spectrum.uniform(5.0, 6.0), "mixture": MIXTURE}[name]
    complex_points = np.array([5.5 + 0.3j, 2.2 + 1e-2j, 3.0 + 0.05j,
                               -1.0 + 2.0j, 12.0 + 0.5j, 7.0 - 0.2j])
    got = spectrum._stieltjes_h(s, complex_points)
    for i, z in enumerate(complex_points):
        for val, ref in zip(got, _transform_by_quad(s, z)):
            assert abs(val[i] - ref) <= 1e-11 * abs(ref)
    # a real s off supp H gives real values
    got = spectrum._stieltjes_h(s, np.array(real_points))
    assert all(not np.iscomplexobj(val) for val in got)
    for i, x in enumerate(real_points):
        for val, ref in zip(got, _transform_by_quad(s, x)):
            assert ref.imag == 0.0
            assert abs(val[i] - ref.real) <= 1e-11 * abs(ref)


def test_population_eigenvalues_point_mass():
    s = spectrum.point_mass(1.0)
    assert list(spectrum.population_eigenvalues(s, 3)) == [1.0, 1.0, 1.0]


def test_population_eigenvalues_mixture():
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    assert list(spectrum.population_eigenvalues(s, 5)) == [1, 3, 3, 10, 10]


def test_population_eigenvalues_uniform():
    s = spectrum.uniform(5.0, 6.0)
    assert list(spectrum.population_eigenvalues(s, 2)) == [5.25, 5.75]


def test_quantile_at_atoms_and_plateau():
    # H = 1/2 delta(1) + 1/2 delta(3) is flat at 1/2 on [1, 3): the smallest
    # x with H(x) >= 1/2 is the atom at 1
    s = spectrum.validate(atoms=[(0.5, 1.0), (0.5, 3.0)])
    assert spectrum.quantile(s, 0.5) == 1.0
    assert list(spectrum.quantile(s, np.array([0.25, 0.5, 0.75]))) == [1, 1, 3]
    assert list(spectrum.population_eigenvalues(s, 2)) == [1.0, 3.0]
    # weights may sum to 1 - 1e-12: above their sum, the top of the support
    short = spectrum.validate(atoms=[(0.5, 1.0)], segments=[(0.5 - 1e-13, 2, 3)])
    assert spectrum.quantile(short, 1.0 - 1e-14) == 3.0


def test_esd_kolmogorov_distance():
    # atomic H whose weights align with the N-quantile grid
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    for N in (5, 10, 50, 200):
        eigs = spectrum.population_eigenvalues(s, N)
        xs = np.unique(np.concatenate([eigs, [0.5, 2.0, 5.0, 11.0]]))
        emp = np.searchsorted(np.sort(eigs), xs, side="right") / N
        pop = np.array([spectrum.cdf(s, x) for x in xs])
        assert np.max(np.abs(emp - pop)) <= 1.0 / N + 1e-12


def test_cdf_and_quantile_roundtrip():
    s = spectrum.validate(atoms=[(0.3, 2.0)], segments=[(0.7, 4.0, 8.0)])
    for q in (0.1, 0.3, 0.5, 0.9):
        x = spectrum.quantile(s, q)
        assert spectrum.cdf(s, x) >= q - 1e-12


def test_json_roundtrip():
    s = spectrum.validate(atoms=[(0.25, 1.5)], segments=[(0.75, 5.0, 6.0)])
    assert spectrum.from_json(s.to_json()) == s


@st.composite
def spectra(draw):
    n_atoms = draw(st.integers(min_value=1, max_value=4))
    locs = draw(st.lists(st.floats(0.1, 50.0), min_size=n_atoms,
                         max_size=n_atoms, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n_atoms,
                        max_size=n_atoms))
    total = sum(raw)
    atoms = [(w / total, loc) for w, loc in zip(raw, locs)]
    return spectrum.validate(atoms=atoms)


@settings(max_examples=25, deadline=None)
@given(spectra())
def test_total_mass_is_one(s):
    assert spectrum.integrate(s, lambda t: np.ones_like(t)) == pytest.approx(
        1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(spectra(), st.floats(-3, 3), st.floats(-3, 3))
def test_integrate_linear(s, alpha, beta):
    f = lambda t: np.sin(t)
    g = lambda t: t ** 2
    combo = spectrum.integrate(s, lambda t: alpha * f(t) + beta * g(t))
    split = alpha * spectrum.integrate(s, f) + beta * spectrum.integrate(s, g)
    assert combo == pytest.approx(split, abs=1e-12 * (1 + abs(split)))
