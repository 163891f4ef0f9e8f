from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpshrink import spectrum
from mpshrink.errors import MassNotOne, NonPositiveSupport


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
