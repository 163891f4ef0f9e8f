from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mpshrink import spectrum
from mpshrink.errors import DomainError, MassNotOne, NonPositiveSupport

MIXTURE = spectrum.validate(atoms=[(0.27, 7.12)], segments=[(0.73, 2.14, 5.15)])
# 400 atoms at the quantiles of U[0.01, 10]
H_400 = spectrum.validate(atoms=[
    (1 / 400, t) for t in spectrum.population_eigenvalues(
        spectrum.uniform(0.01, 10.0), 400)])


def test_validate_three_atoms():
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    assert s.h1 == 1.0 and s.h2 == 10.0
    assert s.atoms == ((0.2, 1.0), (0.4, 3.0), (0.4, 10.0))


def test_validate_single_atom():
    s = spectrum.validate(atoms=[(1.0, 1.0)])
    assert s.h1 == s.h2 == 1.0


def test_h1_and_h2_are_derived_and_read_only():
    s = spectrum.PopulationSpectrum(atoms=((0.5, 2.0),), segments=((0.5, 1.0, 3.0),))
    assert [f.name for f in dataclasses.fields(s)] == ["atoms", "segments"]
    assert (s.h1, s.h2) == (1.0, 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.h1 = 0.5


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


@pytest.mark.parametrize("atoms, segments", [
    ([(np.nan, 1.0)], []), ([(0.5, 1.0), (np.nan, 2.0)], []),
    ([(0.5, 1.0)], [(np.nan, 2.0, 3.0)]), ([(np.inf, 1.0)], [])])
def test_validate_rejects_a_weight_that_is_not_finite(atoms, segments):
    # a NaN weight makes the mass check compare false
    with pytest.raises(MassNotOne):
        spectrum.validate(atoms=atoms, segments=segments)


@pytest.mark.parametrize("atoms, segments", [
    ([(1.0, np.nan)], []), ([(1.0, np.inf)], []), ([], [(1.0, np.nan, 2.0)]),
    ([], [(1.0, 1.0, np.nan)]), ([], [(1.0, 1.0, np.inf)])])
def test_validate_rejects_a_location_that_is_not_finite(atoms, segments):
    with pytest.raises(ValueError, match="not finite|finite ends"):
        spectrum.validate(atoms=atoms, segments=segments)


def test_integrate_point_mass_identity():
    s = spectrum.point_mass(1.0)
    assert spectrum.moment(s, 1) == pytest.approx(1.0, abs=1e-15)


def test_integrate_uniform_mean():
    s = spectrum.uniform(5.0, 6.0)
    assert spectrum.moment(s, 1) == pytest.approx(5.5, abs=1e-13)


def test_integrate_mixture_mean():
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    # 0.2*1 + 0.4*3 + 0.4*10
    assert spectrum.moment(s, 1) == pytest.approx(5.4, abs=1e-13)


def test_integrate_complex_valued():
    s = spectrum.uniform(5.0, 6.0)
    # integral of 1/(t - 2i) against H, through S(s) at s = 2i
    val = spectrum._stieltjes_h(s, np.array([2j]), order=0)[0][0]
    assert isinstance(val, complex)
    assert val.imag > 0


def test_m_H_at_zero_values():
    assert spectrum.moment(spectrum.point_mass(1.0), -1) == pytest.approx(1.0)
    assert spectrum.moment(spectrum.point_mass(2.0), -1) == pytest.approx(0.5)
    s = spectrum.validate(atoms=[(0.2, 1.0), (0.4, 3.0), (0.4, 10.0)])
    assert spectrum.moment(s, -1) == pytest.approx(0.2 + 0.4 / 3 + 0.04,
                                                   abs=1e-13)


@pytest.mark.parametrize("lo", [0.01, 0.003])
def test_m_H_at_zero_closed_form(lo):
    # 64 Gauss-Legendre nodes missed these by 2.4e-4 and 7.8e-3 relative
    s = spectrum.uniform(lo, 10.0)
    exact = np.log(10.0 / lo) / (10.0 - lo)
    assert abs(spectrum.moment(s, -1) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("s", [spectrum.uniform(0.01, 10.0), MIXTURE,
                               spectrum.uniform(5.0, 5.0 + 1e-9)])
@pytest.mark.parametrize("k", [-3, -2, 1, 2, 5])
def test_moment_closed_form(s, k):
    # the exact rational value of the moment of the stored floats; 64
    # Gauss-Legendre nodes missed k = -2 on U[0.01, 10] by 6.8e-3 relative,
    # and (hi^(k+1) - lo^(k+1)) / ((k + 1)(hi - lo)) as written misses the
    # narrow segment by up to 8.6e-8
    from fractions import Fraction as F

    exact = sum(F(w) * F(t) ** k for w, t in s.atoms) + sum(
        F(w) * (F(hi) ** (k + 1) - F(lo) ** (k + 1)) / ((k + 1) * (F(hi) - F(lo)))
        for w, lo, hi in s.segments)
    assert abs(F(spectrum.moment(s, k)) - exact) <= F(1e-13) * abs(exact)


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


def test_stieltjes_h_third_derivative():
    # an atom w at t gives S^(3) = 3! w / (t - s)^4; for a segment S^(3) is
    # the derivative of S^(2), here by a central difference
    s = np.array([-1.0, 0.5, 1.9, 2.1, 5.0])
    got = spectrum._stieltjes_h(spectrum.point_mass(2.0), s, order=3)[3]
    assert np.max(np.abs(got - 6.0 / (2.0 - s) ** 4) * (2.0 - s) ** 4) <= 1e-14
    u56, s, h = spectrum.uniform(5.0, 6.0), np.array([-1.0, 0.5, 4.0, 7.0]), 1e-4
    second = [spectrum._stieltjes_h(u56, s + d, order=2)[2] for d in (h, -h)]
    got = spectrum._stieltjes_h(u56, s, order=3)[3]
    assert np.max(np.abs(got - (second[0] - second[1]) / (2 * h)) / np.abs(got)) \
        <= 1e-6


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


def test_cdf_raises_at_nan_and_takes_infinities():
    for x in (np.nan, [2.0, np.nan]):
        with pytest.raises(DomainError):
            spectrum.cdf(MIXTURE, x)
    assert spectrum.cdf(MIXTURE, [-np.inf, np.inf]).tolist() == [0.0, 1.0]


def test_json_roundtrip():
    s = spectrum.validate(atoms=[(0.25, 1.5)], segments=[(0.75, 5.0, 6.0)])
    assert spectrum.from_json(json.loads(s.to_json())) == s
    with pytest.raises(TypeError):
        spectrum.from_json([[0.25, 1.5]])
    # a misspelt key would read as an empty list of atoms or segments
    for doc in ({"atom": [[1.0, 1.0]]},
                {"atoms": [[1.0, 1.0]], "segment": [[1.0, 5.0, 6.0]]}):
        with pytest.raises(TypeError):
            spectrum.from_json(doc)
    # a number as text, a boolean or a nested list is not a number
    for atom in (["0.25", 1.5], [0.25, True], [0.25, [1.5]]):
        with pytest.raises(TypeError):
            spectrum.from_json({"atoms": [atom, [0.75, 2.0]]})
    with pytest.raises(TypeError):
        spectrum.from_json({"segments": [[1.0, 5.0, "6"]]})


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
    assert spectrum.moment(s, 0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec", [H_400, spectrum.uniform(5.0, 6.0), MIXTURE])
@pytest.mark.parametrize("n", [1, 127, 3000])
def test_stieltjes_h_columns_match_the_reference(spec, n):
    # the columns built once give the same bits as the formula on the tuples
    rng = np.random.default_rng(n)
    s = rng.uniform(-2.0, 12.0, n) + 1j * rng.uniform(0.0, 1.0, n)
    for points in (s, s.real[(s.real < spec.h1) | (s.real > spec.h2)]):
        for upto in (np.inf, 5.5, 7.12):
            for order in (0, 2):
                got = spectrum._stieltjes_h(spec, points, upto, order)
                ref = oracles.stieltjes_h_reference(spec, points, upto, order)
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))


class _CountedTuple(tuple):
    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_hash_is_computed_once_per_spectrum():
    atoms = _CountedTuple(((0.5, 1.0), (0.5, 2.0)))
    spec = spectrum.PopulationSpectrum(atoms=atoms, segments=())
    for k in (1, 2, 2, 3):
        hash(spec), spectrum.moment(spec, k)
    assert _CountedTuple.hashes == 1


def test_equal_spectra_compare_and_hash_equal():
    a = spectrum.validate(atoms=[(0.3, 2.0)], segments=[(0.7, 1.0, 4.0)])
    b = spectrum.validate(segments=[(0.7, 1.0, 4.0)], atoms=[(0.3, 2.0)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != spectrum.validate(atoms=[(0.3, 2.5)], segments=[(0.7, 1.0, 4.0)])
    assert spectrum.moment(a, 7) == spectrum.moment(b, 7)


def test_pickle_round_trip_keeps_the_columns():
    for spec in (MIXTURE, H_400):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert all(np.array_equal(c, d) for c, d in zip(back.columns, spec.columns))
        s = np.array([0.5 + 0.5j, 11.0])
        assert all(np.array_equal(g, r) for g, r in zip(
            spectrum._stieltjes_h(back, s), spectrum._stieltjes_h(spec, s)))


def test_validate_drops_zero_weights():
    # a zero weight is dropped before its location is checked
    s = spectrum.validate(atoms=[(0.0, -1.0), (1.0, 3.0)],
                          segments=[(0.0, 5.0, 6.0)])
    assert s.atoms == ((1.0, 3.0),) and s.segments == ()
    assert s.h1 == s.h2 == 3.0


@pytest.mark.parametrize("atoms, segments, match", [
    ([(-0.5, 1.0), (1.5, 2.0)], [], "negative atom weight"),
    ([(1.5, 2.0)], [(-0.5, 1.0, 2.0)], "negative segment weight"),
    ([], [], "empty spectrum"),
    ([(0.0, 1.0)], [(0.0, 2.0, 3.0)], "empty spectrum"),
])
def test_validate_rejects_negative_weights_and_empty_spectra(atoms, segments,
                                                             match):
    with pytest.raises(MassNotOne, match=match):
        spectrum.validate(atoms=atoms, segments=segments)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5, np.array([0.5, 1.5]), np.nan])
def test_quantile_rejects_q_outside_the_open_unit_interval(q):
    with pytest.raises(ValueError, match="q in"):
        spectrum.quantile(MIXTURE, q)


def test_population_eigenvalues_needs_a_positive_size():
    with pytest.raises(ValueError, match="N >= 1"):
        spectrum.population_eigenvalues(MIXTURE, 0)
