from __future__ import annotations

import numpy as np
import pytest

import oracles
from mpshrink import functionals as fn
from mpshrink import spectrum, stieltjes
from mpshrink.errors import DegenerateDenominator, DomainError


def _on_quadrature(j):
    # tau^j as a user weight: no closed form, so theta_g sums its GL panels
    return fn.WeightFunction(lambda t: t ** float(j))


def test_flat_weight_reduces_to_m(spec_204040):
    # same quadrature path: m solves the equation, so theta_g(flat) gives m back
    for z in (1.0 + 1e-3j, 6.0 + 0.1j):
        m = stieltjes.solve_mF(z, spec_204040, 2.0)
        val = fn.theta_g(z, fn.flat(), spec_204040, 2.0, m=m)
        assert abs(val - m) <= 8 * np.spacing(abs(m))


def test_theta_1_closed_form_vs_quadrature(spec_d1):
    z = 1.0 + 1e-3j
    closed = fn.theta_k(z, 1, spec_d1, 2.0)
    quad = fn.theta_g(z, _on_quadrature(1), spec_d1, 2.0)
    assert abs(closed - quad) <= 1e-9
    # independent algebra for the point mass
    assert abs(closed - oracles.point_mass_theta_g(z, 1.0, 2.0)) <= 1e-9


def test_theta_1_mixture(spec_204040):
    z = 1.0 + 1e-3j
    closed = fn.theta_k(z, 1, spec_204040, 2.0)
    quad = fn.theta_g(z, _on_quadrature(1), spec_204040, 2.0)
    assert abs(closed - quad) <= 1e-9


def test_theta_1_large_z_decay(spec_204040):
    z = 1e6j
    mu1 = spectrum.moment(spec_204040, 1)
    assert abs(fn.theta_k(z, 1, spec_204040, 2.0)) <= 2 * mu1 / abs(z)


def test_theta_1_internal_identity(spec_204040):
    # (1 + z*m) * (1 + theta_1/gamma) = theta_1
    for gamma in (0.5, 2.0):
        z = 1.5 + 1e-3j
        m = stieltjes.solve_mF(z, spec_204040, gamma)
        t1 = fn.theta_k(z, 1, spec_204040, gamma, m=m)
        assert abs(1 + z * m - t1 / (1 + t1 / gamma)) <= 1e-10


def test_theta_1_degenerate_denominator(spec_d1):
    z = 1.0 + 1e-3j
    with pytest.raises(DegenerateDenominator):
        fn.theta_k(z, 1, spec_d1, 2.0, m=(2.0 - 1.0) / z)


def test_theta_k_base_case(spec_204040):
    # the Horner form at k = 1, (1 + z*m)/kappa, against the closed form
    # gamma^2/(gamma - 1 - z*m) - gamma
    z = 1.0 + 1e-2j
    m = stieltjes.solve_mF(z, spec_204040, 2.0)
    closed = 2.0 ** 2 / (2.0 - 1.0 - z * m) - 2.0
    assert abs(fn.theta_k(z, 1, spec_204040, 2.0, m=m) - closed) \
        <= 1e-14 * abs(closed)


def test_theta_k_vs_quadrature_point_mass(spec_d1):
    z = 1.0 + 1e-2j
    rec = fn.theta_k(z, 2, spec_d1, 2.0)
    quad = fn.theta_g(z, _on_quadrature(2), spec_d1, 2.0)
    assert abs(rec - quad) <= 1e-8


def test_theta_k_vs_quadrature_mixture(spec_204040):
    z = 2.0 + 1e-2j
    rec = fn.theta_k(z, 3, spec_204040, 2.0)
    quad = fn.theta_g(z, _on_quadrature(3), spec_204040, 2.0)
    assert abs(rec - quad) <= 1e-8


def test_theta_k_grid_consistency(spec_204040, spec_unif56):
    zs = np.linspace(0.3, 18.0, 20) + 1j * np.logspace(-3, 0, 20)
    for spec in (spec_204040, spec_unif56):
        for z in zs:
            m = stieltjes.solve_mF(z, spec, 2.0)
            for k in (1, 2, 3):
                rec = fn.theta_k(z, k, spec, 2.0, m=m)
                quad = fn.theta_g(z, _on_quadrature(k), spec, 2.0, m=m)
                assert abs(rec - quad) <= 1e-8


def test_theta_k_guards(spec_d1):
    z = 1.0 + 1e-2j
    with pytest.raises(ValueError):
        fn.theta_k(z, 13, spec_d1, 2.0)
    with pytest.raises(ValueError):
        fn.theta_k(z, 0, spec_d1, 2.0)


def test_theta_inv_point_mass_is_m(spec_d1):
    # tau == 1 makes 1/tau the flat weight
    z = 1.0 + 1e-2j
    m = stieltjes.solve_mF(z, spec_d1, 2.0)
    assert abs(fn.theta_inv(z, spec_d1, 2.0, m=m) - m) <= 1e-10


def test_theta_inv_closed_form_vs_quadrature():
    spec = spectrum.point_mass(2.0)
    z = 1.0 + 1e-2j
    closed = fn.theta_inv(z, spec, 2.0)
    quad = fn.theta_g(z, fn.WeightFunction(lambda t: 1.0 / t), spec, 2.0)
    assert abs(closed - quad) <= 1e-9
    assert abs(closed - oracles.point_mass_theta_g(z, 0.5, 2.0, c=2.0)) <= 1e-9


def test_theta_inv_large_z(spec_204040):
    # gap decays like 1/|z|^2 along the imaginary axis
    mh0 = spectrum.moment(spec_204040, -1)
    gaps = []
    for z in (1e3j, 1e5j):
        gaps.append(abs(fn.theta_inv(z, spec_204040, 2.0) + mh0 / z))
    assert gaps[1] < 1e-3 * gaps[0] and gaps[1] <= 1e-9


def test_indicator_truncates_integral(spec_unif56):
    z = 5.5 + 0.5j
    gamma = 2.0
    m = stieltjes.solve_mF(z, spec_unif56, gamma)
    half = fn.theta_g(z, fn.indicator_below(5.5), spec_unif56, gamma, m=m)
    trunc = spectrum.validate(segments=[(1.0, 5.0, 5.5)])
    full_kernel = fn.theta_g(z, fn.flat(), trunc, gamma, m=m)
    assert abs(half - 0.5 * full_kernel) <= 1e-12


def test_linearity(spec_204040):
    z = 2.0 + 1e-2j
    m = stieltjes.solve_mF(z, spec_204040, 2.0)
    g1, g2 = fn.power(1), fn.power(2)
    alpha, beta = 0.7, -1.3
    combo = fn.theta_g(
        z, fn.WeightFunction(lambda t: alpha * t + beta * t ** 2),
        spec_204040, 2.0, m=m)
    split = alpha * fn.theta_g(z, g1, spec_204040, 2.0, m=m) \
        + beta * fn.theta_g(z, g2, spec_204040, 2.0, m=m)
    assert abs(combo - split) <= 1e-10


def test_imaginary_part_positive_for_nonneg_weight(spec_204040):
    for z in (0.5 + 1e-3j, 3.0 + 1e-2j, 11.0 + 1e-3j):
        for g in (fn.flat(), fn.power(2), fn.reciprocal(),
                  fn.indicator_below(4.0)):
            val = fn.theta_g(z, g, spec_204040, 2.0)
            assert val.imag >= -1e-12


def test_rejects_lower_half_plane(spec_d1):
    for call in (lambda: fn.theta_g(1 - 1j, fn.flat(), spec_d1, 2.0),
                 lambda: fn.theta_k(1 - 1j, 1, spec_d1, 2.0),
                 lambda: fn.theta_inv(1 - 1j, spec_d1, 2.0)):
        with pytest.raises(DomainError):
            call()


U001_10 = spectrum.uniform(0.01, 10.0)
MIXTURE = spectrum.validate(atoms=[(0.27, 7.12)], segments=[(0.73, 2.14, 5.15)])


# quad warns where the cancellation across a peak keeps it from proving its
# 1e-13; its results are still within 6e-15 of the closed forms here
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("gamma", [2.0, 10.0, 87.5])
@pytest.mark.parametrize("spec", [U001_10, MIXTURE], ids=["u001_10", "mixture"])
def test_closed_forms_match_quadrature(spec, gamma):
    # 6 points across each support interval, near the real axis, where
    # Gauss-Legendre panels miss by up to 0.96 relative on U[0.01, 10]
    support = stieltjes.solve_density(spec, gamma, num_points=200).support
    re = np.concatenate([lo + (hi - lo) * (np.arange(6) + 0.5) / 6
                         for lo, hi in support])
    weights = [(fn.power(j), lambda t, j=j: t ** j, ()) for j in (1, 2, 3)] + [
        (fn.reciprocal(), lambda t: 1.0 / t, ()),
        (fn.indicator_below(4.0), lambda t: float(t < 4.0), (4.0,))]
    for im in (1e-2, 1e-6):
        zs = re + 1j * im
        for z, m in zip(zs, stieltjes.solve_mF(zs, spec, gamma)):
            for g, scalar, breaks in weights:
                ref = oracles.theta_by_quad(complex(z), m, scalar, spec, gamma,
                                            breaks)
                got = fn.theta_g(complex(z), g, spec, gamma, m=m)
                assert abs(got - ref) <= 1e-12 * abs(ref)


def test_indicator_leaves_out_the_atom_at_its_cut(spec_204040):
    # 1[tau < 3] keeps only the atom 0.2 delta(1): 0.2 / (1*k - z)
    zs = np.linspace(0.05, 25.0, 40) + 1j * np.array([[1e-2], [1e-6]])
    for z, m in zip(zs.ravel(), stieltjes.solve_mF(zs.ravel(), spec_204040, 2.0)):
        ref = 0.2 / (stieltjes.k_factor(z, m, 2.0) - z)
        got = fn.theta_g(z, fn.indicator_below(3.0), spec_204040, 2.0, m=m)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_power_closed_form_matches_recursion(spec_204040, spec_unif56):
    # the moment recursion Theta_(q+1) = [z*Theta_q + moment_q] (1 + Theta_1/gamma)
    zs = np.linspace(0.3, 18.0, 20) + 1j * np.logspace(-3, 0, 20)
    for spec in (spec_204040, spec_unif56):
        for z, m in zip(zs, stieltjes.solve_mF(zs, spec, 2.0)):
            rec = fn.theta_k(z, 1, spec, 2.0, m=m)
            factor = 1.0 + rec / 2.0
            for j in range(1, 7):
                closed = fn.theta_g(z, fn.power(j), spec, 2.0, m=m)
                assert abs(closed - rec) <= 1e-11 * abs(rec)
                rec = (z * rec + spectrum.moment(spec, j)) * factor


def test_closed_forms_degenerate_denominator(spec_d1):
    # gamma - 1 - z*m = 0 makes k = 0
    z = 1.0 + 1e-3j
    for g in (fn.power(1), fn.power(3), fn.power(fn.MAX_POWER),
              fn.indicator_below(2.0)):
        with pytest.raises(DegenerateDenominator):
            fn.theta_g(z, g, spec_d1, 2.0, m=(2.0 - 1.0) / z)


def test_power_beyond_max_power_stays_on_quadrature(spec_204040):
    z, gamma = 2.0 + 1e-2j, 2.0
    m = stieltjes.solve_mF(z, spec_204040, gamma)
    k = stieltjes.k_factor(z, m, gamma)
    taus, ws = spectrum.quadrature_nodes(spec_204040)
    gl = complex(np.sum(ws * taus ** 13.0 / (taus * k - z)))
    assert fn.theta_g(z, fn.power(fn.MAX_POWER + 1), spec_204040, gamma, m=m) == gl


def test_power_of_a_float_exponent(spec_204040):
    # an integral float takes theta_k as its int; any other exponent sums
    # tau^k on the Gauss-Legendre panels, as a user weight does
    zs = np.array([0.5 + 1e-3j, 3.0 + 1e-2j, 11.0 + 1.0j])
    for z, m in zip(zs, stieltjes.solve_mF(zs, spec_204040, 2.0)):
        assert fn.theta_g(z, fn.power(3.0), spec_204040, 2.0, m=m) == \
            fn.theta_g(z, fn.power(3), spec_204040, 2.0, m=m)
        assert fn.theta_g(z, fn.power(2.5), spec_204040, 2.0, m=m) == \
            fn.theta_g(z, fn.WeightFunction(lambda t: t ** 2.5), spec_204040,
                       2.0, m=m)


def test_indicator_below_rejects_nan():
    # a NaN threshold would restrict nothing in the closed form (Theta = m)
    # while its evaluator is 0 everywhere
    with pytest.raises(DomainError):
        fn.indicator_below(float("nan"))


def _every_theta():
    """(label, call(z, spec, gamma, m)) for each public Theta and each
    built-in weight, GL ones included."""
    weights = {"flat": fn.flat(), "reciprocal": fn.reciprocal(),
               "indicator_below": fn.indicator_below(4.0)}
    weights.update({f"power({j})": fn.power(j) for j in range(1, fn.MAX_POWER + 2)})
    calls = [(name, lambda z, s, g, m, w=w: fn.theta_g(z, w, s, g, m=m))
             for name, w in weights.items()]
    calls += [(f"theta_k({k})", lambda z, s, g, m, k=k: fn.theta_k(z, k, s, g, m=m))
              for k in range(1, fn.MAX_POWER + 1)]
    return calls + [("theta_inv", lambda z, s, g, m: fn.theta_inv(z, s, g, m=m))]


def _numpy_points(spec):
    """np.complex128 z and m, as solve_mF hands m out of an array."""
    zs = np.array([0.5 + 1e-3j, 3.0 + 1e-2j, 11.0 + 1.0j])
    return zip(zs, stieltjes.solve_mF(zs, spec, 2.0))


def test_every_theta_returns_complex(spec_204040):
    for z, m in _numpy_points(spec_204040):
        assert isinstance(z, np.complex128) and isinstance(m, np.complex128)
        for label, call in _every_theta():
            assert type(call(z, spec_204040, 2.0, m)) is complex, label
            assert type(call(z, spec_204040, np.float64(2.0), None)) is complex, label


def test_numpy_scalars_give_the_python_complex_value(spec_204040):
    for z, m in _numpy_points(spec_204040):
        for label, call in _every_theta():
            ref = call(complex(z), spec_204040, 2.0, complex(m))
            assert call(z, spec_204040, 2.0, m) == ref, label


def test_domain_checked_for_numpy_scalars(spec_d1, spec_unif56):
    for z in (np.complex128(2.0 + 0j), np.float64(2.0), 2.0 - 1e-3j):
        for m in (None, 0.5 + 0.5j):
            for label, call in _every_theta():
                with pytest.raises(DomainError):
                    call(z, spec_d1, 2.0, m)
    # a non-finite z (solve_mF raised NoConvergence after RuntimeWarnings) or
    # a non-finite given m (the Theta was nan + nanj)
    bad = [complex(np.nan, 1.0), complex(1.0, np.nan), complex(np.inf, 1.0),
           complex(1.0, np.inf)]
    for label, call in _every_theta():
        for z, m in [(z, m) for z in bad for m in (None, 0.5 + 0.5j)] \
                + [(1.0 + 1.0j, m) for m in bad]:
            with pytest.raises(DomainError):
                call(z, spec_d1, 2.0, m)
    # discontinuities as a list: the quadrature still splits its panels there
    step = fn.indicator_below(5.5).evaluator
    listed = fn.theta_g(5.5 + 0.5j, fn.WeightFunction(step, [5.5]), spec_unif56, 2.0)
    assert listed == fn.theta_g(5.5 + 0.5j, fn.WeightFunction(step, (5.5,)),
                                spec_unif56, 2.0)


def test_moments_read_once_per_spectrum(monkeypatch):
    # a spectrum no other test builds, so its moment table is not cached yet
    spec = spectrum.validate(atoms=[(0.35, 1.75)], segments=[(0.65, 2.25, 4.125)])
    zs = np.linspace(0.5, 9.0, 8) + 0.05j
    ms = stieltjes.solve_mF(zs, spec, 2.0)
    calls = []
    real_moment = spectrum.moment
    monkeypatch.setattr(spectrum, "moment",
                        lambda s, k: calls.append(k) or real_moment(s, k))
    for z, m in zip(zs, ms):  # 8 z x 25 calls: 200 calls
        for k in range(1, fn.MAX_POWER + 1):
            fn.theta_k(z, k, spec, 2.0, m=m)
            fn.theta_g(z, fn.power(k), spec, 2.0, m=m)
        fn.theta_inv(z, spec, 2.0, m=m)
    assert len(calls) <= fn.MAX_POWER + 1


def test_quadrature_weights_built_once_per_weight(monkeypatch, spec_unif56):
    # the nodes, and the weights times g, are read once per (spectrum, weight);
    # every value is the Gauss-Legendre sum written out on the nodes
    g = fn.WeightFunction(lambda t: np.exp(-t), (5.5,))
    zs = np.linspace(4.0, 7.0, 6) + 0.1j
    ms = stieltjes.solve_mF(zs, spec_unif56, 2.0)
    calls = []
    nodes = fn.quadrature_nodes
    monkeypatch.setattr(fn, "quadrature_nodes",
                        lambda *args: calls.append(args) or nodes(*args))
    got = [fn.theta_g(z, g, spec_unif56, 2.0, m=m) for z, m in zip(zs, ms)]
    assert calls == [(spec_unif56, (5.5,))]
    taus, ws = nodes(spec_unif56, (5.5,))
    for z, m, value in zip(zs, ms, got):
        k = stieltjes.k_factor(complex(z), complex(m), 2.0)
        assert value == complex((ws * np.exp(-taus) / (taus * k - z)).sum())
