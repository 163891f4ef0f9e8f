from __future__ import annotations

import numpy as np
import pytest

import oracles
from mpshrink import functionals as fn
from mpshrink import spectrum, stieltjes
from mpshrink.errors import DegenerateDenominator, DomainError


def test_flat_weight_reduces_to_m(spec_204040):
    # same quadrature path: m solves the equation, so theta_g(flat) gives m back
    for z in (1.0 + 1e-3j, 6.0 + 0.1j):
        m = stieltjes.solve_mF(z, spec_204040, 2.0)
        val = fn.theta_g(z, fn.flat(), spec_204040, 2.0, m=m)
        assert abs(val - m) <= 8 * np.spacing(abs(m))


def test_theta_1_closed_form_vs_quadrature(spec_d1):
    z = 1.0 + 1e-3j
    closed = fn.theta_1(z, spec_d1, 2.0)
    quad = fn.theta_g(z, fn.power(1), spec_d1, 2.0)
    assert abs(closed - quad) <= 1e-9
    # independent algebra for the point mass
    assert abs(closed - oracles.point_mass_theta_g(z, 1.0, 2.0)) <= 1e-9


def test_theta_1_mixture(spec_204040):
    z = 1.0 + 1e-3j
    closed = fn.theta_1(z, spec_204040, 2.0)
    quad = fn.theta_g(z, fn.power(1), spec_204040, 2.0)
    assert abs(closed - quad) <= 1e-9


def test_theta_1_large_z_decay(spec_204040):
    z = 1e6j
    mu1 = spectrum.moment(spec_204040, 1)
    assert abs(fn.theta_1(z, spec_204040, 2.0)) <= 2 * mu1 / abs(z)


def test_theta_1_internal_identity(spec_204040):
    # (1 + z*m) * (1 + theta_1/gamma) = theta_1
    for gamma in (0.5, 2.0):
        z = 1.5 + 1e-3j
        m = stieltjes.solve_mF(z, spec_204040, gamma)
        t1 = fn.theta_1(z, spec_204040, gamma, m=m)
        assert abs(1 + z * m - t1 / (1 + t1 / gamma)) <= 1e-10


def test_theta_1_degenerate_denominator(spec_d1):
    z = 1.0 + 1e-3j
    with pytest.raises(DegenerateDenominator):
        fn.theta_1(z, spec_d1, 2.0, m=(2.0 - 1.0) / z)


def test_theta_k_base_case(spec_204040):
    z = 1.0 + 1e-2j
    m = stieltjes.solve_mF(z, spec_204040, 2.0)
    assert fn.theta_k(z, 1, spec_204040, 2.0, m=m) == fn.theta_1(
        z, spec_204040, 2.0, m=m)


def test_theta_k_vs_quadrature_point_mass(spec_d1):
    z = 1.0 + 1e-2j
    rec = fn.theta_k(z, 2, spec_d1, 2.0)
    quad = fn.theta_g(z, fn.power(2), spec_d1, 2.0)
    assert abs(rec - quad) <= 1e-8


def test_theta_k_vs_quadrature_mixture(spec_204040):
    z = 2.0 + 1e-2j
    rec = fn.theta_k(z, 3, spec_204040, 2.0)
    quad = fn.theta_g(z, fn.power(3), spec_204040, 2.0)
    assert abs(rec - quad) <= 1e-8


def test_theta_k_grid_consistency(spec_204040, spec_unif56):
    zs = np.linspace(0.3, 18.0, 20) + 1j * np.logspace(-3, 0, 20)
    for spec in (spec_204040, spec_unif56):
        for z in zs:
            m = stieltjes.solve_mF(z, spec, 2.0)
            for k in (1, 2, 3):
                rec = fn.theta_k(z, k, spec, 2.0, m=m)
                quad = fn.theta_g(z, fn.power(k), spec, 2.0, m=m)
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
    quad = fn.theta_g(z, fn.reciprocal(), spec, 2.0)
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
                 lambda: fn.theta_1(1 - 1j, spec_d1, 2.0),
                 lambda: fn.theta_inv(1 - 1j, spec_d1, 2.0)):
        with pytest.raises(DomainError):
            call()
