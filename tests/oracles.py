"""Independent closed-form oracles used by the tests.

Everything here is trusted algebra for the point-mass population spectrum
H = delta_c, derived from the quadratic self-consistency equation

    (c*z/gamma) m^2 - (c*(1 - 1/gamma) - z) m + 1 = 0,

solved directly with the quadratic formula, plus exact_gap, the residual of
the self-consistency equation for any H with k formed from m,
stieltjes_h_reference, the closed form of S(s) written out on the
spectrum's tuples, theta_by_quad, a weighted functional integrated by
scipy, and m_breve_mp, the boundary value solved at 40 digits by mpmath.
None of it calls into the package's solvers.
"""

from __future__ import annotations

import math

import numpy as np

from mpshrink.spectrum import _stieltjes_h


def exact_gap(z, m, spec, gamma: float):
    """|m - integral of dH(tau) / (tau*k - z)|, k = 1 - 1/gamma - z*m/gamma,
    with H integrated exactly: the integral is S(z/k) / k.  k is formed from
    m alone, not from the solver's root; for gamma < 1 near z = 0 it cancels
    to -z*mu, and this residual grows like ulp / |z| there."""
    k = 1.0 - 1.0 / gamma - z * m / gamma
    return np.abs(_stieltjes_h(spec, z / k, order=0)[0] / k - m)


def stieltjes_h_reference(spec, s, upto: float = np.inf, order: int = 2) -> list:
    """[S(s), S'(s), ...] of H restricted to t <= upto, with the atom and
    segment columns built from the spectrum's tuples on every call and
    reduced by np.sum: the formula of spectrum._stieltjes_h before the
    spectrum built its columns once."""
    atoms = np.reshape(spec.atoms, (-1, 2)).astype(float)
    segs = np.reshape(spec.segments, (-1, 3)).astype(float)
    aw, at, sw, lo, hi = atoms[:, :1], atoms[:, 1:], segs[:, :1], segs[:, 1:2], segs[:, 2:]
    c = sw / (hi - lo)
    if upto < spec.h2:
        a, g = at[:, 0] <= upto, lo[:, 0] < upto
        aw, at, c, lo, hi = aw[a], at[a], c[g], lo[g], np.minimum(hi[g], upto)
    s = np.asarray(s)[None, :]
    r = 1.0 / (at - s)
    wr = aw * r
    out = [np.sum(wr, axis=0)]
    for j in range(1, order + 1):
        wr = wr * r * j
        out.append(np.sum(wr, axis=0))
    if len(c):
        out[0] = out[0] + np.sum(c * np.log((hi - s) / (lo - s)), axis=0)
        r_lo, r_hi = 1.0 / (lo - s), 1.0 / (hi - s)
        for j in range(1, order + 1):
            out[j] += math.factorial(j - 1) * np.sum(c * (r_lo ** j - r_hi ** j), axis=0)
    return out


def theta_by_quad(z: complex, m: complex, g, spec, gamma: float,
                  breaks=()) -> complex:
    """Theta_g(z) = integral of g(t) / (t*k - z) dH(t), k = 1 - 1/gamma -
    z*m/gamma formed from m, for a scalar weight g: atoms summed, segments
    integrated by scipy's adaptive quadrature, real and imaginary parts
    apart, with breaks at the given points and at Re(z/k), where the
    integrand peaks for small Im(z/k)."""
    from scipy.integrate import quad

    k = 1.0 - 1.0 / gamma - z * m / gamma

    def f(t):
        return g(t) / (t * k - z)

    val = sum(w * f(t) for w, t in spec.atoms)
    for w, lo, hi in spec.segments:
        near = [p for p in ((z / k).real, *breaks) if lo < p < hi] or None
        parts = [quad(lambda t: part(f(t)), lo, hi, epsabs=0.0, epsrel=1e-13,
                      limit=200, points=near)[0] for part in (np.real, np.imag)]
        val += w / (hi - lo) * complex(*parts)
    return complex(val)


def point_mass_m(z, gamma: float, c: float = 1.0):
    """Stieltjes transform of the limiting sample law for H = delta_c,
    upper-half-plane branch of the quadratic.  The large root comes from the
    sign-stable formula q = -(a1 + sign * disc)/2, which adds two terms of
    the same sign, and the small one from Vieta's product 1/a2: the textbook
    formula cancels at gamma >> 1 and small |z|."""
    z = np.asarray(z, dtype=complex)
    a2 = c * z / gamma
    a1 = -(c * (1.0 - 1.0 / gamma) - z)
    disc = np.sqrt(a1 * a1 - 4.0 * a2 + 0j)
    disc = np.where((np.conj(a1) * disc).real >= 0, disc, -disc)
    q = -0.5 * (a1 + disc)
    r1, r2 = q / a2, 1.0 / q
    return np.where(r1.imag > r2.imag, r1, r2)


def point_mass_edges(gamma: float, c: float = 1.0) -> tuple[float, float]:
    """Support of the positive part of the limiting sample law."""
    r = 1.0 / np.sqrt(gamma)
    return c * (1.0 - r) ** 2, c * (1.0 + r) ** 2


def point_mass_density(lam, gamma: float, c: float = 1.0):
    """Closed-form density: sqrt((b-x)(x-a)) / (2*pi*(c/gamma)*x) on [a, b]."""
    lam = np.asarray(lam, dtype=float)
    a, b = point_mass_edges(gamma, c)
    inside = (lam > a) & (lam < b)
    out = np.zeros_like(lam)
    out[inside] = np.sqrt((b - lam[inside]) * (lam[inside] - a)) \
        / (2.0 * np.pi * (c / gamma) * lam[inside])
    return out


def point_mass_m_boundary(lam, gamma: float, c: float = 1.0):
    """Boundary values m_breve(lambda) inside the support, from the same
    quadratic with the negative discriminant written explicitly."""
    lam = np.asarray(lam, dtype=float)
    a2 = c * lam / gamma
    a1 = -(c * (1.0 - 1.0 / gamma) - lam)
    disc = a1 * a1 - 4.0 * a2
    root = np.sqrt(np.abs(disc))
    return np.where(disc <= 0,
                    (-a1 + 1j * root) / (2.0 * a2),
                    (-a1 + np.sign(a1) * root) / (2.0 * a2))


def point_mass_theta_g(z, g_at_c: float, gamma: float, c: float = 1.0):
    """Weighted functional for H = delta_c: g(c) / (c*k - z) with
    k = 1 - 1/gamma - z*m(z)/gamma."""
    z = np.asarray(z, dtype=complex)
    m = point_mass_m(z, gamma, c)
    k = 1.0 - 1.0 / gamma - z * m / gamma
    return g_at_c / (c * k - z)


def companion_zero_point_mass(gamma: float, c: float = 1.0) -> float:
    """Companion transform at zero for H = delta_c, gamma < 1: the root of
    c*m/(1 + c*m) = gamma is m = gamma / ((1 - gamma) * c)."""
    return gamma / ((1.0 - gamma) * c)


def m_breve_mp(spec, gamma: float, lam: float, dps: int = 40) -> complex:
    """m_breve(lambda), the limit of m(lambda + i*eta) as eta -> 0+, at dps
    digits: Newton on x(u) = z in u = -1/mu, x(u) = u (1 - 1/gamma) -
    u^2 S(u) / gamma with S(u) = int dH(t) / (t - u), atoms summed and
    segments through log((hi - u)/(lo - u)).  The root is followed in double
    precision along z = lambda + i*eta from eta = 10 (h2 + lambda), where u
    is about z - m1/gamma, in steps eta / 4 down to 1e-24 lambda; a step that
    would cross the real axis is halved, so u stays on the branch of the
    upper half plane.  Newton at z = lambda in mpmath then finishes it.
    m = u S(u) / lambda."""
    import cmath

    import mpmath

    def step(u, z, num, log):
        g, s, d = num(gamma), 0, 0
        for w, t in spec.atoms:
            s, d = s + num(w) / (num(t) - u), d + num(w) / (num(t) - u) ** 2
        for w, lo, hi in spec.segments:
            c, lo, hi = num(w) / (num(hi) - num(lo)), num(lo), num(hi)
            s += c * log((hi - u) / (lo - u))
            d += c * (1 / (lo - u) - 1 / (hi - u))
        x = u * (1 - 1 / g) - u * u * s / g
        return (x - z) / ((1 - 1 / g) - (2 * u * s + u * u * d) / g), s

    m1 = sum(w * t for w, t in spec.atoms) \
        + sum(w * (lo + hi) / 2 for w, lo, hi in spec.segments)
    eta = 10.0 * (spec.h2 + lam)
    u = complex(lam - m1 / gamma, eta)
    while eta > 1e-24 * lam:
        for _ in range(3):
            d = step(u, complex(lam, eta), float, cmath.log)[0]
            while (u - d).imag <= 0:
                d /= 2
            u -= d
        eta /= 4
    with mpmath.workdps(dps):
        u, tol = mpmath.mpc(u), mpmath.mpf(10) ** (5 - dps)
        for _ in range(60):
            d = step(u, mpmath.mpf(lam), mpmath.mpf, mpmath.log)[0]
            u -= d
            if abs(d) <= tol * abs(u):
                break
        return complex(u * step(u, 0, mpmath.mpf, mpmath.log)[1] / lam)
