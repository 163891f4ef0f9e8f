"""Generalized resolvent functionals: weighted traces of (S - zI)^{-1}.

For a bounded weight g on [h1, h2] with finitely many discontinuities, the
limiting functional is, with k = 1 - 1/gamma - z*m(z)/gamma and s = z/k,

    Theta_g(z) = integral of g(tau) / (tau*k - z) dH(tau),

which reduces to m(z) for g == 1.  For tau^j, 1/tau and 1[tau < c] it is
algebra on m, the moments of H and S(s) = k*m, exact to rounding: theta_k,
theta_inv and S of H cut at c.  Other weights are summed on Gauss-Legendre nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectrum as spectrum_mod
from .errors import DegenerateDenominator, DomainError
from .spectrum import PopulationSpectrum, _stieltjes_h, quadrature_nodes
from .stieltjes import k_factor, solve_mF

MAX_POWER = 12


@dataclass(frozen=True)
class WeightFunction:
    """Bounded weight on [h1, h2] with an explicit list of discontinuities.

    The evaluator must accept an ndarray of tau values.  Quadrature panels are
    split exactly at each listed discontinuity so jumps never fall inside a
    Gauss-Legendre panel.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    discontinuities: tuple[float, ...] = ()
    # Theta_g as closed(z, spec, gamma, m=m), None for the quadrature
    closed: Callable[..., complex] | None = None


def flat() -> WeightFunction:
    return WeightFunction(lambda t: np.ones_like(t))


def power(k: int) -> WeightFunction:
    """g = tau^k; for 1 <= k <= MAX_POWER Theta_g is theta_k."""
    def closed(z, spec, gamma, m):
        return theta_k(z, k, spec, gamma, m=m)
    return WeightFunction(lambda t: t ** float(k),
                          closed=closed if 1 <= k <= MAX_POWER else None)


def reciprocal() -> WeightFunction:
    return WeightFunction(lambda t: 1.0 / t, closed=theta_inv)


def indicator_below(tau: float) -> WeightFunction:
    """g = 1 on (-inf, tau), 0 elsewhere (open at tau); Theta_g is S of H
    restricted to t < tau, over k."""
    def closed(z, spec, gamma, m):
        k = _denominator(z, m, gamma) / gamma
        below = np.nextafter(tau, -np.inf)
        return complex(_stieltjes_h(spec, np.array([z / k]), below, 0)[0][0] / k)
    return WeightFunction(lambda t: (t < tau).astype(float), (tau,), closed)


def _m(z: complex, spec: PopulationSpectrum, gamma: float, m) -> complex:
    """m(z) at Im z > 0, else DomainError: the given m, or solve_mF's."""
    if np.imag(z) <= 0:
        raise DomainError(f"Theta requires Im(z) > 0, got z = {z}")
    return solve_mF(z, spec, gamma) if m is None else m


def _denominator(z: complex, m: complex, gamma: float) -> complex:
    """gamma - 1 - z*m = gamma*k, or DegenerateDenominator below 1e-14."""
    denom = gamma - 1.0 - z * m
    if abs(denom) < 1e-14:
        raise DegenerateDenominator(f"gamma - 1 - z*m = {denom} at z = {z}")
    return denom


def theta_g(z: complex, g: WeightFunction, spec: PopulationSpectrum,
            gamma: float, *, m: complex | None = None) -> complex:
    """Weighted functional at z (Im z > 0); m, if given, must be this
    spectrum's m(z).  power(j) for 1 <= j <= MAX_POWER, reciprocal() and
    indicator_below(c) are exact, by their closed forms.  Any other weight,
    flat() included, is summed on Gauss-Legendre panels, which are
    inaccurate where the pole tau = z/k lies close to a segment against its
    width, as for small Im z at large gamma: at gamma = 87.5, Im z = 1e-2
    and 1e-6, g = 1 misses m by up to 5.9e-4 and 1.8e-3 relative for 0.27
    delta(7.12) + 0.73 U[2.14, 5.15], and by up to 1.9 and 11 for U[0.01, 10]."""
    m = _m(z, spec, gamma, m)
    if g.closed is not None:
        return g.closed(z, spec, gamma, m=m)
    k = k_factor(z, m, gamma)
    taus, ws = quadrature_nodes(spec, tuple(g.discontinuities))
    vals = np.asarray(g.evaluator(taus), dtype=float)
    return complex(np.sum(ws * vals / (taus * k - z)))


def theta_1(z: complex, spec: PopulationSpectrum, gamma: float, *,
            m: complex | None = None) -> complex:
    """Closed form gamma^2/(gamma - 1 - z*m(z)) - gamma for the weight tau."""
    m = _m(z, spec, gamma, m)
    return gamma * gamma / _denominator(z, m, gamma) - gamma


def theta_k(z: complex, k: int, spec: PopulationSpectrum, gamma: float, *,
            m: complex | None = None) -> complex:
    """Power-weight functional via the moment recursion, in Horner form:
    with kappa = k_factor, s = z/kappa and S(s) = kappa*m(z),

        Theta_k = (S(s) s^k + sum over i < k of moment_i(H) s^(k-1-i)) / kappa,

    the same as Theta_(q+1) = [z*Theta_(q) + moment_q(H)] * [1 + Theta_1/gamma]
    from Theta_0 = m(z), since 1 + Theta_1/gamma = 1/kappa.  k == 1 is theta_1.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if k > MAX_POWER:
        raise ValueError(f"k capped at {MAX_POWER} (moment growth guard)")
    m = _m(z, spec, gamma, m)
    if k == 1:
        return theta_1(z, spec, gamma, m=m)
    kappa = _denominator(z, m, gamma) / gamma
    val, s = kappa * m, z / kappa
    for i in range(k):
        val = val * s + spectrum_mod.moment(spec, i)
    return complex(val / kappa)


def theta_inv(z: complex, spec: PopulationSpectrum, gamma: float, *,
              m: complex | None = None) -> complex:
    """Closed form for the weight 1/tau:
    m(z)/z * [1 - 1/gamma - z*m(z)/gamma] - (1/z) * integral of dH(tau)/tau."""
    m = _m(z, spec, gamma, m)
    k = k_factor(z, m, gamma)
    return complex(m / z * k - spectrum_mod.moment(spec, -1) / z)
