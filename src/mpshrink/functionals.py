"""Generalized resolvent functionals: weighted traces of (S - zI)^{-1}.

For a bounded weight g on [h1, h2] with finitely many discontinuities, the
limiting functional is

    Theta_g(z) = integral of g(tau) / (tau*[1 - 1/gamma - z*m(z)/gamma] - z) dH(tau),

which reduces to m(z) for g == 1.  The power weights g = tau^k admit a
recursion and the cases k = 1 and k = -1 have closed forms; both are exposed
and must agree with the direct quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectrum as spectrum_mod
from .errors import DegenerateDenominator, DomainError
from .spectrum import PopulationSpectrum, quadrature_nodes
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


def flat() -> WeightFunction:
    return WeightFunction(lambda t: np.ones_like(t))


def power(k: int) -> WeightFunction:
    return WeightFunction(lambda t: t ** float(k))


def reciprocal() -> WeightFunction:
    return WeightFunction(lambda t: 1.0 / t)


def indicator_below(tau: float) -> WeightFunction:
    """g = 1 on (-inf, tau), 0 elsewhere (open at tau)."""
    return WeightFunction(lambda t: (t < tau).astype(float), (tau,))


def _m(z: complex, spec: PopulationSpectrum, gamma: float, m) -> complex:
    """m(z) at Im z > 0, else DomainError: the given m, or solve_mF's."""
    if np.imag(z) <= 0:
        raise DomainError(f"Theta requires Im(z) > 0, got z = {z}")
    return solve_mF(z, spec, gamma) if m is None else m


def theta_g(z: complex, g: WeightFunction, spec: PopulationSpectrum,
            gamma: float, *, m: complex | None = None) -> complex:
    """Weighted functional at z (Im z > 0) by direct quadrature.

    g is general, so segments of H are integrated by Gauss-Legendre panels.
    The integrand has its pole at tau = z/k, |Im(z/k)| off the real axis;
    where that is small against the segment width, as for small Im z at
    large gamma, the panels are inaccurate (g = 1 misses m by 8e-5 relative
    for 0.27 delta(7.12) + 0.73 U[2.14, 5.15] at gamma = 87.5)."""
    m = _m(z, spec, gamma, m)
    k = k_factor(z, m, gamma)
    taus, ws = quadrature_nodes(spec, tuple(g.discontinuities))
    vals = np.asarray(g.evaluator(taus), dtype=float)
    return complex(np.sum(ws * vals / (taus * k - z)))


def theta_1(z: complex, spec: PopulationSpectrum, gamma: float, *,
            m: complex | None = None) -> complex:
    """Closed form gamma^2/(gamma - 1 - z*m(z)) - gamma for the weight tau."""
    m = _m(z, spec, gamma, m)
    denom = gamma - 1.0 - z * m
    if abs(denom) < 1e-14:
        raise DegenerateDenominator(f"gamma - 1 - z*m = {denom} at z = {z}")
    return gamma * gamma / denom - gamma


def theta_k(z: complex, k: int, spec: PopulationSpectrum, gamma: float, *,
            m: complex | None = None) -> complex:
    """Power-weight functional via the moment recursion.

    Theta_(q+1) = [z*Theta_(q) + moment_q(H)] * [1 + Theta_1/gamma], seeded
    with Theta_0 = m(z) and the closed form for Theta_1.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if k > MAX_POWER:
        raise ValueError(f"k capped at {MAX_POWER} (moment growth guard)")
    m = _m(z, spec, gamma, m)
    t1 = theta_1(z, spec, gamma, m=m)
    if k == 1:
        return t1
    factor = 1.0 + t1 / gamma
    val = t1
    for q in range(1, k):
        val = (z * val + spectrum_mod.moment(spec, q)) * factor
    return complex(val)


def theta_inv(z: complex, spec: PopulationSpectrum, gamma: float, *,
              m: complex | None = None) -> complex:
    """Closed form for the weight 1/tau:
    m(z)/z * [1 - 1/gamma - z*m(z)/gamma] - (1/z) * integral of dH(tau)/tau."""
    m = _m(z, spec, gamma, m)
    k = k_factor(z, m, gamma)
    return complex(m / z * k - spectrum_mod.moment(spec, -1) / z)
