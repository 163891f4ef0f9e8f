"""Generalized resolvent functionals: weighted traces of (S - zI)^{-1}.

For a bounded weight g on [h1, h2] with finitely many discontinuities, the
limiting functional is, with k = 1 - 1/gamma - z*m(z)/gamma and s = z/k,

    Theta_g(z) = integral of g(tau) / (tau*k - z) dH(tau),

which reduces to m(z) for g == 1; for tau^j, 1/tau and 1[tau < c] it is exact
algebra on m, the moments of H and S(s) = k*m, else a Gauss-Legendre sum.  Each
Theta checks z and m and makes them Python complex once, and returns complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
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
    # Theta_g as closed(z, m, gamma, spec) on checked z and m, None for GL
    closed: Callable[..., complex] | None = None


def flat() -> WeightFunction:
    return WeightFunction(lambda t: np.ones_like(t))


def power(k: float) -> WeightFunction:
    """g = tau^k; for integral k, 1 <= k <= MAX_POWER, Theta_g is theta_k."""
    integral = 1 <= k <= MAX_POWER and float(k).is_integer()
    closed = partial(_theta_k, k=int(k)) if integral else None
    return WeightFunction(lambda t: t ** float(k), closed=closed)


def reciprocal() -> WeightFunction:
    return WeightFunction(lambda t: 1.0 / t, closed=_theta_inv)


def indicator_below(tau: float) -> WeightFunction:
    """g = 1 on (-inf, tau), 0 elsewhere (open at tau); Theta_g is S of H
    restricted to t < tau, over k.  DomainError at a NaN tau."""
    if np.isnan(tau):
        raise DomainError("indicator_below of a NaN threshold")

    def closed(z, m, gamma, spec):
        k = _kappa(z, m, gamma)
        below = np.nextafter(tau, -np.inf)
        return complex(_stieltjes_h(spec, np.array([z / k]), below, 0)[0][0] / k)
    return WeightFunction(lambda t: (t < tau).astype(float), (tau,), closed)


def _checked(z, m, spec: PopulationSpectrum, gamma: float):
    """Python-scalar (z, m, gamma), m solve_mF's if None; DomainError if Im z <= 0."""
    if (z := complex(z)).imag <= 0:
        raise DomainError(f"Theta requires Im(z) > 0, got z = {z}")
    return z, complex(solve_mF(z, spec, gamma) if m is None else m), float(gamma)


@lru_cache(maxsize=128)
def _moments(spec: PopulationSpectrum) -> tuple[float, ...]:
    """(M_0, ..., M_(MAX_POWER - 1), M_(-1)) of H, so that index i is M_i."""
    return tuple(spectrum_mod.moment(spec, i) for i in (*range(MAX_POWER), -1))


def _kappa(z: complex, m: complex, gamma: float) -> complex:
    """k_factor(z, m, gamma) as (gamma - 1 - z*m)/gamma, or
    DegenerateDenominator where gamma - 1 - z*m is below 1e-14."""
    denom = gamma - 1.0 - z * m
    if abs(denom) < 1e-14:
        raise DegenerateDenominator(f"gamma - 1 - z*m = {denom} at z = {z}")
    return denom / gamma


def theta_g(z: complex, g: WeightFunction, spec: PopulationSpectrum,
            gamma: float, *, m: complex | None = None) -> complex:
    """Weighted functional at z (Im z > 0); m, if given, must be this
    spectrum's m(z).  Both are checked and made Python complex once; the result
    is complex.  Exact for power(j), 1 <= j <= MAX_POWER, reciprocal() and
    indicator_below(c).  Any other weight, flat() included, is summed on
    Gauss-Legendre panels, inaccurate where the pole tau = z/k is close to a
    segment against its width, as at small Im z and large gamma: at gamma =
    87.5, Im z = 1e-2 and 1e-6, g = 1 misses m by up to 5.9e-4 and 1.8e-3
    relative for 0.27 delta(7.12) + 0.73 U[2.14, 5.15], 1.9 and 11 for U[0.01, 10]."""
    z, m, gamma = _checked(z, m, spec, gamma)
    if g.closed is not None:
        return g.closed(z, m, gamma, spec)
    taus, wg = _weighted_nodes(spec, g.evaluator, tuple(g.discontinuities))
    return complex((wg / (taus * k_factor(z, m, gamma) - z)).sum())


@lru_cache(maxsize=128)
def _weighted_nodes(spec: PopulationSpectrum, g: Callable, breaks: tuple):
    """quadrature_nodes(spec, breaks) with the weights times g(nodes)."""
    taus, ws = quadrature_nodes(spec, breaks)
    return taus, ws * np.asarray(g(taus), dtype=float)


def theta_k(z: complex, k: int, spec: PopulationSpectrum, gamma: float, *,
            m: complex | None = None) -> complex:
    """Power-weight functional via the moment recursion, in Horner form:
    with kappa = k_factor, s = z/kappa and S(s) = kappa*m(z),

        Theta_k = (S(s) s^k + sum over i < k of moment_i(H) s^(k-1-i)) / kappa,

    the same as Theta_(q+1) = [z*Theta_(q) + moment_q(H)] * [1 + Theta_1/gamma]
    from Theta_0 = m(z), since Theta_1 = (1 + z*m)/kappa = gamma/kappa - gamma.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if k > MAX_POWER:
        raise ValueError(f"k capped at {MAX_POWER} (moment growth guard)")
    return _theta_k(*_checked(z, m, spec, gamma), spec, k)


def _theta_k(z, m, gamma, spec, k):
    kappa = _kappa(z, m, gamma)
    val, s = kappa * m, z / kappa
    for moment in _moments(spec)[:k]:
        val = val * s + moment
    return val / kappa


def theta_inv(z: complex, spec: PopulationSpectrum, gamma: float, *,
              m: complex | None = None) -> complex:
    """Closed form for the weight 1/tau:
    m(z)/z * [1 - 1/gamma - z*m(z)/gamma] - (1/z) * integral of dH(tau)/tau."""
    return _theta_inv(*_checked(z, m, spec, gamma), spec)


def _theta_inv(z, m, gamma, spec):
    return m / z * k_factor(z, m, gamma) - _moments(spec)[-1] / z
