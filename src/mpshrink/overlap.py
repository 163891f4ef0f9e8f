"""Limiting sample/population eigenvector overlap kernel.

phi(l, t) is the limiting density of N |u_i* v_j|^2 indexed by the sample
eigenvalue l and the population eigenvalue t.  For l > 0,

    phi(l, t) = (l*t/gamma) / ((a*t - l)^2 + b^2 * t^2),

where a + i*b = 1 - 1/gamma - l*m_breve(l)/gamma.  For gamma < 1 the sample
spectrum has an atom at zero whose eigenvectors carry the separate branch
phi(0, t) = 1/((1-gamma)*(1 + mu0*t)) with mu0 the companion transform at 0.

Phi(lambda, tau) is the double integral of phi against dH(t) dF(l), including
the zero atom of F when gamma < 1.

With S(s) = integral of dH(t)/(t - s) and s = l/(a + i*b), phi(l, .) integrates
against dH to (l/gamma) / (a^2 + b^2) * Im(s*S(s)) / Im s, with the limit
Re(S + s*S') at Im s = 0, and phi(0, .) to S(-1/mu0) / (mu0 * (1 - gamma)).
"""

from __future__ import annotations

import numpy as np

from . import spectrum as spectrum_mod
from .errors import DomainError, EmptyBin, ZeroBranchUnavailable
from .spectrum import PopulationSpectrum, _stieltjes_h
from .stieltjes import StieltjesSolution, k_factor


def phi(l: float, t, solution: StieltjesSolution,
        spec: PopulationSpectrum):
    """Overlap kernel at sample eigenvalue l and population eigenvalue(s) t;
    its limit 0 at an infinite l or t; DomainError at NaN."""
    t_arr = np.asarray(t, dtype=float)
    if np.isnan(t_arr).any():
        raise DomainError("phi at t = NaN")
    if l < 0 or l == np.inf:
        out = np.zeros_like(t_arr)
        return out if np.ndim(t) else 0.0
    if l == 0:
        if solution.gamma > 1:
            raise ZeroBranchUnavailable("l = 0 branch requires gamma < 1")
        mu0 = solution.m_under_zero
        out = 1.0 / ((1.0 - solution.gamma) * (1.0 + mu0 * t_arr))
        return out if np.ndim(t) else float(out)
    g = solution.gamma
    # the kernel falls like 1/t, and is 0 at t = 0 as at t = inf
    t_arr = np.where(np.isinf(t_arr), 0.0, t_arr)
    k = k_factor(l, solution.m_at(l), g)  # a + i*b
    den = (k.real * t_arr - l) ** 2 + k.imag * k.imag * t_arr ** 2
    # exactly at a support edge b -> 0 while a*t - l can cross zero; the
    # kernel concentrates there and the denominator is floored to keep the
    # point evaluation finite (integrals against dF are unaffected)
    out = (l / g) * t_arr / np.maximum(den, 1e-300)
    return out if np.ndim(t) else float(out)


def _h_integral(ls, m, gamma: float, spec: PopulationSpectrum,
                upto: float = np.inf):
    """Integral of phi(l, t) over t <= upto against dH, for an array of l > 0
    and the m_breve(l)."""
    k = k_factor(ls, m, gamma)
    s = ls / k
    real = s.imag == 0
    S = _stieltjes_h(spec, s, upto, order=int(real.any()))
    ratio = (s * S[0]).imag / np.where(real, 1.0, s.imag)
    if real.any():
        ratio[real] = (S[0] + s * S[1]).real[real]
    return ls / gamma * ratio / np.abs(k) ** 2


def _h_integral_zero(solution: StieltjesSolution, spec: PopulationSpectrum,
                     upto: float = np.inf) -> float:
    """Integral of phi(0, t) over t <= upto against dH (gamma < 1)."""
    if solution.gamma > 1:
        raise ZeroBranchUnavailable("l = 0 branch requires gamma < 1")
    mu0 = solution.m_under_zero
    S = _stieltjes_h(spec, np.array([-1.0 / mu0]), upto, order=0)[0][0]
    return float(S) / (mu0 * (1.0 - solution.gamma))


def phi_h_integral(l: float, solution: StieltjesSolution,
                   spec: PopulationSpectrum) -> float:
    """Integral of phi(l, t) over dH(t); equals 1 on the support of F, and
    its limit 0 at an infinite l."""
    if l <= 0 or l == np.inf:
        return _h_integral_zero(solution, spec) if l == 0 else 0.0
    return float(_h_integral(np.array([l]), np.array([solution.m_at(l)]),
                             solution.gamma, spec)[0])


def phi_cumulative(lam: float, tau: float, solution: StieltjesSolution,
                   spec: PopulationSpectrum) -> float:
    """Phi(lambda, tau): cumulative overlap mass, a bivariate c.d.f.: the
    integral of phi(l, t) over t <= tau against dH, taken at the grid points
    up to lambda from the solved m_breve, then against dF by f_integral;
    DomainError at NaN."""
    if np.isnan(lam) or np.isnan(tau):
        raise DomainError(f"phi_cumulative at lambda = {lam}, tau = {tau}")
    if tau < spec.h1 or lam < 0:
        return 0.0
    n = min(len(solution.grid), np.searchsorted(solution.grid, lam) + 1)
    # f_integral to lambda weighs f only at the first n points of positive density
    pos = (solution.density > 0) & (np.arange(len(solution.grid)) < n)
    inner = np.zeros(len(solution.grid))
    inner[pos] = _h_integral(solution.grid[pos], solution.m_breve[pos],
                             solution.gamma, spec, tau)
    at_zero = _h_integral_zero(solution, spec, tau) if solution.gamma < 1 \
        else 0.0
    return solution.f_integral(lam, inner, at_zero)


def average_overlap(lambda_lo: float, lambda_hi: float, tau_lo: float,
                    tau_hi: float, solution: StieltjesSolution,
                    spec: PopulationSpectrum) -> float:
    """Limiting mean of N |u_i* v_j|^2 over the rectangle of eigenvalue bins.

    Ratio of the Phi increment over the product of the marginal increments;
    raises EmptyBin when either marginal mass vanishes.
    """
    f_mass = solution.cdf(lambda_hi) - solution.cdf(lambda_lo)
    h_mass = spectrum_mod.cdf(spec, tau_hi) - spectrum_mod.cdf(spec, tau_lo)
    if f_mass <= 1e-12 or h_mass <= 1e-12:
        raise EmptyBin(
            f"marginal masses F:{f_mass:.3e} H:{h_mass:.3e} not positive")
    num = (phi_cumulative(lambda_hi, tau_hi, solution, spec)
           - phi_cumulative(lambda_hi, tau_lo, solution, spec)
           - phi_cumulative(lambda_lo, tau_hi, solution, spec)
           + phi_cumulative(lambda_lo, tau_lo, solution, spec))
    return num / (f_mass * h_mass)
