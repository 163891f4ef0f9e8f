"""Limiting sample/population eigenvector overlap kernel.

phi(l, t) is the limiting density of N |u_i* v_j|^2 indexed by the sample
eigenvalue l and the population eigenvalue t.  For l > 0,

    phi(l, t) = (l*t/gamma) / ((a*t - l)^2 + b^2 * t^2),

where a + i*b = 1 - 1/gamma - l*m_breve(l)/gamma.  For gamma < 1 the sample
spectrum has an atom at zero whose eigenvectors carry the separate branch
phi(0, t) = 1/((1-gamma)*(1 + mu0*t)) with mu0 the companion transform at 0.

Phi(lambda, tau) is the double integral of phi against dH(t) dF(l), including
the zero atom of F when gamma < 1.
"""

from __future__ import annotations

import numpy as np

from . import spectrum as spectrum_mod
from .errors import EmptyBin, GammaOne, ZeroBranchUnavailable
from .spectrum import PopulationSpectrum, quadrature_nodes
from .stieltjes import StieltjesSolution


def _a_b(l: float, solution: StieltjesSolution) -> tuple[float, float]:
    """Real/imaginary part of 1 - 1/gamma - l*m_breve(l)/gamma at l."""
    g = solution.gamma
    k = 1.0 - 1.0 / g - l * solution.m_at(l) / g
    return float(k.real), float(k.imag)


def phi(l: float, t, solution: StieltjesSolution,
        spec: PopulationSpectrum):
    """Overlap kernel at sample eigenvalue l and population eigenvalue(s) t."""
    if solution.gamma == 1:
        raise GammaOne("phi is undefined at gamma = 1")
    t_arr = np.asarray(t, dtype=float)
    if l < 0:
        out = np.zeros_like(t_arr)
        return out if np.ndim(t) else 0.0
    if l == 0:
        if solution.gamma > 1:
            raise ZeroBranchUnavailable("l = 0 branch requires gamma < 1")
        mu0 = solution.m_under_zero
        out = 1.0 / ((1.0 - solution.gamma) * (1.0 + mu0 * t_arr))
        return out if np.ndim(t) else float(out)
    a, b = _a_b(l, solution)
    den = (a * t_arr - l) ** 2 + b * b * t_arr ** 2
    # exactly at a support edge b -> 0 while a*t - l can cross zero; the
    # kernel concentrates there and the denominator is floored to keep the
    # point evaluation finite (integrals against dF are unaffected)
    out = (l / solution.gamma) * t_arr / np.maximum(den, 1e-300)
    return out if np.ndim(t) else float(out)


def phi_h_integral(l: float, solution: StieltjesSolution,
                   spec: PopulationSpectrum) -> float:
    """Integral of phi(l, t) over dH(t); equals 1 on the support of F.

    Segments of H are integrated by Gauss-Legendre panels.  At large gamma
    phi(l, .) peaks within a width of order |b/a| l/a (a + i*b as above),
    small against the segment width, and the panels are inaccurate
    (2e-3 for 0.27 delta(7.12) + 0.73 U[2.14, 5.15] at gamma = 87.5)."""
    taus, ws = quadrature_nodes(spec)
    return float(np.sum(ws * phi(l, taus, solution, spec)))


def phi_cumulative(lam: float, tau: float, solution: StieltjesSolution,
                   spec: PopulationSpectrum) -> float:
    """Phi(lambda, tau): cumulative overlap mass, a bivariate c.d.f.: the
    integral of phi(l, t) over t <= tau against dH, taken at the grid points
    up to lambda from the solved m_breve, then against dF by f_integral."""
    if solution.gamma == 1:
        raise GammaOne("Phi is undefined at gamma = 1")
    if tau < spec.h1 or lam < 0:
        return 0.0
    taus, ws = quadrature_nodes(spec, (tau,))
    t, w = taus[taus <= tau, None], ws[taus <= tau, None]
    g = solution.gamma
    at_zero = float(np.sum(w * phi(0.0, t, solution, spec))) if g < 1 else 0.0
    n = min(len(solution.grid), np.searchsorted(solution.grid, lam) + 1)
    ls = solution.grid[:n]
    k = 1.0 - 1.0 / g - ls * solution.m_breve[:n] / g
    # phi(l, t) at all these grid points at once, floored as in phi
    den = (k.real * t - ls) ** 2 + (k.imag * t) ** 2
    inner = ls / g * np.sum(w * t / np.maximum(den, 1e-300), axis=0)
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
