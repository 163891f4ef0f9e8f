"""Asymptotically optimal nonlinear bias corrections for sample eigenvalues.

delta(lambda) is the limit of u_i* Sigma u_i paired with the sample eigenvalue
lambda: the value the eigenvalue should be replaced with to get closest (in
Frobenius norm) to the population covariance while keeping sample
eigenvectors.  psi(lambda) is the analogous limit of u_i* Sigma^{-1} u_i for
the inverse.  Both are explicit in m_breve:

    delta(lambda) = lambda / |1 - 1/gamma - lambda*m_breve(lambda)/gamma|^2
    psi(lambda)   = (1 - 1/gamma - 2*lambda*Re[m_breve(lambda)]/gamma) / lambda

with separate zero-eigenvalue values when gamma < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectrum as spectrum_mod
from .errors import DegenerateSpan, GammaOne
from .spectrum import PopulationSpectrum
from .stieltjes import StieltjesSolution

MOMENT_GAP_TOL = 1e-5  # worst gap over random mixtures measured 2.1e-6


def _check_gamma(solution: StieltjesSolution) -> None:
    if solution.gamma == 1:
        raise GammaOne("shrinkage formulas are undefined at gamma = 1")


def _m_lookup(lam: np.ndarray, solution: StieltjesSolution) -> np.ndarray:
    """m_breve at lam, moving out-of-support points to the nearest edge.

    The limit formulas are only meaningful on Supp(F); finite-N eigenvalues
    that fluctuate outside use the nearest in-support value.
    """
    if solution.support:
        looked, _ = solution.clip_to_support(lam)
    else:
        looked = lam
    return solution.m_at(looked)


def delta(lam, solution: StieltjesSolution):
    """Covariance bias correction delta(lambda); scalar or array lambda."""
    _check_gamma(solution)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.zeros(lam_arr.shape)
    pos = lam_arr > 0
    if pos.any():
        g = solution.gamma
        m = _m_lookup(lam_arr[pos], solution)
        k = 1.0 - 1.0 / g - lam_arr[pos] * m / g
        out[pos] = lam_arr[pos] / np.abs(k) ** 2
    zero = lam_arr == 0
    if zero.any() and solution.gamma < 1:
        out[zero] = delta_zero(solution)
    return out if np.ndim(lam) else float(out[0])


def delta_zero(solution: StieltjesSolution) -> float:
    """delta(0) = gamma / ((1-gamma) * m_under(0)) for gamma < 1."""
    _check_gamma(solution)
    if solution.gamma > 1:
        return 0.0
    g = solution.gamma
    return g / ((1.0 - g) * solution.m_under_zero)


def psi(lam, solution: StieltjesSolution, spec: PopulationSpectrum):
    """Inverse-covariance bias correction psi(lambda)."""
    _check_gamma(solution)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.zeros(lam_arr.shape)
    pos = lam_arr > 0
    if pos.any():
        g = solution.gamma
        m = _m_lookup(lam_arr[pos], solution)
        out[pos] = (1.0 - 1.0 / g - 2.0 / g * lam_arr[pos] * m.real) / lam_arr[pos]
    zero = lam_arr == 0
    if zero.any() and solution.gamma < 1:
        out[zero] = psi_zero(solution, spec)
    return out if np.ndim(lam) else float(out[0])


def psi_zero(solution: StieltjesSolution, spec: PopulationSpectrum) -> float:
    """psi(0) = m_H(0)/(1-gamma) - m_under(0) for gamma < 1."""
    _check_gamma(solution)
    if solution.gamma > 1:
        return 0.0
    g = solution.gamma
    return spectrum_mod.m_H_at_zero(spec) / (1.0 - g) - solution.m_under_zero


def shrink_spectrum(sample_eigs, solution: StieltjesSolution, *,
                    zero_tol: float = 1e-12) -> np.ndarray:
    """Map sample eigenvalues through the covariance correction.

    lambda_i > 0 -> lambda_i / |1 - 1/gamma - lambda_i*m_breve(lambda_i)/gamma|^2;
    eigenvalues at zero (within zero_tol * max) map to delta(0) when gamma < 1.
    Output order matches input order.
    """
    _check_gamma(solution)
    eigs = np.asarray(sample_eigs, dtype=float)
    if np.any(eigs < -zero_tol * max(1.0, np.abs(eigs).max(initial=0.0))):
        raise ValueError("sample eigenvalues must be >= 0")
    pos = eigs > zero_tol * max(1.0, eigs.max(initial=0.0))
    out = np.full(eigs.shape, delta_zero(solution))
    out[pos] = delta(eigs[pos], solution)
    return out


def shrink_inverse_spectrum(sample_eigs, solution: StieltjesSolution,
                            spec: PopulationSpectrum, *,
                            zero_tol: float = 1e-12) -> np.ndarray:
    """Map sample eigenvalues to corrected inverse-covariance eigenvalues:
    (1/lambda_i) * (1 - 1/gamma - 2*lambda_i*Re[m_breve(lambda_i)]/gamma),
    with psi(0) for the zero eigenvalues when gamma < 1."""
    _check_gamma(solution)
    eigs = np.asarray(sample_eigs, dtype=float)
    pos = eigs > zero_tol * max(1.0, eigs.max(initial=0.0))
    out = np.full(eigs.shape, psi_zero(solution, spec))
    out[pos] = psi(eigs[pos], solution, spec)
    return out


def linear_shrinkage_oracle(sample_eigs, trace_sigma, trace_s_sigma) -> np.ndarray:
    """Eigenvalues of the Frobenius projection of Sigma onto span{I, S}.

    Needs only Tr(Sigma) and Tr(S*Sigma) from the oracle side; the projection
    a*I + b*S shares the sample eigenvectors, so its eigenvalues are
    a + b*lambda_i.  A degenerate span (S proportional to I) falls back to the
    least-norm solution, which projects onto span{I}.  A stack of spectra
    (..., n) takes traces of shape (...) and is solved in one call.
    """
    eigs = np.asarray(sample_eigs, dtype=float)
    n = eigs.shape[-1]
    if n == 0:
        raise DegenerateSpan("no eigenvalues supplied")
    tot = eigs.sum(axis=-1)
    gram = np.stack([np.full(tot.shape, float(n)), tot, tot, np.sum(eigs ** 2, axis=-1)], -1)
    rhs = np.stack(np.broadcast_arrays(trace_sigma, trace_s_sigma), axis=-1)
    if not np.all(np.isfinite(gram)) or not np.all(np.isfinite(rhs)):
        raise DegenerateSpan("non-finite trace statistics")
    # the least-norm solution, with the singular value cutoff of lstsq
    pinv = np.linalg.pinv(gram.reshape(*tot.shape, 2, 2),
                          rcond=2 * np.finfo(float).eps)
    coef = np.einsum("...ij,...j->...i", pinv, rhs)
    return coef[..., :1] + coef[..., 1:] * eigs


def linear_shrinkage_limit(spec: PopulationSpectrum, gamma: float
                           ) -> tuple[float, float]:
    """Large-N limit of the oracle linear projection coefficients (a, b).

    Normal equations with limiting moments: mean sample eigenvalue mu1,
    mean square mu2 + mu1^2/gamma, and cross term mu2.
    """
    mu1 = spectrum_mod.moment(spec, 1)
    mu2 = spectrum_mod.moment(spec, 2)
    gram = np.array([[1.0, mu1], [mu1, mu2 + mu1 * mu1 / gamma]])
    rhs = np.array([mu1, mu2])
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return float(coef[0]), float(coef[1])


@dataclass
class ShrinkageCurve:
    """delta and psi tabulated on a lambda grid, plus the zero-eigenvalue
    values when gamma < 1."""

    lambda_grid: np.ndarray
    delta: np.ndarray
    psi: np.ndarray
    delta_zero: float | None
    psi_zero: float | None
    gamma: float


def build_shrinkage_curve(solution: StieltjesSolution, spec: PopulationSpectrum,
                          lambda_grid=None) -> ShrinkageCurve:
    if lambda_grid is None:
        lambda_grid = solution.grid
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    d0 = delta_zero(solution) if solution.gamma < 1 else None
    p0 = psi_zero(solution, spec) if solution.gamma < 1 else None
    return ShrinkageCurve(
        lambda_grid=lambda_grid,
        delta=delta(lambda_grid, solution),
        psi=psi(lambda_grid, solution, spec),
        delta_zero=d0, psi_zero=p0, gamma=solution.gamma)


def delta_cumulative(xs, solution: StieltjesSolution):
    """The nondecreasing limit curve x -> integral of delta over dF up to x."""
    return solution.f_integral(xs, delta(solution.grid, solution),
                               delta_zero(solution))


def psi_cumulative(xs, solution: StieltjesSolution,
                   spec: PopulationSpectrum):
    """The limit curve x -> integral of psi over dF up to x."""
    return solution.f_integral(xs, psi(solution.grid, solution, spec),
                               psi_zero(solution, spec))


def moment_residuals(solution: StieltjesSolution, spec: PopulationSpectrum
                     ) -> tuple[float, float]:
    """Conservation gaps (covariance, inverse): the F-integral of each
    correction curve, the zero atom included, minus the H-moment it must
    reproduce, int tau dH and int 1/tau dH.  On a solve_density grid the
    gaps are at rounding level (see StieltjesSolution.f_integral); the CLI
    enforces MOMENT_GAP_TOL."""
    top = solution.grid[-1]
    return (delta_cumulative(top, solution) - spectrum_mod.moment(spec, 1),
            psi_cumulative(top, solution, spec) - spectrum_mod.moment(spec, -1))
