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
from .errors import DegenerateSpan, DomainError
from .spectrum import PopulationSpectrum
from .stieltjes import StieltjesSolution, _in_blocks, k_factor

MOMENT_GAP_TOL = 1e-5  # worst gap over random mixtures measured 2.1e-6
ZERO_EIG_REL_TOL = 1e-10


def _correction(lam, solution: StieltjesSolution, at_zero: float, formula):
    """formula(lambda, m_breve, gamma) for lambda > 0, m_breve read at the
    nearest point of Supp(F) (finite-N eigenvalues fluctuate outside it);
    at_zero at lambda = 0 (0 when gamma > 1); 0 below; DomainError if not finite."""
    def block(x):
        if not np.isfinite(x).all():
            raise DomainError("bias correction of a non-finite eigenvalue")
        out = np.zeros(x.shape)
        pos = x > 0
        if pos.any():
            looked, _ = solution.clip_to_support(x[pos])
            out[pos] = formula(x[pos], solution.m_at(looked), solution.gamma)
        out[x == 0] = at_zero
        return out
    return _in_blocks(block, lam, float)


def delta(lam, solution: StieltjesSolution):
    """Covariance bias correction delta(lambda) in blocks (_correction);
    scalar or array lambda, delta_zero at 0, 0 below, DomainError if not finite."""
    return _correction(lam, solution, delta_zero(solution), lambda lam, m, g:
                       lam / np.abs(k_factor(lam, m, g)) ** 2)


def delta_zero(solution: StieltjesSolution) -> float:
    """delta(0) = gamma / ((1-gamma) * m_under(0)) for gamma < 1; 0 for
    gamma > 1, where S has no null eigenvalues."""
    g = solution.gamma
    return 0.0 if g > 1 else g / ((1.0 - g) * solution.m_under_zero)


def psi(lam, solution: StieltjesSolution):
    """Inverse-covariance bias correction psi(lambda) in blocks, as delta;
    psi_zero at lambda = 0, 0 below, DomainError if not finite."""
    return _correction(lam, solution, psi_zero(solution), lambda lam, m, g:
                       (1.0 - 1.0 / g - 2.0 / g * lam * m.real) / lam)


def psi_zero(solution: StieltjesSolution) -> float:
    """psi(0) = m_H(0)/(1-gamma) - m_under(0) for gamma < 1; 0 for gamma > 1."""
    g = solution.gamma
    return 0.0 if g > 1 else (spectrum_mod.moment(solution.spec, -1) / (1.0 - g)
                              - solution.m_under_zero)


def zero_eigenvalues(eigs) -> np.ndarray:
    """True where a sample eigenvalue counts as zero: |lambda| at most
    ZERO_EIG_REL_TOL times the largest eigenvalue of its row (the last axis)."""
    eigs = np.atleast_1d(np.asarray(eigs, dtype=float))
    top = np.max(eigs, axis=-1, initial=0.0, keepdims=True)
    return np.abs(eigs) <= ZERO_EIG_REL_TOL * top


def zeroed(sample_eigs) -> np.ndarray:
    """Sample eigenvalues with the zero_eigenvalues entries set to 0; raises
    ValueError on a negative one outside that band, DomainError on inf or NaN."""
    eigs = np.asarray(sample_eigs, dtype=float)
    if not np.isfinite(eigs).all():
        raise DomainError("sample eigenvalues must be finite")
    zero = zero_eigenvalues(eigs)
    if np.any((eigs < 0) & ~zero):
        raise ValueError("sample eigenvalues must be >= 0")
    return np.where(zero, 0.0, eigs)


def shrink_spectrum(sample_eigs, solution: StieltjesSolution) -> np.ndarray:
    """delta of each sample eigenvalue, a spectrum or a stack of them (one row
    each), in input order: the zero eigenvalues (zero_eigenvalues) map to
    delta(0).  Raises as zeroed.  Working set: the output, zeroed's copy of
    the input and one block of delta."""
    return delta(zeroed(sample_eigs), solution)


def shrink_inverse_spectrum(sample_eigs, solution: StieltjesSolution) -> np.ndarray:
    """psi of each sample eigenvalue, the eigenvalues of the corrected
    inverse covariance; zero eigenvalues map to psi(0), as in
    shrink_spectrum."""
    return psi(zeroed(sample_eigs), solution)


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

    Normal equations with limiting moments: mean sample eigenvalue M1, mean
    square M2 + M1^2/gamma, and cross term M2.  Their solution is
    b = Var_H / (Var_H + M1^2/gamma) and a = M1 (1 - b); exactly (c, 0) for
    H = delta_c.  Var_H is summed per atom and segment about M1, so it does
    not cancel as M2 - M1^2 does when the spread of H is small against M1.
    """
    m1 = spectrum_mod.moment(spec, 1)
    aw, at, sw, lo, hi, _ = spec.columns
    var = float(np.sum(aw * (at - m1) ** 2)
                + np.sum(sw * (((lo + hi) / 2 - m1) ** 2 + (hi - lo) ** 2 / 12)))
    b = var / (var + m1 * m1 / gamma)
    return m1 * (1.0 - b), b


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
    """delta and psi on lambda_grid, the grid if None; DomainError for another spec."""
    solution._check(spec)
    if lambda_grid is None:
        lambda_grid = solution.grid
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    d0 = delta_zero(solution) if solution.gamma < 1 else None
    p0 = psi_zero(solution) if solution.gamma < 1 else None
    return ShrinkageCurve(
        lambda_grid=lambda_grid,
        delta=delta(lambda_grid, solution),
        psi=psi(lambda_grid, solution),
        delta_zero=d0, psi_zero=p0, gamma=solution.gamma)


def delta_cumulative(xs, solution: StieltjesSolution):
    """The nondecreasing limit curve x -> integral of delta over dF up to x."""
    return solution.f_integral(xs, delta(solution.grid, solution),
                               delta_zero(solution))


def psi_cumulative(xs, solution: StieltjesSolution):
    """The limit curve x -> integral of psi over dF up to x."""
    return solution.f_integral(xs, psi(solution.grid, solution),
                               psi_zero(solution))


def moment_residuals(solution: StieltjesSolution, spec: PopulationSpectrum
                     ) -> tuple[float, float]:
    """Conservation gaps (covariance, inverse): the F-integral of each
    correction curve, the zero atom included, minus the H-moment it must
    reproduce, int tau dH and int 1/tau dH.  On a solve_density grid the
    gaps are at rounding level (see StieltjesSolution.f_integral); the CLI
    enforces MOMENT_GAP_TOL.  DomainError if spec is not the solution's."""
    solution._check(spec)
    top = solution.grid[-1]
    return (delta_cumulative(top, solution) - spectrum_mod.moment(spec, 1),
            psi_cumulative(top, solution) - spectrum_mod.moment(spec, -1))
