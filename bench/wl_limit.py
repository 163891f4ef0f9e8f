"""Workload ``limit``: one operation is one case of the case matrix.

Spectra d1, 204040 and unif56 with gamma in {0.5, 2, 10, 100}.  Each case
solves the limiting law, reads its support, tabulates the shrinkage curve on
the support, takes the moment residuals, evaluates the kernel normalisation
at seeded interior points and, for gamma < 1, the companion value at zero.
Nearly all of the time is the eta ladder and edge bisection in stieltjes.
"""

from __future__ import annotations

import numpy as np

import reference
from common import GAMMAS, SPECTRA, Op, require, spectrum_of, support_mask

NOMINAL_ROUND_S = 38.0
INTERIOR_POINTS = 24
INTERIOR_MARGIN = 0.02   # share of an interval's width kept clear of its edges
M_AT_PROBE = 200_001

DENSITY_TOL = 1e-6       # d1 density against the closed form
DENSITY_INSET = 0.01     # ... at grid points in [a + inset, b - inset]
EDGE_TOL = 1e-4          # edges against the x(mu) reference
MASS_TOL = 1e-4
MOMENT_TOL = 1e-3
KERNEL_TOL = 1e-3
COMPANION_TOL = 1e-10    # relative residual of the companion equation


def setup(ctx):
    from mpshrink import spectrum
    return {name: spectrum_of(spectrum, name) for name in SPECTRA}


def _interior(edges, u: np.ndarray) -> np.ndarray:
    """Map uniform draws u in [0, 1) onto the support intervals, in proportion
    to their widths, keeping INTERIOR_MARGIN of each width clear of its edges."""
    lo = np.array([a for a, _ in edges])
    width = np.array([b - a for a, b in edges])
    start = np.concatenate([[0.0], np.cumsum(width)[:-1]])
    pos = u * width.sum()
    k = np.searchsorted(start, pos, side="right") - 1
    frac = (pos - start[k]) / width[k]
    return lo[k] + width[k] * (INTERIOR_MARGIN + (1.0 - 2.0 * INTERIOR_MARGIN) * frac)


def _case(spec, name: str, gamma: float, u: np.ndarray) -> Op:
    from mpshrink import overlap, shrinkage, stieltjes

    def run():
        sol = stieltjes.solve_density(spec, gamma)
        edges = stieltjes.support_edges(sol)
        curve = shrinkage.build_shrinkage_curve(
            sol, spec, sol.grid[support_mask(sol.grid, edges)])
        gaps = shrinkage.moment_residuals(sol, spec)
        points = _interior(edges, u)
        norms = np.array([overlap.phi_h_integral(l, sol, spec) for l in points])
        mu0 = stieltjes.companion_zero(spec, gamma) if gamma < 1 else None
        return sol, edges, curve, gaps, norms, mu0

    def check(result) -> dict:
        sol, edges, curve, gaps, norms, mu0 = result
        doc = SPECTRA[name]
        acc = {}
        ref = reference.support_edges(doc["atoms"], doc["segments"], gamma)
        require(len(ref) == len(edges),
                f"{len(edges)} support intervals, reference has {len(ref)}")
        acc["stieltjes.edge_err_max"] = float(np.max(np.abs(
            np.asarray(edges) - np.asarray(ref))))
        require(acc["stieltjes.edge_err_max"] <= EDGE_TOL,
                f"edge error {acc['stieltjes.edge_err_max']:.3e}")
        if name == "d1":
            a, b = reference.d1_edges(gamma)
            inner = (sol.grid >= a + DENSITY_INSET) & (sol.grid <= b - DENSITY_INSET)
            acc["stieltjes.density_err_max"] = float(np.max(np.abs(
                sol.density[inner] - reference.d1_density(sol.grid[inner], gamma))))
            require(acc["stieltjes.density_err_max"] <= DENSITY_TOL,
                    f"d1 density error {acc['stieltjes.density_err_max']:.3e}")
        acc["stieltjes.mass_gap_max"] = abs(sol.total_mass() - 1.0)
        require(acc["stieltjes.mass_gap_max"] <= MASS_TOL,
                f"mass gap {acc['stieltjes.mass_gap_max']:.3e}")
        probe = np.linspace(sol.grid[0], sol.grid[-1], M_AT_PROBE)
        acc["stieltjes.m_at_neg_imag_max"] = max(
            0.0, -float(np.min(sol.m_at(probe).imag)))
        acc["shrinkage.moment_gap_max"] = max(abs(gaps[0]), abs(gaps[1]))
        require(acc["shrinkage.moment_gap_max"] <= MOMENT_TOL,
                f"moment gaps {gaps[0]:.3e} / {gaps[1]:.3e}")
        require(np.all(np.isfinite(curve.delta)) and np.all(np.isfinite(curve.psi)),
                "shrinkage curve is not finite")
        acc["overlap.kernel_norm_gap_max"] = float(np.max(np.abs(norms - 1.0)))
        require(acc["overlap.kernel_norm_gap_max"] <= KERNEL_TOL,
                f"kernel normalisation gap {acc['overlap.kernel_norm_gap_max']:.3e}")
        if gamma < 1:
            resid = reference.companion_equation_gap(mu0, doc["atoms"],
                                                     doc["segments"], gamma)
            require(abs(resid) <= COMPANION_TOL * gamma,
                    f"companion_zero residual {resid:.3e}")
        return acc

    return Op(f"{name}/gamma={gamma:g}", run, check)


def round_ops(ctx, specs, r: int) -> list[Op]:
    ops = []
    for i, name in enumerate(SPECTRA):
        for j, gamma in enumerate(GAMMAS):
            rng = np.random.default_rng(ctx.seed_for(r, i, j))
            ops.append(_case(specs[name], name, gamma,
                             rng.random(INTERIOR_POINTS)))
    return ops
