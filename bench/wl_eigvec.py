"""Workload ``eigvec``: the paper's eigenvector objects.

Per round (five operations, so that the median operation time falls in the
middle of one operation's group rather than between two):
* ``overlap``: empirical_overlap against average_overlap over decile x atom
  bins (204040, gamma = 2, N = 100, complex entries, 200 replications), and
  phi_cumulative on a lambda x tau grid;
* ``resolvent``: the Monte-Carlo weighted resolvent trace, computed here from
  ``generate`` eigensystems, against theta_g for g in {1, tau, 1/tau,
  1[tau < 3]};
* ``zgrid/<spectrum>``: solve_mF, theta_k, theta_g and theta_inv on a dense
  upper-half-plane grid for 204040, unif56 and d1.

The limiting solution at gamma = 2 is solved once during set-up, so the eta
ladder runs only there; the timed part is the Im z > 0 companion solve, the
overlap and functionals layers and the Python loops of empirical_overlap.
"""

from __future__ import annotations

import numpy as np

import reference
from common import SPECTRA, Op, require, spectrum_of

NOMINAL_ROUND_S = 2.5
GAMMA = 2.0

OVERLAP_N, OVERLAP_REPS = 100, 200
OVERLAP_MIN_COUNT = 50          # expected pairs for a bin to be checked
OVERLAP_MIN_BINS = 25
TAU_EDGES = (0.5, 1.5, 2.5, 3.5, 9.5, 10.5)
ATOM_COLUMNS = (0, 2, 4)        # (0.5, 1.5], (2.5, 3.5], (9.5, 10.5]

RESOLVENT_N, RESOLVENT_REPS = 100, 100
RESOLVENT_Z = np.array([0.5 + 0.5j, 1.0 + 0.1j, 2.0 + 0.5j, 5.0 + 1.0j,
                        12.0 + 1.0j, 20.0 + 2.0j])
INDICATOR_AT = 3.0

# Monte-Carlo results must lie within this many standard errors of the
# limit.  Over 25 fresh seeds the largest gap seen was 3.6 SE (30 overlap
# bins) and 3.4 SE (48 resolvent components); 5 SE keeps a fresh seed passing.
SE_LIMIT = 5.0

ZGRID_RE_MAX = {"204040": 26.0, "unif56": 20.0, "d1": 3.5}
ZGRID_RE, ZGRID_IM = 60, 10     # grid points along Re z and along log Im z
RECURSION_TOL = 1e-8
CLOSED_FORM_TOL = 1e-8

PHI_LAMBDAS = 40
PHI_TAUS = (0.5, 1.0, 2.0, 3.0, 6.0, 10.0, 11.0)
PHI_TOP_TOL = 1e-4


def _zgrid(name: str) -> np.ndarray:
    re = np.linspace(0.02, ZGRID_RE_MAX[name], ZGRID_RE)
    im = np.logspace(-3.0, 0.5, ZGRID_IM)
    return (re[None, :] + 1j * im[:, None]).ravel()


def setup(ctx):
    from mpshrink import spectrum, stieltjes
    specs = {name: spectrum_of(spectrum, name) for name in SPECTRA}
    spec = specs["204040"]
    sol = stieltjes.solve_density(spec, GAMMA)
    top = max(hi for _, hi in sol.support)
    # lambda deciles of the limiting law; tau bins isolate each atom
    inner = np.interp(np.arange(1, 10) / 10.0, sol.cdf(sol.grid), sol.grid)
    lam_edges = np.concatenate([[0.0], inner, [2.0 * top]])
    bins = []
    for a in range(len(lam_edges) - 1):
        f_mass = float(sol.cdf(lam_edges[a + 1]) - sol.cdf(lam_edges[a]))
        for b in ATOM_COLUMNS:
            h_mass = (spectrum.cdf(spec, TAU_EDGES[b + 1])
                      - spectrum.cdf(spec, TAU_EDGES[b]))
            if OVERLAP_REPS * OVERLAP_N ** 2 * f_mass * h_mass >= OVERLAP_MIN_COUNT:
                bins.append((a, b))
    return {"specs": specs, "sol": sol, "lam_edges": lam_edges, "bins": bins,
            "phi_lambdas": np.linspace(0.0, 1.1 * top, PHI_LAMBDAS)}


def _overlap_op(ctx, state, r: int) -> Op:
    from mpshrink import overlap, simulate
    spec, sol, lam_edges = state["specs"]["204040"], state["sol"], state["lam_edges"]
    config = simulate.SimulationConfig(
        N=OVERLAP_N, p=int(GAMMA * OVERLAP_N), spec=spec, reps=OVERLAP_REPS,
        seed=ctx.seed_for(r, 0), entry_law="complex-gaussian")

    def run():
        table = simulate.empirical_overlap(config, lam_edges, TAU_EDGES)
        limits = {(a, b): overlap.average_overlap(
            lam_edges[a], lam_edges[a + 1], TAU_EDGES[b], TAU_EDGES[b + 1],
            sol, spec) for a, b in state["bins"]}
        cumulative = np.array([[overlap.phi_cumulative(lam, tau, sol, spec)
                                for tau in PHI_TAUS] for lam in state["phi_lambdas"]])
        return table, limits, cumulative

    def check(result) -> dict:
        table, limits, cumulative = result
        require(np.all(np.diff(cumulative, axis=0) >= 0.0),
                "Phi decreases along lambda")
        require(np.all(np.diff(cumulative, axis=1) >= 0.0),
                "Phi decreases along tau")
        require(abs(cumulative[-1, -1] - 1.0) <= PHI_TOP_TOL,
                f"Phi at the top corner is {cumulative[-1, -1]!r}")
        require(len(limits) >= OVERLAP_MIN_BINS,
                f"only {len(limits)} decile x atom bins checked")
        gaps = [abs(table.mean[k] - v) / table.std_error[k] for k, v in limits.items()]
        worst = float(np.max(gaps))
        require(np.isfinite(worst) and worst <= SE_LIMIT,
                f"overlap bin {worst:.2f} SE from the limit")
        return {"overlap.bin_gap_se_max": worst}

    return Op("overlap", run, check)


def _weights(taus: np.ndarray) -> np.ndarray:
    """g in {1, tau, 1/tau, 1[tau < 3]} at the population eigenvalues."""
    return np.array([np.ones_like(taus), taus, 1.0 / taus,
                     (taus < INDICATOR_AT).astype(float)])


def _resolvent_op(ctx, state, r: int) -> Op:
    from mpshrink import functionals, simulate, stieltjes
    spec = state["specs"]["204040"]
    config = simulate.SimulationConfig(
        N=RESOLVENT_N, p=int(GAMMA * RESOLVENT_N), spec=spec,
        reps=RESOLVENT_REPS, seed=ctx.seed_for(r, 1),
        entry_law="complex-gaussian")

    def run():
        draws = [simulate.generate(config, k) for k in range(config.reps)]
        ms = stieltjes.solve_mF(RESOLVENT_Z, spec, GAMMA)
        weights = (functionals.flat(), functionals.power(1),
                   functionals.reciprocal(),
                   functionals.indicator_below(INDICATOR_AT))
        limit = np.array([[functionals.theta_g(complex(z), g, spec, GAMMA, m=m)
                           for z, m in zip(RESOLVENT_Z, ms)] for g in weights])
        return draws, limit

    def check(result) -> dict:
        draws, limit = result
        traces = np.array([reference.resolvent_trace(
            d.eigenvalues, d.eigenvectors, _weights(d.population_diag),
            RESOLVENT_Z) for d in draws])
        mean = traces.mean(axis=0)
        root_n = np.sqrt(len(draws))
        gap_re = np.abs(mean.real - limit.real) * root_n / traces.real.std(axis=0, ddof=1)
        gap_im = np.abs(mean.imag - limit.imag) * root_n / traces.imag.std(axis=0, ddof=1)
        worst = float(max(gap_re.max(), gap_im.max()))
        require(np.isfinite(worst) and worst <= SE_LIMIT,
                f"resolvent trace {worst:.2f} SE from theta_g")
        return {"functionals.mc_resolvent_gap_se": worst}

    return Op("resolvent", run, check)


def _zgrid_op(state, name: str) -> Op:
    from mpshrink import functionals, stieltjes
    spec = state["specs"][name]
    zs = _zgrid(name)

    def run():
        ms = stieltjes.solve_mF(zs, spec, GAMMA)
        powers = [functionals.power(k) for k in (1, 2, 3)]
        flat, recip = functionals.flat(), functionals.reciprocal()
        rows = []
        for z, m in zip(zs, ms):
            z = complex(z)
            rows.append(
                [functionals.theta_k(z, k, spec, GAMMA, m=m) for k in (1, 2, 3)]
                + [functionals.theta_g(z, g, spec, GAMMA, m=m) for g in powers]
                + [functionals.theta_inv(z, spec, GAMMA, m=m),
                   functionals.theta_g(z, recip, spec, GAMMA, m=m),
                   functionals.theta_g(z, flat, spec, GAMMA, m=m)])
        return ms, np.array(rows)

    def check(result) -> dict:
        ms, rows = result
        recursion = float(np.max(np.abs(rows[:, 0:3] - rows[:, 3:6])))
        require(recursion <= RECURSION_TOL,
                f"theta_k differs from quadrature by {recursion:.3e}")
        inverse = float(np.max(np.abs(rows[:, 6] - rows[:, 7])))
        require(inverse <= RECURSION_TOL,
                f"theta_inv differs from quadrature by {inverse:.3e}")
        acc = {"functionals.recursion_gap_max": max(recursion, inverse)}
        if name == "d1":
            # g(1) = 1 for each of g = 1, tau and 1/tau
            closed = reference.d1_theta(zs, 1.0, GAMMA)[:, None]
            got = np.column_stack([rows[:, 8], rows[:, 3], rows[:, 7]])
            gap = float(max(np.max(np.abs(got - closed)),
                            np.max(np.abs(ms - reference.d1_m(zs, GAMMA)))))
            require(gap <= CLOSED_FORM_TOL,
                    f"d1 theta_g differs from the closed form by {gap:.3e}")
        return acc

    return Op(f"zgrid/{name}", run, check)


def round_ops(ctx, state, r: int) -> list[Op]:
    return ([_overlap_op(ctx, state, r), _resolvent_op(ctx, state, r)]
            + [_zgrid_op(state, name) for name in ("204040", "unif56", "d1")])
