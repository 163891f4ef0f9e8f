"""Workload ``prial``: one operation is one ``run_prial`` experiment.

Spectrum 204040 with p = 2N at N in {20, 100, 400}; the limiting solution at
gamma = 2 is solved once during set-up.  This is the estimator path: draws
(quantile eigenvalues, eigh) and shrink_spectrum lookups on random sample
eigenvalues.  The eta ladder runs only in set-up.
"""

from __future__ import annotations

from common import SPECTRA, Op, require, spectrum_of

NOMINAL_ROUND_S = 2.7
GAMMA = 2.0
SIZES = ((20, 1000), (100, 200), (400, 20))   # (N, replications)
PRIAL_FLOOR_N20 = 90.0
TRACE_REL_TOL = 1e-10


def setup(ctx):
    from mpshrink import spectrum, stieltjes
    spec = spectrum_of(spectrum, "204040")
    return spec, stieltjes.solve_density(spec, GAMMA)


def round_ops(ctx, state, r: int) -> list[Op]:
    from mpshrink import simulate
    spec, sol = state
    mean_h = sum(w * t for w, t in SPECTRA["204040"]["atoms"])
    seen: list[tuple[int, float]] = []   # (N, nonlinear PRIAL) in this round
    ops = []
    for k, (n, reps) in enumerate(SIZES):
        config = simulate.SimulationConfig(N=n, p=int(GAMMA * n), spec=spec,
                                           reps=reps, seed=ctx.seed_for(r, k))

        def run(config=config):
            return simulate.run_prial(config, sol)

        def check(report, n=n) -> dict:
            require(report.prial_sample == 0.0,
                    f"PRIAL(S) = {report.prial_sample}")
            require(report.prial_oracle == 100.0,
                    f"PRIAL(oracle) = {report.prial_oracle}")
            trace_sigma = n * mean_h
            require(report.trace_identity_max_gap <= TRACE_REL_TOL * trace_sigma,
                    f"trace identity gap {report.trace_identity_max_gap:.3e}")
            require(report.zero_count_ok, "zero-eigenvalue count is wrong")
            require(report.prial_nonlinear > report.prial_linear,
                    f"nonlinear PRIAL {report.prial_nonlinear:.3f} <= linear "
                    f"{report.prial_linear:.3f}")
            if n == 20:
                require(report.prial_nonlinear >= PRIAL_FLOOR_N20,
                        f"nonlinear PRIAL {report.prial_nonlinear:.3f} < 90")
            for n_prev, prial_prev in seen:
                require(report.prial_nonlinear >= prial_prev,
                        f"nonlinear PRIAL falls from {prial_prev:.3f} at N={n_prev}"
                        f" to {report.prial_nonlinear:.3f} at N={n}")
            seen.append((n, report.prial_nonlinear))
            return {f"simulate.prial_nl_N{n}": report.prial_nonlinear}

        ops.append(Op(f"run_prial/N={n}", run, check))
    return ops
