"""Command-line front end: one subcommand per reproducible experiment.

Every command reads a JSON config, writes CSV/JSON outputs into --out, and
finishes by writing a manifest file (the success marker).  Exit codes:
0 ok, 1 usage/config error, 2 numeric failure, 3 assertion failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import overlap as overlap_mod
from . import shrinkage as shrinkage_mod
from . import simulate as simulate_mod
from . import spectrum as spectrum_mod
from . import stieltjes as stieltjes_mod
from .errors import DomainError, MPShrinkError

USAGE_ERROR = 1
NUMERIC_ERROR = 2
ASSERTION_ERROR = 3


class UsageError(Exception):
    pass


@dataclass
class RunManifest:
    command: str
    config_path: str
    output_paths: list[str]
    seed: int | None
    version: str
    duration_s: float
    mc_workers: int | None  # threads of the Monte-Carlo loops (simulate)
    blas_threads: str | None  # the BLAS thread setting mc_workers read
    numpy_version: str
    python_version: str

    def write(self, path: str) -> None:
        _write_json(path, asdict(self))


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _object(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object, got {doc!r}")
    return doc


def _list(item, least: int = 0):
    """The kind of a list of `least` or more entries, each made by item."""
    def kind(doc) -> list:
        if not isinstance(doc, list) or len(doc) < least:
            raise TypeError(f"expected a list of {least}+ items, got {doc!r}")
        return [item(v) for v in doc]
    return kind


def _count(lo: int):
    """The kind of an integer >= lo."""
    def kind(doc) -> int:
        if int(doc) < lo:
            raise ValueError(f"needs an integer >= {lo}, got {doc!r}")
        return int(doc)
    return kind


def _get(cfg: dict, key: str, kind, default=...):
    """cfg[key] converted by kind, or default if key is absent; a missing key
    with no default, or a TypeError or ValueError of kind, is a UsageError."""
    if key not in cfg:
        if default is ...:
            raise UsageError(f"config missing '{key}'")
        return default
    try:
        return kind(cfg[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad '{key}': {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return _object(json.load(fh))
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc


def _tag(gamma: float) -> str:
    return ("%g" % gamma).replace(".", "p")


def _limits(cfg: dict, gammas=...):
    """The spectrum of cfg and its (gamma, limiting solution) pairs, read at
    the call; each solve runs as its pair is drawn."""
    spec = _get(cfg, "spectrum", spectrum_mod.from_json)
    # a gamma outside stieltjes.check_gamma raises DomainError (exit 1)
    gammas = _get(cfg, "gammas", _list(
        lambda g: stieltjes_mod.check_gamma(float(g)), 1), gammas)
    n = _get(_get(cfg, "grid", _object, {}), "n", _count(2), 2000)
    return spec, ((g, stieltjes_mod.solve_density(spec, g, num_points=n))
                  for g in gammas)


def cmd_density(cfg: dict, out_dir: str, args) -> list[str]:
    outputs = []
    for gamma, sol in _limits(cfg)[1]:
        path = os.path.join(out_dir, f"density_gamma{_tag(gamma)}.csv")
        _write_csv(path, ["lambda", "m_re", "m_im", "density"],
                   ((l, mb.real, mb.imag, d) for l, mb, d in
                    zip(sol.grid, sol.m_breve, sol.density)))
        outputs.append(path)
    return outputs


def cmd_kernel(cfg: dict, out_dir: str, args) -> list[str]:
    spec, solutions = _limits(cfg, [2.0, 10.0, 100.0])
    n_t = _get(cfg, "t_points", _count(0), 400)
    l_cfg = _get(cfg, "l", lambda v: v if v == "sup" else float(v), "sup")
    cum = _get(cfg, "cumulative", _object, None)
    if cum is not None:
        lam_vals = _get(cum, "lambdas", _list(float, 1))
        tau_vals = _get(cum, "taus", _list(float, 1))
    outputs = []
    for gamma, sol in solutions:
        l = sol.support[-1][1] if l_cfg == "sup" else l_cfg
        t_grid = np.linspace(spec.h1, spec.h2, n_t)
        vals = overlap_mod.phi(l, t_grid, sol)
        path = os.path.join(out_dir, f"kernel_gamma{_tag(gamma)}.csv")
        _write_csv(path, ["l", "t", "phi"],
                   ((l, t, v) for t, v in zip(t_grid, vals)))
        norm = overlap_mod.phi_h_integral(l, sol, spec)
        meta_path = os.path.join(out_dir, f"kernel_gamma{_tag(gamma)}.meta.json")
        _write_json(meta_path, {"gamma": gamma, "l": l, "h_integral": norm})
        outputs.extend([path, meta_path])
        if cum is not None:
            cum_path = os.path.join(out_dir,
                                    f"cumulative_gamma{_tag(gamma)}.csv")
            _write_csv(cum_path, ["lambda", "tau", "Phi"],
                       ((lv, tv,
                         overlap_mod.phi_cumulative(lv, tv, sol, spec))
                        for lv in lam_vals for tv in tau_vals))
            outputs.append(cum_path)
    return outputs


def cmd_shrink(cfg: dict, out_dir: str, args) -> list[str]:
    spec, solutions = _limits(cfg)
    outputs = []
    for gamma, sol in solutions:
        lam = sol.grid[~sol.clip_to_support(sol.grid)[1]]  # in the support
        curve = shrinkage_mod.build_shrinkage_curve(sol, spec, lam)
        a_lin, b_lin = shrinkage_mod.linear_shrinkage_limit(spec, gamma)
        path = os.path.join(out_dir, f"shrink_gamma{_tag(gamma)}.csv")
        _write_csv(path, ["lambda", "delta", "psi", "linear_baseline"],
                   ((l, d, p, a_lin + b_lin * l) for l, d, p in
                    zip(curve.lambda_grid, curve.delta, curve.psi)))
        cov_gap, inv_gap = shrinkage_mod.moment_residuals(sol, spec)
        print(f"gamma={gamma}: moment conservation gaps "
              f"cov={cov_gap:.3e} inv={inv_gap:.3e}")
        if max(abs(cov_gap), abs(inv_gap)) > shrinkage_mod.MOMENT_GAP_TOL:
            raise MPShrinkError(
                f"moment conservation violated at gamma={gamma}: "
                f"cov={cov_gap:.3e} inv={inv_gap:.3e}")
        summary = {"gamma": gamma, "moment_gap_cov": cov_gap,
                   "moment_gap_inv": inv_gap}
        if gamma < 1:
            summary["delta_zero"] = curve.delta_zero
            summary["psi_zero"] = curve.psi_zero
        json_path = os.path.join(out_dir, f"shrink_gamma{_tag(gamma)}.json")
        _write_json(json_path, summary)
        outputs.extend([path, json_path])
    return outputs


def cmd_simulate(cfg: dict, out_dir: str, args) -> list[str]:
    spec = _get(cfg, "spectrum", spectrum_mod.from_json)
    reps = args.reps if args.reps is not None else _get(cfg, "reps", int, 100)
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    args.seed = seed  # the manifest records the seed in effect
    args.mc_workers = simulate_mod.mc_workers(reps)  # and the loop threads
    n, p = _get(cfg, "N", _count(1)), _get(cfg, "p", _count(1))
    ratio = stieltjes_mod.check_gamma(p / n)
    law = _get(cfg, "entry_law", str, "real-gaussian")
    try:
        configs = [simulate_mod.SimulationConfig(
            N=n_val, p=round(n_val * ratio), spec=spec, reps=reps, seed=seed,
            entry_law=law) for n_val in _get(cfg, "sweep_N", _list(int), [n])]
        for config in configs:  # p = round(N * ratio) can equal N
            stieltjes_mod.check_gamma(config.gamma)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    wanted = _get(cfg, "outputs", _list(str), [])
    n_delta = _get(cfg, "delta_points", _count(0), 101)
    lam_bins = _get(cfg, "lambda_bins", _list(float, 2), [])
    tau_bins = _get(cfg, "tau_bins", _list(float, 2), [])
    if "overlap" in wanted and not (lam_bins and tau_bins):
        raise UsageError("'overlap' output needs 'lambda_bins' and 'tau_bins'")
    min_prial = _get(cfg, "assert_nonlinear_min", float, 90.0)
    # one solution per gamma: p = round(N * ratio) can move gamma off the ratio
    sols = {g: stieltjes_mod.solve_density(spec, g)
            for g in {config.gamma for config in configs}}
    outputs, reports = [], []
    for config in configs:
        sol = sols[config.gamma]
        report = simulate_mod.run_prial(config, sol)
        doc = report.to_dict()
        if "delta" in wanted:
            xs = np.linspace(0.0, 1.05 * sol.support[-1][1], n_delta)
            # the last value counts every eigenvalue, also those above xs[-1]
            upto = xs.copy()
            upto[-1:] = np.inf
            emp = simulate_mod.empirical_delta(config, upto)
            doc["empirical_delta"] = {"x": list(map(float, xs)),
                                      "value": list(map(float, emp))}
        if "losses" in wanted:
            loss_path = os.path.join(out_dir, f"losses_N{config.N}.csv")
            _write_csv(loss_path,
                       ["rep", "loss_nonlinear", "loss_linear", "loss_sample"],
                       ((r, a, b, c) for r, (a, b, c) in enumerate(
                           zip(report.loss_nonlinear, report.loss_linear,
                               report.loss_sample))))
            outputs.append(loss_path)
        if "overlap" in wanted:
            table = simulate_mod.empirical_overlap(config, lam_bins, tau_bins)
            ov_path = os.path.join(out_dir, f"overlap_bins_N{config.N}.csv")
            _write_csv(ov_path,
                       ["lambda_lo", "lambda_hi", "tau_lo", "tau_hi",
                        "mean", "std_error", "count"],
                       ((lam_bins[a], lam_bins[a + 1], tau_bins[b],
                         tau_bins[b + 1], table.mean[a, b],
                         table.std_error[a, b], table.count[a, b])
                        for a in range(len(lam_bins) - 1)
                        for b in range(len(tau_bins) - 1)
                        if not table.empty[a, b]))
            outputs.append(ov_path)
        reports.append((config.N, doc))
    path = os.path.join(out_dir, "simulate_report.json")
    _write_json(path, {"reports": [{"N": n, "report": d} for n, d in reports]})
    outputs.append(path)
    if args.do_assert:
        for n_val, doc in reports:
            if doc["prial_nonlinear"] < min_prial:
                raise AssertionError(
                    f"N={n_val}: nonlinear PRIAL {doc['prial_nonlinear']:.2f} "
                    f"< {min_prial}")
            if doc["prial_nonlinear"] <= doc["prial_linear"]:
                raise AssertionError(
                    f"N={n_val}: nonlinear PRIAL not above linear baseline")
    return outputs


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); usage errors are 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mpshrink",
                     description="limiting spectral laws, eigenvector overlap "
                                 "and nonlinear shrinkage for large sample "
                                 "covariance matrices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("density", cmd_density), ("kernel", cmd_kernel),
                     ("shrink", cmd_shrink), ("simulate", cmd_simulate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--reps", type=int, default=None)
            p.add_argument("--assert", dest="do_assert", action="store_true")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        outputs = args.func(cfg, args.out, args)
        manifest = RunManifest(
            command=args.command, config_path=args.config,
            output_paths=outputs, seed=getattr(args, "seed", None),
            version=__version__, duration_s=time.perf_counter() - t0,
            mc_workers=getattr(args, "mc_workers", None),
            blas_threads=simulate_mod.blas_threads_setting(),
            numpy_version=np.__version__,
            python_version=platform.python_version())
        manifest.write(os.path.join(args.out, f"{args.command}.manifest.json"))
        return 0
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return ASSERTION_ERROR
    except MPShrinkError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
