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


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(outputs: list[str], path: str, doc, header=None) -> None:
    """Write doc to path, as CSV rows under header (floats to 17 digits) or,
    with no header, as JSON; then record path in outputs."""
    if header is None:
        _write_json(path, doc)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in doc:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    outputs.append(path)


def _object(*keys):
    """The kind of a JSON object that holds no key but keys."""
    def kind(doc) -> dict:
        if not isinstance(doc, dict):
            raise TypeError(f"expected an object, got {doc!r}")
        unknown = doc.keys() - set(keys)
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)}, expected "
                             f"some of {list(keys)}")
        return doc
    return kind


def _list(item, least: int = 0):
    """The kind of a list of `least` or more entries, each made by item."""
    def kind(doc) -> list:
        if not isinstance(doc, list) or len(doc) < least:
            raise TypeError(f"expected a list of {least}+ items, got {doc!r}")
        return [item(v) for v in doc]
    return kind


def _number(doc) -> float:
    """A JSON number (not a string or a boolean) as a float."""
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise TypeError(f"expected a number, got {doc!r}")
    return float(doc)


def _count(lo: int):
    """The kind of a JSON integer >= lo (not a float or a boolean)."""
    def kind(doc) -> int:
        if isinstance(doc, bool) or not isinstance(doc, int):
            raise TypeError(f"expected an integer, got {doc!r}")
        if doc < lo:
            raise ValueError(f"needs an integer >= {lo}, got {doc!r}")
        return doc
    return kind


def _one_of(*names):
    """The kind of a JSON string among names."""
    def kind(doc) -> str:
        if doc not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {doc!r}")
        return doc
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


def _load_config(path: str, *keys) -> dict:
    """The config at path, a JSON object that holds no key but keys."""
    try:
        with open(path) as fh:
            return _object(*keys)(json.load(fh))
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc


def _tag(gamma: float) -> str:
    return ("%g" % gamma).replace(".", "p")


LIMIT_KEYS = ("spectrum", "gammas", "grid")  # the config keys _limits reads


def _limits(cfg: dict, gammas=...):
    """The spectrum of cfg and its (gamma, limiting solution) pairs, read at
    the call; each solve runs as its pair is drawn."""
    spec = _get(cfg, "spectrum", spectrum_mod.from_json)
    # a gamma outside stieltjes.check_gamma raises DomainError (exit 1)
    gammas = _get(cfg, "gammas", _list(
        lambda g: stieltjes_mod.check_gamma(_number(g)), 1), gammas)
    n = _get(_get(cfg, "grid", _object("n"), {}), "n", _count(2), 2000)
    return spec, ((g, stieltjes_mod.solve_density(spec, g, num_points=n))
                  for g in gammas)


def cmd_density(args) -> tuple[list[str], dict]:
    outputs = []
    for gamma, sol in _limits(_load_config(args.config, *LIMIT_KEYS))[1]:
        _emit(outputs, os.path.join(args.out, f"density_gamma{_tag(gamma)}.csv"),
              ((l, mb.real, mb.imag, d) for l, mb, d in
               zip(sol.grid, sol.m_breve, sol.density)),
              ["lambda", "m_re", "m_im", "density"])
    return outputs, {}


def cmd_kernel(args) -> tuple[list[str], dict]:
    cfg = _load_config(args.config, *LIMIT_KEYS, "t_points", "l", "cumulative")
    spec, solutions = _limits(cfg, [2.0, 10.0, 100.0])
    n_t = _get(cfg, "t_points", _count(0), 400)
    l_cfg = _get(cfg, "l", lambda v: v if v == "sup" else _number(v), "sup")
    cum = _get(cfg, "cumulative", _object("lambdas", "taus"), None)
    if cum is not None:
        lam_vals = _get(cum, "lambdas", _list(_number, 1))
        tau_vals = _get(cum, "taus", _list(_number, 1))
    outputs = []
    for gamma, sol in solutions:
        l = sol.support[-1][1] if l_cfg == "sup" else l_cfg
        t_grid = np.linspace(spec.h1, spec.h2, n_t)
        stem = os.path.join(args.out, f"kernel_gamma{_tag(gamma)}")
        _emit(outputs, stem + ".csv",
              ((l, t, v) for t, v in zip(t_grid, overlap_mod.phi(l, t_grid, sol))),
              ["l", "t", "phi"])
        _emit(outputs, stem + ".meta.json", {
            "gamma": gamma, "l": l,
            "h_integral": overlap_mod.phi_h_integral(l, sol, spec)})
        if cum is not None:
            _emit(outputs,
                  os.path.join(args.out, f"cumulative_gamma{_tag(gamma)}.csv"),
                  ((lv, tv, overlap_mod.phi_cumulative(lv, tv, sol, spec))
                   for lv in lam_vals for tv in tau_vals),
                  ["lambda", "tau", "Phi"])
    return outputs, {}


def cmd_shrink(args) -> tuple[list[str], dict]:
    spec, solutions = _limits(_load_config(args.config, *LIMIT_KEYS))
    outputs = []
    for gamma, sol in solutions:
        lam = sol.grid[~sol.clip_to_support(sol.grid)[1]]  # in the support
        curve = shrinkage_mod.build_shrinkage_curve(sol, spec, lam)
        a_lin, b_lin = shrinkage_mod.linear_shrinkage_limit(spec, gamma)
        stem = os.path.join(args.out, f"shrink_gamma{_tag(gamma)}")
        _emit(outputs, stem + ".csv",
              ((l, d, p, a_lin + b_lin * l) for l, d, p in
               zip(curve.lambda_grid, curve.delta, curve.psi)),
              ["lambda", "delta", "psi", "linear_baseline"])
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
        _emit(outputs, stem + ".json", summary)
    return outputs, {}


def cmd_simulate(args) -> tuple[list[str], dict]:
    cfg = _load_config(args.config, "spectrum", "reps", "seed", "N", "p",
                       "entry_law", "sweep_N", "outputs", "delta_points",
                       "lambda_bins", "tau_bins", "assert_nonlinear_min")
    spec = _get(cfg, "spectrum", spectrum_mod.from_json)
    reps = args.reps if args.reps is not None else _get(cfg, "reps", _count(1), 100)
    seed = args.seed if args.seed is not None else _get(cfg, "seed", _count(0), 0)
    n, p = _get(cfg, "N", _count(1)), _get(cfg, "p", _count(1))
    ratio = stieltjes_mod.check_gamma(p / n)
    law = _get(cfg, "entry_law", _one_of(*simulate_mod.ENTRY_LAWS), "real-gaussian")
    try:
        configs = [simulate_mod.SimulationConfig(
            N=n_val, p=round(n_val * ratio), spec=spec, reps=reps, seed=seed,
            entry_law=law) for n_val in _get(cfg, "sweep_N", _list(_count(1)), [n])]
        for config in configs:  # p = round(N * ratio) can equal N
            stieltjes_mod.check_gamma(config.gamma)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    wanted = _get(cfg, "outputs", _list(_one_of("delta", "losses", "overlap")), [])
    n_delta = _get(cfg, "delta_points", _count(0), 101)
    lam_bins = _get(cfg, "lambda_bins", _list(_number, 2), [])
    tau_bins = _get(cfg, "tau_bins", _list(_number, 2), [])
    if "overlap" in wanted and not (lam_bins and tau_bins):
        raise UsageError("'overlap' output needs 'lambda_bins' and 'tau_bins'")
    min_prial = _get(cfg, "assert_nonlinear_min", _number, 90.0)
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
            _emit(outputs, os.path.join(args.out, f"losses_N{config.N}.csv"),
                  ((r, a, b, c) for r, (a, b, c) in enumerate(
                      zip(report.loss_nonlinear, report.loss_linear,
                          report.loss_sample))),
                  ["rep", "loss_nonlinear", "loss_linear", "loss_sample"])
        if "overlap" in wanted:
            table = simulate_mod.empirical_overlap(config, lam_bins, tau_bins)
            _emit(outputs, os.path.join(args.out, f"overlap_bins_N{config.N}.csv"),
                  ((lam_bins[a], lam_bins[a + 1], tau_bins[b], tau_bins[b + 1],
                    table.mean[a, b], table.std_error[a, b], table.count[a, b])
                   for a in range(len(lam_bins) - 1)
                   for b in range(len(tau_bins) - 1)
                   if not table.empty[a, b]),
                  ["lambda_lo", "lambda_hi", "tau_lo", "tau_hi", "mean",
                   "std_error", "count"])
        reports.append((config.N, doc))
    _emit(outputs, os.path.join(args.out, "simulate_report.json"),
          {"reports": [{"N": n, "report": d} for n, d in reports]})
    if args.do_assert:
        for n_val, doc in reports:
            if doc["prial_nonlinear"] < min_prial:
                raise AssertionError(
                    f"N={n_val}: nonlinear PRIAL {doc['prial_nonlinear']:.2f} "
                    f"< {min_prial}")
            if doc["prial_nonlinear"] <= doc["prial_linear"]:
                raise AssertionError(
                    f"N={n_val}: nonlinear PRIAL not above linear baseline")
    # the seed in effect, and the threads of the Monte-Carlo loops
    return outputs, {"seed": seed, "mc_workers": simulate_mod.mc_workers(reps)}


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
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        outputs, fields = args.func(args)
        _write_json(os.path.join(args.out, f"{args.command}.manifest.json"), {
            "command": args.command, "config_path": args.config,
            "output_paths": outputs, "seed": None, "mc_workers": None,
            **fields, "version": __version__,
            "duration_s": time.perf_counter() - t0,
            "blas_threads": simulate_mod.blas_threads_setting(),
            "numpy_version": np.__version__,
            "python_version": platform.python_version()})
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
