"""Workload ``cli``: the four README examples, each its own process.

``python -m mpshrink.cli`` runs density, kernel, shrink and
``simulate --reps 1000 --seed <seed> --assert`` on the README configs, the
way a user runs them.  This is the only workload through the cli layer:
config parsing, the per-gamma loops, the 17-digit CSV writer, manifests and
process start-up.  The README example passes ``--seed 7``; the benchmark
passes a seed derived from its own.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import reference
from common import SPECTRA, Op, require

NOMINAL_ROUND_S = 15.0
PROCESS_TIMEOUT_S = 60.0
SIM_REPS = 1000

CONFIGS = {
    "density": {"spectrum": SPECTRA["d1"], "gammas": [2, 10], "grid": {"n": 2000}},
    "kernel": {"spectrum": SPECTRA["unif56"], "gammas": [2]},
    "shrink": {"spectrum": {"atoms": SPECTRA["204040"]["atoms"]}, "gammas": [2]},
    "simulate": {"spectrum": {"atoms": SPECTRA["204040"]["atoms"]},
                 "N": 20, "p": 40, "assert_nonlinear_min": 90},
}
DENSITY_TOL = 1e-6
DENSITY_INSET = 0.01
KERNEL_TOL = 1e-3
MOMENT_TOL = 1e-3


def setup(ctx):
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    os.makedirs(ctx.workdir)
    paths = {}
    for name, cfg in CONFIGS.items():
        paths[name] = os.path.join(ctx.workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh)
    return paths


def _read_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float)


def _check_density(out: str) -> dict:
    worst = 0.0
    for gamma in CONFIGS["density"]["gammas"]:
        data = _read_csv(os.path.join(out, f"density_gamma{gamma:g}.csv"))
        lam, dens = data[:, 0], data[:, 3]
        a, b = reference.d1_edges(gamma)
        inner = (lam >= a + DENSITY_INSET) & (lam <= b - DENSITY_INSET)
        worst = max(worst, float(np.max(np.abs(
            dens[inner] - reference.d1_density(lam[inner], gamma)))))
    require(worst <= DENSITY_TOL, f"density CSV off the closed form by {worst:.3e}")
    return {"stieltjes.density_err_max": worst}


def _check_kernel(out: str) -> dict:
    with open(os.path.join(out, "kernel_gamma2.meta.json")) as fh:
        gap = abs(json.load(fh)["h_integral"] - 1.0)
    require(gap <= KERNEL_TOL, f"kernel h_integral off 1 by {gap:.3e}")
    return {"overlap.kernel_norm_gap_max": gap}


def _check_shrink(out: str) -> dict:
    with open(os.path.join(out, "shrink_gamma2.json")) as fh:
        doc = json.load(fh)
    gap = max(abs(doc["moment_gap_cov"]), abs(doc["moment_gap_inv"]))
    require(gap <= MOMENT_TOL, f"shrink moment gap {gap:.3e}")
    return {"shrinkage.moment_gap_max": gap}


def _check_simulate(out: str) -> dict:
    with open(os.path.join(out, "simulate_report.json")) as fh:
        report = json.load(fh)["reports"][0]["report"]
    return {"simulate.prial_nl_N20": report["prial_nonlinear"]}


CHECKS = {"density": _check_density, "kernel": _check_kernel,
          "shrink": _check_shrink, "simulate": _check_simulate}


def _command_op(ctx, config_path: str, name: str, r: int) -> Op:
    out = os.path.join(ctx.workdir, f"round{r}", name)
    args = [name, "--config", config_path, "--out", out]
    if name == "simulate":
        args += ["--reps", str(SIM_REPS), "--seed", str(ctx.seed_for(r)),
                 "--assert"]
    if ctx.tracer is None:
        argv = [sys.executable, "-m", "mpshrink.cli"] + args
    else:
        spans_path = os.path.join(ctx.workdir, f"round{r}-{name}.spans.json")
        argv = [sys.executable, os.path.join(ctx.root, "bench", "cli_traced.py"),
                spans_path] + args
        ctx.extra.setdefault("span_files", []).append(spans_path)
    stats = ctx.extra.setdefault("cli", {})

    def run():
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        return proc, time.perf_counter() - t0

    def check(result) -> dict:
        proc, wall = result
        require(proc.returncode == 0,
                f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        manifest_path = os.path.join(out, f"{name}.manifest.json")
        require(os.path.exists(manifest_path), f"{name} wrote no manifest")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        row = stats.setdefault(name, {"wall_s": 0.0, "startup_s": 0.0,
                                      "output_bytes": 0})
        row["wall_s"] += wall
        row["startup_s"] += wall - manifest["duration_s"]
        row["output_bytes"] += sum(os.path.getsize(p)
                                   for p in manifest["output_paths"])
        return CHECKS[name](out)

    return Op(name, run, check)


def round_ops(ctx, paths, r: int) -> list[Op]:
    return [_command_op(ctx, paths[name], name, r) for name in CONFIGS]
