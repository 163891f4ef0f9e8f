from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from mpshrink import cli, shrinkage, simulate, spectrum


def _write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in fh if line.strip()])
    return header, rows


D1 = {"atoms": [[1.0, 1.0]], "segments": []}
UNIF56 = {"atoms": [], "segments": [[1.0, 5.0, 6.0]]}
MIX = {"atoms": [[0.2, 1.0], [0.4, 3.0], [0.4, 10.0]], "segments": []}
MANIFEST_KEYS = {"command", "config_path", "output_paths", "seed", "version",
                 "duration_s", "mc_workers", "blas_threads", "numpy_version",
                 "python_version"}


def test_density_matches_closed_form(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "gammas": [2], "grid": {"n": 1200}})
    out = tmp_path / "out"
    assert cli.main(["density", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "density_gamma2.csv")
    assert header == ["lambda", "m_re", "m_im", "density"]
    lam, dens = rows[:, 0], rows[:, 3]
    a, b = oracles.point_mass_edges(2.0)
    interior = (lam > a + 0.01) & (lam < b - 0.01)
    expected = oracles.point_mass_density(lam[interior], 2.0)
    assert np.max(np.abs(dens[interior] - expected)) <= 1e-6
    manifest = json.loads((out / "density.manifest.json").read_text())
    assert str(out / "density_gamma2.csv") in manifest["output_paths"]


def test_density_rejects_gamma_one(tmp_path, capsys):
    cfg = _write_config(tmp_path, "cfg.json", {"spectrum": D1, "gammas": [1]})
    out = tmp_path / "out"
    assert cli.main(["density", "--config", cfg, "--out", str(out)]) == 1
    assert "gamma = 1" in capsys.readouterr().err
    assert not (out / "density.manifest.json").exists()


def test_density_usage_errors(tmp_path):
    out = str(tmp_path / "out")
    empty = _write_config(tmp_path, "empty.json",
                          {"spectrum": D1, "gammas": []})
    assert cli.main(["density", "--config", empty, "--out", out]) == 1
    nospec = _write_config(tmp_path, "nospec.json", {"gammas": [2]})
    assert cli.main(["density", "--config", nospec, "--out", out]) == 1
    assert cli.main(["density", "--config", str(tmp_path / "missing.json"),
                     "--out", out]) == 1
    badgrid = _write_config(tmp_path, "badgrid.json",
                            {"spectrum": D1, "gammas": [2], "grid": {"n": 1}})
    assert cli.main(["density", "--config", badgrid, "--out", out]) == 1


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1


@pytest.mark.parametrize("command,doc,extra", [
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "entry_law": "gaussian"},
     []),
    ("simulate", {"spectrum": MIX, "N": 1, "p": 2}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30}, ["--reps", "0"]),
    ("density", {"spectrum": D1, "gammas": [2], "grid": 50}, []),
    ("density", {"spectrum": {"segments": [[1.0, 6.0, 5.0]]}, "gammas": [2]},
     []),
    ("density", {"spectrum": [1, 2], "gammas": [2]}, []),
    ("density", {"spectrum": {"atoms": 5}, "gammas": [2]}, []),
    ("density", {"spectrum": D1, "gammas": 2}, []),
    ("density", {"spectrum": D1, "gammas": ["a"]}, []),
    ("density", {"spectrum": D1, "gammas": [0]}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "sweep_N": 5}, []),
    ("simulate", {"spectrum": MIX, "N": "x", "p": 30}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 0}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "reps": "x"}, []),
    ("kernel", {"spectrum": D1, "gammas": [2], "t_points": "x"}, []),
    ("kernel", {"spectrum": D1, "gammas": [2], "l": "x"}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "delta_points": "x"}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30,
                  "lambda_bins": ["a", 1.0]}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30,
                  "assert_nonlinear_min": "x"}, []),
    ("density", [D1, [2]], []),
    ("density", {"spectrum": {"atoms": [[1.0, float("nan")]]}, "gammas": [2]},
     []),
    ("density", {"spectrum": {"segments": [[1.0, 5.0, float("inf")]]},
                 "gammas": [2]}, []),
    # a number as text or a boolean where a number goes, a fraction where a
    # count goes, a negative seed: read as 20, 40, 1 and 7 before, or a
    # numpy traceback at the seed
    ("simulate", {"spectrum": MIX, "N": "20", "p": 40}, []),
    ("simulate", {"spectrum": MIX, "N": 20, "p": 40.7}, []),
    ("simulate", {"spectrum": MIX, "N": 20, "p": 40, "reps": True}, []),
    ("simulate", {"spectrum": MIX, "N": 20, "p": 40, "seed": 7.9}, []),
    ("simulate", {"spectrum": MIX, "N": 20, "p": 40, "seed": -1}, []),
    ("simulate", {"spectrum": MIX, "N": 20, "p": 40}, ["--seed", "-1"]),
    ("simulate", {"spectrum": MIX, "N": 20, "p": 40, "sweep_N": [20.5]}, []),
    ("density", {"spectrum": D1, "gammas": ["2"]}, []),
    ("density", {"spectrum": D1, "gammas": [True]}, []),
    ("density", {"spectrum": D1, "gammas": [2], "grid": {"n": 300.9}}, []),
    ("density", {"spectrum": {"atoms": [["0.2", 1.0], [0.8, 3.0]]},
                 "gammas": [2]}, []),
    ("kernel", {"spectrum": D1, "gammas": [2], "t_points": 7.5}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "delta_points": 1.5}, []),
    # an unknown output name: ignored before, with a manifest and no file
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "outputs": ["lossses"]}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "outputs": [7]}, []),
    # an unknown key: read as absent before, so kernel ran at its default
    # gammas, simulate at 100 replications, and the spectrum was empty (exit
    # 2) or another spectrum than the one meant
    ("kernel", {"spectrum": D1, "gamma": [5]}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "rep": 3}, []),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "grid": {"n": 5}}, []),
    ("density", {"spectrum": D1, "gammas": [2], "grid": {"m": 50}}, []),
    ("kernel", {"spectrum": D1, "gammas": [2],
                "cumulative": {"lambdas": [1.0], "taus": [1.0], "tau": [2.0]}},
     []),
    ("density", {"spectrum": {"atom": [[1.0, 1.0]]}, "gammas": [2]}, []),
    ("density", {"spectrum": {"atoms": [[1.0, 1.0]],
                              "segment": [[1.0, 5.0, 6.0]]}, "gammas": [2]},
     []),
], ids=["entry_law", "N", "reps", "grid", "segment", "spectrum_list",
        "spectrum_atoms", "gammas_number", "gammas_text", "gammas_zero",
        "sweep_N", "N_text", "p_zero", "reps_text", "t_points", "l",
        "delta_points", "lambda_bins", "assert_min", "top_level_list",
        "atom_nan", "segment_inf", "N_number_text", "p_fraction",
        "reps_boolean", "seed_fraction", "seed_negative", "seed_flag_negative",
        "sweep_N_fraction", "gammas_number_text", "gammas_boolean",
        "grid_fraction", "weight_text", "t_points_fraction",
        "delta_points_fraction", "outputs_misspelt", "outputs_number",
        "kernel_gamma_key", "simulate_rep_key", "simulate_grid_key",
        "grid_key", "cumulative_key", "spectrum_atom_key",
        "spectrum_segment_key"])
def test_config_errors_are_usage_errors(tmp_path, capsys, command, doc, extra):
    cfg = _write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)] + extra) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (out / f"{command}.manifest.json").exists()


@pytest.mark.parametrize("command,doc", [
    ("density", {"spectrum": D1, "gammas": [2, 1]}),
    ("simulate", {"spectrum": MIX, "N": 15, "p": 30, "outputs": ["overlap"]}),
    ("kernel", {"spectrum": D1, "gammas": [2],
                "cumulative": {"lambdas": [1.0]}}),
    # p = round(5 * 21/20) = 5: the sweep size has p = N
    ("simulate", {"spectrum": MIX, "N": 20, "p": 21, "sweep_N": [5]}),
], ids=["gamma_one", "overlap_bins", "cumulative_taus", "sweep_gamma_one"])
def test_config_is_read_before_the_first_solve(tmp_path, monkeypatch, command,
                                               doc):
    calls = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise cli.UsageError(f"{name} ran")
        return record

    monkeypatch.setattr(cli.stieltjes_mod, "solve_density",
                        spy("solve_density"))
    monkeypatch.setattr(cli.simulate_mod, "run_prial", spy("run_prial"))
    cfg = _write_config(tmp_path, "cfg.json", doc)
    assert cli.main([command, "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 1
    assert calls == []


@pytest.mark.parametrize("spec", [{"atoms": [[0.9, 1.0]]},
                                  {"atoms": [[1.0, 0.0]]},
                                  {"atoms": [[float("nan"), 1.0]]}],
                         ids=["mass", "support", "nan_weight"])
def test_spectrum_faults_stay_numeric(tmp_path, capsys, spec):
    cfg = _write_config(tmp_path, "cfg.json", {"spectrum": spec, "gammas": [2]})
    out = tmp_path / "out"
    assert cli.main(["density", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numeric failure")
    assert not (out / "density.manifest.json").exists()


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    from mpshrink.errors import NoConvergence

    def boom(*args, **kwargs):
        raise NoConvergence("forced failure at z=1+0.0001j", residual=1e-3)

    monkeypatch.setattr(cli.stieltjes_mod, "solve_density", boom)
    cfg = _write_config(tmp_path, "cfg.json", {"spectrum": D1, "gammas": [2]})
    out = tmp_path / "out"
    assert cli.main(["density", "--config", cfg, "--out", str(out)]) == 2
    assert "forced failure" in capsys.readouterr().err
    assert not (out / "density.manifest.json").exists()


def test_shrink_moment_gap_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.shrinkage_mod, "moment_residuals",
                        lambda *args: (2e-5, 0.0))
    cfg = _write_config(tmp_path, "cfg.json", {"spectrum": MIX, "gammas": [2]})
    out = tmp_path / "out"
    assert cli.main(["shrink", "--config", cfg, "--out", str(out)]) == 2
    assert "moment conservation violated" in capsys.readouterr().err
    assert not (out / "shrink.manifest.json").exists()


def test_kernel_point_mass_constant(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "gammas": [2], "grid": {"n": 1200},
                         "t_points": 7})
    out = tmp_path / "out"
    assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "kernel_gamma2.csv")
    assert header == ["l", "t", "phi"]
    assert np.allclose(rows[:, 2], 1.0, atol=1e-5)
    meta = json.loads((out / "kernel_gamma2.meta.json").read_text())
    assert abs(meta["h_integral"] - 1.0) <= 1e-3


def test_kernel_uniform_spectrum(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": UNIF56, "gammas": [2],
                         "grid": {"n": 1600}, "t_points": 200})
    out = tmp_path / "out"
    assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(out / "kernel_gamma2.csv")
    vals = rows[:, 2]
    assert np.all(vals >= 0)
    meta = json.loads((out / "kernel_gamma2.meta.json").read_text())
    assert abs(meta["h_integral"] - 1.0) <= 1e-3
    # single-peaked over t
    d = np.sign(np.diff(vals))
    d = d[d != 0]
    assert np.sum(np.abs(np.diff(d)) > 0) <= 1


def test_shrink_point_mass(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "gammas": [2], "grid": {"n": 1200}})
    out = tmp_path / "out"
    assert cli.main(["shrink", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "shrink_gamma2.csv")
    assert header == ["lambda", "delta", "psi", "linear_baseline"]
    lam = rows[:, 0]
    a, b = oracles.point_mass_edges(2.0)
    interior = (lam > a + 0.01) & (lam < b - 0.01)
    assert np.allclose(rows[interior, 1], 1.0, atol=1e-5)
    assert np.allclose(rows[interior, 2], 1.0, atol=1e-5)
    summary = json.loads((out / "shrink_gamma2.json").read_text())
    assert abs(summary["moment_gap_cov"]) <= shrinkage.MOMENT_GAP_TOL
    assert "delta_zero" not in summary


def test_shrink_gamma_below_one_reports_zero_values(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "gammas": [0.5], "grid": {"n": 1200}})
    out = tmp_path / "out"
    assert cli.main(["shrink", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "shrink_gamma0p5.json").read_text())
    assert summary["delta_zero"] == pytest.approx(1.0, abs=1e-9)
    assert summary["psi_zero"] == pytest.approx(1.0, abs=1e-9)


def test_shrink_segment_near_zero(tmp_path):
    # U[0.01, 10] at gamma = 2 failed the moment check (inv = 1.7e-4) while
    # its integral of 1/tau dH was taken by Gauss-Legendre nodes
    cfg = _write_config(tmp_path, "cfg.json", {
        "spectrum": {"atoms": [], "segments": [[1.0, 0.01, 10.0]]},
        "gammas": [2]})
    out = tmp_path / "out"
    assert cli.main(["shrink", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "shrink_gamma2.json").read_text())
    assert abs(summary["moment_gap_inv"]) <= shrinkage.MOMENT_GAP_TOL


def test_simulate_roundtrip_and_determinism(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": MIX, "N": 15, "p": 30, "reps": 25,
                         "seed": 5})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "simulate_report.json").read_bytes()
    b2 = (out2 / "simulate_report.json").read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    rep = doc["reports"][0]["report"]
    assert rep["prial_sample"] == 0.0
    assert rep["prial_oracle"] == 100.0


def test_simulate_assert_failure_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": MIX, "N": 15, "p": 30, "reps": 10,
                         "seed": 5, "assert_nonlinear_min": 101.0})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--assert"]) == 3


def test_simulate_assert_nonlinear_not_above_linear(tmp_path, capsys):
    # for Sigma = I linear shrinkage is exact (PRIAL 100), so the nonlinear
    # estimator cannot beat it, whatever the minimum PRIAL
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "N": 15, "p": 30, "reps": 8,
                         "seed": 5, "assert_nonlinear_min": 0.0})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--assert"]) == 3
    assert "not above linear baseline" in capsys.readouterr().err
    assert not (out / "simulate.manifest.json").exists()


def test_simulate_empirical_delta_output(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": MIX, "N": 15, "p": 30, "reps": 8,
                         "seed": 5, "outputs": ["delta"], "delta_points": 11})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "simulate_report.json").read_text())
    delta = doc["reports"][0]["report"]["empirical_delta"]
    x, value = np.array(delta["x"]), np.array(delta["value"])
    assert len(x) == len(value) == 11 and x[0] == 0.0
    assert np.all(np.diff(value) >= 0.0) and value[0] == 0.0
    # the d_i sum to Tr Sigma: the last value counts every eigenvalue, also
    # those of the N = 15 sample above x[-1], 1.05 times the limiting top edge
    config = simulate.SimulationConfig(N=15, p=30, spec=spectrum.from_json(MIX), reps=8)
    trace = np.mean(config.population_diag)
    assert np.all(np.isfinite(x)) and abs(value[-1] - trace) <= 1e-12 * trace

def test_kernel_explicit_l_value(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "gammas": [2], "grid": {"n": 1200},
                         "t_points": 4, "l": 1.0})
    out = tmp_path / "out"
    assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_csv(out / "kernel_gamma2.csv")
    assert np.allclose(rows[:, 0], 1.0)
    assert np.allclose(rows[:, 2], 1.0, atol=1e-6)


def test_kernel_cumulative_dump(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "gammas": [2], "grid": {"n": 1200},
                         "t_points": 5,
                         "cumulative": {"lambdas": [1.0, 50.0],
                                        "taus": [0.5, 1.0, 50.0]}})
    out = tmp_path / "out"
    assert cli.main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "cumulative_gamma2.csv")
    assert header == ["lambda", "tau", "Phi"]
    table = {(r[0], r[1]): r[2] for r in rows}
    assert table[(1.0, 0.5)] == 0.0          # below the population support
    assert abs(table[(50.0, 50.0)] - 1.0) <= 1e-12
    assert table[(1.0, 1.0)] <= table[(50.0, 1.0)] + 1e-12


def test_simulate_optional_csv_dumps(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": MIX, "N": 15, "p": 30, "reps": 8,
                         "seed": 5, "outputs": ["losses", "overlap"],
                         "lambda_bins": [0.0, 5.0, 100.0],
                         "tau_bins": [0.5, 1.5, 10.5]})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "losses_N15.csv")
    assert header == ["rep", "loss_nonlinear", "loss_linear", "loss_sample"]
    assert rows.shape == (8, 4)
    header, rows = _read_csv(out / "overlap_bins_N15.csv")
    assert header[:4] == ["lambda_lo", "lambda_hi", "tau_lo", "tau_hi"]
    assert np.all(rows[:, 6] > 0)


def test_density_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": D1, "gammas": [2], "grid": {"n": 1200}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["density", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["density", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "density_gamma2.csv").read_bytes() == \
        (out2 / "density_gamma2.csv").read_bytes()


def test_simulate_seed_flag_overrides(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": MIX, "N": 15, "p": 30, "reps": 10,
                         "seed": 5})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1),
                     "--seed", "6"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "simulate_report.json").read_bytes() != \
        (out2 / "simulate_report.json").read_bytes()


@pytest.mark.parametrize("command", ["density", "kernel", "shrink"])
@pytest.mark.parametrize("option", [["--seed", "3"], ["--reps", "10"],
                                    ["--assert"]])
def test_simulation_options_only_on_simulate(tmp_path, command, option):
    cfg = _write_config(tmp_path, "cfg.json", {"spectrum": D1, "gammas": [2]})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]
                    + option) == 1
    assert not (out / f"{command}.manifest.json").exists()


def test_simulate_manifest_records_seed_in_effect(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": MIX, "N": 10, "p": 20, "reps": 4,
                         "seed": 5})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2),
                     "--seed", "6"]) == 0
    for out, seed in ((out1, 5), (out2, 6)):
        manifest = json.loads((out / "simulate.manifest.json").read_text())
        assert manifest["seed"] == seed
    manifest = json.loads((out1 / "simulate.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS


@pytest.mark.parametrize("command,doc", [
    ("density", {"spectrum": D1, "gammas": [2]}),
    ("kernel", {"spectrum": D1, "gammas": [2], "t_points": 3}),
    ("shrink", {"spectrum": D1, "gammas": [2]}),
])
def test_manifest_keys_without_simulation(tmp_path, command, doc):
    cfg = _write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / f"{command}.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["seed"] is None and manifest["mc_workers"] is None
    assert manifest["command"] == command and manifest["config_path"] == cfg
    assert all(os.path.exists(p) for p in manifest["output_paths"])


def test_manifest_records_runtime(tmp_path, monkeypatch):
    # the Monte-Carlo threads have exited when the run ends, so the manifest
    # is where the worker count and the BLAS setting it read are recorded
    for var in simulate.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    docs = {"simulate": {"spectrum": MIX, "N": 10, "p": 20, "reps": 4},
            "density": {"spectrum": MIX, "gammas": [2]}}
    for command, doc in docs.items():
        cfg = _write_config(tmp_path, f"{command}.json", doc)
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / f"{command}.manifest.json").read_text())
        assert manifest["blas_threads"] == "1"
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()
        expected = simulate.mc_workers(4) if command == "simulate" else None
        assert manifest["mc_workers"] == expected


def test_runtime_imports_numpy_only():
    # scipy is a test dependency only; importing it would also cost most of
    # the start-up time of every CLI process
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import mpshrink, mpshrink.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.stdout.strip() == "[]"


def test_runtime_does_not_import_numpy_polynomial():
    # the Gauss-Legendre nodes are built on first use, and no CLI command
    # uses them: importing numpy.polynomial would only slow each start-up
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import mpshrink.cli, sys; print([m for m in sys.modules "
            "if m.split('.')[:2] == ['numpy', 'polynomial']])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.stdout.strip() == "[]"


def test_simulate_solves_each_size_at_its_own_gamma(tmp_path, monkeypatch):
    # p = round(N * 1.5) moves gamma to 8/5 at N = 5 and 10/7 at N = 7
    seen = []
    run_prial = cli.simulate_mod.run_prial

    def spy(config, sol):
        seen.append((config.gamma, sol.gamma))
        return run_prial(config, sol)

    monkeypatch.setattr(cli.simulate_mod, "run_prial", spy)
    cfg = _write_config(tmp_path, "cfg.json",
                        {"spectrum": MIX, "N": 20, "p": 30, "reps": 4,
                         "sweep_N": [5, 7, 20]})
    assert cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 0
    assert seen == [(8 / 5, 8 / 5), (10 / 7, 10 / 7), (1.5, 1.5)]
