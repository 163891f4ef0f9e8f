"""Quick tests of the benchmark's own references, tracing and entry point."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import quad

import reference
import spans
import worker
from common import SPECTRA, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0, 100.0])
@pytest.mark.parametrize("c", [1.0, 2.5])
def test_inverse_map_edges_reproduce_d1_closed_form(gamma, c):
    (lo, hi), = reference.support_edges([(1.0, c)], [], gamma)
    a, b = reference.d1_edges(gamma, c)
    assert abs(lo - a) <= 1e-10 and abs(hi - b) <= 1e-10


def test_inverse_map_separates_atoms_at_large_gamma():
    doc = SPECTRA["204040"]
    assert len(reference.support_edges(doc["atoms"], doc["segments"], 100.0)) == 3
    assert len(reference.support_edges(doc["atoms"], doc["segments"], 2.0)) == 1


@pytest.mark.parametrize("mu", [-0.5, -0.1, 0.05, 3.0])
def test_segment_antiderivatives_match_quadrature(mu):
    lo, hi = 5.0, 6.0
    first, second = reference._segment_J(mu, lo, hi)
    assert first == pytest.approx(
        quad(lambda t: t / (1 + t * mu), lo, hi)[0] / (hi - lo), rel=1e-12)
    assert second == pytest.approx(
        quad(lambda t: t * t / (1 + t * mu) ** 2, lo, hi)[0] / (hi - lo), rel=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_d1_closed_forms_are_consistent(gamma):
    z = np.array([0.3 + 0.2j, 1.0 + 1e-3j, 4.0 + 2.0j])
    m = reference.d1_m(z, gamma)
    assert np.all(m.imag > 0)
    k = 1 - 1 / gamma - z * m / gamma
    assert np.allclose(m, 1.0 / (k - z), atol=1e-13)
    a, b = reference.d1_edges(gamma)
    x = np.linspace(a + 1e-3, b - 1e-3, 7)
    assert np.allclose(reference.d1_m(x + 1e-13j, gamma).imag / np.pi,
                       reference.d1_density(x, gamma), atol=1e-9)
    if gamma < 1:
        mu0 = reference.d1_companion_zero(gamma)
        assert abs(reference.companion_equation_gap(mu0, [(1.0, 1.0)], [], gamma)) < 1e-14


def test_resolvent_trace_matches_explicit_inverse():
    rng = np.random.default_rng(0)
    sigma = np.array([1.0, 2.0, 3.0, 5.0])
    x = rng.standard_normal((4, 9)) * np.sqrt(sigma)[:, None]
    s = x @ x.T / 9
    lam, u = np.linalg.eigh(s)
    zs = np.array([1.0 + 0.5j, 4.0 + 0.1j])
    g = np.array([np.ones(4), sigma, (sigma < 3).astype(float)])
    got = reference.resolvent_trace(lam, u, g, zs)
    for k in range(3):
        for i, z in enumerate(zs):
            want = np.trace(np.diag(g[k]) @ np.linalg.inv(s - z * np.eye(4))) / 4
            assert got[k, i] == pytest.approx(want, rel=1e-12)


def test_self_time_subtracts_child_spans():
    tr = spans.Tracer()
    tr.names = ["a.outer", "b.inner", "b.inner"]
    tr.starts = [0.0, 1.0, 3.0]
    tr.ends = [10.0, 2.0, 5.0]
    tr.parents = [-1, 0, 0]
    table = spans.span_table([tr])
    assert table["a.outer"]["self_s"] == pytest.approx(7.0)
    assert table["b.inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert spans.outermost_time([tr], ["a.outer", "b.inner"]) == 10.0


def test_instrument_covers_rebound_names_and_methods():
    code = textwrap.dedent("""
        import json
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
        from mpshrink import functionals, simulate, spectrum, stieltjes
        assert functionals.solve_mF is stieltjes.solve_mF
        assert simulate.solve_density is stieltjes.solve_density
        spec = spectrum.point_mass(1.0)
        stieltjes.solve_mF(1.0 + 1.0j, spec, 2.0)
        functionals.theta_g(1.0 + 1.0j, functionals.flat(), spec, 2.0)
        sol = stieltjes.boundary_values(spec, 2.0, [0.5, 1.0, 2.0],
                                        refine_edges=False)
        sol.m_at(1.0)
        print(json.dumps(sorted(set(tracer.names))))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    names = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert {"stieltjes.solve_mF", "functionals.theta_g",
            "spectrum.quadrature_nodes", "stieltjes.boundary_values",
            "stieltjes.StieltjesSolution.m_at"} <= names


def test_benchmark_json_lists_what_the_worker_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    ctx = Context(root=ROOT, seed=0, workdir=HERE)
    reported = worker.layer_metrics([spans.Tracer()], ctx, {}, 1.0, 1)
    assert {m["name"] for m in doc["per_layer"]} == set(reported)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "wall_s", "op_p50_s", "peak_rss_mib"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "limit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
