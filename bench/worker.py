"""One workload process: set-up, timed rounds, checks, metrics.

Started by run.py with the BLAS thread count fixed in its environment and
``src`` on PYTHONPATH.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from common import CheckFailed, Context  # noqa: E402

# Accuracy figures from the checks.  A workload that does not produce one
# reports 0.  PRIAL is averaged over operations; the others are maxima.
ACCURACY = (
    "stieltjes.edge_err_max", "stieltjes.density_err_max",
    "stieltjes.mass_gap_max", "stieltjes.m_at_neg_imag_max",
    "functionals.recursion_gap_max", "functionals.mc_resolvent_gap_se",
    "overlap.kernel_norm_gap_max", "overlap.bin_gap_se_max",
    "shrinkage.moment_gap_max",
    "simulate.prial_nl_N20", "simulate.prial_nl_N100", "simulate.prial_nl_N400",
)
AVERAGED = ("simulate.prial_nl_",)


def thread_count() -> int:
    """Threads of this process, read from /proc/self/task."""
    return len(os.listdir("/proc/self/task"))


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def combine_accuracy(records: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for acc in records:
        for name, value in acc.items():
            values.setdefault(name, []).append(float(value))
    return {name: (statistics.fmean(v) if name.startswith(AVERAGED) else max(v))
            for name, v in values.items()}


def layer_metrics(tracers, ctx, accuracy: dict, wall_s: float, threads: int) -> dict:
    """Per-layer figures over the whole traced process (set-up included)."""
    table = spans.span_table(tracers)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    counts: dict[str, float] = {}
    for tr in tracers:
        for name, value in tr.counts.items():
            counts[name] = counts.get(name, 0) + value
    lookups = counts.get("spectrum.cache_hits", 0) + counts.get("spectrum.cache_misses", 0)
    cli = ctx.extra.get("cli", {})
    out = {
        "stieltjes.solve_density_s": total("stieltjes.solve_density"),
        "stieltjes.boundary_values_s": total("stieltjes.boundary_values"),
        "stieltjes.solve_mF_s": total("stieltjes.solve_mF"),
        "stieltjes.companion_zero_s": total("stieltjes.companion_zero"),
        "stieltjes.m_at_s": total("stieltjes.StieltjesSolution.m_at"),
        "stieltjes.m_at_calls": calls("stieltjes.StieltjesSolution.m_at"),
        "stieltjes.grid_points": counts.get("stieltjes.grid_points", 0),
        "stieltjes.invalid_points": counts.get("stieltjes.invalid_points", 0),
        "spectrum.quadrature_nodes_calls": calls("spectrum.quadrature_nodes"),
        "spectrum.quadrature_cache_hit_ratio":
            counts.get("spectrum.cache_hits", 0) / lookups if lookups else 0.0,
        "spectrum.population_eigenvalues_s": total("spectrum.population_eigenvalues"),
        "functionals.theta_s": spans.outermost_time(
            tracers, [f"functionals.{n}" for n in
                      ("theta_g", "theta_1", "theta_k", "theta_inv")]),
        "overlap.phi_cumulative_s": total("overlap.phi_cumulative"),
        "overlap.phi_cumulative_calls": calls("overlap.phi_cumulative"),
        "overlap.phi_h_integral_s": total("overlap.phi_h_integral"),
        "shrinkage.shrink_spectrum_s": total("shrinkage.shrink_spectrum"),
        "shrinkage.curve_s": total("shrinkage.build_shrinkage_curve"),
        "simulate.generate_s": total("simulate.generate"),
        "simulate.eigh_s": total(spans.EIGH),
        "simulate.run_prial_self_s": table.get("simulate.run_prial", {}).get("self_s", 0.0),
        "simulate.empirical_overlap_s": total("simulate.empirical_overlap"),
        "simulate.draws": calls("simulate.generate"),
        "cli.startup_s": sum(row["startup_s"] for row in cli.values()),
        "cli.output_bytes": sum(row["output_bytes"] for row in cli.values()),
        "bench.spans": sum(len(tr.names) for tr in tracers),
        "bench.traced_wall_s": wall_s,
        "bench.threads": threads,
    }
    for command in ("density", "kernel", "shrink", "simulate"):
        out[f"cli.{command}_s"] = cli.get(command, {}).get("wall_s", 0.0)
    for layer, seconds in spans.layer_self_times(table).items():
        out[f"{layer}.self_s"] = seconds
    for name in ACCURACY:
        out[name] = accuracy.get(name, 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--results", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    import mpshrink
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(mpshrink.__file__).startswith(src + os.sep):
        raise SystemExit(f"mpshrink imported from {mpshrink.__file__}, not {src}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ctx = Context(root=args.root, seed=args.seed, tracer=tracer,
                  workdir=os.path.join(args.results, "work", tag))
    workload = importlib.import_module(f"wl_{args.workload}")
    state = workload.setup(ctx)
    setup_s = time.perf_counter() - START
    threads = thread_count()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "threads": threads}))
        return 0

    rounds = max(1, round(args.seconds / workload.NOMINAL_ROUND_S))
    ops: list[dict] = []
    for r in range(rounds):
        for op in workload.round_ops(ctx, state, r):
            entry = {"round": r, "name": op.name}
            ops.append(entry)
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # an operation that raises counts as failed
                entry["time_s"] = time.perf_counter() - t0
                entry["error"] = traceback.format_exc(limit=3)
                continue
            entry["time_s"] = time.perf_counter() - t0
            with ctx.paused():
                try:
                    entry["accuracy"] = op.check(result)
                except CheckFailed as exc:
                    entry["check_failed"] = str(exc)
                except Exception:  # e.g. an output file the program did not write
                    entry["check_failed"] = traceback.format_exc(limit=3)
    threads = max(threads, thread_count())

    op_times = [e["time_s"] for e in ops]
    failures = [e for e in ops if "error" in e or "check_failed" in e]
    accuracy = combine_accuracy([e["accuracy"] for e in ops if "accuracy" in e])
    values = {
        "setup_s": setup_s,
        "wall_s": float(sum(op_times)),
        "op_p50_s": float(np.median(op_times)),
        "peak_rss_mib": peak_rss_mib(),
    }
    if tracer is not None:
        spans.quadrature_cache_counts(tracer)
        tracers = [tracer]
        for path in ctx.extra.get("span_files", []):
            with open(path) as fh:
                tracers.append(spans.Tracer.load(json.load(fh)))
        values.update(layer_metrics(tracers, ctx, accuracy, values["wall_s"],
                                    threads))
        tracer.write(os.path.join(args.results, f"{tag}.spans.tsv.gz"))
    for e in failures:
        print(f"{e['name']} (round {e['round']}): "
              f"{e.get('error') or 'check failed: ' + e['check_failed']}",
              file=sys.stderr)
    print(json.dumps({
        "attempted": len(ops),
        "failed": len(failures),
        "correct": not any("check_failed" in e for e in ops),
        "threads": threads,
        "rounds": rounds,
        "ops": ops,
        "accuracy": accuracy,
        "values": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
