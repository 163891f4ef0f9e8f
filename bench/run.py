"""Benchmark of mpshrink: one command for every workload.

    python3 bench/run.py --workload {limit,prial,eigvec,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The package is used from ``src`` of that
checkout; nothing is installed.  Each workload runs in a fresh worker
process whose BLAS thread count is fixed before numpy is imported.  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  Full records, including the
thread count in effect, go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("limit", "prial", "eigvec", "cli")

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3      # set-up is timed in this many fresh processes
TIME_LIMIT_S = 170.0   # whole command, all worker processes included


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker in its own process group; return its last JSON line."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "mpshrink", "__init__.py")):
        print(f"no mpshrink package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(RESULTS, exist_ok=True)
    env = worker_env()
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--root", ROOT, "--results", RESULTS]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(base + ["--setup-only"], env, deadline))
        result = run_worker(base + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], env, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    values = result["values"]
    setup_samples = [s["setup_s"] for s in setups] + [values["setup_s"]]
    values["setup_s"] = statistics.median(setup_samples)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"worker reported no value for {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples=setup_samples,
                  blas_threads_env=BLAS_THREADS, python=sys.version.split()[0])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
