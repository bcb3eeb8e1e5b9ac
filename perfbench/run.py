"""Benchmark of dosmpc's closed-loop runs.

    python3 perfbench/run.py --workload noise-sweep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Run from the root of a checkout. Each workload runs in its own worker
process, with BLAS pinned to one thread and the checkout's ``src`` first on
the path. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run; ``--workload all`` runs every workload in
both modes. The last line of a single-workload run is its JSON result. The
exit code is non-zero when an output check fails or the program is missing.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("noise-sweep", "attack-long")
# A worker that has not finished by then is killed; the run then fails.
TIMEOUT_S = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> int:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT)]
    try:
        return subprocess.run(cmd, env=worker_env(), timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"worker for {workload} exceeded {TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dosmpc" / "__init__.py").is_file():
        print(f"no dosmpc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_worker(args.workload, args.seed, args.seconds, args.trace)
    codes = [run_worker(workload, args.seed, args.seconds, trace)
             for workload in WORKLOADS for trace in (0, 1)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
