"""Run one workload in this process and print its metrics.

Started by ``run.py``, which pins BLAS to one thread and puts the checkout's
``src`` first on the path before this process imports numpy. The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "loop_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# Every run completes at least this many operations, even past --seconds, so
# that medians have samples and trace counts cover a fixed set of operations.
MIN_OPS = 3
CALIBRATION_REPEATS = 5


def calibration_ms() -> float:
    """Median time of a fixed kernel, 200 dense 225x225 solves. Information
    on host speed only; no metric is scaled by it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((225, 225)) + 225 * np.eye(225)
    b = rng.standard_normal(225)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        for _ in range(200):
            np.linalg.solve(a, b)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load1_start": os.getloadavg()[0],
        "calibration_ms": calibration_ms(),
    }


class Run:
    """Operations of one workload run, with their checks."""

    def __init__(self, workload, seed: int, out_root: Path):
        self.workload = workload
        self.refs = workloads.load_references(workload)
        self.indices = workloads.op_indices(workload, seed)
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.results: list = []

    def op(self, index: int):
        """Run and check one operation; None when it raised or failed its check."""
        self.attempted += 1
        out_dir = self.out_root / str(self.attempted)
        try:
            result = workloads.run_op(self.workload, index, out_dir)
            problems = workloads.check_op(self.workload, result, self.refs)
            result.bytes = workloads.bytes_written(out_dir)
            # Keep only the scalars, so that peak RSS does not grow with the
            # number of operations a run completes.
            result.records, result.worst_case = [], None
        except Exception as exc:  # an operation that raised is a counted failure
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"CHECK FAILED op {index}: {problem}", file=sys.stderr)
            return None
        return result


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics with tracing off."""
    start = time.perf_counter()
    while run.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        result = run.op(next(run.indices))
        if result is not None:
            run.results.append(result)
    done = run.results
    if not done:
        raise RuntimeError("no operation passed its checks")
    return {
        "run_s": statistics.median(r.wall_s for r in done),
        "setup_s": statistics.median(r.setup_s for r in done),
        "loop_steps_per_s": sum(r.steps for r in done) / sum(r.loop_s for r in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - run.failed / run.attempted,
    }


def measure_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics from traced operations. Each traced operation has
    an untraced twin on the same seed triple, run in alternating order; the
    median traced-minus-untraced wall time is the tracing overhead."""
    tracer = tracing.Tracer()
    traced_ops: dict = {}
    overhead_ms = []
    start = time.perf_counter()
    pair = 0
    while pair < MIN_OPS or time.perf_counter() - start < seconds:
        index = next(run.indices)
        walls = {}
        for traced in ((True, False) if pair % 2 == 0 else (False, True)):
            if traced:
                with tracer.installed(index):
                    result = run.op(index)
            else:
                result = run.op(index)
            if result is not None:
                walls[traced] = result.wall_s
                if traced:
                    traced_ops[index] = result
        if len(walls) == 2:
            overhead_ms.append(1e3 * (walls[True] - walls[False]))
        pair += 1
    tracer.ops = {op: spans for op, spans in tracer.ops.items() if op in traced_ops}
    if not traced_ops:
        raise RuntimeError("no traced operation passed its checks")
    tracer.write(spans_path)
    count_ops = list(traced_ops)[:MIN_OPS]
    return tracing.per_layer_metrics(tracer, traced_ops, count_ops, overhead_ms)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)

    env = environment()
    out_base = args.root / ".perfbench_out"
    out_base.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_base))
    run = Run(workloads.WORKLOADS[args.workload], args.seed, out_root)
    try:
        if args.trace:
            spans_path = out_base / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = measure_traced(run, args.seconds, spans_path)
            units = tracing.PER_LAYER
        else:
            metrics = measure(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    env["load1_end"] = os.getloadavg()[0]

    failed = run.failed
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} operations, {failed} failed "
          f"(fail_frac {failed / run.attempted:.4g})")
    if not args.trace:
        print(f"#   run_s over n={len(run.results)} operations")
    if args.trace:
        print(f"#   spans written to {spans_path}")
    for name, value in metrics.items():
        print(f"#   {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
