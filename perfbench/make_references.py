"""Store the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py [workload ...]

Runs every pool index and the held-out index of each named workload (all by
default) with BLAS pinned to one thread, and writes
``perfbench/references/<workload>.npz``. Regenerate only when the program's
outputs are meant to change; the stored files are the definition of a
correct output.
"""
from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    # Before numpy is imported, as run.py does for the benchmark's workers.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np

    import workloads

    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        arrays = {}
        with tempfile.TemporaryDirectory() as tmp:
            for index in range(workload.held_out + 1):
                result = workloads.run_op(workload, index, Path(tmp) / str(index))
                arrays.update(workloads.reference_arrays(workload, result))
                statuses = [r.summary["status"] for r in result.records]
                print(f"{name} index {index}: {statuses} steps {result.steps} "
                      f"wall {result.wall_s:.3f} s", flush=True)
        np.savez_compressed(workloads.REFERENCE_DIR / f"{name}.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
