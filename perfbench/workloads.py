"""Workload definitions, operations and output checks of the benchmark.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. An operation drives ``dosmpc`` only
through its public calls (``experiment.run_experiment`` with an output
directory, as ``dosmpc run`` uses, and ``dos.generate_worst_case``).

Inputs come from a fixed pool of seed triples per workload, whose outputs are
stored in ``references/``. The workload seed only permutes the pool. Once a
run has used the whole pool it continues with fresh triples past the pool, in
a fixed order. Pools are smaller than the number of operations a run
completes, so runs with different seeds time the same operations. No two
``run_experiment`` calls in one run share a triple, so a cache across calls
can hit only where a real sweep would.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dosmpc import dos, experiment

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
REL_TOL = 1e-9
# Seed offset between the calls of a noise-sweep operation: the one `sweep`
# uses between grid values, so no call reuses a pool triple.
CALL_SEED_OFFSET = 10_000

NOMINAL = experiment.ExperimentConfig(v_bar=1e-4, attack=dos.params_for_ratio(0.8841),
                                      t_sim=200, u_max=10.0)
# The default noise level, the README's robust limit and criterion 7's level.
NOISE_SWEEP_V_BARS = (1e-4, 3e-4, 1e-3)
ATTACK_LONG_PARAMS = dos.params_for_ratio(0.9142)
ATTACK_LONG_T = 5000


@dataclass(frozen=True)
class Workload:
    """A workload's name and the size of its pool of seed triples. Why each
    workload exists is recorded in BENCHMARK.json and NOTES.md."""

    name: str
    pool_size: int

    @property
    def held_out(self) -> int:
        """Pool index past the pool: stored as a reference, never run."""
        return self.pool_size


WORKLOADS = {w.name: w for w in (
    Workload("noise-sweep", 8),
    Workload("attack-long", 6),
)}


def triple(index: int) -> tuple[int, int, int]:
    """(data, noise, attack) seeds of pool index ``index``; index 0 is the
    package default (1, 2, 3)."""
    return (1 + 3 * index, 2 + 3 * index, 3 + 3 * index)


def op_indices(workload: Workload, seed: int):
    """Pool indices in the order a run with workload seed ``seed`` visits
    them: a permutation of the pool, then fresh indices past the held-out
    one. A pure function of its arguments."""
    yield from (int(i) for i in np.random.default_rng(seed).permutation(workload.pool_size))
    index = workload.held_out + 1
    while True:
        yield index
        index += 1


def configs(workload: Workload, index: int, out_dir: Path) -> list:
    """The ``run_experiment`` configurations of one operation."""
    data, noise, attack = triple(index)
    seeds = dict(data_seed=data, noise_seed=noise, attack_seed=attack)
    if workload.name == "noise-sweep":
        return [replace(NOMINAL, v_bar=v_bar, output_dir=str(out_dir / f"run{k}"),
                        **{key: s + k * CALL_SEED_OFFSET for key, s in seeds.items()})
                for k, v_bar in enumerate(NOISE_SWEEP_V_BARS)]
    return [replace(NOMINAL, attack=ATTACK_LONG_PARAMS, t_sim=ATTACK_LONG_T,
                    controller="model-based", output_dir=str(out_dir / "run0"), **seeds)]


@dataclass
class OpResult:
    """What one operation returned, with its timing split."""

    index: int
    wall_s: float
    loop_s: float
    steps: int
    records: list
    out_dir: Path
    attacked: int
    worst_case: object = None
    bytes: int = 0

    @property
    def setup_s(self) -> float:
        """Operation time outside the closed loops: schedules, offline data,
        controller build, summary and persistence."""
        return self.wall_s - self.loop_s


def run_op(workload: Workload, index: int, out_dir: Path) -> OpResult:
    """Run one operation; only calls into dosmpc sit inside the timed region."""
    calls = configs(workload, index, out_dir)
    worst = None
    records = []
    t0 = time.perf_counter()
    if workload.name == "attack-long":
        worst = dos.generate_worst_case(ATTACK_LONG_PARAMS, ATTACK_LONG_T)
        out_dir.mkdir(parents=True, exist_ok=True)
        dos.save_schedule(worst, out_dir / "worst_case.txt")
    for config in calls:
        records.append(experiment.run_experiment(config))
    wall = time.perf_counter() - t0
    loop = 0.0
    for record in records:
        if "wall_time_s" not in record.summary:
            raise KeyError("run record carries no closed-loop wall_time_s")
        loop += record.summary["wall_time_s"]
    return OpResult(index=index, wall_s=wall, loop_s=loop,
                    steps=sum(len(r) for r in records), records=records,
                    out_dir=out_dir, attacked=sum(int(r.attack.sum()) for r in records),
                    worst_case=worst)


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


# ----------------------------------------------------------------- references

def _label(index: int, call: int) -> str:
    return f"{index}.{call}"


def load_references(workload: Workload) -> dict:
    with np.load(REFERENCE_DIR / f"{workload.name}.npz", allow_pickle=False) as npz:
        return {key: npz[key] for key in npz.files}


def reference_arrays(workload: Workload, result: OpResult) -> dict:
    """Arrays stored for one operation, keyed as in the reference file."""
    arrays = {}
    for call, record in enumerate(result.records):
        label = _label(result.index, call)
        arrays[f"{label}/u"] = record.u
        arrays[f"{label}/y"] = record.y
        arrays[f"{label}/status"] = np.array(record.summary["status"])
    if result.worst_case is not None:
        arrays["worst_case"] = np.packbits(result.worst_case.indicators)
    return arrays


def _rel_inf(value: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref), initial=0.0))
    diff = float(np.max(np.abs(value - ref), initial=0.0))
    return diff / scale if scale > 0 else diff


def record_mismatch(record, refs: dict, label: str):
    """None when ``record`` matches reference ``label``: the same status, the
    same number of steps, and u and y each within REL_TOL in the relative
    infinity norm. Otherwise a one-line reason."""
    status = str(refs[f"{label}/status"])
    if record.summary.get("status") != status:
        return f"status {record.summary.get('status')!r} != reference {status!r}"
    for name in ("u", "y"):
        ref = refs[f"{label}/{name}"]
        value = getattr(record, name)
        if value.shape != ref.shape:
            return f"{name} shape {value.shape} != reference {ref.shape}"
        err = _rel_inf(value, ref)
        if not err <= REL_TOL:
            return f"{name} differs from reference by {err:.3g} relative"
    return None


def check_op(workload: Workload, result: OpResult, refs: dict) -> list[str]:
    """Every problem found in one operation's outputs; empty when correct.

    Records of pool and held-out indices must match their references. Every
    persisted directory must pass ``experiment.revalidate_record``, and every
    record must have run its full horizon unless it diverged."""
    problems = []
    for call, (config, record) in enumerate(zip(configs(workload, result.index,
                                                         result.out_dir), result.records)):
        label = _label(result.index, call)
        if f"{label}/u" in refs:
            reason = record_mismatch(record, refs, label)
            if reason is not None:
                problems.append(f"{label}: {reason}")
        elif record.summary.get("status") not in ("ok", "diverged") or (
                record.summary["status"] == "ok" and len(record) != config.t_sim):
            problems.append(f"{label}: status {record.summary.get('status')!r} "
                            f"after {len(record)} of {config.t_sim} steps")
        if not experiment.revalidate_record(config.output_dir):
            problems.append(f"{label}: persisted record fails revalidate_record")
    if result.worst_case is not None:
        packed = np.packbits(result.worst_case.indicators)
        if len(result.worst_case) != ATTACK_LONG_T or not np.array_equal(
                packed, refs["worst_case"]):
            problems.append("worst-case schedule differs from reference")
    return problems
