"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Per-layer metrics that must be non-zero on each workload at this commit.
NONZERO = {
    "noise-sweep": {
        "qp.solve.calls", "qp.solve.ms_p50", "qp.solve.ms_p99", "qp.solve.busy_ms",
        "qp.polished_frac", "qp.active_sets", "mpc.assembler.ms", "mpc.instance.ms",
        "mpc.extract.ms_p50", "mpc.self_ms", "controllers.solve_step.ms_p50",
        "controllers.solve_step.ms_p99", "controllers.solve_steps", "controllers.hold_steps",
        "controllers.zero_input_steps", "controllers.self_ms", "dos.generate_random.ms",
        "dos.validate_schedule.ms", "dos.validate_schedule.calls", "dos.attack_fraction",
        "data.collect_offline.ms", "data.pe_accept_ratio", "data.hankel.ms",
        "lti.simulate.ms", "experiment.prepare.ms", "experiment.loop_self_ms",
        "experiment.save.ms", "experiment.save_schedule.ms", "experiment.bytes_written",
        "qp.active_solves_frac", "trace.spans",
    },
    "attack-long": {
        "controllers.self_ms", "dos.generate_random.ms", "dos.validate_schedule.ms",
        "dos.validate_schedule.calls", "dos.generate_worst_case.ms", "dos.attack_fraction",
        "lti.synthesize_gains.ms", "experiment.prepare.ms", "experiment.loop_self_ms",
        "experiment.save.ms", "experiment.save_schedule.ms", "experiment.bytes_written",
        "trace.spans",
    },
}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", worker.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
        for name, unit in table.items():
            assert NAME.fullmatch(name) and UNIT.fullmatch(unit)


def test_workload_inputs_are_a_pure_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        def first(seed, n=workload.pool_size + 5):
            gen = workloads.op_indices(workload, seed)
            return [next(gen) for _ in range(n)]

        assert first(7) == first(7)
        assert first(7) != first(8)
        order = first(7)
        assert sorted(order[:workload.pool_size]) == list(range(workload.pool_size))
        assert workload.held_out not in order
        triples = [(c.data_seed, c.noise_seed, c.attack_seed)
                   for index in order
                   for c in workloads.configs(workload, index, Path("out"))]
        assert len(set(triples)) == len(triples)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per-layer metrics of one traced operation of each workload."""
    tmp = tmp_path_factory.mktemp("traced")
    tracer = tracing.Tracer()
    metrics = {}
    for name, workload in workloads.WORKLOADS.items():
        with tracer.installed(name):
            result = workloads.run_op(workload, 0, tmp / name)
        result.bytes = workloads.bytes_written(tmp / name)
        metrics[name] = tracing.per_layer_metrics(tracer, {name: result}, [name], [])
    return metrics


def test_traced_run_reports_each_layer_where_it_works(traced):
    for name, expected in NONZERO.items():
        assert set(traced[name]) == set(tracing.PER_LAYER)
        zero = sorted(m for m in expected if not traced[name][m] > 0)
        assert not zero, f"{name}: {zero}"
    assert all(v == 0 for m, v in traced["attack-long"].items() if m.startswith("qp."))


def test_tracer_restores_the_program():
    import dosmpc.experiment as experiment

    before = experiment.collect_offline
    tracer = tracing.Tracer()
    with tracer.installed("op"):
        assert experiment.collect_offline is not before
    assert experiment.collect_offline is before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed_matches_and_a_perturbed_record_fails(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    refs = workloads.load_references(workload)
    result = workloads.run_op(workload, workload.held_out, tmp_path)
    assert workloads.check_op(workload, result, refs) == []

    record = result.records[0]
    u = record.u.copy()
    worst = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    u[worst] *= 1 + 1e-6
    result.records[0] = replace(record, u=u)
    problems = workloads.check_op(workload, result, refs)
    assert len(problems) == 1 and "u differs" in problems[0]

    other = "ok" if record.summary["status"] == "diverged" else "diverged"
    result.records[0] = replace(record, summary=dict(record.summary, status=other))
    assert "status" in workloads.check_op(workload, result, refs)[0]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_metric_with_its_unit():
    proc = run_bench(ROOT, "--workload", "attack-long", "--seed", "3",
                     "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == worker.END_TO_END
    assert set(json.loads(lines[-2])["env"]) >= {"nproc", "blas_threads", "python", "numpy",
                                                "load1_start", "load1_end", "calibration_ms"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "noise-sweep", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
