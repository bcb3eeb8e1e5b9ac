"""Before/after measurements of two dosmpc checkouts, written as one JSON file.

    python3 tools/bench_compare.py --parent ../parent --change . \\
        --out BENCH_qp_schur.json --pairs noise-sweep=10 attack-long=6 \\
        --seconds 40 --seed 3000 --claim noise-sweep:run_s

Every measurement runs the same way on both sides, each in its own checkout
with its own ``src`` and ``perfbench``, BLAS pinned to one thread:

- alternating pairs of ``perfbench/run.py`` runs per workload, the
  parent first on even pairs and both sides of a pair on the same seed,
  summarised by median, quartiles, the pairs the change wins and the
  median and quartiles of the per-pair change/parent ratios;
- KKT inverses (``np.linalg.inv`` calls), refined columns (columns passed
  to ``qp.Solver._refine``), warm-row pivot calls (``qp.Solver._pivots``)
  and pivot factorizations (``qp.Solver._factor``), full termination checks
  (calls of ``qp.Solver._full_check``), certified solves and working-set
  changes (the sum of ``QpSolution.iterations``) over
  noise-sweep indices 0-8, with every record checked by
  ``workloads.check_op``;
- a layer step, the tool's one timing method, in one process holding both
  checkouts' packages: each kernel is warmed up on both sides, then timed in
  adjacent pairs of samples in alternating order, as many pairs per round as
  its sample time allows, and summarised by each side's min of samples, each
  round's median per-pair change/parent ratio, and the median and quartiles
  of all pairs' ratios.
  Kernels: certified, fully checked and working-set-changing ``solve_mpc``
  calls; ``DataDrivenController.finish``; a ``ModelBasedController`` step
  with one plant step; the build (``collect_offline``, ``HankelPair``,
  ``MpcAssembler``); the default 200-step fixture run; both DoS generators
  at T = 5000 and 20000 on attack-long's parameters (ratio 0.9142) and on
  the lattice sets (kappa_f, nu_f, kappa_d, nu_d) = (1, 4, 1, 2) and
  (3, 4, 3, 4), where a level returns to its minimum once a period;
  ``validate_schedule`` on the (1, 4, 1, 2) worst case at T = 20000;
  attack-long's ``run_experiment`` (model-based, ratio 0.9142, T = 5000,
  seed triple (1, 2, 3), no output directory); and ``RunRecord.save`` at
  T = 5000. ``--layers-only`` runs this step alone,
  e.g. with one tree on both sides as an A/A check;
- records identity: a fixed grid per side: ``run_experiment`` for every
  controller kind at v_bar 1e-4, 3e-4 and 1e-3 on three seed triples, one
  noise-free (v_bar 0) data-driven and model-based run each, one
  attack-free run, one periodic run at ratio 0.2 and one T = 5000
  model-based run at ratio 0.9142; ``dosmpc collect`` at v_bar 1e-4 and
  1e-3; a sweep over N = 40, 60, where a configuration error (N = 40
  failing Assumption 6 up front) writes its message in place of
  ``sweep.csv``; a ``compare`` directory; ``dosmpc attack-check`` schedules
  at ratios 0.6, 0.8841 and 0.9142 with T 500 and 5000, random at seeds 0-2
  and ``--worst-case``; and ``dosmpc run --config`` on one grid entry's
  saved ``config.json``, whose record and summary must equal that entry's
  on the same side, or the tool exits 1 after writing its report. Each
  ``cli.main`` call writes its exit code, or the type name of the exception
  it raised, to ``exit_code.txt`` in its directory. The grid also runs each
  rejected input in ``FAULTS`` once (a malformed command line, bad ``sweep``
  values or repetitions, a negative ``attack-check`` seed, unreadable
  schedules) with its output directory outside the compared tree, so only
  its ``fault-<name>/exit_code.txt`` is compared; the report lists both
  sides' codes wherever they differ. Every file written must match byte for
  byte, apart from the ``wall_time_s`` line of each summary and the
  ``output_dir`` line of ``config.json``. For a CSV table or a JSON object
  that differs only in numbers, the report gives each differing column's (or
  key's) largest relative difference by perfbench's rule: the largest
  absolute difference over the largest absolute parent value. A file whose
  shape, status or other text differs is reported as changed;
- the Tier-1 suite, two runs per side in alternating order, each with its
  exit code, pytest's last summary line and the test calls its
  ``--durations`` block lists, with their times.

Metric directions come from the change checkout's BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
SIDES = ("parent", "change")

# Run inside a checkout: the counts the docstring lists, over noise-sweep
# indices 0-8, with every record checked against the references.
COUNTS = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import numpy as np
from dosmpc import qp
import workloads
counts = {"inverses": 0, "refine_calls": 0, "refined_columns": 0, "pivot_calls": 0,
          "pivot_factorizations": 0, "solves": 0, "certified": 0, "iterations": 0,
          "full_checks": 0}
refine, solve = qp.Solver._refine, qp.Solver.solve
def counting(key, call):
    def counted(*args):
        counts[key] += 1
        return call(*args)
    return counted
def counting_refine(self, *args):
    counts["refine_calls"] += 1
    counts["refined_columns"] += args[-1].shape[1]
    return refine(self, *args)
def counting_solve(self, *args, **kwargs):
    counts["solves"] += 1
    result = solve(self, *args, **kwargs)
    counts["certified"] += bool(result.certified)
    counts["iterations"] += result.iterations
    return result
np.linalg.inv = counting("inverses", np.linalg.inv)
qp.Solver._full_check = counting("full_checks", qp.Solver._full_check)
qp.Solver._pivots = counting("pivot_calls", qp.Solver._pivots)
qp.Solver._factor = counting("pivot_factorizations", qp.Solver._factor)
qp.Solver._refine, qp.Solver.solve = counting_refine, counting_solve
w = workloads.WORKLOADS["noise-sweep"]
refs, problems = workloads.load_references(w), []
with tempfile.TemporaryDirectory() as tmp:
    for index in range(9):
        problems += workloads.check_op(w, workloads.run_op(w, index, Path(tmp) / str(index)), refs)
counts["full_checks_per_solve"] = round(counts["full_checks"] / counts["solves"], 4)
print(json.dumps(dict(counts, records=27, problems=problems)))
"""

# The grid entry whose saved config.json is run again through ``dosmpc run``.
RERUN = "data-driven-v0.0001-triple0"

# Run anywhere, with the parent and change checkouts as arguments: both
# checkouts' src/dosmpc loaded in one process as dosmpc_parent and
# dosmpc_change, each building its kernels from its own code. A sample is
# ``reps`` calls, enough for about 0.2 ms, with the garbage collector off;
# ``reps`` is sized after WARM_S seconds of calls on each side. A round has as
# many pairs as fit BUDGET_S seconds of samples, at least MIN_PAIRS and at
# most MAX_PAIRS. Prints the report, min_us in microseconds.
LAYERS = """
import gc, importlib, importlib.util, itertools, json, logging, sys, tempfile, time
from dataclasses import replace
from functools import partial
from pathlib import Path
import numpy as np
logging.disable(logging.WARNING)
ROUNDS, BUDGET_S, MIN_PAIRS, MAX_PAIRS, WARM_S = 7, 8.0, 20, 300, 0.25
SIDES = ("parent", "change")

def load(side, root):
    init = Path(root) / "src" / "dosmpc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(f"dosmpc_{side}", init,
                                                  submodule_search_locations=[str(init.parent)])
    sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{spec.name}.{m}")
            for m in ("controllers", "data", "dos", "experiment", "lti", "mpc", "qp")}

def recorded_solves(pkg, config):
    # (assembler, init_u, init_zeta, warm, solution) of every solve of a run
    calls, solve = [], pkg["controllers"].solve_mpc
    def recording(assembler, init_u, init_zeta, warm=None, solver=None):
        sol = solve(assembler, init_u, init_zeta, warm=warm, solver=solver)
        calls.append((assembler, init_u.copy(), init_zeta.copy(), warm, sol))
        return sol
    pkg["controllers"].solve_mpc = recording
    try:
        pkg["experiment"].run_experiment(config)
    finally:
        pkg["controllers"].solve_mpc = solve
    return calls

def replay(pkg, call, warmups):
    # a fresh Solver in the form the side's qp.Solver takes: one built for the
    # assembler's problem, or, before solvers were bound to one, none
    assembler, init_u, init_zeta, warm, _ = call
    problem = getattr(assembler, "problem", None)
    solver = pkg["qp"].Solver() if problem is None else pkg["qp"].Solver(problem)
    kernel = lambda: pkg["mpc"].solve_mpc(assembler, init_u, init_zeta, warm=warm, solver=solver)
    for _ in range(warmups):
        kernel()
    return kernel, kernel().qp_solution

def model_based_loop(pkg, prepared, attacks):
    # One step/finish and one plant step per call, on the default fixture's loop
    # driven by a cycle of bounded process noise and attacks, so x stays bounded
    model = prepared.model
    controller = pkg["controllers"].ModelBasedController(model, pkg["lti"].synthesize_gains(model))
    plant = np.block([[model.c, model.d], [model.a, model.b]])
    noise = np.random.default_rng(2).uniform(-1e-3, 1e-3, (attacks.size, model.n_x))
    state, steps = {"x": prepared.x0}, itertools.cycle(range(attacks.size))
    def step():
        t = next(steps)
        u = controller.step(t, bool(attacks[t])).u
        yx = plant @ np.concatenate((state["x"], u))
        controller.finish(yx[:model.n_y], u)
        state["x"] = yx[model.n_y:] + noise[t]
    return step

def kernels(pkg, tmp):
    # The certified solve replays the last solve of the default triple (1, 2, 3)
    # at v_bar 1e-4; the other two, solves of noise-sweep's first v_bar = 1e-3
    # run (seeds 20001-20003), each on a fresh Solver after warm-up calls.
    exp, dos = pkg["experiment"], pkg["dos"]
    base = exp.ExperimentConfig(attack=dos.params_for_ratio(0.8841))
    nominal = recorded_solves(pkg, base)
    edge = recorded_solves(pkg, replace(base, v_bar=1e-3, data_seed=20001, noise_seed=20002,
                                        attack_seed=20003))
    certified, sol = replay(pkg, nominal[-1], 2)
    assert sol.certified
    full = next(k for k, s in (replay(pkg, c, 2) for c in edge)
                if s.status == "optimal" and not s.certified and s.iterations == 0)
    moving = next(k for k, s in (replay(pkg, c, 1) for c in edge) if s.iterations > 0)
    prepared = exp.prepare(base)
    hankel = lambda: pkg["data"].HankelPair.from_trajectory(prepared.offline_record(),
                                                            prepared.mpc_config.window)
    controller = pkg["controllers"].DataDrivenController(hankel(), prepared.mpc_config)
    u, zeta = np.array([0.5, -0.25]), np.array([0.125, 1.5])
    found = {"certified_solve_mpc": certified, "fully_checked_solve_mpc_v1e-3": full,
             "working_set_change_solve_mpc_v1e-3": moving,
             "data_driven_finish": lambda: controller.finish(zeta, u),
             "model_based_step": model_based_loop(
                 pkg, prepared, dos.generate_random(base.attack, 1000, 3).indicators),
             "build": lambda: pkg["mpc"].MpcAssembler(hankel(), prepared.mpc_config),
             "default_fixture_run": partial(exp.run_experiment, base)}
    sets = {"ratio0.9142": dos.params_for_ratio(0.9142),
            "lattice(1,4,1,2)": dos.AttackParams(1.0, 4.0, 1.0, 2.0),
            "lattice(3,4,3,4)": dos.AttackParams(3.0, 4.0, 3.0, 4.0)}
    for name, params in sets.items():
        for t_sim in (5000, 20000):
            for generator, seed in (("generate_worst_case", ()), ("generate_random", (3,))):
                found[f"{generator}_{name}_T{t_sim}"] = partial(getattr(dos, generator), params,
                                                                t_sim, *seed)
    worst = dos.generate_worst_case(sets["lattice(1,4,1,2)"], 20000)
    found["validate_schedule_lattice(1,4,1,2)_T20000"] = partial(
        dos.validate_schedule, worst.indicators, worst.params)
    attack_long = replace(base, controller="model-based", t_sim=5000,
                          attack=dos.params_for_ratio(0.9142))
    found["attack_long_run"] = partial(exp.run_experiment, attack_long)
    record = exp.run_experiment(attack_long)
    found["record_save_T5000"] = partial(record.save, Path(tmp))
    return found

def sample(call, reps):
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(reps):
        call()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed / reps

def warm_up(call):
    # calls for WARM_S seconds, at least three, then the time per call of a
    # sample a tenth as long: the first calls after a kernel's setup run up to
    # 2x slower than its steady state, and a one-call sample carries the
    # timer's overhead, so neither sizes reps to its 0.2 ms
    t0, count = time.perf_counter(), 0
    while count < 3 or time.perf_counter() - t0 < WARM_S:
        call()
        count += 1
    return sample(call, max(1, count // 10))

with tempfile.TemporaryDirectory() as tmp:
    sides = {side: kernels(load(side, root), Path(tmp, side))
             for side, root in zip(SIDES, sys.argv[1:3])}
    report = {}
    for name in sides["parent"]:
        calls = {side: sides[side][name] for side in SIDES}
        once = min(warm_up(calls[side]) for side in SIDES)
        reps = max(1, round(2e-4 / once))
        count = min(MAX_PAIRS, max(MIN_PAIRS, round(BUDGET_S / (2 * ROUNDS * reps * once))))
        best, rounds = {side: np.inf for side in SIDES}, []
        for r in range(ROUNDS):
            ratios = []
            for i in range(count):
                t = {side: sample(calls[side], reps)
                     for side in (SIDES if (i + r) % 2 == 0 else SIDES[::-1])}
                best = {side: min(best[side], t[side]) for side in SIDES}
                ratios.append(t["change"] / t["parent"])
            rounds.append(ratios)
        q1, median, q3 = np.percentile(np.concatenate(rounds), [25, 50, 75])
        report[name] = {"reps_per_sample": reps, "pairs_per_round": count,
                        "min_us": {side: round(1e6 * best[side], 2) for side in SIDES},
                        "round_median_ratios": [round(float(np.median(r)), 4) for r in rounds],
                        "median_ratio": round(float(median), 4), "q1": round(float(q1), 4),
                        "q3": round(float(q3), 4)}
        print(name, report[name], file=sys.stderr)
print(json.dumps(report))
"""

# Rejected inputs, run once each in the records grid. "{tmp}" in an argument
# is a scratch directory outside the compared tree, holding bad-line.txt (a
# schedule line "1021" with a valid sidecar) and no-sidecar.txt (a schedule
# without one).
FAULTS = {
    "run-t_sim-text": ["run", "--t-sim", "abc"],
    "run-unknown-flag": ["run", "--bogus"],
    "sweep-no-values": ["sweep", "--axis", "v_bar"],
    "sweep-values-text": ["sweep", "--axis", "v_bar", "--values", "abc"],
    "sweep-repetitions-0": ["sweep", "--axis", "v_bar", "--values", "1e-4",
                            "--repetitions", "0"],
    "sweep-repetitions-negative": ["sweep", "--axis", "v_bar", "--values", "1e-4",
                                   "--repetitions", "-2"],
    "attack-check-seed-negative": ["attack-check", "--seed", "-1", "--t-sim", "10"],
    "attack-check-missing-schedule": ["attack-check", "--schedule", "{tmp}/missing.txt"],
    "attack-check-bad-line": ["attack-check", "--schedule", "{tmp}/bad-line.txt"],
    "attack-check-missing-sidecar": ["attack-check", "--schedule", "{tmp}/no-sidecar.txt"],
}

# Run inside a checkout: the records identity grid, one output directory per
# entry under the directory given as the first argument.
RECORDS = f"RERUN = {RERUN!r}\nFAULTS = {FAULTS!r}\n" + """
import json, logging, sys, tempfile
from dataclasses import replace
from pathlib import Path
sys.path.insert(0, "src")
from dosmpc import cli, dos, experiment
from dosmpc.errors import ConfigError
logging.disable(logging.WARNING)
out = Path(sys.argv[1])
def run_cli(argv, directory):
    # cli.main's exit code, or the type name of what it raised, in directory
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        code = type(exc).__name__
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "exit_code.txt").write_text(f"{code}\\n")
base = experiment.ExperimentConfig(attack=dos.params_for_ratio(0.8841))
grid = {f"{kind}-v{v_bar:g}-triple{k}": replace(
            base, controller=kind, v_bar=v_bar,
            data_seed=1 + 3 * k, noise_seed=2 + 3 * k, attack_seed=3 + 3 * k)
        for kind in experiment.CONTROLLERS for v_bar in (1e-4, 3e-4, 1e-3) for k in range(3)}
for kind in ("data-driven", "model-based"):
    grid[f"{kind}-v0"] = replace(base, controller=kind, v_bar=0.0)
grid["data-driven-attack-free"] = replace(base, attack=None)
grid["data-driven-periodic-ratio0.2"] = replace(
    base, controller="data-driven-periodic",
    attack=dos.AttackParams(kappa_f=1.0, nu_f=10.0, kappa_d=1.0, nu_d=10.0))
grid["model-based-T5000-ratio0.9142"] = replace(
    base, controller="model-based", t_sim=5000, attack=dos.params_for_ratio(0.9142))
for name, config in grid.items():
    experiment.run_experiment(replace(config, output_dir=str(out / name)))
for v_bar in ("1e-4", "1e-3"):
    run_cli(["collect", "--v-bar", v_bar, "--out", str(out / f"collect-v{v_bar}")],
         out / f"collect-v{v_bar}")
try:
    experiment.sweep(replace(base, t_sim=60), "N", [40, 60], output_dir=out / "sweep-N40-fails")
except ConfigError as exc:
    (out / "sweep-N40-fails").mkdir()
    (out / "sweep-N40-fails" / "config_error.txt").write_text(str(exc))
run_cli(["run", "--config", str(out / RERUN / "config.json"),
         "--out", str(out / "rerun-config")], out / "rerun-config")
experiment.compare(replace(base, output_dir=str(out / "compare")))
for ratio in ("0.6", "0.8841", "0.9142"):
    for t_sim in ("500", "5000"):
        for kind in ("--seed=0", "--seed=1", "--seed=2", "--worst-case"):
            name = f"attack-check-r{ratio}-T{t_sim}{kind}"
            run_cli(["attack-check", "--ratio", ratio, "--t-sim", t_sim, kind, "--out",
                     str(out / name)], out / name)
with tempfile.TemporaryDirectory() as tmp:
    budget = {"kappa_f": 1.0, "nu_f": 4.0, "kappa_d": 1.0, "nu_d": 2.0, "seed": 0}
    Path(tmp, "bad-line.txt").write_text("1021\\n")
    Path(tmp, "bad-line.txt.json").write_text(json.dumps(budget))
    Path(tmp, "no-sidecar.txt").write_text("1010\\n")
    for name, argv in FAULTS.items():
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        run_cli(argv + ["--out", str(Path(tmp, "out", name))], out / f"fault-{name}")
"""


def _ignored_key(path: Path) -> str:
    """The one JSON key that must differ between two checkouts."""
    return "output_dir" if path.name == "config.json" else "wall_time_s"


def _same_file(parent: Path, change: Path) -> bool:
    """Byte identity apart from the line of the ignored JSON key."""
    if not (parent.exists() and change.exists()):
        return False
    key = f'"{_ignored_key(parent)}":'.encode()

    def kept(path: Path) -> list:
        return [line for line in path.read_bytes().splitlines() if key not in line]
    return kept(parent) == kept(change)


def _columns(path: Path):
    """Column name -> cells of a CSV table, or key -> [value] of a JSON object
    without its ignored key; None for any other file."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        if not table or any(len(row) != len(table[0]) for row in table):
            return None
        return {name: [row[i] for row in table[1:]] for i, name in enumerate(table[0])}
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        if isinstance(obj, dict):
            return {k: [v] for k, v in obj.items() if k != _ignored_key(path)}
    return None


def _numbers(cells):
    """Cells as floats (an empty cell or null is NaN), or None if any is
    text or a JSON object or list."""
    try:
        return np.array([np.nan if c in ("", None) else float(c) for c in cells])
    except (TypeError, ValueError):
        return None


def _relative_differences(parent: Path, change: Path):
    """Largest relative difference of each differing column, by perfbench's
    rule; None when the files differ in anything but numbers."""
    if not (parent.exists() and change.exists()):
        return None
    old, new = _columns(parent), _columns(change)
    if old is None or new is None or old.keys() != new.keys():
        return None
    moved = {}
    for name in old:
        a, b = _numbers(old[name]), _numbers(new[name])
        if a is None or b is None:
            if old[name] != new[name]:
                return None
        elif a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
            return None
        elif not np.array_equal(a, b, equal_nan=True):
            finite = ~np.isnan(a)
            scale = float(np.max(np.abs(a[finite]), initial=0.0))
            diff = float(np.max(np.abs(b[finite] - a[finite]), initial=0.0))
            moved[name] = diff / scale if scale > 0 else diff
    return moved


def records_identity(roots: dict) -> dict:
    """Run the RECORDS grid in both checkouts and compare every file it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            subprocess.run([sys.executable, "-c", RECORDS, str(dirs[side])], cwd=roots[side],
                           env=ENV, check=True, stdout=subprocess.DEVNULL)
        files = sorted({str(p.relative_to(dirs[side])) for side in SIDES
                        for p in dirs[side].rglob("*") if p.is_file()})
        differing = [f for f in files
                     if not _same_file(dirs["parent"] / f, dirs["change"] / f)]
        moved = {f: _relative_differences(dirs["parent"] / f, dirs["change"] / f)
                 for f in differing}
        relative = {f: m for f, m in moved.items() if m is not None}
        codes = {f: {side: (dirs[side] / f).read_text().strip() for side in SIDES}
                 for f in differing if Path(f).name == "exit_code.txt"}
        rerun = {side: all(_same_file(dirs[side] / RERUN / f, dirs[side] / "rerun-config" / f)
                           for f in ("record.csv", "record_summary.json"))
                 for side in SIDES}
        return {"config_rerun_identical": rerun,
                "runs": len({f.split("/")[0] for f in files}), "files": len(files),
                "identical": len(files) - len(differing), "differing": differing,
                "changed": [f for f, m in moved.items() if m is None],
                "exit_codes_moved": codes,
                "relative_difference": relative,
                "max_relative_difference": max((v for m in relative.values()
                                                for v in m.values()), default=0.0),
                "ignored": ["the wall_time_s line of every file but config.json",
                            "the output_dir line of config.json"]}


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=root, env=ENV, capture_output=True, text=True, check=False)
    result = last_json(out.stdout)
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 5), "q1": round(float(q1), 5), "q3": round(float(q3), 5)}


def pairs(roots: dict, workload: str, count: int, seed: int, seconds: float, better: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(count):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(perfbench(roots[side], workload, seed + i, seconds))
            print(f"{workload} pair {i} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        sign = 1.0 if better[name] == "lower" else -1.0
        gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        ratios = [c / p for p, c in zip(values["parent"], values["change"]) if p]
        metrics[name] = {**{side: spread(values[side]) for side in SIDES},
                         "change_wins": sum(g > 0 for g in gains),
                         "ties": sum(g == 0 for g in gains),
                         "pair_ratio": spread(ratios) if ratios else None}
    return {"pairs": count, "seeds": [seed, seed + count - 1],
            "operations_attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "operations_failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "every_output_check_passed": all(r["correct"] for side in SIDES for r in runs[side]),
            "metrics": metrics}


def slowest(stdout: str) -> list:
    """[nodeid, seconds] of each test call that pytest's --durations block lists."""
    calls, inside = [], False
    for line in stdout.splitlines():
        if line.startswith("="):
            inside = " slowest " in line
        elif inside:
            fields = line.split(None, 2)
            if len(fields) == 3 and fields[1] == "call":
                calls.append([fields[2], float(fields[0].rstrip("s"))])
    return calls


def tier1(root: Path) -> dict:
    env = dict(ENV, PYTHONPATH="src")
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"], cwd=root, env=env,
                         capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines() or [""]
    return {"wall_s": round(time.perf_counter() - t0, 2), "exit_code": out.returncode,
            "summary": lines[-1].strip("= "), "slowest": slowest(out.stdout)}


def layers(roots: dict) -> dict:
    """The LAYERS step: both checkouts in one process, BLAS on one thread."""
    return last_json(subprocess.run(
        [sys.executable, "-c", LAYERS, str(roots["parent"]), str(roots["change"])],
        env=ENV, stdout=subprocess.PIPE, text=True, check=True).stdout)


def git_head(root: Path):
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", nargs="+", help="workload=count")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--claim", help="workload:metric whose gain is claimed")
    parser.add_argument("--layers-only", action="store_true",
                        help="run the layer step alone; --pairs and --seed are then ignored")
    args = parser.parse_args(argv)
    if not args.layers_only and (args.pairs is None or args.seed is None):
        parser.error("--pairs and --seed are required unless --layers-only is given")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    t0 = time.perf_counter()
    if args.layers_only:
        args.out.write_text(json.dumps({"layers": layers(roots), "parent_commit": git_head(
            roots["parent"]), "change_commit": git_head(roots["change"]),
            "wall_s": round(time.perf_counter() - t0, 1)}, indent=1) + "\n")
        return 0
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"parent_commit": git_head(roots["parent"]),
              "host": {"cores": os.cpu_count(), "blas_threads": 1,
                       "python": sys.version.split()[0], "numpy": np.__version__},
              "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                         f"--seconds {args.seconds:g}",
              "end_to_end": {}}
    seed = args.seed
    for spec in args.pairs:
        workload, count = spec.split("=")
        report["end_to_end"][workload] = pairs(roots, workload, int(count), seed,
                                               args.seconds, better)
        seed += int(count)
    if args.claim:
        workload, metric = args.claim.split(":")
        entry = report["end_to_end"][workload]["metrics"][metric]
        report["claim"] = {"workload": workload, "metric": metric,
                           "parent_median": entry["parent"]["median"],
                           "change_median": entry["change"]["median"],
                           "parent_iqr": round(entry["parent"]["q3"] - entry["parent"]["q1"], 5),
                           "median_pair_ratio": entry["pair_ratio"]["median"],
                           "change_wins": entry["change_wins"],
                           "pairs": report["end_to_end"][workload]["pairs"]}
    report["noise_sweep_indices_0_8"] = {side: json.loads(subprocess.run(
        [sys.executable, "-c", COUNTS], cwd=roots[side], env=ENV, capture_output=True,
        text=True, check=True).stdout) for side in SIDES}
    report["layers"] = layers(roots)
    report["records_identity"] = records_identity(roots)
    report["tier1"] = {side: [] for side in SIDES}
    for order in (SIDES, SIDES[::-1]):
        for side in order:
            report["tier1"][side].append(tier1(roots[side]))
    report["wall_s"] = round(time.perf_counter() - t0, 1)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if not all(report["records_identity"]["config_rerun_identical"].values()):
        print(f"a rerun of {RERUN}/config.json wrote a different record", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
