"""Scenario configuration, closed-loop orchestration, metrics, persistence.

One experiment is: collect offline data, generate an attack schedule, run the
selected controller against the plant across a lossy, noisy measurement
channel, and log a per-step record with a recomputable summary. Everything is
seeded; identical configurations produce byte-identical CSV outputs.

The controller kinds are ``CONTROLLERS``: "data-driven" and
"data-driven-periodic" are one ``DataDrivenController`` with solve period 1
or n_x, "model-based" is the observer/predictor baseline. ``run_closed_loop``
drives any controller through the ``step``/``finish`` protocol, and
``run_experiment`` runs the data-driven kinds that way. It runs the
model-based kind, whose loop is linear, as the switched linear recursion of
``ModelBasedController.modes``: one matrix-vector product per step.
"""
from __future__ import annotations

import json
import logging
import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import dos
from .controllers import DataDrivenController, ModelBasedController
from .data import (HankelPair, Trajectory, _format_row, _read_table, _write_table,
                   collect_offline, pe_samples)
from .errors import ConfigError, check_numbers
from .lti import SystemModel, check_structure, synthesize_gains
from .mpc import _FIELD_RULES as _MPC_RULES, MpcConfig
from .plants import batch_reactor

__all__ = ["ExperimentConfig", "RunRecord", "prepare", "run_experiment",
           "run_closed_loop", "iss_metrics", "sweep", "compare",
           "recompute_summary", "revalidate_record"]

logger = logging.getLogger(__name__)

CONTROLLERS = ("data-driven", "data-driven-periodic", "model-based")

# The seeds of a run, each the field ``<name>_seed`` and the key ``seeds.<name>``.
_SEEDS = ("data", "noise", "attack")

# The model-free rule of each numeric field for errors.check_numbers, those
# shared with MpcConfig taken from mpc's table (blow_up = inf means no
# divergence guard). excitation_amplitude may also be None, the default policy.
_FIELD_RULES = {
    **dict.fromkeys(("n_samples", "t_sim", *(f"{k}_seed" for k in _SEEDS)),
                    (numbers.Integral, 0, False, False)),
    **{name: rule for name, rule in _MPC_RULES.items() if name != "eta"},
    **dict.fromkeys(("dt", "r1", "r2", "excitation_amplitude"),
                    (numbers.Real, 0, True, False)),
    "blow_up": (numbers.Real, 0, True, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one closed-loop scenario.

    ``model`` is either the built-in name "batch-reactor" or a path to a model
    JSON file. ``output_dir`` is None or a path, kept as a str. ``attack`` is
    None for an attack-free run. ``x0`` of None means the documented
    default: the normalized all-ones direction (norm 1).
    Construction, and so ``dataclasses.replace``, raises ``ConfigError`` on
    the first broken rule that needs no model; ``prepare`` checks the rest.
    """

    model: str = "batch-reactor"
    dt: float = 0.1
    n_samples: int = 100
    horizon: int = 10
    lambda_g: float = 0.1
    lambda_h: float = 100.0
    v_bar: float = 1e-4
    r1: float = 1e-4
    r2: float = 3.0
    u_max: float = 10.0
    excitation_amplitude: Optional[float] = None
    attack: Optional[dos.AttackParams] = None
    t_sim: int = 200
    x0: Optional[tuple] = None
    controller: str = "data-driven"
    data_seed: int = 1
    noise_seed: int = 2
    attack_seed: int = 3
    output_dir: Optional[str] = None
    blow_up: float = 1e6

    def __post_init__(self):
        rules = _FIELD_RULES
        if self.excitation_amplitude is None:  # the default policy, see amplitude()
            rules = {name: rule for name, rule in rules.items() if name != "excitation_amplitude"}
        check_numbers(vars(self), rules)
        if not isinstance(self.model, str):
            raise ConfigError(f"model must be a name or a path, got {self.model!r}")
        if isinstance(self.output_dir, os.PathLike):
            object.__setattr__(self, "output_dir", os.fspath(self.output_dir))
        if not (self.output_dir is None or isinstance(self.output_dir, str)):
            raise ConfigError(f"output_dir must be a path or null, got {self.output_dir!r}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"unknown controller {self.controller!r}; pick from {CONTROLLERS}")
        if self.x0 is not None:
            if not (isinstance(self.x0, (tuple, list))
                    and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                            and -math.inf < v < math.inf for v in self.x0)):
                raise ConfigError(f"x0 must be a list of finite numbers or null, got {self.x0!r}")
            object.__setattr__(self, "x0", tuple(self.x0))
        if self.attack is not None and self.attack.ratio >= 1.0:
            raise ConfigError(
                f"maximum-resilience condition violated: 1/nu_f + 1/nu_d = "
                f"{self.attack.ratio:.6g} >= 1")
        if self.amplitude() > self.u_max:
            raise ConfigError(
                f"excitation amplitude {self.amplitude():.4g} exceeds the input box "
                f"u_max = {self.u_max:.4g}; offline inputs must be feasible")

    def amplitude(self) -> float:
        """Offline excitation amplitude.

        Default scales with the square root of the declared noise bound,
        keeping the g-regularizer's effective strength independent of the
        data scale (the penalty weight grows like v_bar while the squared
        data magnitude grows like amplitude^2)."""
        if self.excitation_amplitude is not None:
            return float(self.excitation_amplitude)
        return max(0.005, 0.6 * float(np.sqrt(self.v_bar)))

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        """Config from JSON: fields by name, absent ones at their defaults;
        a seed either at the top level or in ``seeds`` (data, noise, attack)."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        seeds = obj.pop("seeds", None)
        seeds = {} if seeds is None else seeds
        if not isinstance(seeds, dict):
            raise ConfigError("seeds must be a JSON object or null")
        unknown = sorted(set(obj) - set(ExperimentConfig.__dataclass_fields__))
        unknown += [f"seeds.{k}" for k in sorted(set(seeds) - set(_SEEDS))]
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        twice = [f"{k}_seed" for k in sorted(seeds) if f"{k}_seed" in obj]
        if twice:
            raise ConfigError(f"seeds given twice, in seeds and as {', '.join(twice)}")
        obj.update({f"{k}_seed": v for k, v in seeds.items()})
        if obj.get("attack") is not None:
            obj["attack"] = attack_params(obj["attack"])
        return ExperimentConfig(**obj)

    def to_json(self) -> str:
        obj = {k: getattr(self, k) for k in self.__dataclass_fields__
               if k not in ("attack", "x0")}
        obj["x0"] = list(self.x0) if self.x0 is not None else None
        obj["attack"] = None if self.attack is None else vars(self.attack)
        return json.dumps(obj, indent=2)


def attack_params(spec: dict) -> dos.AttackParams:
    """Attack budget from a config's ``attack`` object: the four parameters
    ``kappa_f``, ``nu_f``, ``kappa_d``, ``nu_d``, or the shorthand ``ratio``
    (1/nu_f + 1/nu_d) with optional ``nu_f`` (default 4) and ``kappa`` (both
    chatter bounds, default 1). Any other key, or a budget the parameters
    reject, is a configuration error."""
    if not isinstance(spec, dict):
        raise ConfigError("attack must be a JSON object or null")
    shorthand = "ratio" in spec
    keys = {"ratio", "nu_f", "kappa"} if shorthand else set(dos.AttackParams.__dataclass_fields__)
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise ConfigError(f"unknown attack keys: {', '.join(unknown)}")
    try:
        return dos.params_for_ratio(**spec) if shorthand else dos.AttackParams(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"attack: {exc}") from exc


@dataclass
class Prepared:
    """Resolved scenario: model, derived quantities, controller config."""

    model: SystemModel
    pe_order: int
    mpc_config: MpcConfig
    config: ExperimentConfig

    @property
    def x0(self) -> np.ndarray:
        if self.config.x0 is not None:
            return np.asarray(self.config.x0, dtype=float)
        n = self.model.n_x
        return np.ones(n) / np.sqrt(n)

    def offline_record(self) -> Trajectory:
        """The certified offline experiment the config describes."""
        config = self.config
        return collect_offline(self.model, config.n_samples, self.pe_order,
                               amplitude=config.amplitude(), noise_bound=config.v_bar,
                               seed=config.data_seed)


def _load_model(config: ExperimentConfig) -> SystemModel:
    if config.model == "batch-reactor":
        return batch_reactor(config.dt)
    return SystemModel.from_json(Path(config.model).read_text())


def prepare(config: ExperimentConfig) -> Prepared:
    """Resolve the model and check the preconditions that need it, reporting
    violations by assumption number. The rules that need no model hold
    already: ``ExperimentConfig`` checks them on construction."""
    try:
        model = _load_model(config)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load model {config.model!r}: {exc!r}") from exc
    try:
        eta = check_structure(model)["observability_index"]
    except Exception as exc:
        raise ConfigError(f"Assumption 1 violated: {exc}") from exc
    if config.x0 is not None and len(config.x0) != model.n_x:
        raise ConfigError(f"x0 has {len(config.x0)} entries; the model has n_x = {model.n_x}")
    if (config.attack is not None and config.controller == "data-driven-periodic"
            and config.attack.ratio >= 1.0 - (model.n_x - 1) / config.attack.nu_f):
        logger.warning("periodic variant resilience condition not met: "
                       "1/nu_f + 1/nu_d = %.4g >= 1 - (n_x-1)/nu_f = %.4g",
                       config.attack.ratio, 1.0 - (model.n_x - 1) / config.attack.nu_f)
    if config.horizon < eta + model.n_x:
        raise ConfigError(
            f"Assumption 7 violated: horizon {config.horizon} < eta + n_x = {eta + model.n_x}")
    if config.horizon < model.n_x + 2 * eta:
        logger.warning("horizon %d below n_x + 2*eta = %d; Assumption 7 holds but the "
                       "stricter experimental bound does not", config.horizon,
                       model.n_x + 2 * eta)
    pe_order = max(config.horizon + model.n_x + eta, config.horizon + 2 * eta)
    if config.n_samples < pe_samples(model.n_u, pe_order):
        raise ConfigError(
            f"Assumption 6 violated: n_samples {config.n_samples} cannot be persistently "
            f"exciting of order {pe_order} (need >= {pe_samples(model.n_u, pe_order)})")
    mpc_config = MpcConfig(horizon=config.horizon, eta=eta, lambda_g=config.lambda_g,
                           lambda_h=config.lambda_h, v_bar=config.v_bar,
                           r1=config.r1, r2=config.r2, u_max=config.u_max)
    return Prepared(model=model, pe_order=pe_order, mpc_config=mpc_config, config=config)


@dataclass
class RunRecord:
    """Per-step closed-loop trace plus a summary recomputable from it. Each
    field before ``summary`` is a per-step array, saved in field order by
    ``data._write_table``; ``t`` and ``attack`` are integer arrays."""

    t: np.ndarray
    attack: np.ndarray
    u: np.ndarray
    y: np.ndarray
    zeta: np.ndarray
    y_norm: np.ndarray
    cost: np.ndarray
    qp_iterations: np.ndarray
    summary: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    def save(self, directory, stem: str = "record") -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        csv_path = directory / f"{stem}.csv"
        _write_table(csv_path, {name: getattr(self, name) for name in _RECORD_ARRAYS})
        summary = {k: (None if isinstance(v, float) and np.isnan(v) else v)
                   for k, v in self.summary.items()}
        (directory / f"{stem}_summary.json").write_text(json.dumps(summary, indent=2))
        return csv_path

    @staticmethod
    def load(directory, stem: str = "record") -> "RunRecord":
        directory = Path(directory)
        arrays = _read_table(directory / f"{stem}.csv")
        summary = json.loads((directory / f"{stem}_summary.json").read_text())
        summary = {k: (np.nan if v is None else v) for k, v in summary.items()}
        for name in ("t", "attack"):
            arrays[name] = arrays[name].astype(int)
        return RunRecord(**arrays, summary=summary)


_RECORD_ARRAYS = tuple(f.name for f in fields(RunRecord) if f.name != "summary")


def iss_metrics(record: RunRecord) -> dict:
    """Empirical stability metrics of one run.

    tail_norm is the max output norm over the final quarter, peak_norm over
    the whole run, decay_fit the least-squares exponential rate of the output
    norm envelope over the pre-tail segment (negative means decay).
    """
    norms = record.y_norm
    n = len(norms)
    if n == 0 or np.max(norms) < 1e-300:
        return {"tail_norm": 0.0, "peak_norm": 0.0, "decay_fit": 0.0}
    tail_start = (3 * n) // 4
    tail_norm = float(np.max(norms[tail_start:])) if tail_start < n else 0.0
    peak_norm = float(np.max(norms))
    pre = norms[:tail_start]
    if pre.size < 2:
        return {"tail_norm": tail_norm, "peak_norm": peak_norm, "decay_fit": 0.0}
    envelope = np.maximum.accumulate(pre[::-1])[::-1]
    logs = np.log(np.maximum(envelope, 1e-300))
    steps = np.arange(pre.size, dtype=float)
    slope = float(np.polyfit(steps, logs, 1)[0])
    return {"tail_norm": tail_norm, "peak_norm": peak_norm, "decay_fit": slope}


def _summarize(record: RunRecord, status: str, t_sim: int, controller: str,
               seeds: dict, blow_up: float) -> dict:
    metrics = iss_metrics(record)
    solves = ~np.isnan(record.cost)
    # A diverged run reports the censored tail (the guard value): the honest
    # worst-case ordering for cross-run comparisons with truncated tables.
    tail = blow_up if status == "diverged" else metrics["tail_norm"]
    summary = {
        "status": status,
        "controller": controller,
        "t_sim": t_sim,
        "steps_completed": len(record),
        "tail_start": (3 * len(record)) // 4,
        "tail_norm": tail,
        "peak_norm": metrics["peak_norm"],
        "decay_fit": metrics["decay_fit"],
        "attack_ratio": float(np.mean(record.attack)) if len(record) else 0.0,
        "max_success_gap": dos.max_success_gap(record.attack),
        "num_solves": int(np.sum(solves)),
        "mean_cost": float(np.mean(record.cost[solves])) if np.any(solves) else float("nan"),
        "blow_up": blow_up,
        "seeds": seeds,
    }
    return summary


def recompute_summary(record: RunRecord) -> dict:
    """Rebuild the recomputable summary fields from the per-step table."""
    seeds = record.summary.get("seeds", {})
    return _summarize(record, record.summary.get("status", "ok"),
                      record.summary.get("t_sim", len(record)),
                      record.summary.get("controller", "unknown"), seeds,
                      record.summary.get("blow_up", 1e6))


def revalidate_record(directory, stem: str = "record") -> bool:
    """True iff the persisted summary matches one recomputed from the table
    and the stored norm column matches the stored outputs."""
    record = RunRecord.load(directory, stem)
    if not np.array_equal(np.linalg.norm(record.y, axis=1), record.y_norm):
        return False
    fresh = recompute_summary(record)
    stored = {k: v for k, v in record.summary.items() if k in fresh}

    def same(a, b):
        if isinstance(a, float) and isinstance(b, float):
            return (np.isnan(a) and np.isnan(b)) or a == b
        return a == b

    return all(same(stored.get(k), fresh[k]) for k in fresh)


def _channel(model: SystemModel, t_sim: int, v_bar: float, noise_seed: int,
             schedule: Optional[dos.DosSchedule]):
    """(w, noise, indicators) of a run: process and network noise i.i.d.
    uniform on [-v_bar, v_bar] per coordinate, drawn from the noise seed
    (process first), and the schedule's first t_sim attack indicators."""
    rng = np.random.default_rng(noise_seed)
    w = rng.uniform(-v_bar, v_bar, size=(t_sim, model.n_x))
    noise = rng.uniform(-v_bar, v_bar, size=(t_sim, model.n_y))
    indicators = (schedule.indicators.astype(bool)
                  if schedule is not None else np.zeros(t_sim, dtype=bool))
    if indicators.shape[0] < t_sim:
        raise ConfigError("attack schedule shorter than the simulation horizon")
    return w, noise, indicators[:t_sim]


def _record(indicators, u, y, zeta, cost, iterations, status: str, t_sim: int,
            controller_name: str, seeds: Optional[dict], blow_up: float,
            wall: float) -> RunRecord:
    """The record of a run's first len(u) steps, with its summary."""
    steps = len(u)
    record = RunRecord(t=np.arange(steps), attack=indicators[:steps].astype(int),
                       u=u, y=y, zeta=zeta, y_norm=np.linalg.norm(y, axis=1),
                       cost=cost, qp_iterations=iterations)
    record.summary = _summarize(record, status, t_sim, controller_name, seeds or {},
                                blow_up)
    record.summary["wall_time_s"] = wall
    return record


def run_closed_loop(model: SystemModel, controller, t_sim: int,
                    x0, v_bar: float, noise_seed: int,
                    schedule: Optional[dos.DosSchedule] = None,
                    blow_up: float = 1e6, controller_name: str = "custom",
                    seeds: Optional[dict] = None) -> RunRecord:
    """Drive plant, channel, and controller for t_sim steps.

    Process and network noise are i.i.d. uniform on [-v_bar, v_bar] per
    coordinate, drawn up front from the noise seed (process first). Each step
    the controller emits its input (``step``), the plant is measured, and the
    noisy measurement goes back to the controller's sensor side (``finish``).
    The record logs the measurement as delivered exactly at attack-free steps.
    Any object with ``step`` and ``finish`` runs here, whatever its type.
    """
    w, noise, indicators = _channel(model, t_sim, v_bar, noise_seed, schedule)
    x = np.asarray(x0, dtype=float).reshape(model.n_x)
    # [y; x+ - w] = [[C, D], [A, B]] [x; u]
    plant, n_y = np.block([[model.c, model.d], [model.a, model.b]]), model.n_y
    u_log = np.zeros((t_sim, model.n_u))
    y_log = np.zeros((t_sim, model.n_y))
    zeta_log = np.full((t_sim, model.n_y), np.nan)
    cost_log = np.full(t_sim, np.nan)
    iter_log = np.full(t_sim, np.nan)
    status = "ok"
    steps = t_sim

    t0 = time.perf_counter()
    for t in range(t_sim):
        attack = bool(indicators[t])
        result = controller.step(t, attack)
        u = result.u
        yx = plant @ np.concatenate((x, u))
        y = yx[:n_y]
        zeta = y + noise[t]
        controller.finish(zeta, u)
        if result.solved:
            cost_log[t] = result.solution.cost
            iter_log[t] = result.solution.qp_solution.iterations
        u_log[t] = u
        y_log[t] = y
        if not attack:
            zeta_log[t] = zeta
        x = yx[n_y:] + w[t]
        if math.sqrt(y.dot(y)) >= blow_up:
            status = "diverged"
            steps = t + 1
            break
    wall = time.perf_counter() - t0

    sl = slice(0, steps)
    return _record(indicators, u_log[sl], y_log[sl], zeta_log[sl], cost_log[sl],
                   iter_log[sl], status, t_sim, controller_name, seeds, blow_up, wall)


def _run_lifted(model: SystemModel, controller: ModelBasedController, t_sim: int,
                x0, v_bar: float, noise_seed: int,
                schedule: Optional[dos.DosSchedule] = None,
                blow_up: float = 1e6, controller_name: str = "model-based",
                seeds: Optional[dict] = None) -> RunRecord:
    """``run_closed_loop`` for the model-based controller, on the same draws,
    as the switched linear recursion of ``controller.modes(model)`` on
    xi = [x; xbar; xhat]: one matvec with the step's mode matrix plus the
    step's noise row, computed up front. The controller's state is read as
    the start of xbar and xhat, not advanced. The timed loop includes
    building the modes and the noise rows."""
    w, noise, indicators = _channel(model, t_sim, v_bar, noise_seed, schedule)
    x = np.asarray(x0, dtype=float).reshape(model.n_x)
    n_u, k = model.n_u, model.n_u + model.n_y
    status = "ok"
    steps = t_sim

    t0 = time.perf_counter()
    free, attacked, carry = controller.modes(model)
    mode = (free, attacked)
    # row t is [u; y; xi+] of step t, preset to the noise that step adds to xi+
    log = np.zeros((t_sim, k + free.shape[1]))
    np.matmul(np.hstack((w, noise)), carry.T, out=log[:, k:])
    xi = np.concatenate((x, controller.xbar, controller.xhat))
    for t, attack in enumerate(indicators.tolist()):
        row = log[t]
        row += np.dot(mode[attack], xi)
        y = row[n_u:k]
        xi = row[k:]
        if math.sqrt(y.dot(y)) >= blow_up:
            status = "diverged"
            steps = t + 1
            break
    wall = time.perf_counter() - t0

    u, y = log[:steps, :n_u].copy(), log[:steps, n_u:k].copy()
    zeta = y + noise[:steps]
    zeta[indicators[:steps]] = np.nan
    nan = np.full(steps, np.nan)
    return _record(indicators, u, y, zeta, nan, nan.copy(), status, t_sim,
                   controller_name, seeds, blow_up, wall)


def _build_controller(prepared: Prepared):
    model = prepared.model
    if prepared.config.controller == "model-based":
        return ModelBasedController(model, synthesize_gains(model))
    data = HankelPair.from_trajectory(prepared.offline_record(), prepared.mpc_config.window)
    period = model.n_x if prepared.config.controller == "data-driven-periodic" else 1
    return DataDrivenController(data, prepared.mpc_config, period=period)


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Collect data, build the schedule and controller, run, persist."""
    prepared = prepare(config)
    model = prepared.model
    schedule = None
    if config.attack is not None:
        schedule = dos.generate_random(config.attack, config.t_sim, config.attack_seed)
    controller = _build_controller(prepared)
    seeds = {k: getattr(config, f"{k}_seed") for k in _SEEDS}
    loop = _run_lifted if config.controller == "model-based" else run_closed_loop
    record = loop(model, controller, config.t_sim, prepared.x0, config.v_bar,
                  config.noise_seed, schedule=schedule, blow_up=config.blow_up,
                  controller_name=config.controller, seeds=seeds)
    if config.output_dir is not None:
        record.save(config.output_dir)
        if schedule is not None:
            dos.save_schedule(schedule, Path(config.output_dir) / "schedule.txt")
        (Path(config.output_dir) / "config.json").write_text(config.to_json())
    return record


# Each sweep axis and the config field it sets.
_SWEEP_AXES = {"N": "n_samples", "L": "horizon", "ratio": "attack", "v_bar": "v_bar"}
# The summary fields of a sweep row, after its axis, value and repetition.
_SWEEP_FIELDS = ("status", "tail_norm", "mean_cost", "max_success_gap")


def _cell_config(config: ExperimentConfig, axis: str, value, offset: int) -> ExperimentConfig:
    if axis == "ratio":
        value = attack_params({"ratio": float(value)})
    elif axis == "v_bar":
        value = float(value)
    seeds = {f"{k}_seed": getattr(config, f"{k}_seed") + offset for k in _SEEDS}
    return replace(config, **seeds, output_dir=None, **{_SWEEP_AXES[axis]: value})


def _integer(axis: str, value) -> int:
    """An N or L axis value as an int: 60 and 60.0 pass, 60.7 does not."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"sweep axis {axis} takes integers, got {value!r}")
    return int(value)


def sweep(config: ExperimentConfig, axis: str, values, repetitions: int = 1,
          output_dir=None) -> list[dict]:
    """Grid of runs along one axis with per-cell derived seeds.

    Per-cell failures are recorded (status column) and the sweep continues;
    a configuration error propagates, and nothing is written. An N or L
    value that is not integral is one, as is ``repetitions`` < 1; both are
    raised before any cell runs. Returns one summary row per (value, repetition).
    """
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick from {tuple(_SWEEP_AXES)}")
    check_numbers({"repetitions": repetitions},
                  {"repetitions": (numbers.Integral, 1, False, False)})
    if axis in ("N", "L"):
        values = [_integer(axis, value) for value in values]
    rows = []
    for i, value in enumerate(values):
        for rep in range(repetitions):
            offset = 10_000 * i + rep
            cell = _cell_config(config, axis, value, offset)
            row = {"axis": axis, "value": value, "repetition": rep}
            try:
                summary = run_experiment(cell).summary
                row.update({k: summary[k] for k in _SWEEP_FIELDS})
            except ConfigError:
                raise
            except Exception as exc:  # keep sweeping, record the failure
                logger.warning("sweep cell %s=%s rep %d failed: %s", axis, value, rep, exc)
                row.update(status=f"error: {exc}", tail_norm=float("nan"),
                           mean_cost=float("nan"), max_success_gap=-1)
            rows.append(row)
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w") as fh:
            fh.write(",".join(("axis", "value", "repetition", *_SWEEP_FIELDS)) + "\n")
            for row in rows:
                status = row["status"].replace('"', '""')  # RFC 4180 quoting
                floats = _format_row("%.17g,%.17g", (row["tail_norm"], row["mean_cost"]))
                fh.write(f"{row['axis']},{row['value']},{row['repetition']},"
                         f"\"{status}\",{floats},{row['max_success_gap']}\n")
    return rows


def compare(config: ExperimentConfig) -> dict:
    """Run the data-driven and model-based controllers on the identical
    schedule and noise realization; report paired summaries."""
    dd_record = run_experiment(replace(config, controller="data-driven",
                                       output_dir=None))
    mb_record = run_experiment(replace(config, controller="model-based",
                                       output_dir=None))
    delta = {
        "data_driven_tail": dd_record.summary["tail_norm"],
        "model_based_tail": mb_record.summary["tail_norm"],
        "data_driven_peak": dd_record.summary["peak_norm"],
        "model_based_peak": mb_record.summary["peak_norm"],
        "tail_difference": dd_record.summary["tail_norm"] - mb_record.summary["tail_norm"],
    }
    if config.output_dir is not None:
        out = Path(config.output_dir)
        dd_record.save(out, "data_driven")
        mb_record.save(out, "model_based")
        (out / "compare.json").write_text(json.dumps(delta, indent=2))
    return {"data_driven": dd_record, "model_based": mb_record, "delta": delta}
