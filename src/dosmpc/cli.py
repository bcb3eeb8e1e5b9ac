"""Command-line interface.

Subcommands: collect (offline data), attack-check (validate or generate DoS
schedules), run (single closed-loop experiment), sweep (one-axis grid),
compare (data-driven vs model-based on shared randomness). All outputs are
CSV/JSON in the chosen output directory. Exit codes: 0 ok, 1 schedule
validation failure, 2 divergence, 3 configuration error (a rejected number,
config file, command line or schedule file; nothing written), 4 numerical
failure (a singular matrix, a ``SynthesisError``,
``PersistencyError`` or ``SolverError``; nothing written).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dos
from .errors import ConfigError, PersistencyError, SolverError, SynthesisError, check_numbers
from .experiment import (_FIELD_RULES, _SWEEP_AXES, CONTROLLERS, ExperimentConfig,
                         attack_params, compare, prepare, run_experiment, sweep)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are configuration errors, not exit 2
    (divergence); its subparsers are of the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def float_list(text: str) -> list:
    """``--values``: comma-separated numbers."""
    return [float(v) for v in text.split(",")]


def _load_config(args) -> ExperimentConfig:
    """The config file (or the defaults), overridden by each flag given whose
    destination names a config field. The output directory is ``--out``,
    else the config's ``output_dir``, else ``out``."""
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        config = ExperimentConfig.from_json(text)
    else:
        config = ExperimentConfig()
    overrides = {name: value for name, value in vars(args).items()
                 if name in ExperimentConfig.__dataclass_fields__ and value is not None}
    if args.ratio is not None:
        overrides["attack"] = attack_params({"ratio": args.ratio})
    if args.no_attack:
        overrides["attack"] = None
    return replace(config, output_dir=args.out or config.output_dir or "out", **overrides)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--model", help='"batch-reactor" or model JSON path')
    p.add_argument("--t-sim", dest="t_sim", type=int)
    p.add_argument("--v-bar", dest="v_bar", type=float)
    p.add_argument("--horizon", type=int, help="prediction horizon L")
    p.add_argument("--n-samples", dest="n_samples", type=int, help="offline record length N")
    p.add_argument("--u-max", dest="u_max", type=float)
    p.add_argument("--lambda-g", dest="lambda_g", type=float)
    p.add_argument("--lambda-h", dest="lambda_h", type=float)
    p.add_argument("--controller", choices=CONTROLLERS)
    p.add_argument("--ratio", type=float, help="attack pressure 1/nu_f + 1/nu_d")
    p.add_argument("--no-attack", action="store_true")
    p.add_argument("--data-seed", dest="data_seed", type=int)
    p.add_argument("--noise-seed", dest="noise_seed", type=int)
    p.add_argument("--attack-seed", dest="attack_seed", type=int)
    p.add_argument("--out", help="output directory")


def _cmd_collect(args) -> int:
    config = _load_config(args)
    traj = prepare(config).offline_record()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj.save_csv(out / "offline_data.csv")
    print(f"collected N={len(traj)} samples, certified excitation order "
          f"{traj.pe.order} (margin {traj.pe.sigma_min:.3g})")
    return 0


def _cmd_attack_check(args) -> int:
    if args.schedule:
        try:
            schedule = dos.load_schedule(args.schedule)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read schedule {args.schedule}: "
                              f"{type(exc).__name__}: {exc}") from exc
        report = dos.validate_schedule(schedule.indicators, schedule.params)
        print(json.dumps({
            "passed": report.passed,
            "worst_interval": [report.worst_t1, report.worst_t2],
            "worst_kind": report.worst_kind,
            # An empty schedule has no interval: its excess -inf is not JSON.
            "worst_excess": report.worst_excess if math.isfinite(report.worst_excess) else None,
            "attack_fraction": schedule.attack_fraction,
        }, indent=2))
        return 0 if report.passed else 1
    check_numbers(vars(args), {"t_sim": _FIELD_RULES["t_sim"],
                               "seed": _FIELD_RULES["attack_seed"]})
    # The flags given form one attack object; the default budget needs no --ratio.
    given = {key: getattr(args, key) for key in ("ratio", *dos.AttackParams.__dataclass_fields__)
             if getattr(args, key) is not None}
    if args.ratio is None:
        given = {"kappa_f": 1.0, "nu_f": 4.0, "kappa_d": 1.0, "nu_d": 2.0, **given}
    params = attack_params(given)
    if args.worst_case:
        schedule = dos.generate_worst_case(params, args.t_sim)
    else:
        schedule = dos.generate_random(params, args.t_sim, args.seed)
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    dos.save_schedule(schedule, out / "schedule.txt")
    print(f"generated T={args.t_sim} schedule, attack fraction "
          f"{schedule.attack_fraction:.4f}, max gap "
          f"{dos.max_success_gap(schedule.indicators)}")
    return 0


def _cmd_run(args) -> int:
    record = run_experiment(_load_config(args))
    print(json.dumps({k: v for k, v in record.summary.items() if k != "seeds"},
                     indent=2, default=str))
    return 0 if record.summary["status"] == "ok" else 2


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    rows = sweep(config, args.axis, args.values, repetitions=args.repetitions,
                 output_dir=config.output_dir)
    bad = [r for r in rows if r["status"] != "ok"]
    for row in rows:
        print(f"{args.axis}={row['value']} rep={row['repetition']} "
              f"status={row['status']} tail={row['tail_norm']:.6g}")
    return 0 if not bad else 2


def _cmd_compare(args) -> int:
    result = compare(_load_config(args))
    print(json.dumps(result["delta"], indent=2))
    ok = (result["data_driven"].summary["status"] == "ok"
          and result["model_based"].summary["status"] == "ok")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dosmpc",
        description="Data-driven resilient MPC simulator for LTI plants under DoS attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="collect certified offline data")
    _add_common(p)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("attack-check", help="validate or generate DoS schedules")
    p.add_argument("--schedule", help="existing schedule file to validate")
    p.add_argument("--ratio", type=float)
    p.add_argument("--kappa-f", dest="kappa_f", type=float, help="default 1; not with --ratio")
    p.add_argument("--nu-f", dest="nu_f", type=float, help="default 4")
    p.add_argument("--kappa-d", dest="kappa_d", type=float, help="default 1; not with --ratio")
    p.add_argument("--nu-d", dest="nu_d", type=float, help="default 2; not with --ratio")
    p.add_argument("--t-sim", dest="t_sim", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--worst-case", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_attack_check)

    p = sub.add_parser("run", help="run one closed-loop experiment")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid of runs along one axis")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p.add_argument("--values", required=True, type=float_list, help="comma-separated values")
    p.add_argument("--repetitions", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="data-driven vs model-based, shared seeds")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, SynthesisError, SolverError, PersistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
