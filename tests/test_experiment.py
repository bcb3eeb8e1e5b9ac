import csv
import json
import numbers
from dataclasses import replace
from pathlib import Path

import dos_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dosmpc import cli, controllers, dos, experiment, lti
from dosmpc.controllers import ModelBasedController
from dosmpc.errors import ConfigError, PersistencyError, SolverError, SynthesisError


def fast_config(**kwargs):
    defaults = dict(t_sim=60, v_bar=1e-4)
    defaults.update(kwargs)
    return experiment.ExperimentConfig(**defaults)


class TestConfig:
    def test_json_round_trip(self):
        cfg = fast_config(attack=dos.params_for_ratio(0.8841), x0=(1.0, 0.0, 0.0, 0.0))
        clone = experiment.ExperimentConfig.from_json(cfg.to_json())
        assert clone == cfg

    def test_ratio_shorthand(self):
        obj = {"attack": {"ratio": 0.9142}, "t_sim": 50, "seeds": {"noise": 9}}
        cfg = experiment.ExperimentConfig.from_json(json.dumps(obj))
        assert cfg.attack.ratio == pytest.approx(0.9142)
        assert cfg.noise_seed == 9 and cfg.t_sim == 50
        obj = {"attack": {"ratio": 0.75, "nu_f": 8.0, "kappa": 2.0}}
        cfg = experiment.ExperimentConfig.from_json(json.dumps(obj))
        assert cfg.attack == dos.params_for_ratio(0.75, nu_f=8.0, kappa=2.0)

    def test_null_seeds_read_as_absent(self):
        cfg = experiment.ExperimentConfig.from_json('{"seeds": null, "x0": null}')
        assert cfg == experiment.ExperimentConfig()

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="t_sims"):
            experiment.ExperimentConfig.from_json('{"t_sims": 50}')
        with pytest.raises(ConfigError, match="seeds.nosie"):
            experiment.ExperimentConfig.from_json('{"seeds": {"nosie": 9}}')
        path = tmp_path / "config.json"
        path.write_text('{"t_sims": 50}')
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()

    def test_unknown_controller(self):
        with pytest.raises(ConfigError):
            experiment.prepare(fast_config(controller="pid"))

    def test_assumption7_violation_reported(self):
        with pytest.raises(ConfigError, match="Assumption 7"):
            experiment.prepare(fast_config(horizon=5))

    def test_assumption6_violation_reported(self):
        with pytest.raises(ConfigError, match="Assumption 6"):
            experiment.prepare(fast_config(n_samples=20))

    def test_resilience_condition_enforced(self):
        bad = dos.AttackParams(kappa_f=1, nu_f=2, kappa_d=1, nu_d=2)
        with pytest.raises(ConfigError, match="maximum-resilience"):
            experiment.prepare(fast_config(attack=bad))

    def test_assumption1_violation_reported(self, tmp_path):
        model = lti.SystemModel(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]),
                                np.eye(2), np.zeros((2, 1)))
        path = tmp_path / "model.json"
        path.write_text(model.to_json())
        with pytest.raises(ConfigError, match="Assumption 1"):
            experiment.prepare(fast_config(model=str(path)))

    def test_unloadable_model_reported(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"a": [[1.0]], "b": [[1.0]]}))  # no "c"
        scalar_b = tmp_path / "scalar_b.json"
        scalar_b.write_text(json.dumps({"a": [[1.0]], "b": 5, "c": [[1.0]]}))
        for model in (str(path), str(scalar_b), str(tmp_path / "missing.json")):
            with pytest.raises(ConfigError, match="cannot load model"):
                experiment.prepare(fast_config(model=model))

    def test_excitation_must_fit_input_box(self):
        with pytest.raises(ConfigError, match="excitation amplitude"):
            experiment.prepare(fast_config(excitation_amplitude=2.0, u_max=1.0))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_field_rules_round_trip_and_reject(self, data):
        # a config drawn inside every field's rule survives to_json/from_json;
        # NaN, a bool or a string in any numeric field is refused on construction
        def number(kind, low, strict, inf_ok):
            if kind is numbers.Integral:
                return st.integers(min_value=low + strict, max_value=2**40)
            return st.floats(min_value=low, exclude_min=strict, allow_nan=False,
                             allow_infinity=inf_ok)

        fields = {name: data.draw(number(*rule), label=name)
                  for name, rule in experiment._FIELD_RULES.items()}
        fields["excitation_amplitude"] = data.draw(st.none() | st.floats(
            min_value=0, exclude_min=True, max_value=fields["u_max"]), label="amplitude")
        assume(fields["excitation_amplitude"] is not None
               or max(0.005, 0.6 * np.sqrt(fields["v_bar"])) <= fields["u_max"])
        attack = data.draw(st.none() | st.builds(
            dos.AttackParams, kappa_f=st.floats(0, 1e6), nu_f=st.floats(2, 1e6),
            kappa_d=st.floats(0, 1e6), nu_d=st.floats(1, 1e6)), label="attack")
        assume(attack is None or attack.ratio < 1)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        cfg = experiment.ExperimentConfig(
            model=data.draw(st.text(max_size=8), label="model"),
            controller=data.draw(st.sampled_from(experiment.CONTROLLERS), label="controller"),
            x0=data.draw(st.none() | st.lists(finite, max_size=5).map(tuple), label="x0"),
            output_dir=data.draw(st.none() | st.text(max_size=8), label="output_dir"),
            attack=attack, **fields)
        assert experiment.ExperimentConfig.from_json(cfg.to_json()) == cfg
        for name in experiment._FIELD_RULES:
            for bad in (float("nan"), True, "1"):
                with pytest.raises(ConfigError, match=name):
                    replace(cfg, **{name: bad})

    def test_infinite_input_box_and_guard_run(self):
        # u_max = inf is no input box, blow_up = inf no divergence guard
        cfg = fast_config(u_max=float("inf"), blow_up=float("inf"), t_sim=20)
        assert experiment.run_experiment(cfg).summary["status"] == "ok"

    def test_default_amplitude_policy(self):
        assert fast_config(v_bar=1e-4).amplitude() == pytest.approx(0.006)
        assert fast_config(v_bar=0.0).amplitude() == 0.005
        assert fast_config(excitation_amplitude=0.3).amplitude() == 0.3


class TestRunExperiment:
    def test_noise_free_regulation(self):
        record = experiment.run_experiment(fast_config(v_bar=0.0, t_sim=200))
        assert record.summary["status"] == "ok"
        assert record.summary["tail_norm"] <= 1e-4
        assert record.summary["decay_fit"] < 0.0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = fast_config(attack=dos.params_for_ratio(0.8841),
                          output_dir=str(tmp_path / "a"))
        experiment.run_experiment(cfg)
        experiment.run_experiment(replace(cfg, output_dir=str(tmp_path / "b")))
        csv_a = (tmp_path / "a" / "record.csv").read_bytes()
        csv_b = (tmp_path / "b" / "record.csv").read_bytes()
        assert csv_a == csv_b
        sched_a = (tmp_path / "a" / "schedule.txt").read_bytes()
        sched_b = (tmp_path / "b" / "schedule.txt").read_bytes()
        assert sched_a == sched_b

    def test_path_output_dir_writes_config(self, tmp_path):
        out = tmp_path / "run"
        cfg = fast_config(t_sim=20, output_dir=out)
        assert cfg.output_dir == str(out)
        experiment.run_experiment(cfg)
        assert json.loads((out / "config.json").read_text())["output_dir"] == str(out)

    def test_channel_semantics(self):
        cfg = fast_config(attack=dos.params_for_ratio(0.8841))
        record = experiment.run_experiment(cfg)
        delivered = record.attack == 0
        assert np.all(~np.isnan(record.zeta[delivered]))
        assert np.all(np.isnan(record.zeta[~delivered]))
        # zeta = y + n exactly: regenerate the seeded noise stream
        rng = np.random.default_rng(cfg.noise_seed)
        rng.uniform(-cfg.v_bar, cfg.v_bar, size=(cfg.t_sim, 4))
        noise = rng.uniform(-cfg.v_bar, cfg.v_bar, size=(cfg.t_sim, 2))
        expect = record.y[delivered] + noise[: len(record)][delivered]
        assert np.array_equal(record.zeta[delivered], expect)
        # solves happen exactly at delivered steps once the window is full
        solved = ~np.isnan(record.cost)
        expected_solved = delivered & (record.t >= 2)
        assert np.array_equal(solved, expected_solved)

    def test_record_roundtrip_and_revalidation(self, tmp_path):
        cfg = fast_config(attack=dos.params_for_ratio(0.8841), output_dir=str(tmp_path))
        record = experiment.run_experiment(cfg)
        clone = experiment.RunRecord.load(tmp_path)
        assert np.array_equal(clone.y, record.y)
        assert experiment.revalidate_record(tmp_path)
        # tampering with the table breaks revalidation
        lines = (tmp_path / "record.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[4] = f"{float(cells[4]) + 1.0:.17g}"
        lines[5] = ",".join(cells)
        (tmp_path / "record.csv").write_text("\n".join(lines) + "\n")
        assert not experiment.revalidate_record(tmp_path)

    def test_explicit_initial_state(self, reactor):
        # D = 0, so the first output is C x0 whatever the first input is
        x0 = (1.0, -2.0, 0.5, 0.0)
        record = experiment.run_experiment(fast_config(x0=x0, t_sim=5))
        np.testing.assert_allclose(record.y[0], reactor.c @ np.array(x0), rtol=1e-15)

    def test_blow_up_guard_truncates(self, reactor):
        # zero feedback gain leaves the unstable plant in open loop
        gains = lti.synthesize_gains(reactor)
        frozen = lti.GainSet(k=np.zeros((2, 4)), l_obs=gains.l_obs, eta=gains.eta)
        controller = ModelBasedController(reactor, frozen)
        record = experiment.run_closed_loop(reactor, controller, t_sim=200,
                                            x0=np.ones(4) / 2, v_bar=0.0, noise_seed=2,
                                            controller_name="open-loop")
        assert record.summary["status"] == "diverged"
        assert record.summary["steps_completed"] < 200
        assert record.summary["peak_norm"] >= 1e3
        assert record.summary["tail_norm"] == record.summary["blow_up"]


class TestIssMetrics:
    def test_zero_record(self):
        record = experiment.RunRecord(
            t=np.arange(8), attack=np.zeros(8, dtype=int), u=np.zeros((8, 2)),
            y=np.zeros((8, 2)), zeta=np.zeros((8, 2)), y_norm=np.zeros(8),
            cost=np.full(8, np.nan), qp_iterations=np.full(8, np.nan))
        metrics = experiment.iss_metrics(record)
        assert metrics == {"tail_norm": 0.0, "peak_norm": 0.0, "decay_fit": 0.0}

    def test_decay_sign_on_stabilized_run(self):
        record = experiment.run_experiment(fast_config(v_bar=0.0, t_sim=120))
        assert experiment.iss_metrics(record)["decay_fit"] < 0.0

    def test_open_loop_peak_exceeds_threshold(self, reactor):
        gains = lti.synthesize_gains(reactor)
        frozen = lti.GainSet(k=np.zeros((2, 4)), l_obs=gains.l_obs, eta=gains.eta)
        record = experiment.run_closed_loop(reactor, ModelBasedController(reactor, frozen),
                                            t_sim=200, x0=np.ones(4) / 2,
                                            v_bar=0.0, noise_seed=2)
        assert experiment.iss_metrics(record)["peak_norm"] > 1e3


class TestCompareAndSweep:
    def test_compare_shares_randomness(self, tmp_path):
        cfg = fast_config(attack=dos.params_for_ratio(0.8841),
                          output_dir=str(tmp_path))
        result = experiment.compare(cfg)
        dd, mb = result["data_driven"], result["model_based"]
        assert np.array_equal(dd.attack, mb.attack)
        assert dd.summary["status"] == "ok" and mb.summary["status"] == "ok"
        assert dd.summary["peak_norm"] < cfg.blow_up
        assert (tmp_path / "compare.json").exists()

    def test_compare_noise_free_both_stabilize(self):
        result = experiment.compare(fast_config(v_bar=0.0, t_sim=200))
        assert result["data_driven"].summary["tail_norm"] <= 1e-4
        assert result["model_based"].summary["tail_norm"] <= 1e-4

    def test_degenerate_sweep_equals_single_run(self):
        cfg = fast_config()
        rows = experiment.sweep(cfg, "v_bar", [1e-4], repetitions=1)
        single = experiment.run_experiment(cfg)
        assert rows[0]["tail_norm"] == single.summary["tail_norm"]
        assert rows[0]["status"] == "ok"

    def test_sweep_records_cell_failures_and_continues(self, tmp_path, monkeypatch):
        # a cell that fails at run time records its failure and the sweep goes on
        run = experiment.run_experiment

        def failing_at_40(config):
            if config.n_samples == 40:
                raise RuntimeError("cell failed")
            return run(config)

        monkeypatch.setattr(experiment, "run_experiment", failing_at_40)
        rows = experiment.sweep(fast_config(), "N", [40, 60, 80, 100],
                                repetitions=1, output_dir=str(tmp_path))
        assert rows[0]["status"].startswith("error")
        assert all(r["status"] == "ok" for r in rows[1:])
        assert (tmp_path / "sweep.csv").exists()

    def test_sweep_csv_reads_back_with_csv_reader(self, tmp_path, monkeypatch):
        # the failure message holds double quotes and commas
        def failing_run(config):
            raise RuntimeError(f'cell "v_bar={config.v_bar}" failed, twice')

        monkeypatch.setattr(experiment, "run_experiment", failing_run)
        rows = experiment.sweep(fast_config(), "v_bar", [1e-4], output_dir=str(tmp_path))
        with open(tmp_path / "sweep.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert [len(row) for row in table] == [7, 7]
        assert table[1][3] == rows[0]["status"] and '"' in rows[0]["status"]
        assert table[1][4:] == ["", "", "-1"]

    def test_horizon_sweep_at_small_n_is_order_limited(self):
        # with N = 40 every horizon in the nominal range needs more samples
        # than the stricter-of-two excitation order allows (L = 8 needs 41)
        with pytest.raises(ConfigError, match="Assumption 6"):
            experiment.sweep(fast_config(n_samples=40), "L", [8, 12], repetitions=1)

    def test_configuration_error_propagates(self, tmp_path):
        # an unknown controller fails every cell alike: the sweep stops
        # before writing anything
        with pytest.raises(ConfigError, match="unknown controller"):
            experiment.sweep(fast_config(controller="it's"), "v_bar", [1e-4],
                             output_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            experiment.sweep(fast_config(), "dt", [0.1])


class TestWarningsAndExtras:
    def test_periodic_resilience_warning(self, caplog):
        import logging
        cfg = fast_config(controller="data-driven-periodic",
                          attack=dos.params_for_ratio(0.8841))
        with caplog.at_level(logging.WARNING, logger="dosmpc.experiment"):
            experiment.prepare(cfg)
        assert any("periodic variant" in r.message for r in caplog.records)

    def test_short_horizon_warning(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="dosmpc.experiment"):
            experiment.prepare(fast_config(horizon=6))
        assert any("stricter experimental bound" in r.message for r in caplog.records)

    @pytest.mark.skipif("DOSMPC_FULL_GRID" not in __import__("os").environ,
                        reason="full 45-run trade-off grid; set DOSMPC_FULL_GRID=1")
    def test_full_trade_off_grid(self):
        from statistics import median
        ratios = (0.8841, 0.9142, 0.9317)
        levels = (1e-4, 1e-3, 1e-2)
        grid = {}
        for ratio in ratios:
            for v in levels:
                tails = []
                for i in range(5):
                    cfg = experiment.ExperimentConfig(
                        v_bar=v, attack=dos.params_for_ratio(ratio),
                        data_seed=1 + i, noise_seed=2 + 10 * i,
                        attack_seed=3 + 100 * i)
                    tails.append(experiment.run_experiment(cfg).summary["tail_norm"])
                grid[(ratio, v)] = median(tails)
        for v in levels:
            row = [grid[(r, v)] for r in ratios]
            assert all(a <= b for a, b in zip(row, row[1:]))
        for ratio in ratios:
            col = [grid[(ratio, v)] for v in levels]
            assert all(a <= b for a, b in zip(col, col[1:]))


class TestCli:
    def test_run_exit_codes_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["run", "--t-sim", "60", "--v-bar", "1e-4",
                         "--ratio", "0.8841", "--out", str(out)])
        assert code == 0
        assert (out / "record.csv").exists()
        assert (out / "record_summary.json").exists()
        assert (out / "schedule.txt").exists()

    def test_run_validation_failure_exit_code(self, tmp_path):
        code = cli.main(["run", "--horizon", "4", "--out", str(tmp_path)])
        assert code == 3

    def test_attack_check_generate_and_validate(self, tmp_path, capsys):
        out = tmp_path / "atk"
        assert cli.main(["attack-check", "--ratio", "0.8841", "--t-sim", "300",
                         "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["attack-check", "--schedule", str(out / "schedule.txt")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]

    def test_attack_check_ratio_keeps_nu_f_flag(self, tmp_path):
        out = tmp_path / "atk"
        assert cli.main(["attack-check", "--ratio", "0.8", "--nu-f", "6", "--t-sim", "50",
                         "--out", str(out)]) == 0
        params = dos.load_schedule(out / "schedule.txt").params
        assert params == dos.params_for_ratio(0.8, nu_f=6.0)

    def test_attack_check_report_matches_oracle(self, tmp_path, capsys):
        # a passing T = 2000 worst-case schedule and a failing hand-made one
        out = tmp_path / "atk"
        assert cli.main(["attack-check", "--ratio", "0.9142", "--t-sim", "2000",
                         "--worst-case", "--out", str(out)]) == 0
        failing = tmp_path / "failing.txt"
        failing.write_text("0110111011110\n")
        Path(str(failing) + ".json").write_text(json.dumps(
            {"kappa_f": 1.0, "nu_f": 4.0, "kappa_d": 1.0, "nu_d": 2.0, "seed": 0}))
        for path, code in ((out / "schedule.txt", 0), (failing, 1)):
            capsys.readouterr()
            assert cli.main(["attack-check", "--schedule", str(path)]) == code
            report = json.loads(capsys.readouterr().out)
            meta = json.loads(Path(str(path) + ".json").read_text())
            params = dos.AttackParams(**{k: meta[k] for k in ("kappa_f", "nu_f",
                                                              "kappa_d", "nu_d")})
            expected = dos_oracle.validate_schedule(
                [int(ch) for ch in path.read_text().strip()], params)
            assert report["passed"] == expected.passed
            assert report["worst_interval"] == [expected.worst_t1, expected.worst_t2]
            assert report["worst_kind"] == expected.worst_kind
            assert report["worst_excess"] == expected.worst_excess

    def test_attack_check_empty_schedule_reports_json(self, tmp_path, capsys):
        # an empty schedule passes; its excess has no finite value and is
        # reported as null, never as the non-JSON token -Infinity
        path = tmp_path / "schedule.txt"
        path.write_text("\n")
        Path(str(path) + ".json").write_text(json.dumps(dict(self.BUDGET, seed=0)))
        capsys.readouterr()
        assert cli.main(["attack-check", "--schedule", str(path)]) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["passed"] is True
        assert report["worst_excess"] is None

    def test_attack_check_rejects_invalid_schedule(self, tmp_path, capsys):
        path = tmp_path / "schedule.txt"
        path.write_text("1" * 40 + "\n")
        sidecar = {"kappa_f": 1.0, "nu_f": 4.0, "kappa_d": 1.0, "nu_d": 2.0,
                   "seed": 0}
        Path(str(path) + ".json").write_text(json.dumps(sidecar))
        assert cli.main(["attack-check", "--schedule", str(path)]) == 1

    BUDGET = {"kappa_f": 1.0, "nu_f": 4.0, "kappa_d": 1.0, "nu_d": 2.0}

    @pytest.mark.parametrize("config, argv, fragment", [
        ({"attack": dict(BUDGET, nu_x=3.0)}, ["run"], "unknown attack keys: nu_x"),
        ({"attack": {"ratio": 0.5, "nu_d": 3.0, "kappa_f": 9.0}}, ["run"],
         "unknown attack keys: kappa_f, nu_d"),
        ({"attack": {"ratio": 1.5}}, ["run"], "ratio 1.5 not reachable"),
        (None, ["run", "--ratio", "1.3"], "ratio 1.3 not reachable"),
        ({"attack": dict(BUDGET, nu_f=1.0)}, ["run"], "nu_f must be a finite number >= 2"),
        (None, ["attack-check", "--nu-f", "1"], "nu_f must be a finite number >= 2"),
        ('{"t_sim": ', ["run"], "malformed config JSON"),
        ([1, 2], ["run"], "config must be a JSON object"),
        ({"x0": [1.0, 0.0, 0.0]}, ["run"], "x0 has 3 entries"),
        (None, ["run", "--config", "missing.json"], "cannot read config"),
        (None, ["sweep", "--axis", "ratio", "--values", "1.5"], "ratio 1.5 not reachable"),
        ({"x0": 5}, ["run"], "x0 must be a list of finite numbers"),
        ({"t_sim": "200"}, ["run"], "t_sim must be an integer >= 0, got '200'"),
        ({"v_bar": "x"}, ["run"], "v_bar must be a finite number >= 0, got 'x'"),
        ({"dt": -0.1}, ["run"], "dt must be a finite number > 0"),
        ({"lambda_h": 0}, ["run"], "lambda_h must be a finite number > 0"),
        (None, ["run", "--lambda-g", "-1"], "lambda_g must be a finite number > 0, got -1"),
        (None, ["run", "--t-sim", "-5"], "t_sim must be an integer >= 0, got -5"),
        (None, ["attack-check", "--t-sim", "-5"], "t_sim must be an integer >= 0, got -5"),
        ({"blow_up": -1}, ["run"], "blow_up must be a finite number > 0 or +inf"),
        ({"t_sim": "200"}, ["sweep", "--axis", "v_bar", "--values", "1e-4"],
         "t_sim must be an integer >= 0, got '200'"),
        ({"dt": -0.1}, ["sweep", "--axis", "v_bar", "--values", "1e-4"],
         "dt must be a finite number > 0"),
        ({"v_bar": float("nan")}, ["run"], "v_bar must be a finite number >= 0, got nan"),
        ({"lambda_g": float("inf")}, ["run"], "lambda_g must be a finite number > 0, got inf"),
        ({"model": 5}, ["run"], "model must be a name or a path"),
        ({"excitation_amplitude": 0}, ["run"], "excitation_amplitude must be a finite number > 0"),
        ({"seeds": {"data": 5}, "data_seed": 7}, ["run"], "seeds given twice"),
        (None, ["run", "--n-samples", "40"], "Assumption 6 violated: n_samples 40"),
        (None, ["collect", "--n-samples", "46"], "Assumption 6 violated: n_samples 46"),
        (None, ["sweep", "--axis", "N", "--values", "40,60"],
         "Assumption 6 violated: n_samples 40"),
        (None, ["attack-check", "--ratio", "0.8", "--kappa-d", "3"],
         "unknown attack keys: kappa_d"),
        ({"output_dir": 5}, ["run"], "output_dir must be a path or null"),
        (None, ["sweep", "--axis", "N", "--values", "60.7"], "sweep axis N takes integers"),
        (None, ["sweep", "--axis", "L", "--values", "10,10.5"], "sweep axis L takes integers"),
        (None, ["run", "--t-sim", "abc"], "argument --t-sim: invalid int value"),
        (None, ["run", "--bogus"], "unrecognized arguments: --bogus"),
        (None, ["sweep", "--axis", "v_bar"], "the following arguments are required: --values"),
        (None, ["sweep", "--axis", "v_bar", "--values", "abc"],
         "argument --values: invalid float_list value"),
        (None, ["sweep", "--axis", "v_bar", "--values", "1e-4", "--repetitions", "0"],
         "repetitions must be an integer >= 1, got 0"),
        (None, ["sweep", "--axis", "v_bar", "--values", "1e-4", "--repetitions", "-2"],
         "repetitions must be an integer >= 1, got -2"),
        (None, ["attack-check", "--seed", "-1", "--t-sim", "10"],
         "seed must be an integer >= 0, got -1"),
        (None, ["attack-check", "--schedule", "missing.txt"], "cannot read schedule missing.txt"),
        ({"attack": {"ratio": True}}, ["run"], "ratio must be a finite number > 0, got True"),
        ({"attack": {"ratio": "0.5"}}, ["run"], "ratio must be a finite number > 0, got '0.5'"),
        ({"attack": {"ratio": 0.8, "nu_f": "4"}}, ["run"],
         "nu_f must be a finite number >= 2 or +inf, got '4'"),
    ], ids=["attack-unknown-key", "ratio-extra-keys", "ratio-config", "ratio-flag",
            "nu_f-config", "nu_f-flag", "malformed-json", "json-array", "x0-length",
            "missing-file", "sweep-ratio", "x0-number", "t_sim-string", "v_bar-string",
            "dt-negative", "lambda_h-zero", "lambda_g-flag", "t_sim-flag",
            "attack-check-t_sim", "blow_up-negative", "sweep-t_sim-string", "sweep-dt-negative",
            "v_bar-nan", "lambda_g-inf", "model-number", "amplitude-zero", "seed-twice",
            "run-N40", "collect-N46", "sweep-N40", "ratio-with-kappa_d-flag",
            "output_dir-number", "sweep-N-fraction", "sweep-L-fraction", "t_sim-not-int",
            "unknown-flag", "sweep-no-values", "sweep-values-text", "sweep-repetitions-0",
            "sweep-repetitions-negative", "attack-check-seed", "attack-check-missing-schedule",
            "ratio-bool", "ratio-string", "ratio-nu_f-string"])
    def test_configuration_errors_exit_3_without_output(self, tmp_path, monkeypatch,
                                                        capsys, config, argv, fragment):
        # ``fragment`` names the rule that refuses the input, so that an
        # input refused by some other rule, or by a stray exception turned
        # into a configuration error, fails the case.
        monkeypatch.chdir(tmp_path)
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv = argv + ["--config", str(path)]
        assert cli.main(argv + ["--out", "written"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and fragment in err
        assert not (tmp_path / "written").exists()

    @pytest.mark.parametrize("line, sidecar", [
        (None, True), ("1021", True), ("1010", False),
    ], ids=["missing-file", "malformed-line", "missing-sidecar"])
    def test_unreadable_schedule_exits_3(self, tmp_path, capsys, line, sidecar):
        # a schedule that cannot be read is a configuration error, not a
        # failed validation (exit 1)
        path = tmp_path / "schedule.txt"
        if line is not None:
            path.write_text(line + "\n")
        if sidecar:
            Path(str(path) + ".json").write_text(json.dumps(dict(self.BUDGET, seed=0)))
        assert cli.main(["attack-check", "--schedule", str(path)]) == 3
        assert capsys.readouterr().err.startswith("configuration error: cannot read schedule")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--help"])
        assert exc.value.code == 0
        assert "--t-sim" in capsys.readouterr().out

    @pytest.mark.parametrize("module, name, error, argv", [
        (experiment, "synthesize_gains", SynthesisError, ["--controller", "model-based"]),
        (experiment, "collect_offline", PersistencyError, []),
        (controllers, "solve_mpc", SolverError, []),
    ], ids=["synthesis", "persistency", "solver"])
    def test_numerical_failures_exit_4_without_output(self, tmp_path, monkeypatch, capsys,
                                                      module, name, error, argv):
        def fail(*args, **kwargs):
            raise error("forced")

        monkeypatch.setattr(module, name, fail)
        out = tmp_path / "written"
        assert cli.main(["run", "--t-sim", "20", "--out", str(out)] + argv) == 4
        assert capsys.readouterr().err == "numerical failure: forced\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, written", [
        (["collect"], "offline_data.csv"),
        (["run", "--t-sim", "60"], "record.csv"),
        (["sweep", "--axis", "v_bar", "--values", "1e-4", "--t-sim", "60"], "sweep.csv"),
        (["compare", "--t-sim", "60"], "compare.json"),
    ], ids=["collect", "run", "sweep", "compare"])
    def test_output_directory_rule(self, tmp_path, monkeypatch, capsys, command, written):
        # --out, else the config's output_dir, else out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({"output_dir": "from_config"}))
        assert cli.main(command + ["--config", "config.json"]) == 0
        assert cli.main(command + ["--config", "config.json", "--out", "from_flag"]) == 0
        assert cli.main(command) == 0
        for out in ("from_config", "from_flag", "out"):
            assert (tmp_path / out / written).exists()

    def test_collect_writes_certified_data(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli.main(["collect", "--v-bar", "1e-4", "--out", str(out)]) == 0
        assert (out / "offline_data.csv").exists()
        sidecar = json.loads((out / "offline_data.csv.json").read_text())
        assert sidecar["pe"]["excited"]

    def test_sweep_cli(self, tmp_path):
        code = cli.main(["sweep", "--axis", "v_bar", "--values", "1e-4",
                         "--t-sim", "60", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("axis, values", [("N", "60,80"), ("L", "10,12")])
    def test_sweep_cli_integer_axis(self, tmp_path, axis, values):
        # sample counts and horizons reach the cells, and sweep.csv, as integers
        assert cli.main(["sweep", "--axis", axis, "--values", values, "--t-sim", "20",
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert [row["value"] for row in table] == values.split(",")
        assert all(row["status"] == "ok" for row in table)

    def test_no_attack_flag_overrides_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"attack": {"ratio": 0.8841}}))
        out = tmp_path / "run"
        assert cli.main(["run", "--config", str(config), "--no-attack", "--t-sim", "60",
                         "--out", str(out)]) == 0
        assert not (out / "schedule.txt").exists()
        assert json.loads((out / "config.json").read_text())["attack"] is None
        assert not experiment.RunRecord.load(out).attack.any()

    def test_compare_cli(self, tmp_path):
        code = cli.main(["compare", "--t-sim", "60", "--v-bar", "1e-4",
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "data_driven.csv").exists()
        assert (tmp_path / "model_based.csv").exists()
