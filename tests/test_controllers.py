import numpy as np
import pytest

from dosmpc import controllers, dos, lti, mpc
from dosmpc.errors import DimensionError
from dosmpc.experiment import run_closed_loop


def drive(reactor, controller, indicators, x0, v_bar, noise_seed=2):
    """Minimal loop mirroring the harness, returning per-step logs."""
    t_sim = len(indicators)
    rng = np.random.default_rng(noise_seed)
    w = rng.uniform(-v_bar, v_bar, (t_sim, 4)) if v_bar > 0 else np.zeros((t_sim, 4))
    nn = rng.uniform(-v_bar, v_bar, (t_sim, 2)) if v_bar > 0 else np.zeros((t_sim, 2))
    x = np.asarray(x0, dtype=float).copy()
    states, inputs, results = [], [], []
    for t in range(t_sim):
        states.append(x.copy())
        res = controller.step(t, bool(indicators[t]))
        controller.finish(reactor.c @ x + nn[t], res.u)
        inputs.append(res.u.copy())
        results.append(res)
        x = reactor.a @ x + reactor.b @ res.u + w[t]
    return np.array(states), np.array(inputs), results


class TestDataDrivenController:
    def test_zero_input_before_window_fills(self, noisy_hankel, study_config):
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        for t in range(2):
            res = ctrl.step(t, attack=False)
            assert not res.solved and np.all(res.u == 0.0)
            ctrl.finish(np.zeros(2), res.u)

    def test_missing_packet_on_success_raises(self, noisy_hankel, study_config):
        # a success instant whose measurement window finish has not filled
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        ctrl.finish(np.zeros(2), ctrl.step(0, False).u)
        ctrl.step(1, False)
        with pytest.raises(ValueError):
            ctrl.step(2, False)

    def test_success_applies_first_predicted_input(self, reactor, noisy_hankel, study_config,
                                                   monkeypatch):
        u_pred0 = []

        def capture(*args, **kwargs):
            solution = mpc.solve_mpc(*args, **kwargs)
            u_pred0.append(solution.u_pred[0].copy())
            return solution

        monkeypatch.setattr(controllers, "solve_mpc", capture)
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        ind = np.zeros(6, dtype=int)
        _, inputs, results = drive(reactor, ctrl, ind, np.ones(4) / 2, 1e-4)
        solved_at = [t for t, r in enumerate(results) if r.solved]
        assert solved_at == [2, 3, 4, 5] and len(u_pred0) == 4
        # the applied input at each solve equals offset zero of that solution
        for t, u0 in zip(solved_at, u_pred0):
            assert np.array_equal(inputs[t], u0)

    def test_solve_after_attack_run_uses_last_eta_measurements(self, noisy_hankel,
                                                               study_config):
        # the sensor-side buffer keeps measuring through the attack run, so
        # the solve at t = 6 starts from the inputs and measurements of t = 4, 5
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        instances = []
        build = ctrl.assembler.qp

        def capture(init_u, init_zeta):
            instances.append(build(init_u, init_zeta))
            return instances[-1]

        ctrl.assembler.qp = capture
        rng = np.random.default_rng(5)
        fed_u, fed_zeta = [], []
        for t, attack in enumerate([False, False, False, True, True, True, False]):
            res = ctrl.step(t, attack)
            zeta = rng.uniform(-1e-2, 1e-2, 2)
            ctrl.finish(zeta, res.u)
            fed_u.append(res.u.copy())
            fed_zeta.append(zeta)
        assert len(instances) == 2 and ctrl.last_solve == 6
        expected = np.concatenate([np.ravel(fed_u[4:6]), np.ravel(fed_zeta[4:6])])
        assert np.array_equal(instances[-1], expected)

    def test_hold_then_zero_is_bit_exact(self, reactor, noisy_hankel, study_config):
        # one success, then an attack run longer than the horizon
        t_sim = 2 + 1 + 13
        ind = np.ones(t_sim, dtype=int)
        ind[:3] = 0
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        _, inputs, results = drive(reactor, ctrl, ind, np.ones(4) / 2, 1e-4)
        assert results[2].solved and not any(r.solved for r in results[3:])
        cached = ctrl.cached
        for offset in range(1, 10):
            assert np.array_equal(inputs[2 + offset], cached.u_pred[offset])
        for t in range(12, t_sim):  # offsets >= L are zero
            assert np.all(inputs[t] == 0.0)
        # terminal part of the cache is exactly zero, so the tail is continuous
        assert np.all(cached.u_pred[8:] == 0.0)

    def test_inputs_stay_in_box_under_fixture_schedule(self, reactor, noisy_hankel,
                                                       study_config):
        sched = dos.generate_random(dos.params_for_ratio(0.8841), 120, seed=3)
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        _, inputs, _ = drive(reactor, ctrl, sched.indicators.astype(int),
                             np.ones(4) / 2, 1e-4)
        assert np.max(np.abs(inputs)) <= study_config.u_max

    def test_recovers_through_blackout_longer_than_horizon(self, reactor, noisy_hankel,
                                                           study_config):
        # 25 consecutive losses: hold the plan for L-1 steps, coast on zero
        # input afterwards, then re-acquire and settle back to the noise floor
        params = dos.AttackParams(kappa_f=1.0, nu_f=4.0, kappa_d=12.0,
                                  nu_d=1.0 / (0.8841 - 0.25))
        indicators = np.zeros(200, dtype=bool)
        indicators[40:65] = True
        assert dos.validate_schedule(indicators, params).passed
        schedule = dos.DosSchedule(indicators=indicators, params=params, seed="manual")
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        record = run_closed_loop(reactor, ctrl, t_sim=200, x0=np.ones(4) / 2,
                                 v_bar=1e-4, noise_seed=2, schedule=schedule)
        assert record.summary["status"] == "ok"
        assert np.max(record.y_norm[40:80]) < 1.0
        assert record.summary["tail_norm"] < 1e-2

    def test_determinism_bitwise(self, reactor, noisy_hankel, study_config):
        sched = dos.generate_random(dos.params_for_ratio(0.8841), 60, seed=3)
        runs = []
        for _ in range(2):
            ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
            _, inputs, _ = drive(reactor, ctrl, sched.indicators.astype(int),
                                 np.ones(4) / 2, 1e-4)
            runs.append(inputs)
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("zeta_len, u_len", [(2, 3), (2, 1), (1, 2), (3, 2)])
    def test_finish_rejects_wrong_lengths(self, noisy_hankel, study_config, zeta_len, u_len):
        # A length-1 row would broadcast over a window row without the check.
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        with pytest.raises(DimensionError):
            ctrl.finish(np.zeros(zeta_len), np.zeros(u_len))
        assert np.all(ctrl.input_window == 0.0) and np.isnan(ctrl.output_window).all()

    def test_windows_follow_the_stacked_recurrence(self, noisy_hankel, study_config):
        # finish shifts its windows in place; after every step they must equal
        # the recurrence window <- [window[1:]; row], and no StepResult.u
        # handed out earlier may change. Attacks are drawn too, so the loop
        # solves, holds and emits zero.
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config)
        rng = np.random.default_rng(11)
        inputs, outputs = ctrl.input_window.copy(), ctrl.output_window.copy()
        results, applied = [], []
        for t in range(40):
            res = ctrl.step(t, attack=bool(rng.random() < 0.3))
            zeta = rng.uniform(-1e-2, 1e-2, 2)
            # As a list too: the window takes any sequence of the right length.
            ctrl.finish(zeta if t % 2 else zeta.tolist(), res.u)
            inputs = np.vstack([inputs[1:], np.reshape(res.u, (1, -1))])
            outputs = np.vstack([outputs[1:], np.reshape(zeta, (1, -1))])
            assert np.array_equal(ctrl.input_window, inputs)
            assert np.array_equal(ctrl.output_window, outputs, equal_nan=True)
            results.append(res)
            applied.append(res.u.copy())
        assert sum(res.solved for res in results) > 10
        assert all(np.array_equal(res.u, u) for res, u in zip(results, applied))


class TestPeriodicController:
    def test_period_must_be_positive(self, noisy_hankel, study_config):
        # A fractional period or a bool is refused, not run as another period.
        for period in (0, 1.5, True):
            with pytest.raises(ValueError, match="period"):
                controllers.DataDrivenController(noisy_hankel, study_config, period=period)

    def test_solve_count_without_attacks(self, reactor, noisy_hankel, study_config):
        t_sim = 200
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config, period=4)
        _, _, results = drive(reactor, ctrl, np.zeros(t_sim, dtype=int),
                              np.ones(4) / 2, 1e-4)
        solves = sum(r.solved for r in results)
        assert solves == int(np.ceil(t_sim / 4)) == 50

    def test_equilibrium_stays_at_zero(self, reactor, clean_hankel, study_config):
        ctrl = controllers.DataDrivenController(clean_hankel, study_config, period=4)
        _, inputs, _ = drive(reactor, ctrl, np.zeros(30, dtype=int), np.zeros(4), 0.0)
        assert np.max(np.abs(inputs)) <= 1e-9

    def test_bounded_within_stricter_resilience_condition(self):
        # the periodic variant demands n_x/nu_f + 1/nu_d < 1; inside that
        # region it completes and stays bounded (coarser than per-step solves)
        from dosmpc import experiment
        params = dos.AttackParams(kappa_f=1.0, nu_f=10.0, kappa_d=1.0, nu_d=10.0)
        record = experiment.run_experiment(experiment.ExperimentConfig(
            controller="data-driven-periodic", attack=params, v_bar=1e-4, t_sim=200))
        assert record.summary["status"] == "ok"
        assert record.summary["peak_norm"] < 100.0
        assert record.summary["tail_norm"] < 1.0

    def test_holds_cached_plan_between_solves(self, reactor, noisy_hankel, study_config):
        ctrl = controllers.DataDrivenController(noisy_hankel, study_config, period=4)
        _, inputs, results = drive(reactor, ctrl, np.zeros(12, dtype=int),
                                   np.ones(4) / 2, 1e-4)
        first = next(t for t, r in enumerate(results) if r.solved)
        cached_after_first = [r.solved for r in results[first:first + 4]]
        assert cached_after_first == [True, False, False, False]


class TestModelBasedController:
    def test_equilibrium(self, reactor):
        gains = lti.synthesize_gains(reactor)
        ctrl = controllers.ModelBasedController(reactor, gains)
        _, inputs, _ = drive(reactor, ctrl, np.zeros(20, dtype=int), np.zeros(4), 0.0)
        assert np.all(inputs == 0.0)

    def test_noise_free_deadbeat_reset(self, reactor):
        # after eta=2 deliveries the observer is exact; any later reset
        # matches the true state to numerical precision
        gains = lti.synthesize_gains(reactor)
        ctrl = controllers.ModelBasedController(reactor, gains)
        ind = np.array([0, 0, 0, 1, 1, 0, 0, 0])
        states, _, _ = drive(reactor, ctrl, ind, np.ones(4) / 2, 0.0)
        # replay: at each success t >= 2, step() resets xhat to xbar
        ctrl2 = controllers.ModelBasedController(reactor, gains)
        x = np.ones(4) / 2
        for t in range(len(ind)):
            attack = bool(ind[t])
            u = ctrl2.step(t, attack).u
            if not attack and t >= 2:
                assert np.linalg.norm(ctrl2.xhat - x) <= 1e-8
            y = reactor.c @ x
            ctrl2.finish(y, u)
            x = reactor.a @ x + reactor.b @ u

    def test_noise_free_deadbeat_reset_with_feedthrough(self, feedthrough_reactor):
        # with D != 0 the observer subtracts D u from the measurement; after
        # eta attack-free steps the estimate is exact all the same
        model = feedthrough_reactor
        gains = lti.synthesize_gains(model)
        ctrl = controllers.ModelBasedController(model, gains)
        x = np.ones(4) / 2
        for t in range(8):
            u = ctrl.step(t, False).u
            if t >= gains.eta:
                assert np.linalg.norm(ctrl.xhat - x) <= 1e-8
            ctrl.finish(model.c @ x + model.d @ u, u)
            x = model.a @ x + model.b @ u

    @pytest.mark.parametrize("zeta_len, u_len", [(2, 3), (1, 2), (1, 3), (3, 1)])
    def test_finish_rejects_wrong_lengths(self, reactor, zeta_len, u_len):
        ctrl = controllers.ModelBasedController(reactor, lti.synthesize_gains(reactor))
        with pytest.raises(ValueError):
            ctrl.finish(np.zeros(zeta_len), np.zeros(u_len))

    def test_modes_reject_a_plant_of_other_dimensions(self, reactor):
        # what finish would refuse on the first step, modes refuses up front
        ctrl = controllers.ModelBasedController(reactor, lti.synthesize_gains(reactor))
        wider_u = lti.SystemModel(reactor.a, np.hstack((reactor.b, reactor.b[:, :1])),
                                  reactor.c, np.zeros((2, 3)), dt=reactor.dt)
        wider_y = lti.SystemModel(reactor.a, reactor.b, np.vstack((reactor.c, reactor.c[:1])),
                                  np.zeros((3, 2)), dt=reactor.dt)
        for plant in (wider_u, wider_y):
            with pytest.raises(DimensionError):
                ctrl.modes(plant)
        assert [m.shape for m in ctrl.modes(reactor)] == [(16, 12), (16, 12), (12, 6)]

    def test_bounded_under_fixture_attacks(self, reactor):
        gains = lti.synthesize_gains(reactor)
        ctrl = controllers.ModelBasedController(reactor, gains)
        sched = dos.generate_random(dos.params_for_ratio(0.8841), 200, seed=3)
        record = run_closed_loop(reactor, ctrl, t_sim=200, x0=np.ones(4) / 2,
                                 v_bar=1e-3, noise_seed=2, schedule=sched,
                                 controller_name="model-based")
        assert record.summary["status"] == "ok"
        assert record.summary["peak_norm"] < 1e3


class Recorder:
    """Forwards the loop protocol to a controller and logs every call; it is
    an instance of neither controller class."""

    def __init__(self, inner):
        self.inner, self.calls, self.measured = inner, [], []

    def step(self, t, attack):
        self.calls.append(("step", t))
        return self.inner.step(t, attack)

    def finish(self, zeta, u):
        self.calls.append(("finish", len(self.measured)))
        self.measured.append(np.array(zeta))
        self.inner.finish(zeta, u)


class TestLoopProtocol:
    def test_run_closed_loop_drives_every_kind_without_type_check(
            self, reactor, noisy_hankel, study_config):
        sched = dos.generate_random(dos.params_for_ratio(0.8841), 40, seed=3)
        builds = {
            "data-driven": lambda: controllers.DataDrivenController(
                noisy_hankel, study_config),
            "data-driven-periodic": lambda: controllers.DataDrivenController(
                noisy_hankel, study_config, period=4),
            "model-based": lambda: controllers.ModelBasedController(
                reactor, lti.synthesize_gains(reactor)),
        }
        for kind, build in builds.items():
            kwargs = dict(t_sim=40, x0=np.ones(4) / 2, v_bar=1e-4, noise_seed=2,
                          schedule=sched)
            plain = run_closed_loop(reactor, build(), **kwargs)
            recorder = Recorder(build())
            record = run_closed_loop(reactor, recorder, **kwargs)
            assert recorder.calls == [(name, t) for t in range(40)
                                      for name in ("step", "finish")], kind
            for name in ("u", "y", "zeta", "cost"):
                assert np.array_equal(getattr(record, name), getattr(plain, name),
                                      equal_nan=True), (kind, name)
            # finish receives the measurement at every step, attacked or not;
            # the record logs it only where it was delivered
            measured = np.array(recorder.measured)
            delivered = sched.indicators[:40] == 0
            assert np.array_equal(measured[delivered], record.zeta[delivered]), kind
            assert np.max(np.abs(measured - record.y)) <= 1e-4, kind
            assert (record.summary["num_solves"] > 0) == (kind != "model-based"), kind
