"""Whole-loop oracles: both model-based loops (``run_closed_loop`` with the
controller's step/finish, and the switched linear recursion that
``run_experiment`` runs) against an independent long-double recurrence
written from the unstacked observer/predictor equations; the plant side of
any record against ``lti.simulate``; and the homogeneity of noise-free runs
in the initial state."""
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from dosmpc import dos, lti
from dosmpc.controllers import DataDrivenController, ModelBasedController
from dosmpc.experiment import ExperimentConfig, _run_lifted, run_closed_loop, run_experiment

REL_TOL = 1e-12
LD = np.longdouble


def rel_inf(value, ref) -> float:
    scale = float(np.max(np.abs(ref), initial=0.0))
    diff = float(np.max(np.abs(np.asarray(value, dtype=LD) - ref), initial=0.0))
    return diff / scale if scale > 0 else diff


def noise_draws(model, t_sim, v_bar, noise_seed):
    """The noise run_closed_loop documents: process draws first, then network,
    i.i.d. uniform on [-v_bar, v_bar]."""
    rng = np.random.default_rng(noise_seed)
    if v_bar == 0:
        return np.zeros((t_sim, model.n_x)), np.zeros((t_sim, model.n_y))
    w = rng.uniform(-v_bar, v_bar, size=(t_sim, model.n_x))
    return w, rng.uniform(-v_bar, v_bar, size=(t_sim, model.n_y))


def oracle(model, gains, x0, indicators, v_bar, noise_seed, blow_up=1e6):
    """(u, y, diverged) of the model-based loop, in long double:
    u = K xhat after xhat <- xbar on success; y = C x + D u;
    xbar+ = A xbar + B u + L (zeta - C xbar - D u); xhat+ = A xhat + B u;
    x+ = A x + B u + w."""
    a, b, c, d, k, l_obs = (np.asarray(m, dtype=LD) for m in (
        model.a, model.b, model.c, model.d, gains.k, gains.l_obs))
    w, noise = noise_draws(model, len(indicators), v_bar, noise_seed)
    x = np.asarray(x0, dtype=LD)
    xbar = np.zeros(model.n_x, dtype=LD)
    xhat = np.zeros(model.n_x, dtype=LD)
    us, ys = [], []
    for t, attack in enumerate(indicators):
        if not attack:
            xhat = xbar.copy()
        u = k @ xhat
        y = c @ x + d @ u
        zeta = y + noise[t]
        xbar = a @ xbar + b @ u + l_obs @ (zeta - c @ xbar - d @ u)
        xhat = a @ xhat + b @ u
        x = a @ x + b @ u + w[t]
        us.append(u)
        ys.append(y)
        if np.sqrt(y @ y) >= blow_up:
            return np.array(us), np.array(ys), True
    return np.array(us), np.array(ys), False


def schedule_for(ratio, t_sim, seed):
    """A random schedule at ``ratio`` = 1/nu_f + 1/nu_d, none at 0. Below
    0.5 the ratio is split evenly, since nu_f = 4 alone would exceed it."""
    if ratio == 0:
        return None
    return dos.generate_random(dos.params_for_ratio(ratio, nu_f=max(4.0, 2.0 / ratio)),
                               t_sim, seed)


class TestModelBasedLoop:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(with_d=st.booleans(), ratio=st.floats(0.0, 0.95),
           v_bar=st.sampled_from([0.0, 1e-4, 1e-3]), t_sim=st.integers(1, 300),
           noise_seed=st.integers(0, 2**32 - 1), attack_seed=st.integers(0, 2**32 - 1))
    # the attack-long workload's run: ratio 0.9142, T = 5000, seed triple (1, 2, 3)
    @example(with_d=False, ratio=0.9142, v_bar=1e-4, t_sim=5000, noise_seed=2, attack_seed=3)
    def test_record_matches_long_double_recurrence(self, reactor, feedthrough_reactor, with_d,
                                                   ratio, v_bar, t_sim, noise_seed, attack_seed):
        # D != 0 exercises the B - LD block of the stacked observer map
        model = feedthrough_reactor if with_d else reactor
        gains = lti.synthesize_gains(model)
        schedule = schedule_for(ratio, t_sim, attack_seed)
        x0 = np.ones(model.n_x) / np.sqrt(model.n_x)
        indicators = np.zeros(t_sim, bool) if schedule is None else schedule.indicators
        u, y, diverged = oracle(model, gains, x0, indicators, v_bar, noise_seed)
        for loop in (run_closed_loop, _run_lifted):
            record = loop(model, ModelBasedController(model, gains), t_sim, x0,
                          v_bar, noise_seed, schedule=schedule)
            assert (record.summary["status"] == "diverged") == diverged, loop.__name__
            assert len(record) == len(u), loop.__name__
            assert rel_inf(record.u, u) <= REL_TOL, loop.__name__
            assert rel_inf(record.y, y) <= REL_TOL, loop.__name__


class TestPlantReplay:
    def test_records_replay_through_simulate(self, reactor, feedthrough_reactor, noisy_hankel,
                                             study_config):
        # the applied inputs and the process draws reproduce y through the
        # plain recursion, whatever controller chose the inputs
        schedule = schedule_for(0.8841, 40, 3)
        x0 = np.ones(4) / 2
        model = feedthrough_reactor
        for plant, controller in (
                (reactor, DataDrivenController(noisy_hankel, study_config)),
                (model, ModelBasedController(model, lti.synthesize_gains(model)))):
            record = run_closed_loop(plant, controller, 40, x0, 1e-4, 2, schedule=schedule)
            w, _ = noise_draws(plant, 40, 1e-4, 2)
            replay = lti.simulate(plant, x0, record.u, w)
            assert rel_inf(record.y, replay.outputs) <= REL_TOL


class TestHomogeneity:
    # Without noise and with an input box that never binds, both loops are
    # linear in x0, attacks included: the solve on its empty working set, the
    # plan replay, the zero fallback, the observer and the predictor. Scaling
    # x0 by a power of two scales every product and sum exactly, so u and y
    # must scale bit for bit. No divergence guard, so both runs are as long.
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(controller=st.sampled_from(["data-driven", "model-based"]),
           ratio=st.sampled_from([0.0, 0.5, 0.8841]), k=st.integers(-10, 3),
           seeds=st.tuples(*[st.integers(1, 10_000)] * 3))
    @example(controller="data-driven", ratio=0.8841, k=-10, seeds=(1, 2, 3))
    @example(controller="model-based", ratio=0.8841, k=3, seeds=(1, 2, 3))
    def test_records_scale_with_the_initial_state(self, controller, ratio, k, seeds):
        attack = None if ratio == 0 else dos.params_for_ratio(ratio)
        base = ExperimentConfig(v_bar=0.0, u_max=1e6, blow_up=np.inf, t_sim=60,
                                attack=attack, controller=controller, x0=(0.5,) * 4,
                                **dict(zip(("data_seed", "noise_seed", "attack_seed"), seeds)))
        scale = 2.0 ** k
        plain = run_experiment(base)
        scaled = run_experiment(replace(base, x0=(0.5 * scale,) * 4))
        assert (plain.summary["num_solves"] > 0) == (controller == "data-driven")
        assert np.array_equal(scaled.attack, plain.attack)
        assert np.array_equal(scaled.u, scale * plain.u)
        assert np.array_equal(scaled.y, scale * plain.y)
