import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dosmpc import lti
from dosmpc.errors import DimensionError, StructureError, SynthesisError


def taylor_expm_oracle(a, terms=60):
    # straight truncated series, no scaling: independent of the shipped path
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def observability_stack(model, eta):
    """[C; CA; ...; CA^(eta-1)]."""
    return np.vstack([model.c @ np.linalg.matrix_power(model.a, i) for i in range(eta)])


def deadbeat_closed_form(model, eta):
    """A^eta O_eta^-1 [0; ...; 0; I], the one deadbeat gain when p eta = n."""
    tail = np.zeros((eta * model.n_y, model.n_y))
    tail[-model.n_y:] = np.eye(model.n_y)
    return np.linalg.matrix_power(model.a, eta) @ np.linalg.solve(
        observability_stack(model, eta), tail)


class TestDiscretize:
    def test_zero_dynamics(self):
        b = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]])
        model = lti.SystemModel(np.zeros((3, 3)), b, np.eye(3), np.zeros((3, 2)))
        disc = lti.discretize(model, 0.1)
        np.testing.assert_allclose(disc.a, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(disc.b, 0.1 * b, atol=1e-15)

    def test_diagonal_decoupling(self):
        diag = np.array([-1.0, 0.3, 2.0])
        model = lti.SystemModel(np.diag(diag), np.ones((3, 1)), np.eye(3), np.zeros((3, 1)))
        disc = lti.discretize(model, 0.25)
        np.testing.assert_allclose(np.diag(disc.a), np.exp(diag * 0.25), rtol=1e-13)

    def test_batch_reactor_against_series_oracle(self, reactor_continuous):
        disc = lti.discretize(reactor_continuous, 0.1)
        np.testing.assert_allclose(disc.a, taylor_expm_oracle(reactor_continuous.a * 0.1),
                                   rtol=0, atol=1e-12)
        # Richardson check via dt halving
        half = lti.discretize(reactor_continuous, 0.05)
        assert np.linalg.norm(half.a @ half.a - disc.a) <= 1e-9

    def test_b_matrix_against_quadrature(self, reactor_continuous):
        # integral of exp(A s) B over [0, dt] by fine trapezoid quadrature,
        # the node values exp(A s_i) B = exp(A dt / steps)^i B stepped by one
        # series exponential
        dt, steps = 0.1, 20000
        step = taylor_expm_oracle(reactor_continuous.a * (dt / steps))
        acc = np.zeros_like(reactor_continuous.b)
        vals = [reactor_continuous.b]
        for _ in range(steps):
            vals.append(step @ vals[-1])
        for i in range(steps):
            acc = acc + 0.5 * (vals[i] + vals[i + 1]) * (dt / steps)
        disc = lti.discretize(reactor_continuous, dt)
        np.testing.assert_allclose(disc.b, acc, rtol=0, atol=1e-9)

    def test_rejects_nonpositive_dt(self, reactor_continuous):
        with pytest.raises(ValueError):
            lti.discretize(reactor_continuous, 0.0)


class TestSimulate:
    def test_equilibrium(self, reactor):
        traj = lti.simulate(reactor, np.zeros(4), np.zeros((10, 2)), np.zeros((10, 4)))
        assert np.all(traj.states == 0.0)
        assert np.all(traj.outputs == 0.0)

    def test_scalar_geometric_decay(self, scalar_model):
        traj = lti.simulate(scalar_model, [1.0], np.zeros((3, 1)))
        np.testing.assert_allclose(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125])
        np.testing.assert_allclose(traj.outputs[:, 0], [1.0, 0.5, 0.25])

    def test_deterministic_bitwise(self, reactor):
        rng = np.random.default_rng(0)
        u = rng.uniform(-1, 1, (40, 2))
        w = rng.uniform(-1e-3, 1e-3, (40, 4))
        a = lti.simulate(reactor, np.ones(4), u, w)
        b = lti.simulate(reactor, np.ones(4), u, w)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.outputs, b.outputs)

    def test_dimension_mismatch(self, reactor):
        with pytest.raises(DimensionError):
            lti.simulate(reactor, np.zeros(4), np.zeros((5, 3)))
        with pytest.raises(DimensionError):
            lti.simulate(reactor, np.zeros(4), np.zeros((5, 2)), np.zeros((4, 4)))


class TestObservabilityIndex:
    def test_full_state_output(self):
        model = lti.SystemModel(np.diag([0.2, 0.4]), np.ones((2, 1)), np.eye(2),
                                np.zeros((2, 1)))
        assert lti.observability_index(model) == 1

    def test_batch_reactor_is_two(self, reactor):
        assert lti.observability_index(reactor) == 2

    def test_single_output_chain(self):
        n = 4
        shift = np.eye(n, k=1)
        c = np.zeros((1, n))
        c[0, 0] = 1.0
        model = lti.SystemModel(shift, np.ones((n, 1)), c, np.zeros((1, 1)))
        # rank oracle over every depth
        for i in range(1, n + 1):
            theta = np.vstack([c @ np.linalg.matrix_power(shift, k) for k in range(i)])
            assert (np.linalg.matrix_rank(theta) == n) == (i == n)
        assert lti.observability_index(model) == 4

    def test_unobservable_raises(self):
        # repeated eigenvalue, output sees only one mode
        model = lti.SystemModel(np.diag([0.5, 0.5]), np.ones((2, 1)),
                                np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        with pytest.raises(StructureError):
            lti.observability_index(model)


class TestStructuralMatrices:
    def test_depth_one_blocks(self, reactor):
        sm = lti.structural_matrices(reactor, 1)
        np.testing.assert_array_equal(sm.theta_n, reactor.c)
        assert np.all(sm.upsilon_i == 0.0)
        assert np.all(sm.upsilon_b == 0.0)

    def test_depth_two_lower_left_is_cb(self, reactor):
        sm = lti.structural_matrices(reactor, 2)
        np.testing.assert_allclose(sm.upsilon_b[2:4, 0:2], reactor.c @ reactor.b)
        assert np.all(sm.upsilon_b[:2] == 0.0)

    def test_psi_block_layout(self, reactor):
        n = 3
        sm = lti.structural_matrices(reactor, n)
        nu, ny, nx = reactor.n_u, reactor.n_y, reactor.n_x
        np.testing.assert_array_equal(sm.psi[:n * nu, :n * nu], np.eye(n * nu))
        assert np.all(sm.psi[:n * nu, n * nu:] == 0.0)
        np.testing.assert_array_equal(sm.psi[n * nu:, n * nu:], sm.theta_n)

    def test_window_identity_on_noisy_trajectories(self, reactor):
        # stacked window identity at depth 12 to 1e-10 on simulated data
        depth = 12
        sm = lti.structural_matrices(reactor, depth)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(5):
            x0 = rng.standard_normal(4)
            x0 /= np.linalg.norm(x0)
            u = rng.uniform(-1, 1, (30, 2))
            w = rng.uniform(-1e-2, 1e-2, (30, 4))
            traj = lti.simulate(reactor, x0, u, w)
            for start in (0, 7, 18):
                uwin = traj.inputs[start:start + depth].reshape(-1)
                ywin = traj.outputs[start:start + depth].reshape(-1)
                wwin = traj.noises[start:start + depth].reshape(-1)
                lhs = np.concatenate([uwin, ywin])
                rhs = sm.psi @ np.concatenate([uwin, traj.states[start]])
                rhs[depth * 2:] += sm.upsilon_i @ wwin
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-10

    def test_theta_rank_tracks_observability(self, reactor):
        eta = lti.observability_index(reactor)
        theta = lti.structural_matrices(reactor, eta).theta_n
        assert np.linalg.matrix_rank(theta) == reactor.n_x
        unobs = lti.SystemModel(np.eye(2), np.ones((2, 1)),
                                np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        theta2 = lti.structural_matrices(unobs, 2).theta_n
        assert np.linalg.matrix_rank(theta2) < unobs.n_x


class TestSynthesizeGains:
    def test_zero_dynamics(self):
        model = lti.SystemModel(np.zeros((3, 3)), np.eye(3, 2), np.eye(3),
                                np.zeros((3, 2)))
        gains = lti.synthesize_gains(model)
        assert np.allclose(gains.k, 0.0)
        assert np.allclose(gains.l_obs, 0.0, atol=1e-12)
        assert gains.deadbeat_norm <= 1e-8

    def test_scalar_deadbeat(self):
        model = lti.SystemModel([[2.0]], [[1.0]], [[1.0]], [[0.0]])
        gains = lti.synthesize_gains(model)
        np.testing.assert_allclose(gains.l_obs, [[2.0]], atol=1e-12)

    def test_batch_reactor_contract(self, reactor):
        gains = lti.synthesize_gains(reactor)
        assert gains.eta == 2
        nil = np.linalg.matrix_power(reactor.a - gains.l_obs @ reactor.c, 2)
        assert np.linalg.norm(nil, 2) <= 1e-8
        radius = max(abs(np.linalg.eigvals(reactor.a + reactor.b @ gains.k)))
        assert radius < 1.0

    def test_batch_reactor_closed_form(self, reactor):
        # p eta = n = 4, so the deadbeat gain is unique.
        l_obs = lti.synthesize_gains(reactor).l_obs
        closed = deadbeat_closed_form(reactor, 2)
        assert np.linalg.norm(l_obs - closed, 2) <= 1e-12 * np.linalg.norm(closed, 2)

    def test_deadbeat_check_is_scaled_by_rounding(self, monkeypatch):
        # Draw 156 of this stream: eta = 6, ||L|| = 99.1 and ||(A - LC)^6|| =
        # 1.23e-8, above an absolute 1e-8 by rounding alone.
        rng = np.random.default_rng(2024)
        for _ in range(156):
            n, p = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            a, c = rng.standard_normal((n, n)), rng.standard_normal((p, n))
        model = lti.SystemModel(a, np.eye(n), c, np.zeros((p, n)))
        gains = lti.synthesize_gains(model)
        assert gains.eta == 6 and gains.deadbeat_norm > 1e-8
        # The same gain with one entry moved by 1e-10 of its norm is rejected.
        deadbeat = lti._deadbeat_observer_gain

        def perturbed(model, eta):
            l_obs = deadbeat(model, eta)
            l_obs[0, 0] += 1e-10 * np.linalg.norm(l_obs, 2)
            return l_obs
        monkeypatch.setattr(lti, "_deadbeat_observer_gain", perturbed)
        with pytest.raises(SynthesisError, match="deadbeat check failed"):
            lti.synthesize_gains(model)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 6), p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_random_observable_models(self, n, p, seed):
        # The class: A with N(0, 1/n) entries, C with N(0, 1) entries, B = I,
        # kept when cond(O_eta) <= 30 for O_eta = [C; CA; ...; CA^(eta-1)].
        # About six in seven draws pass the filter, and about a third of the
        # kept ones have unequal observability indices (p eta > n), where the
        # gain is not unique and only nilpotency is checked. Ill-conditioned
        # single-output chains are left out: there ||L|| reaches 1e3 and the
        # absolute 1e-8 on (A - LC)^eta is beyond float64.
        rng = np.random.default_rng(seed)
        model = lti.SystemModel(rng.standard_normal((n, n)) / np.sqrt(n), np.eye(n),
                                rng.standard_normal((p, n)), np.zeros((p, n)))
        eta = lti.observability_index(model)
        assume(np.linalg.cond(observability_stack(model, eta)) <= 30)
        gains = lti.synthesize_gains(model)
        nil = np.linalg.matrix_power(model.a - gains.l_obs @ model.c, eta)
        assert np.linalg.norm(nil, 2) <= 1e-8
        if p * eta == n:
            closed = deadbeat_closed_form(model, eta)
            assert np.linalg.norm(gains.l_obs - closed, 2) <= 1e-12 * np.linalg.norm(closed, 2)


class TestSerialization:
    def test_json_round_trip(self, reactor):
        clone = lti.SystemModel.from_json(reactor.to_json())
        np.testing.assert_array_equal(clone.a, reactor.a)
        np.testing.assert_array_equal(clone.b, reactor.b)
        assert clone.dt == reactor.dt

    def test_continuous_flag_discretizes(self, reactor_continuous, reactor):
        obj = json.loads(reactor_continuous.to_json())
        obj["continuous"] = True
        obj["dt"] = 0.1
        loaded = lti.SystemModel.from_json(json.dumps(obj))
        np.testing.assert_allclose(loaded.a, reactor.a, atol=1e-14)

    def test_missing_d_defaults_to_zero(self, reactor):
        obj = json.loads(reactor.to_json())
        del obj["d"]
        loaded = lti.SystemModel.from_json(json.dumps(obj))
        assert np.all(loaded.d == 0.0)

    def test_structure_check(self, reactor):
        assert lti.check_structure(reactor)["observable"]
        bad = lti.SystemModel(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]),
                              np.eye(2), np.zeros((2, 1)))
        with pytest.raises(StructureError):
            lti.check_structure(bad)  # unstable mode unreachable
