import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dosmpc import data, lti, mpc, qp
from dosmpc.errors import DimensionError, SolverError


def solve(hankel, config, init_u, init_zeta):
    return mpc.solve_mpc(mpc.MpcAssembler(hankel, config), init_u, init_zeta)


@st.composite
def weights(draw):
    """A scalar weight, or a full symmetric positive definite 2x2 one."""
    a, c = draw(st.floats(1e-4, 10.0)), draw(st.floats(1e-4, 10.0))
    if draw(st.booleans()):
        return a
    b = draw(st.floats(-0.9, 0.9)) * np.sqrt(a * c)
    return np.array([[a, b], [b, c]])


def seeded_init(reactor, seed, steps=2, scale=1.0):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(4)
    x0 /= np.linalg.norm(x0)
    sim = lti.simulate(reactor, scale * x0, rng.uniform(-scale, scale, (steps, 2)))
    return sim.inputs, sim.outputs


class TestConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.0, lambda_h=1.0, v_bar=0.1)
        with pytest.raises(ValueError):
            mpc.MpcConfig(horizon=10, eta=2, lambda_g=1.0, lambda_h=1.0, v_bar=-0.1)
        with pytest.raises(ValueError):
            mpc.MpcConfig(horizon=10, eta=2, lambda_g=1.0, lambda_h=1.0, v_bar=0.1,
                          u_max=0.0)
        # NaN, an infinite weight, a fractional horizon and a bool are refused
        # on construction, not at the first solve
        good = dict(horizon=10, eta=2, lambda_g=1.0, lambda_h=1.0, v_bar=0.1)
        for bad in (dict(lambda_g=float("nan")), dict(v_bar=float("nan")),
                    dict(lambda_h=float("inf")), dict(horizon=10.5), dict(eta=True),
                    dict(horizon=1)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                mpc.MpcConfig(**{**good, **bad})

    def test_zero_noise_bound_is_clamped_in_cost_only(self):
        config = mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.1, lambda_h=100.0, v_bar=0.0)
        assert config.v_bar == 0.0
        assert config.cost_noise_scale() == 1e-9

    def test_weight_matrix_must_be_positive_definite(self, clean_hankel):
        config = mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.1, lambda_h=100.0,
                               v_bar=1e-4, r1=np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            mpc.MpcAssembler(clean_hankel, config)

    def test_weight_matrix_must_be_finite(self, clean_hankel):
        # A NaN or infinite weight is refused when the cost is assembled,
        # not at the controller's first solve.
        for name, weight in (("r1", float("nan")), ("r2", np.diag([np.inf, 1.0])),
                             ("r1", np.array([[1.0, np.nan], [np.nan, 1.0]]))):
            config = mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.1, lambda_h=100.0,
                                   v_bar=1e-4, **{name: weight})
            with pytest.raises(ValueError, match=f"{name.upper()} must be finite"):
                mpc.MpcAssembler(clean_hankel, config)


class TestAssembly:
    def test_decision_vector_length(self, clean_hankel, study_config):
        asm = mpc.MpcAssembler(clean_hankel, study_config)
        b, vmap = asm.qp(np.zeros((2, 2)), np.zeros((2, 2))), asm.vmap
        assert vmap.n == 89 + 24 + 24 + 24 == 161
        assert asm.problem.aeq.shape == (64, 161)
        assert b.shape == asm.problem.param_rows.shape == (8,)

    def test_index_map_slices_are_contiguous(self, clean_hankel, study_config):
        asm = mpc.MpcAssembler(clean_hankel, study_config)
        vm = asm.vmap
        assert vm.g.stop == vm.h.start and vm.h.stop == vm.u.start
        assert vm.u.stop == vm.y.start and vm.y.stop == vm.n

    def test_origin_is_feasible_with_zero_windows(self, clean_hankel, study_config):
        asm = mpc.MpcAssembler(clean_hankel, study_config)
        assert not asm.qp(np.zeros((2, 2)), np.zeros((2, 2))).any()
        primal, _, _ = qp.kkt_residuals(asm.problem, np.zeros(asm.problem.n))
        assert primal == 0.0

    def test_pe_certificate_required(self, clean_record, study_config):
        bare = data.Trajectory(inputs=clean_record.inputs, outputs=clean_record.outputs)
        hank = data.HankelPair.from_trajectory(bare, 12)
        with pytest.raises(ValueError):
            mpc.MpcAssembler(hank, study_config)

    def test_window_shape_validation(self, clean_hankel, study_config):
        asm = mpc.MpcAssembler(clean_hankel, study_config)
        with pytest.raises(DimensionError):
            asm.qp(np.zeros((3, 2)), np.zeros((2, 2)))
        bad_depth = data.HankelPair.from_trajectory(clean_hankel.source, 11)
        with pytest.raises(DimensionError):
            mpc.MpcAssembler(bad_depth, study_config)

    def test_constructed_feasible_point(self, reactor, clean_hankel, study_config):
        # least-squares representer of the zero-padded continuation, slack
        # absorbing the output mismatch, is primal feasible to 1e-8
        init_u, init_zeta = seeded_init(reactor, 23)
        asm = mpc.MpcAssembler(clean_hankel, study_config)
        beq, vm = asm.problem.beq.copy(), asm.vmap
        beq[asm.problem.param_rows] = asm.qp(init_u, init_zeta)
        w = study_config.window
        u_target = np.zeros((w, 2))
        u_target[:2] = init_u
        g = np.linalg.lstsq(clean_hankel.hu, u_target.reshape(-1), rcond=None)[0]
        y_repr = (clean_hankel.hy @ g).reshape(w, 2)
        y_stack = y_repr.copy()
        y_stack[:2] = init_zeta
        y_stack[w - 2:] = 0.0
        h = y_repr - y_stack
        z = np.zeros(vm.n)
        z[vm.g] = g
        z[vm.h] = h.reshape(-1)
        z[vm.u] = u_target.reshape(-1)
        z[vm.y] = y_stack.reshape(-1)
        primal, _, _ = qp.kkt_residuals(asm.problem.with_beq(beq), z)
        assert primal <= 1e-8


class TestSolveMpc:
    def test_zero_windows_cost_zero(self, study_assembler, solver):
        sol = mpc.solve_mpc(study_assembler, np.zeros((2, 2)), np.zeros((2, 2)), solver=solver)
        assert sol.cost <= 1e-8
        assert np.max(np.abs(sol.u_pred)) <= 1e-6

    def test_doubling_weights_doubles_cost(self, reactor, clean_hankel):
        init_u, init_zeta = seeded_init(reactor, 5)
        base = mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.1, lambda_h=100.0,
                             v_bar=1e-3, r1=1e-4, r2=3.0, u_max=10.0)
        double = mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.2, lambda_h=200.0,
                               v_bar=1e-3, r1=2e-4, r2=6.0, u_max=10.0)
        sol_a = solve(clean_hankel, base, init_u, init_zeta)
        sol_b = solve(clean_hankel, double, init_u, init_zeta)
        assert sol_b.cost == pytest.approx(2.0 * sol_a.cost, rel=1e-6)
        assert np.max(np.abs(sol_b.u_pred - sol_a.u_pred)) <= 1e-6

    def test_terminal_and_box_invariants(self, reactor, noisy_hankel, study_config):
        asm = mpc.MpcAssembler(noisy_hankel, study_config)
        solver = qp.Solver(asm.problem)
        for seed in range(10):
            init_u, init_zeta = seeded_init(reactor, 100 + seed)
            sol = mpc.solve_mpc(asm, init_u, init_zeta, solver=solver)
            assert np.all(sol.u_pred[8:] == 0.0)
            assert np.all(sol.y_pred[8:] == 0.0)
            assert np.max(np.abs(sol.u_pred)) <= study_config.u_max
            assert sol.cost >= 0.0

    def test_cost_bounds_on_slack_and_coefficients(self, reactor, noisy_hankel, study_config):
        init_u, init_zeta = seeded_init(reactor, 31)
        sol = solve(noisy_hankel, study_config, init_u, init_zeta)
        vc = study_config.cost_noise_scale()
        assert np.linalg.norm(sol.h) <= np.sqrt(sol.cost * vc / study_config.lambda_h)
        assert np.linalg.norm(sol.g) <= np.sqrt(sol.cost / (vc * study_config.lambda_g))

    def test_noise_free_exactness_of_slack(self, reactor, clean_hankel):
        config = mpc.MpcConfig(horizon=10, eta=2, lambda_g=0.1, lambda_h=100.0,
                               v_bar=0.0, r1=1e-4, r2=3.0, u_max=10.0)
        init_u, init_zeta = seeded_init(reactor, 7)
        sol = solve(clean_hankel, config, init_u, init_zeta)
        assert np.linalg.norm(sol.h) <= 1e-6

    def test_feasibility_unconditional(self, reactor, noisy_hankel, study_config):
        # slack keeps the program feasible for arbitrary init windows
        asm = mpc.MpcAssembler(noisy_hankel, study_config)
        solver = qp.Solver(asm.problem)
        rng = np.random.default_rng(77)
        for _ in range(100):
            init_u = rng.uniform(-1, 1, (2, 2))
            init_zeta = rng.uniform(-2, 2, (2, 2))
            sol = mpc.solve_mpc(asm, init_u, init_zeta, solver=solver)
            assert sol.cost >= 0.0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(window=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           lambda_g=st.floats(1e-3, 10.0), lambda_h=st.floats(1.0, 1e3),
           v_bar=st.sampled_from([0.0, 1e-4, 1e-3]), r1=weights(), r2=weights())
    def test_cost_matches_program_objective(self, noisy_hankel, window, lambda_g,
                                            lambda_h, v_bar, r1, r2):
        # The objective written term by term, in long double, from the
        # solution's own blocks. A cost below float64's smallest normal
        # number (windows near 1e-280 draw one) underflows in any float64 form.
        config = mpc.MpcConfig(horizon=10, eta=2, lambda_g=lambda_g, lambda_h=lambda_h,
                               v_bar=v_bar, r1=r1, r2=r2)
        init = np.reshape(window, (2, 2, 2))
        sol = solve(noisy_hankel, config, init[0], init[1])
        ld = np.longdouble
        u, y, g, h = (np.asarray(a, dtype=ld) for a in (sol.u_pred, sol.y_pred, sol.g, sol.h))
        r1, r2 = (np.asarray(r * np.eye(2) if np.ndim(r) == 0 else r, dtype=ld) for r in (r1, r2))
        vc = ld(config.cost_noise_scale())
        reference = (np.sum((u @ r1) * u) + np.sum((y @ r2) * y)
                     + ld(lambda_g) * vc * np.sum(g * g) + ld(lambda_h) / vc * np.sum(h * h))
        assert abs(ld(sol.cost) - reference) <= 1e-14 * reference + np.finfo(float).tiny
        for arr in (sol.u_pred, sol.y_pred, sol.g, sol.h):
            assert not arr.flags.writeable

    def test_determinism_across_fresh_solvers(self, reactor, noisy_hankel, study_config):
        init_u, init_zeta = seeded_init(reactor, 13)
        asm = mpc.MpcAssembler(noisy_hankel, study_config)
        sol_a = mpc.solve_mpc(asm, init_u, init_zeta, solver=qp.Solver(asm.problem))
        sol_b = mpc.solve_mpc(asm, init_u, init_zeta, solver=qp.Solver(asm.problem))
        assert np.array_equal(sol_a.u_pred, sol_b.u_pred)
        assert np.array_equal(sol_a.g, sol_b.g)

    def test_another_assemblers_solver_is_refused(self, clean_hankel, study_config, study_assembler):
        # The other assembler's problem is equal to this one's, but not it.
        solver = qp.Solver(mpc.MpcAssembler(clean_hankel, study_config).problem)
        with pytest.raises(ValueError, match="another problem"):
            mpc.solve_mpc(study_assembler, np.zeros((2, 2)), np.zeros((2, 2)), solver=solver)

    def test_prediction_tracks_plant_on_clean_data(self, reactor, clean_hankel, study_config):
        # solve from a known state, replay predicted inputs on the true plant
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(4)
        sim = lti.simulate(reactor, x0, rng.uniform(-1, 1, (2, 2)))
        sol = solve(clean_hankel, study_config, sim.inputs, sim.outputs)
        replay = lti.simulate(reactor, sim.states[2], sol.u_pred)
        # deviation is limited by the slack budget sqrt(J v/lh) ~ 1e-4,
        # amplified by the open-loop growth over the horizon
        assert np.max(np.abs(replay.outputs - sol.y_pred)) <= 2e-3


class TestSolverErrors:
    def test_inaccurate_solve_names_status_and_residuals(self, reactor, clean_hankel,
                                                         study_config, monkeypatch):
        monkeypatch.setattr(qp.Solver, "_full_check", lambda *args: False)
        init_u, init_zeta = seeded_init(reactor, 5)
        with pytest.raises(SolverError, match=r"status 'inaccurate' \(primal \S+, dual \S+,"):
            solve(clean_hankel, study_config, init_u, init_zeta)

    @pytest.mark.parametrize("offset, value, message", [
        (9, 1e-3, "terminal anchor violated"),
        (0, 10.0 + 1e-6, "input box violated"),
    ], ids=["terminal-anchor", "input-box"])
    def test_extract_rejects_violated_constraints(self, clean_hankel, study_config,
                                                  offset, value, message):
        # one predicted input, at an offset in [0, L-1], set to value
        asm = mpc.MpcAssembler(clean_hankel, study_config)
        problem, vm = asm.problem, asm.vmap
        z = np.zeros(vm.n)
        z[vm.u.start + (study_config.eta + offset) * vm.n_u] = value
        with pytest.raises(SolverError, match=message):
            asm.extract(qp.QpSolution(z=z, iterations=0, status="optimal", problem=problem))
