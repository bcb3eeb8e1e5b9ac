import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dosmpc import qp
from dosmpc.errors import DimensionError


def free_bounds(n):
    return -np.inf * np.ones(n), np.inf * np.ones(n)


def random_equality_qp(rng, n=12, m=5):
    g = rng.standard_normal((n, n))
    p = g.T @ g + 0.1 * np.eye(n)
    a = rng.standard_normal((m, n))
    q_vec = rng.standard_normal(n)
    b = rng.standard_normal(m)
    lb, ub = free_bounds(n)
    problem = qp.QpProblem(p=p, q=q_vec, aeq=a, beq=b, lb=lb, ub=ub)
    kkt = np.block([[p, a.T], [a, np.zeros((m, m))]])
    z_star = np.linalg.solve(kkt, np.concatenate([-q_vec, b]))
    return problem, z_star[:n], z_star[n:]


def upper_bound_problem():
    """min 0.5 z^2 - 3z on [0, 1]: the upper bound is active at z = 1."""
    return qp.QpProblem(p=np.eye(1), q=np.array([-3.0]), aeq=np.zeros((0, 1)),
                        beq=np.zeros(0), lb=np.array([0.0]), ub=np.array([1.0]))


class TestSolve:
    def test_unconstrained_minimum(self):
        lb, ub = free_bounds(3)
        problem = qp.QpProblem(p=np.eye(3), q=np.zeros(3), aeq=np.zeros((0, 3)),
                               beq=np.zeros(0), lb=lb, ub=ub)
        sol = qp.solve(problem)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z, 0.0, atol=1e-10)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_active_upper_bound(self):
        sol = qp.solve(upper_bound_problem())
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z, [1.0], atol=1e-9)

    def test_equality_only_matches_kkt_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            problem, z_star, _ = random_equality_qp(rng)
            sol = qp.solve(problem)
            assert sol.status == "optimal"
            assert np.max(np.abs(sol.z - z_star)) <= 1e-6

    def test_inconsistent_equalities_not_optimal(self):
        lb, ub = free_bounds(1)
        problem = qp.QpProblem(p=np.eye(1), q=np.zeros(1),
                               aeq=np.array([[1.0], [1.0]]), beq=np.array([0.0, 1.0]),
                               lb=lb, ub=ub)
        sol = qp.solve(problem, qp.Settings(max_iter=2000))
        assert sol.status != "optimal"

    def test_invariant_under_row_scaling(self):
        rng = np.random.default_rng(2)
        problem, z_star, _ = random_equality_qp(rng)
        scale = rng.uniform(0.1, 10.0, problem.aeq.shape[0])
        scaled = qp.QpProblem(p=problem.p, q=problem.q,
                              aeq=problem.aeq * scale[:, None],
                              beq=problem.beq * scale,
                              lb=problem.lb, ub=problem.ub)
        sol_a = qp.solve(problem)
        sol_b = qp.solve(scaled)
        assert np.max(np.abs(sol_a.z - sol_b.z)) <= 1e-6

    def test_warm_start_agreement(self):
        rng = np.random.default_rng(3)
        n = 10
        g = rng.standard_normal((n, n))
        p = g.T @ g + 1e-8 * np.eye(n)
        problem = qp.QpProblem(p=p, q=rng.standard_normal(n), aeq=np.zeros((0, n)),
                               beq=np.zeros(0), lb=-0.4 * np.ones(n), ub=0.4 * np.ones(n))
        sol_a = qp.Solver().solve(problem, warm_z=rng.standard_normal(n))
        sol_b = qp.Solver().solve(problem, warm_z=rng.standard_normal(n))
        assert np.max(np.abs(sol_a.z - sol_b.z)) <= 1e-6

    def test_objective_not_above_feasible_warm_start(self):
        rng = np.random.default_rng(4)
        n = 8
        g = rng.standard_normal((n, n))
        p = g.T @ g + 0.5 * np.eye(n)
        problem = qp.QpProblem(p=p, q=rng.standard_normal(n), aeq=np.zeros((0, n)),
                               beq=np.zeros(0), lb=-np.ones(n), ub=np.ones(n))
        warm = rng.uniform(-1, 1, n)  # feasible point
        warm_objective = 0.5 * warm @ p @ warm + problem.q @ warm
        sol = qp.Solver().solve(problem, warm_z=warm)
        assert sol.objective <= warm_objective + 1e-9

    def test_max_iter_status(self):
        # The optimum needs one working-set change (the upper bound enters).
        sol = qp.solve(upper_bound_problem(), qp.Settings(max_iter=0))
        assert sol.status == "max_iter"


def enumeration_oracle(problem):
    """Exhaustive active-set search: every (inactive, lower, upper) labeling.

    A labeling counts only when its KKT system is solved to 1e-9, so a
    singular system whose computed point misses the equalities is rejected.
    Raises ValueError when no labeling is feasible."""
    n = problem.n
    best = None
    for code in range(3 ** n):
        labels = []
        c = code
        for _ in range(n):
            labels.append(c % 3)
            c //= 3
        rows, rhs = [], []
        if problem.aeq.shape[0]:
            rows.append(problem.aeq)
            rhs.append(problem.beq)
        for i, lab in enumerate(labels):
            if lab == 0:
                continue
            sel = np.zeros((1, n))
            sel[0, i] = 1.0
            rows.append(sel)
            rhs.append([problem.lb[i] if lab == 1 else problem.ub[i]])
        a_act = np.vstack(rows) if rows else np.zeros((0, n))
        b_act = np.concatenate([np.atleast_1d(r) for r in rhs]) if rhs else np.zeros(0)
        m = a_act.shape[0]
        kkt = np.block([[problem.p, a_act.T], [a_act, np.zeros((m, m))]])
        target = np.concatenate([-problem.q, b_act])
        try:
            sol = np.linalg.solve(kkt, target)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(kkt @ sol - target)) > 1e-9 * max(1.0, np.max(np.abs(target))):
            continue
        z = sol[:n]
        if np.any(z < problem.lb - 1e-9) or np.any(z > problem.ub + 1e-9):
            continue
        duals = sol[n + problem.aeq.shape[0]:]
        j = 0
        sign_ok = True
        for lab in labels:
            if lab == 0:
                continue
            if lab == 1 and duals[j] > 1e-9:
                sign_ok = False
            if lab == 2 and duals[j] < -1e-9:
                sign_ok = False
            j += 1
        if not sign_ok:
            continue
        value = 0.5 * z @ problem.p @ z + problem.q @ z
        if best is None or value < best[0]:
            best = (value, z)
    if best is None:
        raise ValueError("no labeling satisfies the KKT conditions: the QP is infeasible")
    return best[1]


@st.composite
def small_box_qps(draw):
    """Strictly convex QP with n <= 6, m <= 2, box +-0.5, plus a warm start.

    The equalities pass through an anchor point. Anchor entries at +-0.5 put
    it on a face or vertex of the box, where the active bounds and the
    equalities are linearly dependent; entries at +-1 lie outside the box
    and can make the instance infeasible."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, min(2, n)))
    anchor = np.array(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                    min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, n))
    aeq = rng.standard_normal((m, n))
    problem = qp.QpProblem(p=g.T @ g + 0.1 * np.eye(n), q=3 * rng.standard_normal(n),
                           aeq=aeq, beq=aeq @ anchor,
                           lb=-0.5 * np.ones(n), ub=0.5 * np.ones(n))
    return problem, rng.uniform(-1.0, 1.0, n)


class TestAgainstEnumerationOracle:
    def test_box_active_problems(self):
        # small problems where every active-set labeling can be enumerated
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = 5
            g = rng.standard_normal((n, n))
            p = g.T @ g + 0.2 * np.eye(n)
            problem = qp.QpProblem(p=p, q=3 * rng.standard_normal(n),
                                   aeq=rng.standard_normal((2, n)),
                                   beq=0.3 * rng.standard_normal(2),
                                   lb=-0.5 * np.ones(n), ub=0.5 * np.ones(n))
            z_star = enumeration_oracle(problem)
            sol = qp.solve(problem)
            assert sol.status == "optimal"
            assert np.max(np.abs(sol.z - z_star)) <= 1e-7

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_box_qps())
    def test_matches_oracle_from_any_warm_start(self, case):
        problem, warm = case
        try:
            z_star = enumeration_oracle(problem)
        except ValueError:
            z_star = None
        for sol in (qp.solve(problem), qp.solve(problem, warm_z=warm)):
            if z_star is None:
                assert sol.status != "optimal"
            else:
                assert sol.status == "optimal"
                assert np.max(np.abs(sol.z - z_star)) <= 1e-7


class TestRememberedFactorization:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 5), m=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.tuples(st.sampled_from(["rhs", "new_p", "new_aeq", "mutate_p"]),
                                    st.sampled_from([0.5, 2.0, np.inf]), st.booleans()),
                          min_size=1, max_size=8))
    def test_reused_solver_matches_fresh_solver(self, n, m, seed, steps):
        # One Solver reused over a sequence of QPs gives bit for bit what a
        # fresh one gives. ``rhs`` keeps the P and Aeq arrays and draws new
        # beq and bounds, the closed-loop case; ``new_p`` and ``new_aeq``
        # pass new arrays; ``mutate_p`` changes the P array in place.
        m = min(m, n)
        rng = np.random.default_rng(seed)

        def new_p():
            g = rng.standard_normal((n, n))
            return g.T @ g + 0.1 * np.eye(n)

        p, aeq, q = new_p(), rng.standard_normal((m, n)), 3 * rng.standard_normal(n)
        reused, warm = qp.Solver(), None
        for kind, half, use_warm in steps:
            if kind == "new_p":
                p = new_p()
            elif kind == "new_aeq":
                aeq = rng.standard_normal((m, n))
            elif kind == "mutate_p":
                p += rng.uniform(0.1, 1.0) * np.eye(n)
            problem = qp.QpProblem(p=p, q=q, aeq=aeq, beq=aeq @ rng.uniform(-1.0, 1.0, n),
                                   lb=-half * np.ones(n), ub=half * np.ones(n))
            assert problem.p is p  # so ``mutate_p`` changes a P the solver has seen
            warm_z = warm if use_warm else None
            fresh = qp.Solver().solve(problem, warm_z=warm_z)
            sol = reused.solve(problem, warm_z=warm_z)
            assert np.array_equal(sol.z, fresh.z)
            assert (sol.status, sol.iterations) == (fresh.status, fresh.iterations)
            primal, dual, _ = qp.kkt_residuals(problem, sol.z, sol.y_eq, sol.mu)
            assert (sol.primal_residual, sol.dual_residual) == (primal, dual)
            warm = sol.z


class TestKktResiduals:
    def test_exact_point_and_multipliers(self):
        rng = np.random.default_rng(6)
        problem, z_star, y_star = random_equality_qp(rng)
        primal, dual, comp = qp.kkt_residuals(problem, z_star, y_eq=y_star)
        assert primal <= 1e-10 and dual <= 1e-10 and comp <= 1e-10

    def test_unconstrained_gradient_value(self):
        lb, ub = free_bounds(1)
        problem = qp.QpProblem(p=np.eye(1), q=np.array([-3.0]), aeq=np.zeros((0, 1)),
                               beq=np.zeros(0), lb=lb, ub=ub)
        _, dual, _ = qp.kkt_residuals(problem, np.zeros(1))
        assert dual == pytest.approx(3.0)

    def test_box_violation_counts_as_primal(self):
        problem = qp.QpProblem(p=np.eye(2), q=np.zeros(2), aeq=np.zeros((0, 2)),
                               beq=np.zeros(0), lb=-np.ones(2), ub=np.ones(2))
        primal, _, _ = qp.kkt_residuals(problem, np.array([1.5, 0.0]))
        assert primal == pytest.approx(0.5)

    def test_reported_solution_satisfies_contract(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = 9
            g = rng.standard_normal((n, n))
            p = g.T @ g + 0.3 * np.eye(n)
            problem = qp.QpProblem(p=p, q=rng.standard_normal(n),
                                   aeq=rng.standard_normal((3, n)),
                                   beq=rng.standard_normal(3),
                                   lb=-0.7 * np.ones(n), ub=0.7 * np.ones(n))
            sol = qp.solve(problem)
            assert sol.status == "optimal"
            primal, dual, _ = qp.kkt_residuals(problem, sol.z, sol.y_eq, sol.mu)
            assert primal <= 1e-7 and dual <= 1e-7


class TestProblemValidation:
    def test_asymmetric_p_rejected(self):
        lb, ub = free_bounds(2)
        with pytest.raises(DimensionError):
            qp.QpProblem(p=np.array([[1.0, 0.5], [0.0, 1.0]]), q=np.zeros(2),
                         aeq=np.zeros((0, 2)), beq=np.zeros(0), lb=lb, ub=ub)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(DimensionError):
            qp.QpProblem(p=np.eye(1), q=np.zeros(1), aeq=np.zeros((0, 1)),
                         beq=np.zeros(0), lb=np.array([1.0]), ub=np.array([0.0]))

    def test_dump_load_round_trip(self):
        problem = qp.QpProblem(p=np.eye(2), q=np.array([1.0, -2.0]),
                               aeq=np.array([[1.0, 1.0]]), beq=np.array([0.5]),
                               lb=np.array([-np.inf, 0.0]), ub=np.array([np.inf, 2.0]))
        clone = qp.load_problem(qp.dump_problem(problem))
        np.testing.assert_array_equal(clone.p, problem.p)
        np.testing.assert_array_equal(clone.lb, problem.lb)
        np.testing.assert_array_equal(clone.ub, problem.ub)
        sol_a, sol_b = qp.solve(problem), qp.solve(clone)
        np.testing.assert_allclose(sol_a.z, sol_b.z, atol=1e-12)
