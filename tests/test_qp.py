import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dosmpc import dos, experiment, qp
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

    def test_inconsistent_equalities_not_optimal(self, monkeypatch):
        monkeypatch.setattr(qp, "_MAX_ITER", 2000)
        lb, ub = free_bounds(1)
        problem = qp.QpProblem(p=np.eye(1), q=np.zeros(1),
                               aeq=np.array([[1.0], [1.0]]), beq=np.array([0.0, 1.0]),
                               lb=lb, ub=ub)
        sol = qp.solve(problem)
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
        sol_a = qp.Solver(problem).solve(warm_z=rng.standard_normal(n))
        sol_b = qp.Solver(problem).solve(warm_z=rng.standard_normal(n))
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
        sol = qp.Solver(problem).solve(warm_z=warm)
        assert sol.objective <= warm_objective + 1e-9

    def test_max_iter_status(self, monkeypatch):
        # The optimum needs one working-set change (the upper bound enters).
        monkeypatch.setattr(qp, "_MAX_ITER", 0)
        sol = qp.solve(upper_bound_problem())
        assert sol.status == "max_iter"

    def test_max_iter_status_inside_an_entering_step(self, monkeypatch):
        # The warm start pins z_0 at its upper bound, where z_1 = 2.9 violates
        # its own, so row 1 enters; its multiplier drives z_0's to zero before
        # z_1 comes down to 1, and that drop is the first change. The optimum
        # (0.4, 1) takes a second, so a cap of one stops the solve inside the
        # entering step: its last KKT solve still carries the entering row.
        problem = qp.QpProblem(p=np.array([[1.0, -0.9], [-0.9, 1.0]]), q=np.array([0.5, -2.0]),
                               aeq=np.zeros((0, 2)), beq=np.zeros(0),
                               lb=-np.ones(2), ub=np.ones(2))
        warm = np.array([1.0, 0.0])
        sol = qp.solve(problem, warm_z=warm)
        assert (sol.status, sol.iterations) == ("optimal", 2)
        np.testing.assert_allclose(sol.z, [0.4, 1.0], rtol=0, atol=1e-12)
        entering, solve_active = [], qp.Solver._solve_active

        def recording_solve_active(self, b, lo_act, hi_act, enter=None):
            entering.append(enter)
            return solve_active(self, b, lo_act, hi_act, enter)

        monkeypatch.setattr(qp.Solver, "_solve_active", recording_solve_active)
        monkeypatch.setattr(qp, "_MAX_ITER", 1)
        sol = qp.solve(problem, warm_z=warm)
        assert (sol.status, sol.iterations) == ("max_iter", 1)
        assert entering[-1] == (1, 1.0)

    @pytest.mark.parametrize("p, aeq, q, optimum", [
        (1e8 * np.eye(2), [[1.0, 1.0]], [-3e8, 3e8], [1.0, -1.0]),
        (1e5 * np.eye(2), [[1e-5, 0.0]], [0.0, -3e5], [0.0, 1.0])])
    def test_dependence_tolerance_ignores_cost_and_row_scale(self, p, aeq, q, optimum):
        # Row 0 of the first problem and row 1 of the second are independent
        # of Aeq, while K^-1's multiplier block reaches 4.8e7 and 1e9 here: a
        # tolerance that took it in would count them dependent, infeasible.
        problem = qp.QpProblem(p=p, q=np.array(q), aeq=np.array(aeq), beq=np.zeros(1),
                               lb=-np.ones(2), ub=np.ones(2))
        for warm in (None, np.array(optimum)):
            sol = qp.solve(problem, warm_z=warm)
            assert sol.status == "optimal"
            np.testing.assert_allclose(sol.z, optimum, rtol=0, atol=1e-12)


def enumeration_oracle(problem):
    """Exhaustive active-set search: every (free, lower, upper) labeling.

    Labeling ``code`` gives z_i the label ``code // 3**i % 3``. Each system
    has one shape, in (z, y_eq, mu) with one multiplier per variable:
    P z + Aeq' y_eq + mu = -q, Aeq z = beq, and per variable z_i = its
    pinned bound or mu_i = 0; its determinant is +- that of the labeling's
    reduced KKT system. A labeling counts only when its system is solved to
    1e-9, so a singular system whose computed point misses the equalities is
    rejected; one that pins an infinite bound is skipped. Among points in
    the box with multipliers of the right signs, the first labeling with the
    smallest objective wins. Raises ValueError when none is feasible."""
    n, m = problem.n, problem.aeq.shape[0]
    labels = np.arange(3 ** n)[:, None] // 3 ** np.arange(n) % 3
    pins = np.where(labels == 1, problem.lb, np.where(labels == 2, problem.ub, 0.0))
    finite = np.isfinite(pins).all(1)
    labels, pins = labels[finite], pins[finite]
    kkt = np.zeros((len(labels), 2 * n + m, 2 * n + m))
    kkt[:, :n + m, :n + m] = np.block([[problem.p, problem.aeq.T], [problem.aeq, np.zeros((m, m))]])
    kkt[:, :n, n + m:] = np.eye(n)
    rows = n + m + np.arange(n)
    kkt[np.arange(len(labels))[:, None], rows, np.where(labels > 0, rows - n - m, rows)] = 1.0
    target = np.hstack([np.tile(np.r_[-problem.q, problem.beq], (len(labels), 1)), pins])
    try:
        sol = np.linalg.solve(kkt, target[..., None])[..., 0]
    except np.linalg.LinAlgError:  # an exactly singular system: solve one at a time
        sol = np.full(target.shape, np.nan)
        for k in range(len(kkt)):
            with contextlib.suppress(np.linalg.LinAlgError):
                sol[k] = np.linalg.solve(kkt[k], target[k])
    z, mu = sol[:, :n], sol[:, n + m:]
    residual = np.abs((kkt @ sol[..., None])[..., 0] - target).max(1)
    ok = ((residual <= 1e-9 * np.maximum(1.0, np.abs(target).max(1)))
          & np.all((z >= problem.lb - 1e-9) & (z <= problem.ub + 1e-9), axis=1)
          & ~np.any((labels == 1) & (mu > 1e-9) | (labels == 2) & (mu < -1e-9), axis=1))
    if not ok.any():
        raise ValueError("no labeling satisfies the KKT conditions: the QP is infeasible")
    z = z[ok]
    return z[np.argmin(0.5 * np.einsum("ki,ij,kj->k", z, problem.p, z) + z @ problem.q)]


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

    def test_infinite_bound_is_never_pinned(self):
        # The unconstrained optimum (0, 3) violates ub[1]. A labeling that
        # pins z_0 at its upper bound pins it at +inf and solves to NaN; the
        # oracle must skip it rather than return that point.
        problem = qp.QpProblem(p=np.eye(2), q=np.array([0.0, -3.0]), aeq=np.zeros((0, 2)),
                               beq=np.zeros(0), lb=-np.ones(2), ub=np.array([np.inf, 1.0]))
        z_star = enumeration_oracle(problem)
        assert np.all(np.isfinite(z_star))
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
           steps=st.lists(st.tuples(st.sampled_from(["rhs", "bounds", "new_p", "new_aeq"]),
                                    st.sampled_from([0.5, 2.0, np.inf]), st.booleans()),
                          min_size=1, max_size=8))
    def test_reused_solver_matches_fresh_solver(self, n, m, seed, steps):
        # One Solver reused over a sequence of solves gives bit for bit what
        # a fresh one gives. Every beq row is a param row: ``rhs`` draws new
        # values b for them, the closed-loop case, and keeps the solver;
        # ``bounds`` (box half-width ``half``), ``new_p`` and ``new_aeq`` pose
        # a new problem, and so build a new solver.
        m = min(m, n)
        rng = np.random.default_rng(seed)

        def new_p():
            g = rng.standard_normal((n, n))
            return g.T @ g + 0.1 * np.eye(n)

        p, aeq, q = new_p(), rng.standard_normal((m, n)), 3 * rng.standard_normal(n)
        reused, warm, box = None, None, steps[0][1]
        for kind, half, use_warm in steps:
            if kind == "new_p":
                p = new_p()
            elif kind == "new_aeq":
                aeq = rng.standard_normal((m, n))
            elif kind == "bounds":
                box = half
            if reused is None or kind != "rhs":
                problem = qp.QpProblem(p=p, q=q, aeq=aeq, beq=np.zeros(m), lb=-box * np.ones(n),
                                       ub=box * np.ones(n), param_rows=np.arange(m))
                reused = qp.Solver(problem)
            b, warm_z = aeq @ rng.uniform(-1.0, 1.0, n), warm if use_warm else None
            fresh = qp.Solver(problem).solve(b, warm_z=warm_z)
            sol = reused.solve(b, warm_z=warm_z)
            assert np.array_equal(sol.z, fresh.z)
            assert (sol.status, sol.iterations) == (fresh.status, fresh.iterations)
            assert np.array_equal(sol.problem.beq, b)
            primal, dual, _ = qp.kkt_residuals(sol.problem, sol.z, sol.y_eq, sol.mu)
            assert (sol.primal_residual, sol.dual_residual) == (primal, dual)
            warm = sol.z


class TestAffinePiece:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e3]),
           steps=st.lists(st.tuples(st.sampled_from(["params", "params", "bounds", "q", "new_p",
                                                     "new_aeq"]), st.booleans()),
                          min_size=1, max_size=6))
    def test_param_rows_keep_solutions(self, n, m, seed, scale, steps):
        # A sequence of QPs that declare param rows. ``params`` draws new
        # values for the param rows of beq only, the closed-loop case, and
        # solves them with the Solver of the step before; ``bounds`` narrows
        # the box, so that a warm start keeps its working set at new bound
        # values; ``q`` draws a new q; ``new_p`` and ``new_aeq`` new arrays:
        # those four build a new Solver. Each solve must match a fresh
        # Solver bit for bit, the enumeration oracle to 1e-7, and a fresh
        # solve of the same QP with
        # no param rows declared to 256 float64 ulps of max|z|. With
        # ``scale`` 1e3 on Aeq's first column, beq is large while z stays of
        # order one, so the terms of x0 + X b cancel: there a long-double
        # piece was measured within 92 ulps, one kept in float64 up to 4064.
        m = min(m, n)
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps

        def new_p():
            g = rng.standard_normal((n, n))
            return g.T @ g + 0.1 * np.eye(n)

        def new_aeq():
            return rng.standard_normal((m, n)) * np.r_[scale, np.ones(n - 1)]

        p, aeq, q = new_p(), new_aeq(), 3 * rng.standard_normal(n)
        rows = np.sort(rng.choice(m, rng.integers(1, m + 1), replace=False))
        beq = aeq @ rng.uniform(-1.0, 1.0, n)
        # Finite bounds: the oracle pins every bound it labels.
        half = rng.choice([0.5, 2.0, 10.0])
        lb, ub = -half * rng.uniform(0.5, 1.0, n), half * rng.uniform(0.5, 1.0, n)
        reused, warm = None, None
        for kind, use_warm in steps:
            if kind == "params":
                beq = beq.copy()
                beq[rows] = (aeq @ rng.uniform(-1.0, 1.0, n))[rows]
            elif kind == "bounds":
                lb, ub = rng.uniform(0.7, 1.0) * lb, rng.uniform(0.7, 1.0) * ub
            elif kind == "q":
                q = 3 * rng.standard_normal(n)
            elif kind == "new_p":
                p = new_p()
            elif kind == "new_aeq":
                aeq = new_aeq()
                beq = aeq @ rng.uniform(-1.0, 1.0, n)
            problem = qp.QpProblem(p=p, q=q, aeq=aeq, beq=beq, lb=lb, ub=ub, param_rows=rows)
            if reused is None or kind != "params":
                reused = qp.Solver(problem)
            warm_z = warm if use_warm else None
            sol = reused.solve(beq[rows], warm_z=warm_z)
            fresh = qp.Solver(problem).solve(warm_z=warm_z)
            assert np.array_equal(sol.z, fresh.z)
            assert (sol.status, sol.iterations) == (fresh.status, fresh.iterations)
            try:
                z_star = enumeration_oracle(problem)
            except ValueError:
                assert sol.status != "optimal"
            else:
                assert sol.status == "optimal"
                assert np.max(np.abs(sol.z - z_star)) <= 1e-7
                undeclared = qp.solve(qp.QpProblem(p=p, q=q, aeq=aeq, beq=beq, lb=lb, ub=ub),
                                      warm_z=warm_z)
                assert np.max(np.abs(sol.z - undeclared.z)) <= 256 * eps * np.max(np.abs(sol.z))
            warm = sol.z


class CertificateRecorder(qp.Solver):
    """A Solver that keeps the certificate's (primal, dual) bounds of its
    last solve, or None when that solve did not consult a certificate."""

    bounds = None

    def solve(self, b=None, warm_z=None):
        self.bounds = None
        return super().solve(b, warm_z=warm_z)

    def _bounds(self, b, z, free_viol):
        self.bounds = super()._bounds(b, z, free_viol)
        return self.bounds


class TestResidualCertificate:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 1e3]), singular=st.just(False),
           steps=st.lists(st.tuples(st.sampled_from(["params", "params", "bounds", "q", "new_p",
                                                     "new_aeq"]), st.booleans()),
                          min_size=1, max_size=6))
    @example(n=3, m=1, seed=0, scale=1.0, singular=True, steps=[("params", False)] * 4)
    def test_certified_solves_pass_the_full_check(self, n, m, seed, scale, singular, steps):
        # TestAffinePiece's draws, each step solved twice with new param
        # values, so that pieces are reused and certificates built. Every
        # solve the certificate accepts must also pass the full check on the
        # same z, y_eq and mu, and its bounds must dominate kkt_residuals
        # there. The example is the singular base KKT matrix of
        # test_singular_base_kkt_is_never_wrongly_optimal with z_2 and z_3
        # unbounded and q scaled by 1e-3, which keeps z near 1e6, small
        # enough for the certificate to be built: the QP is unbounded below,
        # its empty working set has no KKT point, and the certificate,
        # consulted, must decline.
        m = min(m, n)
        rng = np.random.default_rng(seed)

        def new_p():
            g = rng.standard_normal((n, n))
            return g.T @ g + 0.1 * np.eye(n)

        def new_aeq():
            return rng.standard_normal((m, n)) * np.r_[scale, np.ones(n - 1)]

        p, aeq, q = new_p(), new_aeq(), 3 * rng.standard_normal(n)
        rows = np.sort(rng.choice(m, rng.integers(1, m + 1), replace=False))
        beq = aeq @ rng.uniform(-1.0, 1.0, n)
        half = rng.choice([0.5, 2.0, 10.0])
        lb, ub = -half * rng.uniform(0.5, 1.0, n), half * rng.uniform(0.5, 1.0, n)
        if singular:
            p, q = np.diag([1.0, 0.0, 0.0]), np.array([0.0, -1e-3, 5e-4])
            aeq, beq = np.array([[0.0, 1.0, 1.0]]), np.array([0.3])
            lb, ub = np.array([-1.0, -np.inf, -np.inf]), np.array([1.0, np.inf, np.inf])
        solver, warm, consulted = None, None, 0
        for kind, use_warm in steps:
            if kind == "bounds":
                lb, ub = rng.uniform(0.7, 1.0) * lb, rng.uniform(0.7, 1.0) * ub
            elif kind == "q":
                q = 3 * rng.standard_normal(n)
            elif kind == "new_p":
                p = new_p()
            elif kind == "new_aeq":
                aeq = new_aeq()
                beq = aeq @ rng.uniform(-1.0, 1.0, n)
            if solver is None or kind != "params":
                solver = CertificateRecorder(qp.QpProblem(p=p, q=q, aeq=aeq, beq=beq, lb=lb, ub=ub,
                                                          param_rows=rows))
            for _ in range(2):
                sol = solver.solve((aeq @ rng.uniform(-1.0, 1.0, n))[rows],
                                   warm_z=warm if use_warm else None)
                consulted += solver.bounds is not None
                assert sol.certified == (solver.bounds is not None and max(solver.bounds) <= 1e-8)
                if sol.certified:
                    assert sol.status == "optimal"
                    assert solver._full_check(sol.problem, sol.z, sol.y_eq, sol.mu)
                    primal, dual, _ = qp.kkt_residuals(sol.problem, sol.z, sol.y_eq, sol.mu)
                    assert solver.bounds[0] >= primal and solver.bounds[1] >= dual
                if singular:
                    assert not sol.certified and sol.status != "optimal"
                warm = sol.z
        if singular:
            assert consulted > 0

    def test_fast_path_covers_the_default_run(self, monkeypatch):
        # The default 200-step fixture run keeps one working set over its
        # 162 solves: all but the first, which builds the piece, may end on
        # the certificate, and at least 95% must.
        solutions, solve = [], qp.Solver.solve

        def recording_solve(self, b=None, warm_z=None):
            solutions.append(solve(self, b, warm_z=warm_z))
            return solutions[-1]

        monkeypatch.setattr(qp.Solver, "solve", recording_solve)
        experiment.run_experiment(experiment.ExperimentConfig(attack=dos.params_for_ratio(0.8841)))
        assert len(solutions) == 162
        assert all(sol.status == "optimal" for sol in solutions)
        assert sum(sol.certified for sol in solutions) >= 0.95 * len(solutions)


def reference_full_check(problem, z, y_eq, mu):
    """The full check's verdict by its formula before the check was trimmed:
    all three residuals, the complementarity one discarded, and dense
    products with P and |P|, all from the problem's arrays. Residuals that
    are not finite fail."""
    aeq_ext = problem.aeq.astype(np.longdouble)
    aeq_z = np.dot(aeq_ext, z.astype(np.longdouble)).astype(float)
    aeqt_y = np.dot(aeq_ext.T, y_eq.astype(np.longdouble)).astype(float)
    p_z, abs_z, abs_aeq = problem.p @ z, np.abs(z), np.abs(problem.aeq)
    r_p = float(max(np.max(np.abs(aeq_z - problem.beq), initial=0.0),
                    np.max(np.maximum(problem.lb - z, 0.0), initial=0.0),
                    np.max(np.maximum(z - problem.ub, 0.0), initial=0.0)))
    r_d = float(np.max(np.abs(p_z + problem.q + mu + aeqt_y), initial=0.0))
    eps_m, top = float(np.finfo(float).eps), lambda a: float(np.max(a, initial=0.0))
    box = np.isfinite(problem.lb) | np.isfinite(problem.ub)
    z_box, v_box = np.abs(z[box]), np.abs(np.clip(z, problem.lb, problem.ub)[box])
    floor_p = eps_m * max(top(abs_aeq @ abs_z + np.abs(problem.beq)), top(z_box + v_box))
    floor_d = eps_m * top(np.abs(problem.p) @ abs_z + abs_aeq.T @ np.abs(y_eq)
                          + np.abs(mu) + np.abs(problem.q))
    e_p = 1e-8 + 1e-8 * max(top(np.abs(aeq_z)), top(np.abs(problem.beq)), top(z_box),
                            top(v_box)) + floor_p
    e_d = 1e-8 + 1e-8 * max(top(np.abs(p_z)), top(np.abs(aeqt_y + mu)),
                            top(np.abs(problem.q))) + floor_d
    return bool(np.isfinite([r_p, r_d]).all()) and r_p <= e_p and r_d <= e_d


class TestFullCheck:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 8), m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           diagonal=st.booleans(), decades=st.integers(0, 10),
           miss=st.sampled_from([0.0, 1e-12, 1e-9, 3e-8, 1e-6]),
           special=st.sampled_from([None, np.nan, np.inf, -np.inf]))
    def test_verdict_matches_the_reference(self, n, m, seed, diagonal, decades, miss, special):
        # A candidate built to miss its KKT conditions by about ``miss`` in
        # each residual, across the tolerance, with entries spanning up to
        # ``decades``: the trimmed check must give the reference's verdict.
        # P is diagonal (some zeros on it) or dense, each bound finite or
        # infinite on its own, and on some draws one entry of z is NaN or
        # +-inf.
        m, rng = min(m, n), np.random.default_rng(seed)
        spread = lambda size: 10.0 ** rng.integers(-(decades // 2), decades // 2 + 1, size)  # noqa: E731
        if diagonal:
            p = np.diag(rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.2) * spread(n))
        else:
            g = rng.standard_normal((n, n)) * spread(n)
            p = g.T @ g + 0.1 * np.eye(n)
        aeq = rng.standard_normal((m, n)) * spread(n)
        z, y_eq = rng.standard_normal(n) * spread(n), rng.standard_normal(m)
        mu = rng.standard_normal(n) * (rng.random(n) < 0.5)
        lb = np.where(rng.random(n) < 0.4, -np.inf, z - rng.uniform(0.0, 1.0, n) * np.abs(z))
        ub = np.where(rng.random(n) < 0.4, np.inf, z + rng.uniform(0.0, 1.0, n) * np.abs(z))
        pinned = rng.random(n) < 0.3  # z on a bound, or past it by about ``miss``
        lb[pinned & np.isfinite(lb)] = (z + miss * rng.standard_normal(n))[pinned & np.isfinite(lb)]
        lb, ub = np.minimum(lb, ub), np.maximum(lb, ub)
        beq = aeq @ z + miss * rng.standard_normal(m)
        q = -(p @ z + aeq.T @ y_eq + mu) + miss * rng.standard_normal(n)
        problem = qp.QpProblem(p=p, q=q, aeq=aeq, beq=beq, lb=lb, ub=ub)
        if special is not None:
            z[rng.integers(n)] = special
        solver = qp.Solver(problem)
        solver._build()
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
            assert solver._full_check(problem, z, y_eq, mu) == reference_full_check(
                problem, z, y_eq, mu)

    def test_an_infinite_candidate_fails(self):
        # At z = +inf both residuals are inf, and so are the tolerances
        # _EPS_REL max|z| and _EPS_REL max|P z|: inf <= inf must not pass.
        problem = qp.QpProblem(p=[[3.8]], q=[-6.1], aeq=np.zeros((0, 1)), beq=np.zeros(0),
                               lb=[1.0], ub=[1.5])
        solver, y_eq, mu = qp.Solver(problem), np.zeros(0), np.array([1.4])
        solver._build()
        for z in (np.inf, 1e300):
            with np.errstate(invalid="ignore", over="ignore"):
                assert not solver._full_check(problem, np.array([z]), y_eq, mu)
                assert not reference_full_check(problem, np.array([z]), y_eq, mu)


class TestKeptArrays:
    """The arrays a problem keeps, and what a Solver builds once from them."""

    def test_a_run_inverts_once_and_then_matches_by_identity(self, monkeypatch):
        # The default run's 162 solves share one Solver, which solve_mpc
        # matches to the assembler's problem by identity: one inverse.
        inverses, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
        record = experiment.run_experiment(experiment.ExperimentConfig(
            attack=dos.params_for_ratio(0.8841)))
        assert np.count_nonzero(~np.isnan(record.qp_iterations)) == 162
        assert len(inverses) == 1

    def test_problem_arrays_are_read_only_copies(self):
        arrays = dict(p=np.diag([2.0, 3.0]), q=np.array([1.0, -2.0]), aeq=np.array([[1.0, 1.0]]),
                      beq=np.array([0.5]), lb=-np.ones(2), ub=np.ones(2))
        problem, beq = qp.QpProblem(**arrays, param_rows=[0]), np.array([0.25])
        for kept, given in [(getattr(problem, name), array) for name, array in arrays.items()] + [
                (problem.with_beq(beq).beq, beq)]:
            assert not kept.flags.writeable and not np.shares_memory(kept, given)
        assert not problem.param_rows.flags.writeable

    def test_b_of_the_wrong_length_is_refused(self):
        problem = qp.QpProblem(p=np.eye(2), q=np.zeros(2), aeq=np.eye(2), beq=np.zeros(2),
                               lb=-np.ones(2), ub=np.ones(2), param_rows=[1])
        solver = qp.Solver(problem)
        for b in ([], [0.5, 0.5], np.zeros((2, 1))):
            with pytest.raises(DimensionError, match="b must have length 1"):
                solver.solve(b)
        sol = solver.solve([0.5])
        assert np.array_equal(sol.problem.beq, [0.0, 0.5]) and sol.problem.p is problem.p
        assert np.array_equal(problem.beq, [0.0, 0.0]) and solver.solve().problem is problem


class TestSchurComplement:
    def test_singular_base_kkt_is_never_wrongly_optimal(self):
        # P is zero on e_2 - e_3, which spans null(Aeq) with e_1, so the base
        # KKT matrix [[P, Aeq'], [Aeq, 0]] is singular: outside the solver's
        # domain. It may give up, but an "optimal" answer must be right.
        problem = qp.QpProblem(p=np.diag([1.0, 0.0, 0.0]), q=np.array([0.0, -1.0, 0.5]),
                               aeq=np.array([[0.0, 1.0, 1.0]]), beq=np.array([0.3]),
                               lb=-np.ones(3), ub=np.ones(3))
        z_star = enumeration_oracle(problem)
        for warm in (None, z_star, np.zeros(3), np.array([1.0, -1.0, 1.0])):
            sol = qp.solve(problem, warm_z=warm)
            assert sol.status != "optimal" or np.max(np.abs(sol.z - z_star)) <= 1e-7

    def test_one_inverse_per_p_and_aeq(self, monkeypatch):
        # The held-out noise-sweep triple at v_bar = 3e-4 changes working sets
        # along its data-driven loop; no working set may invert a KKT matrix.
        inverses, seen = [], set()
        inv, solve = np.linalg.inv, qp.Solver.solve

        def counting_inv(a):
            inverses.append(a.shape)
            return inv(a)

        def recording_solve(self, b=None, warm_z=None):
            seen.add((id(self), self.problem.p.tobytes(), self.problem.aeq.tobytes()))
            return solve(self, b, warm_z=warm_z)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(qp.Solver, "solve", recording_solve)
        record = experiment.run_experiment(experiment.ExperimentConfig(
            v_bar=3e-4, attack=dos.params_for_ratio(0.8841),
            data_seed=10025, noise_seed=10026, attack_seed=10027))
        assert np.nansum(record.qp_iterations) > 0
        assert len({solver for solver, _, _ in seen}) == 1
        assert len(inverses) == len(seen) == 1

    def test_one_pivot_factorization_per_row_set(self, monkeypatch):
        # noise-sweep's first v_bar = 1e-3 run warm-starts its solves from the
        # same bound rows again and again: each ordered row set is factorized
        # once for its P and Aeq, and every call returns those pivots' bits.
        calls, factored = [], []
        pivots, factor = qp.Solver._pivots, qp.Solver._factor

        def recording_pivots(self, rows):
            calls.append((id(self), rows.tobytes()))
            result = pivots(self, rows)
            assert np.array_equal(result, factor(self, rows))
            return result

        def counting_factor(self, rows):
            factored.append((id(self), rows.tobytes()))
            return factor(self, rows)

        monkeypatch.setattr(qp.Solver, "_pivots", recording_pivots)
        monkeypatch.setattr(qp.Solver, "_factor", counting_factor)
        experiment.run_experiment(experiment.ExperimentConfig(
            v_bar=1e-3, attack=dos.params_for_ratio(0.8841),
            data_seed=20001, noise_seed=20002, attack_seed=20003))
        assert sum(1 for _, rows in calls if rows) > len(set(calls)) > 1
        assert sorted(factored) == sorted(set(calls))

        # A solver factorizes a row set once, whatever b; a new P or Aeq
        # comes with a new solver, which factorizes again.
        p, aeq = np.diag([2.0, 3.0, 4.0]), np.array([[1.0, 1.0, 1.0]])
        warm = np.array([1.0, -1.0, 0.5])
        factored.clear()
        for step, b in (("first", 0.5), ("again", 0.5), ("params", 0.25), ("new_p", 0.5),
                        ("new_aeq", 0.5), ("again", 0.5)):
            if step == "new_p":
                p = p + np.diag([1.0, 0.0, 0.0])
            elif step == "new_aeq":
                aeq = np.array([[1.0, 2.0, 1.0]])
            if step in ("first", "new_p", "new_aeq"):
                problem = qp.QpProblem(p=p, q=np.ones(3), aeq=aeq, beq=[0.5], lb=-np.ones(3),
                                       ub=np.ones(3), param_rows=[0])
                solver = qp.Solver(problem)
            count = len(factored)
            sol = solver.solve([b], warm_z=warm)
            assert len(factored) == count + (step in ("first", "new_p", "new_aeq"))
            assert np.array_equal(sol.z, qp.Solver(problem).solve([b], warm_z=warm).z)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_large_working_sets(self, seed):
        # Working sets of 5-26 bounds, beyond the n <= 6 tests: n 20-40,
        # m <= 8, box +-1. P = G'G has rank n/2, plus a ridge of 1e-8 (as in
        # the MPC cost) or 1e-3, each in half the draws. Each q is built
        # from a KKT point that pins bounds with multipliers of at least 0.5.
        # Every beq row is a param row. The second solve moves them to an
        # interior point's and is warm-started from the first answer, so the
        # reused solver meets it holding the first solve's columns and piece.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(20, 41)), int(rng.integers(0, 9))
        pinned = int(rng.integers(5, min(26, n - m - 2) + 1))
        ridge = (1e-3, 1e-8)[int(rng.integers(2))]
        g = rng.standard_normal((n // 2, n))
        p, aeq = g.T @ g + ridge * np.eye(n), rng.standard_normal((m, n))
        idx, side = rng.choice(n, pinned, replace=False), rng.choice([-1.0, 1.0], pinned)
        z, mu = rng.uniform(-0.9, 0.9, n), np.zeros(n)
        z[idx], mu[idx] = side, side * rng.uniform(0.5, 3.0, pinned)
        problem = qp.QpProblem(p=p, q=-(p @ z + aeq.T @ rng.standard_normal(m) + mu), aeq=aeq,
                               beq=aeq @ z, lb=-np.ones(n), ub=np.ones(n), param_rows=np.arange(m))
        reused, warm = qp.Solver(problem), None
        for b in (problem.beq, aeq @ rng.uniform(-0.9, 0.9, n)):
            sol = reused.solve(b, warm_z=warm)
            fresh = qp.Solver(problem).solve(b, warm_z=warm)
            assert sol.status == "optimal"
            assert np.array_equal(sol.z, fresh.z)
            assert (sol.status, sol.iterations) == (fresh.status, fresh.iterations)
            warm = sol.z


def qr_span_distances(aeq, rows, idx):
    """The dependence test that the solver's KKT pivots replaced, kept as
    their reference: the distance of each unit row e_i, i in ``idx``, from
    the span of the rows of Aeq, the unit rows of ``rows`` and the rows of
    ``idx`` before it, read off the diagonal of R in a QR factorization of
    the stacked rows."""
    stacked = np.vstack([aeq, np.eye(aeq.shape[1])[np.concatenate([rows, idx]).astype(int)]])
    diag = np.abs(np.diagonal(np.linalg.qr(stacked.T, mode="r")))[stacked.shape[0] - len(idx):]
    return np.concatenate([diag, np.zeros(len(idx) - diag.size)])


@st.composite
def scaled_box_qps(draw):
    """A small_box_qps instance, on half the draws with the lower half of P's
    eigenvalues set to 1e-6 times its largest, with its cost scaled by 10^k,
    k in {-8, 0, 8, 12}, and each equality row with its beq entry by
    10^(k/2 + j), j in {0, 3}, which leaves the feasible set alone. Rows
    scaled less than 10^(k/2) leave the solver's refinement against the
    delta-regularized K, and so its pivots, short of converged. A random
    subset of the equality rows are its param_rows; also returned are a
    second beq that moves them to another anchor point, and the warm start."""
    problem, warm = draw(small_box_qps())
    n, m = problem.n, problem.aeq.shape[0]
    p = problem.p
    if draw(st.booleans()):
        w, v = np.linalg.eigh(p)
        w[:n // 2] = 1e-6 * w[-1]
        p = (v * w) @ v.T
    k = draw(st.sampled_from([-8, 0, 8, 12]))
    j = np.array(draw(st.lists(st.sampled_from([0, 3]), min_size=m, max_size=m)))
    aeq, beq = 10.0 ** (k / 2 + j)[:, None] * problem.aeq, 10.0 ** (k / 2 + j) * problem.beq
    rows = np.flatnonzero(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    anchor = np.array(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                    min_size=n, max_size=n)))
    beq_moved = beq.copy()
    beq_moved[rows] = (aeq @ anchor)[rows]
    scaled = qp.QpProblem(p=10.0 ** k * p, q=10.0 ** k * problem.q, aeq=aeq, beq=beq,
                          lb=problem.lb, ub=problem.ub, param_rows=rows)
    return scaled, beq_moved, warm


class DependenceRecorder(qp.Solver):
    """A Solver that logs each of its dependence decisions next to the QR
    reference's at 1e-9, as (pivot relative to the tolerance's scale, QR
    distance, row kept, row kept by the QR): the warm start's rows from
    ``_pivots``, and each entering row p from the pivot -sign * dz_p of its
    step."""

    def __init__(self, problem, log):
        super().__init__(problem)
        self.log = log

    def _pivots(self, rows):
        pivots = super()._pivots(rows)
        self._record(pivots, qr_span_distances(self.problem.aeq, [], rows))
        return pivots

    def _solve_active(self, b, lo_act, hi_act, enter=None):
        z, y_eq, mu, step = super()._solve_active(b, lo_act, hi_act, enter)
        if enter is not None:
            p, sign = enter
            self._record([-sign * step[0][p]],
                         qr_span_distances(self.problem.aeq, np.concatenate([lo_act, hi_act]), [p]))
        return z, y_eq, mu, step

    def _record(self, pivots, distances):
        self.log += [(float(pivot) * qp._DEPENDENT / self._pivot_tol, dist,
                      bool(pivot > self._pivot_tol), dist > 1e-9)
                     for pivot, dist in zip(pivots, distances)]


class TestDependenceDecisions:
    def test_pivot_decisions_match_qr(self):
        # Every warm-row and entering-row decision must equal the QR's, over
        # scaled_box_qps: each QP solved cold, then warm, then with its
        # param rows moved by the same solver from the warm answer. The
        # smallest margin on each side is printed (pytest -s).
        log = []

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(scaled_box_qps())
        def draws(case):
            problem, beq_moved, warm = case
            solver = DependenceRecorder(problem, log)
            solver.solve()
            warm = solver.solve(warm_z=warm).z
            solver.solve(beq_moved[problem.param_rows], warm_z=warm)

        draws()
        pivot, dist, kept, qr_kept = (np.array(column) for column in zip(*log))
        assert np.array_equal(kept, qr_kept), f"{np.sum(kept != qr_kept)} of {kept.size} differ"
        assert kept.any() and not kept.all()
        print(f"{kept.size} decisions, {np.sum(~kept)} dependent: relative pivot "
              f"<= {pivot[~kept].max():.2g} and QR distance <= {dist[~kept].max():.2g} "
              f"if dependent, >= {pivot[kept].min():.2g} and >= {dist[kept].min():.2g} if not")


class TestKktResiduals:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shape=st.one_of(st.just((64, 161)), st.tuples(st.integers(1, 80),
                                                         st.integers(1, 80))),
           decades=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_ext_matvec_matches_matmul_bit_for_bit(self, shape, decades, seed):
        # Entries spanning many decades, as in constraint rows built from an
        # unstable record; the product of the transposed long-double view is
        # the one the termination check takes for Aeq' y.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(0, decades + 1, shape)
        a_ext = a.astype(np.longdouble)
        for mat in (a, a_ext, a.T, a_ext.T):
            x = rng.standard_normal(mat.shape[1])
            expected = (np.asarray(mat, np.longdouble) @ x.astype(np.longdouble)).astype(float)
            assert np.array_equal(qp._ext_matvec(mat, x), expected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), cols=st.integers(0, 9), decades=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.3]),
           negative_off_diagonal=st.booleans(),
           special=st.sampled_from([None, np.inf, -np.inf, np.nan]), in_p=st.booleans())
    @example(n=161, cols=9, decades=12, seed=0, zeros=0.3, negative_off_diagonal=False,
             special=None, in_p=False)
    def test_diagonal_p_product_matches_np_dot(self, n, cols, decades, seed, zeros,
                                               negative_off_diagonal, special, in_p):
        # The refinement's and the certificate's long-double P x for a
        # diagonal P, on a 1-D x (cols = 0) or an n x cols one, against
        # np.dot: entries spanning up to 12 decades, a share of them +0 or
        # -0, P's off-diagonal zeros of either sign, and on some draws one
        # non-finite entry in x or on P's diagonal. Every value must match,
        # the sign of every zero included, and so must every non-finite row.
        rng = np.random.default_rng(seed)
        shape = (n,) if cols == 0 else (n, cols)

        def draw(size):
            values = rng.standard_normal(size) * 10.0 ** (rng.integers(0, decades + 1, size)
                                                          - decades // 2)
            values[rng.random(size) < zeros] = 0.0
            return np.where(rng.random(size) < 0.5, values, -values).astype(np.longdouble)

        diag, x = draw(n), draw(shape)
        if special is not None:
            (diag if in_p else x.reshape(-1))[rng.integers(diag.size if in_p else x.size)] = special
        p = np.diag(diag)
        if negative_off_diagonal:
            p[~np.eye(n, dtype=bool)] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflow
            expected, product = np.dot(p, x), qp._p_dot(p, np.diagonal(p).copy(), x)
            dense = qp._p_dot(p, None, x)
        assert product.shape == expected.shape and product.dtype == np.longdouble
        assert np.array_equal(product, expected, equal_nan=True)
        assert np.array_equal(np.signbit(product), np.signbit(expected))
        assert np.array_equal(dense, expected, equal_nan=True)

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

    def test_param_rows_and_with_beq_validated(self):
        problem = qp.QpProblem(p=np.eye(2), q=np.zeros(2), aeq=np.eye(2), beq=np.zeros(2),
                               lb=-np.ones(2), ub=np.ones(2), param_rows=[1])
        for rows in ([1, 0], [0, 0], [2], [-1], [0.0]):
            with pytest.raises(DimensionError):
                qp.QpProblem(p=problem.p, q=problem.q, aeq=problem.aeq, beq=problem.beq,
                             lb=problem.lb, ub=problem.ub, param_rows=rows)
        with pytest.raises(DimensionError):
            problem.with_beq(np.zeros(3))
        moved = problem.with_beq([0.0, 0.5])
        assert moved.p is problem.p and moved.param_rows is problem.param_rows
        np.testing.assert_array_equal(problem.beq, [0.0, 0.0])
        np.testing.assert_array_equal(moved.beq, [0.0, 0.5])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(DimensionError):
            qp.QpProblem(p=np.eye(1), q=np.zeros(1), aeq=np.zeros((0, 1)),
                         beq=np.zeros(0), lb=np.array([1.0]), ub=np.array([0.0]))

