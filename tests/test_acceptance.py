"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 7 is implemented exactly as stated and fails on its fixture: its
line reports the measured causes (data-driven runs that diverge at v=1e-3,
and the model-based baseline's tails against the same threshold).
"""
import itertools
import time
from statistics import median

import numpy as np

from dosmpc import cli, controllers, data, dos, experiment, lti, mpc, qp


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] Criterion {num}: {detail}")
    return ok


def study_fixture(**kwargs):
    base = dict(model="batch-reactor", n_samples=100, horizon=10, lambda_g=0.1,
                lambda_h=100.0, r1=1e-4, r2=3.0, t_sim=200,
                attack=dos.params_for_ratio(0.8841), v_bar=1e-3)
    base.update(kwargs)
    return experiment.ExperimentConfig(**base)


def seed_triples(count=5):
    return [(1 + i, 2 + 10 * i, 3 + 100 * i) for i in range(count)]


def test_criterion_1_fundamental_lemma_exactness(reactor):
    t0 = time.perf_counter()
    record = data.collect_offline(reactor, 100, pe_order=16, amplitude=1.0,
                                  noise_bound=0.0, seed=7)
    rng = np.random.default_rng(11)
    good, bad = [], []
    for k in range(50):
        x0 = rng.standard_normal(4)
        u = rng.uniform(-1, 1, (12, 2))
        sim = lti.simulate(reactor, x0, u)
        good.append(data.fundamental_lemma_residual(record, sim.inputs, sim.outputs))
        perturbed = sim.outputs.copy()
        perturbed[k % 12, k % 2] += 1.0
        bad.append(data.fundamental_lemma_residual(record, sim.inputs, perturbed))
    elapsed = time.perf_counter() - t0
    ok = max(good) <= 1e-8 and min(bad) >= 1e-3 and elapsed <= 10.0
    assert report(1, ok,
                  f"trajectory residual max {max(good):.3g} (<= 1e-8), perturbed min "
                  f"{min(bad):.3g} (>= 1e-3), runtime {elapsed:.2f}s (<= 10s)")


def test_criterion_2_pe_certification():
    config = experiment.ExperimentConfig()
    prepared = experiment.prepare(config)
    assert prepared.pe_order == 16
    record = data.collect_offline(prepared.model, 100, prepared.pe_order,
                                  amplitude=config.amplitude(),
                                  noise_bound=config.v_bar, seed=config.data_seed)
    ok = record.pe.excited and record.pe.rank == 32 and record.pe.required_rank == 32
    assert report(2, ok,
                  f"order {record.pe.order} rank {record.pe.rank}/32 at tolerance "
                  f"{record.pe.tolerance:.3g} (margin {record.pe.sigma_min:.3g})")


def test_criterion_3a_equality_qp_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        n, m = 12, 5
        g = rng.standard_normal((n, n))
        p = g.T @ g + 0.1 * np.eye(n)
        a = rng.standard_normal((m, n))
        q_vec = rng.standard_normal(n)
        b = rng.standard_normal(m)
        kkt = np.block([[p, a.T], [a, np.zeros((m, m))]])
        z_star = np.linalg.solve(kkt, np.concatenate([-q_vec, b]))[:n]
        problem = qp.QpProblem(p=p, q=q_vec, aeq=a, beq=b,
                               lb=-np.inf * np.ones(n), ub=np.inf * np.ones(n))
        sol = qp.solve(problem)
        worst = max(worst, float(np.max(np.abs(sol.z - z_star))))
    ok = worst <= 1e-6
    assert report(3, ok, f"(a) 20 equality-only QPs vs dense KKT oracle: "
                         f"max deviation {worst:.3g} (<= 1e-6)")


def test_criterion_3b_fixture_solve_residuals(reactor):
    # Pose the fixture's QP (record seed 1, noise seed 2, attack seed 3) at every
    # success instant along a bounded trajectory: the model-based baseline of
    # criterion 6 drives the plant, and each QP carries the last two applied
    # inputs and the last two measured outputs, as the data-driven loop's
    # packet would. Driving the plant with the data-driven law itself would
    # check the solver on a diverging loop (criterion 7), whose optimizers
    # grow until their float64 evaluation floor exceeds 1e-8.
    config = study_fixture()
    prepared = experiment.prepare(config)
    eta = prepared.mpc_config.eta
    traj = data.collect_offline(reactor, 100, prepared.pe_order,
                                amplitude=config.amplitude(),
                                noise_bound=config.v_bar, seed=1)
    hankel = data.HankelPair.from_trajectory(traj, config.horizon + eta)
    schedule = dos.generate_random(config.attack, config.t_sim, 3)
    fixture = controllers.DataDrivenController(hankel, prepared.mpc_config)
    asm, solver = fixture.assembler, fixture.solver
    baseline = controllers.ModelBasedController(reactor, lti.synthesize_gains(reactor))
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(2)
    w = rng.uniform(-1e-3, 1e-3, (config.t_sim, 4))
    nn = rng.uniform(-1e-3, 1e-3, (config.t_sim, 2))
    x = prepared.x0.copy()
    u_applied = np.zeros((config.t_sim, 2))
    zeta = np.zeros((config.t_sim, 2))
    abs_aeq = np.abs(asm.problem.aeq)
    solution = None
    solved_at, residuals, floors, iterations, y_peak = [], [], [], [], 0.0
    for t in range(config.t_sim):
        attack = bool(schedule.indicators[t])
        if not attack and t >= eta:
            solution = mpc.solve_mpc(asm, u_applied[t - eta:t], zeta[t - eta:t],
                                     warm=solution, solver=solver)
            solved_at.append(t)
            residuals.append(max(solution.qp_solution.primal_residual,
                                 solution.qp_solution.dual_residual))
            floors.append(eps * float(np.max(abs_aeq @ np.abs(solution.qp_solution.z))))
            iterations.append(solution.qp_solution.iterations)
        u = baseline.step(t, attack).u
        y = reactor.c @ x + reactor.d @ u
        zeta[t] = y + nn[t]
        baseline.finish(zeta[t], u)
        u_applied[t] = u
        x = reactor.a @ x + reactor.b @ u + w[t]
        y_peak = max(y_peak, float(np.linalg.norm(y)))
    success = [t for t in range(eta, config.t_sim) if not schedule.indicators[t]]
    worst_resid = max(residuals)
    worst_floor = max(floors)
    iter_ok = max(iterations) <= 50_000
    ok = solved_at == success and iter_ok and worst_resid <= 1e-8
    assert report(3, ok,
        f"(b) {len(residuals)} fixture solves, one per success instant t >= {eta} "
        f"({len(success)}: {'yes' if solved_at == success else 'no'}), along the "
        f"model-based loop (peak |y| {y_peak:.3g}): all within 50000 iterations "
        f"({'yes' if iter_ok else 'no'}); max primal/dual residual {worst_resid:.3g} "
        f"(<= 1e-8); largest float64 evaluation floor eps*max|Aeq||z| "
        f"{worst_floor:.3g}")


def test_criterion_4_structural_identity(reactor):
    depth = 12
    sm = lti.structural_matrices(reactor, depth)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        x0 = rng.standard_normal(4)
        x0 /= np.linalg.norm(x0)
        u = rng.uniform(-1, 1, (30, 2))
        w = rng.uniform(-1e-2, 1e-2, (30, 4))
        traj = lti.simulate(reactor, x0, u, w)
        start = rng.integers(0, 30 - depth + 1)
        uwin = traj.inputs[start:start + depth].reshape(-1)
        ywin = traj.outputs[start:start + depth].reshape(-1)
        wwin = traj.noises[start:start + depth].reshape(-1)
        lhs = np.concatenate([uwin, ywin])
        rhs = sm.psi @ np.concatenate([uwin, traj.states[start]])
        rhs[depth * 2:] += sm.upsilon_i @ wwin
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-10
    assert report(4, ok, f"stacked-window identity on 20 noisy trajectories: "
                         f"max deviation {worst:.3g} (<= 1e-10)")


def test_criterion_5_dos_model():
    t_exact = dos.inter_success_bound(dos.AttackParams(1.0, 4.0, 1.0, 4.0))
    checks = [t_exact == 5.0]
    details = [f"T(1,4,1,4) = {t_exact}"]
    for ratio in (0.8841, 0.9142, 0.9317):
        params = dos.params_for_ratio(ratio)
        bound = int(np.ceil(dos.inter_success_bound(params)))
        for schedule in (dos.generate_random(params, 500, seed=7),
                         dos.generate_worst_case(params, 500)):
            validation = dos.validate_schedule(schedule.indicators, params)
            gap = dos.max_success_gap(schedule.indicators)
            checks.append(validation.passed and gap <= bound)
        details.append(f"ratio {ratio}: gaps <= {bound}")
    ok = all(checks)
    assert report(5, ok, "; ".join(details) + " — all generated schedules pass "
                  "brute-force validation on every interval (T=500)")


def test_criterion_6_deadbeat_baseline(reactor):
    gains = lti.synthesize_gains(reactor)
    nil_norm = float(np.linalg.norm(
        np.linalg.matrix_power(reactor.a - gains.l_obs @ reactor.c, 2), 2))
    # noise-free run, attacks after two deliveries, then a success
    controller = controllers.ModelBasedController(reactor, gains)
    indicators = np.array([0, 0, 1, 1, 1, 0, 0, 1, 0])
    x = np.ones(4) / 2
    worst_reset = 0.0
    for t, attacked in enumerate(indicators):
        u = controller.step(t, bool(attacked)).u
        if not attacked and t >= 2:
            worst_reset = max(worst_reset, float(np.linalg.norm(controller.xhat - x)))
        y = reactor.c @ x
        controller.finish(y, u)
        x = reactor.a @ x + reactor.b @ u
    ok = nil_norm <= 1e-8 and worst_reset <= 1e-8
    assert report(6, ok, f"||(A - LC)^2|| = {nil_norm:.3g} (<= 1e-8); noise-free "
                         f"predictor error at post-delivery successes {worst_reset:.3g} "
                         f"(<= 1e-8)")


def test_criterion_7_closed_loop_stabilization():
    # noise-free baseline run of the same fixture
    nf = experiment.run_experiment(study_fixture(v_bar=0.0))
    nf_ok = nf.summary["status"] == "ok" and nf.summary["tail_norm"] <= 1e-4
    threshold = 10.0 * nf.summary["tail_norm"] + 10.0 * 1e-3 * max(1.0, nf.summary["peak_norm"])
    runs = []
    for ds, ns, asd in seed_triples():
        rec = experiment.run_experiment(study_fixture(data_seed=ds, noise_seed=ns,
                                                      attack_seed=asd))
        runs.append(rec.summary)
    completed = [s["status"] == "ok" for s in runs]
    tails = [s["tail_norm"] for s in runs]
    times = [s["wall_time_s"] for s in runs]
    ok = nf_ok and all(completed) and all(t <= threshold for t in tails) \
        and max(times) <= 60.0
    # The model-based baseline on the same seed triples: the tail a known-model
    # predictor reaches at this noise level, against the same threshold.
    baseline = [experiment.run_experiment(study_fixture(
        data_seed=ds, noise_seed=ns, attack_seed=asd, controller="model-based")
    ).summary["tail_norm"] for ds, ns, asd in seed_triples()]
    diverged = sum(s["status"] == "diverged" for s in runs)
    above = sum(t > threshold for t in baseline)
    assert report(7, ok,
        f"noise-free tail {nf.summary['tail_norm']:.3g} (<= 1e-4: "
        f"{'yes' if nf_ok else 'no'}); threshold {threshold:.3g}; five v=1e-3 runs: "
        f"{sum(completed)}/5 completed, tails {['%.3g' % t for t in tails]}, max wall "
        f"{max(times):.1f}s. Cause 1 (program): {diverged}/5 data-driven runs "
        f"diverged; the law built from the noisy 100-step record at v=1e-3 with "
        f"lambda_g = 0.1 does not stabilize the plant. Cause 2 (threshold): the "
        f"model-based baseline on the same seed triples reaches tails "
        f"{['%.3g' % t for t in baseline]}, {above}/5 above the threshold."), (
        f"criterion 7: {diverged}/5 data-driven runs diverged at v=1e-3; "
        f"{above}/5 model-based tails exceed the threshold {threshold:.3g}")


def test_criterion_8_lyapunov_proxy_monotonicity():
    record = experiment.run_experiment(study_fixture(v_bar=1e-6))
    costs = record.cost[~np.isnan(record.cost)]
    diffs = np.diff(costs[1:])  # after the first solve
    worst = float(np.max(diffs, initial=-np.inf))
    ok = record.summary["status"] == "ok" and worst <= 1e-6
    assert report(8, ok, f"{len(costs)} solves at v=1e-6: max cost increase along "
                         f"success instants {worst:.3g} (<= 1e-6)")


def test_criterion_9_trade_off_monotonicity():
    def median_tail(ratio, v_bar):
        tails = []
        for ds, ns, asd in seed_triples():
            cfg = study_fixture(v_bar=v_bar, attack=dos.params_for_ratio(ratio),
                                data_seed=ds, noise_seed=ns, attack_seed=asd)
            tails.append(experiment.run_experiment(cfg).summary["tail_norm"])
        return median(tails)

    ratio_axis = [median_tail(r, 1e-3) for r in (0.8841, 0.9142, 0.9317)]
    v_axis = [median_tail(0.8841, v) for v in (1e-4, 1e-3, 1e-2)]
    ratio_ok = all(a <= b for a, b in itertools.pairwise(ratio_axis))
    v_ok = all(a <= b for a, b in itertools.pairwise(v_axis))
    ok = ratio_ok and v_ok
    assert report(9, ok,
        f"median tails over ratios at v=1e-3: {['%.3g' % t for t in ratio_axis]} "
        f"(nondecreasing: {ratio_ok}); over v at ratio 0.8841: "
        f"{['%.3g' % t for t in v_axis]} (nondecreasing: {v_ok}); diverged runs "
        f"report the censored blow-up value")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["run", "--t-sim", "80", "--v-bar", "1e-4", "--ratio", "0.8841",
            "--data-seed", "1", "--noise-seed", "2", "--attack-seed", "3"]
    code_a = cli.main(args + ["--out", str(tmp_path / "a")])
    code_b = cli.main(args + ["--out", str(tmp_path / "b")])
    record_a = (tmp_path / "a" / "record.csv").read_bytes()
    record_b = (tmp_path / "b" / "record.csv").read_bytes()
    sched_a = (tmp_path / "a" / "schedule.txt").read_bytes()
    sched_b = (tmp_path / "b" / "schedule.txt").read_bytes()
    ok = code_a == code_b == 0 and record_a == record_b and sched_a == sched_b
    assert report(10, ok, f"repeated CLI run: exit codes ({code_a}, {code_b}), "
                          f"record.csv byte-identical: {record_a == record_b}, "
                          f"schedule byte-identical: {sched_a == sched_b}")
