import itertools

import dos_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dosmpc import dos
from dosmpc.errors import ConfigError, DimensionError, ResilienceError


def params(kf=1.0, nf=2.0, kd=1.0, nd=2.0):
    return dos.AttackParams(kappa_f=kf, nu_f=nf, kappa_d=kd, nu_d=nd)


RATIOS = (0.8841, 0.9142, 0.9317)


def budget_params():
    """Dyadic nu with integer kappa, where margins tie exactly; nu such as 3 or
    1.5, where budgets tie exactly but m/nu rounds; arbitrary kappa and nu;
    and the study's ratios."""
    exact = st.builds(dos.AttackParams, kappa_f=st.integers(0, 3),
                      nu_f=st.sampled_from([2, 4, 8]), kappa_d=st.integers(0, 3),
                      nu_d=st.sampled_from([1, 2, 4, 8]))
    kappas = st.one_of(st.integers(0, 3), st.sampled_from([0.3, 0.5, 1.3, 2.7]))
    rounded = st.builds(dos.AttackParams, kappa_f=kappas,
                        nu_f=st.sampled_from([2, 2.5, 3, 3.5, 4, 6, 8]), kappa_d=kappas,
                        nu_d=st.sampled_from([1, 1.25, 1.5, 2, 2.5, 3, 5]))
    arbitrary = st.builds(dos.AttackParams, kappa_f=st.floats(0, 3), nu_f=st.floats(2, 9),
                          kappa_d=st.floats(0, 3), nu_d=st.floats(1, 9))
    return st.one_of(exact, rounded, arbitrary,
                     st.sampled_from(RATIOS).map(dos.params_for_ratio))


@st.composite
def schedules(draw):
    """Random 0/1 sequences with T <= 60, and periodic ones with T <= 200
    after an attack-free lead-in, whose budget margins return to the same
    value again and again."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 1), max_size=60))
    period = draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    lead = [0] * draw(st.integers(0, 5))
    return (lead + period * 200)[:draw(st.integers(0, 200))]


class TestCounts:
    def test_empty_interval(self):
        assert dos.duration_count([1, 1, 1], 2, 2) == 0

    def test_full_sum(self):
        assert dos.duration_count([1, 1, 1, 1, 1], 0, 5) == 5

    def test_pattern_slice(self):
        assert dos.duration_count([0, 1, 1, 0, 1], 1, 5) == 3

    def test_no_onsets(self):
        ind = np.zeros(9, dtype=int)
        for t1, t2 in [(0, 9), (3, 7), (0, 1)]:
            assert dos.frequency_count(ind, t1, t2) == 0

    def test_transition_counting(self):
        assert dos.frequency_count([0, 1, 1, 0, 1, 0, 1], 0, 7) == 3

    def test_onset_at_time_zero_convention(self):
        # the step before time zero counts as attack-free
        assert dos.frequency_count(np.ones(7, dtype=int), 0, 7) == 1

    def test_range_validation(self):
        with pytest.raises(IndexError):
            dos.duration_count([0, 1], 1, 3)

    def test_duration_additivity(self):
        rng = np.random.default_rng(1)
        ind = (rng.random(40) < 0.4).astype(int)
        for a, b, c in [(0, 13, 40), (5, 20, 31)]:
            assert dos.duration_count(ind, a, c) == \
                dos.duration_count(ind, a, b) + dos.duration_count(ind, b, c)

    def test_frequency_additivity_with_boundary_term(self):
        rng = np.random.default_rng(2)
        ind = (rng.random(40) < 0.5).astype(int)
        for a, b, c in [(0, 13, 40), (4, 21, 33)]:
            # global onset sequence is perfectly additive
            assert dos.frequency_count(ind, a, c) == \
                dos.frequency_count(ind, a, b) + dos.frequency_count(ind, b, c)
            # recounting the right piece as a standalone schedule adds the
            # boundary onset exactly when an attack run straddles b
            local = dos.frequency_count(ind[b:c], 0, c - b)
            boundary = int(ind[b] == 1 and ind[b - 1] == 1)
            assert local == dos.frequency_count(ind, b, c) + boundary


class TestValidateSchedule:
    def test_all_zeros_pass(self):
        report = dos.validate_schedule(np.zeros(30, dtype=int), params())
        assert report.passed

    def test_single_attack_with_unit_chatter(self):
        ind = np.zeros(20, dtype=int)
        ind[0] = 1
        assert dos.validate_schedule(ind, params(kf=1, nf=2, kd=1, nd=2)).passed

    def test_all_ones_duration_failure(self):
        report = dos.validate_schedule(np.ones(10, dtype=int), params(kd=1, nd=2))
        assert not report.passed
        assert report.worst_kind == "duration"
        assert (report.worst_t1, report.worst_t2) == (0, 10)
        assert report.worst_excess == pytest.approx(10 - (1 + 5))

    def test_all_ones_eventually_fails_and_threshold_is_monotone(self):
        p = params(kf=1, nf=2, kd=1, nd=2)
        verdicts = [dos.validate_schedule(np.ones(t, dtype=int), p).passed
                    for t in range(1, 12)]
        assert verdicts[0] and not verdicts[-1]
        first_fail = verdicts.index(False)
        assert not any(verdicts[first_fail:])

    # the explicit examples are ties that the direct sums round apart
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(ind=schedules(), p=budget_params())
    @example(ind=[0, 0, 1, 1, 0, 0, 0, 1], p=dos.AttackParams(0.5, 6.0, 1.3, 5.0))
    @example(ind=[0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1],
             p=dos.AttackParams(2.0, 4.0, 0.0, 1.5))
    def test_matches_all_intervals_oracle(self, ind, p):
        assert dos.validate_schedule(ind, p) == dos_oracle.validate_schedule(ind, p)

    def test_rejects_non_binary_entries(self):
        for ind in ([2, 0, 1], [0, -1], [0.5, 1.0]):
            with pytest.raises(ValueError):
                dos.validate_schedule(ind, params())


class TestInterSuccessBound:
    def test_zero_chatter(self):
        assert dos.inter_success_bound(params(kf=0, nf=4, kd=0, nd=4)) == 1.0

    def test_worked_arithmetic(self):
        assert dos.inter_success_bound(params(kf=1, nf=4, kd=1, nd=4)) == 5.0

    def test_boundary_rejected(self):
        with pytest.raises(ResilienceError):
            dos.inter_success_bound(params(kf=1, nf=2, kd=1, nd=2))


class TestGenerators:
    def test_zero_budget_gives_all_zeros(self):
        p = params(kf=0, nf=4, kd=0, nd=4)
        assert dos.generate_random(p, 50, seed=0).attack_fraction == 0.0
        assert dos.generate_worst_case(p, 50).attack_fraction == 0.0

    def test_random_schedules_validate_and_are_deterministic(self):
        p = dos.params_for_ratio(0.8841)
        a = dos.generate_random(p, 200, seed=42)
        b = dos.generate_random(p, 200, seed=42)
        assert np.array_equal(a.indicators, b.indicators)
        assert dos.validate_schedule(a.indicators, p).passed
        assert a.attack_fraction > 0.0

    def test_success_gap_bounded_by_lemma(self):
        for ratio in (0.8841, 0.9142, 0.9317):
            p = dos.params_for_ratio(ratio)
            bound = int(np.ceil(dos.inter_success_bound(p)))
            rnd = dos.generate_random(p, 500, seed=7)
            adv = dos.generate_worst_case(p, 500)
            assert dos.max_success_gap(rnd.indicators) <= bound
            assert dos.max_success_gap(adv.indicators) <= bound

    def test_worst_case_matches_exhaustive_prefix_oracle(self):
        # ten-step prefixes, brute force over all 2^10 indicator sequences
        p = params(kf=1, nf=2, kd=1, nd=2)
        best = 0
        for bits in itertools.product([0, 1], repeat=10):
            if dos.validate_schedule(np.array(bits), p).passed:
                best = max(best, sum(bits))
        greedy = dos.generate_worst_case(p, 10)
        assert int(np.sum(greedy.indicators)) == best

    # the first two explicit examples have margins in the tie band that the
    # direct sums accept; the third, nu_d just above 1.5, has margins in the
    # band that the direct sums reject; the next two reject a burst after
    # recording part of it, so they need the running minima rolled back.
    # On the two lattice parameter sets a level returns to its minimum
    # exactly once a period; with (1, 4, 1, 2) the worst case scans up to 73
    # near starts, past the Python scan, while (3, 4, 3, 4) scans one. The
    # last rejects a burst inside which the frequency minimum fell, so both
    # minima and the near-start sizes must be restored
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(p=budget_params(), t_sim=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    @example(p=dos.AttackParams(1.0, 4.0, 1.0, 1.5), t_sim=60, seed=0)
    @example(p=dos.AttackParams(1.0, 2.0, 1.0, 1.5), t_sim=15, seed=0)
    @example(p=dos.AttackParams(1.0, 4.0, 1.0, 1.5 + 1e-12), t_sim=40, seed=0)
    @example(p=dos.AttackParams(1.0, 4.0, 2.0, 1.5), t_sim=40, seed=36959)
    @example(p=dos.AttackParams(1.0, 3.0, 3.0, 1.5), t_sim=129, seed=82045)
    @example(p=dos.AttackParams(1.0, 4.0, 1.0, 2.0), t_sim=300, seed=0)
    @example(p=dos.AttackParams(3.0, 4.0, 3.0, 4.0), t_sim=300, seed=0)
    @example(p=dos.AttackParams(1.0, 2.5, 1.0, 1.25), t_sim=40, seed=141)
    def test_match_all_intervals_oracle(self, p, t_sim, seed):
        assert np.array_equal(dos.generate_random(p, t_sim, seed).indicators,
                              dos_oracle.generate_random(p, t_sim, seed))
        assert np.array_equal(dos.generate_worst_case(p, t_sim).indicators,
                              dos_oracle.generate_worst_case(p, t_sim))

    def test_attack_long_inputs_match_oracle(self):
        # the benchmark's attack-long schedules: ratio 0.9142, T = 5000
        p = dos.params_for_ratio(0.9142)
        assert np.array_equal(dos.generate_worst_case(p, 5000).indicators,
                              dos_oracle.generate_worst_case(p, 5000))
        assert np.array_equal(dos.generate_random(p, 5000, 3).indicators,
                              dos_oracle.generate_random(p, 5000, 3))

    def test_worst_case_prefix_binds_duration(self):
        p = params(kf=1, nf=2, kd=1, nd=2)
        sched = dos.generate_worst_case(p, 10)
        assert bool(sched.indicators[0])
        report = dos.validate_schedule(sched.indicators, p)
        assert report.passed and report.worst_excess <= 0.0


class TestScheduleUtilities:
    def test_params_for_ratio(self):
        p = dos.params_for_ratio(0.8841)
        assert p.ratio == pytest.approx(0.8841)
        with pytest.raises(ValueError):
            dos.params_for_ratio(0.2, nu_f=4.0)  # 1/nu_d would be negative

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            dos.AttackParams(kappa_f=-1, nu_f=4, kappa_d=0, nu_d=2)
        with pytest.raises(ValueError):
            dos.AttackParams(kappa_f=0, nu_f=1.5, kappa_d=0, nu_d=2)
        with pytest.raises(ValueError):
            dos.AttackParams(kappa_f=0, nu_f=4, kappa_d=0, nu_d=0.5)
        nan = float("nan")
        with pytest.raises(ValueError):
            dos.AttackParams(kappa_f=nan, nu_f=nan, kappa_d=nan, nu_d=nan)
        for field in ("kappa_f", "nu_f", "kappa_d", "nu_d"):
            fields = dict(kappa_f=1, nu_f=4, kappa_d=1, nu_d=2)
            fields[field] = nan
            with pytest.raises(ValueError):
                dos.AttackParams(**fields)
        # a bool or a string is not a number
        with pytest.raises(ValueError, match="kappa_f"):
            dos.AttackParams(kappa_f=True, nu_f=4, kappa_d=1, nu_d=2)
        with pytest.raises(ValueError, match="nu_f"):
            dos.AttackParams(kappa_f=1, nu_f="4", kappa_d=1, nu_d=2)
        # the horizon is an integer >= 0
        p = dos.params_for_ratio(0.9142)
        for t_sim in (-1, -5, 2.5, True):
            with pytest.raises(ConfigError, match="t_sim"):
                dos.generate_worst_case(p, t_sim)
            with pytest.raises(ConfigError, match="t_sim"):
                dos.generate_random(p, t_sim, 0)

    def test_random_seed_is_an_integer(self):
        # None would draw OS entropy and True run as seed 1; the rest were numpy errors
        p = dos.params_for_ratio(0.9142)
        for seed in (None, True, -1, 2.5, "3"):
            with pytest.raises(ConfigError, match="seed"):
                dos.generate_random(p, 10, seed)

    def test_max_success_gap_conventions(self):
        assert dos.max_success_gap(np.zeros(5, dtype=int)) == 1
        assert dos.max_success_gap(np.ones(5, dtype=int)) == 6
        assert dos.max_success_gap(np.array([1, 1, 0, 1, 0])) == 3

    def test_persistence_round_trip(self, tmp_path):
        p = dos.params_for_ratio(0.9142)
        sched = dos.generate_random(p, 120, seed=5)
        path = tmp_path / "schedule.txt"
        dos.save_schedule(sched, path)
        clone = dos.load_schedule(path)
        assert np.array_equal(clone.indicators, sched.indicators)
        assert clone.params.nu_d == pytest.approx(p.nu_d)
        assert clone.seed == 5

    def test_schedule_rejects_non_binary_indicators(self):
        for ind in ([2, 0, -1], [0, 0.5]):
            with pytest.raises(ValueError):
                dos.DosSchedule(indicators=ind, params=dos.params_for_ratio(0.9142))

    def test_indicators_must_be_one_dimensional(self):
        # a 2-D array of valid entries built a 2-D schedule, gave a gap of 4
        # (over the flattened array) and died inside numpy's concatenate
        ind, p = np.ones((3, 2), int), dos.params_for_ratio(0.9142)
        for call in (lambda: dos.DosSchedule(ind, p), lambda: dos.max_success_gap(ind),
                     lambda: dos.validate_schedule(ind, p)):
            with pytest.raises(DimensionError, match=r"1-D, got shape \(3, 2\)"):
                call()

    def test_load_rejects_non_binary_line(self, tmp_path):
        path = tmp_path / "schedule.txt"
        dos.save_schedule(dos.generate_random(dos.params_for_ratio(0.9142), 6, seed=5), path)
        path.write_text("01x1 2\n")
        with pytest.raises(ValueError):
            dos.load_schedule(path)
