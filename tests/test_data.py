import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosmpc import data, dos, lti
from dosmpc.errors import DimensionError
from conftest import fresh_windows


class TestBuildHankel:
    def test_scalar_definition(self):
        h = data.build_hankel([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_array_equal(h, [[1, 2, 3], [2, 3, 4]])

    def test_constant_sequence_rank_one(self):
        h = data.build_hankel(np.full((9, 1), 3.7), 4)
        assert np.linalg.matrix_rank(h) == 1

    def test_fixture_shape_arithmetic(self, clean_record):
        h = data.build_hankel(clean_record.inputs, 12)
        assert h.shape == (24, 89)

    def test_too_short_raises(self):
        with pytest.raises(DimensionError):
            data.build_hankel(np.zeros((3, 1)), 4)

    def test_shift_property_exact(self, clean_record):
        # deleting the first block row of H_{L+1} equals H_L of the shifted sequence
        seq = clean_record.outputs
        n_y = seq.shape[1]
        deep = data.build_hankel(seq, 6)
        shifted = data.build_hankel(seq[1:], 5)
        assert np.array_equal(deep[n_y:], shifted[:, : deep.shape[1]])


class TestPersistencyOfExcitation:
    def test_constant_input_fails(self):
        report = data.is_persistently_exciting(np.full((50, 1), 2.0), 2)
        assert not report.excited and report.rank == 1

    def test_zero_input_fails(self):
        report = data.is_persistently_exciting(np.zeros((50, 2)), 1)
        assert not report.excited

    def test_seeded_uniform_is_exciting(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, (100, 2))
        report = data.is_persistently_exciting(u, 16)
        assert report.excited and report.rank == 32
        assert report.sigma_min > report.tolerance

    def test_too_short_is_trivially_false(self):
        report = data.is_persistently_exciting(np.ones((5, 2)), 8)
        assert not report.excited and report.rank == 0

    def test_failure_is_monotone_in_order(self):
        # constant input: rank 1 at every order, so failing at k implies k+1
        u = np.full((60, 1), 1.0)
        reports = [data.is_persistently_exciting(u, k) for k in range(2, 8)]
        assert all(not r.excited for r in reports)
        # random-but-short record: once the column budget fails it stays failed
        rng = np.random.default_rng(5)
        u2 = rng.uniform(-1, 1, (20, 2))
        excited = [data.is_persistently_exciting(u2, k).excited for k in range(1, 12)]
        first_fail = excited.index(False)
        assert not any(excited[first_fail:])


class TestCollectOffline:
    def test_determinism(self, reactor):
        a = data.collect_offline(reactor, 80, 10, amplitude=0.5, noise_bound=1e-3, seed=9)
        b = data.collect_offline(reactor, 80, 10, amplitude=0.5, noise_bound=1e-3, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)

    def test_certificate_present(self, clean_record):
        assert clean_record.pe is not None and clean_record.pe.excited
        assert clean_record.pe.order == 16

    def test_shape_precondition(self, reactor):
        with pytest.raises(DimensionError):
            data.collect_offline(reactor, 20, 16)

    def test_outputs_are_measurement_noise_free(self, reactor):
        rec = data.collect_offline(reactor, 60, 8, amplitude=0.4, noise_bound=1e-2, seed=2)
        resim = lti.simulate(reactor, np.zeros(4), rec.inputs, rec.noises)
        assert np.array_equal(resim.outputs, rec.outputs)

    def test_caller_arrays_stay_writeable_and_apart(self, reactor):
        # simulate and Trajectory keep read-only copies of the arrays they
        # are handed: the caller's stay writeable, and writing to them
        # leaves the trajectory as it was.
        u = np.ones((5, 2))
        traj = lti.simulate(reactor, np.zeros(4), u)
        y = traj.outputs.copy()
        built = data.Trajectory(inputs=u, outputs=y)
        for caller, kept in ((u, traj.inputs), (u, built.inputs), (y, built.outputs)):
            assert caller.flags.writeable and not kept.flags.writeable
            assert kept is not caller and not np.shares_memory(kept, caller)
        u[0], y[0] = -7.0, -7.0
        assert np.all(traj.inputs == 1.0) and np.all(built.inputs == 1.0)
        assert np.array_equal(built.outputs, traj.outputs)

    def test_csv_round_trip(self, tmp_path, noisy_record):
        path = tmp_path / "traj.csv"
        noisy_record.save_csv(path)
        clone = data.Trajectory.load_csv(path)
        np.testing.assert_allclose(clone.inputs, noisy_record.inputs, rtol=0, atol=0)
        np.testing.assert_allclose(clone.outputs, noisy_record.outputs, rtol=0, atol=0)
        assert clone.seed == noisy_record.seed
        assert clone.pe.order == noisy_record.pe.order

    def test_trajectory_and_schedule_sidecars_share_one_name(self, tmp_path, noisy_record):
        # data._sidecar_path states the rule, <file>.json beside the file
        noisy_record.save_csv(tmp_path / "traj.csv")
        dos.save_schedule(dos.generate_random(dos.params_for_ratio(0.9142), 6, seed=5),
                          tmp_path / "schedule.txt")
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "schedule.txt", "schedule.txt.json", "traj.csv", "traj.csv.json"]
        assert data._sidecar_path(tmp_path / "traj.csv") == tmp_path / "traj.csv.json"


class TestFundamentalLemmaResidual:
    def test_self_window(self, clean_record):
        res = data.fundamental_lemma_residual(
            clean_record, clean_record.inputs[5:17], clean_record.outputs[5:17])
        assert res <= 1e-9

    def test_fresh_windows_are_trajectories(self, reactor, clean_record):
        for u, y in fresh_windows(reactor, 10, 12, seed=11):
            assert data.fundamental_lemma_residual(clean_record, u, y) <= 1e-8

    def test_unit_perturbation_rejected(self, reactor, clean_record):
        for i, (u, y) in enumerate(fresh_windows(reactor, 5, 12, seed=13)):
            bad = y.copy()
            bad[i % 12, i % 2] += 1.0
            assert data.fundamental_lemma_residual(clean_record, u, bad) >= 0.1

    def test_random_windows_bounded_away_from_zero(self, reactor, clean_record):
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = rng.uniform(-1, 1, (12, 2))
            y = rng.uniform(-1, 1, (12, 2))
            assert data.fundamental_lemma_residual(clean_record, u, y) >= 1e-3

    def test_single_channel_windows_may_be_1d(self):
        # one input, one output: a 1-D window is one channel, as in build_hankel
        model = lti.SystemModel([[0.9, 0.2], [0.0, 0.5]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        record = data.collect_offline(model, 40, 8, seed=3)
        u, y = record.inputs[4:12], record.outputs[4:12]
        res = data.fundamental_lemma_residual(record, u[:, 0], y[:, 0])
        assert res == data.fundamental_lemma_residual(record, u, y) and res <= 1e-12

    def test_dimension_checks(self, clean_record):
        with pytest.raises(DimensionError):
            data.fundamental_lemma_residual(clean_record, np.zeros((5, 2)), np.zeros((6, 2)))
        with pytest.raises(DimensionError):
            data.fundamental_lemma_residual(clean_record, np.zeros((5, 3)), np.zeros((5, 2)))


def oracle_write_table(path, names, table, int_cols):
    """The per-cell writer the package used before ``data._write_table``:
    integer columns through ``int``, the rest as ``%.17g``, NaN as an empty
    cell."""
    def cell(v):
        return "" if np.isnan(v) else f"{v:.17g}"

    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in table:
            cells = [str(int(v)) for v in row[:int_cols]] + [cell(v) for v in row[int_cols:]]
            fh.write(",".join(cells) + "\n")


EDGE_FLOATS = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308,
               -2.2250738585072014e-308, 1.7976931348623157e308, -1e308, 9.999999999999999e307]


def canonical_bits(table):
    """Bit patterns with every NaN replaced by the one NaN a reader returns."""
    return np.where(np.isnan(table), np.nan, table).view(np.uint64)


class TestTableCodec:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_per_cell_writer_and_round_trips_bits(self, tmp_path_factory, example):
        int_cols = example.draw(st.integers(0, 2))
        float_cols = example.draw(st.integers(1, 4))
        rows = example.draw(st.integers(0, 8))
        ints = st.integers(-2**53, 2**53)
        floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
        # leading 1-D integer columns, then 1-D float columns, then one 2-D float group
        plain = example.draw(st.integers(0, float_cols))
        columns = {f"i{j}": np.array([example.draw(ints) for _ in range(rows)], dtype=np.int64)
                   for j in range(int_cols)}
        columns.update({f"p{j}": np.array([example.draw(floats) for _ in range(rows)])
                        for j in range(plain)})
        if float_cols > plain:
            columns["f"] = np.array([[example.draw(floats) for _ in range(float_cols - plain)]
                                     for _ in range(rows)]).reshape(rows, float_cols - plain)
        names = [*list(columns)[:int_cols + plain],
                 *(f"f_{j}" for j in range(float_cols - plain))]
        table = np.column_stack([a.astype(float) for a in columns.values()])
        out = tmp_path_factory.mktemp("codec")
        data._write_table(out / "new.csv", columns)
        oracle_write_table(out / "old.csv", names, table, int_cols)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
        read = data._read_table(out / "new.csv")
        assert list(read) == list(columns)
        assert all(read[k].shape == a.shape and read[k].dtype == float for k, a in columns.items())
        assert np.array_equal(canonical_bits(np.column_stack(list(read.values()))),
                              canonical_bits(table))

    def test_reader_accepts_spelled_out_nan(self, tmp_path):
        (tmp_path / "t.csv").write_text("t,u_0,y_0,y_norm\n0,nan,,1.5\n")
        columns = data._read_table(tmp_path / "t.csv")
        assert list(columns) == ["t", "u", "y", "y_norm"]
        assert columns["y"].shape == (1, 1) and columns["y_norm"].shape == (1,)
        assert np.isnan(columns["u"]).all() and np.isnan(columns["y"]).all()
        assert columns["y_norm"][0] == 1.5
