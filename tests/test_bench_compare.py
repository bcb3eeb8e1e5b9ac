"""The records comparison of ``tools/bench_compare.py``, on which the
byte-identity claim of every before/after report rests, checked on the files
that one short run writes on each side."""
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from dosmpc import dos, experiment

TOOL_PY = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sides(tmp_path):
    """The run directories of one 30-step run written twice, as the records
    grid writes them: each config.json names its own directory."""
    config = experiment.ExperimentConfig(attack=dos.params_for_ratio(0.8841), t_sim=30)
    dirs = tmp_path / "parent", tmp_path / "change"
    for directory in dirs:
        experiment.run_experiment(replace(config, output_dir=str(directory)))
    return dirs


def rewrite_summary(path: Path, **changes) -> None:
    """Rewrite a run summary the way ``RunRecord.save`` writes it."""
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}, indent=2))


def rewrite_csv_cell(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    index = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[index] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_summaries_differing_only_in_wall_time_are_the_same_file(tool, sides):
    parent, change = (d / "record_summary.json" for d in sides)
    rewrite_summary(change, wall_time_s=json.loads(parent.read_text())["wall_time_s"] + 1.0)
    assert parent.read_bytes() != change.read_bytes()
    assert tool._same_file(parent, change)
    rewrite_summary(change, steps=29)
    assert not tool._same_file(parent, change)


def test_configs_differing_only_in_output_dir_are_the_same_file(tool, sides):
    parent, change = (d / "config.json" for d in sides)
    assert parent.read_bytes() != change.read_bytes()
    assert tool._same_file(parent, change)
    # every other line of config.json still counts
    change.write_text(change.read_text().replace('"t_sim": 30', '"t_sim": 31'))
    assert not tool._same_file(parent, change)


def test_moved_number_is_reported_by_perfbench_rule(tool, sides):
    parent, change = (d / "record.csv" for d in sides)
    assert tool._same_file(parent, change)
    y_0 = tool._numbers(tool._columns(parent)["y_0"])
    moved = float(y_0[7]) + 1e-6
    rewrite_csv_cell(change, 7, "y_0", repr(moved))
    assert not tool._same_file(parent, change)
    relative = tool._relative_differences(parent, change)
    assert list(relative) == ["y_0"]
    assert relative["y_0"] == abs(moved - y_0[7]) / max(abs(y_0))


@pytest.mark.parametrize("edit", ["text", "nan_to_number", "missing"])
def test_other_changes_are_reported_as_changed(tool, sides, edit):
    parent, change = (d / "record.csv" for d in sides)
    if edit == "text":
        parent, change = (d / "record_summary.json" for d in sides)
        rewrite_summary(change, status="diverged")
    elif edit == "nan_to_number":
        cost = tool._columns(parent)["cost"]
        row = cost.index("")  # a step without a solve: NaN, written as an empty cell
        rewrite_csv_cell(change, row, "cost", "0.5")
    else:
        change.unlink()
    assert not tool._same_file(parent, change)
    assert tool._relative_differences(parent, change) is None


def test_slowest_reads_the_durations_block(tool):
    # the tail of a Tier-1 run: only the block's call lines count, a node id
    # may hold spaces, and a run without the block has none
    tail = """tests/test_acceptance.py:235: AssertionError
----------------------------- Captured stdout call -----------------------------
[FAIL] Criterion 7: noise-free tail 1.65e-14; 0.5s call
============================= slowest 5 durations ==============================
4.79s call     tests/test_qp.py::TestAgainstEnumerationOracle::test_matches_oracle_from_any_warm_start
1.99s setup    tests/test_experiment.py::TestConfig::test_field_rules_round_trip_and_reject
1.74s call     tests/test_dos.py::test_ids[a b]

(2 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_7_closed_loop_stabilization
1 failed, 286 passed, 1 skipped in 23.69s
"""
    assert tool.slowest(tail) == [
        ["tests/test_qp.py::TestAgainstEnumerationOracle::test_matches_oracle_from_any_warm_start",
         4.79], ["tests/test_dos.py::test_ids[a b]", 1.74]]
    assert tool.slowest(tail.replace(" slowest ", " durations ")) == []


@pytest.mark.parametrize("name", ["COUNTS", "LAYERS", "RECORDS"])
def test_checkout_programs_compile(tool, name):
    compile(getattr(tool, name), name, "exec")
