import json

import pytest
from click.testing import CliRunner

from qsystem.cli import main
from qsystem.io import qtable_from_json
from qsystem.table import build_qtable
from qsystem.dynkin import build_dynkin


@pytest.fixture
def runner():
    return CliRunner()


def test_table_json(runner):
    result = runner.invoke(main, ["table", "-f", "D", "-r", "5", "-k", "4",
                                  "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["family"] == "D" and data["h"] == 8
    assert len(data["cells"]) == 5 * 13
    zeros = [c for c in data["cells"] if c["exact"] == 0]
    assert len(zeros) == 5 * 7


def test_table_json_round_trips(runner, tmp_path):
    out = tmp_path / "table.json"
    result = runner.invoke(main, ["table", "-f", "D", "-r", "4", "-k", "2",
                                  "--format", "json", "--out", str(out)])
    assert result.exit_code == 0
    parsed = qtable_from_json(out.read_text())
    assert parsed == build_qtable(build_dynkin("D", 4), 2)


def test_table_text_level_one(runner):
    result = runner.invoke(main, ["table", "-f", "D", "-r", "4", "-k", "1"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    # rows 0 and 1 are all exact units
    assert lines[3].split("|")[1].split() == ["1", "1", "1", "1"]
    assert lines[4].split("|")[1].split() == ["1", "1", "1", "1"]


def test_table_csv(runner):
    result = runner.invoke(main, ["table", "-f", "A", "-r", "1", "-k", "2",
                                  "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "a,m,value,exact_tag"
    assert len(lines) == 1 + 5  # rows 0..4 for the single node


def test_verify_single(runner):
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "5", "-k", "4"])
    assert result.exit_code == 0
    assert "all checks passed" in result.output


def test_verify_grid(runner):
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "4", "-k", "1",
                                  "--grid", "r=4..5", "k=1..2"])
    assert result.exit_code == 0
    assert result.output.count("level") >= 4


def test_verify_fails_with_absurd_tolerance(runner):
    # nothing is wrong with the table; the tolerance is simply unattainable,
    # which must surface as exit code 1
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "4", "-k", "2",
                                  "--tol", "1e-60"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_bad_grid_spec(runner):
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "4", "-k", "1",
                                  "--grid", "r=4..5", "q=1..2"])
    assert result.exit_code == 2


def test_reduce_dominant(runner):
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4",
                                  "--", "2", "0", "1", "0", "0", "0"])
    assert result.exit_code == 0
    assert "dominant [2, 0, 1, 0, 0, 0] sign +1" in result.output


def test_reduce_wall(runner):
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4",
                                  "--", "-1", "1", "2", "0", "0", "0"])
    assert result.exit_code == 0
    assert "zero" in result.output


def test_reduce_sign_flip(runner):
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4",
                                  "--", "-2", "0", "3", "0", "0", "0"])
    assert result.exit_code == 0
    assert "dominant [0, 0, 2, 0, 0, 0] sign -1" in result.output


def test_reduce_level_mismatch(runner):
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4",
                                  "--", "0", "0", "0", "0", "0", "0"])
    assert result.exit_code == 2


def test_reduce_wrong_arity(runner):
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4",
                                  "--", "4", "0", "0"])
    assert result.exit_code == 2


def test_solve_with_dilog(runner):
    result = runner.invoke(main, ["solve", "-f", "A", "-r", "1", "-k", "2",
                                  "--dilog", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["dilog"]["rhs"] == "1/2"
    assert float(data["dilog"]["lhs"]) == pytest.approx(0.5, abs=1e-12)
    assert data["residual"] < 1e-12


def test_solve_against_table(runner):
    result = runner.invoke(main, ["solve", "-f", "D", "-r", "5", "-k", "4",
                                  "--against-table", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["table_deviation"] < 1e-8


def test_solve_trivial_level(runner):
    result = runner.invoke(main, ["solve", "-f", "D", "-r", "4", "-k", "1",
                                  "--dilog", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["dilog"]["rhs"] == "0"


def test_solve_unreachable_tolerance(runner):
    result = runner.invoke(main, ["solve", "-f", "D", "-r", "4", "-k", "3",
                                  "--solver-tol", "1e-60"])
    assert result.exit_code == 1


def test_solve_tolerance_is_relative_to_term_scale(runner):
    # at 64 bits D8k6 lands at an absolute residual of a few 1e-12, about
    # 3e-20 of its largest term of some 1e8
    result = runner.invoke(main, ["solve", "-f", "D", "-r", "8", "-k", "6"],
                           env={"QSYS_PRECISION_BITS": "64"})
    assert result.exit_code == 0


def test_dilog_command(runner):
    result = runner.invoke(main, ["dilog", "-f", "D", "-r", "4", "-k", "2",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["dilog"]["rhs"] == "3"


def test_usage_errors(runner):
    assert runner.invoke(main, ["table", "-f", "E", "-r", "6", "-k", "2"]).exit_code == 2
    assert runner.invoke(main, ["table", "-f", "D", "-r", "3", "-k", "2"]).exit_code == 2
    assert runner.invoke(main, ["table", "-f", "D", "-r", "20", "-k", "2"]).exit_code == 2
    assert runner.invoke(main, ["table", "-f", "D", "-r", "4", "-k", "0"]).exit_code == 2
    assert runner.invoke(main, ["table", "-f", "D", "-r", "4", "-k", "2",
                                "--tol", "-1"]).exit_code == 2
    assert runner.invoke(main, ["solve", "-f", "D", "-r", "4", "-k", "3",
                                "--solver-tol", "-1"]).exit_code == 2


@pytest.mark.parametrize("args,env", [
    (["table", "-f", "D", "-r", "4", "-k", "2"], {"QSYS_PRECISION_BITS": "abc"}),
    (["solve", "-f", "D", "-r", "4", "-k", "2"], {"QSYS_PRECISION_BITS": "32"}),
    (["table", "-f", "D", "-r", "4", "-k", "2", "--m-max", "-3"], {}),
    (["table", "-f", "D", "-r", "4", "-k", "2", "--out", "missing/x.json"], {}),
], ids=["precision-not-integer", "precision-below-64", "negative-m-max",
        "unwritable-out"])
def test_bad_input_is_a_usage_error(runner, tmp_path, monkeypatch, args, env):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1


def test_max_rank_override(runner):
    result = runner.invoke(main, ["table", "-f", "A", "-r", "13", "-k", "1",
                                  "--max-rank", "14", "--format", "csv"])
    assert result.exit_code == 0
