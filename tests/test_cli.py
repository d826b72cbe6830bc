import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

import qsystem.table
from qsystem import __version__
from qsystem.affine import AffineWeight
from qsystem.cli import main
from qsystem.io import qtable_from_json, qtable_to_json
from qsystem.table import build_qtable
from qsystem.dynkin import build_dynkin

from oracles import assert_same_text, reduce_to_alcove_greedy


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
    table = build_qtable(build_dynkin("D", 4), 2)
    assert_same_text(out.read_text(), qtable_to_json(table))  # streamed piece by piece
    assert qtable_from_json(out.read_text()) == table


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


CHECK_NAMES = ["positivity", "symmetry", "unit_boundary", "unimodality", "zero_window",
               "top_row", "midpoint", "forced_zeros", "forced_top_row", "fork"]


def test_verify_json_schema(runner):
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "4", "-k", "1",
                                  "--grid", "r=4..5", "k=1..3", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert set(data) == {"passed", "results"} and data["passed"] is True
    assert [(res["family"], res["rank"], res["level"]) for res in data["results"]] == [
        ("D", r, k) for r in (4, 5) for k in (1, 2, 3)]
    for res in data["results"]:
        assert set(res) == {"family", "rank", "level", "passed", "recurrence", "checks"}
        assert res["passed"] is True
        assert set(res["recurrence"]) == {"max_residual", "threshold", "worst", "passed"}
        assert res["recurrence"]["max_residual"] <= res["recurrence"]["threshold"]
        assert [c["name"] for c in res["checks"]] == CHECK_NAMES
        for check in res["checks"]:
            assert check == {"name": check["name"], "applicable": True, "passed": True,
                             "failures": []}


def test_verify_json_reports_failures_and_inapplicable_checks(runner):
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "4", "-k", "2",
                                  "--tol", "1e-300", "--format", "json"])
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["passed"] is False and data["results"][0]["passed"] is False
    recurrence = data["results"][0]["recurrence"]
    assert recurrence["passed"] is False and len(recurrence["worst"]) == 2
    result = runner.invoke(main, ["verify", "-f", "A", "-r", "2", "-k", "2",
                                  "--format", "json"])
    assert result.exit_code == 0
    inapplicable = [c["name"] for c in json.loads(result.output)["results"][0]["checks"]
                    if not c["applicable"]]
    assert inapplicable == ["top_row", "forced_zeros", "forced_top_row", "fork"]


def test_verify_bad_grid_spec(runner):
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "4", "-k", "1",
                                  "--grid", "r=4..5", "q=1..2"])
    assert result.exit_code == 2


def test_verify_grid_checks_caps_before_building(runner, monkeypatch):
    # D11k12 and D12k12 are within the caps, D13k12 is not: nothing is built
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    build = qsystem.table.build_qtable
    monkeypatch.setattr(qsystem.table, "build_qtable", counted)
    result = runner.invoke(main, ["verify", "-f", "D", "-r", "4", "-k", "1",
                                  "--grid", "r=11..13", "k=12..12"])
    assert result.exit_code == 2
    assert len([line for line in result.output.splitlines() if line.startswith("error:")]) == 1
    assert builds == []


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


def test_reduce_json(runner):
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4", "--format", "json",
                                  "--", "-2", "0", "3", "0", "0", "0"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"zero": False, "rep": [0, 0, 2, 0, 0, 0], "sign": -1}
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4", "--format", "json",
                                  "--", "-1", "1", "2", "0", "0", "0"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"zero": True, "rep": None, "sign": 0}


def test_reduce_large_coordinates(runner):
    # lambda = (4 - M) omega_0 + M omega_1 at N = 12: with M = 16 mod 24 the
    # part (M - 16) omega_1 is a translation by an even multiple of 2N
    # epsilon_1, so M reduces like M = 16
    small = reduce_to_alcove_greedy(AffineWeight(4, (-12, 16, 0, 0, 0, 0)), build_dynkin("D", 5))
    big = 10**15
    assert big % 24 == 16
    result = runner.invoke(main, ["reduce", "-f", "D", "-r", "5", "-k", "4",
                                  "--", str(4 - big), str(big), "0", "0", "0", "0"])
    assert result.exit_code == 0
    assert result.output == f"dominant {list(small.rep.coords)} sign {small.sign:+d}\n"


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


def test_solve_reports_relative_residual(runner):
    # the JSON gains relative_residual = residual / max(1, S); the text keeps
    # the phrase "residual X after N iterations" and appends the same value
    args = ["solve", "-f", "D", "-r", "8", "-k", "6"]
    data = json.loads(runner.invoke(main, [*args, "--format", "json"]).output)
    assert data["relative_residual"] == data["residual"] / max(1.0, data["term_scale"])
    assert data["term_scale"] > 1e8
    text = runner.invoke(main, args).output.splitlines()[0]
    assert re.search(rf"residual {data['residual']:.3e} after {data['iterations']} iterations"
                     rf" \(relative {data['relative_residual']:.3e}\)$", text), text


def test_solve_json_keeps_residuals_below_float64_range(runner):
    # at 1,200 bits the residual, about 2^-1190 S, is 0.0 as a float; the mpf
    # keys carry the exact residual of the returned values, and the text
    # writes them in the layout of %.3e
    bits = 1200
    args = ["solve", "-f", "A", "-r", "1", "-k", "4", "--dilog"]
    env = {"QSYS_PRECISION_BITS": str(bits)}
    data = json.loads(runner.invoke(main, [*args, "--format", "json"], env=env).output)
    assert data["residual"] == data["relative_residual"] == data["dilog"]["delta"] == 0.0
    with mpmath.workprec(bits):
        residual = mpmath.mpf(data["residual_mpf"])
        assert 0 < residual <= mpmath.ldexp(data["term_scale"], 8 - bits)
        relative = mpmath.mpf(data["relative_residual_mpf"])
        assert abs(relative - residual / data["term_scale"]) <= mpmath.ldexp(relative, 4 - bits)
        assert 0 <= mpmath.mpf(data["dilog"]["delta_mpf"]) <= mpmath.ldexp(1, 8 - bits)
    text = runner.invoke(main, args, env=env).output
    with mpmath.workprec(bits):
        residual, relative, delta = (mpmath.nstr(mpmath.mpf(v), 4, strip_zeros=False) for v in (
            data["residual_mpf"], data["relative_residual_mpf"], data["dilog"]["delta_mpf"]))
    assert all(re.fullmatch(r"\d\.\d{3}e-3\d\d", v) for v in (residual, relative, delta))
    assert text.startswith(f"A1, level 4: residual {residual} after {data['iterations']}"
                           f" iterations (relative {relative})\n"), text
    assert f"(delta {delta})" in text and "0.000e+00" not in text


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
    (["table", "-f", "D", "-r", "4", "-k", "1", "--m-max", "100000000000000000000"], {}),
    (["table", "-f", "D", "-r", "4", "-k", "2", "--out", "missing/x.json"], {}),
    (["verify", "-f", "D", "-r", "4", "-k", "1", "--grid", "r=5..4", "k=1..2"], {}),
    (["verify", "-f", "D", "-r", "4", "-k", "1", "--grid", "r=4..5", "k=2..1"], {}),
    (["verify", "-f", "D", "-r", "4", "-k", "2", "--tol", "nan"], {}),
    (["verify", "-f", "D", "-r", "4", "-k", "2", "--tol", "inf"], {}),
    (["solve", "-f", "D", "-r", "4", "-k", "3", "--solver-tol", "nan"], {}),
    (["solve", "-f", "D", "-r", "4", "-k", "3", "--solver-tol", "inf"], {}),
    (["reduce", "-f", "D", "-r", "5", "-k", "4", "--", "-99999999999999999996",
      "100000000000000000000", "0", "0", "0", "0"], {}),
    (["verify", "-f", "D", "-r", "4", "-k", "2", "--format", "csv"], {}),
    (["reduce", "-f", "D", "-r", "5", "-k", "4", "--format", "csv", "--",
      "2", "0", "1", "0", "0", "0"], {}),
    (["solve", "-f", "D", "-r", "4", "-k", "3", "--format", "csv"], {}),
    (["dilog", "-f", "D", "-r", "4", "-k", "3", "--format", "csv"], {}),
    (["table", "-f", "D", "-r", "4", "-k", "2", "--tol", "1e-6"], {}),
], ids=["precision-not-integer", "precision-below-64", "negative-m-max",
        "m-max-above-cap", "unwritable-out", "empty-rank-range", "empty-level-range", "tol-nan",
        "tol-inf", "solver-tol-nan", "solver-tol-inf", "reduce-beyond-int64",
        "verify-csv", "reduce-csv", "solve-csv", "dilog-csv", "table-tol"])
def test_bad_input_is_a_usage_error(runner, tmp_path, monkeypatch, args, env):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1


@pytest.mark.parametrize("args,name", [
    (["verify", "-f", "D", "-r", "4", "-k", "2", "--tol", "nan"], "tolerance"),
    (["solve", "-f", "D", "-r", "4", "-k", "3", "--solver-tol", "nan"], "solver tolerance"),
], ids=["tol", "solver-tol"])
def test_nan_tolerance_must_be_finite(runner, args, name):
    # nan is neither positive nor not: it fails the finite bound, as inf does
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"error: {name} must be finite, got nan" in result.output.splitlines()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    pytest.param(["table", "-f", "D", "-r", "5", "-k", "4", "--format", "text"], id="text"),
    pytest.param(["table", "-f", "D", "-r", "5", "-k", "4", "--format", "json"], id="json"),
    # help and version text that click echoes itself
    pytest.param(["--help"], id="help"),
    pytest.param(["--version"], id="version"),
    pytest.param(["table", "--help"], id="table-help"),
])
def test_failed_stdout_write_is_a_usage_error(args):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qsystem.cli", *args], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert len(proc.stderr.splitlines()) == 1


def test_closed_stdout_pipe_exits_without_traceback():
    # `qsys table ... | head -c 100`: click ends a broken pipe with exit 1 and no output
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "qsystem.cli", "table", "-f", "D", "-r", "10",
                             "-k", "10", "--format", "json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b'{\n "family": "D",') and stderr == b""


def test_max_rank_override(runner):
    result = runner.invoke(main, ["table", "-f", "A", "-r", "13", "-k", "1",
                                  "--max-rank", "14", "--format", "csv"])
    assert result.exit_code == 0


def test_m_max_cap_follows_max_level(runner):
    # D4 has coxeter number 6: the rows up to --max-level + 6 are allowed
    args = ["table", "-f", "D", "-r", "4", "-k", "1", "--format", "csv"]
    assert runner.invoke(main, [*args, "--m-max", "18"]).exit_code == 0
    assert runner.invoke(main, [*args, "--m-max", "19"]).exit_code == 2
    assert runner.invoke(main, [*args, "--m-max", "19", "--max-level", "13"]).exit_code == 0


def test_version_is_the_project_version(runner):
    result = runner.invoke(main, ["--version"], prog_name="qsys")
    assert result.exit_code == 0
    assert result.stdout == f"qsys, version {__version__}\n"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"', project, re.M).group(1) == __version__


# Byte-level pins of the CLI.  Each digest is the sha256 of the JSON list
# [exit code, stdout, stderr] as the commands printed it before the CLI was
# rebuilt around one command decorator.  `solve` and `dilog` are left out:
# their last printed digits follow the float64 start, which depends on the
# LAPACK build.  Help pages are rendered at a fixed width of 80 columns.
D5K4 = ["-f", "D", "-r", "5", "-k", "4"]
A3K3 = ["-f", "A", "-r", "3", "-k", "3"]
PINNED = {
    "table-text-D5k4": (["table", *D5K4], {}),
    "table-json-D5k4": (["table", *D5K4, "--format", "json"], {}),
    "table-csv-D5k4": (["table", *D5K4, "--format", "csv"], {}),
    "table-text-A3k3": (["table", *A3K3], {}),
    "table-json-A3k3": (["table", *A3K3, "--format", "json"], {}),
    "table-csv-A3k3": (["table", *A3K3, "--format", "csv"], {}),
    "verify-D5k4": (["verify", *D5K4], {}),
    "verify-grid-D": (["verify", "-f", "D", "-r", "4", "-k", "1",
                       "--grid", "r=4..5", "k=1..3"], {}),
    "verify-grid-A": (["verify", "-f", "A", "-r", "1", "-k", "1",
                       "--grid", "r=1..3", "k=1..3"], {}),
    "verify-fails": (["verify", "-f", "D", "-r", "4", "-k", "2", "--tol", "1e-300"], {}),
    "reduce-dominant": (["reduce", *D5K4, "--", "2", "0", "1", "0", "0", "0"], {}),
    "reduce-wall": (["reduce", *D5K4, "--", "-1", "1", "2", "0", "0", "0"], {}),
    "reduce-sign-flip": (["reduce", *D5K4, "--", "-2", "0", "3", "0", "0", "0"], {}),
    "usage-family": (["table", "-f", "E", "-r", "6", "-k", "2"], {}),
    "usage-rank-low": (["table", "-f", "D", "-r", "3", "-k", "2"], {}),
    "usage-rank-high": (["table", "-f", "D", "-r", "20", "-k", "2"], {}),
    "usage-level": (["table", "-f", "D", "-r", "4", "-k", "0"], {}),
    "usage-tol": (["table", "-f", "D", "-r", "4", "-k", "2", "--tol", "-1"], {}),
    "usage-solver-tol": (["solve", "-f", "D", "-r", "4", "-k", "3",
                          "--solver-tol", "-1"], {}),
    "usage-precision": (["table", "-f", "D", "-r", "4", "-k", "2"],
                        {"QSYS_PRECISION_BITS": "abc"}),
    "usage-unwritable-out": (["table", "-f", "D", "-r", "4", "-k", "2",
                              "--out", "missing/x.json"], {}),
    "precision-64": (["verify", *D5K4], {"QSYS_PRECISION_BITS": "64"}),
    **{f"help-{cmd or 'main'}": ([cmd, "--help"] if cmd else ["--help"], {})
       for cmd in ("", "table", "verify", "reduce", "solve", "dilog")},
}
DIGESTS = {
    "help-dilog": "fec44e78648a157b77e02c58252a708c07a4be247be5035c322ee2c34624d6a3",
    "help-main": "f882423838724c4eb0c8b368e1658459ed094c1e895df6c015c20f54c1c835b7",
    "help-reduce": "b8ce6a03e11c2d9f4cf0c175b2a9cc34eafcabed86f2eed1affe45a45077fbc1",
    "help-solve": "20c6f281e1e24dafe23e35c24c654f7e15e3644634bb040ac5e532b038897d84",
    "help-table": "1fa776ce7cb9d824238f9c17009a9459fd834256140eb3a1a9dfc47603be97a4",
    "help-verify": "6f92c064538b75fa14057d0d4892538bef9eafddceeb56019eff9a0a9f18aad1",
    "precision-64": "30690280f1998c9d38e1f9c78a75ed640846564e6b9f554739556487153a94ba",
    "reduce-dominant": "9646dd64088448eac9f7ade01dbcee73a7c455e56dbdbd59a5050fe49bb0d174",
    "reduce-sign-flip": "5d8b60fbc1a33b48f7b048e42b414c228d9553883a24c940cd53ad73f8fd3c18",
    "reduce-wall": "d468d6b336283ba2347e4be5ae84ee422607c7e23b450a0d9489ac4ebf5d5fbf",
    "table-csv-A3k3": "570c87db2492c30dea94eb07ee45d922c1d24896d80727cea6c0b7598ddc6db1",
    "table-csv-D5k4": "c1ea814c9e9e3283b8e6465ebbfeec60e20ed4392979394f1f3c29aa033c90af",
    "table-json-A3k3": "1287537340ac2981fcf2baf56064c1bc84dd0446daf47d3306e9f24199a7032a",
    "table-json-D5k4": "4bdd95fe2c00b6eb2cabc3d6549a9be843e58a3a6a3c2f53968d934af2e45aca",
    "table-text-A3k3": "dbbd1793efaf33c57022aefab809d7447b4c749872da8b4104216fe7c59e1861",
    "table-text-D5k4": "d40467d1bbdd1656e7c72cca2162d37c9c05db76a2ca5f84f1fda8b8f1c7a5fd",
    "usage-family": "85be1800b8fb2f7d4c490ef7f1365e2cc84139d3f83b2dbddc9b5de1a25cf561",
    "usage-level": "f003385a52821858b0e0609400e993d237605f76f52138a0650b77c9f480837d",
    "usage-precision": "8da71310ad9b01d0fde8c70c7b7df29f48d9cb6622565de73b7495dd933dfc01",
    "usage-rank-high": "69dee7d77c5170249667ee38b33828dfdde7cb6fb7081b15650a9a716cfddeed",
    "usage-rank-low": "c3802766eba0178eb26b7c0357982c6b9437e8452e09bceb8c8388caeef06dd4",
    "usage-solver-tol": "bd66a20765b5a111505f6a4919af6e67564f3bd3052321b6a5e47cc02510e310",
    "usage-tol": "f32009eb0227c036387bf5489d4ebb5e733cf53521b6b1ca5c299aeee1c04fc0",
    "usage-unwritable-out": "a32ec0dbd2fbbe106f48b1bd49803b8e4d8f531963e5eef3381cb412c2858200",
    "verify-D5k4": "b127c899794a604d21bb0522347780c447f5c647e8847a0fc42fc6d1f2f0169b",
    "verify-fails": "60ab0e9590ac7cfd57890e502df33ce9f8cfe4ab8757ed9e54637241877f0a1c",
    "verify-grid-A": "657c6b116429849d61ebe52a62e9e009035147cacf24344396c4901b68757bdf",
    "verify-grid-D": "6392c431a2ecadc1f688f564a01372ff157564d8d2edea859f20b5b1468e869b",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_output_bytes_are_pinned(runner, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    args, env = PINNED[case]
    result = runner.invoke(main, args, env={"QSYS_PRECISION_BITS": None, **env},
                           prog_name="qsys", terminal_width=80)
    blob = json.dumps([result.exit_code, result.stdout, result.stderr])
    assert hashlib.sha256(blob.encode()).hexdigest() == DIGESTS[case]
