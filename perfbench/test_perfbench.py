"""Tests of the benchmark itself: a minimal pass of each workload, the
printed metric names against BENCHMARK.json, and detection of corrupted
outputs."""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from functools import partial

import pytest

import run
from spans import Tracer, layer_metrics

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REF = json.loads((run.BENCH / "reference.json").read_text())


@pytest.fixture(autouse=True)
def pinned_env(monkeypatch):
    for key, value in run.PINNED_ENV.items():
        monkeypatch.setenv(key, value)


def small(name: str, cases) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], cases=cases)


def table_cases(rng, ref, tmp):
    return [("D5k4_table", partial(run.table_case, "D", 5, 4, ref["tables"]["D5k4"], True))]


def solve_cases(rng, ref, tmp):
    return [("D5k4_solve", partial(run.solve_case, "D", 5, 4, ref["solutions"]["D5k4"],
                                   rng.randrange(2**32)))]


def cli_cases(rng, ref, tmp):
    names = {"cli_table_json", "cli_reduce", "cli_table_reject"}
    return [case for case in run.cli_cold_cases(rng, ref, tmp) if case[0] in names]


SMOKE = {"table_tail": table_cases, "solve_polish": solve_cases, "cli_cold": cli_cases}


def smoke_passes(name: str, tmp_path) -> tuple[run.Workload, list, list]:
    workload = small(name, SMOKE[name])
    rng = random.Random(0)
    plain = [run.run_pass(workload, rng, REF, tmp_path, False)]
    traced = [run.run_pass(workload, rng, REF, tmp_path, True)]
    for p in plain + traced:
        assert p.failures == []
    return workload, plain, traced


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_pass(name, tmp_path):
    workload, plain, traced = smoke_passes(name, tmp_path)
    metrics = layer_metrics(traced[0].tracer.spans, traced[0].tracer.installed)
    if name == "solve_polish":
        assert metrics["solver.polish_s"] > 0 and metrics["solver.probe_converged_ratio"] == 1
    else:
        assert metrics["table.summands"] > 0 and metrics["affine.reduce_calls"] > 0
        assert all(span[4] is not None for span in traced[0].tracer.spans)


def test_per_layer_names_match_spec(tmp_path):
    workload, plain, traced = smoke_passes("cli_cold", tmp_path)
    setup = [{"wall": 0.2, "import_s": 0.1, "dynkin_s": 0.001}]
    metrics = run.per_layer(workload, setup, plain, traced)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]


def test_printed_end_to_end_names_match_spec():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "cli_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("corrupt", ["numeric", "exact"])
def test_corrupted_cell_is_caught(corrupt):
    import mpmath
    from qsystem import QDimValue, build_dynkin, build_qtable

    dynkin = build_dynkin("D", 5)
    table = build_qtable(dynkin, 4)
    ref = REF["tables"]["D5k4"]
    assert run.table_problems(table, dynkin, ref) == []
    cells = dict(table.cells)
    if corrupt == "numeric":
        key = next(k for k, c in sorted(cells.items()) if c.exact is None)
        cells[key] = QDimValue(None, cells[key].numeric * (1 + mpmath.mpf("1e-20")))
    else:
        key = next(k for k, c in sorted(cells.items()) if c.exact == 1)
        cells[key] = QDimValue(None, cells[key].numeric)
    bad = dataclasses.replace(table, cells=cells)
    assert "cell digest differs from the reference" in run.table_problems(bad, dynkin, ref)


def test_corrupted_text_cell_is_caught():
    from qsystem import build_dynkin, build_qtable
    from qsystem.io import qtable_to_text

    text = qtable_to_text(build_qtable(build_dynkin("D", 5), 4))
    ref = REF["tables"]["D5k4"]
    assert run.check_table_text(ref, text) == []
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.strip().startswith("2 |"))
    corrupted = lines[row].replace("5.", "6.", 1)
    assert corrupted != lines[row]
    lines[row] = corrupted
    assert run.check_table_text(ref, "\n".join(lines)) != []


def test_reference_reducer_agrees_with_package():
    from qsystem import AffineWeight, build_dynkin, reduce_to_alcove

    dynkin = build_dynkin("D", 5)
    rng = random.Random(7)
    for _ in range(300):
        weight = run.d5_weight(rng)
        res = reduce_to_alcove(AffineWeight(4, weight), dynkin)
        expected = None if res.is_zero else (res.rep.coords, res.sign)
        assert run.reference_reduce(weight) == expected


def test_missing_wrapped_name_gives_null_metric(monkeypatch):
    import qsystem.solver

    monkeypatch.delattr(qsystem.solver, "_polish")
    tracer = Tracer()
    with tracer.recording():
        pass
    assert "solver.polish" not in tracer.installed
    metrics = layer_metrics(tracer.spans, tracer.installed)
    assert metrics["solver.polish_s"] is None and metrics["solver.polish_steps"] is None
    assert metrics["solver.solve_s"] == 0
