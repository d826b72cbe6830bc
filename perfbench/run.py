#!/usr/bin/env python3
"""Benchmark of the qsystem package: table building, the restricted-system
solver and the ``qsys`` command line.

Usage, from the root of a source checkout (the package is imported from
``src/``)::

    python3 perfbench/run.py --workload table_tail --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``table_tail``: build, verify and serialize the D8k6, D9k8 and A12k12
  tables in this process;
* ``solve_polish``: solve D8k6 and A8k8, check the solution, the
  dilogarithm identity and a 20-start uniqueness probe in this process;
* ``cli_cold``: eight fresh ``python -m qsystem.cli`` processes per pass.

One client runs the cases of a pass one after another, in an order drawn
from the seed, and starts the next pass when the previous one ends.
Passes repeat until ``--seconds`` are used up.  Every case output is
checked against ``reference.json``; a failed check, an exception or an
unexpected exit code fails the case.

``--trace 0`` prints the end-to-end metrics (set-up time, median pass
time, peak resident memory, share of cases passed).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
of ``spans.layer_metrics`` plus the tracing overhead.  The last line of
standard output is one JSON object; the same result, the failures and
the environment go to ``.perfbench_out/<workload>.trace<N>.json`` and the
spans of the last traced pass to ``.perfbench_out/<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from spans import PARENT, Tracer, build_children, layer_metrics, median_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PINNED_ENV = {
    "QSYS_PRECISION_BITS": "128",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_REPEATS = 7
# Load from other tenants of a shared host changes how fast Python runs, by
# up to 2x for tens of seconds at a time.  Every case and set-up interpreter
# is therefore timed between two runs of a fixed pure-Python kernel, divided
# by their mean, and reported at the speed where the kernel takes
# CALIB_NOMINAL_S.  Calibrating per case rather than per pass is what makes
# it track the load.  The kernel uses no part of the program or its
# dependencies, so a change to the program cannot change its time.
CALIB_LOOPS = 200_000
CALIB_NOMINAL_S = 0.1
CHILD_TIMEOUT = 120
PROBE_STARTS = 20
# Digest numerics are rounded to 30 significant digits (about 100 bits), so
# a change of summation order that moves only the last of the 128 working
# bits does not count as a wrong cell.
DIGITS = 30
SOLVER_TOL = 1e-12
TABLE_DEVIATION_TOL = 1e-8
DILOG_TOL = 1e-9
TEXT_TOL = 1e-8  # relative; the text formats print ten significant digits

TABLE_CASES = (("D", 8, 6), ("D", 9, 8), ("A", 12, 12))
READ_BACK = ("D", 8, 6)
SOLVE_CASES = (("D", 8, 6), ("A", 8, 8))
D5_MARKS = (1, 1, 2, 2, 1, 1)
D5_AFFINE_EDGES = ((0, 2), (1, 2), (2, 3), (3, 4), (3, 5))

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "pass_frac": "ratio"}

Problems = list[str]
CaseFn = Callable[[Tracer | None], Problems]


def label(family: str, rank: int, level: int) -> str:
    return f"{family}{rank}k{level}"


# ---------------------------------------------------------------------------
# output checks


def cell_digest(cells: dict) -> str:
    """sha256 over one ``a m exact numeric`` line per cell, in (a, m) order.

    ``cells`` maps (a, m) to (exact tag, numeric value).
    """
    import mpmath

    h = hashlib.sha256()
    for (a, m), (exact, numeric) in sorted(cells.items()):
        h.update(f"{a} {m} {exact} {mpmath.nstr(numeric, DIGITS)}\n".encode())
    return h.hexdigest()


def table_cells(table) -> dict:
    return {key: (cell.exact, cell.numeric) for key, cell in table.cells.items()}


def parse_mpf(text: str):
    import mpmath

    with mpmath.workprec(int(PINNED_ENV["QSYS_PRECISION_BITS"])):
        return mpmath.mpf(text)


def table_problems(table, dynkin, ref: dict) -> Problems:
    """Digest and the four verification suites of one built table."""
    from qsystem import table as qtable

    problems = []
    if cell_digest(table_cells(table)) != ref["digest"]:
        problems.append("cell digest differs from the reference")
    reports = (
        ("verify_qsystem", qtable.verify_qsystem(table, dynkin)),
        ("verify_kns", qtable.verify_kns(table)),
        ("midpoint_checks", qtable.midpoint_checks(table)),
        ("forced_tail_report", qtable.forced_tail_report(table)),
    )
    problems += [f"{name} failed" for name, report in reports if not report.passed]
    return problems


def rel_diff(a, b) -> float:
    return float(abs(a - b) / max(1, abs(b)))


def solution_problems(values: dict, ref: dict, residual: float, delta: float,
                      rhs: str, tol: float) -> Problems:
    """Residual, deviation from the reference table rows and the dilogarithm
    identity of one restricted solution; ``values`` maps (a, m) to a value."""
    problems = []
    if not residual <= SOLVER_TOL:
        problems.append(f"solver residual {residual:.3e} above {SOLVER_TOL}")
    deviation = max(rel_diff(values[(a, m)], parse_mpf(num)) if (a, m) in values else float("inf")
                    for a, m, num in ref["values"])
    if not deviation <= tol:
        problems.append(f"solver/table deviation {deviation:.3e} above {tol}")
    if not delta <= DILOG_TOL:
        problems.append(f"dilog delta {delta:.3e} above {DILOG_TOL}")
    if rhs != ref["rhs"]:
        problems.append(f"dilog rhs {rhs} != {ref['rhs']}")
    return problems


def reference_reduce(coords: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Dominant representative and sign of a level-k D5 affine weight under
    the shifted action, or None on a reflection wall."""
    mu = [c + 1 for c in coords]
    sign = 1
    while 0 not in mu:
        neg = next((i for i, v in enumerate(mu) if v < 0), None)
        if neg is None:
            return tuple(v - 1 for v in mu), sign
        v = mu[neg]
        mu[neg] = -v
        for i, j in D5_AFFINE_EDGES:
            if i == neg:
                mu[j] += v
            elif j == neg:
                mu[i] += v
        sign = -sign
    return None


def d5_weight(rng: random.Random) -> tuple[int, ...]:
    """Seeded level-4 affine weight of D5 (coordinates lambda_0..lambda_5)."""
    tail = [rng.randint(-3, 4) for _ in range(5)]
    return (4 - sum(m * c for m, c in zip(D5_MARKS[1:], tail)), *tail)


# ---------------------------------------------------------------------------
# in-process cases


def table_case(family: str, rank: int, level: int, ref: dict, read_back: bool,
               tracer: Tracer | None) -> Problems:
    from qsystem import dynkin as qdynkin, io as qio, table as qtable

    dynkin = qdynkin.build_dynkin(family, rank)
    table = qtable.build_qtable(dynkin, level)
    problems = table_problems(table, dynkin, ref)
    text = qio.qtable_to_json(table)
    if read_back and cell_digest(table_cells(qio.qtable_from_json(text))) != ref["digest"]:
        problems.append("JSON read-back digest differs from the reference")
    return problems


def solve_case(family: str, rank: int, level: int, ref: dict, probe_seed: int,
               tracer: Tracer | None) -> Problems:
    from qsystem import dynkin as qdynkin, solver as qsolver

    dynkin = qdynkin.build_dynkin(family, rank)
    sol = qsolver.solve_restricted(dynkin, level)
    problems = []
    if not qsolver.check_positive_solution_properties(sol).passed:
        problems.append("positive-solution properties failed")
    dilog = qsolver.dilog_identity(sol, dynkin)
    problems += solution_problems(sol.values, ref, sol.residual, dilog.delta,
                                  str(dilog.rhs), TABLE_DEVIATION_TOL)
    probe = qsolver.uniqueness_probe(dynkin, level, n_starts=PROBE_STARTS, seed=probe_seed)
    if not probe.agree:
        problems.append(f"uniqueness probe: {probe.converged}/{probe.starts} converged,"
                        f" max deviation {probe.max_deviation:.3e}")
    return problems


def table_tail_cases(rng: random.Random, ref: dict, tmp: Path) -> list[tuple[str, CaseFn]]:
    return [(f"{label(*c)}_table",
             partial(table_case, *c, ref["tables"][label(*c)], c == READ_BACK))
            for c in TABLE_CASES]


def solve_polish_cases(rng: random.Random, ref: dict, tmp: Path) -> list[tuple[str, CaseFn]]:
    return [(f"{label(*c)}_solve",
             partial(solve_case, *c, ref["solutions"][label(*c)], rng.randrange(2**32)))
            for c in SOLVE_CASES]


# ---------------------------------------------------------------------------
# command-line cases


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(name: str, args: list[str], expected_rc: int, check: Callable[[str], Problems],
            tmp: Path, tracer: Tracer | None) -> Problems:
    """One fresh ``qsys`` process; under a tracer it runs through the shim and
    its spans are appended to the tracer's."""
    env = child_env()
    if tracer is None:
        argv = [sys.executable, "-m", "qsystem.cli", *args]
    else:
        span_file = tmp / f"{name}.spans.json"
        span_file.unlink(missing_ok=True)
        env.update(PERFBENCH_SPANS=str(span_file), PERFBENCH_CASE=name)
        argv = [sys.executable, str(BENCH / "cli_shim.py"), *args]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if tracer is not None:
        data = json.loads(span_file.read_text())
        offset = len(tracer.spans)
        for span in data["spans"]:
            if span[PARENT] >= 0:
                span[PARENT] += offset
            tracer.spans.append(span)
        tracer.installed.update(data["installed"])
    problems = []
    if proc.returncode != expected_rc:
        problems.append(f"exit code {proc.returncode}, expected {expected_rc}")
    if "Traceback" in proc.stderr:
        problems.append("traceback on stderr")
    if expected_rc == 0:
        problems += check(proc.stdout)
    return problems


def check_verify(points: int, out: str) -> Problems:
    lines = out.strip().splitlines()
    problems = []
    seen = sum(1 for line in lines if re.search(r" level \d+:$", line))
    if seen != points:
        problems.append(f"verified {seen} grid points, expected {points}")
    if not lines or lines[-1] != "all checks passed" or "FAIL" in out:
        problems.append("verification did not pass")
    return problems


def check_table_text(ref: dict, out: str) -> Problems:
    seen = {}
    for line in out.splitlines():
        match = re.match(r"^\s*(\d+) \| (.*)$", line)
        if match:
            for a, token in enumerate(match.group(2).split(), start=1):
                seen[(a, int(match.group(1)))] = token
    problems = []
    for a, m, exact, num in ref["cells"]:
        token = seen.get((a, m))
        if token is None:
            problems.append(f"cell ({a},{m}) missing from the text table")
        elif exact is not None and token != str(exact):
            problems.append(f"cell ({a},{m}) reads {token}, expected exact {exact}")
        elif exact is None and not rel_diff(parse_mpf(token), parse_mpf(num)) <= TEXT_TOL:
            problems.append(f"cell ({a},{m}) reads {token}, expected {num}")
    if len(seen) != len(ref["cells"]):
        problems.append(f"text table has {len(seen)} cells, expected {len(ref['cells'])}")
    return problems


def check_table_json(ref: dict, path: Path, out: str) -> Problems:
    data = json.loads(path.read_text())
    cells = {(e["a"], e["m"]): (e["exact"], parse_mpf(e["numeric"])) for e in data["cells"]}
    if cell_digest(cells) != ref["digest"]:
        return ["JSON table digest differs from the reference"]
    return []


def check_reduce(weight: tuple[int, ...], out: str) -> Problems:
    expected = reference_reduce(weight)
    if expected is None:
        ok = out.startswith("zero")
    else:
        rep, sign = expected
        ok = out.strip() == f"dominant {list(rep)} sign {sign:+d}"
    return [] if ok else [f"reduce {list(weight)} printed {out.strip()!r}, expected {expected}"]


def _number(pattern: str, text: str) -> float:
    match = re.search(pattern, text)
    return float(match.group(1)) if match else float("inf")


def check_solve_text(ref: dict, out: str) -> Problems:
    values = {}
    for line in out.splitlines():
        match = re.match(r"^\s*a=(\d+): (.*)$", line)
        if match:
            for m, token in enumerate(match.group(2).split()):
                values[(int(match.group(1)), m)] = parse_mpf(token)
    rhs = re.search(r"= rhs (\S+)", out)
    problems = solution_problems(values, ref, _number(r"residual (\S+) after", out),
                                 _number(r"\(delta (\S+)\)", out),
                                 rhs.group(1) if rhs else "", TEXT_TOL)
    deviation = _number(r"max deviation from table: (\S+)", out)
    if not deviation <= TABLE_DEVIATION_TOL:
        problems.append(f"reported table deviation {deviation} above {TABLE_DEVIATION_TOL}")
    return problems


def check_dilog_json(ref: dict, out: str) -> Problems:
    data = json.loads(out)
    values = {(v["a"], v["m"]): parse_mpf(v["value"]) for v in data["values"]}
    return solution_problems(values, ref, data["residual"], data["dilog"]["delta"],
                             data["dilog"]["rhs"], TABLE_DEVIATION_TOL)


def cli_cold_cases(rng: random.Random, ref: dict, tmp: Path) -> list[tuple[str, CaseFn]]:
    d5k4 = ["-f", "D", "-r", "5", "-k", "4"]
    json_out = tmp / "D5k4.json"
    json_out.unlink(missing_ok=True)  # a stale file must not pass the check
    weight = d5_weight(rng)

    cases = [
        ("cli_verify_D", ["verify", "-f", "D", "-r", "4", "-k", "1",
                          "--grid", "r=4..8", "k=1..6"], 0, partial(check_verify, 30)),
        ("cli_verify_A", ["verify", "-f", "A", "-r", "1", "-k", "1",
                          "--grid", "r=1..8", "k=1..6"], 0, partial(check_verify, 48)),
        ("cli_table_text", ["table", *d5k4], 0,
         partial(check_table_text, ref["tables"]["D5k4"])),
        ("cli_table_json", ["table", *d5k4, "--format", "json", "--out", str(json_out)], 0,
         partial(check_table_json, ref["tables"]["D5k4"], json_out)),
        ("cli_reduce", ["reduce", *d5k4, "--", *map(str, weight)], 0,
         partial(check_reduce, weight)),
        ("cli_solve", ["solve", *d5k4, "--against-table", "--dilog"], 0,
         partial(check_solve_text, ref["solutions"]["D5k4"])),
        ("cli_dilog", ["dilog", "-f", "A", "-r", "1", "-k", "2", "--format", "json"], 0,
         partial(check_dilog_json, ref["solutions"]["A1k2"])),
        ("cli_table_reject", ["table", "-f", "D", "-r", "13", "-k", "4"], 2, None),
    ]
    return [(name, partial(run_cli, name, args, rc, check, tmp))
            for name, args, rc, check in cases]


# ---------------------------------------------------------------------------
# workloads and measurement


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    diagrams: tuple[tuple[str, int], ...]
    cases: Callable[[random.Random, dict, Path], list[tuple[str, CaseFn]]]


WORKLOADS = {
    "table_tail": Workload("table_tail", True, (("D", 8), ("D", 9), ("A", 12)),
                           table_tail_cases),
    "solve_polish": Workload("solve_polish", True, (("D", 8), ("A", 8)), solve_polish_cases),
    "cli_cold": Workload("cli_cold", False,
                         (*(("D", r) for r in range(4, 9)), *(("A", r) for r in range(1, 9))),
                         cli_cold_cases),
}

CASE_NAMES = (
    *(f"{label(*c)}_table" for c in TABLE_CASES),
    *(f"{label(*c)}_solve" for c in SOLVE_CASES),
    "cli_verify_D", "cli_verify_A", "cli_table_text", "cli_table_json",
    "cli_reduce", "cli_solve", "cli_dilog", "cli_table_reject",
)


def calibrate() -> float:
    """Wall time of the calibration kernel: 128-bit integer arithmetic and
    dictionary updates."""
    t0 = time.perf_counter()
    x, counts = 1, {}
    for i in range(CALIB_LOOPS):
        x = (x * 0x9E3779B97F4A7C15F39CC0605CEDC835 + i) & ((1 << 128) - 1)
        key = x % 1021
        counts[key] = counts.get(key, 0) + (x >> 64)
    return time.perf_counter() - t0


def at_nominal_speed(wall: float, calib: float) -> float:
    return wall / calib * CALIB_NOMINAL_S


@dataclass
class Pass:
    """Raw wall time and mean calibration time around each case."""

    case_s: dict[str, float] = field(default_factory=dict)
    case_calib: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def wall(self) -> float:
        return sum(self.case_s.values())

    def case_time(self, case: str) -> float:
        return at_nominal_speed(self.case_s[case], self.case_calib[case])

    @property
    def time(self) -> float:
        """Pass time at nominal machine speed."""
        return sum(self.case_time(case) for case in self.case_s)


def run_pass(workload: Workload, rng: random.Random, ref: dict, tmp: Path,
             traced: bool) -> Pass:
    """One closed-loop pass: each case starts when the previous one ends."""
    cases = workload.cases(rng, ref, tmp)
    rng.shuffle(cases)
    result = Pass(tracer=Tracer() if traced else None)
    tracer = result.tracer
    recording = tracer.recording() if tracer and workload.in_process else nullcontext()
    calib = calibrate()
    with recording:
        for name, fn in cases:
            if tracer is not None:
                tracer.case = name
            t0 = time.perf_counter()
            try:
                problems = fn(tracer)
            except Exception as exc:  # any crash of the program fails the case
                problems = [f"{type(exc).__name__}: {exc}"]
            result.case_s[name] = time.perf_counter() - t0
            result.failures += [(name, p) for p in problems]
            after = calibrate()
            result.case_calib[name], calib = (calib + after) / 2, after
    return result


def measure_setup(workload: Workload) -> list[dict]:
    """Fresh interpreters that import the package and build the diagrams;
    wall time from outside plus the import and build split from inside."""
    code = (
        "import json, time\n"
        "t0 = time.perf_counter()\n"
        "import qsystem\n"
        + ("" if workload.in_process else "import qsystem.cli\n")
        + "t1 = time.perf_counter()\n"
        f"for family, rank in {list(workload.diagrams)!r}:\n"
        "    qsystem.build_dynkin(family, rank)\n"
        "t2 = time.perf_counter()\n"
        "print(json.dumps({'import_s': t1 - t0, 'dynkin_s': t2 - t1}))\n"
    )
    samples = []
    calib = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        after = calibrate()
        samples.append({"wall": wall, "calib": (calib + after) / 2,
                        **json.loads(proc.stdout.strip().splitlines()[-1])})
        calib = after
    return samples


def peak_rss_mb(workload: Workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        **PINNED_ENV,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name == "io.bytes":
        return "bytes"
    if name == "solver.residual":
        return "1"
    return "count"


def per_layer(workload: Workload, setup: list[dict], plain: list[Pass],
              traced: list[Pass]) -> dict:
    metrics = median_metrics([layer_metrics(p.tracer.spans, p.tracer.installed)
                              for p in traced])
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
    metrics["cli.process_s"] = (0.0 if workload.in_process else statistics.median(
        p.case_time(case) for p in traced for case in p.case_s))
    metrics["cli.calls"] = 0 if workload.in_process else len(plain[0].case_s)
    metrics["dynkin.build_s"] = statistics.median(s["dynkin_s"] for s in setup)
    metrics["trace.overhead_frac"] = (statistics.median(p.time for p in traced)
                                      / statistics.median(p.time for p in plain) - 1)
    metrics["bench.raw_wall_s"] = statistics.median(p.wall for p in plain)
    metrics["bench.calib_s"] = statistics.median(c for p in plain for c in p.case_calib.values())
    for case in CASE_NAMES:
        times = [p.case_time(case) for p in plain if case in p.case_s]
        metrics[f"case.{case}_s"] = statistics.median(times) if times else 0.0
    return metrics


def layer_checks(workload: Workload, metrics: dict, plain: list[Pass],
                 traced: list[Pass]) -> list[str]:
    """The stress each workload was chosen for, confirmed or reported as not met."""
    lines = []
    if workload.name == "table_tail":
        children = build_children(traced[-1].tracer.spans)
        top = max(children, key=children.get) if children else None
        lines.append(f"largest child span of table.build: {top}"
                     f" ({'met' if top == 'affine.reduce' else 'NOT MET'}: affine.reduce expected)")
    elif workload.name == "solve_polish":
        polish, solve = metrics["solver.polish_s"], metrics["solver.solve_s"]
        share = polish / solve if polish is not None and solve else None
        lines.append(f"solver.polish_s / solver.solve_s = {share}"
                     f" ({'met' if share is not None and share >= 0.9 else 'NOT MET'}: >= 0.9)")
    else:
        wall = statistics.median(p.wall for p in plain)
        share = metrics["cli.import_s"] * metrics["cli.calls"] / wall
        lines.append(f"cli.import_s * cli.calls / wall_s = {share:.3f}"
                     f" ({'met' if share >= 1 / 3 else 'NOT MET'}: >= 1/3)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsystem" / "__init__.py").is_file():
        print(f"error: no qsystem sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import qsystem

    if not Path(qsystem.__file__).resolve().is_relative_to(SRC):
        print(f"error: qsystem imported from {qsystem.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ref = json.loads((BENCH / "reference.json").read_text())
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    env = environment()
    setup = measure_setup(workload)

    warmup = [run_pass(workload, rng, ref, tmp, False)] if workload.in_process else []
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, rng, ref, tmp, False))
        if args.trace:
            traced.append(run_pass(workload, rng, ref, tmp, True))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(plain)) > args.seconds:
            break

    every = warmup + plain + traced
    attempted = sum(len(p.case_s) for p in every)
    failures = [f for p in every for f in p.failures]
    failed_cases = sum(len({name for name, _ in p.failures}) for p in every)
    if args.trace:
        metrics = per_layer(workload, setup, plain, traced)
        checks = layer_checks(workload, metrics, plain, traced)
    else:
        metrics = {
            "setup_s": statistics.median(at_nominal_speed(s["wall"], s["calib"])
                                         for s in setup),
            "wall_s": statistics.median(p.time for p in plain),
            "peak_rss_mb": peak_rss_mb(workload),
            "pass_frac": 1 - failed_cases / attempted,
        }
        checks = []

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} timed passes, {len(traced)} traced passes")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name} = {value} {unit_of(name)}")
    if args.trace:
        print(f"  (affine.reduce_calls of table.summands: "
              f"{metrics['affine.reduce_calls']} of {metrics['table.summands']})")
    print(f"  fail_frac = {failed_cases / attempted} ({failed_cases} of {attempted} cases)")
    print(f"  raw median pass time {statistics.median(p.wall for p in plain)} s; times above"
          f" are at the speed where the calibration kernel takes {CALIB_NOMINAL_S} s")
    for line in checks:
        print(f"  check: {line}")
    for name, problem in failures[:20]:
        print(f"  FAILED {name}: {problem}")

    result = {
        "correct": failed_cases == 0,
        "attempted": attempted,
        "failed": failed_cases,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    record = {**result, "workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup": setup,
              "passes": [{"case_s": p.case_s, "case_calib": p.case_calib} for p in plain],
              "traced_passes": [{"case_s": p.case_s, "case_calib": p.case_calib}
                                for p in traced], "checks": checks,
              "failures": failures}
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if traced:
        (OUT / f"{workload.name}.spans.json").write_text(json.dumps(traced[-1].tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
