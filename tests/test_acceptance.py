"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is a test with its tolerance pinned.
"""

import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qsystem.dynkin import build_dynkin
from qsystem.qdim import precision_bits
from qsystem.solver import (check_positive_solution_properties,
                            dilog_identity, solve_restricted,
                            uniqueness_probe)
from qsystem.table import (_survivors, build_qtable, forced_tail_report, kr_term_count,
                           midpoint_checks, verify_kns, verify_qsystem)

from oracles import (Weight, affinize, apply_automorphism,
                     diagram_automorphisms, dominant_weights, node_summands, qdim, qdim_affine,
                     qdim_oracle, shifted_action)

GRID = [(r, k) for r in range(4, 9) for k in range(1, 7)]


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grid_tables():
    tables = {}
    t0 = time.time()
    for r, k in GRID:
        tables[(r, k)] = build_qtable(build_dynkin("D", r), k)
    return tables, time.time() - t0


# Frozen reference: the dominant-representative sums for nodes 2 and 3
# of D5 at level 4, rows 0..4 (all coefficients +1).
D5_LEVEL4_NODES_2_3 = {
    (2, 0): {(4, 0, 0, 0, 0, 0)},
    (2, 1): {(4, 0, 0, 0, 0, 0), (2, 0, 1, 0, 0, 0)},
    (2, 2): {(4, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0), (2, 0, 1, 0, 0, 0)},
    (2, 3): {(4, 0, 0, 0, 0, 0), (2, 0, 1, 0, 0, 0)},
    (2, 4): {(4, 0, 0, 0, 0, 0)},
    (3, 0): {(4, 0, 0, 0, 0, 0)},
    (3, 1): {(3, 1, 0, 0, 0, 0), (2, 0, 0, 1, 0, 0)},
    (3, 2): {(2, 2, 0, 0, 0, 0), (0, 0, 0, 2, 0, 0), (1, 1, 0, 1, 0, 0)},
    (3, 3): {(1, 3, 0, 0, 0, 0), (0, 2, 0, 1, 0, 0)},
    (3, 4): {(0, 4, 0, 0, 0, 0)},
}


def test_criterion_1_d5_reference_table():
    """D5 level 4: zero window, unit rows, term lists, symmetry, < 1 s."""
    t0 = time.time()
    d5 = build_dynkin("D", 5)
    table = build_qtable(d5, 4)
    elapsed = time.time() - t0

    ok = True
    detail = []
    for a in range(1, 6):
        for m in range(5, 12):
            ok &= table.cell(a, m).exact == 0
    for a in range(1, 6):
        ok &= table.cell(a, 12).exact == 1  # rank 5 = 1 mod 4: all +1
    for a in range(1, 6):
        for m in (1, 2, 3):
            ok &= float(abs(table.value(a, m) - table.value(a, 4 - m))) <= 1e-9
    survivors = _survivors(4, d5, 4, (3, 2))
    for key, expected in D5_LEVEL4_NODES_2_3.items():
        got = {rep for rep, mult in survivors[key] if mult == 1}
        full = {rep for rep, _ in survivors[key]}
        ok &= got == expected == full
    if elapsed >= 1.0:
        ok = False
        detail.append(f"took {elapsed:.2f}s")
    _report("criterion 1: D5 level-4 reference table",
            ok, f"{elapsed * 1000:.0f} ms" if not detail else "; ".join(detail))


def test_criterion_2_kns_grid(grid_tables):
    """All six property clauses at 1e-9 on r=4..8, k=1..6; exact fork signs."""
    tables, build_time = grid_tables
    t0 = time.time()
    ok = True
    worst = ""
    for (r, k), table in tables.items():
        report = verify_kns(table, tol=1e-9)
        mid = midpoint_checks(table, tol=1e-9)
        if not (report.passed and mid.passed):
            ok = False
            worst = f"D{r} k{k}"
        if r % 4 in (2, 3):
            h = table.coxeter
            if not (table.cell(r - 1, k + h).exact == -1
                    and table.cell(r, k + h).exact == -1):
                ok = False
                worst = f"D{r} k{k} fork"
    elapsed = build_time + (time.time() - t0)
    if elapsed >= 120:
        ok = False
        worst = f"took {elapsed:.0f}s"
    _report("criterion 2: KNS grid r=4..8, k=1..6",
            ok, worst or f"{elapsed:.1f} s incl. builds")


def test_criterion_3_recurrence_residuals(grid_tables):
    """Recurrence residual <= 1e-9 over 1 <= m <= k+h-1 on the grid."""
    tables, _ = grid_tables
    worst = 0.0
    where = ""
    for (r, k), table in tables.items():
        report = verify_qsystem(table, build_dynkin("D", r), tol=1e-9)
        if report.max_residual > worst:
            worst, where = report.max_residual, f"D{r} k{k} at {report.worst}"
    _report("criterion 3: recurrence residuals on the grid",
            worst <= 1e-9, f"max {worst:.2e} ({where})")


def test_criterion_4_oracle_equivalence():
    """Sine products against the alternating Weyl sums, 1e-10."""
    cases = [("D", 4, 3), ("A", 2, 4), ("A", 1, 6)]
    worst = 0.0
    count = 0
    with mpmath.workprec(precision_bits()):
        for family, rank, kmax in cases:
            d = build_dynkin(family, rank)
            for k in range(1, kmax + 1):
                for w in dominant_weights(d, k):
                    delta = float(abs(qdim(w, k, d).numeric - qdim_oracle(w, k, d)))
                    worst = max(worst, delta)
                    count += 1
    _report("criterion 4: oracle equivalence",
            worst <= 1e-10, f"max {worst:.2e} over {count} weights")


def test_criterion_5_symmetry_suites():
    """1000 sign-equivariance and 1000 automorphism checks at D5 level 4."""
    d5 = build_dynkin("D", 5)
    autos = diagram_automorphisms(d5)
    rng = np.random.default_rng(2024)
    tol = mpmath.mpf(10) ** -12
    worst_sign = worst_auto = mpmath.mpf(0)
    with mpmath.workprec(precision_bits()):
        for _ in range(1000):
            w = affinize(Weight(tuple(int(c) for c in rng.integers(-4, 7, 5))), 4, d5)
            word = [int(i) for i in rng.integers(0, 6, rng.integers(0, 31))]
            lhs = qdim_affine(shifted_action(word, w, d5), d5).numeric
            rhs = (-1) ** len(word) * qdim_affine(w, d5).numeric
            worst_sign = max(worst_sign, abs(lhs - rhs))
        for _ in range(1000):
            w = affinize(Weight(tuple(int(c) for c in rng.integers(-4, 7, 5))), 4, d5)
            base = qdim_affine(w, d5).numeric
            p = autos[int(rng.integers(0, len(autos)))]
            worst_auto = max(worst_auto,
                             abs(qdim_affine(apply_automorphism(p, w), d5).numeric - base))
    ok = worst_sign < tol and worst_auto < tol
    _report("criterion 5: randomized symmetry suites", ok,
            f"sign {float(worst_sign):.2e}, automorphism {float(worst_auto):.2e}")


def test_criterion_6_solver_cross_check(grid_tables):
    """Solver residual < 1e-12, table agreement 1e-8, restart agreement 1e-8."""
    tables, _ = grid_tables
    ok = True
    detail = ""
    worst_dev = 0.0
    for (r, k), table in tables.items():
        if k < 2:
            continue
        d = build_dynkin("D", r)
        sol = solve_restricted(d, k, tol=1e-12)
        if sol.residual >= 1e-12:
            ok, detail = False, f"residual {sol.residual:.2e} at D{r} k{k}"
            continue
        dev = max(float(abs(sol.value(a, m) - table.value(a, m)))
                  for a in range(1, r + 1) for m in range(k + 1))
        worst_dev = max(worst_dev, dev)
        if dev > 1e-8:
            ok, detail = False, f"table deviation {dev:.2e} at D{r} k{k}"
        props = check_positive_solution_properties(sol)
        if not props.passed:
            ok, detail = False, f"properties failed at D{r} k{k}"
        probe = uniqueness_probe(d, k, n_starts=20, seed=13 * r + k, tol=1e-8)
        if not probe.agree:
            ok, detail = False, f"restarts disagree ({probe.max_deviation:.2e}) at D{r} k{k}"
    _report("criterion 6: solver vs table on the grid", ok,
            detail or f"max table deviation {worst_dev:.2e}")


def test_criterion_7_dilogarithm(grid_tables):
    """Identity delta <= 1e-9 on the grid; A1 level 2 equals 1/2 to 1e-12."""
    worst = 0.0
    for r, k in GRID:
        if k < 2:
            continue
        d = build_dynkin("D", r)
        report = dilog_identity(solve_restricted(d, k), d)
        worst = max(worst, report.delta)
    a1 = build_dynkin("A", 1)
    closed = dilog_identity(solve_restricted(a1, 2), a1)
    closed_ok = (closed.rhs == Fraction(1, 2) and closed.delta <= 1e-12)
    _report("criterion 7: dilogarithm identity",
            worst <= 1e-9 and closed_ok,
            f"max delta {worst:.2e}; closed case delta {closed.delta:.2e}")


def test_criterion_8_forced_tail(grid_tables):
    """Zero and unit tails forced by the recurrence match the direct tags."""
    tables, _ = grid_tables
    ok = True
    detail = ""
    for (r, k), table in tables.items():
        report = forced_tail_report(table)
        if not (all(c.applicable for c in report.checks) and report.passed):
            ok = False
            detail = f"D{r} k{k}: {report.failures[:3]}"
    _report("criterion 8: forced tail pattern", ok, detail)


def test_decomposition_counts_on_grid(grid_tables):
    """Sanity rider: provenance sizes match the closed-form counts."""
    tables, _ = grid_tables
    for (r, k), table in tables.items():
        d = build_dynkin("D", r)
        for a in range(1, r + 1):
            rows = dict.fromkeys(range(table.m_max + 1), 0)
            for _, runs in node_summands(a, range(table.m_max + 1), k, d):  # JSON provenance
                for m, n in runs:
                    rows[m] += n
            assert rows == {m: kr_term_count(a, m, d) for m in rows}, (r, k, a)
