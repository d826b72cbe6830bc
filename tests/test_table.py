import hashlib
import json
import logging
import tracemalloc
from dataclasses import replace
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

import qsystem.io
import qsystem.qdim
import qsystem.table

from qsystem.affine import AffineWeight, affinize, reduce_to_alcove
from qsystem.checks import positive_checks
from qsystem.dynkin import build_dynkin
from qsystem.io import (qtable_from_json, qtable_json_chunks, qtable_to_csv, qtable_to_json,
                        qtable_to_text)
from qsystem.qdim import QDimValue, precision_bits
from qsystem.recurrence import terms
from qsystem.table import (_chain_states, _chain_weights, _rank_rows, _survivors, build_qtable,
                           forced_tail_report, kr_decompose, kr_term_count, midpoint_checks,
                           stars_and_bars, verify_kns, verify_qsystem)

from oracles import (assert_same_text, combine_mpf, compositions, kr_terms_recursive,
                     node_summands, positive_checks_mpf, qdim_affine, qtable_from_json_loads,
                     qtable_to_dict, survivors_chunked, verify_qsystem_mpf)


@pytest.fixture(scope="module")
def d5():
    return build_dynkin("D", 5)


@pytest.fixture(scope="module")
def d5_table(d5):
    return build_qtable(d5, 4)


@pytest.fixture(scope="module")
def d5_survivors(d5):
    return _survivors(4, d5, 12, _tops(d5))


def _cell_blocks(a, m, level, d):
    """The unreduced affinized summand blocks of cell (a, m), as the JSON writer streams them."""
    return [block for block, _ in node_summands(a, [m], level, d)]


def _reduce_cell(blocks, d):
    """Signed survivors of one cell's summand blocks, sorted by coordinates: every
    block reduced, then equal representatives merged."""
    res = [reduce_to_alcove(block, d) for block in blocks]
    reps = np.concatenate([r.rep for r in res])
    uniq, inverse = np.unique(reps, axis=0, return_inverse=True)
    mult = np.bincount(inverse.ravel(), weights=np.concatenate([r.sign for r in res]),
                       minlength=len(uniq)).astype(np.int64)
    return [(tuple(rep), c) for rep, c in zip(uniq.tolist(), mult.tolist()) if c]


# --- decomposition -----------------------------------------------------------

def test_decompose_tips_and_a_family():
    d5 = build_dynkin("D", 5)
    for a in (4, 5):
        dec = kr_decompose(a, 3, d5)
        assert dec.terms.tolist() == [[3 * (i == a - 1) for i in range(5)]]
    a3 = build_dynkin("A", 3)
    for a in (1, 2, 3):
        assert len(kr_decompose(a, 5, a3).terms) == 1


def test_decompose_even_node(d5):
    dec = kr_decompose(2, 1, d5)
    assert dec.terms.tolist() == [[0, 1, 0, 0, 0], [0, 0, 0, 0, 0]]


def test_decompose_odd_node_order(d5):
    # lexicographically descending in (k_3, k_1)
    dec = kr_decompose(3, 2, d5)
    assert dec.terms.tolist() == [
        [0, 0, 2, 0, 0],
        [1, 0, 1, 0, 0],
        [2, 0, 0, 0, 0],
    ]


def test_decompose_m_zero(d5):
    for a in range(1, 6):
        dec = kr_decompose(a, 0, d5)
        assert dec.terms.tolist() == [[0] * 5]


@pytest.mark.parametrize("rank", [4, 6, 8])
def test_term_count_stars_and_bars(rank):
    d = build_dynkin("D", rank)
    for a in range(1, rank + 1):
        for m in range(0, 7):
            n = len(kr_decompose(a, m, d).terms)
            assert n == kr_term_count(a, m, d)
            if a <= rank - 2:
                assert n == comb(m + a // 2, a // 2)
            else:
                assert n == 1


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 5), ("D", 4), ("D", 7), ("D", 10)])
def test_decompose_matches_recursive_order(family, rank):
    d = build_dynkin(family, rank)
    for a in range(1, rank + 1):
        for m in range(0, 13):
            assert kr_decompose(a, m, d).terms.tolist() == \
                [list(t) for t in kr_terms_recursive(a, m, d)]


def test_decompose_bad_node(d5):
    with pytest.raises(ValueError):
        kr_decompose(0, 1, d5)
    with pytest.raises(ValueError):
        kr_decompose(6, 1, d5)
    with pytest.raises(ValueError):
        kr_decompose(1, -1, d5)


# --- the D5 level-4 reference table ------------------------------------------

def test_provenance_levels(d5, d5_table):
    rows = {cell: np.concatenate(_cell_blocks(*cell, 4, d5)) for cell in d5_table.cells}
    for (a, m), summands in rows.items():
        assert len(summands) == kr_term_count(a, m, d5)
        assert (summands @ d5.marks == 4).all()
    # negative zeroth coordinates occur and are kept
    assert any((summands[:, 0] < 0).any() for summands in rows.values())


def test_cells_equal_provenance_sums(d5, d5_table):
    with mpmath.workprec(precision_bits()):
        tol = mpmath.mpf(10) ** -25
        for a, m in d5_table.cells:
            direct = sum((qdim_affine(AffineWeight(4, tuple(row)), d5).numeric
                          for block in _cell_blocks(a, m, 4, d5) for row in block.tolist()),
                         mpmath.mpf(0))
            assert abs(direct - d5_table.value(a, m)) < tol * (1 + abs(direct))


def test_zero_window_certified(d5_table, d5_survivors):
    for a in range(1, 6):
        for m in range(5, 12):
            cell = d5_table.cell(a, m)
            assert cell.exact == 0 and cell.numeric == 0
            assert d5_survivors[(a, m)] == []


def test_boundary_rows_are_unit(d5_table):
    for a in range(1, 6):
        assert d5_table.cell(a, 0).exact == 1
        assert d5_table.cell(a, 4).exact == 1
        assert d5_table.cell(a, 12).exact == 1


def test_row_twelve_equals_row_four(d5_table, d5_survivors):
    for a in range(1, 6):
        assert d5_table.value(a, 12) == d5_table.value(a, 4)
    # node 1 revisits the single dominant representative 4*omega_1-hat
    assert d5_survivors[(1, 12)] == [((0, 4, 0, 0, 0, 0), 1)]


EXPECTED_REDUCED = {
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


def test_reduced_terms_match_reference(d5_survivors):
    for key, expected in EXPECTED_REDUCED.items():
        got = d5_survivors[key]
        assert {rep for rep, _ in got} == expected, key
        assert all(mult == 1 for _, mult in got)


def test_symmetry_of_reference_table(d5_table):
    for a in range(1, 6):
        for m in (1, 2, 3):
            assert abs(d5_table.value(a, m) - d5_table.value(a, 4 - m)) < 1e-9


# --- verification suites ------------------------------------------------------

@pytest.mark.parametrize("family,rank,k", [("D", 4, 3), ("A", 2, 2), ("A", 3, 4)])
def test_qsystem_residuals(family, rank, k):
    d = build_dynkin(family, rank)
    table = build_qtable(d, k)
    report = verify_qsystem(table, d)
    assert report.passed
    assert report.max_residual < 1e-9


def test_qsystem_detects_perturbation():
    d4 = build_dynkin("D", 4)
    table = build_qtable(d4, 3)
    broken = dict(table.cells)
    target = (2, 4)
    bad = broken[target].numeric + mpmath.mpf("1e-3")
    broken[target] = QDimValue(exact=None, numeric=bad)
    report = verify_qsystem(replace(table, cells=broken), d4)
    assert not report.passed
    # residuals localise at equations touching the perturbed cell
    touched = {(a, m) for (a, m), res in report.residuals.items() if res > 1e-6}
    assert touched
    for a, m in touched:
        assert abs(m - target[1]) <= 1 and (a == target[0] or abs(m - target[1]) == 0)


@pytest.mark.parametrize("m_max", [0, 1])
def test_qsystem_without_equations(m_max):
    # rows 0..m_max hold no equation 1 <= m <= m_max - 1
    d4 = build_dynkin("D", 4)
    report = verify_qsystem(build_qtable(d4, 2, m_max=m_max), d4)
    assert report.max_residual == 0 and report.worst is None
    assert report.passed and report.residuals == {}


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 5)])
def test_negative_m_max_is_rejected(family, rank):
    with pytest.raises(ValueError, match="m_max"):
        build_qtable(build_dynkin(family, rank), 4, m_max=-1)


def test_kns_passes_d5(d5_table):
    report = verify_kns(d5_table)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "positivity", "symmetry", "unit_boundary", "unimodality",
        "zero_window", "top_row"]


def test_kns_d6_k3_fork_sign():
    d6 = build_dynkin("D", 6)
    table = build_qtable(d6, 3)
    assert verify_kns(table).passed
    assert table.cell(5, 3 + d6.coxeter).exact == -1
    assert table.cell(6, 3 + d6.coxeter).exact == -1


def test_kns_level_one_degenerate():
    d4 = build_dynkin("D", 4)
    report = verify_kns(build_qtable(d4, 1))
    assert report.passed  # symmetry and unimodality ranges are empty


def test_kns_a_family_skips_top_row():
    a2 = build_dynkin("A", 2)
    report = verify_kns(build_qtable(a2, 2))
    assert report.passed
    assert not report.check("top_row").applicable


def test_kns_detects_broken_positivity(d5, d5_table):
    broken = dict(d5_table.cells)
    broken[(2, 1)] = QDimValue(exact=None, numeric=-broken[(2, 1)].numeric)
    report = verify_kns(replace(d5_table, cells=broken))
    assert not report.passed
    assert not report.check("positivity").passed


# --- midpoint equalities -------------------------------------------------------

def test_midpoint_odd_level():
    d5 = build_dynkin("D", 5)
    table = build_qtable(d5, 3, m_max=3)
    assert abs(table.value(2, 1) - table.value(2, 2)) < 1e-12
    assert midpoint_checks(table).passed


def test_midpoint_even_level(d5_table):
    assert abs(d5_table.value(3, 1) - d5_table.value(3, 3)) < 1e-12
    assert midpoint_checks(d5_table).passed


def test_midpoint_boundary_cells():
    d4 = build_dynkin("D", 4)
    table = build_qtable(d4, 2, m_max=2)
    assert table.value(2, 0) == 1 and table.value(2, 2) == 1
    assert midpoint_checks(table).passed


def _with_cells(table, changes):
    """``table`` with the cells (a, m) -> (exact, numeric) of ``changes``."""
    cells = dict(table.cells)
    cells.update({cell: QDimValue(*value) for cell, value in changes.items()})
    return replace(table, cells=cells)


@pytest.mark.parametrize("relative,passed", [("1e-30", True), ("1e-6", False)])
def test_symmetry_is_relative_to_the_values(d5_table, relative, passed):
    # (2, 1) and (2, 3) are the innermost mirror pair of a tail node at
    # k = 4, so both the symmetry clause and the midpoint suite see it
    with mpmath.workprec(precision_bits()):
        big = mpmath.mpf("1e25")
        table = _with_cells(d5_table, {(2, 1): (None, big),
                                       (2, 3): (None, big * (1 + mpmath.mpf(relative)))})
    assert verify_kns(table).check("symmetry").passed is passed
    assert midpoint_checks(table).check("midpoint").passed is passed


# --- recursion closure ----------------------------------------------------------

def rebuild_from_first_row(table, dynkin):
    """Regrow rows 2..level from rows 0 and 1 via the recurrence solved
    forward: z_{m+1} = (z_m^2 - neighbor product) / z_{m-1}.  Valid while
    all intermediate cells are nonzero, which positivity guarantees below
    the boundary."""
    k, adj = table.level, np.array(dynkin.adjacency)
    with mpmath.workprec(precision_bits()):
        q = np.array([[mpmath.mpf(1), table.value(a, 1)] + [mpmath.mpf(0)] * (k - 1)
                      for a in range(1, table.rank + 1)], dtype=object)
        for m in range(1, k):
            square, prod, _ = terms(q[:, m - 1:m + 2], adj)
            q[:, m + 1] = (square - prod)[:, 0] / q[:, m - 1]
    return q


def test_rebuild_from_first_row():
    for family, rank, k in [("D", 4, 3), ("D", 5, 4), ("A", 3, 5)]:
        d = build_dynkin(family, rank)
        table = build_qtable(d, k, m_max=k)
        regrown = rebuild_from_first_row(table, d)
        for a in range(1, rank + 1):
            for m in range(k + 1):
                rel = abs(regrown[a - 1, m] - table.value(a, m)) / table.value(a, m)
                assert rel < 1e-8


def test_forced_tail(d5_table):
    report = forced_tail_report(d5_table)
    assert all(c.applicable for c in report.checks) and report.passed
    assert report.check("forced_zeros").failures == ()
    assert report.check("forced_top_row").failures == ()
    assert report.check("fork").passed


def test_forced_zeros_need_certified_zeros(d5_table):
    # a numeric 1e-30 is inside the KNS zero window at 1e-9, but the
    # forced pattern asks for a certified zero
    k = d5_table.level
    table = _with_cells(d5_table, {(3, k + 2): (None, mpmath.mpf("1e-30"))})
    assert verify_kns(table).check("zero_window").passed
    report = forced_tail_report(table)
    assert not report.passed
    assert not report.check("forced_zeros").passed
    assert report.check("forced_top_row").passed and report.check("fork").passed
    assert report.failures == (f"z(3,{k + 2}) = 1.0e-30 (exact tag None), expected 0",)


def test_fork_needs_equal_signs(d5_table):
    top = d5_table.level + d5_table.coxeter
    table = _with_cells(d5_table, {(4, top): (1, mpmath.mpf(1)),
                                   (5, top): (-1, mpmath.mpf(-1))})
    report = forced_tail_report(table)
    assert not report.check("fork").passed
    assert report.check("forced_zeros").passed and report.check("forced_top_row").passed


def test_forced_tail_not_applicable_for_a():
    a2 = build_dynkin("A", 2)
    report = forced_tail_report(build_qtable(a2, 2))
    assert not any(c.applicable for c in report.checks) and report.passed


ORACLE_SUMMANDS = 50_000  # summands the chunked oracle reduces per example, at most


def _cells(d, m_max):
    return [(a, m) for a in range(1, d.rank + 1) for m in range(m_max + 1)]


def _tops(d):
    """The chain tops that cover the whole table."""
    return (d.rank - 2, d.rank - 3) if d.family == "D" else ()


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(4, 12), k=st.integers(1, 8), data=st.data())
def test_chain_survivors_match_chunked_oracle(rank, k, data):
    # m_max runs up to k + h + 3 where the oracle's summand count allows,
    # which covers the rows past k + h on D4..D9
    d = build_dynkin("D", rank)
    limit, total = 0, 0
    for m in range(k + d.coxeter + 4):
        total += sum(kr_term_count(a, m, d) for a in range(1, rank + 1))
        if total > ORACLE_SUMMANDS:
            break
        limit = m
    m_max = data.draw(st.integers(0, limit), label="m_max")
    assert _survivors(k, d, m_max, _tops(d)) == survivors_chunked(_cells(d, m_max), k, d,
                                                                  chunk_rows=97)


@pytest.mark.parametrize("family,rank,k", [("D", 6, 3), ("D", 7, 2), ("A", 3, 3)])
def test_chain_survivors_in_small_blocks(monkeypatch, family, rank, k):
    # 5-row blocks split one leading coefficient across reduce_to_alcove calls
    d = build_dynkin(family, rank)
    whole = _survivors(k, d, k + d.coxeter, _tops(d))
    monkeypatch.setattr(qsystem.table, "_BLOCK_ROWS", 5)
    assert _survivors(k, d, k + d.coxeter, _tops(d)) == whole


@pytest.mark.parametrize("rank,k", [(4, 3), (5, 4), (6, 2), (7, 5), (8, 6), (9, 8)])
def test_cell_survivors_match_whole_table(rank, k):
    # a cell's provenance, as the JSON writer streams it, cancels to its column of the chain
    d = build_dynkin("D", rank)
    m_max = k + d.coxeter
    whole = _survivors(k, d, m_max, _tops(d))
    for a, m in _cells(d, m_max):
        assert _reduce_cell(_cell_blocks(a, m, k, d), d) == whole[(a, m)], (a, m)


@pytest.mark.parametrize("family,rank,a", [("D", 12, 11), ("D", 12, 12), ("A", 5, 3)])
def test_single_summand_survivors_reduce_once(monkeypatch, family, rank, a):
    # a fork tip or a node of A has one summand per cell and builds no chain
    d = build_dynkin(family, rank)
    k, m = 12, 12 + d.coxeter
    want = _reduce_cell(_cell_blocks(a, m, k, d), d)
    calls = []

    def counted(weights, dynkin):
        calls.append(len(weights))
        return reduce(weights, dynkin)

    reduce = qsystem.table.reduce_to_alcove
    monkeypatch.setattr(qsystem.table, "reduce_to_alcove", counted)
    assert _survivors(k, d, m, ())[(a, m)] == want
    assert len(calls) == 1  # every cell of one summand, all nodes, in one block


@pytest.mark.parametrize("family,rank,k", [("D", 5, 4), ("D", 7, 3), ("A", 4, 3)])
def test_build_evaluates_one_block(monkeypatch, family, rank, k):
    # one qdim_affine call per table, on the sorted distinct survivors
    d = build_dynkin(family, rank)
    calls = []

    def counted(reps, level, dynkin):
        calls.append((reps.tolist(), level, dynkin))
        return evaluate(reps, level, dynkin)

    evaluate = qsystem.table.qdim_affine
    monkeypatch.setattr(qsystem.table, "qdim_affine", counted)
    build_qtable(d, k)
    found = survivors_chunked(_cells(d, k + d.coxeter), k, d)
    reps = sorted({rep for cell in found.values() for rep, _ in cell})
    assert calls == [([list(rep) for rep in reps], k, d)]


def test_build_takes_each_sine_power_once(monkeypatch):
    # D9k8 has 1,824 sine powers over its generic rows and the denominator but only
    # 76 distinct (q, count): 64 over the rows, 12 in the denominator
    calls = []

    def counted(base, exponent, prec, rnd):
        calls.append(exponent)
        return power(base, exponent, prec, rnd)

    power = qsystem.qdim.mpf_pow_int
    monkeypatch.setattr(qsystem.qdim, "mpf_pow_int", counted)
    qsystem.qdim._root_data.cache_clear()  # the denominator's powers too
    build_qtable(build_dynkin("D", 9), 8)
    assert len(calls) == 76


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bits=st.sampled_from([64, 128, 512]))
def test_combine_matches_mpf_oracle(data, bits):
    # exact, inexact and mixed parts with multiplicities +-1..+-5, among them the
    # empty cell and sums that cancel: the same tag and the same bits as mpf arithmetic
    exact = st.sampled_from([-1, 0, 1]).map(lambda e: QDimValue(exact=e, numeric=mpmath.mpf(e)))
    inexact = st.builds(lambda man, exp: QDimValue(exact=None, numeric=mpmath.mp.make_mpf(
        from_man_exp(man, exp))), st.integers(-2**bits, 2**bits), st.integers(-bits - 8, 8))
    kind = data.draw(st.sampled_from([exact, inexact, exact | inexact]))
    parts = data.draw(st.lists(st.tuples(st.integers(-5, 5).filter(bool), kind), max_size=12))
    if data.draw(st.booleans()):
        parts += [(-mult, p) for mult, p in parts]
    with mpmath.workprec(bits):
        got, want = qsystem.table._combine(parts), combine_mpf(parts)
    assert got.exact == want.exact
    assert got.numeric._mpf_ == want.numeric._mpf_


@settings(max_examples=40, deadline=None)
@given(data=st.data(), family=st.sampled_from("AD"), bits=st.sampled_from([64, 128, 512]))
def test_tuple_table_path_matches_mpf_oracles(data, family, bits):
    # D4-D9 and A1-A8 at levels 1-8: every cell has the tag and the bits of the mpf sum of its
    # survivors, and the recurrence report is the one of mpf arithmetic on recurrence.terms
    d = build_dynkin(family, data.draw(st.integers(4, 9) if family == "D" else st.integers(1, 8)))
    k = data.draw(st.integers(1, 8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("QSYS_PRECISION_BITS", str(bits))
        table = build_qtable(d, k)
        survivors = _survivors(k, d, table.m_max, _tops(d))
        reps = sorted({rep for found in survivors.values() for rep, _ in found})
        block = np.array(reps, dtype=np.int64).reshape(len(reps), d.rank + 1)
        values = dict(zip(reps, qsystem.qdim.qdim_affine(block, k, d)))
        with mpmath.workprec(bits):
            for cell, found in survivors.items():
                want = combine_mpf([(mult, values[rep]) for rep, mult in found])
                got = table.cells[cell]
                assert (got.exact, got.numeric._mpf_) == (want.exact, want.numeric._mpf_), cell
        got, want = verify_qsystem(table, d), verify_qsystem_mpf(table, d)
    assert got.residuals == want.residuals
    assert (got.worst, got.max_residual, got.threshold, got.passed) == (
        want.worst, want.max_residual, want.threshold, want.passed)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.sampled_from([64, 128, 512]),
       tol=st.sampled_from([1e-300, 1e-9, 0.5]))
def test_positive_checks_match_mpf_oracle(data, bits, tol):
    # grids of values equal, a unit in the last place apart, near zero, negative and large:
    # the same failures, byte for byte, as mpf comparisons give
    rank, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    ulp = mpmath.ldexp(1, 1 - bits)
    pool = [0, 1, -1, 2, 1 + ulp, 1 - ulp / 2, ulp, mpmath.mpf(3) / 7, 1e40, 1e40 * (1 + ulp)]
    with mpmath.workprec(bits):
        grid = {(a, m): mpmath.mpf(data.draw(st.sampled_from(pool)))
                for a in range(1, rank + 1) for m in range(k + 1)}

        def value(a, m):
            return grid[(a, m)]

        assert positive_checks(value, rank, k, tol) == positive_checks_mpf(value, rank, k, tol)


@pytest.mark.parametrize("rows", [None, 7])
@pytest.mark.parametrize("family,rank,k", [("D", 9, 8), ("A", 5, 3)])
def test_cell_summands_cut_each_cell_in_order(monkeypatch, rows, family, rank, k):
    if rows is not None:
        monkeypatch.setattr(qsystem.table, "_BLOCK_ROWS", rows)
    bound = qsystem.table._BLOCK_ROWS
    d = build_dynkin(family, rank)
    for a, m in _cells(d, k + d.coxeter):
        blocks = _cell_blocks(a, m, k, d)
        assert all(0 < len(b) <= bound for b in blocks), (a, m)
        want = affinize(kr_decompose(a, m, d).terms, k, d)
        assert np.array_equal(np.concatenate(blocks), want), (a, m)
    for a in range(1, d.rank + 1):  # a node's packed blocks hold its cells' pieces in order
        packed = list(node_summands(a, range(k + d.coxeter + 1), k, d))
        assert all(0 < len(b) <= bound and sum(n for _, n in runs) == len(b) for b, runs in packed)
        pieces = [(m, b) for m in range(k + d.coxeter + 1) for b in _cell_blocks(a, m, k, d)]
        assert [run for _, runs in packed for run in runs] == [(m, len(b)) for m, b in pieces]
        assert np.array_equal(np.concatenate([b for b, _ in packed]),
                              np.concatenate([b for _, b in pieces])), a


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from("AD"))
def test_node_summands_match_decompositions(data, family):
    d = build_dynkin(family, data.draw(st.integers(1, 6) if family == "A" else st.integers(4, 8)))
    k = data.draw(st.integers(1, 5))
    a = data.draw(st.integers(1, d.rank))
    lo = data.draw(st.integers(0, k + d.coxeter))
    ms = range(lo, data.draw(st.integers(lo, min(lo + 6, k + d.coxeter))) + 1)  # may be one cell
    for bound in (1, 7, 2**11):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsystem.table, "_BLOCK_ROWS", bound)
            packed = list(node_summands(a, ms, k, d))
        assert all(0 < len(b) <= bound and sum(n for _, n in runs) == len(b) for b, runs in packed)
        # greedy packing: a block's first piece did not fit in the block before it
        assert all(len(b) + runs[0][1] > bound for (b, _), (_, runs) in zip(packed, packed[1:]))
        runs = [run for _, block_runs in packed for run in block_runs]
        assert [m for m, _ in runs] == sorted(m for m, _ in runs)
        # a cell is cut only where its next piece would not fit with the one before
        assert all(n + n2 > bound for (m, n), (m2, n2) in zip(runs, runs[1:]) if m == m2)
        rows = np.concatenate([b for b, _ in packed])
        ends = np.cumsum([n for _, n in runs])
        cells = {}
        for (m, _), piece in zip(runs, np.split(rows, ends[:-1])):
            cells.setdefault(m, []).append(piece)
        assert list(cells) == list(ms)
        for m, pieces in cells.items():
            want = affinize(kr_decompose(a, m, d).terms, k, d)
            assert np.array_equal(np.concatenate(pieces), want), (bound, m)


@pytest.mark.parametrize("rank,k", [(16, 40), (20, 20)])
def test_packed_key_past_int64(rank, k):
    d = build_dynkin("D", rank)
    assert np.prod([float(k // mark + 1) for mark in d.marks]) > 2**63  # the key is re-ranked
    assert _survivors(k, d, 3, _tops(d)) == survivors_chunked(_cells(d, 3), k, d)


@settings(max_examples=200, deadline=None)
@given(radices=st.lists(st.integers(1, 2**40), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
def test_rank_rows_matches_unique(radices, seed, n):
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.integers(0, radix, n) for radix in radices], axis=1)
    rows[n // 2:] = rows[:n - n // 2]  # repeat rows
    uniq, inverse = _rank_rows(rows, radices)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(uniq, want) and np.array_equal(inverse, want_inverse.ravel())


def _stars_and_bars_memoised(total, parts, rows):
    """``stars_and_bars(total, parts)`` under a bound of ``rows`` from an empty
    memo, and the rows of each array that ``_whole`` returns, so memoises."""
    whole, memoised = qsystem.table._whole, []

    def recorded(*args):
        out = whole(*args)
        memoised.append(len(out))
        return out

    whole.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsystem.table, "_BLOCK_ROWS", rows)
        patch.setattr(qsystem.table, "_whole", recorded)
        got = stars_and_bars(total, parts)
    return got, memoised


@pytest.mark.parametrize("total,parts,rows", [(9, 2, 3), (9, 4, 7), (12, 5, 40), (0, 3, 1)])
def test_head_groups_cut_stars_and_bars(total, parts, rows):
    # heads are fixed until the rest fits `rows` rows, and only such rests are memoised
    got, memoised = _stars_and_bars_memoised(total, parts, rows)
    assert got.tolist() == [list(c) for c in compositions(total, parts)]
    assert 0 < max(memoised) <= rows


@settings(max_examples=60, deadline=None)
@given(total=st.integers(0, 12), parts=st.integers(1, 6))
def test_stars_and_bars_match_oracle(total, parts):
    want = [list(c) for c in compositions(total, parts)]
    for rows in (1, 7, 2**11):  # one row per memoised block; a few rows; the real bound
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsystem.table, "_BLOCK_ROWS", rows)
            assert stars_and_bars(total, parts).tolist() == want, rows


def test_stars_and_bars_memoises_only_blocks():
    # 324,632 rows of 6 parts (15.6 MB) are built whole; no memoised array exceeds one block
    bound = qsystem.table._BLOCK_ROWS
    got, memoised = _stars_and_bars_memoised(30, 6, bound)
    assert len(got) == comb(35, 5) and (got >= 0).all() and (got.sum(1) == 30).all()
    step = got[:-1] - got[1:]  # lexicographically descending: each first nonzero step is > 0
    assert (step[np.arange(len(step)), (step != 0).argmax(1)] > 0).all()
    assert max(memoised) <= bound


def _chain_signs(top, m_max, k, d):
    """Every weight of the chain at ``top`` and its sign from the reducer."""
    rows = stars_and_bars(m_max, (top + 1) // 2 + 1)
    return rows, reduce_to_alcove(affinize(_chain_weights(top, rows, d.rank), k, d), d).sign


def _class_sums(top, comps, weights, k, d):
    """The weights of chain rows summed by (representative, highest nonzero
    position, slack), the keys of the sums that are not 0."""
    p = (top + 1) // 2
    reps = reduce_to_alcove(affinize(_chain_weights(top, comps, d.rank), k, d), d).rep
    nonzero = comps[:, :p] != 0
    position = np.where(nonzero.any(1), nonzero.argmax(1), p - 1)
    keys = zip(map(tuple, reps.tolist()), position.tolist(), comps[:, p].tolist())
    sums = {}
    for key, w in zip(keys, weights.tolist()):
        sums[key] = sums.get(key, 0) + w
    return {key: w for key, w in sums.items() if w}


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(4, 11), k=st.integers(1, 10), data=st.data())
def test_chain_walk_matches_chunked_oracle(rank, k, data):
    # the merged prefix states, expanded one child per run, in runs of 7 and at the real
    # bound, give the survivors of every summand reduced on its own
    d = build_dynkin("D", rank)
    limit, total = 0, 0
    for m in range(k + d.coxeter + 4):
        total += sum(kr_term_count(a, m, d) for a in range(1, rank + 1))
        if total > ORACLE_SUMMANDS:
            break
        limit = m
    m_max = data.draw(st.integers(0, limit), label="m_max")
    want = survivors_chunked(_cells(d, m_max), k, d, chunk_rows=97)
    for bound in (1, 7, 2**11):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsystem.table, "_BLOCK_ROWS", bound)
            assert _survivors(k, d, m_max, _tops(d)) == want, bound


@pytest.mark.parametrize("rank,k", [(5, 125), (6, 130)])
def test_live_blocks_past_64_residues(rank, k):
    # N = k + h = 133 and 140: the folded residues run past 63, beyond one int64 bitmask
    d = build_dynkin("D", rank)
    for top in (rank - 2, rank - 3):
        rows, sign = _chain_signs(top, k + d.coxeter, k, d)
        comps, _, weight = _chain_states(top, k + d.coxeter, k, d)
        assert _class_sums(top, comps, weight, k, d) == _class_sums(top, rows, sign, k, d), top
        if (rank, top) == (5, 3):
            assert np.count_nonzero(sign) == 8_439  # residues up to 66: bits an int64 mask loses


def test_live_blocks_stream():
    # the D13k13 top chain: 6,096,454 weights, 290,547 of them live (15.5 MiB as 7 int64
    # parts), merge into 1,849 states, each depth expanded in runs of _BLOCK_ROWS children
    tracemalloc.start()
    try:
        comps, _, _ = _chain_states(11, 37, 13, build_dynkin("D", 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(comps) == 1_849
    assert peak < 8 * 2**20


def test_live_blocks_log_each_chain(caplog):
    with caplog.at_level(logging.DEBUG, logger="qsystem.table"):
        build_qtable(build_dynkin("D", 9), 8)
    records = [r.args for r in caplog.records if r.name == "qsystem.table"]
    assert [(top, weights) for top, weights, _, _ in records] == [(7, 20_475), (6, 2_925)]
    assert [states for _, _, states, _ in records] == [[21, 95, 167, 196], [19, 77, 113]]
    assert all(states[-1] == live for _, _, states, live in records)


# --- serialization ---------------------------------------------------------------

def test_json_round_trip(d5_table):
    back = qtable_from_json(qtable_to_json(d5_table))
    assert back == d5_table  # a table is its header and cells


def _provenance_span(text, a, m):
    """The offsets of cell (a, m)'s provenance rows in a JSON text of the writer's."""
    start = text.index('"provenance": [', text.index(f'\n   "a": {a},\n   "m": {m},\n'))
    return start + len('"provenance": ['), text.index("\n   ]\n  }", start)


def test_json_tampered_provenance_names_the_cell(d5_table):
    text = qtable_to_json(d5_table)
    start, end = _provenance_span(text, 3, 5)
    at = text.index("\n    ]", start) - 1  # the last digit of the first row's last integer
    bad = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    assert at < end
    with pytest.raises(ValueError, match=r"cell \(3, 5\): provenance differs"):
        qtable_from_json(bad)


def test_json_missing_cell_or_cut_text_raises(d5_table):
    text = qtable_to_json(d5_table)
    head = text.index('\n  {\n   "a": 2,\n   "m": 7,')
    after = text.index('\n  {\n   "a": 2,\n   "m": 8,')
    with pytest.raises(ValueError, match=r"cell \(2, 8\) stands where the writer puts \(2, 7\)"):
        qtable_from_json(text[:head - 1] + text[after - 1:])  # the comma before each head
    with pytest.raises(ValueError):
        qtable_from_json(text[:after - 1])  # ends after cell (2, 7)


def test_json_other_layouts_and_precisions_load_their_content(d5_table, monkeypatch):
    assert qtable_from_json(json.dumps(json.loads(qtable_to_json(d5_table)), indent=2)) == d5_table
    # numerics are content: a table written at 64 bits reads at 128 as its numeric strings
    monkeypatch.setenv("QSYS_PRECISION_BITS", "64")
    text = qtable_to_json(build_qtable(build_dynkin("D", 6), 4))
    monkeypatch.delenv("QSYS_PRECISION_BITS")
    back = qtable_from_json(text)
    assert back == qtable_from_json_loads(text) and qtable_to_json(back) != text


def test_json_at_another_precision_is_read_in_place(monkeypatch):
    # a 64-bit D9k8 read at 128 bits: the writer's pieces with the numerics of its heads are its
    # bytes, so nothing is parsed whole; tampered provenance still names its cell
    monkeypatch.setenv("QSYS_PRECISION_BITS", "64")
    text = qtable_to_json(build_qtable(build_dynkin("D", 9), 8))
    monkeypatch.delenv("QSYS_PRECISION_BITS")
    want = qtable_from_json_loads(text)

    def refused(*args, **kwargs):
        raise AssertionError("json.loads called on a text in the writer's layout")

    with monkeypatch.context() as patch:
        patch.setattr(qsystem.io.json, "loads", refused)
        assert qtable_from_json(text) == want
    start, _ = _provenance_span(text, 7, 3)
    at = text.index("\n    ]", start) - 1
    with pytest.raises(ValueError, match=r"cell \(7, 3\): provenance differs"):
        qtable_from_json(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])


def _refuse_loads(patch):
    def refused(*args, **kwargs):
        raise AssertionError("json.loads called on a text in the writer's layout")

    patch.setattr(qsystem.io.json, "loads", refused)


def test_json_tampered_writer_text_is_rejected_in_place(d10k10_table, monkeypatch):
    # the last row of the largest cell (35,960 rows): the in-place comparison itself names it
    text = qtable_to_json(d10k10_table)
    _, end = _provenance_span(text, 8, 28)
    at = end - len("\n    ]") - 1
    _refuse_loads(monkeypatch)
    with pytest.raises(ValueError, match=r"cell \(8, 28\): provenance differs"):
        qtable_from_json(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])


def test_json_respelled_numeric_loads_equal(d5_table, monkeypatch):
    # cells of one value spelled two ways: each cell keeps the spelling of its own head
    text = qtable_to_json(d5_table)
    assert text.count('"numeric": "1.0",') > 1
    _refuse_loads(monkeypatch)
    assert qtable_from_json(text.replace('"numeric": "1.0",', '"numeric": "1.00",', 1)) == d5_table


def test_json_writer_header_holds_the_writer_layout(d5_table):
    # valid JSON of the same content, but a text that opens with the writer's header is compared
    # with the writer's bytes: a re-indented cell, or only its rows, is named
    text = qtable_to_json(d5_table)
    head = text.index('\n  {\n   "a": 3,\n   "m": 5,')
    start, end = _provenance_span(text, 3, 5)
    cell_end = text.index("\n  }", end) + len("\n  }")
    for lo, hi, why in [(head, cell_end, r"where the writer puts \(3, 5\)"),
                        (start, end, r"cell \(3, 5\): provenance differs")]:
        bad = text[:lo] + text[lo:hi].replace("\n", "\n ") + text[hi:]
        assert qtable_from_json_loads(bad) == d5_table
        with pytest.raises(ValueError, match=why):
            qtable_from_json(bad)



def test_json_header_unlike_the_writer_s_is_named(d5_table):
    # a rank spelled 05 in the writer's layout, or as a string in other JSON, is not the writer's
    text = qtable_to_json(d5_table)
    for bad in (text.replace('"rank": 5,', '"rank": 05,', 1),
                json.dumps({**json.loads(text), "rank": "5"})):
        with pytest.raises(ValueError, match="the header differs from the writer's"):
            qtable_from_json(bad)


@pytest.mark.parametrize("old,new,why", [
    ('"h": 8,', '"h": 99,', r"h = 99 is not the Coxeter number of D5"),
    ('"a": 3,\n   "m": 5,\n   "exact": 0,', '"a": 3,\n   "m": 5,\n   "exact": 12345,',
     r"cell \(3, 5\): exact tag 12345"),
    ('"a": 1,\n   "m": 4,\n   "exact": 1,\n   "numeric": "1.0"',
     '"a": 1,\n   "m": 4,\n   "exact": 1,\n   "numeric": "2"',
     r"cell \(1, 4\): exact tag 1 with numeric 2"),
], ids=["h", "tag", "tagged-numeric"])
def test_json_header_and_tags_are_checked(d5_table, old, new, why):
    # the provenance is the writer's, but h is not the diagram's, a tag is not -1, 0 or 1, or a
    # tagged numeric is not its tag: in the writer's layout and in other JSON alike
    text = qtable_to_json(d5_table)
    assert text.count(old) == 1
    bad = text.replace(old, new)
    for layout in (bad, json.dumps(json.loads(bad), sort_keys=True)):
        with pytest.raises(ValueError, match=why):
            qtable_from_json(layout)


def test_json_untagged_numeric_is_read_as_written(d5_table):
    # only the tags are checked against their numerics: a generic cell's value is content
    text = qtable_to_json(d5_table)
    generic = next(cell for cell, value in d5_table.cells.items() if value.exact is None)
    head = f'"a": {generic[0]},\n   "m": {generic[1]},\n   "exact": null,\n   "numeric": "'
    at = text.index(head) + len(head)
    back = qtable_from_json(text[:at] + "7" + text[text.index('"', at):])
    assert back.cells[generic].numeric == 7 and back.cells[generic].exact is None


@pytest.mark.parametrize("first", [True, False], ids=["first-cell", "last-cell"])
def test_json_difference_names_first_and_last_cell(d5_table, first):
    # the cell that differs is the one whose head is the last before the difference
    text = qtable_to_json(d5_table)
    cell = (1, 0) if first else (5, d5_table.m_max)
    start, end = _provenance_span(text, *cell)
    at = (text.index("\n    ]", start) if first else end - len("\n    ]")) - 1
    bad = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    why = rf"^cell \({cell[0]}, {cell[1]}\): provenance differs from the writer's$"
    for layout in (bad, json.dumps(json.loads(bad), sort_keys=True)):
        with pytest.raises(ValueError, match=why):
            qtable_from_json(layout)


def _cells_edited(table, edit):
    data = json.loads(qtable_to_json(table))
    edit(data["cells"][3])
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    "[]", "null", '{"cells": 5}', "{}", '"cells"', '{"family": "D", "rank": 5, "cells": []}',
    lambda table: _cells_edited(table, lambda cell: cell.update(a=None)),
    lambda table: _cells_edited(table, lambda cell: cell.pop("provenance")),
    lambda table: _cells_edited(table, lambda cell: cell.update(numeric=[1])),
    lambda table: _cells_edited(table, lambda cell: cell.update(exact="x")),
    lambda table: _cells_edited(table, lambda cell: cell.update(m=float("inf"))),
], ids=["list", "null", "cells-5", "empty", "string", "no-level", "a-null", "no-provenance",
        "numeric-list", "exact-text", "m-infinity"])
def test_json_malformed_data_raises_value_error(d5_table, text):
    with pytest.raises(ValueError):  # never KeyError, TypeError or OverflowError
        qtable_from_json(text(d5_table) if callable(text) else text)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), family=st.sampled_from("AD"))
def test_json_reader_matches_loads(data, family):
    # D4-D9 and A1-A8 at levels 1-6, m_max from 0 to the default + 2, read in pieces cut after
    # every run, within cells, or at the library's bound, as written and as a sort_keys dump;
    # one digit of a provenance row changed
    d = build_dynkin(family, data.draw(st.integers(4, 9) if family == "D" else st.integers(1, 8)))
    k = data.draw(st.integers(1, 6))
    table = build_qtable(d, k, data.draw(st.integers(0, k + d.coxeter + 2), label="m_max"))
    text = qtable_to_json(table)
    want = qtable_from_json_loads(text)
    a, m = data.draw(st.sampled_from(sorted(table.cells)), label="cell")
    start, end = _provenance_span(text, a, m)
    at = data.draw(st.sampled_from([i for i in range(start, end) if text[i].isdigit()]), label="at")
    digit = data.draw(st.sampled_from("0123456789".replace(text[at], "")), label="digit")
    bad = text[:at] + digit + text[at + 1:]
    # the same content dumped with sorted keys: compared without whitespace in the writer's order
    other, other_bad = (json.dumps(json.loads(t), sort_keys=True) for t in (text, bad))
    for rows in (1, 7, 2**11):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsystem.table, "_BLOCK_ROWS", rows)
            assert qtable_from_json(text) == want
            with pytest.raises(ValueError):
                qtable_from_json(bad)
            assert qtable_from_json(other) == want
            with pytest.raises(ValueError, match=rf"cell \({a}, {m}\): provenance differs"):
                qtable_from_json(other_bad)


JSON_GRID = ([("D", r, k) for r in range(4, 9) for k in range(1, 7)]
             + [("A", r, k) for r in range(1, 6) for k in range(1, 6)])


def test_json_matches_dict_dump(monkeypatch):
    for family, rank, k in JSON_GRID:
        table = build_qtable(build_dynkin(family, rank), k)
        want = json.dumps(qtable_to_dict(table), indent=1)
        # a piece per run; cells cut across pieces; the whole table in one piece
        for rows in (1, 7, 2**20):
            monkeypatch.setattr(qsystem.table, "_BLOCK_ROWS", rows)
            assert_same_text(qtable_to_json(table), want, (family, rank, k, rows))


@pytest.mark.parametrize("family,rank,k,bits", [("D", 9, 8, 128), ("A", 12, 12, 64),
                                                ("A", 12, 12, 512), ("D", 7, 5, 64),
                                                ("D", 8, 3, 512)])
def test_json_matches_dict_dump_past_grid(monkeypatch, family, rank, k, bits):
    # on A the zeroth column of cell (a, k) is 0, the least column 0 of the table
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    d = build_dynkin(family, rank)
    table = build_qtable(d, k)
    assert_same_text(qtable_to_json(table), json.dumps(qtable_to_dict(table), indent=1))
    if family == "A":
        assert not _cell_blocks(1, k, k, d)[0][:, 0].any()


JSON_SUMMANDS = 20_000  # provenance rows the dict oracle writes per example, at most


@settings(max_examples=40, deadline=None)
@given(data=st.data(), family=st.sampled_from("AD"))
def test_json_chunks_match_dict_dump(data, family):
    # D4-D11 and A1-A8 at levels 1-8, m_max from 0 to the default + 2 as far as the oracle's
    # row cap allows; pieces cut after every run, within cells, or never
    d = build_dynkin(family, data.draw(st.integers(4, 11) if family == "D" else st.integers(1, 8)))
    k = data.draw(st.integers(1, 8))
    total, limit = 0, 0
    for m in range(k + d.coxeter + 3):
        total += sum(kr_term_count(a, m, d) for a in range(1, d.rank + 1))
        if total > JSON_SUMMANDS:
            break
        limit = m
    table = build_qtable(d, k, data.draw(st.integers(0, limit), label="m_max"))
    want = json.dumps(qtable_to_dict(table), indent=1)
    for rows in (1, 7, 2**20):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsystem.table, "_BLOCK_ROWS", rows)
            got = "".join(qtable_json_chunks(table))
        assert_same_text(got, want, rows)


@pytest.fixture(scope="module")
def d10k10_table():
    return build_qtable(build_dynkin("D", 10), 10)


@pytest.mark.parametrize("rows", [1, 7, 2**11])
def test_json_chunks_hold_block_rows_and_one_run(monkeypatch, d10k10_table, rows):
    # a piece is yielded once the pending rows reach the bound: all but the last hold at
    # least the bound and less than the bound plus the run (one upper chain tuple's rows,
    # at most m_max + 1) that reached it; the pieces join to the bytes the CI pins
    monkeypatch.setattr(qsystem.table, "_BLOCK_ROWS", rows)
    chunks = list(qtable_json_chunks(d10k10_table))
    counts = [chunk.count("\n    [") for chunk in chunks]
    run = d10k10_table.m_max + 1
    assert all(rows <= c < rows + run for c in counts[:-1]) and counts[-1] < rows + run
    d = build_dynkin("D", 10)
    assert sum(counts) == sum(kr_term_count(a, m, d) for a, m in d10k10_table.cells)
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == (
        "052c38df72514a01bff2273e3af9da51050634fb4f9ffe08e85d12fb4dcd2c1b")


@pytest.mark.parametrize("family,rank,k", [("D", 5, 4), ("D", 6, 3), ("A", 3, 3)])
def test_parsed_table_derives_summands_and_survivors(family, rank, k):
    # the parsed header derives each cell's summands and survivors again, and the
    # provenance in the JSON cancels to those survivors
    built = build_qtable(build_dynkin(family, rank), k)
    text = qtable_to_json(built)
    back = qtable_from_json(text)
    d = build_dynkin(back.family, back.rank)
    survivors = _survivors(back.level, d, back.m_max, _tops(d))
    for cell in json.loads(text)["cells"]:
        a, m, provenance = cell["a"], cell["m"], np.array(cell["provenance"], dtype=np.int64)
        assert np.array_equal(np.concatenate(_cell_blocks(a, m, back.level, d)), provenance)
        assert _reduce_cell([provenance], d) == survivors[(a, m)], (a, m)


def test_csv_shape(d5_table):
    lines = qtable_to_csv(d5_table).strip().splitlines()
    assert lines[0] == "a,m,value,exact_tag"
    assert len(lines) == 1 + 5 * 13
    assert any(",0" == line[-2:] for line in lines[1:])


def test_text_layout(d5_table):
    text = qtable_to_text(d5_table)
    rows = text.strip().splitlines()
    assert "a=1" in rows[1] and "a=5" in rows[1]
    assert len(rows) == 3 + 13
