import logging
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsystem.qdim
from qsystem.affine import reduce_to_alcove
from qsystem.dynkin import build_dynkin
from qsystem.qdim import precision_bits
from qsystem.table import build_qtable

from oracles import (RankTooLarge, Weight, affinize, apply_automorphism,
                     diagram_automorphisms, dominant_weights, orbit_of_zero,
                     qdim, qdim_affine, qdim_oracle, qdim_scalar,
                     shifted_action, weyl_group_order)


def wt(*coords):
    return Weight(tuple(coords))


def test_zero_weight_is_exact_unit():
    for family, rank in [("A", 1), ("A", 3), ("D", 4), ("D", 7)]:
        d = build_dynkin(family, rank)
        for k in (1, 2, 5):
            v = qdim(Weight((0,) * rank), k, d)
            assert v.exact == 1 and v.numeric == 1


def test_a1_level2_fundamental_is_sqrt2():
    d = build_dynkin("A", 1)
    v = qdim(wt(1), 2, d)
    assert v.exact is None
    with mpmath.workprec(precision_bits()):
        assert abs(v.numeric - mpmath.sqrt(2)) < mpmath.mpf(2) ** -100


@pytest.mark.parametrize("family,rank,k", [
    ("A", 3, 2), ("A", 5, 3), ("D", 4, 2), ("D", 5, 3), ("D", 6, 4),
])
def test_level_times_orbit_node_is_unit(family, rank, k):
    d = build_dynkin(family, rank)
    for i in sorted(orbit_of_zero(d) - {0}):
        v = qdim(Weight(tuple(k * (j == i - 1) for j in range(rank))), k, d)
        assert v.exact == 1, (i, v)


@pytest.mark.parametrize("rank", range(4, 8))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_top_row_first_node_is_unit(rank, k):
    d = build_dynkin("D", rank)
    m = k + d.coxeter
    v = qdim(Weight((m,) + (0,) * (rank - 1)), k, d)
    assert v.exact == 1


@pytest.mark.parametrize("rank,expected", [
    (4, 1), (5, 1), (6, -1), (7, -1), (8, 1), (9, 1), (10, -1),
])
def test_top_row_fork_sign_follows_rank_mod_four(rank, expected):
    d = build_dynkin("D", rank)
    for k in (1, 2):
        m = k + d.coxeter
        for tip in (rank - 1, rank):
            v = qdim(Weight(tuple(m * (j == tip - 1) for j in range(rank))), k, d)
            assert v.exact == expected, (rank, k, tip)


def test_first_node_zero_window():
    d5 = build_dynkin("D", 5)
    k = 4
    for m in range(k + 1, k + d5.coxeter):
        v = qdim(wt(m, 0, 0, 0, 0), k, d5)
        assert v.exact == 0 and v.numeric == 0


def test_positivity_of_low_level_dominants():
    for family, rank, k in [("D", 4, 3), ("A", 2, 4), ("D", 5, 2)]:
        d = build_dynkin(family, rank)
        for w in dominant_weights(d, k):
            v = qdim(w, k, d)
            assert v.numeric > 0, (w, v)
            assert v.exact in (None, 1)


@pytest.mark.parametrize("family,rank,k", [
    ("A", 1, 6), ("A", 2, 4), ("D", 4, 3),
])
def test_oracle_agreement(family, rank, k, tol=1e-10):
    d = build_dynkin(family, rank)
    with mpmath.workprec(precision_bits()):
        for w in dominant_weights(d, k):
            direct = qdim(w, k, d).numeric
            assert abs(direct - qdim_oracle(w, k, d)) < tol, w


def test_oracle_example_d4():
    d4 = build_dynkin("D", 4)
    v = qdim(wt(0, 1, 0, 0), 3, d4)
    assert abs(v.numeric - qdim_oracle(wt(0, 1, 0, 0), 3, d4)) < 1e-12


def test_oracle_rejects_large_rank():
    with pytest.raises(RankTooLarge):
        qdim_oracle(Weight((0,) * 12), 2, build_dynkin("A", 12))


def test_weyl_group_orders():
    assert weyl_group_order(build_dynkin("A", 2)) == 6
    assert weyl_group_order(build_dynkin("D", 4)) == 192
    assert weyl_group_order(build_dynkin("D", 5)) == 1920


def _random_affine(rng, dynkin, level):
    classical = Weight(tuple(int(c) for c in rng.integers(-4, 7, dynkin.rank)))
    return affinize(classical, level, dynkin)


def test_sign_equivariance_random():
    d5 = build_dynkin("D", 5)
    rng = np.random.default_rng(7)
    tol = mpmath.mpf(10) ** -12
    for _ in range(100):
        w = _random_affine(rng, d5, 4)
        word = [int(i) for i in rng.integers(0, 6, rng.integers(0, 12))]
        lhs = qdim_affine(shifted_action(word, w, d5), d5).numeric
        rhs = (-1) ** len(word) * qdim_affine(w, d5).numeric
        assert abs(lhs - rhs) < tol


def test_automorphism_invariance_random():
    d5 = build_dynkin("D", 5)
    autos = diagram_automorphisms(d5)
    rng = np.random.default_rng(8)
    tol = mpmath.mpf(10) ** -12
    for _ in range(40):
        w = _random_affine(rng, d5, 4)
        base = qdim_affine(w, d5).numeric
        for p in autos:
            assert abs(qdim_affine(apply_automorphism(p, w), d5).numeric - base) < tol


def test_zero_classification_matches_reduction():
    # exact zero from the residue criterion iff reduction hits a wall
    rng = np.random.default_rng(9)
    for family, rank, level in [("D", 4, 2), ("A", 2, 3)]:
        d = build_dynkin(family, rank)
        for _ in range(300):
            w = _random_affine(rng, d, level)
            assert qdim_affine(w, d).is_zero == reduce_to_alcove(w, d).is_zero


def test_reduction_rep_carries_the_value():
    d5 = build_dynkin("D", 5)
    rng = np.random.default_rng(10)
    tol = mpmath.mpf(10) ** -12
    for _ in range(100):
        w = _random_affine(rng, d5, 3)
        res = reduce_to_alcove(w, d5)
        v = qdim_affine(w, d5)
        if res.is_zero:
            assert v.is_zero
        else:
            assert abs(v.numeric - res.sign * qdim_affine(res.rep, d5).numeric) < tol


def test_precision_env_override(monkeypatch):
    d4 = build_dynkin("D", 4)
    base = qdim(wt(0, 1, 0, 0), 3, d4).numeric
    monkeypatch.setenv("QSYS_PRECISION_BITS", "192")
    assert precision_bits() == 192
    finer = qdim(wt(0, 1, 0, 0), 3, d4).numeric
    with mpmath.workprec(256):
        assert abs(finer - base) < mpmath.mpf(2) ** -100
    monkeypatch.setenv("QSYS_PRECISION_BITS", "12")
    with pytest.raises(ValueError):
        precision_bits()


def test_level_zero_rejected():
    with pytest.raises(ValueError):
        qdim(wt(1), 0, build_dynkin("A", 1))


DIAGRAMS = [("A", r) for r in range(1, 13)] + [("D", r) for r in range(4, 13)]


def _mixed_block(d, k, rnd):
    """Affine rows of four kinds, shuffled: walls ((lambda + rho | alpha_i)
    = 0), images of the zero weight under the shifted action (exact +-1),
    dominant weights of level <= k, and rows with negative coordinates."""
    r = d.rank
    rows = []
    for _ in range(rnd.randint(1, 4)):
        coords = [rnd.randint(0, k) for _ in range(r)]
        coords[rnd.randrange(r)] = -1
        rows.append(affinize(Weight(tuple(coords)), k, d).coords)
    for _ in range(rnd.randint(1, 4)):
        word = [rnd.randrange(r + 1) for _ in range(rnd.randint(0, 12))]
        rows.append(shifted_action(word, affinize(Weight((0,) * r), k, d), d).coords)
    for _ in range(rnd.randint(1, 6)):
        coords = [0] * r
        for _ in range(rnd.randint(1, k)):
            coords[rnd.randrange(r)] += 1
        rows.append(affinize(Weight(tuple(coords)), k, d).coords)
    for _ in range(rnd.randint(1, 6)):
        rows.append(affinize(Weight(tuple(rnd.randint(-2 * k - 5, 2 * k + 5)
                                          for _ in range(r))), k, d).coords)
    rnd.shuffle(rows)
    return np.array(rows, dtype=np.int64)


@given(st.sampled_from(DIAGRAMS), st.integers(1, 12), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_block_matches_scalar_oracle(diagram, k, rnd):
    d = build_dynkin(*diagram)
    rows = _mixed_block(d, k, rnd)
    got = qsystem.qdim.qdim_affine(rows, k, d)
    want = [qdim_scalar(Weight(tuple(row[1:])), k, d) for row in rows.tolist()]
    assert [v.exact for v in got] == [v.exact for v in want]
    assert [v.numeric._mpf_ for v in got] == [v.numeric._mpf_ for v in want]
    assert 0 in [v.exact for v in want] and {1, -1} & {v.exact for v in want}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 7), ("D", 4), ("D", 9)])
def test_block_edges(family, rank):
    d = build_dynkin(family, rank)
    assert qsystem.qdim.qdim_affine(np.zeros((0, rank + 1), dtype=np.int64), 3, d) == []
    for level in (0, -2):
        with pytest.raises(ValueError):
            qsystem.qdim.qdim_affine(np.zeros((1, rank + 1), dtype=np.int64), level, d)


@pytest.mark.parametrize("bits", [64, 128, 512])
@pytest.mark.parametrize("family,rank,k", [("A", 4, 3), ("D", 5, 4), ("D", 7, 3)])
def test_block_memo_repeats_and_opposite_signs(monkeypatch, bits, family, rank, k):
    # repeated rows share their memoised powers, and images of one weight under
    # odd-length shifted-action words have its count row with the opposite sign
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    d = build_dynkin(family, rank)
    rnd = np.random.default_rng(bits + rank)
    generic = [w for w in dominant_weights(d, k) if qdim(w, k, d).exact is None][:6]
    rows = []
    for w in generic:
        row = affinize(w, k, d)
        rows += [row.coords, row.coords]
        for length in (1, 2, 3, 5):
            word = [int(i) for i in rnd.integers(0, rank + 1, length)]
            rows.append(shifted_action(word, row, d).coords)
    block = np.array(rows, dtype=np.int64)[rnd.permutation(len(rows))]
    got = qsystem.qdim.qdim_affine(block, k, d)
    want = [qdim_scalar(Weight(tuple(row[1:])), k, d) for row in block.tolist()]
    assert [v.exact for v in got] == [v.exact for v in want]
    assert [v.numeric._mpf_ for v in got] == [v.numeric._mpf_ for v in want]
    numerics = [v.numeric for v in want]
    with mpmath.workprec(bits):
        assert generic and all(-x in numerics for x in numerics)


def _walls_and_units(d, k, rnd):
    """Affine rows on a wall and images of the zero weight (exact +-1), no other."""
    r, rows = d.rank, []
    for _ in range(4):
        coords = [rnd.randint(0, k) for _ in range(r)]
        coords[rnd.randrange(r)] = -1
        rows.append(affinize(Weight(tuple(coords)), k, d).coords)
        word = [rnd.randrange(r + 1) for _ in range(rnd.randint(0, 12))]
        rows.append(shifted_action(word, affinize(Weight((0,) * r), k, d), d).coords)
    return rows


def _one_count_row(d, k, rnd):
    """A generic dominant weight, repeated and under shifted-action words of
    both parities: every row has its count row, with either sign."""
    w = next(w for w in dominant_weights(d, k) if qdim(w, k, d).exact is None)
    row = affinize(w, k, d)
    words = [[rnd.randrange(d.rank + 1) for _ in range(n)] for n in (0, 0, 1, 2, 3, 4)]
    return [shifted_action(word, row, d).coords for word in words]


@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("family,rank,k", [("A", 4, 3), ("D", 5, 4), ("D", 9, 8)])
@pytest.mark.parametrize("make,generic,distinct", [(_walls_and_units, 0, 0),
                                                    (_one_count_row, 6, 1)])
def test_block_edges_match_scalar_oracle(caplog, monkeypatch, bits, family, rank, k,
                                         make, generic, distinct):
    # a block with no generic row leaves np.unique an empty (0, N) matrix; a block
    # whose generic rows share one count row takes one product
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    d = build_dynkin(family, rank)
    block = np.array(make(d, k, random.Random(bits + rank)), dtype=np.int64)
    with caplog.at_level(logging.DEBUG, logger="qsystem.qdim"):
        got = qsystem.qdim.qdim_affine(block, k, d)
    want = [qdim_scalar(Weight(tuple(row[1:])), k, d) for row in block.tolist()]
    assert [v.exact for v in got] == [v.exact for v in want]
    assert [v.numeric._mpf_ for v in got] == [v.numeric._mpf_ for v in want]
    (record,) = caplog.records
    assert record.args[3:5] == (generic, distinct)
    if generic:
        assert {v.exact for v in got} == {None}
        assert len({v.numeric._mpf_ for v in got}) == 2  # one magnitude, both signs
    else:
        assert {v.exact for v in got} >= {0} and None not in {v.exact for v in got}


def test_block_logs_its_distinct_work(caplog):
    # D9k8's 151 generic rows have 92 distinct count rows and 64 distinct (q, count)
    with caplog.at_level(logging.DEBUG, logger="qsystem.qdim"):
        build_qtable(build_dynkin("D", 9), 8)
    (record,) = [r for r in caplog.records if r.name == "qsystem.qdim"]
    assert record.getMessage() == ("155 rows: 0 zero, 4 exact, 151 generic, "
                                   "92 distinct count rows, 64 powers")
