from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qsystem.affine
from qsystem.affine import AffineWeight, coordinate_limit, level_of, reduce_to_alcove
from qsystem.dynkin import build_dynkin

from oracles import (IterationCapExceeded, Weight, affinize, apply_automorphism,
                     diagram_automorphisms, extended_cartan, is_dominant,
                     orbit_of_zero, reduce_to_alcove_full_row,
                     reduce_to_alcove_greedy, reflect, shifted_action)


def aw(dynkin, level, *classical):
    return affinize(Weight(tuple(classical)), level, dynkin)


def test_affinize_zero_weight():
    d = build_dynkin("D", 4)
    assert aw(d, 3, 0, 0, 0, 0).coords == (3, 0, 0, 0, 0)


def test_affinize_uses_marks():
    d5 = build_dynkin("D", 5)
    assert aw(d5, 4, 0, 3, 0, 0, 0).coords == (-2, 0, 3, 0, 0, 0)


@pytest.mark.parametrize("a", [1, 4, 5])
@pytest.mark.parametrize("m", range(0, 8))
def test_affinize_tip_nodes(a, m):
    # tips carry mark 1, so the zeroth coordinate is k - m
    d5 = build_dynkin("D", 5)
    coords = tuple(m * (i == a - 1) for i in range(5))
    assert affinize(Weight(coords), 4, d5).coords[0] == 4 - m


coords_st = st.lists(st.integers(-6, 6), min_size=5, max_size=5).map(tuple)


@given(coords_st, st.integers(1, 6))
def test_affinize_level_invariant(classical, level):
    d5 = build_dynkin("D", 5)
    w = affinize(Weight(classical), level, d5)
    assert level_of(w.coords, d5) == level


@given(coords_st, st.integers(1, 6), st.integers(0, 5))
def test_reflect_involution_and_level(classical, level, node):
    d5 = build_dynkin("D", 5)
    w = affinize(Weight(classical), level, d5)
    once = reflect(node, w, d5)
    assert level_of(once.coords, d5) == level
    assert reflect(node, once, d5) == w


def test_reflect_fixes_zero_coordinate():
    d4 = build_dynkin("D", 4)
    w = AffineWeight(2, (0, 2, 0, 0, 0))
    assert reflect(0, w, d4) == w


def test_shifted_action_empty_word():
    d4 = build_dynkin("D", 4)
    w = aw(d4, 2, 1, 0, 0, 1)
    assert shifted_action((), w, d4) == w


def test_shifted_zero_reflection_identity():
    # s_0 sends (..., k_2, -2) to (..., k_2 - 1, 0) under the shifted action
    d6 = build_dynkin("D", 6)
    w = AffineWeight(4, (-2, 0, 0, 0, 3, 0, 0))
    out = shifted_action((0,), w, d6)
    assert out.coords == (0, 0, -1, 0, 3, 0, 0)


def test_shifted_fixed_points():
    d6 = build_dynkin("D", 6)
    # zeroth coordinate -1 is fixed by s_0
    w = AffineWeight(5, (-1, 0, 1, 0, 2, 0, 0))
    assert level_of(w.coords, d6) == 5
    assert shifted_action((0,), w, d6) == w
    # (..., k_2 = 0, -2) is fixed by s_0 s_2 s_0
    v = AffineWeight(4, (-2, 0, 0, 0, 3, 0, 0))
    assert shifted_action((0, 2, 0), v, d6) == v


def test_reduce_dominant_is_identity():
    d5 = build_dynkin("D", 5)
    for w in [aw(d5, 4, 1, 0, 0, 0, 0), aw(d5, 4, 0, 0, 1, 0, 0),
              aw(d5, 4, 3, 0, 0, 0, 0)]:
        assert is_dominant(w)
        res = reduce_to_alcove(w, d5)
        assert res.rep == w and res.sign == 1


def test_reduce_wall_entry_is_zero():
    d5 = build_dynkin("D", 5)
    w = AffineWeight(4, (-1, 1, 2, 0, 0, 0))
    assert level_of(w.coords, d5) == 4
    assert reduce_to_alcove(w, d5).is_zero


def test_reduce_sign_flip_onto_interior_representative():
    # 3*omega_2 at level 4 lands on 2*omega_2-hat with one sign flip
    d5 = build_dynkin("D", 5)
    res = reduce_to_alcove(aw(d5, 4, 0, 3, 0, 0, 0), d5)
    assert not res.is_zero
    assert res.rep.coords == (0, 0, 2, 0, 0, 0)
    assert res.sign == -1


def test_reduce_cap():
    d5 = build_dynkin("D", 5)
    with pytest.raises(IterationCapExceeded):
        reduce_to_alcove_greedy(aw(d5, 4, 12, 0, 0, 0, 0), d5, cap=2)


DIAGRAMS = [("A", r) for r in range(1, 13)] + [("D", r) for r in range(4, 13)]


@st.composite
def diagram_weights(draw):
    """(family, rank, level, classical coordinates): within +-(3 level + 5),
    or within +-6N where N = level + h is the shifted level."""
    family, rank = draw(st.sampled_from(DIAGRAMS))
    level = draw(st.integers(1, 12))
    shifted = level + build_dynkin(family, rank).coxeter
    bound = draw(st.sampled_from([3 * level + 5, 6 * shifted]))
    classical = draw(st.lists(st.integers(-bound, bound), min_size=rank, max_size=rank))
    return family, rank, level, tuple(classical)


def _outcome(res):
    return None if res.is_zero else (res.rep, res.sign)


@given(diagram_weights())
@example(("A", 1, 3, (7,)))  # A1: the extended Cartan matrix has -2 off the diagonal
@example(("A", 1, 2, (-6,)))
@example(("D", 12, 12, (41, -41) * 6))
@example(("D", 5, 4, (0, 3, 0, 1, 0)))  # odd mu_4 + mu_5: half-integral epsilon
@example(("D", 6, 3, (-7, 2, 0, 5, -3, 0)))
@example(("A", 12, 12, (150,) * 12))  # coordinates near 6N
@settings(max_examples=600, deadline=None)
def test_reduce_matches_full_row_oracle(case):
    family, rank, level, classical = case
    d = build_dynkin(family, rank)
    w = affinize(Weight(classical), level, d)
    got = _outcome(reduce_to_alcove(w, d))
    assert got == _outcome(reduce_to_alcove_greedy(w, d))
    assert got == _outcome(reduce_to_alcove_full_row(w, d))


@given(st.sampled_from(DIAGRAMS), st.integers(1, 12), st.integers(0, 40), st.randoms())
@settings(max_examples=60, deadline=None)
def test_block_matches_rows(diagram, level, n, rnd):
    d = build_dynkin(*diagram)
    bound = 3 * level + 5
    block = qsystem.affine.affinize(np.array([[rnd.randint(-bound, bound) for _ in range(d.rank)]
                               for _ in range(n)], dtype=np.int64).reshape(n, d.rank), level, d)
    res = reduce_to_alcove(block, d)
    assert res.rep.shape == (n, d.rank + 1) and res.sign.shape == (n,)
    for row, rep, sign in zip(block.tolist(), res.rep.tolist(), res.sign.tolist()):
        one = reduce_to_alcove(AffineWeight(level, tuple(row)), d)
        assert sign == one.sign
        if sign:
            assert tuple(rep) == one.rep.coords


@pytest.mark.parametrize("family,rank,level", [("D", 5, 4), ("D", 8, 3), ("A", 1, 2), ("A", 6, 5)])
def test_reduce_near_the_int64_limit(family, rank, level):
    # adding a multiple of N alpha_1 (a row of the extended Cartan matrix)
    # to lambda + rho is a translation in the affine Weyl group, so it keeps
    # the representative and the sign; beyond coordinate_limit the
    # reduction refuses
    d = build_dynkin(family, rank)
    step = [(level + d.coxeter) * c for c in extended_cartan(d)[1]]
    limit = coordinate_limit(d)
    for classical in [(3,) + (0,) * (rank - 1), (1,) * rank, (-2,) + (1,) * (rank - 1)]:
        small = affinize(Weight(classical), level, d)
        t = limit // max(map(abs, step)) - 2
        big = AffineWeight(level, tuple(c + t * s for c, s in zip(small.coords, step)))
        assert level_of(big.coords, d) == level and max(map(abs, big.coords)) <= limit
        assert _outcome(reduce_to_alcove(big, d)) == _outcome(reduce_to_alcove(small, d))
    over = AffineWeight(level, (-limit - 1 + level, limit + 1) + (0,) * (rank - 1))
    with pytest.raises(OverflowError):
        reduce_to_alcove(over, d)
    with pytest.raises(OverflowError):
        reduce_to_alcove(AffineWeight(level, (level - 10**20, 10**20) + (0,) * (rank - 1)), d)


@given(coords_st, st.integers(1, 5),
       st.lists(st.integers(0, 5), min_size=0, max_size=30))
@settings(max_examples=200)
def test_reduce_commutes_with_shifted_action(classical, level, word):
    d5 = build_dynkin("D", 5)
    w = affinize(Weight(classical), level, d5)
    moved = shifted_action(word, w, d5)
    r1 = reduce_to_alcove(w, d5)
    r2 = reduce_to_alcove(moved, d5)
    if r1.is_zero:
        assert r2.is_zero
    else:
        assert r2.rep == r1.rep
        assert r2.sign == r1.sign * (-1) ** len(word)


def _brute_force_automorphisms(dynkin):
    c = extended_cartan(dynkin)
    n = dynkin.rank + 1
    out = []
    for p in permutations(range(n)):
        if all(c[p[i]][p[j]] == c[i][j] for i in range(n) for j in range(n)):
            out.append(p)
    return sorted(out)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5), ("D", 6),
])
def test_automorphisms_match_brute_force(family, rank):
    d = build_dynkin(family, rank)
    assert list(diagram_automorphisms(d)) == _brute_force_automorphisms(d)


@pytest.mark.parametrize("family,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 8), ("A", 7, 16),
    ("D", 4, 24), ("D", 5, 8), ("D", 6, 8), ("D", 8, 8),
])
def test_automorphism_group_order(family, rank, order):
    # dihedral of order 2(r+1) for the A cycle (r >= 2), order 8 for the
    # doubly forked D diagram (r >= 5), S_4 for the D_4 star
    assert len(diagram_automorphisms(build_dynkin(family, rank))) == order


@pytest.mark.parametrize("rank", range(5, 9))
def test_d_contains_double_swap(rank):
    d = build_dynkin("D", rank)
    swap = list(range(rank + 1))
    swap[0], swap[1] = 1, 0
    swap[rank - 1], swap[rank] = rank, rank - 1
    assert tuple(swap) in diagram_automorphisms(d)
    # the plain 0 <-> 1 exchange is one as well
    single = list(range(rank + 1))
    single[0], single[1] = 1, 0
    assert tuple(single) in diagram_automorphisms(d)


def test_orbit_of_zero():
    assert orbit_of_zero(build_dynkin("A", 1)) == {0, 1}
    assert orbit_of_zero(build_dynkin("A", 4)) == {0, 1, 2, 3, 4}
    for rank in range(4, 9):
        assert orbit_of_zero(build_dynkin("D", rank)) == {0, 1, rank - 1, rank}


@given(coords_st, st.integers(1, 5))
def test_automorphisms_preserve_level(classical, level):
    d5 = build_dynkin("D", 5)
    w = affinize(Weight(classical), level, d5)
    for p in diagram_automorphisms(d5):
        assert level_of(apply_automorphism(p, w).coords, d5) == level
