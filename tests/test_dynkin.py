import pytest
from hypothesis import given, strategies as st

from qsystem.affine import level_of
from qsystem.dynkin import (RankMismatch, Root, UnsupportedType, build_dynkin,
                            positive_roots)

from oracles import Weight, affinize, dominant_weights, extended_cartan

ALL_DIAGRAMS = [("A", r) for r in range(1, 10)] + [("D", r) for r in range(4, 10)]


def test_d4_basics():
    d = build_dynkin("D", 4)
    assert d.coxeter == 6
    assert d.marks == (1, 1, 2, 1, 1)
    # central node 2 carries all three finite edges
    assert d.adjacency[1] == (1, 0, 1, 1)


def test_a1_basics():
    d = build_dynkin("A", 1)
    assert d.coxeter == 2
    assert d.cartan == ((2,),)
    assert extended_cartan(d) == ((2, -2), (-2, 2))


def test_d5_marks_and_affine_node():
    d = build_dynkin("D", 5)
    assert d.marks == (1, 1, 2, 2, 1, 1)
    # node 0 pairs with node 2 only
    assert extended_cartan(d)[0] == (2, 0, -1, 0, 0, 0)


@pytest.mark.parametrize("family,rank", ALL_DIAGRAMS)
def test_mark_sum_is_coxeter(family, rank):
    d = build_dynkin(family, rank)
    assert sum(d.marks) == d.coxeter
    expected = rank + 1 if family == "A" else 2 * rank - 2
    assert d.coxeter == expected


@pytest.mark.parametrize("family,rank", ALL_DIAGRAMS)
def test_cartan_is_two_id_minus_adjacency(family, rank):
    d = build_dynkin(family, rank)
    for i in range(rank):
        for j in range(rank):
            assert d.cartan[i][j] == 2 * (i == j) - d.adjacency[i][j]
            assert extended_cartan(d)[i + 1][j + 1] == d.cartan[i][j]


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 2, 3), ("A", 5, 15), ("D", 4, 12), ("D", 5, 20), ("D", 8, 56),
])
def test_positive_root_count(family, rank, expected):
    # closure result against the closed-form counts r(r+1)/2 and r(r-1)
    roots = positive_roots(build_dynkin(family, rank))
    assert len(roots) == expected
    assert len(set(roots)) == expected


def test_a2_roots_by_hand():
    roots = positive_roots(build_dynkin("A", 2))
    assert {r.coeffs for r in roots} == {(1, 0), (0, 1), (1, 1)}
    assert sorted(r.height for r in roots) == [1, 1, 2]


@pytest.mark.parametrize("family,rank", ALL_DIAGRAMS)
def test_highest_root_unique(family, rank):
    d = build_dynkin(family, rank)
    tall = [r for r in positive_roots(d) if r.height == d.coxeter - 1]
    assert len(tall) == 1
    assert tall[0].coeffs == d.marks[1:]
    assert all(r.height < d.coxeter for r in positive_roots(d))


@pytest.mark.parametrize("rank", range(4, 9))
def test_d_roots_above_alpha1(rank):
    # The roots containing alpha_1 number exactly h, with every height in
    # 1..h-1 present once and height rank-1 twice.
    d = build_dynkin("D", rank)
    h = d.coxeter
    heights = sorted(r.height for r in positive_roots(d) if r.coeffs[0] > 0)
    assert len(heights) == h
    assert heights == sorted(list(range(1, h)) + [rank - 1])


def dot(weight: Weight, root: Root) -> int:
    """Fundamental weights are dual to the simple roots in the simply laced
    normalisation, so the pairing is a plain dot product."""
    return sum(c * x for c, x in zip(root.coeffs, weight.coords))


def test_pairing_examples():
    d4 = build_dynkin("D", 4)
    theta = Root(d4.marks[1:])
    assert dot(Weight((1,) * 4), theta) == 5  # height of the highest root
    assert dot(Weight((1, 0, 0, 0)), Root((1, 0, 0, 0))) == 1
    assert dot(Weight((0, 1, 0, 0)), Root((1, 0, 0, 0))) == 0


def test_pairing_shifted_multiset_d5():
    # frozen from the height multiset {1..7 once, 4 twice} shifted by 3
    d5 = build_dynkin("D", 5)
    shifted = Weight(tuple(1 + 3 * (i == 0) for i in range(5)))
    got = sorted(dot(shifted, r) for r in positive_roots(d5) if r.coeffs[0] > 0)
    assert got == [4, 5, 6, 7, 7, 8, 9, 10]


def test_rho_pairing_is_height():
    for family, rank in [("A", 4), ("D", 6)]:
        d = build_dynkin(family, rank)
        rho = Weight((1,) * rank)
        assert all(dot(rho, r) == r.height for r in positive_roots(d))


@pytest.mark.parametrize("family,rank", [("E", 6), ("B", 3), ("A", 0), ("D", 3), ("D", 0)])
def test_unsupported(family, rank):
    with pytest.raises(UnsupportedType):
        build_dynkin(family, rank)


def test_rank_mismatch():
    a3 = build_dynkin("A", 3)
    with pytest.raises(RankMismatch):
        affinize(Weight((1, 2)), 1, a3)
    with pytest.raises(RankMismatch):
        level_of((0, 1, 2), a3)


def test_dominant_weights_enumeration():
    d = build_dynkin("D", 4)
    got = list(dominant_weights(d, 1))
    assert Weight((0, 0, 0, 0)) in got
    # marks (1,1,2,1,1): level-1 fundamentals are nodes 1, 3, 4
    assert sorted(w.coords for w in got) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)]
    assert all(w.is_dominant() for w in dominant_weights(d, 3))


@given(st.integers(1, 5), st.integers(0, 8))
def test_dominant_weight_count_a_family(rank, level):
    d = build_dynkin("A", rank)
    from math import comb
    assert sum(1 for _ in dominant_weights(d, level)) == comb(level + rank, rank)
