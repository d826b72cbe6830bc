import mpmath
import numpy as np
import pytest

from qsystem.dynkin import build_dynkin
from qsystem.qdim import precision_bits
from qsystem.recurrence import terms


def power_form(q, adj):
    """The terms with the neighbour product written as prod_b Q_b^adj[a,b]."""
    mid = q[:, 1:-1]
    return mid**2, (mid ** adj[:, :, None]).prod(axis=1), q[:, :-2] * q[:, 2:]


@pytest.mark.parametrize("family,rank,k", [
    ("A", 1, 2), ("A", 1, 5), ("A", 2, 3), ("A", 6, 7),
    ("D", 4, 2), ("D", 5, 4), ("D", 8, 6), ("D", 12, 12),
])
def test_neighbour_product_matches_power_form_bit_for_bit(family, rank, k):
    d = build_dynkin(family, rank)
    rng = np.random.default_rng(100 * rank + k)
    q = rng.uniform(0.1, 50.0, size=(rank, k + 1))
    for adj in (np.array(d.adjacency), np.array(d.adjacency, dtype=float)):
        for got, want in zip(terms(q, adj), power_form(q, adj)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
    with mpmath.workprec(precision_bits()):
        third = mpmath.mpf(1) / 3  # values that use every working bit
        qo = np.frompyfunc(lambda x: mpmath.mpf(x) + third, 1, 1)(q)
        adj = np.array(d.adjacency)
        for got, want in zip(terms(qo, adj), power_form(qo, adj)):
            assert got.shape == want.shape
            assert all(x == y for x, y in zip(got.flat, want.flat))


@pytest.mark.parametrize("family,rank,k", [("A", 1, 4), ("A", 5, 6), ("D", 8, 6)])
def test_stack_of_grids_matches_each_grid_bit_for_bit(family, rank, k):
    adj = np.array(build_dynkin(family, rank).adjacency, dtype=float)
    q = np.random.default_rng(rank + k).uniform(0.1, 50.0, size=(2, 3, rank, k + 1))
    stacked = terms(q, adj)
    for index in np.ndindex(q.shape[:2]):
        for got, want in zip(stacked, terms(q[index], adj)):
            assert np.array_equal(got[index], want)
