"""The Q-system recurrence (Q^(a)_m)^2 = prod_{b~a} Q^(b)_m + Q^(a)_{m-1} Q^(a)_{m+1}
on a value grid: one row per node a, one column per label m, with any
number of leading axes for a stack of grids."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from mpmath.libmp import fone, mpf_mul, mpf_pow_int, round_nearest


@lru_cache(maxsize=None)
def _neighbours(rank: int, edges: bytes) -> tuple[np.ndarray, np.ndarray]:
    """All neighbour lists concatenated in node order, and where each starts."""
    rows, cols = np.nonzero(np.frombuffer(edges, dtype=bool).reshape(rank, rank))
    return cols, np.searchsorted(rows, np.arange(rank))


def terms(q: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three terms Q_m^2, prod_{b~a} Q^(b)_m and Q_{m-1} Q_{m+1} of
    every equation 1 <= m <= m_max-1 of the value grid ``q``, shape
    (..., rank, m_max+1), for the 0/1 adjacency matrix ``adj`` of a
    connected diagram.  Works on float64 arrays and on object arrays of mpf
    or of Python integers alike.  Each caller combines the terms in its own order, which fixes
    the low digits it reports."""
    mid = q[..., 1:-1]
    nbrs, starts = _neighbours(len(adj), (adj != 0).tobytes())
    prod = (np.multiply.reduceat(mid[..., nbrs, :], starts, axis=-2) if len(nbrs)
            else np.ones_like(mid))
    return mid**2, prod, q[..., :-2] * q[..., 2:]


def tuple_terms(row: list, nbrs: list[list], prec: int) -> tuple[list, list]:
    """Q_m^2 and prod_{b~a} Q^(b)_m on libmp tuples at ``prec`` bits for the values ``row`` of a
    node and ``nbrs`` of its neighbours, rounded as :func:`terms` rounds them on mpf values."""
    prods = nbrs[0] if nbrs else [fone] * len(row)
    for nbr in nbrs[1:]:  # left to right
        prods = [mpf_mul(x, y, prec, round_nearest) for x, y in zip(prods, nbr)]
    return [mpf_pow_int(x, 2, prec, round_nearest) for x in row], prods
