"""The Q-system recurrence (Q^(a)_m)^2 = prod_{b~a} Q^(b)_m + Q^(a)_{m-1} Q^(a)_{m+1}
on a value grid: one row per node a, one column per label m."""

from __future__ import annotations

import numpy as np


def terms(q: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three terms Q_m^2, prod_b (Q^(b)_m)^adj[a,b] and Q_{m-1} Q_{m+1}
    of every equation 1 <= m <= m_max-1 of the value grid ``q``.  Works on
    float64 arrays and on object arrays of mpf alike.  Each caller combines
    the terms in its own order, which fixes the low digits it reports."""
    mid = q[:, 1:-1]
    return mid**2, (mid ** adj[:, :, None]).prod(axis=1), q[:, :-2] * q[:, 2:]
