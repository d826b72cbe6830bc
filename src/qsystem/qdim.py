"""Quantum dimensions as sine products over positive roots, with exact
zero and exact-sign certificates.

For a weight at level k put N = h + k and n_alpha = (lambda + rho | alpha).
The value is the product over positive roots of sin(pi n_alpha / N)
divided by the same product for lambda = 0.  Everything interesting about
a factor depends only on n_alpha modulo 2N:

* n_alpha divisible by N kills the numerator, and the value is exactly 0;
* otherwise the factor is +-sin(pi q / N) with q in (0, N), picking up a
  minus sign when the residue lands in (N, 2N);
* sin(pi q / N) = sin(pi (N - q) / N), so magnitudes are canonical once
  folded to min(q, N - q).

If the canonical magnitude multiset of the numerator equals that of the
root heights, the ratio telescopes and the value is exactly the
accumulated sign.  Otherwise the value is computed numerically from a
precomputed sine table at the working precision selected by the
``QSYS_PRECISION_BITS`` environment variable (default 128 bits).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .affine import AffineWeight
from .dynkin import DynkinData, Weight, positive_roots

DEFAULT_PRECISION_BITS = 128


def precision_bits() -> int:
    """Working precision in bits, from QSYS_PRECISION_BITS (default 128)."""
    raw = os.environ.get("QSYS_PRECISION_BITS")
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        bits = 0
    if bits < 64:
        raise ValueError(f"QSYS_PRECISION_BITS must be an integer >= 64, got {raw!r}")
    return bits


@dataclass(frozen=True)
class QDimValue:
    """A quantum dimension: exact classification plus numeric value.

    ``exact`` is 0 for a certified zero, +-1 for a certified sign, and
    None when only the numeric value is known.  Certified values have
    ``numeric`` equal to them exactly.
    """

    exact: int | None
    numeric: mpmath.mpf

    @property
    def is_zero(self) -> bool:
        return self.exact == 0

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


class _SineTable:
    """Per-(diagram, level, precision) data for fast product evaluation."""

    __slots__ = ("n_mod", "root_matrix", "height_counts", "sines", "denominator")

    def __init__(self, dynkin: DynkinData, level: int, bits: int):
        roots = positive_roots(dynkin)
        n_mod = dynkin.coxeter + level
        self.n_mod = n_mod
        self.root_matrix = np.array([r.coeffs for r in roots], dtype=np.int64)
        heights = np.array([r.height for r in roots], dtype=np.int64)
        canon = np.minimum(heights, n_mod - heights)
        self.height_counts = np.bincount(canon, minlength=n_mod)
        self.sines = _sines(n_mod, bits)
        with mpmath.workprec(bits):
            self.denominator = self._product(self.height_counts)
        assert all(self.sines[q] > 0 for q in range(1, n_mod))

    def _product(self, counts: np.ndarray) -> mpmath.mpf:
        out = mpmath.mpf(1)
        for q in np.nonzero(counts)[0]:
            out *= self.sines[int(q)] ** int(counts[q])
        return out


@lru_cache(maxsize=None)
def _sines(n_mod: int, bits: int) -> tuple[mpmath.mpf, ...]:
    """sin(pi q / N) for q in 0..N-1 at ``bits`` of precision; they depend
    on N = h + k alone, which tables of different rank share."""
    with mpmath.workprec(bits):
        return tuple(mpmath.sinpi(mpmath.mpf(q) / n_mod) for q in range(n_mod))


@lru_cache(maxsize=None)
def _sine_table(dynkin: DynkinData, level: int, bits: int) -> _SineTable:
    return _SineTable(dynkin, level, bits)


def qdim(weight: Weight, level: int, dynkin: DynkinData) -> QDimValue:
    """Quantum dimension of the level-k affinization of a classical weight."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    bits = precision_bits()
    table = _sine_table(dynkin, level, bits)
    n_mod = table.n_mod

    shifted = np.array(weight.coords, dtype=np.int64) + 1
    pairings = table.root_matrix @ shifted
    residues = pairings % (2 * n_mod)
    if np.any(residues % n_mod == 0):
        return QDimValue(exact=0, numeric=mpmath.mpf(0))
    over = residues > n_mod
    sign = -1 if (np.count_nonzero(over) & 1) else 1
    magnitudes = np.where(over, 2 * n_mod - residues, residues)
    canon = np.minimum(magnitudes, n_mod - magnitudes)
    counts = np.bincount(canon, minlength=n_mod)
    if np.array_equal(counts, table.height_counts):
        return QDimValue(exact=sign, numeric=mpmath.mpf(sign))
    with mpmath.workprec(bits):
        value = sign * table._product(counts) / table.denominator
    return QDimValue(exact=None, numeric=value)


def qdim_affine(w: AffineWeight, dynkin: DynkinData) -> QDimValue:
    """Quantum dimension of an affine weight (the zeroth coordinate only
    fixes the level)."""
    return qdim(w.classical(), w.level, dynkin)
