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

``qdim_affine`` is the one evaluator, and it takes a block of weights:
the pairings, the zero and sign tests, the canonical counts and the
exact test run on the whole block in int64, and only the rows left
without an exact value take an mpf product, from powers sin(pi q / N) ** c
each taken once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from . import precision_bits
from .dynkin import DynkinData, positive_roots


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


@lru_cache(maxsize=None)
def _sines(n_mod: int, bits: int) -> tuple[mpmath.mpf, ...]:
    """sin(pi q / N) for q in 0..N-1 at ``bits`` of precision; they depend
    on N = h + k alone, which tables of different rank share."""
    with mpmath.workprec(bits):
        return tuple(mpmath.sinpi(mpmath.mpf(q) / n_mod) for q in range(n_mod))


def _product(sines: tuple[mpmath.mpf, ...], counts: np.ndarray,
             powers: dict[tuple[int, int], mpmath.mpf]) -> mpmath.mpf:
    """The product of sines[q] ** counts[q] in ascending q; ``powers`` memoises each power."""
    out = mpmath.mpf(1)
    for key in zip(np.flatnonzero(counts).tolist(), counts[counts != 0].tolist()):
        if key not in powers:
            powers[key] = sines[key[0]] ** key[1]
        out *= powers[key]
    return out


@lru_cache(maxsize=None)
def _root_data(dynkin: DynkinData, level: int,
               bits: int) -> tuple[np.ndarray, np.ndarray, mpmath.mpf]:
    """The positive roots as columns, the canonical magnitude counts of
    their heights, and the sine product of those counts (the value at
    lambda = 0)."""
    roots = positive_roots(dynkin)
    n_mod = dynkin.coxeter + level
    heights = np.array([r.height for r in roots], dtype=np.int64)
    height_counts = np.bincount(np.minimum(heights, n_mod - heights), minlength=n_mod)
    with mpmath.workprec(bits):
        denominator = _product(_sines(n_mod, bits), height_counts, {})
    return np.array([r.coeffs for r in roots], dtype=np.int64).T, height_counts, denominator


def qdim_affine(reps: np.ndarray, level: int, dynkin: DynkinData) -> list[QDimValue]:
    """Quantum dimensions of an (n, r+1) block of affine weights at level k,
    one per row (the zeroth coordinate only fixes the level).

    The zero and exact-sign tests run on the whole block in integers; only
    the rows that are neither take a sine product, from powers memoised by
    (q, count) for the length of the call.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    bits = precision_bits()
    root_matrix, height_counts, denominator = _root_data(dynkin, level, bits)
    n_mod = dynkin.coxeter + level
    sines = _sines(n_mod, bits)

    residues = ((np.asarray(reps, dtype=np.int64)[:, 1:] + 1) @ root_matrix) % (2 * n_mod)
    zero = (residues % n_mod == 0).any(1)
    over = residues > n_mod
    signs = np.where(np.count_nonzero(over, 1) & 1, -1, 1)
    magnitudes = np.where(over, 2 * n_mod - residues, residues)
    canon = np.minimum(magnitudes, n_mod - magnitudes) + n_mod * np.arange(len(residues))[:, None]
    counts = np.bincount(canon.ravel(), minlength=len(residues) * n_mod).reshape(-1, n_mod)
    exact = (counts == height_counts).all(1)
    out, powers = [], {}
    with mpmath.workprec(bits):
        for sign, is_zero, is_exact, row in zip(signs.tolist(), zero.tolist(),
                                                exact.tolist(), counts):
            if is_zero:
                out.append(QDimValue(exact=0, numeric=mpmath.mpf(0)))
            elif is_exact:
                out.append(QDimValue(exact=sign, numeric=mpmath.mpf(sign)))
            else:
                out.append(QDimValue(exact=None,
                                     numeric=sign * _product(sines, row, powers) / denominator))
    return out
