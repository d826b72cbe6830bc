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
the pairings, the zero and sign tests and the canonical counts run in
int64 on blocks of rows, the exact test on the whole.  Only the rows left
without an exact value take a sine product, one per distinct count row, from
powers sin(pi q / N) ** c each taken once per call, and one division by
the denominator; a row of sign -1 takes the exact negation.  The products
run on mpmath's libmp tuples with the operations and roundings of the mpf
arithmetic they replace, so every bit is that of sign * product / denominator
taken row by row in mpf.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from mpmath.libmp import fone, mpf_div, mpf_mul, mpf_neg, mpf_pow_int, round_nearest

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


# The certified values -1, 0 and 1, one object each for every row and cell that holds one.
EXACT = {tag: QDimValue(exact=tag, numeric=mpmath.mpf(tag)) for tag in (-1, 0, 1)}


@lru_cache(maxsize=None)
def _sines(n_mod: int, bits: int) -> tuple[tuple, ...]:
    """sin(pi q / N) for q in 0..N-1 at ``bits`` of precision, as libmp
    tuples; they depend on N = h + k alone, which tables of different rank
    share."""
    with mpmath.workprec(bits):
        return tuple(mpmath.sinpi(mpmath.mpf(q) / n_mod)._mpf_ for q in range(n_mod))


def _products(sines: tuple[tuple, ...], counts: np.ndarray, bits: int) -> list[tuple]:
    """Per row of ``counts``, the libmp product of sines[q] ** counts[q] in
    ascending q from ``fone``, rounded to nearest at ``bits`` after each
    step; each power (q, count) is taken once per call, and a row takes the
    partial product of the factors it shares, as a prefix, with the row
    before it (``np.unique`` sorts them so)."""
    rows, qs = np.nonzero(counts)
    keys = list(zip(qs.tolist(), counts[rows, qs].tolist()))
    powers = {key: mpf_pow_int(sines[key[0]], key[1], bits, round_nearest) for key in set(keys)}
    nonzero = counts > 0
    before = np.cumsum(nonzero, 1) - nonzero  # the factors before each column
    differ = (counts[1:] != counts[:-1]).argmax(1)  # the first column unlike the row before
    shared = [0] + before[np.arange(1, len(counts)), differ].tolist()
    factors, out, start, partial = [powers[key] for key in keys], [], 0, [fone]
    for n, same in zip(np.bincount(rows, minlength=len(counts)).tolist(), shared):
        del partial[same + 1:]  # partial[i]: the product of the row's first i factors
        for factor in factors[start + same:start + n]:
            partial.append(mpf_mul(partial[-1], factor, bits, round_nearest))
        out.append(partial[n])
        start += n
    return out


@lru_cache(maxsize=None)
def _root_data(dynkin: DynkinData, level: int,
               bits: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The positive roots as columns, the canonical magnitude counts of
    their heights, and the sine product of those counts (the value at
    lambda = 0) as a libmp tuple."""
    roots = positive_roots(dynkin)
    n_mod = dynkin.coxeter + level
    heights = np.array([r.height for r in roots], dtype=np.int64)
    height_counts = np.bincount(np.minimum(heights, n_mod - heights), minlength=n_mod)
    denominator, = _products(_sines(n_mod, bits), height_counts[None], bits)
    return np.array([r.coeffs for r in roots], dtype=np.int64).T, height_counts, denominator


def qdim_affine(reps: np.ndarray, level: int, dynkin: DynkinData) -> list[QDimValue]:
    """Quantum dimensions of an (n, r+1) block of affine weights at level k,
    one per row (the zeroth coordinate only fixes the level).

    The zero and exact-sign tests run in integers, on blocks of rows whose
    pairings take 8 MiB; the rows that are neither take the sine product of
    their count row, each distinct count row once and divided by the
    denominator once, on libmp tuples, a row of sign -1 the negation of it.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    bits = precision_bits()
    root_matrix, height_counts, denominator = _root_data(dynkin, level, bits)
    n_mod = dynkin.coxeter + level

    plus_rho, zero, signs, counts = np.asarray(reps, dtype=np.int64)[:, 1:] + 1, [], [], []
    step = max(1, 2**18 // root_matrix.shape[1])
    for i in range(0, max(len(plus_rho), 1), step):
        residues = (plus_rho[i:i + step] @ root_matrix) % (2 * n_mod)
        over, n = residues > n_mod, len(residues)
        zero.append((residues % n_mod == 0).any(1))
        signs.append(np.where(np.count_nonzero(over, 1) & 1, -1, 1))
        magnitudes = np.where(over, 2 * n_mod - residues, residues)
        canon = np.minimum(magnitudes, n_mod - magnitudes) + n_mod * np.arange(n)[:, None]
        counts.append(np.bincount(canon.ravel(), minlength=n * n_mod).reshape(n, n_mod))
    zero, signs, counts = map(np.concatenate, (zero, signs, counts))
    exact = (counts == height_counts).all(1)
    generic = ~zero & ~exact
    distinct, inverse = np.unique(counts[generic], axis=0, return_inverse=True)
    quotients = [mpf_div(p, denominator, bits, round_nearest)
                 for p in _products(_sines(n_mod, bits), distinct, bits)]
    numerics = iter([quotients[i] if sign > 0 else mpf_neg(quotients[i]) for i, sign
                     in zip(inverse.reshape(-1).tolist(), signs[generic].tolist())])
    out = [QDimValue(exact=None, numeric=mpmath.mp.make_mpf(next(numerics))) if is_generic
           else EXACT[tag]
           for tag, is_generic in zip(np.where(zero, 0, signs).tolist(), generic.tolist())]
    log = sys.modules.get("logging")  # not loaded, it has no handler to take the record
    if log and log.getLogger(__name__).isEnabledFor(log.DEBUG):
        rows, qs = np.nonzero(distinct)
        log.getLogger(__name__).debug(
            "%d rows: %d zero, %d exact, %d generic, %d distinct count rows, %d powers",
            len(counts), zero.sum(), exact.sum(), generic.sum(), len(distinct),
            len(set(zip(qs.tolist(), distinct[rows, qs].tolist()))))
    return out
