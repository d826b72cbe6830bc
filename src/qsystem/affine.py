"""Level-k affine weights and their reduction to the dominant alcove under
the shifted reflection action.

An affine weight is stored as the integer coordinate vector
(lambda_0, ..., lambda_r); membership at level k means the mark-weighted
coordinate sum equals k.  The shifted action conjugates the linear
reflections by adding one to every coordinate first (the affine Weyl
vector has all coordinates one).  ``affinize`` takes a block of classical
rows and ``reduce_to_alcove`` a block of affine rows, one weight per row;
``reduce_to_alcove`` also takes one :class:`AffineWeight`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynkin import DynkinData, RankMismatch


@dataclass(frozen=True)
class AffineWeight:
    """Affine weight of a fixed level, coordinates lambda_0..lambda_r."""

    level: int
    coords: tuple[int, ...]


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of alcove reduction: a signed dominant representative, or
    sign 0 on a reflection wall, where the value is zero.

    For one :class:`AffineWeight`, ``rep`` is an AffineWeight (None on a
    wall) and ``sign`` an int.  For a block of n coordinate rows, ``rep``
    is the (n, r+1) int64 array of representatives (meaningless where the
    sign is 0) and ``sign`` the (n,) array of signs.
    """

    rep: AffineWeight | np.ndarray | None
    sign: int | np.ndarray

    @property
    def is_zero(self):
        return self.sign == 0


def level_of(coords: tuple[int, ...], dynkin: DynkinData) -> int:
    """Mark-weighted coordinate sum of an affine coordinate vector."""
    if len(coords) != dynkin.rank + 1:
        raise RankMismatch(f"expected {dynkin.rank + 1} coordinates, got {len(coords)}")
    return sum(a * c for a, c in zip(dynkin.marks, coords))


def affinize(block: np.ndarray, level: int, dynkin: DynkinData) -> np.ndarray:
    """Extend an (n, r) block of classical rows by the zeroth coordinate
    fixing their level: the (n, r+1) block of affine rows.

    The zeroth coordinate may come out negative; such weights are
    legitimate inputs to the shifted action and to alcove reduction.
    """
    if np.shape(block)[-1] != dynkin.rank:
        raise RankMismatch(f"weight rank {np.shape(block)[-1]} != diagram rank {dynkin.rank}")
    block = np.asarray(block, dtype=np.int64)
    return np.column_stack([level - block @ np.array(dynkin.marks[1:]), block])


def coordinate_limit(dynkin: DynkinData) -> int:
    """Largest |lambda_i| that the int64 arithmetic of
    :func:`reduce_to_alcove` carries without overflow: its intermediates
    stay below three times the shifted level N <= 2 (r+1) (|lambda| + 1)."""
    return 2**60 // (dynkin.rank + 1)


def _coordinate_rows(coords, dynkin: DynkinData) -> np.ndarray:
    """``coords`` as a 2-d int64 block, refusing values int64 cannot carry."""
    limit = coordinate_limit(dynkin)
    try:
        block = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        fits = not block.size or -limit <= block.min() <= block.max() <= limit
    except OverflowError:  # beyond int64 already
        fits = False
    if not fits:
        raise OverflowError(f"affine coordinates must lie within +-{limit} "
                            f"for int64 reduction on {dynkin}")
    if block.ndim != 2 or block.shape[1] != dynkin.rank + 1:
        raise RankMismatch(f"expected rows of {dynkin.rank + 1} coordinates, got {block.shape}")
    return block


def reduce_to_alcove(w: AffineWeight | np.ndarray, dynkin: DynkinData) -> ReductionResult:
    """Carry affine weights to their dominant representatives under the
    shifted action, in closed form (Kac-Walton; Walton, Nucl. Phys. B340
    (1990) 777; Kac, Infinite-dimensional Lie algebras, Ex. 13.35).

    ``w`` is one AffineWeight or an (n, r+1) block of coordinate rows.
    With mu = lambda + (1,...,1) at shifted level N = k + h, the classical
    part of mu is written in epsilon coordinates, where the affine Weyl
    group acts by permutations, sign changes and translations:

    * D_r, doubled so that spin weights stay integral: x = 2 mu in the
      epsilon basis, translations by 2N with even coordinate sum.  Fold
      each x_i mod 2N, map x_i to 2N - x_i where x_i > N (a sign change
      and a translation), and sort descending.  Two extended-diagram
      automorphisms restore the parities: x_1 to 2N - x_1 if the
      translation count is odd, then x_r to -x_r if the sign-change count
      is odd.
    * A_r: epsilon in Z^(r+1) modulo (1,...,1), translations by N with
      zero sum.  Fold mod N, sort descending, and rotate the r+1 affine
      coordinates by the translation count mod r+1, a cyclic permutation
      of sign (-1)^r per step.

    The sign is that of the linear part: the sorting permutation, with
    (-1)^r for each rotation step on A (the sign changes on D come in
    even number).  A zero coordinate of the resulting mu (equal adjacent
    x_i, x_(r-1) = |x_r| or x_1 + x_2 = 2N on D) is a reflection wall.
    Raises OverflowError beyond :func:`coordinate_limit`.
    """
    single = isinstance(w, AffineWeight)
    r = dynkin.rank
    mu = np.ascontiguousarray(_coordinate_rows(w.coords if single else w, dynkin).T) + 1
    n = mu.shape[1]
    shifted = (np.array(dynkin.marks)[:, None] * mu).sum(0)
    if n and shifted.min() <= dynkin.coxeter:
        raise ValueError("alcove reduction requires level >= 1, "
                         f"got {shifted.min() - dynkin.coxeter}")
    if dynkin.family == "D":
        period = 2 * shifted
        x = np.empty((r, n), np.int64)
        x[r - 1] = mu[r] - mu[r - 1]
        x[r - 2] = mu[r - 1] + mu[r]
        for i in range(r - 3, -1, -1):
            x[i] = x[i + 1] + 2 * mu[i + 1]
    else:
        period = shifted
        x = np.zeros((r + 1, n), np.int64)
        x[r - 1] = mu[r]
        for i in range(r - 2, -1, -1):
            x[i] = x[i + 1] + mu[i + 1]
    turns, x = np.divmod(x, period)
    turns = turns.sum(0)
    if dynkin.family == "D":
        flips = (x > shifted).sum(0)
        turns += flips
        x = np.minimum(x, period - x)
    odd = np.zeros(n, bool)  # parity of the inversions, the sign of the sort (ties are walls)
    for i in range(len(x) - 1):
        for j in range(i + 1, len(x)):
            odd ^= x[i] < x[j]
    x = np.sort(x.T, axis=1)[:, ::-1].T  # descending, one column per weight
    out = np.empty_like(mu)
    if dynkin.family == "D":
        fix = (turns & 1).astype(bool)
        first = np.where(fix, period - x[0], x[0])
        last = np.where(fix ^ (flips & 1).astype(bool), -x[r - 1], x[r - 1])
        out[0] = shifted - (first + x[1]) // 2
        out[2:r - 1] = (x[1:r - 2] - x[2:r - 1]) // 2
        out[1] = (first - x[1]) // 2
        out[r - 1] = (x[r - 2] - last) // 2
        out[r] = (x[r - 2] + last) // 2
    else:
        out[0] = shifted - (x[0] - x[r])
        out[1:] = x[:r] - x[1:]
        turns %= r + 1
        out = np.take_along_axis(out, (np.arange(r + 1)[:, None] - turns) % (r + 1), axis=0)
        odd ^= (r * turns & 1).astype(bool)
    sign = np.where(odd, -1, 1)
    sign[(out == 0).any(0)] = 0
    reps = out.T - 1
    if not single:
        return ReductionResult(reps, sign)
    if not sign[0]:
        return ReductionResult(None, 0)
    return ReductionResult(AffineWeight(w.level, tuple(int(c) for c in reps[0])), int(sign[0]))
