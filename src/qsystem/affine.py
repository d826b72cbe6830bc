"""Level-k affine weights and their reduction to the dominant alcove under
the shifted reflection action.

An affine weight is stored as the integer coordinate vector
(lambda_0, ..., lambda_r); membership at level k means the mark-weighted
coordinate sum equals k.  The shifted action conjugates the linear
reflections by adding one to every coordinate first (the affine Weyl
vector has all coordinates one).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynkin import DynkinData, RankMismatch, Weight


class IterationCapExceeded(RuntimeError):
    """Alcove reduction ran past its reflection cap; indicates a bug."""


@dataclass(frozen=True)
class AffineWeight:
    """Affine weight of a fixed level, coordinates lambda_0..lambda_r."""

    level: int
    coords: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.coords) - 1

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def classical(self) -> Weight:
        return Weight(self.coords[1:])


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of alcove reduction: a signed dominant representative, or a
    detected stabiliser (``rep is None``) which forces the value zero."""

    rep: AffineWeight | None
    sign: int

    @property
    def is_zero(self) -> bool:
        return self.rep is None


def level_of(coords: tuple[int, ...], dynkin: DynkinData) -> int:
    """Mark-weighted coordinate sum of an affine coordinate vector."""
    if len(coords) != dynkin.rank + 1:
        raise RankMismatch(f"expected {dynkin.rank + 1} coordinates, got {len(coords)}")
    return sum(a * c for a, c in zip(dynkin.marks, coords))


def affinize(weight: Weight, level: int, dynkin: DynkinData) -> AffineWeight:
    """Extend a classical weight by the zeroth coordinate fixing its level.

    The zeroth coordinate may come out negative; such weights are
    legitimate inputs to the shifted action and to alcove reduction.
    """
    if weight.rank != dynkin.rank:
        raise RankMismatch(f"weight rank {weight.rank} != diagram rank {dynkin.rank}")
    lam0 = level - sum(a * c for a, c in zip(dynkin.marks[1:], weight.coords))
    return AffineWeight(level, (lam0, *weight.coords))


def reduce_to_alcove(w: AffineWeight, dynkin: DynkinData,
                     cap: int = 10**6) -> ReductionResult:
    """Carry w to its dominant representative under the shifted action.

    Greedy loop on mu = w + (1,...,1): a zero coordinate means mu sits on
    a reflection wall, so the value is zero; otherwise reflect at the
    first negative coordinate and flip the sign until all coordinates
    are positive.  A reflection at node i negates mu_i and subtracts
    c_ij mu_i from each neighbour j, so only those coordinates can reach
    a wall.  Positive level guarantees termination; the cap only guards
    against internal bugs.
    """
    if w.level < 1:
        raise ValueError(f"alcove reduction requires level >= 1, got {w.level}")
    neighbours = dynkin.extended_neighbours
    mu = [c + 1 for c in w.coords]
    if 0 in mu:
        return ReductionResult(rep=None, sign=0)
    sign = 1
    for _ in range(cap):
        for i, v in enumerate(mu):
            if v < 0:
                break
        else:
            return ReductionResult(AffineWeight(w.level, tuple(v - 1 for v in mu)), sign)
        mu[i] = -v
        for j, c in neighbours[i]:
            mu[j] -= c * v
            if not mu[j]:
                return ReductionResult(rep=None, sign=0)
        sign = -sign
    raise IterationCapExceeded(f"no dominant representative within {cap} reflections")
