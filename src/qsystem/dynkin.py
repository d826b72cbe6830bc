"""Root-system and Dynkin-diagram data for the simply laced families A and D.

Everything in this module is exact integer arithmetic: Cartan pairings,
marks, and positive roots generated by root-string closure.  Node labels
for D follow the fork convention: the tail is 1..r-2, the fork tips are
r-1 and r (both attached to node r-2), and the zeroth node of the
extended diagram attaches to node 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class UnsupportedType(ValueError):
    """Family/rank combination outside the supported A/D range."""


class RankMismatch(ValueError):
    """Operands were built for different ranks."""


@dataclass(frozen=True)
class Root:
    """A root, stored as integer coordinates in the simple-root basis."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)


@dataclass(frozen=True)
class DynkinData:
    """Static data of a simply laced diagram and its untwisted extension.

    ``marks`` are the coefficients of the highest root with a leading 1
    at index 0 (for the zeroth node of the extended diagram); their total
    is the Coxeter number.
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    marks: tuple[int, ...]
    coxeter: int
    adjacency: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    # D: chain 1..r-1 with the second tip r hanging off node r-2
    return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]


@lru_cache(maxsize=None)
def build_dynkin(family: str, rank: int) -> DynkinData:
    """Assemble Cartan data for A_r (r >= 1) or D_r (r >= 4)."""
    if family not in ("A", "D"):
        raise UnsupportedType(f"unsupported family {family!r}; expected 'A' or 'D'")
    if family == "A" and rank < 1:
        raise UnsupportedType(f"A requires rank >= 1, got {rank}")
    if family == "D" and rank < 4:
        raise UnsupportedType(f"D requires rank >= 4, got {rank}")

    adjacency = [[0] * rank for _ in range(rank)]
    for i, j in _edges(family, rank):
        adjacency[i - 1][j - 1] = adjacency[j - 1][i - 1] = 1
    cartan = [[2 * (i == j) - adjacency[i][j] for j in range(rank)] for i in range(rank)]

    if family == "A":
        marks = (1,) * (rank + 1)
    else:
        marks = (1, 1) + (2,) * (rank - 3) + (1, 1)

    return DynkinData(
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        marks=marks,
        coxeter=sum(marks),
        adjacency=tuple(tuple(row) for row in adjacency),
    )


@lru_cache(maxsize=None)
def positive_roots(dynkin: DynkinData) -> tuple[Root, ...]:
    """All positive roots, by root-string closure from the simple roots.

    In the simply laced case a positive root extends by a simple root
    exactly when their pairing is -1, so the closure needs nothing
    beyond integer Cartan data.  Roots come out sorted by height, then
    lexicographically.
    """
    rank = dynkin.rank
    cartan = dynkin.cartan
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for c in frontier:
            for i in range(rank):
                if sum(c[j] * cartan[j][i] for j in range(rank)) == -1:
                    cand = tuple(c[j] + (j == i) for j in range(rank))
                    if cand not in seen:
                        seen.add(cand)
                        fresh.append(cand)
        frontier = fresh
    ordered = sorted(seen, key=lambda c: (sum(c), c))
    return tuple(Root(c) for c in ordered)
