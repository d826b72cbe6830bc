"""Character decompositions of Kirillov-Reshetikhin type, assembly of the
quantum-dimension table z^(a)_m, and the verification suites for the
recurrence and for the KNS property list, whose positivity, symmetry and
growth checks the restricted solution shares.

Each table cell is a finite sum of quantum dimensions.  Summands are
first carried to their dominant alcove representatives with signs; equal
representatives cancel in integer arithmetic, so a cell whose summands
cancel completely is certified zero exactly, and a cell collapsing to
representatives with certified values gets an exact integer tag.  The
summands of a cell are one int64 block of coordinate rows, and a whole
table is reduced in a few array calls.  A table stores only its cell
values: the summands of a cell and the survivors of their cancellation
are derived again on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Iterator, Mapping

import mpmath
import numpy as np

from .affine import AffineWeight, affinize, reduce_to_alcove
from .dynkin import DynkinData, build_dynkin
from .qdim import QDimValue, precision_bits, qdim_affine
from .recurrence import terms

Cell = tuple[int, int]


_CHUNK_ROWS = 2**11  # summand rows per reduce_to_alcove call, which bounds its memory


@dataclass(frozen=True)
class KRDecomposition:
    """Decomposition of one character of the recurrence family into
    irreducible highest weights (all multiplicities are one): ``terms`` is
    the (n, rank) int64 block of their classical coordinates."""

    a: int
    m: int
    terms: np.ndarray


def stars_and_bars(total: int, parts: int) -> np.ndarray:
    """The block of nonnegative integer rows of length ``parts`` with the
    given sum, lexicographically descending: each head total..0 followed by
    the block of the rest with one part fewer.  Those smaller blocks are
    memoised by (total, parts); the returned block is not, so the memo
    holds only blocks below the largest number of parts in use."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    tails = [_stars_and_bars_memo(total - head, parts - 1) for head in range(total, -1, -1)]
    heads = np.repeat(np.arange(total, -1, -1), [len(t) for t in tails])
    return np.column_stack([heads, np.concatenate(tails)])


@lru_cache(maxsize=None)
def _stars_and_bars_memo(total: int, parts: int) -> np.ndarray:
    block = stars_and_bars(total, parts)
    block.flags.writeable = False
    return block


def kr_decompose(a: int, m: int, dynkin: DynkinData) -> KRDecomposition:
    """Irreducible decomposition of the (a, m) character.

    For family A and for the two fork tips of family D the character is
    already irreducible with highest weight m * omega_a.  For a tail node
    of D the summands run over weights k_a omega_a + k_{a-2} omega_{a-2}
    + ... down the alternating chain (ending at omega_1 for odd a, with a
    slack variable in place of the vanishing omega_0 for even a), the
    coefficients summing to m, lexicographically descending in
    (k_a, k_{a-2}, ...).
    """
    r = dynkin.rank
    if not 1 <= a <= r:
        raise ValueError(f"node index {a} outside 1..{r}")
    if m < 0:
        raise ValueError(f"negative label m = {m}")
    if dynkin.family == "A" or a >= r - 1:
        terms = np.zeros((1, r), dtype=np.int64)
        terms[0, a - 1] = m
        return KRDecomposition(a, m, terms)
    columns = np.arange(a - 1, -1, -2)  # nodes a, a-2, ..., down to 2 or 1
    comps = stars_and_bars(m, a // 2 + 1)  # one slack part for even a
    terms = np.zeros((len(comps), r), dtype=np.int64)
    terms[:, columns] = comps[:, :len(columns)]
    return KRDecomposition(a, m, terms)


def kr_term_count(a: int, m: int, dynkin: DynkinData) -> int:
    """Closed form for the number of summands: C(m + floor(a/2), floor(a/2))
    for tail nodes of D, and 1 otherwise."""
    if dynkin.family == "A" or a >= dynkin.rank - 1:
        return 1
    return comb(m + a // 2, a // 2)


def cell_summands(a: int, m: int, level: int, dynkin: DynkinData) -> np.ndarray:
    """The (n, rank + 1) block of unreduced affinized summands of cell (a, m)."""
    return affinize(kr_decompose(a, m, dynkin).terms, level, dynkin)


def _summand_chunks(cells: list[Cell], level: int,
                    dynkin: DynkinData) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The summands of ``cells`` as (cell index, affine row) blocks of at
    most _CHUNK_ROWS rows, in cell order."""
    ids, blocks, rows = [], [], 0
    for i, (a, m) in enumerate(cells):
        summands = cell_summands(a, m, level, dynkin)
        for lo in range(0, len(summands), _CHUNK_ROWS):
            piece = summands[lo:lo + _CHUNK_ROWS]
            if rows + len(piece) > _CHUNK_ROWS:
                yield np.concatenate(ids), np.concatenate(blocks)
                ids, blocks, rows = [], [], 0
            ids.append(np.full(len(piece), i))
            blocks.append(piece)
            rows += len(piece)
    yield np.concatenate(ids), np.concatenate(blocks)


def _survivors(cells: list[Cell], level: int,
               dynkin: DynkinData) -> dict[Cell, list[tuple[tuple[int, ...], int]]]:
    """Signed dominant representatives of each cell left after
    cancellation, sorted by coordinates (empty for a combinatorially
    certified zero).  Each chunk of summands is reduced in one call, and
    equal (cell, representative) rows are grouped by ``np.unique``."""
    keys, counts = [], []
    for index, block in _summand_chunks(cells, level, dynkin):
        res = reduce_to_alcove(block, dynkin)
        live = res.sign != 0
        uniq, inverse = np.unique(np.column_stack([index[live], res.rep[live]]),
                                  axis=0, return_inverse=True)
        keys.append(uniq)
        counts.append(np.bincount(inverse.ravel(), weights=res.sign[live], minlength=len(uniq)))
    uniq, inverse = np.unique(np.concatenate(keys), axis=0, return_inverse=True)
    mult = np.bincount(inverse.ravel(), weights=np.concatenate(counts),
                       minlength=len(uniq)).astype(np.int64)
    out: dict[Cell, list[tuple[tuple[int, ...], int]]] = {cell: [] for cell in cells}
    for row, c in zip(uniq[mult != 0].tolist(), mult[mult != 0].tolist()):
        out[cells[row[0]]].append((tuple(row[1:]), c))
    return out


@dataclass(frozen=True)
class QTable:
    """The array z^(a)_m for a in 1..rank and 0 <= m <= m_max.  Only the
    values are stored: ``summands`` and ``survivors`` derive a cell's
    unreduced affinized summands and its signed survivors on demand."""

    family: str
    rank: int
    level: int
    coxeter: int
    m_max: int
    cells: Mapping[Cell, QDimValue]

    def cell(self, a: int, m: int) -> QDimValue:
        return self.cells[(a, m)]

    def value(self, a: int, m: int) -> mpmath.mpf:
        return self.cells[(a, m)].numeric

    def summands(self, a: int, m: int) -> tuple[AffineWeight, ...]:
        block = cell_summands(a, m, self.level, build_dynkin(self.family, self.rank))
        return tuple(AffineWeight(self.level, tuple(row)) for row in block.tolist())

    def survivors(self, a: int, m: int) -> tuple[tuple[AffineWeight, int], ...]:
        found = _survivors([(a, m)], self.level, build_dynkin(self.family, self.rank))
        return tuple((AffineWeight(self.level, rep), mult) for rep, mult in found[(a, m)])


def _combine(parts: list[tuple[int, QDimValue]]) -> QDimValue:
    """Signed integer combination of quantum dimensions with exactness
    propagation."""
    if not parts:
        return QDimValue(exact=0, numeric=mpmath.mpf(0))
    if all(p.is_exact for _, p in parts):
        total = sum(mult * p.exact for mult, p in parts)
        if abs(total) <= 1:
            return QDimValue(exact=total, numeric=mpmath.mpf(total))
        return QDimValue(exact=None, numeric=mpmath.mpf(total))
    total = mpmath.mpf(0)
    for mult, p in parts:
        total += mult * p.numeric
    return QDimValue(exact=None, numeric=total)


def build_qtable(dynkin: DynkinData, level: int, m_max: int | None = None) -> QTable:
    """Assemble the full table of specialised character values.

    The summands of all cells are affinized and alcove-reduced with signs
    together, and each cell is summed over its surviving dominant
    representatives.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if m_max is None:
        m_max = level + dynkin.coxeter

    keys = [(a, m) for a in range(1, dynkin.rank + 1) for m in range(m_max + 1)]
    survivors = _survivors(keys, level, dynkin)
    value_cache: dict[tuple[int, ...], QDimValue] = {}
    cells: dict[Cell, QDimValue] = {}

    with mpmath.workprec(precision_bits()):
        for key in keys:
            parts = []
            for rep, mult in survivors[key]:
                val = value_cache.get(rep)
                if val is None:
                    val = value_cache[rep] = qdim_affine(AffineWeight(level, rep), dynkin)
                parts.append((mult, val))
            cells[key] = _combine(parts)

    return QTable(family=dynkin.family, rank=dynkin.rank, level=level,
                  coxeter=dynkin.coxeter, m_max=m_max, cells=cells)


# ---------------------------------------------------------------------------
# verification suites


@dataclass(frozen=True)
class PropertyCheck:
    """One named clause: its failures, or inapplicable on this input."""

    name: str
    failures: tuple[str, ...] = ()
    applicable: bool = True

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class PropertyReport:
    """The checks of one suite; it passes when each of them does."""

    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(f for c in self.checks for f in c.failures)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def scale(x, y):
    """The size max(1, |x|, |y|) that the difference x - y is measured
    against, so a tolerance is relative for large values and absolute
    near zero."""
    return max(1, abs(x), abs(y))


def mirror_failures(value: Callable, cells: Iterable[tuple[int, int]], k: int,
                    tol: float, letter: str = "z") -> tuple[str, ...]:
    """Cells (a, m) whose value differs from the mirror value(a, k - m) by
    more than ``tol`` times their scale."""
    tol = mpmath.mpf(tol)
    fails = []
    for a, m in cells:
        x, y = value(a, m), value(a, k - m)
        delta = abs(x - y)
        if delta > tol and delta > tol * scale(x, y):  # scale >= 1: tol alone settles most
            fails.append(f"|{letter}({a},{m}) - {letter}({a},{k - m})| = {mpmath.nstr(delta)}")
    return tuple(fails)


def positive_checks(value: Callable, rank: int, k: int, tol: float,
                    letter: str = "z") -> tuple[PropertyCheck, PropertyCheck, PropertyCheck]:
    """Positivity on 0 <= m <= k, symmetry about k/2 (each mirror pair once,
    m <= k/2) and strict growth up to the midpoint of ``value(a, m)``."""
    nodes = range(1, rank + 1)
    half = range(k // 2 + 1)
    return (
        PropertyCheck("positivity", tuple(
            f"{letter}({a},{m}) = {value(a, m)}"
            for a in nodes for m in range(k + 1) if not value(a, m) > 0)),
        PropertyCheck("symmetry", mirror_failures(
            value, ((a, m) for a in nodes for m in half), k, tol, letter)),
        PropertyCheck("unimodality", tuple(
            f"{letter}({a},{m - 1}) >= {letter}({a},{m})"
            for a in nodes for m in half[1:] if not value(a, m - 1) < value(a, m))),
    )


@dataclass(frozen=True)
class QSystemReport:
    """Residuals of the recurrence over the whole table."""

    max_residual: float
    threshold: float
    worst: Cell | None
    passed: bool
    residuals: Mapping[Cell, float]


def verify_qsystem(table: QTable, dynkin: DynkinData, tol: float = 1e-9) -> QSystemReport:
    """Check (z^(a)_m)^2 = prod_neighbors + z^(a)_{m-1} z^(a)_{m+1} for
    1 <= m <= m_max - 1."""
    residuals: dict[Cell, float] = {}
    worst: Cell | None = None
    max_res = mpmath.mpf(0)
    with mpmath.workprec(precision_bits()):
        q = np.array([[table.value(a, m) for m in range(table.m_max + 1)]
                      for a in range(1, table.rank + 1)], dtype=object)
        square, prod, cross = terms(q, np.array(dynkin.adjacency))
        for (a, j), res in np.ndenumerate(abs(square - (prod + cross))):
            residuals[(a + 1, j + 1)] = float(res)
            if res > max_res:
                max_res = res
                worst = (a + 1, j + 1)
        threshold = tol * (1 + float(max(abs(v.numeric) for v in table.cells.values())) ** 2)
    return QSystemReport(
        max_residual=float(max_res),
        threshold=threshold,
        worst=worst,
        passed=float(max_res) <= threshold,
        residuals=residuals,
    )


def _integer_failures(table: QTable, cells: list[tuple[int, int, int]],
                      tol: float | None = None) -> tuple[str, ...]:
    """Cells (a, m, e) whose value is not the integer e.  A cell tagged e
    passes; so does an untagged cell within ``tol`` of e, relative to its
    scale, unless ``tol`` is None, which asks for the exact tag."""
    return tuple(
        f"z({a},{m}) = {mpmath.nstr(c.numeric)} (exact tag {c.exact}), expected {e}"
        for a, m, e in cells
        if (c := table.cell(a, m)).exact != e and (
            c.exact is not None or tol is None or abs(c.numeric - e) > tol * scale(c.numeric, e)))


def verify_kns(table: QTable, tol: float = 1e-9) -> PropertyReport:
    """Verify the KNS property list on a table built up to m = level + h.

    Clauses: positivity on 0..k, symmetry about k/2, unit value at k,
    strict growth up to the midpoint, a window of h-1 zeros above k, and
    (family D only) the signed unit row at k + h.
    """
    k, h, r = table.level, table.coxeter, table.rank
    if table.m_max < k + h:
        raise ValueError("KNS verification needs the table up to m = level + coxeter")
    nodes = range(1, r + 1)
    top_row = PropertyCheck("top_row", applicable=False)
    with mpmath.workprec(precision_bits()):
        positivity, symmetry, unimodality = positive_checks(table.value, r, k, tol)
        unit = _integer_failures(table, [(a, k, 1) for a in nodes], tol)
        zeros = _integer_failures(table, [(a, m, 0) for a in nodes
                                          for m in range(k + 1, k + h)], tol)
        if table.family == "D":
            fork_sign = 1 if r % 4 in (0, 1) else -1
            top_row = PropertyCheck("top_row", _integer_failures(
                table, [(a, k + h, fork_sign if a >= r - 1 else 1) for a in nodes], tol))
    return PropertyReport((positivity, symmetry, PropertyCheck("unit_boundary", unit),
                           unimodality, PropertyCheck("zero_window", zeros), top_row))


def midpoint_checks(table: QTable, tol: float = 1e-9) -> PropertyReport:
    """Equalities pinning the table about its midpoint, as mirror pairs
    z_m = z_{k-m}.

    Tail nodes 2..r-2 hold the innermost pair, m = (k-1)//2: z_s = z_{s+1}
    for odd level (s = (k-1)/2) and z_{s-1} = z_{s+1} for even level
    (s = k/2).  The three tip nodes hold every pair.
    """
    k, r = table.level, table.rank
    tips = sorted({1, r - 1, r} & set(range(1, r + 1)))
    cells = [(a, (k - 1) // 2) for a in range(2, r - 1)]
    cells += [(a, m) for a in tips for m in range(k // 2 + 1)]
    with mpmath.workprec(precision_bits()):
        fails = mirror_failures(table.value, cells, k, tol)
    return PropertyReport((PropertyCheck("midpoint", fails),))


def forced_tail_report(table: QTable) -> PropertyReport:
    """Compare the directly computed tail rows with the pattern the
    recurrence forces from rows <= level+1 and the first column.

    Family D only (every check is inapplicable on A): rows k+1 .. k+h-1
    must be certified zeros, the top row exactly 1 on nodes 1..r-2, and
    the two fork cells must carry equal exact signs +-1, whose product is
    then the node-(r-2) value 1.
    """
    k, h, r = table.level, table.coxeter, table.rank
    if table.family != "D":
        return PropertyReport(tuple(PropertyCheck(name, applicable=False)
                                    for name in ("forced_zeros", "forced_top_row", "fork")))
    if table.m_max < k + h:
        raise ValueError("tail check needs the table up to m = level + coxeter")
    zeros = _integer_failures(table, [(a, m, 0) for m in range(k + 1, k + h)
                                      for a in range(1, r + 1)])
    top = _integer_failures(table, [(a, k + h, 1) for a in range(1, r - 1)])
    left, right = table.cell(r - 1, k + h).exact, table.cell(r, k + h).exact
    fork = () if left in (-1, 1) and left == right else (
        f"fork tags z({r - 1},{k + h}) = {left} and z({r},{k + h}) = {right}",)
    return PropertyReport((PropertyCheck("forced_zeros", zeros),
                           PropertyCheck("forced_top_row", top), PropertyCheck("fork", fork)))
