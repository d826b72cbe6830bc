"""Character decompositions of Kirillov-Reshetikhin type, assembly of the
quantum-dimension table z^(a)_m, and the verification suites for the
recurrence and for the KNS property list.

Each table cell is a finite sum of quantum dimensions.  Summands are
first carried to their dominant alcove representatives with signs; equal
representatives cancel in integer arithmetic, so a cell whose summands
cancel completely is certified zero exactly, and a cell collapsing to
representatives with certified values gets an exact integer tag.  A
table stores only its cell values: the summands of a cell and the
survivors of their cancellation are derived again on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Mapping

import mpmath
import numpy as np

from .affine import AffineWeight, affinize, reduce_to_alcove
from .dynkin import DynkinData, Weight, build_dynkin
from .qdim import QDimValue, precision_bits, qdim_affine
from .recurrence import terms

Cell = tuple[int, int]


@dataclass(frozen=True)
class KRDecomposition:
    """Decomposition of one character of the recurrence family into
    irreducible highest weights (all multiplicities are one)."""

    a: int
    m: int
    terms: tuple[Weight, ...]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples with the given sum, lexicographically
    descending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def kr_decompose(a: int, m: int, dynkin: DynkinData) -> KRDecomposition:
    """Irreducible decomposition of the (a, m) character.

    For family A and for the two fork tips of family D the character is
    already irreducible with highest weight m * omega_a.  For a tail node
    of D the summands run over weights k_a omega_a + k_{a-2} omega_{a-2}
    + ... down the alternating chain (ending at omega_1 for odd a, with a
    slack variable in place of the vanishing omega_0 for even a), the
    coefficients summing to m.
    """
    r = dynkin.rank
    if not 1 <= a <= r:
        raise ValueError(f"node index {a} outside 1..{r}")
    if m < 0:
        raise ValueError(f"negative label m = {m}")
    if dynkin.family == "A" or a >= r - 1:
        coords = tuple(m * (i == a - 1) for i in range(r))
        return KRDecomposition(a, m, (Weight(coords),))

    indices = list(range(a, 0, -2))  # a, a-2, ..., down to 2 or 1
    slack = a % 2 == 0  # even chains end at the zero weight
    terms = []
    for comp in _compositions(m, len(indices) + (1 if slack else 0)):
        coords = [0] * r
        for idx, c in zip(indices, comp):
            coords[idx - 1] = c
        terms.append(Weight(tuple(coords)))
    return KRDecomposition(a, m, tuple(terms))


def kr_term_count(a: int, m: int, dynkin: DynkinData) -> int:
    """Closed form for the number of summands: C(m + floor(a/2), floor(a/2))
    for tail nodes of D, and 1 otherwise."""
    if dynkin.family == "A" or a >= dynkin.rank - 1:
        return 1
    return comb(m + a // 2, a // 2)


def cell_summands(a: int, m: int, level: int,
                  dynkin: DynkinData) -> tuple[AffineWeight, ...]:
    """The unreduced affinized summands of cell (a, m)."""
    return tuple(affinize(w, level, dynkin) for w in kr_decompose(a, m, dynkin).terms)


def _survivors(a: int, m: int, level: int, dynkin: DynkinData,
               cache: dict) -> tuple[tuple[AffineWeight, int], ...]:
    """Signed dominant representatives of cell (a, m) left after
    cancellation, sorted by coordinates (empty for a combinatorially
    certified zero).  ``cache`` memoises reductions by coordinates."""
    multiplicity: dict[tuple[int, ...], int] = {}
    for aw in cell_summands(a, m, level, dynkin):
        res = cache.get(aw.coords)
        if res is None:
            res = cache[aw.coords] = reduce_to_alcove(aw, dynkin)
        if not res.is_zero:
            key = res.rep.coords
            multiplicity[key] = multiplicity.get(key, 0) + res.sign
    return tuple((AffineWeight(level, key), mult)
                 for key, mult in sorted(multiplicity.items()) if mult)


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

    def max_abs(self) -> mpmath.mpf:
        return max(abs(v.numeric) for v in self.cells.values())

    def summands(self, a: int, m: int) -> tuple[AffineWeight, ...]:
        return cell_summands(a, m, self.level, build_dynkin(self.family, self.rank))

    def survivors(self, a: int, m: int) -> tuple[tuple[AffineWeight, int], ...]:
        return _survivors(a, m, self.level, build_dynkin(self.family, self.rank), {})


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

    Every cell is decomposed, affinized, alcove-reduced with signs, and
    summed over the surviving dominant representatives.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if m_max is None:
        m_max = level + dynkin.coxeter

    reduction_cache: dict[tuple[int, ...], object] = {}
    value_cache: dict[tuple[int, ...], QDimValue] = {}
    cells: dict[Cell, QDimValue] = {}

    with mpmath.workprec(precision_bits()):
        for a in range(1, dynkin.rank + 1):
            for m in range(m_max + 1):
                parts = []
                for rep, mult in _survivors(a, m, level, dynkin, reduction_cache):
                    val = value_cache.get(rep.coords)
                    if val is None:
                        val = value_cache[rep.coords] = qdim_affine(rep, dynkin)
                    parts.append((mult, val))
                cells[(a, m)] = _combine(parts)

    return QTable(family=dynkin.family, rank=dynkin.rank, level=level,
                  coxeter=dynkin.coxeter, m_max=m_max, cells=cells)


# ---------------------------------------------------------------------------
# verification suites


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
        threshold = tol * (1 + float(table.max_abs()) ** 2)
    return QSystemReport(
        max_residual=float(max_res),
        threshold=threshold,
        worst=worst,
        passed=float(max_res) <= threshold,
        residuals=residuals,
    )


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    applicable: bool
    passed: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class KNSReport:
    checks: tuple[PropertyCheck, ...]
    passed: bool

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_kns(table: QTable, tol: float = 1e-9) -> KNSReport:
    """Verify the KNS property list on a table built up to m = level + h.

    Clauses: positivity on 0..k, symmetry about k/2, unit value at k,
    strict growth up to the midpoint, a window of h-1 zeros above k, and
    (family D only) the signed unit row at k + h.
    """
    k, h, r = table.level, table.coxeter, table.rank
    if table.m_max < k + h:
        raise ValueError("KNS verification needs the table up to m = level + coxeter")
    nodes = range(1, r + 1)
    checks: list[PropertyCheck] = []

    def add(name: str, failures: list[str], applicable: bool = True) -> None:
        passed = (not applicable) or (not failures)
        checks.append(PropertyCheck(name, applicable, passed, tuple(failures)))

    with mpmath.workprec(precision_bits()):
        fails = [f"z({a},{m}) = {table.value(a, m)}"
                 for a in nodes for m in range(k + 1)
                 if not table.value(a, m) > 0]
        add("positivity", fails)

        fails = []
        for a in nodes:
            for m in range(1, k):
                delta = abs(table.value(a, m) - table.value(a, k - m))
                if delta > tol:
                    fails.append(f"|z({a},{m}) - z({a},{k - m})| = {mpmath.nstr(delta)}")
        add("symmetry", fails)

        fails = []
        for a in nodes:
            cell = table.cell(a, k)
            if cell.exact == 1:
                continue
            if abs(cell.numeric - 1) > tol:
                fails.append(f"z({a},{k}) = {mpmath.nstr(cell.numeric)}")
        add("unit_boundary", fails)

        fails = [f"z({a},{m - 1}) >= z({a},{m})"
                 for a in nodes for m in range(1, k // 2 + 1)
                 if not table.value(a, m - 1) < table.value(a, m)]
        add("unimodality", fails)

        fails = []
        for a in nodes:
            for j in range(1, h):
                cell = table.cell(a, k + j)
                if cell.is_zero:
                    continue
                if abs(cell.numeric) > tol:
                    fails.append(f"z({a},{k + j}) = {mpmath.nstr(cell.numeric)}")
        add("zero_window", fails)

        if table.family == "D":
            fork_sign = 1 if r % 4 in (0, 1) else -1
            fails = []
            for a in nodes:
                expected = fork_sign if a >= r - 1 else 1
                cell = table.cell(a, k + h)
                if cell.exact == expected:
                    continue
                if cell.exact is not None or abs(cell.numeric - expected) > tol:
                    fails.append(
                        f"z({a},{k + h}) = {mpmath.nstr(cell.numeric)}"
                        f" (exact tag {cell.exact}), expected {expected}"
                    )
            add("top_row", fails)
        else:
            add("top_row", [], applicable=False)

    return KNSReport(tuple(checks), all(c.passed for c in checks))


@dataclass(frozen=True)
class MidpointReport:
    entries: tuple[tuple[str, int, float, bool], ...]
    passed: bool


def midpoint_checks(table: QTable, tol: float = 1e-9) -> MidpointReport:
    """Equalities pinning the table about its midpoint.

    Tail nodes 2..r-2 satisfy z_s = z_{s+1} for odd level (s = (k-1)/2)
    and z_{s-1} = z_{s+1} for even level (s = k/2); the three tip nodes
    satisfy the full reflection z_m = z_{k-m}.
    """
    k, r = table.level, table.rank
    entries: list[tuple[str, int, float, bool]] = []
    with mpmath.workprec(precision_bits()):
        s = k // 2 if k % 2 == 0 else (k - 1) // 2
        for a in range(2, r - 1):
            if k % 2 == 1:
                delta = abs(table.value(a, s) - table.value(a, s + 1))
                entries.append((f"z({a},{s}) = z({a},{s + 1})", a, float(delta),
                                float(delta) <= tol))
            else:
                delta = abs(table.value(a, s - 1) - table.value(a, s + 1))
                entries.append((f"z({a},{s - 1}) = z({a},{s + 1})", a, float(delta),
                                float(delta) <= tol))
        tips = sorted({1, r - 1, r} & set(range(1, r + 1)))
        for a in tips:
            for m in range(k + 1):
                delta = abs(table.value(a, m) - table.value(a, k - m))
                entries.append((f"z({a},{m}) = z({a},{k - m})", a, float(delta),
                                float(delta) <= tol))
    return MidpointReport(tuple(entries), all(e[3] for e in entries))


@dataclass(frozen=True)
class ForcedTailReport:
    """Comparison of the directly computed tail rows against the pattern
    forced by the recurrence from rows <= level+1 plus the first column."""

    applicable: bool
    zero_mismatches: tuple[Cell, ...]
    top_row_mismatches: tuple[int, ...]
    fork_consistent: bool
    passed: bool


def forced_tail_report(table: QTable) -> ForcedTailReport:
    """Family D only: rows k+2 .. k+h-1 must be certified zeros, the top
    row must be exactly 1 on nodes 1..r-2, and the fork cells must carry
    equal exact signs whose product is the node-(r-2) value.
    """
    k, h, r = table.level, table.coxeter, table.rank
    if table.family != "D":
        return ForcedTailReport(False, (), (), True, True)
    if table.m_max < k + h:
        raise ValueError("tail check needs the table up to m = level + coxeter")

    # Seeds of the induction: row k+1 and the whole first column.
    zero_mismatch = [(a, k + 1) for a in range(1, r + 1)
                     if not table.cell(a, k + 1).is_zero]
    zero_mismatch += [(1, k + j) for j in range(2, h)
                      if not table.cell(1, k + j).is_zero]
    seed_ok = not zero_mismatch and table.cell(1, k + h).exact == 1

    # Forced zeros row by row, then the forced unit top row.
    zero_mismatch += [(a, k + j) for j in range(2, h) for a in range(2, r + 1)
                      if not table.cell(a, k + j).is_zero]
    top_mismatch = [a for a in range(1, r - 1) if table.cell(a, k + h).exact != 1]

    fork_left = table.cell(r - 1, k + h)
    fork_right = table.cell(r, k + h)
    fork_ok = (
        fork_left.exact in (-1, 1)
        and fork_left.exact == fork_right.exact
        and fork_left.exact * fork_right.exact == 1  # product equals z(r-2) = 1
    )
    return ForcedTailReport(
        applicable=True,
        zero_mismatches=tuple(zero_mismatch),
        top_row_mismatches=tuple(top_mismatch),
        fork_consistent=fork_ok,
        passed=seed_ok and not zero_mismatch and not top_mismatch and fork_ok,
    )
