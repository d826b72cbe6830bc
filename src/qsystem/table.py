"""Character decompositions of Kirillov-Reshetikhin type, assembly of the
quantum-dimension table z^(a)_m, and the verification suites for the
recurrence and for the KNS property list, whose shared clauses come from
``checks``.

Each table cell is a finite sum of quantum dimensions.  Summands are
first carried to their dominant alcove representatives with signs; equal
representatives cancel in integer arithmetic, so a cell whose summands
cancel completely is certified zero exactly, and a cell collapsing to
representatives with certified values gets an exact integer tag.  The
tail cells of D are slices of two chains of weights, walked as merged signed
prefix states (``_chain_states``); one weight of each class is reduced, and
every cell is read off prefix sums of the signed representatives.
A table stores only its cell values; the JSON writer of ``io`` formats
the unreduced summands of its cells from ``kr_decompose`` rows of nodes
2 and 3 and the upper chain parts of ``stars_and_bars``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Mapping

import mpmath
import numpy as np
from mpmath.libmp import (fzero, mpf_abs, mpf_add, mpf_gt, mpf_mul, mpf_mul_int, mpf_sub,
                          round_nearest, to_float)

from . import precision_bits
from .affine import affinize, reduce_to_alcove
from .checks import (PropertyCheck, PropertyReport, mirror_failures, positive_checks,
                     scale)
from .dynkin import DynkinData
from .qdim import EXACT, QDimValue, qdim_affine
from .recurrence import tuple_terms

Cell = tuple[int, int]


# Children per run of the chain walk, rows per memoised block of stars_and_bars,
# and provenance rows per piece of JSON text; it bounds their memory.
_BLOCK_ROWS = 2**11


@dataclass(frozen=True)
class KRDecomposition:
    """Decomposition of one character of the recurrence family into
    irreducible highest weights (all multiplicities are one): ``terms`` is
    the (n, rank) int64 block of their classical coordinates."""

    a: int
    m: int
    terms: np.ndarray


def stars_and_bars(total: int, parts: int) -> np.ndarray:
    """The nonnegative integer rows of length ``parts`` with the given sum,
    lexicographically descending, stacked from memoised sub-blocks that fit
    one block of _BLOCK_ROWS rows."""
    if comb(total + parts - 1, parts - 1) <= _BLOCK_ROWS:
        return _whole(total, parts).copy()
    return _stacked(total, [stars_and_bars(total - head, parts - 1)
                            for head in range(total, -1, -1)])


@lru_cache(maxsize=None)
def _whole(total: int, parts: int) -> np.ndarray:
    """``stars_and_bars(total, parts)``, memoised only for a block that fits one."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    return _stacked(total, [_whole(total - head, parts - 1) for head in range(total, -1, -1)])


def _stacked(total: int, tails: list[np.ndarray]) -> np.ndarray:
    """The rows of each tail after its head, heads total, total - 1, .., 0."""
    return np.column_stack([np.repeat(np.arange(total, -1, -1), [len(t) for t in tails]),
                            np.concatenate(tails)])


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
    return KRDecomposition(a, m, _chain_weights(a, stars_and_bars(m, a // 2 + 1), r))


def _chain_weights(a: int, comps: np.ndarray, rank: int) -> np.ndarray:
    """Classical (n, rank) rows with the leading columns of ``comps`` as the
    coefficients of omega_a, omega_(a-2), ...; a column past the chain is
    the slack and is dropped."""
    terms = np.zeros((len(comps), rank), dtype=np.int64)
    terms[:, a - 1::-2] = comps[:, :(a + 1) // 2]
    return terms


def kr_term_count(a: int, m: int, dynkin: DynkinData) -> int:
    """Closed form for the number of summands: C(m + floor(a/2), floor(a/2))
    for tail nodes of D, and 1 otherwise."""
    if dynkin.family == "A" or a >= dynkin.rank - 1:
        return 1
    return comb(m + a // 2, a // 2)


def _chain_states(top: int, m_max: int, level: int,
                  dynkin: DynkinData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain weights (see ``_survivors``) off every wall, in classes of one
    representative, highest nonzero position and sum s: per class one row of
    ``stars_and_bars(m_max, p + 1)``, p = (top + 1) // 2, that position and
    the sum of the signs, where it is not 0.

    With mu_i = sum_(j >= i) k_j + r - i, a weight is off every wall iff the
    residues min(mu_i mod N, N - mu_i mod N) are distinct; the representative
    is fixed by their set and the parities of the turns mu_i // N and flips
    (mu_i mod N > N / 2), the sign by that of the pairs i < j whose residues
    rise.  Above the top, mu_i = r - i: residues 0, 1, .. below all others,
    with no turn or flip.  Each head fixes two more below them, mu_i and
    mu_i + 1, adjacent residues (one for omega_1, the last), so each new
    residue is below an even number of earlier ones and the sign is that of
    the heads whose first residue is above their second.  A prefix state
    (rest, first nonzero head, parities, residues) carries the sum of its
    prefixes' signs: a clash drops a child, equal states merge and a sum of 0
    drops.  A depth is expanded in runs of at most _BLOCK_ROWS children; its
    kept children are merged by ``_rank_rows`` on the state columns, the
    residues packed eight to a column, and keep their first prefix."""
    r, shifted, p = dynkin.rank, level + dynkin.coxeter, (top + 1) // 2
    mu = np.arange(m_max + r)
    fold = np.minimum(mu % shifted, -mu % shifted)
    parity = mu // shifted % 2 + 2 * (2 * (mu % shifted) > shifted)  # its turn and its flip
    width = shifted // 2 + 1  # residues 0..N // 2
    above = np.packbits(np.arange(width) < r - top, bitorder="little")  # r - i above the top
    state, weight = np.concatenate([[m_max, p - 1, 0], above])[None], np.ones(1)
    radices, key, sizes = [m_max + 1, p, 4] + [256] * len(above), 3 + len(above), []
    for depth in range(p):
        ends, runs = np.cumsum(state[:, 0] + 1), []
        pair = m_max + r - top + 2 * depth + np.arange(min(2, top - 2 * depth))  # mu_i + its rest
        for lo in range(0, ends[-1], _BLOCK_ROWS):
            child = np.arange(lo, min(lo + _BLOCK_ROWS, ends[-1]))
            parent = np.searchsorted(ends, child, side="right")
            up, rest = state[parent], ends[parent] - 1 - child  # the parent, left after the head
            fixed = pair - rest[:, None]  # the mu_i this head fixes
            new, at = fold[fixed], np.arange(len(child))[:, None]
            used = np.unpackbits(up[:, 3:key].astype("u1"), axis=1, count=width, bitorder="little")
            keep = ~used[at, new].any(1) & (new[:, :1] != new[:, 1:]).all(1)
            used[at, new] = 1
            children = np.column_stack([
                rest, np.where(rest < up[:, 0], np.minimum(up[:, 1], depth), up[:, 1]),
                up[:, 2] ^ np.bitwise_xor.reduce(parity[fixed], axis=1),
                np.packbits(used, axis=1, bitorder="little"), up[:, key:], up[:, 0] - rest])
            signed = np.where(new[:, 0] > new[:, -1], -weight[parent], weight[parent])
            runs.append((children[keep], signed[keep]))
        children, signed = map(np.concatenate, zip(*runs))
        uniq, inverse = _rank_rows(children, radices)
        weight = np.bincount(inverse, weights=signed, minlength=len(uniq))
        state, weight = uniq[weight != 0], weight[weight != 0]
        sizes.append(len(state))
    log = sys.modules.get("logging")  # not loaded, it has no handler to take the record
    if log and log.getLogger(__name__).isEnabledFor(log.DEBUG):
        log.getLogger(__name__).debug("chain %d: %d weights, states per depth %s, %d live",
                                      top, comb(m_max + p, p), sizes, len(state))
    return np.column_stack([state[:, key:], state[:, 0]]), state[:, 1], weight.astype(np.int64)


def _rank_rows(rows: np.ndarray, radices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows in lexicographic order and the index of each row
    among them.  Column i holds values in 0..radices[i] - 1; the columns
    are packed into one mixed-radix int64 key, and the key built so far is
    replaced by its rank whenever the next column would overflow int64.
    Columns past the radices are not keyed: each has that of a key's first row."""
    key, span = np.zeros(len(rows), dtype=np.int64), 1
    for column, radix in zip(rows.T, radices):
        if span > (2**63 - 1) // radix:
            ranked, key = np.unique(key, return_inverse=True)
            span = len(ranked)
        key, span = key * radix + column, span * radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return rows[first], inverse


def _survivors(level: int, dynkin: DynkinData, m_max: int,
               tops: tuple[int, ...]) -> dict[Cell, list[tuple[tuple[int, ...], int]]]:
    """Signed dominant representatives left after cancellation, sorted by
    coordinates (empty for a combinatorially certified zero), of the cells
    (a, m <= m_max) of the fork tips and family A and of the tail nodes of
    D at and below each chain top t in ``tops``, down by twos.

    The tail cells of D below t are slices of one chain: the weights
    k_t omega_t + k_(t-2) omega_(t-2) + ... with coefficient sum
    s <= m_max.  Cell (a, m) holds those that vanish above a, with s <= m
    for even a and s = m for odd a.  One weight of each class of
    ``_chain_states`` is reduced; the class's signed count goes into a dense
    (representative, highest nonzero position, s) array, whose prefix sums
    over the position (and over s for even t) hold every cell as one column.
    The tops r - 2 and r - 3 cover the whole tail.  Fork tips and family A
    have one summand per cell, reduced together in one block.
    """
    r, sums = dynkin.rank, m_max + 1
    singles = [(a, m) for a in range(1, r + 1) for m in range(sums)
               if dynkin.family == "A" or a >= r - 1]
    terms = np.zeros((len(singles), r), dtype=np.int64)
    terms[np.arange(len(singles)), [a - 1 for a, _ in singles]] = [m for _, m in singles]
    res = reduce_to_alcove(affinize(terms, level, dynkin), dynkin)
    out = {cell: [(tuple(rep), sign)] if sign else []
           for cell, rep, sign in zip(singles, res.rep.tolist(), res.sign.tolist())}
    radices = [level // mark + 1 for mark in dynkin.marks]
    for top in tops:
        p = (top + 1) // 2  # chain nodes top, top - 2, ..., 2 or 1
        comps, position, weight = _chain_states(top, m_max, level, dynkin)  # slack last
        res = reduce_to_alcove(affinize(_chain_weights(top, comps, r), level, dynkin), dynkin)
        uniq, rank = _rank_rows(res.rep, radices)
        dense = np.bincount(rank * (p * sums) + position * sums + m_max - comps[:, p],
                            weights=weight, minlength=len(uniq) * p * sums)
        dense = dense.astype(np.int64).reshape(len(uniq), p, sums)
        dense = dense[:, ::-1].cumsum(1)[:, ::-1]  # position i: every weight vanishing above it
        if top % 2 == 0:
            dense = dense.cumsum(2)  # s <= m
        out.update({(a, m): [] for a in range(top, 0, -2) for m in range(sums)})
        rep_tuples = [tuple(row) for row in uniq.tolist()]
        cols = dense.transpose(1, 2, 0)
        nonzero = np.nonzero(cols)
        for i, m, j, c in zip(*[x.tolist() for x in nonzero], cols[nonzero].tolist()):
            out[(top - 2 * i, m)].append((rep_tuples[j], c))
    return out


@dataclass(frozen=True)
class QTable:
    """The array z^(a)_m for a in 1..rank and 0 <= m <= m_max: only the
    cell values."""

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


def _combine(parts: list[tuple[int, QDimValue]]) -> QDimValue:
    """Signed integer combination of quantum dimensions, folded in order on
    libmp tuples at the working precision; a sum of exact parts is their
    integer sum, and one of -1, 0 or 1 is the shared exact value."""
    total, tag, bits = fzero, 0, mpmath.mp.prec
    if len(parts) == 1 and parts[0][0] == 1 and parts[0][1].numeric._mpf_[3] <= bits:
        return parts[0][1]  # its own sum: a value at the working precision is not rounded
    for mult, p in parts:
        total = mpf_add(total, mpf_mul_int(p.numeric._mpf_, mult, bits, round_nearest),
                        bits, round_nearest)
        if tag is not None:
            tag = None if p.exact is None else tag + mult * p.exact
    if tag in EXACT:
        return EXACT[tag]
    return QDimValue(exact=None, numeric=mpmath.mp.make_mpf(total))


def build_qtable(dynkin: DynkinData, level: int, m_max: int | None = None) -> QTable:
    """Assemble the full table of specialised character values.

    The summands of all cells are alcove-reduced with signs, each distinct
    one once; the distinct surviving dominant representatives of the whole
    table are evaluated as one block, and each cell is summed over its own.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if m_max is None:
        m_max = level + dynkin.coxeter
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")

    keys = [(a, m) for a in range(1, dynkin.rank + 1) for m in range(m_max + 1)]
    tops = (dynkin.rank - 2, dynkin.rank - 3) if dynkin.family == "D" else ()
    survivors = _survivors(level, dynkin, m_max, tops)
    reps = sorted({rep for found in survivors.values() for rep, _ in found})
    block = np.array(reps, dtype=np.int64).reshape(len(reps), dynkin.rank + 1)
    values = dict(zip(reps, qdim_affine(block, level, dynkin)))
    with mpmath.workprec(precision_bits()):
        cells = {key: _combine([(mult, values[rep]) for rep, mult in survivors[key]])
                 for key in keys}

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
    1 <= m <= m_max - 1.  Each residual |square - (prod + cross)| is taken
    on libmp tuples at the working precision, rounded to nearest, with the
    square and neighbour product of ``recurrence.tuple_terms`` and the
    operations of mpf arithmetic on the cross product."""
    bits, rnd, m_max = precision_bits(), round_nearest, table.m_max
    q = [[table.value(a, m)._mpf_ for m in range(m_max + 1)] for a in range(1, table.rank + 1)]
    residuals: dict[Cell, float] = {}
    worst: Cell | None = None
    max_res, largest = fzero, 0.0
    for a, (row, edges) in enumerate(zip(q, dynkin.adjacency), start=1):
        nbrs = [q[b][1:-1] for b, edge in enumerate(edges) if edge]
        squares, prods = tuple_terms(row[1:-1], nbrs, bits)
        for m, (square, prod, low, high) in enumerate(zip(squares, prods, row, row[2:]), start=1):
            res = mpf_abs(mpf_sub(square, mpf_add(prod, mpf_mul(low, high, bits, rnd), bits, rnd),
                                  bits, rnd))
            residuals[(a, m)] = size = to_float(res, rnd=rnd)
            if size >= largest and mpf_gt(res, max_res):  # rounding keeps order
                max_res, worst, largest = res, (a, m), size
    # float rounding keeps order, so the float of the largest |z| is the largest float
    top = max(to_float(mpf_abs(x, bits, rnd), rnd=rnd) for row in q for x in row)
    threshold = tol * (1 + top ** 2)
    return QSystemReport(max_residual=largest, threshold=threshold, worst=worst,
                         passed=largest <= threshold, residuals=residuals)


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
