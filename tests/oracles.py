"""Reference implementations that only the tests call: classical weights
and the extended Cartan matrix, reflection actions, extended-diagram
automorphisms, greedy and full-row alcove reduction, the recursive
summand enumeration, the chunked per-cell survivor grouping, a node's
summands in packed blocks, the dict form of the JSON table and its reader
through ``json.loads``, dominant weights, the Weyl-orbit and the
one-weight sine-product quantum dimensions, the cell combination, the
recurrence residuals and the positivity, symmetry and growth checks in
mpf arithmetic, one-weight wrappers of the library's block functions, the
dense log-form Jacobians, the one-start-at-a-time float Newton and
uniqueness probe, the float Newton's kernels with their indices looked up
at every call, the Rogers dilogarithm in mpf arithmetic with the
dilogarithm sum that evaluates it per argument, and a text comparison
that reports only the first difference."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp, to_fixed

import qsystem.affine
import qsystem.dynkin
import qsystem.qdim
import qsystem.table
from qsystem import solver
from qsystem.affine import AffineWeight, ReductionResult, reduce_to_alcove
from qsystem.checks import PropertyCheck, scale
from qsystem.dynkin import DynkinData, positive_roots
from qsystem.io import _mpf_str, qtable_from_dict
from qsystem.qdim import QDimValue, precision_bits
from qsystem.recurrence import terms
from qsystem.table import QTable, kr_decompose

_WEYL_ORDER_CAP = 10**6


@dataclass(frozen=True)
class Weight:
    """An integral weight in the fundamental-weight basis."""

    coords: tuple[int, ...]

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


def is_dominant(w: AffineWeight) -> bool:
    return all(c >= 0 for c in w.coords)


@lru_cache(maxsize=None)
def extended_cartan(dynkin: DynkinData) -> tuple[tuple[int, ...], ...]:
    """The (r+1) x (r+1) matrix of pairings between the simple roots
    together with the negative of the highest root at index 0."""
    rank, cartan = dynkin.rank, dynkin.cartan
    # Highest-root pairings give row/column 0 of the extended matrix.
    theta = dynkin.marks[1:]
    theta_pair = [sum(theta[i] * cartan[i][j] for i in range(rank)) for j in range(rank)]
    ext = [[0] * (rank + 1) for _ in range(rank + 1)]
    ext[0][0] = sum(theta[i] * theta_pair[i] for i in range(rank))
    for j in range(rank):
        ext[0][j + 1] = ext[j + 1][0] = -theta_pair[j]
        for i in range(rank):
            ext[i + 1][j + 1] = cartan[i][j]
    assert ext[0][0] == 2, "highest root must have squared length 2"
    return tuple(tuple(row) for row in ext)


def affinize(weight: Weight, level: int, dynkin: DynkinData) -> AffineWeight:
    """One classical weight through the library's block ``affinize``."""
    row, = qsystem.affine.affinize(np.array([weight.coords], dtype=np.int64), level, dynkin)
    return AffineWeight(level, tuple(int(c) for c in row))


def qdim_affine(w: AffineWeight, dynkin: DynkinData) -> QDimValue:
    """One affine weight through the library's block ``qdim_affine``."""
    value, = qsystem.qdim.qdim_affine(np.array([w.coords], dtype=np.int64), w.level, dynkin)
    return value


def qdim(weight: Weight, level: int, dynkin: DynkinData) -> QDimValue:
    """One classical weight at level k through the library's block ``qdim_affine``."""
    return qdim_affine(affinize(weight, level, dynkin), dynkin)


def reflect(i: int, w: AffineWeight, dynkin: DynkinData) -> AffineWeight:
    """Fundamental reflection at node i, acting linearly on coordinates."""
    row = extended_cartan(dynkin)[i]
    wi = w.coords[i]
    if wi == 0:
        return w
    return AffineWeight(w.level, tuple(c - wi * row[j] for j, c in enumerate(w.coords)))


def shifted_action(word: tuple[int, ...] | list[int], w: AffineWeight,
                   dynkin: DynkinData) -> AffineWeight:
    """Apply s_{i_1} ... s_{i_n} to w under the shifted action.

    Implemented by shifting every coordinate up by one, reflecting, and
    shifting back down.
    """
    mu = [c + 1 for c in w.coords]
    for i in word:
        row = extended_cartan(dynkin)[i]
        mi = mu[i]
        if mi:
            mu = [mu[j] - mi * row[j] for j in range(len(mu))]
    return AffineWeight(w.level, tuple(c - 1 for c in mu))


@lru_cache(maxsize=None)
def diagram_automorphisms(dynkin: DynkinData) -> tuple[tuple[int, ...], ...]:
    """All node permutations of the extended diagram preserving pairings.

    Backtracking search over at most rank+1 nodes, pruned by the sorted
    row profile of the extended matrix.  Marks are preserved
    automatically by any such permutation.
    """
    c = extended_cartan(dynkin)
    n = dynkin.rank + 1
    profile = [tuple(sorted(row)) for row in c]
    found: list[tuple[int, ...]] = []
    perm = [-1] * n
    used = [False] * n

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(perm))
            return
        for j in range(n):
            if used[j] or profile[j] != profile[i]:
                continue
            if all(c[j][perm[t]] == c[i][t] for t in range(i)):
                perm[i] = j
                used[j] = True
                extend(i + 1)
                used[j] = False
        perm[i] = -1

    extend(0)
    return tuple(sorted(found))


def orbit_of_zero(dynkin: DynkinData) -> frozenset[int]:
    """Nodes reachable from node 0 under extended-diagram automorphisms."""
    return frozenset(p[0] for p in diagram_automorphisms(dynkin))


def apply_automorphism(perm: tuple[int, ...], w: AffineWeight) -> AffineWeight:
    """Permute affine coordinates: node i's coordinate moves to node perm[i]."""
    coords = [0] * len(w.coords)
    for i, c in enumerate(w.coords):
        coords[perm[i]] = c
    return AffineWeight(w.level, tuple(coords))


class IterationCapExceeded(RuntimeError):
    """Greedy alcove reduction ran past its reflection cap; indicates a bug."""


def reduce_to_alcove_greedy(w: AffineWeight, dynkin: DynkinData,
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
    neighbours = [[(j, c) for j, c in enumerate(row) if c and j != i]
                  for i, row in enumerate(extended_cartan(dynkin))]
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


def reduce_to_alcove_full_row(w: AffineWeight, dynkin: DynkinData,
                              cap: int = 10**6) -> ReductionResult:
    """Carry w to its dominant representative under the shifted action.

    Greedy loop on mu = w + (1,...,1): a zero coordinate means mu sits on
    a reflection wall, so the value is zero; otherwise reflect at the
    smallest negative coordinate and flip the sign until all coordinates
    are positive.  Positive level guarantees termination; the cap only
    guards against internal bugs.
    """
    if w.level < 1:
        raise ValueError(f"alcove reduction requires level >= 1, got {w.level}")
    n = len(w.coords)
    rows = extended_cartan(dynkin)
    mu = [c + 1 for c in w.coords]
    sign = 1
    for _ in range(cap):
        neg = -1
        on_wall = False
        for i, v in enumerate(mu):
            if v == 0:
                on_wall = True
                break
            if v < 0 and neg < 0:
                neg = i
        if on_wall:
            return ReductionResult(rep=None, sign=0)
        if neg < 0:
            rep = AffineWeight(w.level, tuple(v - 1 for v in mu))
            return ReductionResult(rep=rep, sign=sign)
        row = rows[neg]
        mneg = mu[neg]
        mu = [mu[j] - mneg * row[j] for j in range(n)]
        sign = -sign
    raise IterationCapExceeded(f"no dominant representative within {cap} reflections")


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples with the given sum, lexicographically
    descending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            yield (head, *tail)


def kr_terms_recursive(a: int, m: int, dynkin: DynkinData) -> list[tuple[int, ...]]:
    """The classical summands of cell (a, m) in the order of the recursive
    generator: m omega_a on family A and the fork tips, and on a tail node
    of D the compositions of m over omega_a, omega_(a-2), ... (with a
    slack part for even a)."""
    r = dynkin.rank
    if dynkin.family == "A" or a >= r - 1:
        return [tuple(m * (i == a - 1) for i in range(r))]
    indices = list(range(a, 0, -2))
    out = []
    for comp in compositions(m, len(indices) + (a % 2 == 0)):
        coords = [0] * r
        for idx, c in zip(indices, comp):
            coords[idx - 1] = c
        out.append(tuple(coords))
    return out


CHUNK_ROWS = 2**11  # summand rows per reduce_to_alcove call in the chunked oracle


def summand_chunks(cells: list[tuple[int, int]], level: int, dynkin: DynkinData,
                   chunk_rows: int = CHUNK_ROWS) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The summands of ``cells`` as (cell index, affine row) blocks of at
    most ``chunk_rows`` rows, in cell order."""
    ids, blocks, rows = [], [], 0
    for i, (a, m) in enumerate(cells):
        summands = qsystem.affine.affinize(kr_decompose(a, m, dynkin).terms, level, dynkin)
        for lo in range(0, len(summands), chunk_rows):
            piece = summands[lo:lo + chunk_rows]
            if rows + len(piece) > chunk_rows:
                yield np.concatenate(ids), np.concatenate(blocks)
                ids, blocks, rows = [], [], 0
            ids.append(np.full(len(piece), i))
            blocks.append(piece)
            rows += len(piece)
    yield np.concatenate(ids), np.concatenate(blocks)


def survivors_chunked(cells: list[tuple[int, int]], level: int, dynkin: DynkinData,
                      chunk_rows: int = CHUNK_ROWS) -> dict:
    """Signed dominant representatives of each cell left after
    cancellation, sorted by coordinates, from every summand of every cell:
    each chunk of summands is reduced in one call, and equal (cell,
    representative) rows are grouped by ``np.unique``."""
    keys, counts = [], []
    for index, block in summand_chunks(cells, level, dynkin, chunk_rows):
        res = reduce_to_alcove(block, dynkin)
        live = res.sign != 0
        uniq, inverse = np.unique(np.column_stack([index[live], res.rep[live]]),
                                  axis=0, return_inverse=True)
        keys.append(uniq)
        counts.append(np.bincount(inverse.ravel(), weights=res.sign[live], minlength=len(uniq)))
    uniq, inverse = np.unique(np.concatenate(keys), axis=0, return_inverse=True)
    mult = np.bincount(inverse.ravel(), weights=np.concatenate(counts),
                       minlength=len(uniq)).astype(np.int64)
    out = {cell: [] for cell in cells}
    for row, c in zip(uniq[mult != 0].tolist(), mult[mult != 0].tolist()):
        out[cells[row[0]]].append((tuple(row[1:]), c))
    return out


def node_summands(a: int, ms: Iterable[int], level: int,
                  dynkin: DynkinData) -> Iterator[tuple[np.ndarray, list[tuple[int, int]]]]:
    """The unreduced affinized summands of the cells (a, m), m in ``ms``, in
    order, packed into (n, rank + 1) blocks of at most ``qsystem.table._BLOCK_ROWS``
    rows with their runs (m, rows), each piece copied into columns 1.. of one
    buffer whose column 0 is set once per block: the JSON writer's provenance
    before it joined rows from shared heads and tails.  Single summands take m
    in column a; a tail cell's ``kr_decompose`` rows are cut into pieces of
    at most that many rows."""
    bound = qsystem.table._BLOCK_ROWS
    if dynkin.family == "A" or a >= dynkin.rank - 1 or a == 1:  # no call per cell
        cols, ms = slice(a, a + 1), np.fromiter(ms, dtype=np.int64)[:, None]
        pieces = ((ms[i:i + bound], [(m, 1) for m in ms[i:i + bound, 0].tolist()])
                  for i in range(0, len(ms), bound))
    else:
        def tail_pieces():
            for m in ms:
                terms = kr_decompose(a, m, dynkin).terms
                for piece in np.split(terms, range(bound, len(terms), bound)):
                    yield piece, [(m, len(piece))]
        cols, pieces = slice(1, None), tail_pieces()
    buf, runs, n = np.zeros((bound, dynkin.rank + 1), dtype=np.int64), [], 0
    for rows, piece_runs in pieces:
        if n + len(rows) > bound:
            buf[:n, 0] = level - buf[:n, 1:] @ dynkin.marks[1:]
            yield buf[:n].copy(), runs
            runs, n = [], 0
        buf[n:n + len(rows), cols] = rows
        runs += piece_runs
        n += len(rows)
    buf[:n, 0] = level - buf[:n, 1:] @ dynkin.marks[1:]
    yield buf[:n].copy(), runs


def qtable_to_dict(table: QTable) -> dict:
    """The JSON table as one dict; ``json.dumps(qtable_to_dict(t),
    indent=1)`` is the byte layout that ``qtable_to_json`` writes.  The
    provenance of a cell is its recursive summands, each with lambda_0 =
    level - sum of marks times lambda."""
    dynkin = qsystem.dynkin.build_dynkin(table.family, table.rank)
    marks, cells = dynkin.marks[1:], []
    for a in range(1, table.rank + 1):
        for m in range(table.m_max + 1):
            cell = table.cells[(a, m)]
            cells.append({
                "a": a,
                "m": m,
                "exact": cell.exact,
                "numeric": _mpf_str(cell.numeric),
                "provenance": [[table.level - sum(x * y for x, y in zip(marks, t)), *t]
                               for t in kr_terms_recursive(a, m, dynkin)],
            })
    return {
        "family": table.family,
        "rank": table.rank,
        "level": table.level,
        "h": table.coxeter,
        "cells": cells,
    }


def dominant_weights(dynkin: DynkinData, max_level: int) -> Iterator[Weight]:
    """Dominant weights whose mark-weighted coordinate total is <= max_level."""

    def rec(i: int, budget: int, acc: list[int]) -> Iterator[Weight]:
        if i == dynkin.rank:
            yield Weight(tuple(acc))
            return
        mark = dynkin.marks[i + 1]
        for c in range(budget // mark + 1):
            acc.append(c)
            yield from rec(i + 1, budget - mark * c, acc)
            acc.pop()

    yield from rec(0, max_level, [])

class RankTooLarge(ValueError):
    """The finite Weyl group is too large for brute-force evaluation."""


def weyl_group_order(dynkin: DynkinData) -> int:
    if dynkin.family == "A":
        return math.factorial(dynkin.rank + 1)
    return 2 ** (dynkin.rank - 1) * math.factorial(dynkin.rank)


def _signed_orbit(cartan, start: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Weyl orbit of a regular weight with the parity of each element."""
    rank = len(start)
    seen = {start: 1}
    stack = [start]
    while stack:
        v = stack.pop()
        s = seen[v]
        for i in range(rank):
            vi = v[i]
            if vi == 0:
                raise ValueError("orbit of a non-regular weight has no signs")
            img = tuple(v[j] - vi * cartan[i][j] for j in range(rank))
            if img not in seen:
                seen[img] = -s
                stack.append(img)
    return seen


def qdim_oracle(weight: Weight, level: int, dynkin: DynkinData) -> mpmath.mpf:
    """Independent evaluation via the alternating character quotient.

    Sums signed exponentials over the full finite Weyl orbit of
    lambda + rho and of rho, then takes the ratio.  Brute force by
    construction; used as a cross-check for :func:`qdim` and limited to
    Weyl groups of order at most 10^6.
    """
    order = weyl_group_order(dynkin)
    if order > _WEYL_ORDER_CAP:
        raise RankTooLarge(f"Weyl group order {order} exceeds {_WEYL_ORDER_CAP}")
    if not weight.is_dominant():
        raise ValueError("oracle expects a dominant weight")
    rank = dynkin.rank
    n_mod = dynkin.coxeter + level
    roots = positive_roots(dynkin)
    # (omega_i | rho) = half the i-th coordinate sum over positive roots
    rho_pair = [Fraction(sum(r.coeffs[i] for r in roots), 2) for i in range(rank)]

    def alternating_sum(start: tuple[int, ...]) -> mpmath.mpc:
        orbit = _signed_orbit(dynkin.cartan, start)
        assert len(orbit) == order
        total = mpmath.mpc(0)
        for v, s in orbit.items():
            arg = 2 * sum(c * g for c, g in zip(v, rho_pair)) / n_mod
            total += s * mpmath.expjpi(mpmath.mpf(arg.numerator) / arg.denominator)
        return total

    with mpmath.workprec(precision_bits() + 32):
        numer = alternating_sum(tuple(c + 1 for c in weight.coords))
        denom = alternating_sum((1,) * rank)
        value = numer / denom
        assert abs(value.imag) < mpmath.mpf(2) ** (-precision_bits() // 2)
        return value.real


class SineTable:
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
        with mpmath.workprec(bits):
            self.sines = tuple(mpmath.sinpi(mpmath.mpf(q) / n_mod) for q in range(n_mod))
            self.denominator = self._product(self.height_counts)
        assert all(self.sines[q] > 0 for q in range(1, n_mod))

    def _product(self, counts: np.ndarray) -> mpmath.mpf:
        out = mpmath.mpf(1)
        for q in np.nonzero(counts)[0]:
            out *= self.sines[int(q)] ** int(counts[q])
        return out


@lru_cache(maxsize=None)
def sine_table(dynkin: DynkinData, level: int, bits: int) -> SineTable:
    return SineTable(dynkin, level, bits)


def qdim_scalar(weight: Weight, level: int, dynkin: DynkinData) -> QDimValue:
    """Quantum dimension of the level-k affinization of one classical
    weight by its own sine product: the differential oracle of the block
    ``qdim_affine``, which must give the same tag and the same mpf."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    bits = precision_bits()
    table = sine_table(dynkin, level, bits)
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


def combine_mpf(parts: list[tuple[int, QDimValue]]) -> QDimValue:
    """The signed integer combination of a cell through mpf operators at the
    working precision: the differential oracle of ``qsystem.table._combine``,
    which must give the same tag and the same mpf."""
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


def verify_qsystem_mpf(table: QTable, dynkin: DynkinData,
                       tol: float = 1e-9) -> qsystem.table.QSystemReport:
    """The recurrence residuals through mpf operators on the object arrays of
    ``recurrence.terms``: the differential oracle of
    ``qsystem.table.verify_qsystem``, which must give the same report."""
    residuals: dict[tuple[int, int], float] = {}
    worst = None
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
    return qsystem.table.QSystemReport(max_residual=float(max_res), threshold=threshold,
                                       worst=worst, passed=float(max_res) <= threshold,
                                       residuals=residuals)


def mirror_failures_mpf(value, cells, k: int, tol: float, letter: str = "z") -> tuple[str, ...]:
    """``qsystem.checks.mirror_failures`` through mpf operators."""
    tol = mpmath.mpf(tol)
    fails = []
    for a, m in cells:
        x, y = value(a, m), value(a, k - m)
        delta = abs(x - y)
        if delta > tol and delta > tol * scale(x, y):
            fails.append(f"|{letter}({a},{m}) - {letter}({a},{k - m})| = {mpmath.nstr(delta)}")
    return tuple(fails)


def positive_checks_mpf(value, rank: int, k: int, tol: float,
                        letter: str = "z") -> tuple[PropertyCheck, PropertyCheck, PropertyCheck]:
    """``qsystem.checks.positive_checks`` through mpf comparisons."""
    nodes, half = range(1, rank + 1), range(k // 2 + 1)
    return (
        PropertyCheck("positivity", tuple(f"{letter}({a},{m}) = {value(a, m)}" for a in nodes
                                          for m in range(k + 1) if not value(a, m) > 0)),
        PropertyCheck("symmetry", mirror_failures_mpf(
            value, ((a, m) for a in nodes for m in half), k, tol, letter)),
        PropertyCheck("unimodality", tuple(
            f"{letter}({a},{m - 1}) >= {letter}({a},{m})"
            for a in nodes for m in half[1:] if not value(a, m - 1) < value(a, m))),
    )


# ---------------------------------------------------------------------------
# The log-form Jacobian as a dense matrix, the slow path that the red-black
# Schur solve replaced, and the float Newton one start at a time, as the
# solver ran it before it took a stack of starts.  The grid, the log
# residual and the recurrence terms are the solver's own.


def jacobian_log_einsum(q: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Jacobian of the raw residual in log-coordinates for one grid, as
    three dense einsum blocks."""
    r, k = q.shape[0], q.shape[1] - 1
    square, prod, cross = solver.terms(q, adj)
    same_m, eye = np.eye(k - 1), np.eye(r)
    jac = (np.einsum("ab,aj,ji->ajbi", 2 * eye, square, same_m)
           - np.einsum("ab,aj,ji->ajbi", adj, prod, same_m)
           - np.einsum("ab,aj,ji->ajbi", eye, cross,
                       np.eye(k - 1, k=1) + np.eye(k - 1, k=-1)))
    return jac.reshape(r * (k - 1), r * (k - 1))


def jacobian_log_form_einsum(q: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Jacobian of the log form for one grid, from :func:`jacobian_log_einsum`."""
    square, prod, cross = solver.terms(q, adj)
    f = square - prod - cross
    return ((jacobian_log_einsum(q, adj) - 2 * np.diag(f.reshape(-1)))
            / (prod + cross).reshape(-1, 1))


@lru_cache(maxsize=None)
def _couplings(rank: int, n: int, edges: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in the (rank n)^2 Jacobian of the neighbour
    couplings (a, j)-(b, j), b ~ a, and of the chain couplings
    (a, j)-(a, j -+ 1), for n unknowns per node."""
    adj = np.frombuffer(edges, dtype=bool).reshape(rank, rank)
    chain = np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    return (np.flatnonzero(np.kron(adj, np.eye(n, dtype=bool))),
            np.flatnonzero(np.kron(np.eye(rank, dtype=bool), chain)))


def jacobian_log_dense(w: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """The log-form Jacobian 2I - N as one dense (rn, rn) matrix per grid of
    the stack of weights ``w`` of ``solver._log_residual`` (0, then prod / d
    and cross / d flat), rn = rank (k-1), scattered into a zeroed array: 2 on
    the diagonal, -prod / d at the neighbours and -cross / d along the
    chain."""
    *batch, width = w.shape
    rank = len(adj)
    size = width // 2
    nbrs, chains = _couplings(rank, size // rank, (adj != 0).tobytes())
    jac = np.zeros((*batch, size * size))
    jac[..., ::size + 1] = 2.0
    jac[..., nbrs] = -w[..., 1:size + 1][..., nbrs // size]
    jac[..., chains] = -w[..., size + 1:][..., chains // size]
    return jac.reshape(*batch, size, size)


def jacobian_from_blocks(n_rb: np.ndarray, n_br: np.ndarray, plan) -> np.ndarray:
    """The dense log-form Jacobian 2I - N of one grid, rebuilt from the
    red-black blocks of ``solver._jacobian_log``; their padding adds zeros."""
    jac = 2 * np.eye(len(plan.red) + len(plan.black))
    np.subtract.at(jac, (plan.red[:, None], plan.black_rb), n_rb)
    np.subtract.at(jac, (plan.black[:, None], plan.red[plan.br_col]), n_br)
    return jac


def dense_log_solver(w: np.ndarray, plan, invert: bool = False):
    """``solver._log_solver`` for one grid through ``np.linalg.solve`` of
    :func:`jacobian_log_dense` at every call."""
    jac = jacobian_log_dense(w, plan.adj)
    return lambda b: np.linalg.solve(jac, b.reshape(-1)).reshape(b.shape)


def newton_float_sequential(dynkin: DynkinData, k: int, u0: np.ndarray, max_iter: int,
                            dense: bool = False) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton with Armijo backtracking from the single start ``u0``,
    each step solved by the solver's own red-black solve on a stack of one
    grid, or with ``dense`` by ``np.linalg.solve`` of
    :func:`jacobian_log_dense`."""
    plan, adj = solver._plan(dynkin, k), np.array(dynkin.adjacency, dtype=float)
    u = u0
    q = solver._grid(dynkin, k, np.exp(u))
    iterations = 0
    with np.errstate(all="ignore"):
        g, w = solver._log_residual(q, adj)
        nrm = float(np.max(np.abs(g)))
        while not nrm <= solver._LOG_TOL and iterations < max_iter:
            if dense:
                try:
                    step = np.linalg.solve(jacobian_log_dense(w, adj), -g.reshape(-1))
                except np.linalg.LinAlgError:
                    break
            else:
                step, singular = solver._newton_steps(g[None], w[None], plan)
                if singular[0]:
                    break
            step = step.reshape(u.shape)
            base, t = float(np.sum(g**2)), 1.0
            while t > solver._BACKTRACK_FLOOR:
                q_t = solver._grid(dynkin, k, np.exp(u + t * step))
                g_t, w_t = solver._log_residual(q_t, adj)
                if float(np.sum(g_t**2)) < base * (1 - 1e-4 * t):
                    break
                t /= 2
            else:
                break
            u, q, g, w = u + t * step, q_t, g_t, w_t
            nrm = float(np.max(np.abs(g)))
            iterations += 1
    return q, nrm, iterations, nrm <= solver._LOG_TOL


def uniqueness_probe_sequential(dynkin: DynkinData, k: int, n_starts: int = 20,
                                seed: int = 0, tol: float = 1e-8,
                                max_iter: int = 400) -> solver.ProbeReport:
    """The uniqueness probe with one Newton solve per start."""
    if k == 1:
        return solver.ProbeReport(n_starts, n_starts, 0.0, True)
    u0 = np.log(solver._initial_guess(dynkin.rank, k))
    ref, _, _, ok = newton_float_sequential(dynkin, k, u0, max_iter)
    if not ok:
        raise solver.NoConvergence("reference solve failed", float("inf"))
    rng = np.random.default_rng(seed)
    converged = 0
    worst = 0.0
    for _ in range(n_starts):
        start = u0 * (1 + rng.uniform(-0.5, 0.5, size=u0.shape))
        q, _, _, ok = newton_float_sequential(dynkin, k, start, max_iter)
        if not ok:
            continue
        converged += 1
        worst = max(worst, float(np.max(np.abs(q - ref) / np.maximum(1.0, np.abs(ref)))))
    return solver.ProbeReport(n_starts, converged, worst,
                              converged == n_starts and worst <= tol)


# ---------------------------------------------------------------------------
# The float Newton's kernels as the solver ran them before it built one plan
# per diagram and level: every call looks its red-black indices up by a key
# made from the adjacency and offsets the Schur path cells for its stack, the
# weights are three arrays concatenated, and each accepted candidate is
# written back through live[search[good]].


@lru_cache(maxsize=None)
def red_black_indices(rank: int, n: int, edges: bytes) -> tuple[np.ndarray, ...]:
    """The red and black unknowns, red the smaller colour class; per unknown,
    the slots of its weights and the unknowns of the other colour they couple
    it to, padded with the zero slot 0; and the Schur cell of each
    red-black-red path, padded ones included."""
    adj = np.frombuffer(edges, dtype=bool).reshape(rank, rank)
    tree = np.zeros(rank, dtype=int)
    for a, b in zip(*np.nonzero(np.triu(adj))):
        tree[b] = 1 - tree[a]
    colour = ((tree[:, None] + np.arange(n)) % 2).ravel()
    colour ^= 2 * colour.sum() < colour.size
    red, black = np.flatnonzero(colour == 0), np.flatnonzero(colour)
    kind = np.kron(adj, np.eye(n)) + 2 * np.kron(np.eye(rank), np.eye(n, k=1) + np.eye(n, k=-1))
    slot = np.where(kind > 0, (kind - 1) * rank * n + np.arange(rank * n)[:, None] + 1, 0)

    def rows(of, to):
        block = slot[np.ix_(of, to)].astype(int)
        col = np.argsort(block == 0, axis=1, kind="stable")[:, :max((block > 0).sum(1), default=0)]
        return np.take_along_axis(block, col, axis=1), col
    (rb_slot, rb_col), (br_slot, br_col) = rows(red, black), rows(black, red)
    cells = len(red) * np.arange(len(red))[:, None, None] + br_col[rb_col]
    return red, black, rb_slot, rb_col, br_slot, br_col, cells.ravel()


def log_residual_concatenated(q: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``solver._log_residual`` with the weights 0, prod / d and cross / d
    concatenated from three arrays."""
    square, prod, cross = terms(q, adj)
    d, batch = prod + cross, prod.shape[:-2]
    w = [np.zeros((*batch, 1)), (prod / d).reshape(*batch, -1), (cross / d).reshape(*batch, -1)]
    return np.log(square / d), np.concatenate(w, axis=-1)


def jacobian_log_by_key(w: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks N_rb and N_br of ``solver._jacobian_log``, their indices
    looked up by key."""
    _, _, rb_slot, _, br_slot, _, _ = red_black_indices(
        len(adj), w.shape[-1] // (2 * len(adj)), (adj != 0).tobytes())
    return w[..., rb_slot], w[..., br_slot]


def log_solver_by_key(w: np.ndarray, adj: np.ndarray, invert: bool = False):
    """``solver._log_solver`` with its indices looked up by key, the blocks
    from :func:`jacobian_log_by_key` and every path, padded ones included,
    summed by ``np.bincount``."""
    red, black, _, rb_col, _, br_col, cells = red_black_indices(
        len(adj), w.shape[-1] // (2 * len(adj)), (adj != 0).tobytes())
    n_rb, n_br = jacobian_log_by_key(w, adj)
    batch, r, count = w.shape[:-1], len(red), w.size // w.shape[-1]
    at = (r * r * np.arange(count)[:, None] + cells).ravel()
    paths = np.bincount(at, (n_rb[..., None] * n_br[..., rb_col, :]).ravel(), count * r * r)
    schur = 4 * np.eye(r) - paths.reshape(*batch, r, r)
    inverse = np.linalg.inv(schur) if invert else None

    def solve(b: np.ndarray) -> np.ndarray:
        flat = b.reshape(*batch, -1)
        b_b = flat[..., black]
        rhs = (2 * flat[..., red] + np.sum(n_rb * b_b[..., rb_col], axis=-1))[..., None]
        x_r = np.linalg.solve(schur, rhs) if inverse is None else inverse @ rhs
        if inverse is not None:
            x_r += inverse @ (rhs - schur @ x_r)
        x = np.empty_like(flat)
        x[..., red] = x_r = x_r[..., 0]
        x[..., black] = (b_b + np.sum(n_br * x_r[..., br_col], axis=-1)) / 2
        return x.reshape(b.shape)
    return solve


def newton_steps_by_key(g: np.ndarray, w: np.ndarray, adj: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """``solver._newton_steps`` through :func:`log_solver_by_key`."""
    step = np.empty_like(g)
    singular = np.zeros(len(g), dtype=bool)
    groups = -(-len(g) // max(1, solver._JACOBIAN_ENTRIES // max(1, (g[0].size // 2) ** 2)))
    per = -(-len(g) // groups)
    for lo in range(0, len(g), per):
        try:
            step[lo:lo + per] = log_solver_by_key(w[lo:lo + per], adj)(-g[lo:lo + per])
        except np.linalg.LinAlgError:
            for i in range(lo, min(lo + per, len(g))):
                try:
                    step[i:i + 1] = log_solver_by_key(w[i:i + 1], adj)(-g[i:i + 1])
                except np.linalg.LinAlgError:
                    step[i], singular[i] = np.nan, True
    return step, singular


def newton_float_reindexed(dynkin: DynkinData, k: int, u0: np.ndarray, max_iter: int):
    """``solver._newton_float`` on the kernels above, with the whole stack
    kept and each accepted candidate written back through live[search[good]]."""
    adj = np.array(dynkin.adjacency, dtype=float)
    batch = u0.shape[:-2]
    u = u0.reshape(-1, *u0.shape[-2:]).copy()
    iterations = np.zeros(len(u), dtype=int)
    stopped = np.zeros(len(u), dtype=bool)
    with np.errstate(all="ignore"):
        q = solver._grid(dynkin, k, np.exp(u))
        g, w = log_residual_concatenated(q, adj)
        nrm = np.max(np.abs(g), axis=(1, 2))
        while True:
            live = np.flatnonzero(~(nrm <= solver._LOG_TOL) & (iterations < max_iter) & ~stopped)
            if not len(live):
                break
            step, singular = newton_steps_by_key(g[live], w[live], adj)
            stopped[live[singular]] = True
            step, live = step[~singular], live[~singular]
            base = np.sum(g[live].reshape(len(live), -1) ** 2, axis=1)
            t = np.ones(len(live))
            search = np.arange(len(live))
            while len(search):
                cand = u[live[search]] + t[search, None, None] * step[search]
                q_t = solver._grid(dynkin, k, np.exp(cand))
                g_t, w_t = log_residual_concatenated(q_t, adj)
                good = (np.sum(g_t.reshape(len(search), -1) ** 2, axis=1)
                        < base[search] * (1 - 1e-4 * t[search]))
                done = live[search[good]]
                u[done], q[done], g[done], w[done] = cand[good], q_t[good], g_t[good], w_t[good]
                nrm[done] = np.max(np.abs(g_t[good]), axis=(1, 2))
                iterations[done] += 1
                search = search[~good]
                t[search] /= 2
                stopped[live[search[t[search] <= solver._BACKTRACK_FLOOR]]] = True
                search = search[t[search] > solver._BACKTRACK_FLOOR]
    return (q.reshape(*batch, *q.shape[1:]), nrm.reshape(batch).tolist(),
            iterations.reshape(batch).tolist(), (nrm <= solver._LOG_TOL).reshape(batch).tolist())


# ---------------------------------------------------------------------------
# The refinement in mpf arithmetic, as the solver ran it before it held the
# values as integers at one scale.


def polish_mpf(dynkin: DynkinData, k: int,
               q_float: np.ndarray) -> tuple[np.ndarray, mpmath.mpf, int, float]:
    """Mixed-precision iterative refinement of the float solution with mpf
    values: the residual square - prod - cross rounded at the working
    precision, its float64 value divided by d = prod + cross, the
    correction solved by the solver's own log-form solve at the float
    solution and applied as q * exp(delta).  Returns the value grid, the
    rounded residual, the number of steps and the term scale S."""
    bits = precision_bits()
    adj = np.array(dynkin.adjacency)
    square, prod, cross = solver.terms(q_float, adj)
    scale, d = float(np.max(square + prod + cross)), prod + cross
    target = mpmath.ldexp(scale, 8 - bits)
    solve = solver._log_solver(solver._log_residual(q_float, adj)[1], solver._plan(dynkin, k),
                              invert=True)
    q = np.frompyfunc(mpmath.mpf, 1, 1)(q_float)

    def residual(q):
        square, prod, cross = solver.terms(q, adj)
        return square - prod - cross

    f = residual(q)
    res = np.max(np.abs(f))
    steps = 0
    while res > target and steps < bits // solver._BITS_PER_POLISH_STEP:
        step = solve(-f.astype(float) / d)
        q[:, 1:k] *= np.frompyfunc(mpmath.exp, 1, 1)(step)
        f = residual(q)
        res = np.max(np.abs(f))
        steps += 1
    return q, res, steps, scale


# ---------------------------------------------------------------------------
# The Rogers dilogarithm's Bernoulli series with mpf operators in place of the
# solver's libmp calls, and the dilogarithm sum with one L per argument.


@lru_cache(maxsize=None)
def _bernoulli_coefficient(j: int, wp: int) -> int:
    """|B_2j| / (2j+1)! from ``mpmath.bernfrac``, rounded down at the
    fixed-point scale 2^-wp."""
    num, den = mpmath.bernfrac(2 * j)
    return (abs(num) << wp) // (den * math.factorial(2 * j + 1))


def rogers_L_mpf(x) -> mpmath.mpf:
    """Rogers L on [0, 1] at the working precision, through mpf operators:
    z (Li2(y) / z - log(y) / 2) with y = min(x, 1 - x), z = -log(1 - y) and
    Li2(y) / z = 1 - z/4 + sum_j B_2j z^2j / (2j+1)! in fixed point, each
    coefficient from ``mpmath.bernfrac`` as it is first needed."""
    with mpmath.workprec(precision_bits()):
        x = mpmath.mpf(x)
        if not 0 <= x <= 1:
            raise solver.DomainError(f"Rogers dilogarithm needs 0 <= x <= 1, got {x}")
        if x == 0:
            return mpmath.mpf(0)
        if x == 1:
            return mpmath.pi**2 / 6
        y = min(x, 1 - x)  # 1 - x is exact for x >= 1/2
        z = -mpmath.log(mpmath.fsub(1, y, exact=True))
        wp = mpmath.mp.prec + 20
        zf = to_fixed(z._mpf_, wp)
        square, power = zf * zf >> wp, 1 << wp
        total = power - (zf >> 2)
        for j in itertools.count(1):
            power = power * square >> wp
            term = _bernoulli_coefficient(j, wp) * power >> wp
            if not term:
                break
            total += term if j % 2 else -term
        L = z * (mpmath.mp.make_mpf(from_man_exp(total, -wp)) - mpmath.log(y) / 2)
        return mpmath.pi**2 / 6 - L if 2 * x > 1 else L


def dilog_sum_oracle(sol: solver.RestrictedSolution,
                     dynkin: DynkinData) -> tuple[mpmath.mpf, float, Fraction, dict]:
    """lhs, delta, rhs and the arguments of the dilogarithm identity, with
    one :func:`rogers_L_mpf` per argument in ``ndenumerate`` order."""
    k, r, h = sol.level, sol.rank, dynkin.coxeter
    rhs = Fraction((k - 1) * h * r, h + k)
    x_values = {}
    with mpmath.workprec(precision_bits()):
        q = np.array([[sol.value(a, m) for m in range(k + 1)]
                      for a in range(1, r + 1)], dtype=object)
        square, prod, _ = solver.terms(q, np.array(dynkin.adjacency))
        total = mpmath.mpf(0)
        for (a, j), x in np.ndenumerate(prod / square):
            x_values[(a + 1, j + 1)] = x
            total += rogers_L_mpf(x)
        lhs = 6 / mpmath.pi**2 * total
        delta = float(abs(lhs - mpmath.mpf(rhs.numerator) / rhs.denominator))
    return lhs, delta, rhs, x_values


def qtable_from_json_loads(text: str) -> QTable:
    """The table of a JSON text through ``json.loads`` of the whole document,
    every provenance integer parsed and then dropped unchecked: the reader
    before it compared the text with the writer's."""
    return qtable_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Exact comparison of large texts.  pytest's rewritten ``==`` diffs the
# whole texts on failure, which takes minutes for a table's JSON.


def assert_same_text(got: str, want: str, label: object = "") -> None:
    """Fail unless the texts are equal, with the offset of the first
    differing character and about 200 characters of each text around it."""
    if got == want:
        return
    at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    window = slice(max(at - 100, 0), at + 100)
    raise AssertionError(f"{label} texts differ at offset {at} of {len(got)} and {len(want)}:"
                         f"\n got: {got[window]!r}\nwant: {want[window]!r}")
