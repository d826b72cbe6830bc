"""Serialization of tables and solver reports.

JSON numerics are written as decimal strings with enough digits to
reconstruct the working-precision value exactly, so serialize/parse is
lossless and exact tags survive the round trip.

``table`` and ``qdim`` are imported only in the bodies of the functions
that use them at run time, so serializing a solution loads neither.
"""

from __future__ import annotations

import csv
import io as _io
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

import mpmath
import numpy as np

from . import precision_bits
from .dynkin import build_dynkin

if TYPE_CHECKING:
    from .qdim import QDimValue
    from .solver import DilogReport, RestrictedSolution
    from .table import QTable


def _mpf_str(x: mpmath.mpf) -> str:
    digits = int(precision_bits() * 0.30103) + 10
    return mpmath.nstr(x, digits, strip_zeros=True)


def _numeric_texts(table: QTable) -> dict[tuple, str]:
    """``_mpf_str`` of each distinct cell value, keyed by its ``_mpf_``."""
    distinct = {cell.numeric._mpf_: cell.numeric for cell in table.cells.values()}
    return {key: _mpf_str(x) for key, x in distinct.items()}


def _row_tokens(rows: np.ndarray) -> np.ndarray:
    """Each row of an int64 block as JSON text ``",\n    [\n     x0,\n ...\n    ]"``,
    in an (n, w) object array of one token per live column, column 0 among
    them: the fixed text before the column (a column 0 throughout the block
    is literal text) and the value, the last token also the row's end, each
    distinct token made once and all gathered from one object array."""
    live = rows.any(0)
    live[0] = True
    fixed = (",\n    [\n" + ",\n".join(np.where(live, "     %d", "     0")) + "\n    ]").split("%d")
    vals = rows[:, live]
    lo, hi = int(vals.min(initial=0)), int(vals.max(initial=0))
    tokens, index = ((range(lo, hi + 1), vals - lo) if hi - lo < vals.size  # a token per integer
                     else np.unique(vals, return_inverse=True))  # a token per distinct value
    text = [str(v) for v in tokens]
    vocab = [pre + t for pre in fixed[:-2] for t in text] + [fixed[-2] + t + fixed[-1] for t in text]
    return np.array(vocab, dtype=object)[index.reshape(vals.shape)
                                         + np.arange(len(fixed) - 1) * len(text)]


def qtable_json_chunks(table: QTable) -> Iterator[str]:
    """The JSON table in pieces: its header, then per cell the exact tag,
    the numeric value and the provenance (the unreduced affinized
    summands), a node's in the packed blocks of ``node_summands``, each
    formatted at once and joined once, the head of each cell that starts in
    it put before its first row.  The pieces join to the bytes
    that ``json.dumps`` with ``indent=1`` writes for the same data."""
    from .table import node_summands
    dynkin = build_dynkin(table.family, table.rank)
    texts = {key: json.dumps(text) for key, text in _numeric_texts(table).items()}
    yield (f'{{\n "family": {json.dumps(table.family)},\n "rank": {table.rank},\n'
           f' "level": {table.level},\n "h": {table.coxeter},\n "cells": [')
    close, open_cell = "\n   ]\n  }", None
    for a in range(1, table.rank + 1):
        for block, runs in node_summands(a, range(table.m_max + 1), table.level, dynkin):
            tokens = _row_tokens(block)
            pieces, width, start = tokens.ravel().tolist(), tokens.shape[1], 0
            for m, n in runs:
                if (a, m) != open_cell:  # the cell's head, before its first row, without ",\n"
                    cell = table.cells[(a, m)]
                    exact = "null" if cell.exact is None else str(cell.exact)
                    pieces[start] = (f'{close + "," if open_cell else ""}\n  {{\n   "a": {a},\n'
                                     f'   "m": {m},\n   "exact": {exact},\n   "numeric": '
                                     f'{texts[cell.numeric._mpf_]},\n   "provenance": [\n'
                                     + pieces[start][2:])
                    open_cell = (a, m)
                start += n * width
            yield "".join(pieces)
    yield close + "\n ]\n}"


def qtable_to_json(table: QTable) -> str:
    return "".join(qtable_json_chunks(table))


def qtable_from_dict(data: dict) -> QTable:
    """The table of JSON data; each distinct numeric string is parsed once."""
    from .qdim import QDimValue
    from .table import QTable
    with mpmath.workprec(precision_bits()):
        parsed = {text: mpmath.mpf(text) for text in {e["numeric"] for e in data["cells"]}}
    cells = {(int(e["a"]), int(e["m"])): QDimValue(
        exact=None if e["exact"] is None else int(e["exact"]), numeric=parsed[e["numeric"]])
        for e in data["cells"]}
    m_max = max((m for _, m in cells), default=0)
    return QTable(family=data["family"], rank=int(data["rank"]), level=int(data["level"]),
                  coxeter=int(data["h"]), m_max=m_max, cells=cells)


def qtable_from_json(text: str) -> QTable:
    return qtable_from_dict(json.loads(text))


def _cell_text(cell: QDimValue) -> str:
    if cell.exact is not None:
        return str(cell.exact)
    return mpmath.nstr(cell.numeric, 10)


def qtable_to_csv(table: QTable) -> str:
    buf, texts = _io.StringIO(), _numeric_texts(table)
    writer = csv.writer(buf)
    writer.writerow(["a", "m", "value", "exact_tag"])
    for a in range(1, table.rank + 1):
        for m in range(table.m_max + 1):
            cell = table.cells[(a, m)]
            tag = "generic" if cell.exact is None else str(cell.exact)
            writer.writerow([a, m, texts[cell.numeric._mpf_], tag])
    return buf.getvalue()


def qtable_to_text(table: QTable) -> str:
    """Matrix layout: one row per m, one column per node."""
    header = [f"{table.family}{table.rank}, level {table.level}, "
              f"coxeter {table.coxeter}, rows 0..{table.m_max}"]
    col_cells = {
        a: [_cell_text(table.cells[(a, m)]) for m in range(table.m_max + 1)]
        for a in range(1, table.rank + 1)
    }
    widths = {a: max(len(s) for s in col) for a, col in col_cells.items()}
    widths = {a: max(w, len(f"a={a}")) for a, w in widths.items()}
    head = "    m | " + "  ".join(f"a={a}".rjust(widths[a]) for a in sorted(widths))
    lines = [head, "-" * len(head)]
    for m in range(table.m_max + 1):
        row = "  ".join(col_cells[a][m].rjust(widths[a]) for a in sorted(widths))
        lines.append(f"{m:5d} | {row}")
    return "\n".join(header + lines) + "\n"


def solution_to_dict(sol: RestrictedSolution,
                     dilog: DilogReport | None = None,
                     table_deviation: float | None = None) -> dict:
    values = [
        {"a": a, "m": m, "value": _mpf_str(sol.values[(a, m)])}
        for a in range(1, sol.rank + 1)
        for m in range(sol.level + 1)
    ]
    out = {
        "family": sol.family,
        "rank": sol.rank,
        "level": sol.level,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "float_iterations": sol.float_iterations,
        "polish_steps": sol.polish_steps,
        "term_scale": sol.term_scale,
        "values": values,
    }
    if dilog is not None:
        out["dilog"] = {
            "lhs": _mpf_str(dilog.lhs),
            "rhs": str(Fraction(dilog.rhs)),
            "delta": dilog.delta,
        }
    if table_deviation is not None:
        out["table_deviation"] = table_deviation
    return out


def solution_to_text(sol: RestrictedSolution,
                     dilog: DilogReport | None = None,
                     table_deviation: float | None = None) -> str:
    lines = [
        f"{sol.family}{sol.rank}, level {sol.level}: "
        f"residual {sol.residual:.3e} after {sol.iterations} iterations"
    ]
    for a in range(1, sol.rank + 1):
        row = "  ".join(mpmath.nstr(sol.values[(a, m)], 10)
                        for m in range(sol.level + 1))
        lines.append(f"  a={a}: {row}")
    if table_deviation is not None:
        lines.append(f"  max deviation from table: {table_deviation:.3e}")
    if dilog is not None:
        lines.append(
            f"  dilog: lhs {mpmath.nstr(dilog.lhs, 15)} = rhs {dilog.rhs}"
            f" (delta {dilog.delta:.3e})"
        )
    return "\n".join(lines) + "\n"
