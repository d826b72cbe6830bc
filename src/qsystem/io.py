"""Serialization of tables and solver reports.

JSON numerics are written as decimal strings with enough digits to
reconstruct the working-precision value exactly, so serialize/parse is
lossless and exact tags survive the round trip.  Provenance rows are joined
from texts made once per table or node and streamed (``_json_pieces``).

The reader checks the provenance it reads against the writer's pieces in
one comparison.  A text that opens with the writer's header is compared in
place, so its provenance is never parsed; any other JSON is loaded once and
dumped without whitespace in the writer's keys and order, and compared with
the pieces less their whitespace.  A mismatch raises ``ValueError`` naming
the first cell that differs.

``table`` and ``qdim`` are imported only in the bodies of the functions
that use them at run time, so serializing a solution loads neither.
"""

from __future__ import annotations

import csv
import io as _io
import json
from fractions import Fraction
from itertools import chain, islice, zip_longest
from math import comb
from os.path import commonprefix
from typing import TYPE_CHECKING, Iterable, Iterator

import mpmath
import numpy as np
from mpmath.libmp import from_int, from_str, round_nearest, to_str

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
    """``_mpf_str`` of each distinct cell value, keyed by its ``_mpf_``, from libmp's ``to_str``."""
    digits = int(precision_bits() * 0.30103) + 10
    return {key: to_str(key, digits, strip_zeros=True)
            for key in {cell.numeric._mpf_ for cell in table.cells.values()}}


def _joined_rows(index: np.ndarray, vocab: np.ndarray) -> np.ndarray:
    """The text of each row of ``index``: its ``vocab`` entries, the last ending in "|"."""
    return np.array("".join(vocab[index].ravel().tolist()).split("|")[:-1], dtype=object)


def _json_pieces(table: QTable, numerics: dict[tuple, str] | None = None) -> Iterator[list[str]]:
    """The JSON table as lists of strings: its header, then per cell the exact
    tag, the numeric value and the provenance, the unreduced affinized
    summands in the order of ``kr_decompose``, a list yielded once _BLOCK_ROWS
    rows are pending.  A row is ",\n", a head and a tail (the first of a cell
    has no ",\n"); a node of one summand per cell has the head column 0.  A
    tail node a of D has the head column 0 and nodes 1..w (w = 3 for odd a,
    2 for even a) and the tail nodes w + 1..r of its upper chain parts U =
    (u_a, u_(a-2), .., u_(w+2)).  The heads of ΣU = s in cell (a, m), the rows
    of ``kr_decompose(w, m - s)`` with column 0 lowered by 2s (the tail nodes'
    marks are 2), are made once per table, as one object array of lists; the
    tail of each U, the text of nodes w + 1..a - 1 made once per node for each
    U less u_a and that of nodes a..r made once per u_a, is joined once per
    node of at most _BLOCK_ROWS tuples U, and per run in a larger node; the
    rows of each U are one ``str.join`` of its heads by its tail.
    All join to the bytes of ``json.dumps`` with ``indent=1``.  A numeric is
    the JSON text ``numerics`` maps its cell to, by default of ``_mpf_str``."""
    from . import table as tb  # _BLOCK_ROWS and kr_decompose are looked up at call time
    dynkin, r, k, top, bound = (build_dynkin(table.family, table.rank), table.rank, table.level,
                                table.m_max, tb._BLOCK_ROWS)
    if numerics is None:  # each distinct value formatted and dumped once
        texts = {key: json.dumps(text) for key, text in _numeric_texts(table).items()}
        numerics = {cell: texts[x.numeric._mpf_] for cell, x in table.cells.items()}
    # a node's 0..top, the ends of a part and of a row, then column 0 from k - 2 top (its least)
    vocab = np.array([f",\n     {v}" for v in range(top + 1)] + ["|", "\n    ]|"]
                     + [f",\n    [\n     {v}" for v in range(k - 2 * top, k + 1)], dtype=object)
    first = np.cumsum([0] + list(range(top + 1, 1, -1)))  # heads[w][first[s] + c]: (s, c)
    heads: dict[int, np.ndarray] = {}  # the rows of kr_decompose(w, c) with 2s taken off, and ""
    pieces, n, sep = [f'{{\n "family": {json.dumps(table.family)},\n "rank": {r},\n'
                      f' "level": {k},\n "h": {table.coxeter},\n "cells": ['], 0, ""
    for a in range(1, r + 1):
        single = dynkin.family == "A" or a >= r - 1 or a == 1  # the row of m omega_a
        if not single:
            w = 2 + a % 2
            if w not in heads:  # for each s, the rows of every c <= top - s
                rows = np.concatenate([tb.kr_decompose(w, c, dynkin).terms[:, :w]
                                       for c in range(top + 1)])
                n_s = [(c + 1) * (c + 2) // 2 for c in range(top, -1, -1)]  # rows of c <= top - s
                i = np.concatenate([np.arange(count) for count in n_s])
                col0 = (k - rows @ dynkin.marks[1:w + 1])[i] - 2 * np.repeat(range(top + 1), n_s)
                nodes = _joined_rows(np.column_stack([rows, np.full(len(rows), top + 1)]), vocab)
                it = iter((vocab[col0 + 3 * top + 3 - k] + nodes[i]).tolist())  # by s, c, row
                heads[w] = np.fromiter(([*islice(it, c + 1), ""] for s in range(top + 1)
                                        for c in range(top + 1 - s)), dtype=object,
                                       count=first[-1] + 1)
            comps = tb.stars_and_bars(top, a // 2)  # U, then the slack
            inner, inner_of = tb._rank_rows(comps[:, 1:-1], [top + 1] * (a // 2 - 2))  # U less u_a
            index = np.zeros((max(len(inner), top + 1), r + 2), dtype=np.int64)
            index[:len(inner), a - 2:w:-2], index[:, a], index[:, -1] = inner, top + 1, top + 2
            lows = _joined_rows(index[:len(inner), min(a, w + 1):a + 1], vocab)[inner_of]
            index[:top + 1, a] = range(top + 1)
            highs = _joined_rows(index[:top + 1, max(a, w + 1):], vocab)[comps[:, 0]]
            if len(comps) <= bound:  # larger nodes join per run: none holds all its tails
                lows, highs = lows + highs, None
            sums = top - comps[:, -1]
            at = first[sums] - sums  # the heads of U in cell m at heads[w][at + m]
        for m in range(top + 1):
            if single:
                lo = [",\n     0" * (a - 1) + f",\n     {m}" + ",\n     0" * (r - a) + "\n    ]"]
                hi, hs, size = None, [[f",\n    [\n     {k - dynkin.marks[a] * m}", ""]], 1
            else:
                keep = sums <= m
                lo, hi = lows[keep], None if highs is None else highs[keep]
                hs, size = heads[w][at[keep] + m], comb(m + a // 2, a // 2)
            cell = table.cells[(a, m)]
            pieces.append(f'{sep}\n  {{\n   "a": {a},\n   "m": {m},\n   "exact": '
                          f'{"null" if cell.exact is None else cell.exact},\n   "numeric": '
                          f'{numerics[(a, m)]},\n   "provenance": [\n')
            sep, start, i = ",", len(pieces), 0
            # the rows before each run where the cell reaches the bound (one of a row does not)
            ends = None if n + size <= bound else np.cumsum(np.append(0, m + 1 - sums[keep]))
            while i < len(hs):  # runs up to the first that brings the pending rows to the bound
                j = len(hs) if ends is None else min(int(ends.searchsorted(bound - n + ends[i])),
                                                     len(hs))
                pieces += map(str.join, lo[i:j] if hi is None else lo[i:j] + hi[i:j], hs[i:j])
                if i == 0:  # the cell's first row, after its head, has no ",\n"
                    pieces[start] = pieces[start][2:]
                n, i = n + (size if ends is None else int(ends[j] - ends[i])), j
                if n >= bound:
                    yield pieces
                    pieces, n = [], 0
            pieces.append("\n   ]\n  }")
    yield pieces + ["\n ]\n}"]


def qtable_json_chunks(table: QTable, numerics: dict[tuple, str] | None = None) -> Iterator[str]:
    """The JSON table in pieces of about _BLOCK_ROWS provenance rows."""
    return map("".join, _json_pieces(table, numerics))


def qtable_to_json(table: QTable) -> str:
    return "".join(chain.from_iterable(_json_pieces(table)))


def qtable_from_dict(data: dict) -> QTable:
    """The table of JSON data; each distinct numeric string is parsed once.
    The header's h must be the Coxeter number of its diagram, an exact tag
    -1, 0 or 1 and a tagged cell's numeric exactly its tag; an untagged
    numeric is read as written."""
    from .qdim import EXACT, QDimValue
    from .table import QTable
    family, rank, h = data["family"], int(data["rank"]), int(data["h"])
    if h != build_dynkin(family, rank).coxeter:
        raise ValueError(f"h = {h} is not the Coxeter number of {family}{rank}")
    bits, cells = precision_bits(), {}
    parsed = {text: mpmath.mp.make_mpf(from_str(text, bits, round_nearest))
              for text in {e["numeric"] for e in data["cells"]}}
    for e in data["cells"]:
        cell, tag, numeric = (int(e["a"]), int(e["m"])), e["exact"], parsed[e["numeric"]]
        if tag is not None and (int(tag) not in EXACT or numeric._mpf_ != from_int(int(tag))):
            raise ValueError(f"cell {cell}: exact tag {tag} with numeric {e['numeric']}")
        cells[cell] = QDimValue(exact=None, numeric=numeric) if tag is None else EXACT[int(tag)]
    m_max = max((m for _, m in cells), default=0)
    return QTable(family=family, rank=rank, level=int(data["level"]), coxeter=h, m_max=m_max,
                  cells=cells)


# The writer's header and cell head (numeric quoted, then bare); other JSON goes to json.loads.
_HEADER = (r'\{\n "family": "([^"\\]*)",\n "rank": (\d+),\n "level": (-?\d+),\n'
           r' "h": (-?\d+),\n "cells": \[')
_CELL_HEAD = (r'\n  \{\n   "a": (\d+),\n   "m": (\d+),\n   "exact": (null|-?\d+),\n'
              r'   "numeric": ("([^"\\]*)"),\n   "provenance": \[\n')
_COMPACT_HEAD = r'\{"a":([^,]*),"m":([^,]*),'  # a cell head as the reader dumps other JSON
_WHITESPACE = str.maketrans("", "", " \t\n\r")  # the writer's, all between tokens


def _first_difference(text: str, chunks: Iterable[str]) -> int | None:
    """Where ``text`` first differs from ``chunks`` joined and JSON whitespace, or None."""
    pos = 0
    for chunk in chunks:
        if not text.startswith(chunk, pos):
            return pos + len(commonprefix([text[pos:pos + len(chunk)], chunk]))
        pos += len(chunk)
    return pos if text[pos:].strip(" \t\n\r") else None


def _cell_order(got: list, table: QTable) -> str | None:
    """Why the cells ``got``, in order, are not the table's cells in the
    writer's order, naming the first that differs; None if they are."""
    want = ((a, m) for a in range(1, table.rank + 1) for m in range(table.m_max + 1))
    for x, y in zip_longest(got, want):
        if x != y:
            return (f"cell {y} is missing" if x is None else f"cell {x} is extra" if y is None
                    else f"cell {x} stands where the writer puts {y}")
    return None


def qtable_from_json(text: str) -> QTable:
    """The table of a JSON text, whose provenance must be the writer's.

    A text that opens with the writer's header is held to its layout: the
    table is built from the header and cell heads, and the writer's pieces,
    with the numerics of the heads, are compared with the text in place.
    Any other JSON is loaded once and its dump without whitespace, in the
    writer's keys and order, compared with the pieces less their whitespace.
    Malformed data, a cell missing, extra or out of order, or provenance
    that differs raises ``ValueError``, naming the first cell that differs."""
    import re  # loaded with json; only the reader takes it
    header = re.match(_HEADER, text)
    try:
        if header is not None:
            family, rank, level, h = header.groups()
            head, heads, pos = re.compile(_CELL_HEAD), [], header.end()
            while (pos := text.find("{", pos) + 1) > 0:  # after the header, only cell heads open
                if match := head.match(text, pos - 4):  # braces: memchr finds them
                    heads.append(match.groups())
            data = {"family": family, "rank": rank, "level": level, "h": h,
                    "cells": [{"a": a, "m": m, "exact": None if exact == "null" else exact,
                               "numeric": numeric} for a, m, exact, _, numeric in heads]}
            numerics, got, mark = [groups[3] for groups in heads], text, '\n  {\n   "a": '
        else:
            data = json.loads(text)
            cells = [{key: e[key] for key in ("a", "m", "exact", "numeric", "provenance")}
                     for e in data["cells"]]
            got = json.dumps({**{key: data[key] for key in ("family", "rank", "level", "h")},
                              "cells": cells}, separators=(",", ":"))
            numerics = [json.dumps(e["numeric"]) for e in cells]
            head, mark = re.compile(_COMPACT_HEAD), '{"a":'
        table = qtable_from_dict(data)
        order = [(int(e["a"]), int(e["m"])) for e in data["cells"]]
    except (KeyError, TypeError, OverflowError, AttributeError) as exc:  # int() of an infinite
        raise ValueError(f"not a JSON table: {exc!r}") from exc  # float, a numeric not a string
    if (why := _cell_order(order, table)) is not None:
        raise ValueError(why)
    chunks = qtable_json_chunks(table, dict(zip(order, numerics)))
    at = _first_difference(got, chunks if header else (c.translate(_WHITESPACE) for c in chunks))
    if at is not None:
        start = got.rfind(mark, 0, at)  # the head of the cell that differs
        cell = head.match(got, start) if start >= 0 else None
        raise ValueError(f"cell ({cell[1]}, {cell[2]}): provenance differs from the writer's"
                         if cell else "the header differs from the writer's")
    return table


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


def _relative_residual_mpf(sol: RestrictedSolution) -> mpmath.mpf:
    return mpmath.fdiv(sol.residual_mpf, max(1.0, sol.term_scale), prec=precision_bits())


def _e3(x: float, exact: mpmath.mpf) -> str:
    """``x`` as ``%.3e``, or its mpf ``exact`` in that layout where x underflowed to 0.0."""
    return f"{x:.3e}" if x or not exact else mpmath.nstr(exact, 4, strip_zeros=False)


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
        "residual_mpf": _mpf_str(sol.residual_mpf),
        "relative_residual": sol.relative_residual,
        "relative_residual_mpf": _mpf_str(_relative_residual_mpf(sol)),
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
            "delta_mpf": _mpf_str(dilog.delta_mpf),
        }
    if table_deviation is not None:
        out["table_deviation"] = table_deviation
    return out


def solution_to_text(sol: RestrictedSolution,
                     dilog: DilogReport | None = None,
                     table_deviation: float | None = None) -> str:
    lines = [
        f"{sol.family}{sol.rank}, level {sol.level}: "
        f"residual {_e3(sol.residual, sol.residual_mpf)} after {sol.iterations} iterations"
        f" (relative {_e3(sol.relative_residual, _relative_residual_mpf(sol))})"
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
            f" (delta {_e3(dilog.delta, dilog.delta_mpf)})"
        )
    return "\n".join(lines) + "\n"
