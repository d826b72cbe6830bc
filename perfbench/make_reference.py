#!/usr/bin/env python3
"""Write ``reference.json``, the values the benchmark checks outputs against.

Run from the root of a source checkout::

    python3 perfbench/make_reference.py

It records, at 128-bit working precision, the cell digest of every table
case and of D5 level 4 (with the D5 level-4 cells themselves, for the
text output), and rows 0..k of the tables that the restricted solutions
must reproduce, with the closed value (k-1) h r / (h + k) of the
dilogarithm identity.  Regenerate it only when table values change on
purpose.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import run


def main() -> None:
    os.environ.update(run.PINNED_ENV)
    sys.path.insert(0, str(run.SRC))
    import mpmath
    from qsystem import build_dynkin, build_qtable

    tables = {}
    for case in (*run.TABLE_CASES, ("D", 5, 4)):
        table = build_qtable(build_dynkin(*case[:2]), case[2])
        tables[run.label(*case)] = {"digest": run.cell_digest(run.table_cells(table))}
    d5k4 = build_qtable(build_dynkin("D", 5), 4)
    tables["D5k4"]["cells"] = [[a, m, cell.exact, mpmath.nstr(cell.numeric, run.DIGITS)]
                               for (a, m), cell in sorted(d5k4.cells.items())]

    solutions = {}
    for family, rank, level in (*run.SOLVE_CASES, ("D", 5, 4), ("A", 1, 2)):
        dynkin = build_dynkin(family, rank)
        table = build_qtable(dynkin, level, m_max=level)
        h = dynkin.coxeter
        solutions[run.label(family, rank, level)] = {
            "rhs": str(Fraction((level - 1) * h * rank, h + level)),
            "values": [[a, m, mpmath.nstr(table.value(a, m), run.DIGITS)]
                       for a in range(1, rank + 1) for m in range(level + 1)],
        }

    path = run.BENCH / "reference.json"
    path.write_text(json.dumps({"digits": run.DIGITS, "tables": tables,
                                "solutions": solutions}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
