"""Span recording around the calls that qsystem makes between its layers.

The tracer replaces module-level names of the installed package with
timing wrappers and restores them afterwards, so nothing under ``src/``
changes.  Each span is a list ``[name, start, end, parent, case, value]``:
``parent`` is the index of the enclosing span (or -1), ``case`` the case id
set by the caller, and ``value`` a number taken from the result (summand
count, iteration count, ...) or None.  Spans stay in memory until the
caller writes them out.

``layer_metrics`` turns one pass's spans into the per-layer metrics.  A
wrapped name that no longer exists is skipped at install time, and every
metric that depends on it is reported as None.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

VERIFY_SUITES = ("verify_qsystem", "verify_kns", "midpoint_checks", "forced_tail_report")

# (modules whose global is replaced, attribute, span name, value of the result)
TABLE, SOLVER, CLI = "qsystem.table", "qsystem.solver", "qsystem.cli"
WRAPPED = (
    ((TABLE, CLI), "build_qtable", "table.build", lambda table: len(table.cells)),
    ((TABLE,), "kr_decompose", "table.enumerate", lambda dec: len(dec.terms)),
    ((TABLE,), "affinize", "affine.affinize", None),
    ((TABLE, CLI), "reduce_to_alcove", "affine.reduce", lambda res: int(res.is_zero)),
    ((TABLE,), "qdim_affine", "qdim.evaluate", lambda val: int(val.is_exact)),
    ((TABLE,), "_combine", "table.combine", None),
    *(((TABLE, CLI), name, "table.verify", None) for name in VERIFY_SUITES),
    ((SOLVER, CLI), "solve_restricted", "solver.solve", lambda sol: sol.residual),
    ((SOLVER,), "_newton_float", "solver.newton", lambda out: out[2]),
    ((SOLVER,), "_jacobian_log", "solver.jacobian", None),
    ((SOLVER,), "_polish", "solver.polish", lambda out: out[2]),
    ((SOLVER,), "check_positive_solution_properties", "solver.properties", None),
    ((SOLVER, CLI), "dilog_identity", "solver.dilog", None),
    ((SOLVER,), "uniqueness_probe", "solver.probe", lambda rep: (rep.converged, rep.starts)),
    (("qsystem.io",), "qtable_to_json", "io.serialize", len),
    (("qsystem.io",), "qtable_from_json", "io.parse", None),
)

NAME, START, END, PARENT, CASE, VALUE = range(6)


class Tracer:
    """In-memory span recorder; ``case`` tags every span opened after it
    is set."""

    def __init__(self, case: str | None = None):
        self.spans: list[list] = []
        self.case = case
        self.installed: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.case, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if value is not None:
                try:
                    span[VALUE] = value(result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a result of another shape leaves the count unknown
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def recording(self):
        """Install every wrapper in ``WRAPPED`` for the duration of the block."""
        saved = []
        try:
            for modules, attr, name, value in WRAPPED:
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn, value))
                    self.installed.add(name)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _dur(span) -> float:
    return span[END] - span[START]


def layer_metrics(spans: list[list], installed: set[str]) -> dict[str, float | None]:
    """Per-layer totals, counts and ratios over one pass's spans."""
    by_name: dict[str, list[list]] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += _dur(span)

    def have(*names: str) -> bool:
        return all(n in installed for n in names)

    def total(name: str, under: str | None = None) -> float | None:
        if not have(name):
            return None
        return sum((_dur(s) for s in by_name.get(name, ())
                    if under is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == under)),
                   0.0)

    def calls(name: str) -> int | None:
        return len(by_name.get(name, ())) if have(name) else None

    def values(name: str, under: str | None = None) -> list:
        return [s[VALUE] for s in by_name.get(name, ())
                if s[VALUE] is not None
                and (under is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == under))]

    def ratio(num, den) -> float | None:
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    summands = sum(values("table.enumerate")) if have("table.enumerate") else None
    reduce_calls = calls("affine.reduce")
    evaluate_calls = calls("qdim.evaluate")
    build_self = None
    if have("table.build"):
        build_self = sum((_dur(s) - child_time[i] for i, s in enumerate(spans)
                          if s[NAME] == "table.build"), 0.0)
    probes = values("solver.probe")
    residuals = values("solver.solve")
    out = {
        "table.enumerate_s": total("table.enumerate"),
        "table.enumerate_calls": calls("table.enumerate"),
        "table.summands": summands,
        "table.combine_s": total("table.combine"),
        "table.build_self_s": build_self,
        "table.verify_s": total("table.verify"),
        "table.cells": sum(values("table.build")) if have("table.build") else None,
        "affine.affinize_s": total("affine.affinize"),
        "affine.affinize_calls": calls("affine.affinize"),
        "affine.reduce_s": total("affine.reduce"),
        "affine.reduce_calls": reduce_calls,
        "affine.reduce_cache_hit_ratio": (
            None if summands is None or reduce_calls is None
            else (1 - reduce_calls / summands if summands else 0.0)),
        "affine.reduce_zero_frac": ratio(
            sum(values("affine.reduce")) if have("affine.reduce") else None, reduce_calls),
        "qdim.evaluate_s": total("qdim.evaluate"),
        "qdim.evaluate_calls": evaluate_calls,
        "qdim.exact_frac": ratio(
            sum(values("qdim.evaluate")) if have("qdim.evaluate") else None, evaluate_calls),
        "solver.solve_s": total("solver.solve"),
        "solver.newton_s": total("solver.newton", under="solver.solve"),
        "solver.float_iters": (sum(values("solver.newton", under="solver.solve"))
                               if have("solver.newton") else None),
        "solver.jacobian_calls": calls("solver.jacobian"),
        "solver.jacobian_s": total("solver.jacobian"),
        "solver.polish_s": total("solver.polish"),
        "solver.polish_steps": sum(values("solver.polish")) if have("solver.polish") else None,
        "solver.residual": (max(residuals, default=0.0) if have("solver.solve") else None),
        "solver.probe_s": total("solver.probe"),
        "solver.probe_converged_ratio": ratio(
            sum(c for c, _ in probes) if have("solver.probe") else None,
            sum(n for _, n in probes)),
        "solver.dilog_s": total("solver.dilog"),
        "io.serialize_s": total("io.serialize"),
        "io.bytes": sum(values("io.serialize")) if have("io.serialize") else None,
        "io.parse_s": total("io.parse"),
    }
    return out


def build_children(spans: list[list]) -> dict[str, float]:
    """Total time of each kind of span directly under ``table.build``."""
    out: dict[str, float] = {}
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == "table.build":
            out[span[NAME]] = out.get(span[NAME], 0.0) + _dur(span)
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Low median over passes of each metric, so that counts stay whole
    numbers; None stays None."""
    out = {}
    for key in per_pass[0]:
        vals = [p[key] for p in per_pass if p[key] is not None]
        out[key] = statistics.median_low(vals) if vals else None
    return out
