"""The clauses that the z table and the restricted solution share:
positivity on 0 <= m <= k, symmetry about k/2 and growth up to the
midpoint, each a named check with its failures, and the reports that
group them.  Differences are measured against max(1, |x|, |y|), so a
tolerance is relative for large values and absolute near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import mpmath
from mpmath.libmp import fzero, mpf_abs, mpf_gt, mpf_lt, mpf_sub, round_nearest


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
    more than ``tol`` times their scale; the difference is taken on libmp
    tuples at the working precision, as mpf arithmetic takes it."""
    tol, bits = mpmath.mpf(tol), mpmath.mp.prec
    fails = []
    for a, m in cells:
        x, y = value(a, m), value(a, k - m)
        gap = mpf_abs(mpf_sub(x._mpf_, y._mpf_, bits, round_nearest))
        if mpf_gt(gap, tol._mpf_) and (  # scale >= 1: tol alone settles most
                delta := mpmath.mp.make_mpf(gap)) > tol * scale(x, y):
            fails.append(f"|{letter}({a},{m}) - {letter}({a},{k - m})| = {mpmath.nstr(delta)}")
    return tuple(fails)


def positive_checks(value: Callable, rank: int, k: int, tol: float,
                    letter: str = "z") -> tuple[PropertyCheck, PropertyCheck, PropertyCheck]:
    """Positivity on 0 <= m <= k, symmetry about k/2 (each mirror pair once,
    m <= k/2) and strict growth up to the midpoint of ``value(a, m)``, an
    mpf, compared on libmp tuples."""
    nodes = range(1, rank + 1)
    half = range(k // 2 + 1)
    return (
        PropertyCheck("positivity", tuple(
            f"{letter}({a},{m}) = {value(a, m)}"
            for a in nodes for m in range(k + 1) if not mpf_gt(value(a, m)._mpf_, fzero))),
        PropertyCheck("symmetry", mirror_failures(
            value, ((a, m) for a in nodes for m in half), k, tol, letter)),
        PropertyCheck("unimodality", tuple(
            f"{letter}({a},{m - 1}) >= {letter}({a},{m})"
            for a in nodes for m in half[1:]
            if not mpf_lt(value(a, m - 1)._mpf_, value(a, m)._mpf_))),
    )
