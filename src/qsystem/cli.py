"""Command-line front end.

Exit codes form a stable contract: 0 on success, 1 when verification or
convergence fails, 2 on usage errors.

Each command imports the layers it runs in its own body, after its
arguments are checked, so a usage error, ``--help`` or ``--version``
loads neither numpy nor mpmath, and ``reduce`` loads no mpmath.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from typing import Iterable

import click

from . import __version__, precision_bits
from .dynkin import DynkinData, UnsupportedType, build_dynkin

DEFAULT_MAX_RANK = 12
DEFAULT_MAX_LEVEL = 12
DEFAULT_TOL = 1e-9


class UsageFailure(Exception):
    """Invalid configuration; maps to exit code 2."""


def _dynkin(family: str, rank: int, level: int, max_rank: int,
            max_level: int) -> DynkinData:
    if not 1 <= rank <= max_rank:
        raise UsageFailure(
            f"rank {rank} outside 1..{max_rank} (raise --max-rank to override)")
    if not 1 <= level <= max_level:
        raise UsageFailure(
            f"level {level} outside 1..{max_level} (raise --max-level to override)")
    try:
        return build_dynkin(family, rank)
    except UnsupportedType as exc:
        raise UsageFailure(str(exc)) from exc


def _check_tol(name: str, tol: float) -> None:
    if not 0 < tol < math.inf:
        raise UsageFailure(f"{name} must be {'positive' if tol <= 0 else 'finite'}, got {tol}")


def _text_or_json(fmt: str, name: str) -> None:
    """Reject the shared ``--format csv`` for a command that has no table to print."""
    if fmt == "csv":
        raise UsageFailure(f"{name} prints text or json, not csv")


def _emit(out: str | None, pieces: Iterable[str]) -> None:
    """Write the pieces to the file ``out``, or to stdout ending in a newline;
    stdout is flushed here, so a failed write raises inside ``main``."""
    if not out:
        last = ""
        for last in pieces:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise UsageFailure(f"cannot write {out}: {exc.strerror}") from exc


class _Group(click.Group):
    """Exits 2 with one ``error:`` line on the ``OSError`` click re-raises:
    a failed stdout write (``_emit`` maps ``--out``; click ends EPIPE)."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **kwargs)
        except OSError as exc:
            click.echo(f"error: cannot write stdout: {exc.strerror}", err=True)
            sys.exit(2)


@click.group(cls=_Group)
@click.version_option(__version__)
def main() -> None:
    """Quantum-dimension tables of simply laced Q-systems, property
    verification, alcove reduction, and the restricted-system solver.

    Working precision is selected by QSYS_PRECISION_BITS (default 128).
    """


_SHARED_OPTIONS = (
    click.option("--family", "-f", type=click.Choice(["A", "D"]), required=True),
    click.option("--rank", "-r", type=int, required=True),
    click.option("--level", "-k", type=int, required=True),
    click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
                 help="verification tolerance"),
    click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                 default="text", show_default=True),
    click.option("--out", type=click.Path(dir_okay=False), default=None,
                 help="write output to a file instead of stdout"),
    click.option("--max-rank", type=int, default=DEFAULT_MAX_RANK, show_default=True),
    click.option("--max-level", type=int, default=DEFAULT_MAX_LEVEL, show_default=True),
)


def command(fn):
    """Register ``fn`` as a subcommand of :func:`main` and return it unchanged.

    The subcommand takes the options in ``_SHARED_OPTIONS`` ahead of those
    declared on ``fn``, checks QSYS_PRECISION_BITS and ``--tol``, and exits
    with the code ``fn`` returns; a :class:`UsageFailure` exits 2 with one
    ``error:`` line.
    """
    @functools.wraps(fn)
    def run(**kwargs) -> None:
        try:
            try:
                precision_bits()
            except ValueError as exc:
                raise UsageFailure(str(exc)) from exc
            _check_tol("tolerance", kwargs["tol"])
            code = fn(**kwargs)
        except UsageFailure as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        sys.exit(code)

    for option in _SHARED_OPTIONS:
        run = option(run)
    main.command()(run)
    return fn


@command
@click.option("--m-max", type=int, default=None,
              help="last row to compute (default: level + coxeter)")
def table(family, rank, level, tol, fmt, out, max_rank, max_level, m_max) -> int:
    """Build and print the z table with provenance."""
    if tol != DEFAULT_TOL:
        raise UsageFailure("table runs no verification, so it takes no --tol")
    dynkin = _dynkin(family, rank, level, max_rank, max_level)
    if m_max is not None and not 0 <= m_max <= max_level + dynkin.coxeter:
        raise UsageFailure(f"--m-max {m_max} outside 0..{max_level + dynkin.coxeter} "
                           "(--max-level + coxeter; raise --max-level to override)")
    from . import io as qio
    from .table import build_qtable
    table = build_qtable(dynkin, level, m_max=m_max)
    if fmt == "json":
        _emit(out, qio.qtable_json_chunks(table))
    else:
        _emit(out, [qio.qtable_to_csv(table) if fmt == "csv" else qio.qtable_to_text(table)])
    return 0


def _verify_one(dynkin: DynkinData, level: int, tol: float) -> dict:
    """Every verification suite on the (dynkin, level) table, as JSON data."""
    from .table import (build_qtable, forced_tail_report, midpoint_checks, verify_kns,
                        verify_qsystem)
    table = build_qtable(dynkin, level)
    qsys = verify_qsystem(table, dynkin, tol=tol)
    reports = (verify_kns(table, tol=tol), midpoint_checks(table, tol=tol),
               forced_tail_report(table))
    return {
        "family": dynkin.family, "rank": dynkin.rank, "level": level,
        "passed": qsys.passed and all(report.passed for report in reports),
        "recurrence": {"max_residual": qsys.max_residual, "threshold": qsys.threshold,
                       "worst": qsys.worst, "passed": qsys.passed},
        "checks": [{"name": c.name, "applicable": c.applicable, "passed": c.passed,
                    "failures": c.failures} for report in reports for c in report.checks],
    }


def _verdict(passed: bool) -> str:
    return "pass" if passed else "FAIL"


def _verify_text(result: dict) -> list[str]:
    """The text lines of one ``_verify_one`` result."""
    qsys, checks = result["recurrence"], {c["name"]: c for c in result["checks"]}
    midpoint = checks.pop("midpoint")
    tail = [checks.pop(name) for name in ("forced_zeros", "forced_top_row", "fork")]
    lines = [f"{result['family']}{result['rank']} level {result['level']}:",
             f"  recurrence residual {qsys['max_residual']:.3e}"
             f" (threshold {qsys['threshold']:.3e}): {_verdict(qsys['passed'])}"]
    for name, check in checks.items():  # the KNS clauses, in report order
        lines.append(f"  {name}: {_verdict(check['passed']) if check['applicable'] else 'n/a'}")
        if not check["passed"]:
            lines.append(f"    first failure: {check['failures'][0]}")
    lines.append(f"  midpoint equalities: {_verdict(midpoint['passed'])}")
    if any(check["applicable"] for check in tail):
        lines.append(f"  forced tail pattern: {_verdict(all(c['passed'] for c in tail))}")
    return lines


def _parse_grid(spec: tuple[str, str]) -> tuple[range, range]:
    out = {}
    for token in spec:
        try:
            name, _, rng = token.partition("=")
            lo, _, hi = rng.partition("..")
            values = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise UsageFailure(f"bad grid token {token!r}; expected r=lo..hi") from exc
        if not values:
            raise UsageFailure(f"empty grid range {token!r}; expected lo <= hi")
        out[name.strip()] = values
    if set(out) != {"r", "k"}:
        raise UsageFailure("grid needs exactly the two tokens r=lo..hi and k=lo..hi")
    return out["r"], out["k"]


@command
@click.option("--grid", nargs=2, default=None, metavar="r=LO..HI k=LO..HI",
              help="sweep a rectangle of ranks and levels")
def verify(family, rank, level, tol, fmt, out, max_rank, max_level, grid) -> int:
    """Run the recurrence, property, midpoint and tail checks."""
    _text_or_json(fmt, "verify")
    if grid is None:
        pairs = [(rank, level)]
    else:
        ranks, levels = _parse_grid(grid)
        pairs = [(r, k) for r in ranks for k in levels]
    dynkins = [(_dynkin(family, r, k, max_rank, max_level), k) for r, k in pairs]
    results = [_verify_one(dynkin, k, tol) for dynkin, k in dynkins]
    ok = all(result["passed"] for result in results)
    if fmt == "json":
        _emit(out, [json.dumps({"passed": ok, "results": results}, indent=1)])
    else:
        lines = [line for result in results for line in _verify_text(result)]
        lines.append("all checks passed" if ok else "verification FAILED")
        _emit(out, ["\n".join(lines) + "\n"])
    return 0 if ok else 1


@command
@click.argument("coords", nargs=-1, type=int, required=True)
def reduce(family, rank, level, tol, fmt, out, max_rank, max_level, coords) -> int:
    """Alcove-reduce an affine weight given as lambda_0 .. lambda_r."""
    _text_or_json(fmt, "reduce")
    dynkin = _dynkin(family, rank, level, max_rank, max_level)
    from .affine import AffineWeight, level_of, reduce_to_alcove
    if len(coords) != dynkin.rank + 1:
        raise UsageFailure(
            f"expected {dynkin.rank + 1} coordinates, got {len(coords)}")
    weight_level = level_of(coords, dynkin)
    if weight_level != level:
        raise UsageFailure(
            f"coordinates have level {weight_level}, but -k {level} was given")
    try:
        result = reduce_to_alcove(AffineWeight(level, coords), dynkin)
    except OverflowError as exc:
        raise UsageFailure(str(exc)) from exc
    zero, rep = result.is_zero, None if result.is_zero else list(result.rep.coords)
    if fmt == "json":
        _emit(out, [json.dumps({"zero": zero, "rep": rep, "sign": result.sign}, indent=1)])
    elif zero:
        _emit(out, ["zero (stabilised by an odd reflection)\n"])
    else:
        _emit(out, [f"dominant {rep} sign {result.sign:+d}\n"])
    return 0


@command
@click.option("--against-table", is_flag=True,
              help="cross-check the solution against the z table")
@click.option("--dilog", "with_dilog", is_flag=True,
              help="evaluate the dilogarithm identity")
@click.option("--solver-tol", type=float, default=1e-12, show_default=True,
              help="residual target for the solver")
def solve(family, rank, level, tol, fmt, out, max_rank, max_level,
          against_table, with_dilog, solver_tol) -> int:
    """Solve the level-k restricted system for its positive solution."""
    _text_or_json(fmt, "solve")
    dynkin = _dynkin(family, rank, level, max_rank, max_level)
    _check_tol("solver tolerance", solver_tol)
    from . import io as qio
    from .solver import NoConvergence, XOutOfRange, dilog_identity, solve_restricted
    try:
        sol = solve_restricted(dynkin, level, tol=solver_tol)
    except NoConvergence as exc:
        click.echo(f"no convergence: {exc}", err=True)
        return 1
    failed = False
    deviation = None
    if against_table:
        from .checks import scale
        from .table import build_qtable
        table = build_qtable(dynkin, level, m_max=level)
        pairs = [(x, table.value(a, m)) for (a, m), x in sol.values.items()]
        deviation = max(float(abs(x - y) / scale(x, y)) for x, y in pairs)
        failed = failed or deviation > 1e-8
    dilog = None
    if with_dilog:
        try:
            dilog = dilog_identity(sol, dynkin)
        except XOutOfRange as exc:
            click.echo(f"dilogarithm argument out of range: {exc}", err=True)
            return 1
        failed = failed or dilog.delta > tol
    if fmt == "json":
        _emit(out, [json.dumps(qio.solution_to_dict(sol, dilog, deviation), indent=1)])
    else:
        _emit(out, [qio.solution_to_text(sol, dilog, deviation)])
    return 1 if failed else 0


@command
@click.option("--solver-tol", type=float, default=1e-12, show_default=True)
def dilog(family, rank, level, tol, fmt, out, max_rank, max_level, solver_tol) -> int:
    """Solve the restricted system and evaluate the dilogarithm identity."""
    _text_or_json(fmt, "dilog")
    return solve(family, rank, level, tol, fmt, out, max_rank, max_level,
                 against_table=False, with_dilog=True, solver_tol=solver_tol)


if __name__ == "__main__":
    main()
