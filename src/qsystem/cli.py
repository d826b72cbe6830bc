"""Command-line front end.

Exit codes form a stable contract: 0 on success, 1 when verification or
convergence fails, 2 on usage errors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import click

from . import io as qio
from .affine import AffineWeight, level_of, reduce_to_alcove
from .dynkin import DynkinData, UnsupportedType, build_dynkin
from .qdim import precision_bits
from .solver import (NoConvergence, XOutOfRange, dilog_identity,
                     solve_restricted)
from .table import (build_qtable, forced_tail_report, midpoint_checks,
                    verify_kns, verify_qsystem)

DEFAULT_MAX_RANK = 12
DEFAULT_MAX_LEVEL = 12


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: which diagram, level, tolerances and output."""

    family: str
    rank: int
    level: int
    command: str
    tolerance: float = 1e-9
    fmt: str = "text"
    out: str | None = None
    max_rank: int = DEFAULT_MAX_RANK
    max_level: int = DEFAULT_MAX_LEVEL


class UsageFailure(Exception):
    """Invalid configuration; maps to exit code 2."""


def _dynkin(config: RunConfig) -> DynkinData:
    if config.tolerance <= 0:
        raise UsageFailure(f"tolerance must be positive, got {config.tolerance}")
    if not 1 <= config.rank <= config.max_rank:
        raise UsageFailure(
            f"rank {config.rank} outside 1..{config.max_rank}"
            " (raise --max-rank to override)")
    if not 1 <= config.level <= config.max_level:
        raise UsageFailure(
            f"level {config.level} outside 1..{config.max_level}"
            " (raise --max-level to override)")
    try:
        return build_dynkin(config.family, config.rank)
    except UnsupportedType as exc:
        raise UsageFailure(str(exc)) from exc


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageFailure(f"cannot write {config.out}: {exc.strerror}") from exc
    else:
        click.echo(text, nl=not text.endswith("\n"))


def cmd_table(config: RunConfig, m_max: int | None = None) -> int:
    dynkin = _dynkin(config)
    if m_max is not None and m_max < 0:
        raise UsageFailure(f"--m-max must be >= 0, got {m_max}")
    table = build_qtable(dynkin, config.level, m_max=m_max)
    if config.fmt == "json":
        _emit(config, qio.qtable_to_json(table))
    elif config.fmt == "csv":
        _emit(config, qio.qtable_to_csv(table))
    else:
        _emit(config, qio.qtable_to_text(table))
    return 0


def _verify_one(dynkin: DynkinData, level: int, tol: float) -> tuple[bool, list[str]]:
    table = build_qtable(dynkin, level)
    lines = [f"{dynkin} level {level}:"]
    qsys = verify_qsystem(table, dynkin, tol=tol)
    lines.append(f"  recurrence residual {qsys.max_residual:.3e}"
                 f" (threshold {qsys.threshold:.3e}):"
                 f" {'pass' if qsys.passed else 'FAIL'}")
    kns = verify_kns(table, tol=tol)
    for check in kns.checks:
        if not check.applicable:
            lines.append(f"  {check.name}: n/a")
        else:
            lines.append(f"  {check.name}: {'pass' if check.passed else 'FAIL'}")
            if not check.passed:
                lines.append(f"    first failure: {check.failures[0]}")
    mid = midpoint_checks(table, tol=tol)
    lines.append(f"  midpoint equalities: {'pass' if mid.passed else 'FAIL'}")
    tail = forced_tail_report(table)
    if tail.applicable:
        lines.append(f"  forced tail pattern: {'pass' if tail.passed else 'FAIL'}")
    ok = qsys.passed and kns.passed and mid.passed and tail.passed
    return ok, lines


def _parse_grid(spec: tuple[str, str]) -> tuple[range, range]:
    out = {}
    for token in spec:
        try:
            name, _, rng = token.partition("=")
            lo, _, hi = rng.partition("..")
            out[name.strip()] = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise UsageFailure(f"bad grid token {token!r}; expected r=lo..hi") from exc
    if set(out) != {"r", "k"}:
        raise UsageFailure("grid needs exactly the two tokens r=lo..hi and k=lo..hi")
    return out["r"], out["k"]


def cmd_verify(config: RunConfig, grid: tuple[str, str] | None = None) -> int:
    if grid is None:
        pairs = [(config.rank, config.level)]
    else:
        ranks, levels = _parse_grid(grid)
        pairs = [(r, k) for r in ranks for k in levels]
    all_lines: list[str] = []
    ok = True
    for rank, level in pairs:
        cfg = RunConfig(config.family, rank, level, "verify", config.tolerance,
                        config.fmt, config.out, config.max_rank, config.max_level)
        one_ok, lines = _verify_one(_dynkin(cfg), level, config.tolerance)
        ok = ok and one_ok
        all_lines.extend(lines)
    all_lines.append("all checks passed" if ok else "verification FAILED")
    _emit(config, "\n".join(all_lines) + "\n")
    return 0 if ok else 1


def cmd_reduce(config: RunConfig, coords: tuple[int, ...]) -> int:
    dynkin = _dynkin(config)
    if len(coords) != dynkin.rank + 1:
        raise UsageFailure(
            f"expected {dynkin.rank + 1} coordinates, got {len(coords)}")
    level = level_of(coords, dynkin)
    if level != config.level:
        raise UsageFailure(
            f"coordinates have level {level}, but -k {config.level} was given")
    result = reduce_to_alcove(AffineWeight(level, coords), dynkin)
    if result.is_zero:
        _emit(config, "zero (stabilised by an odd reflection)\n")
    else:
        _emit(config, f"dominant {list(result.rep.coords)} sign {result.sign:+d}\n")
    return 0


def cmd_solve(config: RunConfig, against_table: bool = False,
              with_dilog: bool = False, solver_tol: float = 1e-12) -> int:
    dynkin = _dynkin(config)
    if solver_tol <= 0:
        raise UsageFailure(f"solver tolerance must be positive, got {solver_tol}")
    try:
        sol = solve_restricted(dynkin, config.level, tol=solver_tol)
    except NoConvergence as exc:
        click.echo(f"no convergence: {exc}", err=True)
        return 1
    failed = False
    deviation = None
    if against_table:
        table = build_qtable(dynkin, config.level, m_max=config.level)
        deviation = max(
            float(abs(sol.value(a, m) - table.value(a, m)))
            for a in range(1, dynkin.rank + 1)
            for m in range(config.level + 1)
        )
        failed = failed or deviation > 1e-8
    dilog = None
    if with_dilog:
        try:
            dilog = dilog_identity(sol, dynkin)
        except XOutOfRange as exc:
            click.echo(f"dilogarithm argument out of range: {exc}", err=True)
            return 1
        failed = failed or dilog.delta > config.tolerance
    if config.fmt == "json":
        import json as _json
        _emit(config, _json.dumps(
            qio.solution_to_dict(sol, dilog, deviation), indent=1))
    else:
        _emit(config, qio.solution_to_text(sol, dilog, deviation))
    return 1 if failed else 0


def _common(func):
    func = click.option("--family", "-f", type=click.Choice(["A", "D"]),
                        required=True)(func)
    func = click.option("--rank", "-r", type=int, required=True)(func)
    func = click.option("--level", "-k", type=int, required=True)(func)
    func = click.option("--tol", type=float, default=1e-9, show_default=True,
                        help="verification tolerance")(func)
    func = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                        default="text", show_default=True)(func)
    func = click.option("--out", type=click.Path(dir_okay=False), default=None,
                        help="write output to a file instead of stdout")(func)
    func = click.option("--max-rank", type=int, default=DEFAULT_MAX_RANK,
                        show_default=True)(func)
    func = click.option("--max-level", type=int, default=DEFAULT_MAX_LEVEL,
                        show_default=True)(func)
    return func


def _config(command: str, family: str, rank: int, level: int, tol: float,
            fmt: str, out: str | None, max_rank: int, max_level: int) -> RunConfig:
    return RunConfig(family, rank, level, command, tol, fmt, out,
                     max_rank, max_level)


def _run(fn, *args, **kwargs) -> None:
    try:
        try:
            precision_bits()
        except ValueError as exc:
            raise UsageFailure(str(exc)) from exc
        sys.exit(fn(*args, **kwargs))
    except UsageFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@click.group()
@click.version_option()
def main() -> None:
    """Quantum-dimension tables of simply laced Q-systems, property
    verification, alcove reduction, and the restricted-system solver.

    Working precision is selected by QSYS_PRECISION_BITS (default 128).
    """


@main.command()
@_common
@click.option("--m-max", type=int, default=None,
              help="last row to compute (default: level + coxeter)")
def table(family, rank, level, tol, fmt, out, max_rank, max_level, m_max):
    """Build and print the z table with provenance."""
    cfg = _config("table", family, rank, level, tol, fmt, out, max_rank, max_level)
    _run(cmd_table, cfg, m_max)


@main.command()
@_common
@click.option("--grid", nargs=2, default=None, metavar="r=LO..HI k=LO..HI",
              help="sweep a rectangle of ranks and levels")
def verify(family, rank, level, tol, fmt, out, max_rank, max_level, grid):
    """Run the recurrence, property, midpoint and tail checks."""
    cfg = _config("verify", family, rank, level, tol, fmt, out, max_rank, max_level)
    _run(cmd_verify, cfg, grid)


@main.command()
@_common
@click.argument("coords", nargs=-1, type=int, required=True)
def reduce(family, rank, level, tol, fmt, out, max_rank, max_level, coords):
    """Alcove-reduce an affine weight given as lambda_0 .. lambda_r."""
    cfg = _config("reduce", family, rank, level, tol, fmt, out, max_rank, max_level)
    _run(cmd_reduce, cfg, tuple(coords))


@main.command()
@_common
@click.option("--against-table", is_flag=True,
              help="cross-check the solution against the z table")
@click.option("--dilog", "with_dilog", is_flag=True,
              help="evaluate the dilogarithm identity")
@click.option("--solver-tol", type=float, default=1e-12, show_default=True,
              help="residual target for the solver")
def solve(family, rank, level, tol, fmt, out, max_rank, max_level,
          against_table, with_dilog, solver_tol):
    """Solve the level-k restricted system for its positive solution."""
    cfg = _config("solve", family, rank, level, tol, fmt, out, max_rank, max_level)
    _run(cmd_solve, cfg, against_table, with_dilog, solver_tol)


@main.command()
@_common
@click.option("--solver-tol", type=float, default=1e-12, show_default=True)
def dilog(family, rank, level, tol, fmt, out, max_rank, max_level, solver_tol):
    """Solve the restricted system and evaluate the dilogarithm identity."""
    cfg = _config("dilog", family, rank, level, tol, fmt, out, max_rank, max_level)
    _run(cmd_solve, cfg, False, True, solver_tol)


if __name__ == "__main__":
    main()
