"""Numerical solution of the level-k restricted recurrence and the
Rogers-dilogarithm identity for its positive solution.

The unknowns are Q^(a)_m, 1 <= m <= k-1; the rows m = 0 and m = k are
pinned to 1.  Positivity is built in by solving for u = log Q.  Damped
Newton in float64 solves the log form of the recurrence,
log Q_m^2 - log(prod + Q_{m-1} Q_{m+1}) = 0, which is close to linear in
u, with no fallback: the degenerate zero solutions sit at u = -inf, where
the log form does not vanish.  It runs on a stack of starts at once, each
start's line search and stop test its own; the solve uses a single start
and the uniqueness probe all of its starts together.  The Jacobian of the
log form is 2I minus couplings between the two colours of (Dynkin tree) x
(path 1..k-1), so each linear solve runs on the half-size red-black Schur
complement, whose gather indices, path cells and 4I are planned once per
diagram and level.  Mixed-precision iterative refinement then carries the
float solution to working precision on exact dyadic numbers: every value
is an integer at one common scale 2^-F, so each step evaluates the raw
residual square - prod - Q_{m-1} Q_{m+1} exactly, divides it in float64
by prod + Q_{m-1} Q_{m+1} at the float solution (the log form to first
order) and solves for the log-coordinate correction with the Newton's
own Jacobian there, its complement inverted once (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 12).  The correction multiplies
each value by its exponential, summed as a Taylor series on integers and
rounded to the working precision.  Residuals are judged relative to the
term scale S, the largest term in any equation: refinement stops once
the exact residual is at most 2^(8 - bits) S, and a solve is accepted
when its residual is at most tol * max(1, S).  Both phases log each step,
and the probe its starts, at DEBUG to the ``qsystem.solver`` logger.

The Rogers dilogarithm takes y = min(x, 1 - x) <= 1/2 and z = -log(1 - y)
of the exact 1 - y, sums Li2(y) / z on its Bernoulli series in z in one
Python-integer fixed-point loop with 20 guard bits, so it stays
relatively accurate however small y is, and reflects through
L(x) + L(1 - x) = pi^2/6.  It runs on libmp tuples, as does the identity,
which forms its arguments there and evaluates each distinct one once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import Mapping

import mpmath
import numpy as np
from mpmath.libmp import (MPZ, bernfrac, fone, from_int, from_man_exp, fzero, ifac, mpf_add,
                          mpf_cmp, mpf_div, mpf_log, mpf_lt, mpf_mul, mpf_neg, mpf_pi,
                          mpf_pow_int, mpf_shift, mpf_sub, round_nearest, to_fixed)

from . import precision_bits
from .checks import PropertyReport, positive_checks
from .dynkin import DynkinData
from .recurrence import terms, tuple_terms

_log = logging.getLogger(__name__)

_BACKTRACK_FLOOR = 1e-10
# Stop test of the float phase on max |log Q^2 - log(prod + Q_- Q_+)|, a
# few hundred ulps of a relative error.
_LOG_TOL = 1e-13
# A refinement step gains about -log2(cond(J) * 2^-53) bits, some 40 in
# practice; one step per 16 bits of working precision leaves ample room.
_BITS_PER_POLISH_STEP = 16
# Most Schur-complement entries (float64) solved together in one stacked
# linear solve.  On a 2-CPU Linux host, the 20-start probe of D16k16 (120 x 120
# complements) raised a fresh process's peak RSS by 15.8 MiB as one stack of
# 21 (2.4 MiB of entries) and by 10.7 MiB in groups of at most 256 KiB; the
# D8k6 and A8k8 probes fit in one group.
_JACOBIAN_ENTRIES = 1 << 15
# Bits below the unit of each value at which the refinement sums its Taylor
# series.
_GUARD_BITS = 20


class InvalidLevel(ValueError):
    """Restricted system needs level >= 1."""


class NoConvergence(RuntimeError):
    """Solver failed to reach the requested residual."""


class DomainError(ValueError):
    """Argument outside the domain of the Rogers dilogarithm."""


class XOutOfRange(RuntimeError):
    """A dilogarithm argument fell outside (0, 1); the solution is bad."""


@dataclass(frozen=True)
class RestrictedSolution:
    """Positive solution of the restricted system on 0 <= m <= level."""

    family: str
    rank: int
    level: int
    values: Mapping[tuple[int, int], mpmath.mpf]
    residual: float
    float_iterations: int
    polish_steps: int
    term_scale: float
    tol: float
    residual_mpf: mpmath.mpf  # the exact residual, of which ``residual`` is the float

    @property
    def iterations(self) -> int:
        """Float Newton iterations plus refinement steps."""
        return self.float_iterations + self.polish_steps

    @property
    def relative_residual(self) -> float:
        """The residual relative to max(1, S), S the term scale."""
        return self.residual / max(1.0, self.term_scale)

    def value(self, a: int, m: int) -> mpmath.mpf:
        return self.values[(a, m)]


def _grid(dynkin: DynkinData, k: int, inner: np.ndarray) -> np.ndarray:
    """Full (..., rank, k+1) value grids with unit boundary columns."""
    q = np.ones((*inner.shape[:-2], dynkin.rank, k + 1))
    q[..., 1:k] = inner
    return q


@lru_cache(maxsize=None)
def _plan(dynkin: DynkinData, k: int) -> SimpleNamespace:
    """What a Newton step at level k needs that does not depend on the
    values.  Red is the smaller class of the colours (tree colour of a + m)
    mod 2 of (a, m).  Per unknown, ``rb_slot`` and ``br_slot`` hold the slots
    of its weights in those of :func:`_log_residual`, padded with the zero
    slot 0, and ``black_rb`` and ``br_col`` the unknowns of the other colour
    they couple it to, as grid indices and as places in ``red``.  ``back``
    puts (x_r, x_b) in (a, m) order; ``path_rb`` and ``path_br`` are the
    block entries of each red-black-red path, padding left out, ``cells``
    its Schur cell and ``four`` 4I."""
    rank, n, adj = dynkin.rank, k - 1, np.array(dynkin.adjacency, dtype=bool)
    tree = np.zeros(rank, dtype=int)
    for a, b in zip(*np.nonzero(np.triu(adj))):  # each A or D node joins a smaller label
        tree[b] = 1 - tree[a]
    colour = ((tree[:, None] + np.arange(n)) % 2).ravel()
    colour ^= 2 * colour.sum() < colour.size  # red, the smaller class, is colour 0
    red, black = np.flatnonzero(colour == 0), np.flatnonzero(colour)
    kind = np.kron(adj, np.eye(n)) + 2 * np.kron(np.eye(rank), np.eye(n, k=1) + np.eye(n, k=-1))
    slot = np.where(kind > 0, (kind - 1) * rank * n + np.arange(rank * n)[:, None] + 1, 0)

    def rows(of, to):
        block = slot[np.ix_(of, to)].astype(int)
        col = np.argsort(block == 0, axis=1, kind="stable")[:, :max((block > 0).sum(1), default=0)]
        return np.take_along_axis(block, col, axis=1), col
    (rb_slot, rb_col), (br_slot, br_col) = rows(red, black), rows(black, red)
    (r, c_rb), c_br = rb_col.shape, br_col.shape[1]
    i, at_rb, at_br = np.indices((r, c_rb, c_br)).reshape(3, -1)
    to = rb_col[i, at_rb]
    real = (rb_slot[i, at_rb] > 0) & (br_slot[to, at_br] > 0)  # no padding on the path
    return SimpleNamespace(
        adj=adj.astype(float), red=red, black=black, rb_slot=rb_slot, br_slot=br_slot,
        br_col=br_col, black_rb=black[rb_col],
        back=np.argsort(np.concatenate([red, black]), kind="stable"),
        path_rb=(i * c_rb + at_rb)[real], path_br=(to * c_br + at_br)[real],
        cells=(r * i + br_col[to, at_br])[real], four=4 * np.eye(r),
        per=max(1, _JACOBIAN_ENTRIES // max(1, (rank * n // 2) ** 2)))  # most grids a solve takes


def _log_residual(q: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log form log Q_m^2 - log(d), d = prod + Q_{m-1} Q_{m+1}, of every
    equation, dimensionless and close to linear in log Q, and per grid the
    weights of its Jacobian: 0, then prod / d and Q_{m-1} Q_{m+1} / d flat."""
    square, prod, cross = terms(q, adj)
    d = prod + cross
    w = np.zeros((*d.shape[:-2], 1 + 2 * d.shape[-2] * d.shape[-1]))
    parts = w[..., 1:].reshape(*d.shape[:-2], 2, *d.shape[-2:])
    np.divide(prod, d, out=parts[..., 0, :, :])
    np.divide(cross, d, out=parts[..., 1, :, :])
    return np.log(square / d), w


def _jacobian_log(w: np.ndarray, plan: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """The log-form Jacobian J = 2I - N at the weights ``w`` of a stack of
    grids, as the rows of N_rb and N_br at the columns of the plan:
    row (a, m) is 2 at (a, m), which no term of it involves, -prod / d at
    (b, m), b ~ a, and -Q_{m-1} Q_{m+1} / d at (a, m -+ 1), of the other colour."""
    return w[..., plan.rb_slot], w[..., plan.br_slot]


def _log_solver(w: np.ndarray, plan: SimpleNamespace, invert: bool = False):
    """x = J^-1 b, b of shape (..., rank, n), for the log-form Jacobian J at
    the weights ``w``.  As J is 2I in its red-red and black-black blocks,
    (4I - N_rb N_br) x_r = 2 b_r + N_rb b_b and x_b = (b_b + N_br x_r) / 2
    (Saad, *Iterative Methods for Sparse Linear Systems*, sec. 3.3).  The
    Schur complement, half the size of J, is summed path by path and solved
    by ``np.linalg.solve`` at each call (raising ``LinAlgError`` where
    singular), or with ``invert`` inverted once, each solve then corrected
    once in float64 to the accuracy of an LU solve."""
    n_rb, n_br = _jacobian_log(w, plan)
    batch, r, count = w.shape[:-1], len(plan.red), w.size // w.shape[-1]
    paths = n_rb.reshape(count, -1)[:, plan.path_rb] * n_br.reshape(count, -1)[:, plan.path_br]
    at = plan.cells if count == 1 else (r * r * np.arange(count)[:, None] + plan.cells).ravel()
    schur = plan.four - np.bincount(at, paths.ravel(), count * r * r).reshape(*batch, r, r)
    inverse = np.linalg.inv(schur) if invert else None

    def solve(b: np.ndarray) -> np.ndarray:
        flat = b.reshape(*batch, -1)
        rhs = (2 * flat[..., plan.red] + (n_rb * flat[..., plan.black_rb]).sum(axis=-1))[..., None]
        x_r = np.linalg.solve(schur, rhs) if inverse is None else inverse @ rhs
        if inverse is not None:
            x_r += inverse @ (rhs - schur @ x_r)
        x_r = x_r[..., 0]
        x_b = (flat[..., plan.black] + (n_br * x_r[..., plan.br_col]).sum(axis=-1)) / 2
        return np.concatenate((x_r, x_b), axis=-1)[..., plan.back].reshape(b.shape)
    return solve


def _initial_guess(rank: int, k: int) -> np.ndarray:
    m = np.arange(1, k)
    return np.tile(1.0 + m * (k - m) / k, (rank, 1))


def _newton_steps(g: np.ndarray, w: np.ndarray,
                  plan: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps J^-1 (-g) of the log form for a stack of grids at the
    weights ``w``, solved in even groups of at most ``_JACOBIAN_ENTRIES``
    Schur-complement entries, and which grids have a singular Jacobian:
    a group with one is solved again grid by grid, and its step is NaN."""
    step = np.empty_like(g)
    singular = np.zeros(len(g), dtype=bool)
    per = -(-len(g) // -(-len(g) // plan.per))
    for lo in range(0, len(g), per):
        try:
            step[lo:lo + per] = _log_solver(w[lo:lo + per], plan)(-g[lo:lo + per])
        except np.linalg.LinAlgError:
            for i in range(lo, min(lo + per, len(g))):
                try:
                    step[i:i + 1] = _log_solver(w[i:i + 1], plan)(-g[i:i + 1])
                except np.linalg.LinAlgError:
                    step[i], singular[i] = np.nan, True
    return step, singular


def _newton_float(dynkin: DynkinData, k: int, u0: np.ndarray, max_iter: int
                  ) -> tuple[np.ndarray, float | list, int | list, bool | list]:
    """Damped Newton on the log form of the recurrence at machine precision,
    from each start of the stack ``u0``, shape (..., rank, k-1).

    Solves g(u) = log Q_m^2 - log(prod + Q_{m-1} Q_{m+1}) = 0 in the
    log-coordinates u = log Q, with Armijo backtracking on ||g||^2
    (Dennis & Schnabel, ch. 6).  g is dimensionless, so the stop test is
    the fixed log-ratio ``_LOG_TOL``.  The live starts share the stacked
    linear solves of :func:`_newton_steps` and one line search per
    iteration; each keeps its own step length, iteration count and stop
    test, and a singular Jacobian or a failed line search stops only its
    own start, so every start follows the path it would follow alone.  A
    start leaves the stack when it stops, and an iteration that accepts
    every candidate takes the candidates' arrays whole.  Returns the value
    grids, shape (..., rank, k+1), and per start max |g|, the iteration
    count and a convergence flag, as Python numbers for a single start and
    nested lists for a stack; final accuracy comes from the refinement.
    """
    plan = _plan(dynkin, k)
    adj, batch = plan.adj, u0.shape[:-2]
    u = u0.reshape(-1, *u0.shape[-2:]).copy()
    start, its = np.arange(len(u)), np.zeros(len(u), dtype=int)  # each live grid's start
    stopped = np.zeros(len(u), dtype=bool)
    debug = _log.isEnabledFor(logging.DEBUG)
    # Overflowed or underflowed line-search candidates give inf/NaN in g;
    # the descent test rejects them, so silence the warnings.
    with np.errstate(all="ignore"):
        q = _grid(dynkin, k, np.exp(u))
        g, w = _log_residual(q, adj)
        nrm, base = np.abs(g).max(axis=(1, 2)), (g.reshape(len(g), -1) ** 2).sum(axis=1)
        q_out, nrm_out, its_out = np.empty_like(q), np.empty_like(nrm), np.empty_like(its)
        while True:
            go = ~(nrm <= _LOG_TOL) & (its < max_iter) & ~stopped
            if not go.all():
                out = start[~go]
                q_out[out], nrm_out[out], its_out[out] = q[~go], nrm[~go], its[~go]
                if not go.any():
                    break
                start, u, q, g, w, nrm, base, its = (
                    a[go] for a in (start, u, q, g, w, nrm, base, its))
            step, stopped = _newton_steps(g, w, plan)
            t = np.ones(len(g))
            search = np.flatnonzero(~stopped)
            while len(search):
                at = slice(None) if len(search) == len(u) else search
                cand = u[at] + t[at, None, None] * step[at]
                q_t = _grid(dynkin, k, np.exp(cand))
                g_t, w_t = _log_residual(q_t, adj)
                sum_t = (g_t.reshape(len(search), -1) ** 2).sum(axis=1)  # the next base
                good = sum_t < base[at] * (1 - 1e-4 * t[at])
                done = search[good]
                if len(done) == len(u):  # every candidate accepted: take them whole
                    u, q, g, w, nrm, base = cand, q_t, g_t, w_t, np.abs(g_t).max(axis=(1, 2)), sum_t
                    its += 1
                else:
                    u[done], q[done], g[done], w[done] = cand[good], q_t[good], g_t[good], w_t[good]
                    nrm[done], base[done] = np.abs(g_t[good]).max(axis=(1, 2)), sum_t[good]
                    its[done] += 1
                if debug:
                    for i in done:
                        _log.debug("newton %d: max|g| %.3e, step length %g (start %d)",
                                   its[i], nrm[i], t[i], start[i])
                search = search[~good]
                if len(search):
                    t[search] /= 2
                    stopped[search[t[search] <= _BACKTRACK_FLOOR]] = True
                    search = search[t[search] > _BACKTRACK_FLOOR]
    return (q_out.reshape(*batch, *q.shape[1:]), nrm_out.reshape(batch).tolist(),
            its_out.reshape(batch).tolist(), (nrm_out <= _LOG_TOL).reshape(batch).tolist())


def _mpf_at_scale(n: int, frac: int) -> mpmath.mpf:
    """The mpf n 2^-frac of an integer n > 0, exact, in the normal form of
    libmp: an odd mantissa and its bit count."""
    zeros = (n & -n).bit_length() - 1
    man = n >> zeros
    return mpmath.mp.make_mpf((0, MPZ(man), zeros - frac, man.bit_length()))


def _times_exp(n: int, delta: float, exp: int, bits: int) -> tuple[int, int]:
    """n exp(delta 2^exp) for an integer n > 0, rounded to nearest, ties to
    even, at ``bits`` significant bits, or at the unit where that is coarser, and
    the number of nonzero Taylor terms past n.

    The series n sum_j (delta 2^exp)^j / j! is summed on integers with
    ``_GUARD_BITS`` more bits than n until a term vanishes: each term is
    the last times |delta| 2^exp, shifted back by ``>>`` and floor-divided
    by j, so it is off by under one unit at the guard scale and their sum
    by some units there, far below the final rounding.
    """
    num, den = delta.as_integer_ratio()
    mul, shift = abs(num), den.bit_length() - 1 - exp
    if shift < 0:
        mul, shift = mul << -shift, 0
    total = term = n << _GUARD_BITS
    j = 0
    while term:
        j += 1
        term = (term * mul >> shift) // j
        total += -term if num < 0 and j & 1 else term
    drop = total.bit_length() - bits
    if drop < _GUARD_BITS:
        drop = _GUARD_BITS
    ties_to_even = (1 << drop - 1) - 1 + (total >> drop & 1)
    return (total + ties_to_even) >> drop << drop - _GUARD_BITS, j - 1


def _polish(dynkin: DynkinData, k: int,
            q_float: np.ndarray) -> tuple[np.ndarray, mpmath.mpf, int, float]:
    """Iterative refinement of the float solution on exact dyadic integers.

    Each Q is held as an integer n at one common scale 2^-F, where F is
    large enough that every ``bits``-bit value from half the smallest float
    value up is exact.  Each step evaluates the residual
    square - prod - Q_{m-1} Q_{m+1} exactly, through :func:`terms` on
    integers, every term lifted to the scale 2^(-D F) of the longest
    product, D = max(2, largest node degree).  It then solves
    J_g delta = -f / d in float64 for the log-coordinate correction delta,
    with J_g the Jacobian of the log form and d = prod + Q_{m-1} Q_{m+1},
    both taken at the float solution, through one inverse of its Schur
    complement: f / d is the log form to first order, and its rows are O(1)
    where those of f scale with the terms.  f enters float64 divided by a
    power of two that brings its largest entry to about 1, so it cannot
    underflow at any precision, and that power returns in the update
    n exp(delta) of :func:`_times_exp`, rounded to ``bits`` significant
    bits.  Stops once the exact residual is at most
    2^(8 - bits) times the term scale S, compared on integers, or after
    one step per 16 bits of precision.  Returns the value grid as an
    object array of mpf, the exact residual of those values as an mpf, the
    number of steps taken and S.
    """
    bits = precision_bits()
    adj = np.array(dynkin.adjacency)
    square, prod, cross = terms(q_float, adj)
    scale, d = float(np.max(square + prod + cross)), prod + cross
    solve = _log_solver(_log_residual(q_float, adj)[1], _plan(dynkin, k), invert=True)
    mant, expo = np.frexp(q_float)
    frac = bits + 1 - int(expo.min())
    degree = adj.sum(axis=1)
    top = max(2, int(degree.max()))  # the most factors in any term
    lift = (top - 2) * frac
    lift_prod = ((top - degree) * frac).astype(object)[:, None]
    num, den = scale.as_integer_ratio()
    target = num << top * frac + 8 - bits  # res <= target / den, at scale 2^(-top F)
    # each float is its 53-bit integer mantissa times 2^(expo - 53), and
    # expo + F - 53 >= bits - 52 > 0
    n = (mant * 2.0**53).astype(np.int64).astype(object) << (expo + frac - 53).astype(object)
    debug = _log.isEnabledFor(logging.DEBUG)
    if debug:
        _log.debug("polish: values at scale 2^-%d, residual at 2^-%d", frac, top * frac)

    def residual(n):
        square, prod, cross = terms(n, adj)
        return ((square - cross) << lift) - (prod << lift_prod)

    f = residual(n)
    res = np.max(np.abs(f))
    steps = 0
    while res * den > target and steps < bits // _BITS_PER_POLISH_STEP:
        size = res.bit_length()
        step = solve(-(f / (1 << size)).astype(float) / d)
        power = size - top * frac  # step * 2^power is the correction
        inner, used = zip(*[_times_exp(v, delta, power, bits) for v, delta
                            in zip(n[:, 1:k].ravel().tolist(), step.ravel().tolist())])
        n[:, 1:k] = np.array(inner, dtype=object).reshape(step.shape)
        f = residual(n)
        res = np.max(np.abs(f))
        steps += 1
        if debug:
            _log.debug("refine %d: residual / S %s, %d Taylor terms", steps,
                       mpmath.nstr(mpmath.ldexp(res, -top * frac) / scale, 4), max(used))
    values = np.full(n.shape, mpmath.mpf(1), dtype=object)
    values[:, 1:k] = np.frompyfunc(_mpf_at_scale, 2, 1)(n[:, 1:k], frac)
    return values, mpmath.mp.make_mpf(from_man_exp(res, -top * frac)), steps, scale


def solve_restricted(dynkin: DynkinData, k: int, tol: float = 1e-12,
                     max_iter: int = 200) -> RestrictedSolution:
    """Unique positive solution of the level-k restricted system.

    Deterministic start Q^(a)_m = 1 + m(k-m)/k.  The solve succeeds when
    the residual is at most ``tol * max(1, S)``, with S the largest term
    in any equation; otherwise it raises :class:`NoConvergence`, whose
    message gives the residual reached.
    """
    if k < 1:
        raise InvalidLevel(f"level must be >= 1, got {k}")
    if k == 1:
        values = {(a, m): mpmath.mpf(1)
                  for a in range(1, dynkin.rank + 1) for m in (0, 1)}
        return RestrictedSolution(dynkin.family, dynkin.rank, k, values, residual=0.0,
                                  float_iterations=0, polish_steps=0, term_scale=0.0,
                                  tol=tol, residual_mpf=mpmath.mpf(0))

    u0 = np.log(_initial_guess(dynkin.rank, k))
    q_float, res_float, its, ok = _newton_float(dynkin, k, u0, max_iter)
    if not ok:
        raise NoConvergence(f"float phase stalled at log residual {res_float:.3e}")
    with mpmath.workprec(precision_bits()):
        q, res, polish_its, scale = _polish(dynkin, k, q_float)
        if res > tol * max(1.0, scale):
            raise NoConvergence(
                f"residual {mpmath.nstr(res)} above tolerance {tol}"
                f" relative to term scale {scale:.3e}")
    values = {(a, m): q[a - 1, m]
              for a in range(1, dynkin.rank + 1) for m in range(k + 1)}
    return RestrictedSolution(dynkin.family, dynkin.rank, k, values, residual=float(res),
                              float_iterations=its, polish_steps=polish_its,
                              term_scale=scale, tol=tol, residual_mpf=res)


def check_positive_solution_properties(sol: RestrictedSolution,
                                       tol: float | None = None) -> PropertyReport:
    """Positivity, symmetry about k/2 and strict growth up to the midpoint.
    ``tol`` bounds each symmetry defect relative to max(1, |Q(a, m)|,
    |Q(a, k-m)|), 10x the solve tolerance by default."""
    return PropertyReport(positive_checks(sol.value, sol.rank, sol.level,
                                          10 * sol.tol if tol is None else tol, "Q"))


@dataclass(frozen=True)
class ProbeReport:
    """Agreement of randomized restarts with the deterministic solution."""

    starts: int
    converged: int
    max_deviation: float  # elementwise |q - ref| / max(1, |ref|)
    agree: bool


def uniqueness_probe(dynkin: DynkinData, k: int, n_starts: int = 20,
                     seed: int = 0, tol: float = 1e-8,
                     max_iter: int = 400) -> ProbeReport:
    """Rerun the float solve from log-coordinates jittered by +-50% and
    measure the spread, elementwise relative to max(1, |ref|).  The
    deterministic reference and every jittered start run as one stack
    through the batched Newton.  Evidence for uniqueness, never a proof."""
    if k < 1:
        raise InvalidLevel(f"level must be >= 1, got {k}")
    if k == 1:
        return ProbeReport(n_starts, n_starts, 0.0, True)
    u0 = np.log(_initial_guess(dynkin.rank, k))
    jitter = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n_starts, *u0.shape))
    q, _, its, ok = _newton_float(dynkin, k, np.concatenate((u0[None], u0 * (1 + jitter))),
                                  max_iter)
    if not ok[0]:
        raise NoConvergence("reference solve failed")
    ref, ok = q[0], np.array(ok[1:], dtype=bool)
    deviation = np.max(np.abs(q[1:][ok] - ref) / np.maximum(1.0, np.abs(ref)), axis=(1, 2))
    converged, worst = int(ok.sum()), float(deviation.max(initial=0.0))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("probe: %d starts, %d converged, float iterations max %d total %d, max deviation"
                   " %.3e", n_starts, converged, max(its[1:], default=0), sum(its[1:]), worst)
    return ProbeReport(n_starts, converged, worst,
                       converged == n_starts and worst <= tol)


# ---------------------------------------------------------------------------
# Rogers dilogarithm and the central-charge identity


@lru_cache(maxsize=None)
def _rogers_constants(prec: int) -> tuple[tuple, tuple[int, ...]]:
    """pi^2/6 at ``prec`` bits, and |B_2j| / (2j+1)!, j >= 1, rounded down at
    the fixed-point scale 2^-(prec + 20), as many as can reach that scale at
    z <= log 2, where each term of the series is under 2^-6 of the last."""
    pi2, wp = mpf_pow_int(mpf_pi(prec, round_nearest), 2, prec, round_nearest), prec + 20
    return mpf_div(pi2, from_int(6), prec, round_nearest), tuple(
        (abs(num) << wp) // (den * ifac(2 * j + 1))
        for j in range(1, wp // 6 + 2) for num, den in [bernfrac(2 * j)])


def _rogers_L(x: tuple, prec: int) -> tuple:
    """Rogers L of the libmp tuple ``x``, 0 < x < 1, at ``prec`` bits, each
    step rounded to nearest as the same mpf arithmetic would round it."""
    rest = mpf_sub(fone, x, prec, round_nearest)  # exact for x >= 1/2
    reflect = mpf_cmp(rest, x) < 0
    y, rest = (rest, x) if reflect else (x, mpf_sub(fone, x))  # rest = 1 - y, exact
    z = mpf_neg(mpf_log(rest, prec, round_nearest))
    (pi2_6, coefficients), wp = _rogers_constants(prec), prec + 20
    zf = to_fixed(z, wp)
    square, power = zf * zf >> wp, 1 << wp
    total = power - (zf >> 2)  # Li2(y) / z, from 1 - z / 4
    for j, coefficient in enumerate(coefficients):
        power = power * square >> wp
        term = coefficient * power >> wp
        if not term:
            break
        total += -term if j & 1 else term
    half_log_y = mpf_shift(mpf_log(y, prec, round_nearest), -1)
    L = mpf_mul(z, mpf_sub(from_man_exp(total, -wp), half_log_y, prec, round_nearest), prec,
                round_nearest)
    return mpf_sub(pi2_6, L, prec, round_nearest) if reflect else L


def rogers_L(x) -> mpmath.mpf:
    """Rogers dilogarithm on [0, 1], with L(0) = 0 and L(1) = pi^2/6.

    With y = min(x, 1 - x) <= 1/2 and z = -log(1 - y) <= log 2,
    L(y) = Li2(y) - log(y) z / 2 = z (Li2(y) / z - log(y) / 2) (Zagier,
    *The Dilogarithm Function*), and L(x) = pi^2/6 - L(y) above 1/2.  1 - y
    is taken exactly, so z keeps every digit however small y is (mpf_log
    raises its own precision next to 1), and Li2(y) / z =
    1 - z/4 + sum_{j>=1} B_2j z^2j / (2j+1)! is summed in a Python-integer
    fixed-point loop at 20 bits above the working precision until a term
    vanishes, each power a product shifted back by ``>>``: the terms shrink
    by (z / 2 pi)^2 < 2^-6 each, so some 24 terms reach 128 bits, and their
    truncation errors stay far inside the guard bits.  Li2(y) / z is near 1
    and -log(y) / 2 positive, so the sum and the product with z lose no
    digits.
    """
    with mpmath.workprec(precision_bits()):
        x = mpmath.mpf(x)
        if not 0 <= x <= 1:
            raise DomainError(f"Rogers dilogarithm needs 0 <= x <= 1, got {x}")
        if x == 0:
            return mpmath.mpf(0)
        if x == 1:
            return mpmath.pi**2 / 6
        return mpmath.mp.make_mpf(_rogers_L(x._mpf_, mpmath.mp.prec))


@dataclass(frozen=True)
class DilogReport:
    """Normalized dilogarithm sum against the closed rational value."""

    lhs: mpmath.mpf
    rhs: Fraction
    x_values: Mapping[tuple[int, int], mpmath.mpf]
    delta: float
    delta_mpf: mpmath.mpf  # |lhs - rhs| at the working precision, of which ``delta`` is the float


def dilog_identity(sol: RestrictedSolution, dynkin: DynkinData) -> DilogReport:
    """Evaluate (6/pi^2) * sum of L(x^(a)_m) against (k-1) h r / (h + k).

    The arguments x^(a)_m = (neighbor product) / Q^2 must lie in (0, 1)
    for a genuine positive solution; anything else raises
    :class:`XOutOfRange`, naming the first, node by node and m by m.  The
    arguments are prod / square of :func:`tuple_terms` on libmp tuples at
    the working precision.  L is evaluated once per distinct argument; the
    sum, node by node and m by m, has the bits of one L per argument.
    """
    k, r, h = sol.level, sol.rank, dynkin.coxeter
    rhs = Fraction((k - 1) * h * r, h + k)
    x_values: dict[tuple[int, int], mpmath.mpf] = {}
    rogers: dict[tuple, tuple] = {}  # the mpf and L by the libmp tuple of each argument
    with mpmath.workprec(precision_bits()):
        prec = mpmath.mp.prec
        q = [[sol.value(a, m)._mpf_ for m in range(1, k)] for a in range(1, r + 1)]
        total = fzero
        for a, edges in enumerate(dynkin.adjacency):
            squares, prods = tuple_terms(q[a], [q[b] for b, edge in enumerate(edges) if edge], prec)
            for m, (square, prod) in enumerate(zip(squares, prods)):
                t = mpf_div(prod, square, prec, round_nearest)
                if t not in rogers:  # a new argument: checked, made an mpf and evaluated once
                    x = mpmath.mp.make_mpf(t)
                    if not (mpf_lt(fzero, t) and mpf_lt(t, fone)):
                        raise XOutOfRange(f"x({a + 1},{m + 1}) = {mpmath.nstr(x)} outside (0,1)")
                    rogers[t] = x, _rogers_L(t, prec)
                x_values[(a + 1, m + 1)], value = rogers[t]
                total = mpf_add(total, value, prec, round_nearest)
        lhs = 6 / mpmath.pi**2 * mpmath.mp.make_mpf(total)
        delta_mpf = abs(lhs - mpmath.mpf(rhs.numerator) / rhs.denominator)
    delta = float(delta_mpf)
    _log.debug("dilog: %d arguments, %d evaluated, delta %.3e", len(x_values), len(rogers), delta)
    return DilogReport(lhs=lhs, rhs=rhs, x_values=x_values, delta=delta, delta_mpf=delta_mpf)
