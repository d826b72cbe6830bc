import json
import logging
import math
import os
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import (dense_log_solver, dilog_sum_oracle, jacobian_from_blocks,
                     jacobian_log_dense, jacobian_log_form_einsum, log_residual_concatenated,
                     log_solver_by_key, newton_float_reindexed, newton_float_sequential,
                     newton_steps_by_key, polish_mpf, rogers_L_mpf, uniqueness_probe_sequential)
from qsystem import solver
from qsystem.dynkin import build_dynkin
from qsystem.qdim import precision_bits
from qsystem.solver import (DomainError, InvalidLevel, NoConvergence,
                            XOutOfRange, check_positive_solution_properties,
                            dilog_identity, rogers_L, solve_restricted,
                            uniqueness_probe, _grid, _initial_guess,
                            _jacobian_log, _log_residual, _newton_float)
from qsystem.io import solution_to_dict
from qsystem.recurrence import terms
from qsystem.table import build_qtable


def test_a1_level2_hand_algebra():
    # Q^2 = 1 + Q_0 Q_2 = 2
    sol = solve_restricted(build_dynkin("A", 1), 2)
    assert sol.residual < 1e-12
    with mpmath.workprec(precision_bits()):
        assert abs(sol.value(1, 1) - mpmath.sqrt(2)) < mpmath.mpf(10) ** -30


def test_level_one_trivial():
    sol = solve_restricted(build_dynkin("D", 4), 1)
    assert sol.residual == 0 and sol.iterations == 0
    assert set(sol.values) == {(a, m) for a in range(1, 5) for m in (0, 1)}
    assert all(v == 1 for v in sol.values.values())


def test_invalid_level():
    with pytest.raises(InvalidLevel):
        solve_restricted(build_dynkin("A", 2), 0)


def test_no_convergence_budget():
    with pytest.raises(NoConvergence):
        solve_restricted(build_dynkin("D", 5), 4, max_iter=1)


def test_a1_chain_closed_form(monkeypatch):
    # the single-node chain solves in sines: Q_m = sin((m+1)t)/sin(t), t = pi/(k+2)
    a1 = build_dynkin("A", 1)
    for bits, digits in ((128, 25), (256, 70)):
        monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
        for k in (2, 3, 4, 6):
            sol = solve_restricted(a1, k)
            with mpmath.workprec(bits):
                t = mpmath.pi / (k + 2)
                for m in range(k + 1):
                    expected = mpmath.sin((m + 1) * t) / mpmath.sin(t)
                    assert abs(sol.value(1, m) - expected) < mpmath.mpf(10) ** -digits


def _loop_residual_and_scale(sol, dynkin):
    """Largest residual and largest term of the recurrence, cell by cell."""
    res = scale = mpmath.mpf(0)
    for a in range(1, sol.rank + 1):
        for m in range(1, sol.level):
            prod = mpmath.mpf(1)
            for b in range(1, sol.rank + 1):
                if dynkin.adjacency[a - 1][b - 1]:
                    prod *= sol.value(b, m)
            terms = (sol.value(a, m) ** 2, prod, sol.value(a, m - 1) * sol.value(a, m + 1))
            res = max(res, abs(terms[0] - terms[1] - terms[2]))
            scale = max(scale, sum(terms))
    return res, scale


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_refinement_reaches_working_precision(monkeypatch, bits):
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    for family, rank, k in (("D", 8, 6), ("A", 8, 8), ("A", 1, 4)):
        dynkin = build_dynkin(family, rank)
        sol = solve_restricted(dynkin, k)
        with mpmath.workprec(bits):
            res, scale = _loop_residual_and_scale(sol, dynkin)
            assert res <= mpmath.ldexp(scale, 8 - bits), (family, rank, k)


def test_refinement_past_float64_exponent_range(monkeypatch):
    # at 1200 bits the residual is near 2^-1190 S, below the smallest float64;
    # the right-hand side is scaled by a power of two before the float solve
    bits = 1200
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    sol = solve_restricted(build_dynkin("A", 1), 4)
    assert sol.polish_steps <= 30
    with mpmath.workprec(bits + 20):
        for m in range(5):
            expected = mpmath.sin((m + 1) * mpmath.pi / 6) / mpmath.sin(mpmath.pi / 6)
            assert abs(sol.value(1, m) - expected) <= mpmath.ldexp(sol.term_scale, 8 - bits), m


def _fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** exp


def _exact_residual(q: np.ndarray, dynkin) -> Fraction:
    """Largest |Q_m^2 - prod - Q_{m-1} Q_{m+1}| of the mpf grid ``q``, in
    fractions, equation by equation."""
    v = [[_fraction(x) for x in row] for row in q]
    worst = Fraction(0)
    for a, row in enumerate(dynkin.adjacency):
        for m in range(1, len(v[a]) - 1):
            prod = math.prod((v[b][m] for b, edge in enumerate(row) if edge), start=Fraction(1))
            worst = max(worst, abs(v[a][m] ** 2 - prod - v[a][m - 1] * v[a][m + 1]))
    return worst


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize("family,rank", [("D", r) for r in range(4, 10)]
                         + [("A", r) for r in range(1, 9)])
def test_polish_matches_mpf_oracle(family, rank, bits, monkeypatch):
    # the refinement on integers against the one on mpf values: both reach
    # the target, in no more steps, at the same values, and the residual it
    # returns is the exact residual of the values it returns
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    dynkin = build_dynkin(family, rank)
    for k in range(2, 9):
        q_float = _newton_float(dynkin, k, np.log(_initial_guess(rank, k)), 200)[0]
        with mpmath.workprec(bits):
            q, res, steps, scale = solver._polish(dynkin, k, q_float)
            want, want_res, want_steps, want_scale = polish_mpf(dynkin, k, q_float)
            case = (family, rank, k, bits)
            assert scale == want_scale
            assert want_res <= mpmath.ldexp(scale, 8 - bits), case
            assert res <= mpmath.ldexp(scale, 8 - bits), case
            assert steps <= want_steps, (case, steps, want_steps)
            assert all(x._mpf_[3] <= bits for x in q.ravel()), case
            assert all(abs(x - y) <= mpmath.ldexp(abs(y), 10 - bits)
                       for x, y in zip(q.ravel(), want.ravel())), case
            assert _fraction(res) == _exact_residual(q, dynkin), case


@given(st.integers(64, 600), st.integers(0, 2**600), st.floats(-1, 1),
       st.one_of(st.integers(-80, 0), st.integers(-1300, 0)))
@settings(max_examples=200, deadline=None)
def test_times_exp_rounds_to_nearest(bits, low, delta, power):
    # n exp(delta 2^power) on integers against mpmath 80 bits beyond the
    # result, rounded to nearest at ``bits`` bits; n has over ``bits`` + 1
    # bits, so that rounding is coarser than the unit.  Within 2^-10 units in
    # the last place of a tie either neighbour passes: the series is summed
    # with 20 guard bits, not to the last bit
    n = (1 << bits + 2) + low
    got, _ = solver._times_exp(n, delta, power, bits)
    with mpmath.workprec(n.bit_length() + abs(power) + 80):
        exact = n * mpmath.exp(mpmath.ldexp(delta, power))
        slack = mpmath.ldexp(1, int(exact).bit_length() - bits - 10)
        near = (exact - slack, exact + slack)
    with mpmath.workprec(bits):
        assert got in {int(mpmath.mpf(x)) for x in near}, (n, delta, power)


def test_boundaries_are_unit():
    sol = solve_restricted(build_dynkin("D", 6), 3)
    for a in range(1, 7):
        assert sol.value(a, 0) == 1 and sol.value(a, 3) == 1


def test_matches_qtable_d4():
    d4 = build_dynkin("D", 4)
    sol = solve_restricted(d4, 3)
    table = build_qtable(d4, 3, m_max=3)
    for a in range(1, 5):
        for m in range(4):
            assert abs(sol.value(a, m) - table.value(a, m)) < 1e-8


def test_properties_a1():
    sol = solve_restricted(build_dynkin("A", 1), 4)
    report = check_positive_solution_properties(sol)
    assert report.passed
    assert sol.value(1, 1) < sol.value(1, 2)
    assert abs(sol.value(1, 1) - sol.value(1, 3)) < 1e-12


def test_properties_k2_degenerate():
    sol = solve_restricted(build_dynkin("D", 4), 2)
    assert check_positive_solution_properties(sol).passed


def _finite_difference_jacobian(residual, dynkin, k, u, adj, eps=1e-6):
    n = u.size
    fd = np.zeros((n, n))
    for idx in range(n):
        du = np.zeros(n)
        du[idx] = eps
        up = residual(_grid(dynkin, k, np.exp(u + du.reshape(u.shape))), adj)
        dn = residual(_grid(dynkin, k, np.exp(u - du.reshape(u.shape))), adj)
        fd[:, idx] = ((up - dn) / (2 * eps)).reshape(-1)
    return fd


def test_log_form_jacobian_against_finite_differences():
    # the dense form rebuilt from the red-black blocks
    d5 = build_dynkin("D", 5)
    k = 5
    rng = np.random.default_rng(4)
    adj = np.array(d5.adjacency, dtype=float)
    u = np.log(_initial_guess(5, k)) + rng.uniform(-0.5, 0.5, (5, k - 1))
    _, w = _log_residual(_grid(d5, k, np.exp(u)), adj)
    plan = solver._plan(d5, k)
    jac = jacobian_from_blocks(*_jacobian_log(w, plan), plan)
    fd = _finite_difference_jacobian(lambda q, adj: _log_residual(q, adj)[0], d5, k, u, adj)
    assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) < 1e-6


GRID = [("A", r) for r in range(1, 13)] + [("D", r) for r in range(4, 13)]


def test_float_newton_converges_on_grid():
    for family, rank in GRID:
        dynkin = build_dynkin(family, rank)
        for k in range(2, 13):
            u0 = np.log(_initial_guess(rank, k))
            _, res, iterations, ok = _newton_float(dynkin, k, u0, 200)
            assert ok and res <= 1e-13, (family, rank, k, res)
            assert iterations <= 10, (family, rank, k, iterations)


@given(st.sampled_from([c for c in GRID if c[1] <= 8]), st.integers(2, 8),
       st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_float_newton_from_jittered_starts(case, k, seed):
    family, rank = case
    dynkin = build_dynkin(family, rank)
    u0 = np.log(_initial_guess(rank, k))
    ref, _, _, ok = _newton_float(dynkin, k, u0, 200)
    assert ok
    start = u0 * (1 + np.random.default_rng(seed).uniform(-0.5, 0.5, size=u0.shape))
    q, _, _, ok = _newton_float(dynkin, k, start, 400)
    assert ok
    assert np.max(np.abs(q - ref) / ref) <= 1e-10


def test_jacobians_match_einsum_blocks_bit_for_bit():
    # the red-black blocks, on a stack of grids and on one grid, hold the
    # off-diagonal entries of the dense einsum form bit for bit; its diagonal,
    # 2 by algebra, is within a few ulps of 2
    rng = np.random.default_rng(5)
    for family, rank, k in (("A", 1, 2), ("A", 3, 5), ("D", 5, 4), ("D", 8, 6),
                            ("D", 12, 12)):
        dynkin = build_dynkin(family, rank)
        adj = np.array(dynkin.adjacency, dtype=float)
        plan = solver._plan(dynkin, k)
        u = np.log(_initial_guess(rank, k)) + rng.uniform(-0.5, 0.5, (3, rank, k - 1))
        q = _grid(dynkin, k, np.exp(u))
        _, w = _log_residual(q, adj)
        n_rb, n_br = _jacobian_log(w, plan)
        off = ~np.eye(rank * (k - 1), dtype=bool)
        for i in range(len(q)):
            single = _jacobian_log(w[i], plan)
            assert np.array_equal(single[0], n_rb[i]) and np.array_equal(single[1], n_br[i])
            jac = jacobian_from_blocks(n_rb[i], n_br[i], plan)
            want = jacobian_log_form_einsum(q[i], adj)
            # as bits, + 0.0 turning any -0.0 into 0.0
            assert np.array_equal(jac[off].view(np.int64), (want[off] + 0.0).view(np.int64))
            assert np.all(np.abs(np.diag(want) - 2) <= 4 * np.spacing(2.0)), (family, rank, k)
            assert np.array_equal(jac, jacobian_log_dense(w[i], adj))


def _jittered_grids(dynkin, k, seed, n_starts=4):
    """Value grids from starts jittered by +-50% in log-coordinates, as the
    uniqueness probe draws them."""
    u0 = np.log(_initial_guess(dynkin.rank, k))
    rng = np.random.default_rng(seed)
    starts = [u0 * (1 + rng.uniform(-0.5, 0.5, size=u0.shape)) for _ in range(n_starts)]
    return _grid(dynkin, k, np.exp(np.stack(starts)))


@given(st.sampled_from(GRID), st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_red_black_solve_matches_dense_solve(case, k, seed):
    # the Schur-complement solve, on a stack of jittered grids, against
    # np.linalg.solve of the dense Jacobian: a backward-stable solve of J is
    # off by at most about cond(J) u n relative to the exact solution
    dynkin = build_dynkin(*case)
    adj = np.array(dynkin.adjacency, dtype=float)
    q = _jittered_grids(dynkin, k, seed)
    g, w = _log_residual(q, adj)
    size = g[0].size
    for invert in (False, True):
        got = solver._log_solver(w, solver._plan(dynkin, k), invert)(-g)
        for i in range(len(q)):
            jac = jacobian_log_dense(w[i], adj)
            want = np.linalg.solve(jac, -g[i].reshape(-1))
            bound = size * np.linalg.cond(jac) * np.finfo(float).eps
            error = np.linalg.norm(got[i].reshape(-1) - want) / np.linalg.norm(want)
            assert error <= bound, (case, k, seed, invert, error, bound)


def test_red_black_solve_with_no_red_unknown():
    # A1k2 has one unknown, Q_1, which couples to nothing: the red class is
    # empty, the Schur complement is 0 x 0 and x = b / 2
    a1 = build_dynkin("A", 1)
    adj = np.array(a1.adjacency, dtype=float)
    plan = solver._plan(a1, 2)
    assert len(plan.red) == 0 and list(plan.black) == [0]
    g, w = _log_residual(_jittered_grids(a1, 2, 7), adj)
    for invert in (False, True):
        assert np.array_equal(solver._log_solver(w, plan, invert)(g), g / 2)
    step, singular = solver._newton_steps(g, w, plan)
    assert np.array_equal(step, -g / 2) and not singular.any()


@given(st.sampled_from([c for c in GRID if c[1] <= 8]), st.integers(1, 10),
       st.integers(0, 2**32 - 1), st.integers(3, 9))
@settings(max_examples=40, deadline=None)
def test_batched_probe_matches_sequential_oracle(case, k, seed, max_iter):
    # the stacked Newton must follow every start's own path: same count,
    # bit-identical deviation, or the same failure of the reference
    dynkin = build_dynkin(*case)
    try:
        want = uniqueness_probe_sequential(dynkin, k, seed=seed, max_iter=max_iter)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            uniqueness_probe(dynkin, k, seed=seed, max_iter=max_iter)
        return
    got = uniqueness_probe(dynkin, k, seed=seed, max_iter=max_iter)
    assert (got.starts, got.converged, got.agree) == (want.starts, want.converged, want.agree)
    assert repr(got.max_deviation) == repr(want.max_deviation)


@pytest.mark.parametrize("family,rank,k,seed", [("D", 8, 6, 0), ("A", 8, 8, 1),
                                                ("D", 12, 12, 2), ("A", 12, 12, 3)])
def test_batched_probe_matches_sequential_oracle_at_default_budget(family, rank, k, seed):
    dynkin = build_dynkin(family, rank)
    got = uniqueness_probe(dynkin, k, n_starts=8, seed=seed)
    want = uniqueness_probe_sequential(dynkin, k, n_starts=8, seed=seed)
    assert got == want and repr(got.max_deviation) == repr(want.max_deviation)


def _singular_blocks(jacobian, plan, stuck_w):
    """``jacobian`` with the blocks of a singular Schur complement for every
    grid whose weights are ``stuck_w``: the first red unknown coupled to its
    first black neighbour j with 2 both ways and nothing else anywhere, so
    N_rb N_br is 4 at (0, 0) and 0 elsewhere, and that row of 4I - N_rb N_br
    is zero."""
    j = list(plan.black).index(plan.black_rb[0, 0])
    n_rb, n_br = np.zeros(plan.rb_slot.shape), np.zeros(plan.br_slot.shape)
    n_rb[0, 0], n_br[j, list(plan.br_col[j]).index(0)] = 2.0, 2.0

    def blocks(w, index):
        out = jacobian(w, index)
        hit = np.all(w == stuck_w, axis=-1)
        out[0][hit], out[1][hit] = n_rb, n_br
        return out
    return blocks


def test_batched_newton_stops_only_the_singular_start(monkeypatch):
    d5 = build_dynkin("D", 5)
    k = 4
    u0 = np.log(_initial_guess(5, k))
    starts = np.stack([u0, u0 * 1.2])
    stuck = _grid(d5, k, np.exp(starts[1]))
    plan = solver._plan(d5, k)
    stuck_w = _log_residual(stuck, plan.adj)[1]
    monkeypatch.setattr(solver, "_jacobian_log",
                        _singular_blocks(solver._jacobian_log, plan, stuck_w))
    q, res, iterations, ok = _newton_float(d5, k, starts, 200)
    assert ok == [True, False] and iterations[1] == 0
    assert np.array_equal(q[1], stuck)
    alone = newton_float_sequential(d5, k, u0, 200)
    assert np.array_equal(q[0], alone[0]) and (res[0], iterations[0]) == alone[1:3]


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("extra", [0, 1])
def test_stacked_newton_of_one_group_stops_only_the_singular_start(monkeypatch, extra):
    # D12k12 solves at most 7 grids at once: a stack of 7 is one group and
    # one of 8 two groups of 4.  Either way the grid with a
    # singular Schur complement stops at once, and every other start follows
    # its own path bit for bit
    d12, k = build_dynkin("D", 12), 12
    plan = solver._plan(d12, k)
    assert plan.per == 7
    u0 = np.log(_initial_guess(12, k))
    jitter = np.random.default_rng(extra).uniform(-0.5, 0.5, size=(plan.per + extra, *u0.shape))
    starts = u0 * (1 + jitter)
    stuck = _grid(d12, k, np.exp(starts[3]))
    monkeypatch.setattr(solver, "_jacobian_log", _singular_blocks(
        solver._jacobian_log, plan, _log_residual(stuck, plan.adj)[1]))
    q, res, iterations, ok = _newton_float(d12, k, starts, 200)
    assert not ok[3] and iterations[3] == 0 and np.array_equal(q[3], stuck)
    for i in sorted(set(range(len(starts))) - {3}):
        alone = newton_float_sequential(d12, k, starts[i], 200)
        assert _same_bits(q[i], alone[0]) and (res[i], iterations[i], ok[i]) == alone[1:], i


@given(st.sampled_from(GRID), st.integers(2, 12), st.integers(0, 2**32 - 1), st.integers(1, 12))
@example(("A", 1), 2, 7, 3)  # no red unknown: the Schur complement is 0 x 0
@settings(max_examples=60, deadline=None)
def test_plan_matches_per_call_kernels(case, k, seed, max_iter):
    # on a jittered stack, g, w and the steps of both solve modes bit for bit
    # against the kernels that look their indices up at every call; then the
    # Newton from the deterministic start and that stack, a small max_iter
    # stopping some starts: each start's grid, max |g|, count and flag
    dynkin = build_dynkin(*case)
    adj = np.array(dynkin.adjacency, dtype=float)
    plan = solver._plan(dynkin, k)
    q = _jittered_grids(dynkin, k, seed)
    (g, w), (want_g, want_w) = _log_residual(q, adj), log_residual_concatenated(q, adj)
    assert _same_bits(g, want_g) and _same_bits(w, want_w)
    step, singular = solver._newton_steps(g, w, plan)
    want_step, want_singular = newton_steps_by_key(g, w, adj)
    assert _same_bits(step, want_step) and not singular.any() and not want_singular.any()
    assert _same_bits(solver._log_solver(w, plan, invert=True)(g),
                      log_solver_by_key(w, adj, invert=True)(g))
    starts = np.log(np.concatenate([_initial_guess(case[1], k)[None], q[..., 1:k]]))
    got = _newton_float(dynkin, k, starts, max_iter)
    want = newton_float_reindexed(dynkin, k, starts, max_iter)
    assert _same_bits(got[0], want[0]) and got[1:] == want[1:], (case, k, seed, max_iter)


def test_plan_matches_per_call_kernels_with_a_singular_start(monkeypatch):
    # the second start's Schur complement is singular in both: it stops at
    # once, and the others run on alone
    d5, k = build_dynkin("D", 5), 4
    u0 = np.log(_initial_guess(5, k))
    starts = np.stack([u0, u0 * 1.2, u0 * 0.8])
    plan = solver._plan(d5, k)
    stuck_w = _log_residual(_grid(d5, k, np.exp(starts[1])), plan.adj)[1]
    monkeypatch.setattr(solver, "_jacobian_log",
                        _singular_blocks(solver._jacobian_log, plan, stuck_w))
    monkeypatch.setattr(oracles, "jacobian_log_by_key",
                        _singular_blocks(oracles.jacobian_log_by_key, plan, stuck_w))
    got, want = _newton_float(d5, k, starts, 200), newton_float_reindexed(d5, k, starts, 200)
    assert got[3] == [True, False, True] and got[2][1] == 0
    assert _same_bits(got[0], want[0]) and got[1:] == want[1:]


def test_one_plan_serves_the_solve_probe_and_refinement():
    # the plan of D8k6 is built once and then only looked up, once by each
    # float Newton and once by the refinement, never per step
    solver._plan.cache_clear()
    d8 = build_dynkin("D", 8)
    solve_restricted(d8, 6)
    uniqueness_probe(d8, 6)
    info = solver._plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("family,rank,k", [("D", 8, 6), ("A", 8, 8), ("D", 12, 12)])
def test_solve_restricted_values_match_sequential_newton(monkeypatch, family, rank, k):
    # the whole solve, float phase and refinement, with the sequential
    # Newton swapped back in
    monkeypatch.setenv("QSYS_PRECISION_BITS", "128")
    dynkin = build_dynkin(family, rank)
    got = solve_restricted(dynkin, k)
    monkeypatch.setattr(solver, "_newton_float", newton_float_sequential)
    want = solve_restricted(dynkin, k)
    assert got.values.keys() == want.values.keys()
    assert all(got.values[key] == want.values[key] for key in want.values)
    assert (got.residual, got.float_iterations, got.polish_steps, got.term_scale) == (
        want.residual, want.float_iterations, want.polish_steps, want.term_scale)


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("family,rank,k", [("D", 8, 6), ("A", 8, 8), ("D", 12, 12)])
def test_solve_restricted_matches_dense_path(monkeypatch, family, rank, k, bits):
    # the whole solve with every linear system solved on the dense Jacobian.
    # Both stop at residuals |f| <= 2^(8 - bits) S, so in log-coordinates each
    # is within ||J^-1|| 2^(8 - bits) S / min d of the exact solution, and
    # the two values within twice that, relative, of each other
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    dynkin = build_dynkin(family, rank)
    got = solve_restricted(dynkin, k)
    monkeypatch.setattr(solver, "_newton_float",
                        lambda *args: newton_float_sequential(*args, dense=True))
    monkeypatch.setattr(solver, "_log_solver", dense_log_solver)
    want = solve_restricted(dynkin, k)
    assert got.float_iterations == want.float_iterations
    assert abs(got.polish_steps - want.polish_steps) <= 1
    adj = np.array(dynkin.adjacency, dtype=float)
    q = np.array([[float(want.value(a, m)) for m in range(k + 1)] for a in range(1, rank + 1)])
    _, prod, cross = terms(q, adj)
    inverse = np.linalg.inv(jacobian_log_dense(_log_residual(q, adj)[1], adj))
    bound = 2 * np.linalg.norm(inverse, np.inf) * want.term_scale / np.min(prod + cross)
    with mpmath.workprec(bits):
        for key, y in want.values.items():
            assert abs(got.values[key] - y) <= mpmath.ldexp(bound * y, 8 - bits), key


@pytest.fixture(scope="module")
def d16_level16():
    return solve_restricted(build_dynkin("D", 16), 16)


def test_solve_d16_level16(d16_level16):
    sol = d16_level16
    assert sol.residual <= sol.tol * sol.term_scale
    assert check_positive_solution_properties(sol, tol=1e-25).passed


def test_solution_properties_at_d16_level16(d16_level16):
    # values reach about 4e22, where an absolute 10 * tol symmetry test
    # rejects a defect of some 1e-27 relative
    report = check_positive_solution_properties(d16_level16)
    assert report.passed, report.failures[:3]
    assert report.check("symmetry").passed  # at the default 10 * tol, relative


def test_d16_level16_refines_in_few_steps_at_512_bits(monkeypatch):
    # the refinement solves the log form, whose rows are O(1) where the raw
    # residual's reach 1e45 here, so each float64 correction keeps more
    # bits: 10 steps, against 21 with the raw residual's Jacobian
    monkeypatch.setenv("QSYS_PRECISION_BITS", "512")
    sol = solve_restricted(build_dynkin("D", 16), 16)
    assert sol.polish_steps <= 12
    assert sol.residual <= 2.0 ** (8 - 512) * sol.term_scale


def test_solution_reports_phases(caplog):
    d5 = build_dynkin("D", 5)
    with caplog.at_level(logging.DEBUG, logger="qsystem.solver"):
        sol = solve_restricted(d5, 4)
    assert sol.float_iterations > 0 and sol.polish_steps > 0
    assert sol.iterations == sol.float_iterations + sol.polish_steps
    assert sol.term_scale > 1
    messages = [r.getMessage() for r in caplog.records]
    assert sum(m.startswith("newton ") for m in messages) == sol.float_iterations
    assert sum(m.startswith("refine ") for m in messages) == sol.polish_steps
    data = json.loads(json.dumps(solution_to_dict(sol)))
    assert (data["float_iterations"], data["polish_steps"], data["iterations"]) == (
        sol.float_iterations, sol.polish_steps, sol.iterations)
    assert data["term_scale"] == sol.term_scale


def test_refinement_logs_scale_residual_and_taylor_terms(caplog):
    # one record gives the scale 2^-F of the values; each step's record the
    # exact residual / S and the most Taylor terms any correction used
    d5 = build_dynkin("D", 5)
    with caplog.at_level(logging.DEBUG, logger="qsystem.solver"):
        sol = solve_restricted(d5, 4)
    scales = [r for r in caplog.records if r.getMessage().startswith("polish: ")]
    assert len(scales) == 1
    frac, residual_scale = scales[0].args
    assert frac == precision_bits()  # every value is at least 1 here
    assert residual_scale == 3 * frac  # D5 has a node of degree 3
    steps = [r.args for r in caplog.records if r.getMessage().startswith("refine ")]
    assert [step for step, _, _ in steps] == list(range(1, sol.polish_steps + 1))
    assert all(terms >= 1 for _, _, terms in steps)
    assert float(steps[-1][1]) == pytest.approx(sol.relative_residual, rel=1e-3)
    assert float(steps[-1][1]) <= 2.0 ** (8 - precision_bits())


@pytest.mark.parametrize("family,rank,k", [("A", 2, 3), ("D", 5, 4)])
def test_uniqueness_probe(family, rank, k):
    report = uniqueness_probe(build_dynkin(family, rank), k)
    assert report.converged == report.starts == 20
    assert report.max_deviation <= 1e-8
    assert report.agree


@pytest.mark.parametrize("family", ["A", "D"])
def test_uniqueness_probe_is_relative_at_large_values(family):
    # values reach about 1e7 (A12k12) and 5e12 (D12k12); an absolute
    # deviation would read large even where every digit agrees
    report = uniqueness_probe(build_dynkin(family, 12), 12, n_starts=5)
    assert report.converged == report.starts == 5
    assert report.max_deviation <= 1e-8
    assert report.agree


def test_uniqueness_probe_logs_its_starts(caplog):
    # one record: the starts, the converged ones, the most and the total
    # float iterations of the jittered starts, each counted as its
    # one-start Newton counts it, and the worst deviation
    d8, k = build_dynkin("D", 8), 6
    with caplog.at_level(logging.DEBUG, logger="qsystem.solver"):
        report = uniqueness_probe(d8, k)
    records = [r for r in caplog.records if r.getMessage().startswith("probe: ")]
    assert len(records) == 1
    starts, converged, most, total, worst = records[0].args
    assert (starts, converged, worst) == (20, 20, report.max_deviation)
    u0 = np.log(_initial_guess(8, k))
    rng = np.random.default_rng(0)
    counts = [newton_float_sequential(d8, k, u0 * (1 + rng.uniform(-0.5, 0.5, size=u0.shape)),
                                      400)[2] for _ in range(20)]
    assert (most, total) == (max(counts), sum(counts))


# --- Rogers dilogarithm ---------------------------------------------------------

def test_rogers_endpoints():
    with mpmath.workprec(precision_bits()):
        assert rogers_L(0) == 0
        assert abs(rogers_L(1) - mpmath.pi**2 / 6) < mpmath.mpf(10) ** -35
        assert abs(rogers_L(0.5) - mpmath.pi**2 / 12) < mpmath.mpf(10) ** -35


@given(st.floats(0.001, 0.999))
@settings(max_examples=60)
def test_rogers_reflection(x):
    with mpmath.workprec(precision_bits()):
        x = mpmath.mpf(x)
        total = rogers_L(x) + rogers_L(1 - x)
        assert abs(total - mpmath.pi**2 / 6) < mpmath.mpf(10) ** -30


@given(st.floats(0.0001, 0.9999))
@settings(max_examples=60)
def test_rogers_against_mpmath_polylog(x):
    with mpmath.workprec(precision_bits()):
        x = mpmath.mpf(x)
        expected = mpmath.polylog(2, x) + mpmath.log(x) * mpmath.log(1 - x) / 2
        assert abs(rogers_L(x) - expected) < mpmath.mpf(10) ** -30


FIXED_X = {"2^-70": 2.0**-70, "2^-200": 2.0**-200, "1e-300": 1e-300,
           "1e-3": 1e-3, "0.5": 0.5, "0.999": 0.999,
           # 1 - x far below 2^-bits; at 64 bits 1 - 2^-70 rounds to 1
           "1-2^-70": mpmath.fsub(1, mpmath.ldexp(1, -70), exact=True),
           "1-2^-200": mpmath.fsub(1, mpmath.ldexp(1, -200), exact=True)}


def _assert_rogers_within_bound(x, bits):
    """rogers_L(x) at ``bits`` within 2^(8 - bits) relative of
    Li2(x) + log(x) log1p(-x) / 2 computed 60 bits above ``bits`` or above
    the mantissa of x, whichever is longer, so x is taken exactly."""
    got = rogers_L(x)
    x = mpmath.mpmathify(x)
    with mpmath.workprec(max(bits, x.bc) + 60):
        x = mpmath.mpf(x)
        want = mpmath.polylog(2, x) + mpmath.log(x) * mpmath.log1p(-x) / 2
        assert abs(got - want) <= mpmath.ldexp(want, 8 - bits), (bits, x)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize("x", FIXED_X.values(), ids=FIXED_X.keys())
def test_rogers_relative_error_against_polylog(monkeypatch, bits, x):
    # below 2^-bits, 1 - x rounds to 1 and log(1 - x) loses every digit;
    # log1p(-x) keeps them
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    _assert_rogers_within_bound(x, bits)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_rogers_relative_error_at_random_points(monkeypatch, bits):
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    rng = np.random.default_rng(bits)
    for x in [*rng.uniform(0.0, 0.5, 6), *rng.uniform(0.5, 1.0, 6)]:
        _assert_rogers_within_bound(float(x), bits)


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_rogers_relative_error_next_to_half(monkeypatch, bits, side):
    # the working-precision neighbours of 1/2, on either side of the reflection
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    ulp = mpmath.ldexp(1, -bits - (side < 0))
    _assert_rogers_within_bound(mpmath.fadd(0.5, side * ulp, exact=True), bits)


@pytest.mark.parametrize("x", [-0.1, 1.1, 2.0, pytest.param(float("nan"), id="float-nan"),
                               pytest.param(mpmath.nan, id="mpf-nan")])
def test_rogers_domain(x):
    with pytest.raises(DomainError):
        rogers_L(x)


def _special_x(bits):
    """2^-e and 1 - 2^-e for e up to 1000, exact, and 1/2 with its two
    neighbours at ``bits``."""
    powers = [mpmath.ldexp(1, -e) for e in range(1, 1001, 9)]
    with mpmath.workprec(1100):
        below_one = [1 - p for p in powers]
    halves = [mpmath.fadd(0.5, side * mpmath.ldexp(1, -bits - (side < 0)), exact=True)
              for side in (-1, 1)]
    return [*powers, *below_one, 0.5, *halves]


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_rogers_kernel_matches_mpf_oracle_at_special_points(monkeypatch, bits):
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    for x in _special_x(bits):
        assert rogers_L(x)._mpf_ == rogers_L_mpf(x)._mpf_, (bits, x)


@given(st.floats(0, 1, exclude_min=True, exclude_max=True))
@settings(max_examples=40, deadline=None)
def test_rogers_kernel_matches_mpf_oracle(x):
    for bits in (64, 128, 256, 512):
        with mock.patch.dict(os.environ, {"QSYS_PRECISION_BITS": str(bits)}):
            assert rogers_L(x)._mpf_ == rogers_L_mpf(x)._mpf_, bits


# --- dilogarithm identity ---------------------------------------------------------

def test_dilog_a1_level2_closed_case():
    from fractions import Fraction
    a1 = build_dynkin("A", 1)
    sol = solve_restricted(a1, 2)
    report = dilog_identity(sol, a1)
    with mpmath.workprec(precision_bits()):
        assert abs(report.x_values[(1, 1)] - mpmath.mpf(1) / 2) < mpmath.mpf(10) ** -25
        assert abs(report.lhs - mpmath.mpf(1) / 2) < 1e-12
    assert report.rhs == Fraction(1, 2)
    assert report.delta < 1e-12


def test_dilog_d4_level2():
    d4 = build_dynkin("D", 4)
    report = dilog_identity(solve_restricted(d4, 2), d4)
    assert str(report.rhs) == "3"
    assert report.delta < 1e-9


def test_dilog_level_one_empty():
    d4 = build_dynkin("D", 4)
    report = dilog_identity(solve_restricted(d4, 1), d4)
    assert report.lhs == 0 and report.rhs == 0 and report.x_values == {}


def test_dilog_x_in_unit_interval():
    d6 = build_dynkin("D", 6)
    report = dilog_identity(solve_restricted(d6, 5), d6)
    assert all(0 < x < 1 for x in report.x_values.values())


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("family,rank,k", [("D", 8, 6), ("A", 8, 8), ("D", 12, 12),
                                           ("D", 16, 16)])
def test_dilog_identity_within_working_precision(monkeypatch, family, rank, k, bits):
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    d = build_dynkin(family, rank)
    report = dilog_identity(solve_restricted(d, k), d)
    assert report.delta <= 2.0 ** (8 - bits) * report.rhs, (report.delta, report.rhs)


def test_dilog_rejects_bad_solution():
    from dataclasses import replace
    a1 = build_dynkin("A", 1)
    sol = solve_restricted(a1, 2)
    bad = dict(sol.values)
    bad[(1, 1)] = mpmath.mpf("0.5")  # x = 1/Q^2 = 4 > 1
    with pytest.raises(XOutOfRange):
        dilog_identity(replace(sol, values=bad), a1)


@pytest.fixture(scope="module")
def solutions_a1_8_d4_8():
    """The positive solutions of A1-8 and D4-8 at levels 1-8, solved once at
    128 bits."""
    with mock.patch.dict(os.environ, {"QSYS_PRECISION_BITS": "128"}):
        return [(d, solve_restricted(d, k))
                for d in [build_dynkin("A", r) for r in range(1, 9)]
                + [build_dynkin("D", r) for r in range(4, 9)]
                for k in range(1, 9)]


@pytest.mark.parametrize("bits", [64, 128, 512])
def test_dilog_identity_matches_oracle_sum(monkeypatch, solutions_a1_8_d4_8, bits):
    # one mpf-oracle L per argument in ndenumerate order gives the same bits
    # as the kernel evaluated once per distinct argument; at 512 bits the
    # quotients of the 128-bit values are full-width arguments
    monkeypatch.setenv("QSYS_PRECISION_BITS", str(bits))
    for d, sol in solutions_a1_8_d4_8:
        report = dilog_identity(sol, d)
        lhs, delta, rhs, x_values = dilog_sum_oracle(sol, d)
        assert report.lhs._mpf_ == lhs._mpf_, (d.family, d.rank, sol.level)
        assert (report.delta, report.rhs) == (delta, rhs)
        assert {key: x._mpf_ for key, x in report.x_values.items()} == {
            key: x._mpf_ for key, x in x_values.items()}


@pytest.fixture(scope="module")
def solutions_a9_12_d9_12():
    """The positive solutions of A9-12 and D9-12 at levels 1-12, solved once
    at 128 bits."""
    with mock.patch.dict(os.environ, {"QSYS_PRECISION_BITS": "128"}):
        return [(d, solve_restricted(d, k))
                for d in [build_dynkin(family, r) for family in "AD" for r in range(9, 13)]
                for k in range(1, 13)]


@pytest.mark.parametrize("bits", [128, 512])
def test_dilog_identity_matches_oracle_sum_to_rank_12(monkeypatch, solutions_a9_12_d9_12, bits):
    # the same comparison of the arguments formed on libmp tuples with the
    # oracle's terms on mpf values, on rows of up to 11 values
    test_dilog_identity_matches_oracle_sum(monkeypatch, solutions_a9_12_d9_12, bits)


def test_dilog_evaluates_each_distinct_argument_once(monkeypatch):
    monkeypatch.setenv("QSYS_PRECISION_BITS", "128")
    calls = []
    kernel = solver._rogers_L

    def counted(x, prec):
        calls.append(x)
        return kernel(x, prec)

    monkeypatch.setattr(solver, "_rogers_L", counted)
    a8 = build_dynkin("A", 8)
    report = dilog_identity(solve_restricted(a8, 8), a8)
    distinct = len({x._mpf_ for x in report.x_values.values()})
    assert len(calls) == distinct < len(report.x_values) == 56


def test_dilog_logs_its_arguments(caplog):
    d8 = build_dynkin("D", 8)
    sol = solve_restricted(d8, 6)
    with caplog.at_level(logging.DEBUG, logger="qsystem.solver"):
        report = dilog_identity(sol, d8)
    records = [r for r in caplog.records if r.getMessage().startswith("dilog: ")]
    assert len(records) == 1
    arguments, distinct, delta = records[0].args
    assert arguments == len(report.x_values) == 40
    assert distinct == len({x._mpf_ for x in report.x_values.values()})
    assert delta == report.delta
