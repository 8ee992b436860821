import functools
import re
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize._highspy._core as core
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from gridrisk import lp
from gridrisk._ext import load_scipy_extension


def kkt_residuals(prob: lp.LpProblem, sol: lp.LpSolution) -> dict:
    """Primal feasibility, complementary slackness and stationarity residuals."""
    x = sol.x
    out = {
        "eq": float(np.max(np.abs(prob.a_eq @ x - prob.b_eq))) if prob.b_eq.size else 0.0,
        "in": float(np.max(prob.a_in @ x - prob.b_in)) if prob.b_in.size else 0.0,
        "lo": float(np.max(np.where(np.isfinite(prob.lo), prob.lo - x, 0.0))),
        "hi": float(np.max(np.where(np.isfinite(prob.hi), x - prob.hi, 0.0))),
    }
    comp = 0.0
    if prob.b_in.size:
        comp = float(np.max(np.abs(sol.in_duals * (prob.b_in - prob.a_in @ x))))
    out["complementarity"] = comp
    # scipy marginals are d objective / d RHS; recover multipliers from them.
    grad = prob.c - (prob.a_eq.T @ sol.eq_duals if prob.b_eq.size else 0.0)
    if prob.b_in.size:
        grad = grad - prob.a_in.T @ sol.in_duals
    grad = grad - sol.lo_duals - sol.hi_duals
    out["stationarity"] = float(np.max(np.abs(grad)))
    return out


def unit_params(at):
    """One parameter per stacked position in `at`, each with coefficient 1."""
    return (len(at), at, np.arange(len(at)), np.ones(len(at)))


def split_abs_problem(cap=2.0, target=5.0):
    # min |x - target| with x <= cap, via x - u + v = target, min u+v
    return lp.LpProblem(
        c=[0.0, 1.0, 1.0],
        a_eq=[[1.0, -1.0, 1.0]],
        b_eq=[target],
        lo=[0.0, 0.0, 0.0],
        hi=[cap, np.inf, np.inf],
        params=unit_params([0, 4]),   # the target (b_eq[0]) and the cap (hi[0])
    )


class TestSolve:
    def test_min_on_box(self):
        sol = lp.solve_lp(lp.LpProblem(c=[1.0], lo=[0.0], hi=[1.0]))
        assert sol.optimal
        assert sol.x[0] == pytest.approx(0.0, abs=1e-12)

    def test_max_against_inequality(self):
        sol = lp.solve_lp(
            lp.LpProblem(c=[-1.0], a_in=[[1.0]], b_in=[3.0], lo=[0.0], hi=[np.inf])
        )
        assert sol.x[0] == pytest.approx(3.0, abs=1e-12)

    def test_ramp_pattern_split_variables(self):
        sol = lp.solve_lp(split_abs_problem())
        assert sol.x[0] == pytest.approx(2.0, abs=1e-10)
        assert sol.objective == pytest.approx(3.0, abs=1e-10)

    def test_statuses_never_raise(self):
        infeasible = lp.LpProblem(c=[1.0], a_eq=[[1.0]], b_eq=[5.0], lo=[0.0], hi=[1.0])
        assert lp.solve_lp(infeasible).status == "infeasible"
        unbounded = lp.LpProblem(c=[-1.0], lo=[0.0], hi=[np.inf])
        assert lp.solve_lp(unbounded).status == "unbounded"

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, m = 6, 4
            a_in = rng.normal(size=(m, n))
            x0 = rng.uniform(size=n)
            prob = lp.LpProblem(
                c=rng.normal(size=n),
                a_in=a_in,
                b_in=a_in @ x0 + rng.uniform(0.0, 1.0, size=m),
                lo=x0 - 1.0,
                hi=x0 + 1.0,
            )
            sol = lp.solve_lp(prob)
            assert sol.optimal
            res = kkt_residuals(prob, sol)
            assert max(res.values()) <= 1e-8

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            lp.LpProblem(c=[1.0], lo=[2.0], hi=[1.0])

    @pytest.mark.parametrize("params, match", [
        ((1, [7], [0], [1.0]), "parameter position"),   # 1 + 3 + 3 stacked entries
        ((1, [-1], [0], [1.0]), "parameter position"),
        ((1, [0], [1], [1.0]), "parameter index"),
        ((2, [0], [-1], [1.0]), "parameter index"),
        ((2, [0, 4], [0, 1], [1.0]), "equal length"),
        ((2, [0, 4], [0], [1.0, 1.0]), "equal length"),
        ((1, [0], [0], [np.nan]), "must be finite"),
        ((1, [0], [0], [-np.inf]), "must be finite"),
    ])
    def test_param_validation(self, params, match):
        with pytest.raises(ValueError, match=match):
            lp.LpProblem(c=[0.0, 1.0, 1.0], a_eq=[[1.0, -1.0, 1.0]], b_eq=[5.0],
                         lo=[0.0, 0.0, 0.0], hi=[2.0, np.inf, np.inf], params=params)

    @pytest.mark.parametrize("lb_in, match", [
        ([0.0, 0.0], "must match the inequality rows"),
        ([np.nan], "must not be NaN"),
        ([3.0 + 2 * lp.FEAS_TOL], "exceeds its right-hand side"),
    ])
    def test_row_lower_bound_validation(self, lb_in, match):
        with pytest.raises(ValueError, match=match):
            lp.LpProblem(c=[1.0, 1.0], a_in=[[1.0, 1.0]], b_in=[3.0], lb_in=lb_in,
                         lo=[0.0, 0.0], hi=[5.0, 5.0])


class TestSensitivity:
    def test_binding_bound_moves_one_for_one(self):
        prob = lp.LpProblem(
            c=[-1.0], a_in=[[1.0]], b_in=[3.0], lo=[0.0], hi=[np.inf],
            params=unit_params([0]),
        )
        sens = lp.solution_sensitivity(prob, lp.solve_lp(prob))
        assert sens.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert not sens.degenerate

    def test_nonbinding_parameter_zero(self):
        prob = lp.LpProblem(
            c=[-1.0], a_in=[[1.0]], b_in=[3.0], lo=[0.0], hi=[10.0],
            params=unit_params([2]),
        )
        sens = lp.solution_sensitivity(prob, lp.solve_lp(prob))
        assert sens.matrix[0, 0] == 0.0

    def test_ramp_pattern_sensitivities(self):
        prob = split_abs_problem()
        sol = lp.solve_lp(prob)
        sens = lp.solution_sensitivity(prob, sol)
        assert sens.matrix[0, 0] == pytest.approx(0.0, abs=1e-12)   # target
        assert sens.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)   # cap

    def test_duals_match_objective_slope(self):
        prob = split_abs_problem()
        sol = lp.solve_lp(prob)
        h = 1e-4
        for kind, idx, dual in (("eq", 0, sol.eq_duals[0]), ("hi", 0, sol.hi_duals[0])):
            def obj_with(offset):
                q = split_abs_problem()
                if kind == "eq":
                    q.b_eq = q.b_eq + offset
                else:
                    q.hi = q.hi.copy()
                    q.hi[idx] += offset
                return lp.solve_lp(q).objective
            slope = (obj_with(h) - obj_with(-h)) / (2 * h)
            assert slope == pytest.approx(dual, abs=1e-6)

    def test_degenerate_flag_on_pinched_bounds(self):
        # lo == hi on a driven variable: solution pinned from both sides
        prob = lp.LpProblem(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[2.0],
            lo=[1.0, 0.0],
            hi=[1.0, 5.0],
            params=unit_params([1]),
        )
        sol = lp.solve_lp(prob)
        sens = lp.solution_sensitivity(prob, sol)
        assert sens.degenerate

    def test_degenerate_flag_on_duplicate_row(self):
        # x <= 1 twice: one copy binds, the other is basic at its bound
        def prob(params):
            return lp.LpProblem(c=[-1.0], a_in=[[1.0], [1.0]], b_in=[1.0, 1.0],
                                lo=[0.0], hi=[5.0], params=params)

        plain = prob((0, [], [], []))
        assert lp.solution_sensitivity(plain, lp.solve_lp(plain)).degenerate
        tagged = prob(unit_params([0, 1]))
        sens = lp.solution_sensitivity(tagged, lp.solve_lp(tagged))
        assert sens.param_degenerate.sum() == 1
        np.testing.assert_array_equal(sens.matrix[0], ~sens.param_degenerate)

    def test_degenerate_flag_on_basic_column_at_bound(self):
        # x0 + x1 = b with x0 at its upper bound 1 leaves the basic x1 at 0:
        # b can rise (x1 follows one for one) but not fall. x1's cost below
        # zero is what leaves it basic in the basis HiGHS returns.
        prob = lp.LpProblem(c=[-1.0, -0.5], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                            lo=[0.0, 0.0], hi=[1.0, 5.0], params=unit_params([0]))
        sol = lp.solve_lp(prob)
        assert sol.col_status[1] == lp._BASIC and sol.x[1] == 0.0
        sens = lp.solution_sensitivity(prob, sol)
        assert sens.degenerate
        np.testing.assert_array_equal(sens.matrix[:, 0], [0.0, 1.0])

    def test_degenerate_flag_on_optimal_edge(self):
        # min x0 + x1 over x0 + x1 >= 1: HiGHS returns one end of an optimal
        # edge, and the nonbasic column there has a zero reduced cost
        prob = lp.LpProblem(c=[1.0, 1.0], a_in=[[-1.0, -1.0]], b_in=[-1.0],
                            lo=[0.0, 0.0], hi=[5.0, 5.0], params=unit_params([0]))
        sol = lp.solve_lp(prob)
        nonbasic = np.flatnonzero(sol.col_status != lp._BASIC)
        assert nonbasic.size == 1 and sol.lo_duals[nonbasic[0]] == 0.0
        assert lp.solution_sensitivity(prob, sol).degenerate

    @pytest.mark.parametrize("side, c, x, column", [
        ("lower", [1.0, 2.0], [1.0, 0.0], [0.0, 0.0]),
        ("upper", [-1.0, -2.0], [0.0, 3.0], [0.0, 2.0]),
    ])
    def test_ranged_row_binding_side(self, side, c, x, column):
        """1 <= x0 + x1 <= 3 as one row: at its lower side the row moves with
        the constant lb_in, so its b_in parameter (coefficient 2) gets a zero
        column; at its upper side the column carries the coefficient."""
        prob = lp.LpProblem(c=c, a_in=[[1.0, 1.0]], lb_in=[1.0], b_in=[3.0],
                            lo=[0.0, 0.0], hi=[5.0, 5.0], params=(1, [0], [0], [2.0]))
        sol = lp.solve_lp(prob)
        assert sol.optimal and sol.active_in[0]
        np.testing.assert_allclose(sol.x, x, rtol=0, atol=1e-12)
        status = core.HighsBasisStatus.kLower if side == "lower" else core.HighsBasisStatus.kUpper
        assert sol.row_status[0] == int(status)
        sens = lp.solution_sensitivity(prob, sol)
        assert not sens.degenerate
        np.testing.assert_array_equal(sens.matrix[:, 0], column)

    def test_degenerate_flag_on_basic_row_at_lower_side(self):
        # x0 >= 1 and x1 >= 0 bind, and 1 <= x0 + x1 <= 3 sits at its lower
        # side as a basic row: three tight constraints for two columns
        prob = lp.LpProblem(c=[1.0, 1.0], a_in=[[1.0, 1.0]], lb_in=[1.0], b_in=[3.0],
                            lo=[1.0, 0.0], hi=[5.0, 5.0], params=unit_params([0]))
        sol = lp.solve_lp(prob)
        assert sol.row_status[0] == lp._BASIC and sol.active_in[0]
        assert (sol.col_status == lp._AT_LOWER).all()
        assert lp.solution_sensitivity(prob, sol).degenerate

    def test_randomized_fd_agreement(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 30:
            n = int(rng.integers(3, 7))
            m = int(rng.integers(2, 5))
            a_in = rng.normal(size=(m, n))
            x0 = rng.uniform(-1, 1, size=n)
            b_in = a_in @ x0 + np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.2, 1.0, m))
            prob = lp.LpProblem(
                c=rng.normal(size=n), a_in=a_in, b_in=b_in,
                lo=x0 - rng.uniform(0.1, 2.0, n), hi=x0 + rng.uniform(0.1, 2.0, n),
                params=unit_params(np.arange(m)),
            )
            sol = lp.solve_lp(prob)
            if not sol.optimal:
                continue
            sens = lp.solution_sensitivity(prob, sol)
            if sens.degenerate:
                continue
            checked += 1
            h = 1e-4
            for p in range(m):
                b_pert = b_in.copy()
                b_pert[p] += h
                up = lp.solve_lp(lp.LpProblem(c=prob.c, a_in=a_in, b_in=b_pert,
                                              lo=prob.lo, hi=prob.hi))
                b_pert[p] -= 2 * h
                dn = lp.solve_lp(lp.LpProblem(c=prob.c, a_in=a_in, b_in=b_pert,
                                              lo=prob.lo, hi=prob.hi))
                if not (up.optimal and dn.optimal):
                    continue
                fd = (up.x - dn.x) / (2 * h)
                np.testing.assert_allclose(
                    sens.matrix[:, p], fd, atol=1e-5 * max(1.0, np.abs(fd).max())
                )


# The oracle's own tolerances.
REF_DUAL_TOL = 1e-9
REF_RANK_TOL = 1e-9


def _hstack_candidates(prob, sol):
    """(stacked position in [b_in; b_eq; lo; hi], row, strong) per tight
    constraint: the equalities, then nonzero-multiplier rows and bounds, then
    zero-multiplier ones."""
    n, m_in = prob.n, prob.b_in.size
    m = m_in + prob.b_eq.size
    eq = [(m_in + i, prob.a_eq[i], True) for i in range(prob.b_eq.size)]
    strong, weak = [], []
    for offset, rows, active, duals in ((0, prob.a_in, sol.active_in, sol.in_duals),
                                        (m, np.eye(n), sol.active_lo, sol.lo_duals),
                                        (m + n, np.eye(n), sol.active_hi, sol.hi_duals)):
        for i in np.flatnonzero(active):
            entry = (offset + int(i), rows[i], abs(duals[i]) > REF_DUAL_TOL)
            (strong if entry[2] else weak).append(entry)
    return eq + strong + weak


def _hstack_sensitivity(prob, sol):
    """An independent frozen-basis derivative, the oracle for
    `lp.solution_sensitivity`: it picks its own active set (equalities, then
    nonzero-multiplier rows, then zero-multiplier rows, by Gram-Schmidt rank)
    and solves the n x n system of the picked rows. Where it reports no
    degeneracy its active set is the unique binding set, so any correct
    frozen-basis derivative agrees with it."""
    n, m_in = prob.n, prob.b_in.size
    m = m_in + prob.b_eq.size
    n_par, at, param, coeff = prob.params
    q = np.zeros((n, 0))
    basis_rows = []
    basis_keys = {}
    degenerate = False
    for key, a, strong in _hstack_candidates(prob, sol):
        if len(basis_rows) == n:
            if strong:
                degenerate = True
            continue
        r = a - q @ (q.T @ a)
        r -= q @ (q.T @ r)
        nr = float(np.linalg.norm(r))
        if nr > REF_RANK_TOL * max(1.0, float(np.linalg.norm(a))):
            if not strong:
                degenerate = True
            basis_keys[key] = len(basis_rows)
            basis_rows.append(a)
            q = np.hstack([q, (r / nr)[:, None]])
        elif strong and not m_in <= key < m:   # not an equality
            degenerate = True
    if len(basis_rows) < n:
        degenerate = True
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            r = e - q @ (q.T @ e)
            nr = float(np.linalg.norm(r))
            if nr > REF_RANK_TOL:
                basis_rows.append(e)
                q = np.hstack([q, (r / nr)[:, None]])
                if len(basis_rows) == n:
                    break
    a_basis = np.vstack(basis_rows) if basis_rows else np.zeros((0, n))
    rhs = np.zeros((n, n_par))
    param_deg = np.zeros(n_par, dtype=bool)
    tight = set(range(m_in, m))
    tight |= {int(i) for i in np.flatnonzero(sol.active_in)}
    tight |= {m + int(j) for j in np.flatnonzero(sol.active_lo)}
    tight |= {m + n + int(j) for j in np.flatnonzero(sol.active_hi)}
    for key, p, c in zip(at.tolist(), param.tolist(), coeff.tolist()):
        pos = basis_keys.get(key)
        if pos is not None:
            rhs[pos, p] += c
        elif key in tight:
            param_deg[p] = True
    if n_par and np.any(rhs):
        lu, piv = scipy.linalg.lu_factor(a_basis)
        matrix = scipy.linalg.lu_solve((lu, piv), rhs)
    else:
        matrix = np.zeros((n, n_par))
    return matrix, degenerate or bool(param_deg.any()), param_deg


def _random_lps(seed, count, pinch):
    """test_04's random inequality LPs; with `pinch`, a sparse equality row,
    tight copies of it and of an inequality row (the second off by 1e-8),
    pinched bounds (lo == hi) and free zero-cost variables, which make the
    basis degenerate or leave free directions to fill."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 6))
        a_in = rng.normal(size=(m, n))
        x0 = rng.uniform(-1.0, 1.0, size=n)
        b_in = a_in @ x0 + np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.2, 1.0, m))
        lo = x0 - rng.uniform(0.1, 2.0, n)
        hi = x0 + rng.uniform(0.1, 2.0, n)
        c = rng.normal(size=n)
        a_eq = b_eq = None
        if pinch:
            pinched = rng.random(n) < 0.3
            lo[pinched] = hi[pinched] = x0[pinched]
            free = rng.random(n) < 0.3
            c[free] = 0.0
            lo[free & ~pinched] = -np.inf
            hi[free & ~pinched] = np.inf
            a_eq = rng.normal(size=(1, n)) * (rng.random(n) < 0.6)
            b_eq = a_eq @ x0
            copies = np.vstack([a_eq, a_in[:1] + 1e-8 * rng.normal(size=(1, n))])
            a_in = np.vstack([a_in, copies])
            b_in = np.concatenate([b_in, copies @ x0])
        # the first m inequality rows, and with `pinch` the equality row and
        # every bound
        tagged = np.arange(m)
        if pinch:
            tagged = np.concatenate([tagged, b_in.size + np.arange(1 + 2 * n)])
        prob = lp.LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in,
                            lo=lo, hi=hi, params=unit_params(tagged))
        sol = lp.solve_lp(prob)
        if sol.optimal:
            made += 1
            yield prob, sol


def _param_shifts(prob):
    """Per parameter, its entries spread over the HiGHS rows [A_in; A_eq]
    and the columns' lower and upper bounds."""
    count, at, param, coeff = prob.params
    m = prob.b_in.size + prob.b_eq.size
    shift = np.zeros((m + 2 * prob.n, count))
    np.add.at(shift, (at, param), coeff)
    return shift[:m], shift[m : m + prob.n], shift[m + prob.n :]


def assert_frozen_system(prob, sol, sens):
    """The matrix solves the system of HiGHS's binding set: each nonbasic
    row moves its activity by its right-hand side's coefficient (zero at the
    lower side of a ranged row), and each nonbasic column moves by the
    coefficient of the bound it sits on."""
    rows, lo, hi = _param_shifts(prob)
    dx = sens.matrix
    at_lo = sol.col_status == int(core.HighsBasisStatus.kLower)
    at_hi = sol.col_status == int(core.HighsBasisStatus.kUpper)
    nonbasic_col = sol.col_status != int(core.HighsBasisStatus.kBasic)
    want = np.where(at_lo[:, None], lo, np.where(at_hi[:, None], hi, 0.0))
    np.testing.assert_allclose(dx[nonbasic_col], want[nonbasic_col], rtol=0, atol=1e-12)
    a = np.vstack([prob.a_in, prob.a_eq])
    binding = sol.row_status != int(core.HighsBasisStatus.kBasic)
    at_lower_in = sol.row_status[: prob.b_in.size] == int(core.HighsBasisStatus.kLower)
    rows[: prob.b_in.size][at_lower_in] = 0.0   # held at the constant lb_in
    scale = 1.0 + np.abs(a[binding]) @ np.abs(dx)
    assert np.all(np.abs(a[binding] @ dx - rows[binding]) <= 1e-9 * scale)


@pytest.mark.parametrize("pinch", [False, True])
def test_sensitivity_matches_oracle(pinch):
    degenerate = checked = 0
    for prob, sol in _random_lps(404, 150, pinch):
        sens = lp.solution_sensitivity(prob, sol)
        assert_frozen_system(prob, sol, sens)
        matrix, oracle_degenerate, _ = _hstack_sensitivity(prob, sol)
        if not oracle_degenerate:
            np.testing.assert_allclose(sens.matrix, matrix, rtol=0, atol=1e-9)
            checked += 1
        degenerate += sens.degenerate
    assert checked >= 10
    if pinch:
        assert degenerate >= 100  # the degenerate paths ran


GRID = st.integers(-8, 8).map(lambda k: k / 4.0)  # exact ties, no near-ties


@st.composite
def generated_lps(draw):
    """3-8 variables, boxed, pinched (lo == hi) or free zero-cost columns,
    inequality rows tight or slack at a feasible point x0, each one-sided or
    ranged with a finite lower side 0.5 or 1 below x0, an optional
    equality row, and an optional exact or near (1e-8) copy of a row. Every
    right-hand side and bound is a parameter (a row's lower side is not);
    two more move two entries at once: one +1 and another -1 (as P'_g moves
    both ramp rows of the execution LP), and one row and one bound
    together."""
    n = draw(st.integers(3, 8))
    m = draw(st.integers(1, 5))
    a_in = np.array(draw(st.lists(GRID, min_size=m * n, max_size=m * n))).reshape(m, n)
    x0 = np.array(draw(st.lists(GRID, min_size=n, max_size=n)))
    c = np.array(draw(st.lists(GRID, min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                                   min_size=n, max_size=n)))
    lo, hi = x0 - width, x0 + width
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["box"] * 4 + ["pinched", "free"]),
                                           min_size=n, max_size=n))):
        if kind == "pinched":
            lo[j] = hi[j] = x0[j]
        elif kind == "free":
            lo[j], hi[j], c[j] = -np.inf, np.inf, 0.0
    slack = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]), min_size=m, max_size=m)))
    b_in = a_in @ x0 + slack
    below = np.array(draw(st.lists(st.sampled_from([np.inf, np.inf, 0.5, 1.0]),
                                   min_size=m, max_size=m)))
    lb_in = a_in @ x0 - below
    a_eq = b_eq = None
    if draw(st.booleans()):
        a_eq = np.array([draw(st.lists(GRID, min_size=n, max_size=n))])
        b_eq = a_eq @ x0
    copy = draw(st.sampled_from([None, 0.0, 1e-8]))
    if copy is not None:
        row = draw(st.integers(0, m - 1))
        a_in = np.vstack([a_in, a_in[row] + copy * np.arange(1, n + 1)])
        b_in = np.append(b_in, a_in[-1] @ x0 + slack[row])
        lb_in = np.append(lb_in, a_in[-1] @ x0 - below[row])
    m_rows = b_in.size + (a_eq is not None)
    size = m_rows + 2 * n   # the stacked [b_in; b_eq; lo; hi]
    pair = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
    row, bound = draw(st.integers(0, m_rows - 1)), draw(st.integers(m_rows, size - 1))
    params = (size + 2,
              np.concatenate([np.arange(size), pair, [row, bound]]),
              np.concatenate([np.arange(size), [size, size, size + 1, size + 1]]),
              np.concatenate([np.ones(size), [1.0, -1.0, 1.0, 1.0]]))
    return lp.LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, lb_in=lb_in, b_in=b_in,
                        lo=lo, hi=hi, params=params)


def _shifted(prob, p, h):
    """`prob` with parameter `p` moved by h."""
    rows, lo, hi = _param_shifts(prob)
    m_in = prob.b_in.size
    return lp.LpProblem(c=prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq + h * rows[m_in:, p],
                        a_in=prob.a_in, lb_in=prob.lb_in, b_in=prob.b_in + h * rows[:m_in, p],
                        lo=prob.lo + h * lo[:, p], hi=prob.hi + h * hi[:, p])


def _fd_step(prob, sol, p, dx):
    """The largest step <= 1e-6 in parameter `p` that moves no basic column,
    and no inequality row on a side it is not held at, more than halfway to
    a bound along `dx`. A right-hand side step leaves the multipliers alone,
    so below it a non-degenerate basis stays the unique optimum and central
    differences see its derivative, even where a near-duplicate row sits
    1e-7 away."""
    rows, lo, hi = _param_shifts(prob)
    basic = sol.col_status == int(core.HighsBasisStatus.kBasic)
    m_in = prob.b_in.size
    in_status = sol.row_status[:m_in]
    free_up = in_status != int(core.HighsBasisStatus.kUpper)
    free_lo = np.isfinite(prob.lb_in) & (in_status != int(core.HighsBasisStatus.kLower))
    act, d_act = prob.a_in @ sol.x, prob.a_in @ dx
    slack = np.concatenate([(sol.x - prob.lo)[basic], (prob.hi - sol.x)[basic],
                            (prob.b_in - act)[free_up], (act - prob.lb_in)[free_lo]])
    rate = np.abs(np.concatenate([(dx - lo[:, p])[basic], (hi[:, p] - dx)[basic],
                                  (rows[:m_in, p] - d_act)[free_up], d_act[free_lo]]))
    moving = rate > 0
    return min([1e-6, *(0.5 * slack[moving] / rate[moving])])


@given(prob=generated_lps())
@settings(max_examples=250, deadline=None)
def test_generated_lp_sensitivity(prob):
    sol = lp.solve_lp(prob)
    assume(sol.optimal)
    sens = lp.solution_sensitivity(prob, sol)
    assert_frozen_system(prob, sol, sens)
    event("degenerate" if sens.degenerate else "finite differences checked")
    if (sol.row_status[: prob.b_in.size] == int(core.HighsBasisStatus.kLower)).any():
        event("row held at its lower side"
              + ("" if sens.degenerate else ", finite differences checked"))
    if sens.degenerate:
        return
    for p in range(prob.params[0]):
        h = _fd_step(prob, sol, p, sens.matrix[:, p])
        if h < 1e-9:
            event("step below 1e-9")
            continue
        up, dn = lp.solve_lp(_shifted(prob, p, h)), lp.solve_lp(_shifted(prob, p, -h))
        fd = (up.x - dn.x) / (2 * h)
        np.testing.assert_allclose(sens.matrix[:, p], fd, rtol=0,
                                   atol=1e-5 * max(1.0, np.abs(fd).max()))


def continuous_lps(seed, count):
    """`count` feasible boxed LPs of 3-8 variables and 1-5 inequality rows,
    each one-sided or ranged, and an optional equality row, with every
    cost, coefficient, right-hand side and bound drawn from a continuous
    distribution: no ties, so almost every optimum is a nondegenerate
    vertex. Every right-hand side and bound is a parameter, and two more
    move two entries at once, as in `generated_lps`."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(3, 9)), int(rng.integers(1, 6))
        x0 = rng.uniform(-1.0, 1.0, n)
        a_in = rng.normal(size=(m, n))
        act = a_in @ x0
        b_in = act + rng.uniform(0.0, 1.0, m)
        lb_in = np.where(rng.random(m) < 0.5, -np.inf, act - rng.uniform(0.0, 1.0, m))
        a_eq = b_eq = None
        if rng.random() < 0.5:
            a_eq = rng.normal(size=(1, n))
            b_eq = a_eq @ x0
        m_rows = m + (a_eq is not None)
        size = m_rows + 2 * n
        pair = rng.choice(size, 2, replace=False)
        row, bound = rng.integers(0, m_rows), rng.integers(m_rows, size)
        params = (size + 2,
                  np.concatenate([np.arange(size), pair, [row, bound]]),
                  np.concatenate([np.arange(size), [size, size, size + 1, size + 1]]),
                  np.concatenate([np.ones(size), [1.0, -1.0, 1.0, 1.0]]))
        yield lp.LpProblem(c=rng.normal(size=n), a_eq=a_eq, b_eq=b_eq, a_in=a_in,
                           lb_in=lb_in, b_in=b_in, lo=x0 - rng.uniform(0.1, 2.0, n),
                           hi=x0 + rng.uniform(0.1, 2.0, n), params=params)


def test_continuous_lp_sensitivity():
    """`test_generated_lp_sensitivity`'s data are built from exact ties, so
    most of its bases are degenerate and few reach the finite-difference
    check. On tie-free data at least 80 % of the LPs are nondegenerate, and
    every nondegenerate one matches central differences in every parameter."""
    checked = 0
    for prob in continuous_lps(2024, 200):
        sol = lp.solve_lp(prob)
        assert sol.optimal
        sens = lp.solution_sensitivity(prob, sol)
        assert_frozen_system(prob, sol, sens)
        if sens.degenerate:
            continue
        checked += 1
        for p in range(prob.params[0]):
            h = _fd_step(prob, sol, p, sens.matrix[:, p])
            assert h >= 1e-9
            up, dn = lp.solve_lp(_shifted(prob, p, h)), lp.solve_lp(_shifted(prob, p, -h))
            fd = (up.x - dn.x) / (2 * h)
            np.testing.assert_allclose(sens.matrix[:, p], fd, rtol=0,
                                       atol=1e-5 * max(1.0, np.abs(fd).max()))
    assert checked >= 160


def test_recorded_rts96_lps_have_valid_bases(recorded):
    """HiGHS hands back a valid basis with exactly n nonbasic entries for
    every optimal LP of a recorded RTS-96 run, and `solve_lp` keeps it."""
    optimal = 0
    for prob in recorded(rts96_sampled_lps):
        highs = core._Highs()
        highs.passOptions(lp._HIGHS_OPTIONS)
        highs.passModel(*lp._highs_model(prob))
        highs.run()
        if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
            continue
        basis = highs.getBasis()
        status = np.array([int(s) for s in basis.col_status + basis.row_status])
        assert basis.valid
        assert np.count_nonzero(status != int(core.HighsBasisStatus.kBasic)) == prob.n
        sol = lp.solve_lp(prob)
        assert np.array_equal(np.concatenate([sol.col_status, sol.row_status]), status)
        optimal += 1
    assert optimal >= 20


@pytest.mark.parametrize("valid, drop", [(False, 0), (True, 1)])
def test_optimal_without_basis_raises(monkeypatch, valid, drop):
    """An optimal LP whose basis is not valid, or does not leave n entries
    nonbasic, is an internal error, not a silent fallback."""

    class NoBasis(core._Highs):
        def getBasis(self):
            basis = super().getBasis()
            basis.valid = valid
            if drop:
                basis.col_status = [core.HighsBasisStatus.kBasic] * len(basis.col_status)
            return basis

    prob = split_abs_problem()
    assert lp.solve_lp(prob).optimal
    monkeypatch.setattr(core, "_Highs", NoBasis)
    with pytest.raises(lp.InternalError, match="without a valid basis"):
        lp.solve_lp(prob)


# -- the direct HiGHS call against scipy.optimize.linprog ----------------------
#
# `linprog_solution` is `solve_lp` as it was when it went through `linprog`:
# the same options, status mapping and active-set rules. The direct call must
# reproduce it bit for bit.

LINPROG_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
SOLUTION_ARRAYS = ("x", "eq_duals", "in_duals", "lo_duals", "hi_duals",
                   "active_in", "active_lo", "active_hi")


def linprog_solution(prob):
    from scipy.optimize import linprog

    res = linprog(
        c=prob.c,
        A_ub=prob.a_in if prob.b_in.size else None,
        b_ub=prob.b_in if prob.b_in.size else None,
        A_eq=prob.a_eq if prob.b_eq.size else None,
        b_eq=prob.b_eq if prob.b_eq.size else None,
        bounds=np.column_stack([prob.lo, prob.hi]),
        method="highs-ds",
        options=LINPROG_OPTIONS,
    )
    status = LINPROG_STATUS.get(res.status, "infeasible")
    if status != "optimal":
        return lp.LpSolution(status=status)
    x = np.asarray(res.x, dtype=float)
    in_res = prob.b_in - prob.a_in @ x if prob.b_in.size else np.zeros(0)
    scale_in = 1.0 + np.abs(prob.b_in) if prob.b_in.size else np.zeros(0)
    return lp.LpSolution(
        status="optimal",
        x=x,
        objective=float(res.fun),
        eq_duals=np.asarray(res.eqlin.marginals, dtype=float) if prob.b_eq.size else np.zeros(0),
        in_duals=np.asarray(res.ineqlin.marginals, dtype=float) if prob.b_in.size else np.zeros(0),
        lo_duals=np.asarray(res.lower.marginals, dtype=float),
        hi_duals=np.asarray(res.upper.marginals, dtype=float),
        active_in=in_res <= lp.TIGHT_TOL * scale_in,
        active_lo=np.isfinite(prob.lo) & (x - prob.lo <= lp.TIGHT_TOL * (1.0 + np.abs(prob.lo))),
        active_hi=np.isfinite(prob.hi) & (prob.hi - x <= lp.TIGHT_TOL * (1.0 + np.abs(prob.hi))),
    )


def assert_same_bits(sol, ref):
    assert sol.status == ref.status
    if ref.optimal:
        assert sol.objective == ref.objective
        for name in SOLUTION_ARRAYS:
            got, want = getattr(sol, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def recorded_lps(run):
    """Every LP `run()` hands to `solve_lp`."""
    seen = []
    solve = lp.solve_lp

    def capture(prob):
        seen.append(prob)
        return solve(prob)

    lp.solve_lp = capture
    try:
        run()
    finally:
        lp.solve_lp = solve
    return seen


@pytest.fixture(scope="module")
def recorded():
    """`recorded(record)` is `record()`, made once for this module; no test
    writes into the recorded LPs."""
    return functools.cache(lambda record: record())


def toy6_irm_lps():
    from gridrisk.assess import AssessmentConfig
    from gridrisk.cases import toy6
    from gridrisk.management import RmConfig, irm

    cfg = RmConfig(assessment=AssessmentConfig(
        tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=1))
    return recorded_lps(lambda: irm(toy6(), {2, 5}, cfg))


def rts96_sampled_lps():
    """A sampled RTS-96 run long enough to reach infeasible target and
    execution LPs: 80 optimal and 10 infeasible distinct LPs."""
    from gridrisk.assess import AssessmentConfig, run_assessment
    from gridrisk.cases import rts96

    cfg = AssessmentConfig(tau_d=15.0, t_max=150.0, attempts=40,
                           policy="probability-sampled", seed=8, gradients=False)
    return recorded_lps(lambda: run_assessment(rts96(), {22, 23, 24}, cfg))


def rts96_irm_lps():
    """The dispatch and risk-management LPs of an RTS-96 IRM run."""
    from gridrisk.assess import AssessmentConfig
    from gridrisk.cases import rts96
    from gridrisk.management import RmConfig, irm

    cfg = RmConfig(assessment=AssessmentConfig(
        tau_d=15.0, t_max=150.0, attempts=20, policy="probability-sampled", seed=1))
    return recorded_lps(lambda: irm(rts96(), {22, 23, 24}, cfg))


def expanded_linprog_solution(prob):
    """`linprog_solution` of `prob` with each ranged row k written as two
    one-sided rows, [A; -A] <= [b; -lb], over the rows with a finite lb;
    ranged row k is active when either of its two rows is."""
    ranged = np.flatnonzero(np.isfinite(prob.lb_in))
    ref = linprog_solution(lp.LpProblem(
        c=prob.c, a_eq=prob.a_eq, b_eq=prob.b_eq,
        a_in=np.vstack([prob.a_in, -prob.a_in[ranged]]),
        b_in=np.concatenate([prob.b_in, -prob.lb_in[ranged]]), lo=prob.lo, hi=prob.hi))
    if ref.optimal:
        m_in = prob.b_in.size
        active_in = ref.active_in[:m_in].copy()
        active_in[ranged] |= ref.active_in[m_in:]
        ref = lp.LpSolution(status=ref.status, x=ref.x, active_in=active_in)
    return ref


@pytest.mark.parametrize("record", [toy6_irm_lps, rts96_sampled_lps])
def test_recorded_lps_match_linprog(record, recorded):
    """LPs with one-sided rows only match linprog bit for bit. An LP with
    ranged rows matches linprog on its two-row expansion in status, in x
    within 1e-9 and in its active rows."""
    probs = recorded(record)
    statuses = []
    ranged = 0
    for prob in probs:
        sol = lp.solve_lp(prob)
        if not np.isfinite(prob.lb_in).any():
            ref = linprog_solution(prob)
            assert_same_bits(sol, ref)
        else:
            ranged += 1
            ref = expanded_linprog_solution(prob)
            assert sol.status == ref.status
            if ref.optimal:
                np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-9)
                assert np.array_equal(sol.active_in, ref.active_in)
        statuses.append(ref.status)
    assert ranged > 0 and ranged < len(probs)
    assert statuses.count("optimal") >= 20 and statuses.count("infeasible") >= 5


def _options(**changes):
    opts = lp._highs_options()
    for name, value in changes.items():
        setattr(opts, name, value)
    return opts


SOLVER_VARIANTS = {
    "presolve": _options(presolve="on"),
    "primal": _options(
        simplex_strategy=core.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal),
}


@pytest.mark.parametrize("record", [toy6_irm_lps, rts96_sampled_lps, rts96_irm_lps])
def test_recorded_lp_optima_are_unique(record, recorded, monkeypatch):
    """The cost tie-break leaves one optimum per dispatch and RM LP: HiGHS
    without presolve, with presolve and with primal simplex, each on its own
    path, agree on the status and on x within 1e-9."""
    passed = []

    class Recording(core._Highs):
        def passOptions(self, options):
            passed.append(options)
            return super().passOptions(options)

    monkeypatch.setattr(core, "_Highs", Recording)
    probs = recorded(record)
    base = [lp.solve_lp(prob) for prob in probs]
    assert passed and all(opts is lp._HIGHS_OPTIONS for opts in passed)
    for variant, opts in SOLVER_VARIANTS.items():
        monkeypatch.setattr(lp, "_HIGHS_OPTIONS", opts)
        passed.clear()
        for k, (prob, ref) in enumerate(zip(probs, base)):
            sol = lp.solve_lp(prob)
            assert sol.status == ref.status, (variant, k)
            if ref.optimal:
                np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-9,
                                           err_msg=f"{variant} LP {k}")
        # each variant reached HiGHS with its own options, not a kept solver's
        assert passed and all(o is opts for o in passed), variant
    assert sum(sol.optimal for sol in base) >= 20


def hand_built_lps():
    free = [-np.inf, np.inf]
    return {
        "infeasible": lp.LpProblem(c=[1.0], a_eq=[[1.0]], b_eq=[5.0], lo=[0.0], hi=[1.0]),
        "infeasible_rows": lp.LpProblem(c=[1.0, 1.0], a_in=[[1.0, 1.0], [-1.0, -1.0]],
                                        b_in=[1.0, -2.0], lo=[0.0, 0.0], hi=[5.0, 5.0]),
        "unbounded": lp.LpProblem(c=[-1.0], lo=[0.0], hi=[np.inf]),
        "unbounded_rows": lp.LpProblem(c=[-1.0, -1.0], a_in=[[1.0, -1.0]], b_in=[1.0],
                                       lo=[0.0, 0.0]),
        "no_rows": lp.LpProblem(c=[1.0, -2.0, 0.5], lo=[0.0, -1.0, 2.0], hi=[1.0, 3.0, 4.0]),
        "equality_only": lp.LpProblem(c=[1.0, 2.0, 3.0], a_eq=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                                      b_eq=[6.0, 1.0], lo=[0.0, 0.0, 0.0], hi=[10.0, 10.0, 10.0]),
        "free_variables": lp.LpProblem(c=[0.0, 1.0, 0.0], a_eq=[[1.0, -1.0, 1.0]], b_eq=[2.0],
                                       a_in=[[0.0, -1.0, 0.0]], b_in=[0.0],
                                       lo=[free[0], 0.0, free[0]], hi=[free[1], np.inf, free[1]]),
        "pinched_bounds": lp.LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0],
                                       lo=[1.0, 0.0], hi=[1.0, 5.0]),
        "split_abs": split_abs_problem(),
    }


@pytest.mark.parametrize("name", sorted(hand_built_lps()))
def test_hand_built_lps_match_linprog(name):
    prob = hand_built_lps()[name]
    assert_same_bits(lp.solve_lp(prob), linprog_solution(prob))
    if name.startswith(("infeasible", "unbounded")):
        assert lp.solve_lp(prob).status == name.split("_")[0]


@pytest.mark.parametrize("pinch", [False, True])
def test_random_lps_match_linprog(pinch):
    for prob, sol in _random_lps(405, 60, pinch):
        assert_same_bits(sol, linprog_solution(prob))


def test_highs_options_match_linprog(monkeypatch):
    """The options linprog builds for every solve equal the ones built once."""
    passed = []

    class Recording(core._Highs):
        def passOptions(self, options):
            passed.append(options)
            return super().passOptions(options)

    monkeypatch.setattr(core, "_Highs", Recording)
    linprog_solution(split_abs_problem())
    assert len(passed) == 1
    names = [n for n in dir(core.HighsOptions()) if not n.startswith("_")]
    assert names
    for name in names:
        assert getattr(lp._HIGHS_OPTIONS, name) == getattr(passed[0], name), name


def test_solve_order_does_not_matter():
    """A reused solver keeps no basis: `passModel` replaces the model and
    its basis, so nothing carries from one solve to the next. Every point
    of `a` is optimal, so a basis kept from `b` (whose optimum is x2 = 3)
    would move its answer away from x0 = 3."""
    a = lp.LpProblem(c=[0.0, 0.0, 0.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[3.0],
                     lo=[0.0, 0.0, 0.0], hi=[3.0, 3.0, 3.0])
    b = lp.LpProblem(c=[1.0, 1.0, -1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[3.0],
                     lo=[0.0, 0.0, 0.0], hi=[3.0, 3.0, 3.0])
    first = lp.solve_lp(a)
    lp.solve_lp(b)
    again = lp.solve_lp(a)
    assert_same_bits(again, first)
    assert_same_bits(first, linprog_solution(a))


def _nnz(prob):
    return np.count_nonzero(prob.a_in) + np.count_nonzero(prob.a_eq)


def test_small_lps_share_one_solver(monkeypatch):
    """A toy6 IRM run sets HiGHS up once for all of its LPs, every one of
    them below `lp.REUSE_NNZ` nonzeros."""
    made = []

    class Counting(core._Highs):
        def __init__(self):
            super().__init__()
            made.append(1)

    monkeypatch.setattr(core, "_Highs", Counting)
    probs = toy6_irm_lps()
    assert len(probs) > 50 and max(map(_nnz, probs)) <= lp.REUSE_NNZ
    assert len(made) == 1


def test_large_model_drops_the_solver(recorded):
    """A model above `lp.REUSE_NNZ` nonzeros (a target LP of the recorded
    RTS-96 {22,23,24} run) leaves no solver behind; the next small model
    sets one up and keeps it."""
    small = split_abs_problem()
    lp.solve_lp(small)
    kept = lp._reused[0]
    lp.solve_lp(small)
    assert lp._reused[0] is kept
    large = next(p for p in recorded(rts96_sampled_lps)[1:] if _nnz(p) > lp.REUSE_NNZ)
    assert lp.solve_lp(large).optimal
    assert lp._reused is None
    lp.solve_lp(small)
    assert lp._reused is not None and lp._reused[0] is not kept


def test_solution_arrays_are_read_only():
    """One solution may be shared by every caller of its LP (the dispatch-LP
    memo), so no caller can write into it."""
    sol = lp.solve_lp(split_abs_problem())
    assert sol.optimal
    with pytest.raises(ValueError, match="read-only"):
        sol.x[0] = 1.0
    for name in SOLUTION_ARRAYS + ("col_status", "row_status"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sol, name)[...] = 0


@pytest.mark.parametrize("field, shift, optimal", [
    ("col_value", 1e-4, True),       # inside the check tolerance sqrt(1e-9) * 10
    ("col_value", 1e-3, False),      # x past its bound
    ("col_value", np.nan, False),
    ("row_value", 1e-3, False),      # inequality slack and equality residual
    ("row_value", -1e-3, False),     # equality residual alone
])
def test_post_solve_check(monkeypatch, field, shift, optimal):
    """A HiGHS "optimal" whose solution misses bounds or rows by more than
    scipy's check tolerance is reported infeasible, as linprog does."""

    class Shifted(core._Highs):
        def getSolution(self):
            solution = super().getSolution()
            setattr(solution, field, [v + shift for v in getattr(solution, field)])
            return solution

    # x0 sits on both its upper bound and the inequality row; x1 is basic.
    prob = lp.LpProblem(c=[-1.0, 1.0], a_in=[[1.0, 0.0]], b_in=[2.0],
                        a_eq=[[1.0, 1.0]], b_eq=[5.0], lo=[0.0, 0.0], hi=[2.0, 10.0])
    assert lp.solve_lp(prob).optimal
    monkeypatch.setattr(core, "_Highs", Shifted)
    sol = lp.solve_lp(prob)
    assert sol.optimal == optimal
    assert_same_bits(sol, linprog_solution(prob))


@pytest.mark.parametrize("shift, optimal", [(-1e-5, True), (-1e-3, False)])
def test_post_solve_check_row_lower_side(monkeypatch, shift, optimal):
    """A row value below a ranged row's lb_in by more than the check
    tolerance is reported infeasible."""

    class Shifted(core._Highs):
        def getSolution(self):
            solution = super().getSolution()
            solution.row_value = [v + shift for v in solution.row_value]
            return solution

    prob = lp.LpProblem(c=[1.0, 2.0], a_in=[[1.0, 1.0]], lb_in=[1.0], b_in=[3.0],
                        lo=[0.0, 0.0], hi=[5.0, 5.0])
    assert lp.solve_lp(prob).optimal
    monkeypatch.setattr(core, "_Highs", Shifted)
    assert lp.solve_lp(prob).optimal == optimal


@pytest.mark.parametrize("field", ["c", "a_in", "b_in", "a_eq", "b_eq"])
def test_non_finite_coefficients_raise(field):
    prob = lp.LpProblem(c=[1.0, 1.0], a_in=[[1.0, 1.0]], b_in=[3.0],
                        a_eq=[[1.0, -1.0]], b_eq=[0.0], lo=[0.0, 0.0], hi=[5.0, 5.0])
    getattr(prob, field).flat[0] = np.inf
    with pytest.raises(ValueError):
        linprog_solution(prob)
    with pytest.raises(ValueError, match="must be finite"):
        lp.solve_lp(prob)


def test_nan_bound_rejected():
    """A NaN bound raises instead of being dropped (linprog drops it)."""
    for lo, hi in (([np.nan, 1.0], [3.0, 4.0]), ([0.0, 1.0], [3.0, np.nan])):
        with pytest.raises(ValueError, match="must not be NaN"):
            lp.LpProblem(c=[-1.0, 1.0], a_in=[[1.0, 1.0]], b_in=[4.0], lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# Loading scipy's extensions
#
# `lp`, `network` and `gradient` load scipy's compiled HiGHS bindings, batched
# inverse kernel and CSR kernels without running `scipy.optimize/__init__`,
# `scipy.linalg/__init__` or `scipy.sparse/__init__`.

EXTENSIONS = ("scipy.optimize._highspy._core", "scipy.linalg._batched_linalg",
              "scipy.sparse._sparsetools")


def test_cli_import_skips_scipy_optimize(fresh_python):
    out = fresh_python(
        "import sys, gridrisk.cli\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special', 'scipy.fft',"
        " 'scipy.spatial', 'scipy.linalg', 'scipy.sparse', 'scipy._lib._util')"
        " if m in sys.modules))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    absent, loaded = out.split("\n")[:2]
    assert absent == "[]"
    # the three extensions and the submodules pybind11 registers under them
    assert {m for m in loaded.split() if not m.startswith(EXTENSIONS)} == set()
    assert set(EXTENSIONS) <= set(loaded.split())


def test_gradient_run_skips_scipy_sparse(fresh_python, tmp_path):
    # a gradient run multiplies its sparse jacobians with the CSR kernels
    # alone: scipy.sparse itself is never imported
    out = fresh_python(
        "import sys\n"
        "from gridrisk import cases, serialize_case\n"
        "from gridrisk.cli import main\n"
        f"case = {str(tmp_path / 'toy6.json')!r}\n"
        "open(case, 'w').write(serialize_case(cases.toy6()))\n"
        "code = main(['gradient', '--case', case, '--outages', '3', '--tau-d', '15',"
        " '--t-max', '30', '--attempts', '20', '--seed', '1',"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'scipy.sparse' in sys.modules, 'scipy.sparse._sparsetools' in sys.modules)\n"
    )
    assert out.split("\n")[-2] == "0 False True"
    assert (tmp_path / "out" / "gradient.csv").exists()


@pytest.mark.parametrize("first", ["gridrisk.lp", "scipy.optimize"])
def test_one_extension_module_in_either_import_order(fresh_python, first):
    second = "scipy.optimize" if first == "gridrisk.lp" else "gridrisk.lp"
    out = fresh_python(
        f"import sys, importlib\n"
        f"importlib.import_module({first!r}); importlib.import_module({second!r})\n"
        "import gridrisk.lp, scipy.optimize\n"
        "print(gridrisk.lp._highs is sys.modules['scipy.optimize._highspy._core'])\n"
        "res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],"
        " method='highs-ds')\n"
        "print(res.status, res.x.tolist())\n"
    )
    assert out.split("\n")[:2] == ["True", "0 [1.0, 0.0]"]


@pytest.mark.parametrize("first", ["gridrisk.network", "scipy.linalg"])
def test_one_linalg_kernel_in_either_import_order(fresh_python, first):
    second = "scipy.linalg" if first == "gridrisk.network" else "gridrisk.network"
    out = fresh_python(
        f"import sys, importlib\n"
        f"importlib.import_module({first!r}); importlib.import_module({second!r})\n"
        "import gridrisk.network, scipy.linalg\n"
        "kernel = sys.modules['scipy.linalg._batched_linalg']\n"
        "print(gridrisk.network._batched_linalg is kernel"
        " and scipy.linalg._basic._batched_linalg is kernel)\n"
        "a = [[2.0, -1.0], [-1.0, 2.0]]\n"
        "print(abs(scipy.linalg.inv(a) @ a - [[1.0, 0.0], [0.0, 1.0]]).max() < 1e-12)\n"
    )
    assert out.split("\n")[:2] == ["True", "True"]


def test_missing_extension_names_module_and_requirement(tmp_path, monkeypatch):
    for name in EXTENSIONS:
        monkeypatch.delitem(sys.modules, name)
        with pytest.raises(ImportError, match=re.escape(name) + r".*"
                                              r"scipy>=1\.17.*pyproject\.toml") as exc:
            load_scipy_extension(name, [str(tmp_path)])
        assert exc.value.name == name
        assert name not in sys.modules
