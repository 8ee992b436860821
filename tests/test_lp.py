import numpy as np
import pytest
import scipy.linalg

from gridrisk import lp


def split_abs_problem(cap=2.0, target=5.0):
    # min |x - target| with x <= cap, via x - u + v = target, min u+v
    return lp.LpProblem(
        c=[0.0, 1.0, 1.0],
        a_eq=[[1.0, -1.0, 1.0]],
        b_eq=[target],
        lo=[0.0, 0.0, 0.0],
        hi=[cap, np.inf, np.inf],
        params={"target": [(lp.KIND_EQ, 0, 1.0)], "cap": [(lp.KIND_HI, 0, 1.0)]},
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
            res = lp.kkt_residuals(prob, sol)
            assert max(res.values()) <= 1e-8

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            lp.LpProblem(c=[1.0], lo=[2.0], hi=[1.0])


class TestSensitivity:
    def test_binding_bound_moves_one_for_one(self):
        prob = lp.LpProblem(
            c=[-1.0], a_in=[[1.0]], b_in=[3.0], lo=[0.0], hi=[np.inf],
            params={"b": [(lp.KIND_IN, 0, 1.0)]},
        )
        sens = lp.solution_sensitivity(prob, lp.solve_lp(prob))
        assert sens.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert not sens.degenerate

    def test_nonbinding_parameter_zero(self):
        prob = lp.LpProblem(
            c=[-1.0], a_in=[[1.0]], b_in=[3.0], lo=[0.0], hi=[10.0],
            params={"hi": [(lp.KIND_HI, 0, 1.0)]},
        )
        sens = lp.solution_sensitivity(prob, lp.solve_lp(prob))
        assert sens.matrix[0, 0] == 0.0

    def test_ramp_pattern_sensitivities(self):
        prob = split_abs_problem()
        sol = lp.solve_lp(prob)
        sens = lp.solution_sensitivity(prob, sol)
        cols = {n: k for k, n in enumerate(sens.param_names)}
        assert sens.matrix[0, cols["target"]] == pytest.approx(0.0, abs=1e-12)
        assert sens.matrix[0, cols["cap"]] == pytest.approx(1.0, abs=1e-12)

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
            params={"lo0": [(lp.KIND_LO, 0, 1.0)]},
        )
        sol = lp.solve_lp(prob)
        sens = lp.solution_sensitivity(prob, sol)
        assert sens.degenerate

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
                params={f"b{i}": [(lp.KIND_IN, i, 1.0)] for i in range(m)},
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


def test_lp_text_dump_mentions_rows():
    text = lp.dump_lp_text(split_abs_problem(), "ramp")
    assert "Minimize" in text and "Subject To" in text and "Bounds" in text
    assert "eq0" in text


# The tolerances of the reference below, as they were when it was written.
REF_DUAL_TOL = 1e-9
REF_RANK_TOL = 1e-9


def _hstack_candidates(prob, sol):
    n = prob.n
    eq = [((lp.KIND_EQ, i), prob.a_eq[i], True) for i in range(prob.b_eq.size)]
    strong, weak = [], []
    for kind, active, duals in ((lp.KIND_IN, sol.active_in, sol.in_duals),
                                (lp.KIND_LO, sol.active_lo, sol.lo_duals),
                                (lp.KIND_HI, sol.active_hi, sol.hi_duals)):
        for i in np.flatnonzero(active):
            row = prob.a_in[i] if kind == lp.KIND_IN else np.eye(n)[i]
            entry = ((kind, int(i)), row, abs(duals[i]) > REF_DUAL_TOL)
            (strong if entry[2] else weak).append(entry)
    return eq + strong + weak


def _hstack_sensitivity(prob, sol):
    """The basis selection as it was before the in-place buffer: the
    orthonormal basis grows by `np.hstack` and the selected rows are stacked
    at the end. Kept, with its own candidate order and tolerances, to pin the
    rewrite to the same matrices and flags."""
    n = prob.n
    names = list(prob.params.keys())
    n_par = len(names)
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
        elif strong and key[0] != lp.KIND_EQ:
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
    tight = {(lp.KIND_EQ, i) for i in range(prob.b_eq.size)}
    tight |= {(lp.KIND_IN, int(i)) for i in np.flatnonzero(sol.active_in)}
    tight |= {(lp.KIND_LO, int(j)) for j in np.flatnonzero(sol.active_lo)}
    tight |= {(lp.KIND_HI, int(j)) for j in np.flatnonzero(sol.active_hi)}
    for p, name in enumerate(names):
        for kind, idx, coeff in prob.params[name]:
            key = (kind, int(idx))
            pos = basis_keys.get(key)
            if pos is not None:
                rhs[pos, p] += coeff
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
        params = {f"b{i}": [(lp.KIND_IN, i, 1.0)] for i in range(m)}
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
            params["eq0"] = [(lp.KIND_EQ, 0, 1.0)]
            params.update({f"lo{j}": [(lp.KIND_LO, j, 1.0)] for j in range(n)})
            params.update({f"hi{j}": [(lp.KIND_HI, j, 1.0)] for j in range(n)})
        prob = lp.LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, b_in=b_in,
                            lo=lo, hi=hi, params=params)
        sol = lp.solve_lp(prob)
        if sol.optimal:
            made += 1
            yield prob, sol


def _scrambled(sol, rng):
    """`sol` with random active sets and multipliers (zero, just above the
    strong-activity threshold, or O(1)). It reaches the rules that simplex
    vertices rarely hit: redundant strong rows, strong rows past a full basis."""
    levels = [0.0, 1e-8, 1.0] if rng.random() < 0.5 else [1e-8, 1.0]
    share = rng.uniform(0.3, 0.9)

    def pick(size):
        act = rng.random(size) < share
        return act, np.where(act, rng.choice(levels, size=size) * rng.normal(size=size), 0.0)

    active_in, in_duals = pick(sol.active_in.size)
    active_lo, lo_duals = pick(sol.active_lo.size)
    active_hi, hi_duals = pick(sol.active_hi.size)
    active_hi &= ~active_lo
    return lp.LpSolution(
        status="optimal", x=sol.x, objective=sol.objective, eq_duals=sol.eq_duals,
        in_duals=in_duals, lo_duals=lo_duals, hi_duals=hi_duals,
        active_in=active_in, active_lo=active_lo, active_hi=active_hi,
    )


@pytest.mark.parametrize("pinch", [False, True])
@pytest.mark.parametrize("scramble", [False, True])
def test_in_place_basis_matches_hstack_basis(pinch, scramble):
    rng = np.random.default_rng(5)
    degenerate = 0
    for prob, sol in _random_lps(404, 150, pinch):
        if scramble:
            sol = _scrambled(sol, rng)
        sens = lp.solution_sensitivity(prob, sol)
        matrix, deg, param_deg = _hstack_sensitivity(prob, sol)
        assert np.array_equal(sens.matrix, matrix)
        assert sens.degenerate == deg
        assert np.array_equal(sens.param_degenerate, param_deg)
        degenerate += deg
    if pinch or scramble:
        assert degenerate > 100  # the degenerate paths ran


# -- the direct HiGHS call against scipy.optimize.linprog ----------------------
#
# `linprog_solution` is `solve_lp` as it was when it went through `linprog`:
# the same options, status mapping and active-set rules. The direct call must
# reproduce it bit for bit.

LINPROG_OPTIONS = {
    "presolve": True,
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


def toy6_irm_lps():
    from gridrisk.assess import AssessmentConfig
    from gridrisk.cases import toy6
    from gridrisk.management import RmConfig, irm

    cfg = RmConfig(assessment=AssessmentConfig(
        tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=1))
    return recorded_lps(lambda: irm(toy6(), {2, 5}, cfg))


def rts96_sampled_lps():
    from gridrisk.assess import AssessmentConfig, run_assessment
    from gridrisk.cases import rts96

    cfg = AssessmentConfig(tau_d=15.0, t_max=150.0, attempts=10,
                           policy="probability-sampled", seed=1, gradients=False)
    return recorded_lps(lambda: run_assessment(rts96(), {22, 23, 24}, cfg))


@pytest.mark.parametrize("record", [toy6_irm_lps, rts96_sampled_lps])
def test_recorded_lps_match_linprog(record):
    probs = record()
    refs = [linprog_solution(p) for p in probs]
    for prob, ref in zip(probs, refs):
        assert_same_bits(lp.solve_lp(prob), ref)
    statuses = [r.status for r in refs]
    assert statuses.count("optimal") >= 20 and statuses.count("infeasible") >= 5


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
        "nan_bound_means_none": lp.LpProblem(c=[-1.0, 1.0], a_in=[[1.0, 1.0]], b_in=[4.0],
                                             lo=[np.nan, 1.0], hi=[3.0, np.nan]),
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
    import scipy.optimize._highspy._core as core

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
    """A fresh solver per LP: no basis carries from one solve to the next.
    Every point of `a` is optimal, so a basis kept from `b` (whose optimum
    is x2 = 3) would move its answer away from x0 = 3."""
    a = lp.LpProblem(c=[0.0, 0.0, 0.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[3.0],
                     lo=[0.0, 0.0, 0.0], hi=[3.0, 3.0, 3.0])
    b = lp.LpProblem(c=[1.0, 1.0, -1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[3.0],
                     lo=[0.0, 0.0, 0.0], hi=[3.0, 3.0, 3.0])
    first = lp.solve_lp(a)
    lp.solve_lp(b)
    again = lp.solve_lp(a)
    assert_same_bits(again, first)
    assert_same_bits(first, linprog_solution(a))


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
    import scipy.optimize._highspy._core as core

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


@pytest.mark.parametrize("field", ["c", "a_in", "b_in", "a_eq", "b_eq"])
def test_non_finite_coefficients_raise(field):
    prob = lp.LpProblem(c=[1.0, 1.0], a_in=[[1.0, 1.0]], b_in=[3.0],
                        a_eq=[[1.0, -1.0]], b_eq=[0.0], lo=[0.0, 0.0], hi=[5.0, 5.0])
    getattr(prob, field).flat[0] = np.inf
    with pytest.raises(ValueError):
        linprog_solution(prob)
    with pytest.raises(ValueError, match="must be finite"):
        lp.solve_lp(prob)
