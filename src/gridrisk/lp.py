"""Linear programs with frozen-basis solution sensitivities.

Solving is delegated to HiGHS dual simplex through the compiled bindings
scipy ships (`scipy.optimize._highspy._core`), with the same options and
post-solve feasibility check as scipy's `highs-ds` LP method with
`presolve=False`, without that method's per-call Python wrapping. The
extension is loaded by `_ext.load_scipy_extension`, without importing
`scipy.optimize`, whose `__init__` pulls in scipy.special, scipy.fft,
scipy.spatial and about 170 other modules that gridrisk never calls: that
takes about 0.2 s off each process's start and 14 MB off its peak memory.
Small models share one module-level solver: `passModel` replaces its model
and basis, so no state carries from one solve to the next, and setting one
up costs more than a small LP's simplex solve. After a model with more than
`REUSE_NNZ` nonzeros the solver is dropped, so a large model's workspace is
freed as soon as its solve ends. The program runs no threads, so one
shared solver is never in use twice at once. Inequality
rows may be ranged, `lb_in <= A_in x <= b_in`, so a two-sided limit such as
|flow| <= F_max is one row; HiGHS takes ranged rows natively. The model goes
to HiGHS as row-wise arrays of [A_in; A_eq] in one `passModel` call, read
straight from the stacked matrix without a transposed copy. Presolve is off:
the dispatch LPs carry a cost tie-break that makes their optima unique, so
presolve would not change the optimum, and on these LPs it costs more than
the simplex solve it shortens. Solution arrays are read-only,
so one solution can be shared by every caller of its LP. The derivative of the
optimal point with respect to parameters of the stacked right-hand sides and
bounds [b_in; b_eq; lo; hi] holds HiGHS's optimal basis fixed: its n nonbasic
rows and columns are the binding constraints, each held at the side it sits
on. Row lower bounds `lb_in` are constants, not parameter positions. The
basis is degenerate when more than n constraints are tight (a ranged row
counts as two) or a nonbasic multiplier is within `DUAL_TOL` of zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ext import load_scipy_extension

_highs = load_scipy_extension("scipy.optimize._highspy._core")

FEAS_TOL = 1e-8          # KKT / constraint residual tolerance
TIGHT_TOL = 1e-7         # activity detection
DUAL_TOL = 1e-9          # multipliers at most this far from zero are weak
REUSE_NNZ = 10_000       # models with more nonzeros do not keep the shared solver


def _highs_options() -> _highs.HighsOptions:
    """The options scipy's `highs-ds` method passes for our tolerances and
    `presolve=False`."""
    opts = _highs.HighsOptions()
    opts.presolve = "off"
    opts.solver = "simplex"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.primal_feasibility_tolerance = 1e-10
    opts.dual_feasibility_tolerance = 1e-10
    opts.output_flag = False
    opts.log_to_console = False
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    return opts


_HIGHS_OPTIONS = _highs_options()
_INF = _highs.kHighsInf
_ROWWISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
_ERROR = _highs.HighsStatus.kError
_OPTIMAL = _highs.HighsModelStatus.kOptimal
_UNBOUNDED = _highs.HighsModelStatus.kUnbounded
_AT_LOWER = int(_highs.HighsBasisStatus.kLower)
_AT_UPPER = int(_highs.HighsBasisStatus.kUpper)
_BASIC = int(_highs.HighsBasisStatus.kBasic)
# scipy's post-solve check tolerance: sqrt(tol) * 10 with its default 1e-9.
_CHECK_TOL = math.sqrt(1e-9) * 10
# (solver, the solver class, the options passed to it), kept for small models
_reused: tuple | None = None


class InternalError(RuntimeError):
    """Violated internal post-condition (an optimal LP without a valid basis,
    an unbalanced island after dispatch)."""


@dataclass
class LpProblem:
    """min c'x  s.t.  A_eq x = b_eq,  lb_in <= A_in x <= b_in,  lo <= x <= hi.

    `lb_in` defaults to -inf, leaving one-sided rows A_in x <= b_in; a finite
    entry makes its row ranged, one row for a two-sided limit.
    `params` is (count, at, param, coeff): `count` parameters drive the
    stacked right-hand sides and bounds [b_in; b_eq; lo; hi], entry k
    meaning d(stacked[at[k]])/d(parameter param[k]) = coeff[k]. The row
    lower bounds `lb_in` are fixed: no parameter moves them.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    params: tuple = (0, (), (), ())
    lb_in: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.a_eq is None:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        if self.a_in is None:
            self.a_in = np.zeros((0, n))
            self.b_in = np.zeros(0)
        else:
            self.a_in = np.atleast_2d(np.asarray(self.a_in, dtype=float))
            self.b_in = np.atleast_1d(np.asarray(self.b_in, dtype=float))
        if self.lb_in is None:
            self.lb_in = np.full(self.b_in.size, -np.inf)
        else:
            self.lb_in = np.atleast_1d(np.asarray(self.lb_in, dtype=float))
            if self.lb_in.shape != self.b_in.shape:
                raise ValueError("row lower bounds must match the inequality rows")
            if np.isnan(self.lb_in).any():
                raise ValueError("row lower bounds must not be NaN")
            if np.any(self.lb_in > self.b_in + FEAS_TOL):
                raise ValueError("row lower bound exceeds its right-hand side")
        self.lo = np.full(n, -np.inf) if self.lo is None else np.asarray(self.lo, dtype=float)
        self.hi = np.full(n, np.inf) if self.hi is None else np.asarray(self.hi, dtype=float)
        if self.a_eq.shape != (self.b_eq.size, n) or self.a_in.shape != (self.b_in.size, n):
            raise ValueError("inconsistent LP dimensions")
        if self.lo.size != n or self.hi.size != n:
            raise ValueError("bound vectors must match the variable count")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("LP bounds must not be NaN")
        if np.any(self.lo > self.hi + FEAS_TOL):
            raise ValueError("lower bound exceeds upper bound")
        count, at, param, coeff = self.params
        at, param = np.asarray(at, dtype=np.intp), np.asarray(param, dtype=np.intp)
        coeff = np.asarray(coeff, dtype=float)
        if not at.shape == param.shape == coeff.shape == (at.size,):
            raise ValueError("parameter arrays must be 1-D and of equal length")
        if at.size and (at.min() < 0 or at.max() >= self.b_in.size + self.b_eq.size + 2 * n):
            raise ValueError("parameter position outside [b_in; b_eq; lo; hi]")
        if param.size and (param.min() < 0 or param.max() >= count):
            raise ValueError("parameter index outside the parameter count")
        if not np.isfinite(coeff).all():
            raise ValueError("parameter coefficients must be finite")
        self.params = (int(count), at, param, coeff)

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    """Solver outcome; duals follow scipy's convention (d objective / d RHS)."""

    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float | None = None
    eq_duals: np.ndarray | None = None
    in_duals: np.ndarray | None = None
    lo_duals: np.ndarray | None = None
    hi_duals: np.ndarray | None = None
    active_in: np.ndarray | None = None   # bool per inequality row
    active_lo: np.ndarray | None = None
    active_hi: np.ndarray | None = None
    col_status: np.ndarray | None = None  # HiGHS basis status per column
    row_status: np.ndarray | None = None  # and per row of [A_in; A_eq]

    def __post_init__(self):
        # read-only: one solution may be shared by every caller of its LP
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def active_signature(self) -> tuple:
        """Hashable fingerprint of the binding set (for perturbation checks)."""
        if not self.optimal:
            return (self.status,)
        return (
            tuple(np.flatnonzero(self.active_in).tolist()),
            tuple(np.flatnonzero(self.active_lo).tolist()),
            tuple(np.flatnonzero(self.active_hi).tolist()),
        )


def _highs_model(prob: LpProblem) -> tuple:
    """The arguments of HiGHS's array `passModel` for rows [A_in; A_eq]:
    (n, m, nnz, format, sense, offset, c, col_lower, col_upper, row_lower,
    row_upper, start, index, value, integrality), row-wise, minimized."""
    a = np.vstack([prob.a_in, prob.a_eq])
    if not (np.isfinite(prob.c).all() and np.isfinite(a).all()
            and np.isfinite(prob.b_in).all() and np.isfinite(prob.b_eq).all()):
        raise ValueError("LP costs, matrices and right-hand sides must be finite")
    nonzero = a != 0.0
    rows, cols = np.nonzero(nonzero)
    value = a[nonzero]
    m, n = a.shape
    # +-inf becomes +-kHighsInf, as in scipy's LP front end.
    lb = np.fmin(np.fmax(prob.lo, -_INF), _INF)
    ub = np.fmax(np.fmin(prob.hi, _INF), -_INF)
    return (
        n, m, value.size, _ROWWISE, _MINIMIZE, 0.0, prob.c, lb, ub,
        np.concatenate([np.fmax(prob.lb_in, -_INF), prob.b_eq]),
        np.concatenate([prob.b_in, prob.b_eq]),
        np.searchsorted(rows, np.arange(m + 1)).astype(np.int32),
        cols.astype(np.int32), value, np.zeros(n, dtype=np.int32),
    )


def _tight_sides(prob: LpProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per inequality row, whether A_in x sits within `TIGHT_TOL` of b_in,
    and whether it sits within it of a finite lb_in."""
    act = prob.a_in @ x
    upper = prob.b_in - act <= TIGHT_TOL * (1.0 + np.abs(prob.b_in))
    # inf <= inf: an infinite lb_in would read as tight without the mask
    lower = np.isfinite(prob.lb_in) & (act - prob.lb_in <= TIGHT_TOL * (1.0 + np.abs(prob.lb_in)))
    return upper, lower


def _solver(nnz: int):
    """A HiGHS solver with `_HIGHS_OPTIONS` passed, kept for the next solve
    when the model it gets has at most `REUSE_NNZ` nonzeros. The kept solver
    is rebuilt whenever `_highs._Highs` or `_HIGHS_OPTIONS` is no longer the
    object it was made from."""
    global _reused
    if _reused is not None and _reused[1] is _highs._Highs and _reused[2] is _HIGHS_OPTIONS:
        highs = _reused[0]
    else:
        highs = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
    _reused = (highs, _highs._Highs, _HIGHS_OPTIONS) if nnz <= REUSE_NNZ else None
    return highs


def solve_lp(prob: LpProblem) -> LpSolution:
    """Solve with HiGHS dual simplex; statuses are reported, never raised.

    Non-finite costs, matrix entries or right-hand sides raise `ValueError`.
    A solution that misses its bounds or rows by more than scipy's post-solve
    check tolerance, or holds a NaN, is reported infeasible.
    """
    model = _highs_model(prob)
    lb, ub = model[7:9]   # the column bounds as HiGHS sees them
    highs = _solver(model[2])
    if highs.passModel(*model) == _ERROR:
        return LpSolution(status="infeasible")
    ran = highs.run() != _ERROR
    model_status = highs.getModelStatus()
    if model_status == _UNBOUNDED:
        return LpSolution(status="unbounded")
    if not ran or model_status != _OPTIMAL:
        return LpSolution(status="infeasible")
    basis = highs.getBasis()
    # `.value` per enum reads the status lists about twice as fast as numpy does
    col_status = np.array([s.value for s in basis.col_status], dtype=np.int8)
    row_status = np.array([s.value for s in basis.row_status], dtype=np.int8)
    nonbasic = np.count_nonzero(col_status != _BASIC) + np.count_nonzero(row_status != _BASIC)
    if not basis.valid or nonbasic != prob.n:
        raise InternalError(f"HiGHS reports an optimal LP without a valid basis "
                            f"({nonbasic} nonbasic for {prob.n} columns)")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = highs.getInfo().objective_function_value
    m_in = prob.b_in.size
    row_value = np.array(solution.row_value)
    slack = prob.b_in - row_value[:m_in]
    con = prob.b_eq - row_value[m_in:]
    if (math.isnan(objective) or np.isnan(x).any() or np.isnan(slack).any()
            or np.isnan(con).any()
            or not np.all((x >= lb - _CHECK_TOL) & (x <= ub + _CHECK_TOL))
            or (slack < -_CHECK_TOL).any() or (np.abs(con) > _CHECK_TOL).any()
            or (row_value[:m_in] < prob.lb_in - _CHECK_TOL).any()):
        return LpSolution(status="infeasible")

    row_dual = np.array(solution.row_dual)
    col_dual = np.array(solution.col_dual)
    upper, lower = _tight_sides(prob, x)
    active_in = upper | lower
    active_lo = np.isfinite(prob.lo) & (x - prob.lo <= TIGHT_TOL * (1.0 + np.abs(prob.lo)))
    active_hi = np.isfinite(prob.hi) & (prob.hi - x <= TIGHT_TOL * (1.0 + np.abs(prob.hi)))
    return LpSolution(
        status="optimal",
        x=x,
        objective=float(objective),
        eq_duals=row_dual[m_in:],
        in_duals=row_dual[:m_in],
        lo_duals=np.where(col_status == _AT_LOWER, col_dual, 0.0),
        hi_duals=np.where(col_status == _AT_UPPER, col_dual, 0.0),
        active_in=active_in,
        active_lo=active_lo,
        active_hi=active_hi,
        col_status=col_status,
        row_status=row_status,
    )


@dataclass
class SensitivityResult:
    """d(optimal x)/d(param), one column per parameter of `prob.params`."""

    matrix: np.ndarray          # (n, count)
    degenerate: bool
    param_degenerate: np.ndarray  # bool per param: tied to a tight non-binding constraint


def solution_sensitivity(prob: LpProblem, sol: LpSolution) -> SensitivityResult:
    """Frozen-basis derivative of the optimal primal w.r.t. `prob.params`.

    HiGHS's optimal basis names the n binding constraints: the nonbasic
    columns, each held at the bound it sits on, and the nonbasic rows R, each
    held at the side it sits on. A nonbasic column moves by its bound's
    coefficient; the basic columns B follow from A[R, B] dx_B = d rhs_R -
    A[R, N] dx_N, where |R| = |B|. An inequality row moves with its b_in
    only when it sits at that upper side; at its lower side it moves with
    lb_in, which is constant. Parameters of constraints that are not binding
    get zero columns.

    The basis is degenerate when more than n constraints are tight (a basic
    row or column sits at a bound, or a nonbasic row or column at both of its
    sides) or when a nonbasic row or column has a multiplier within
    `DUAL_TOL` of zero. `param_degenerate` marks parameters of tight
    constraints outside the binding set. The derivative of HiGHS's basis is
    returned regardless.
    """
    if not sol.optimal:
        raise ValueError("sensitivity requires an optimal solution")
    n, m_in = prob.n, prob.b_in.size
    count, at, param, coeff = prob.params
    at_lo = sol.col_status == _AT_LOWER
    at_hi = sol.col_status == _AT_UPPER
    basic = sol.col_status == _BASIC
    row_binding = sol.row_status != _BASIC
    m = row_binding.size   # rows of [A_in; A_eq]
    in_upper = sol.row_status[:m_in] == _AT_UPPER
    tight_upper, tight_lower = _tight_sides(prob, sol.x)
    duals = np.concatenate([sol.in_duals, sol.eq_duals, sol.lo_duals + sol.hi_duals])
    degenerate = bool(
        (sol.active_lo & ~at_lo).any() or (sol.active_hi & ~at_hi).any()
        or (tight_upper & ~in_upper).any()
        or (tight_lower & (sol.row_status[:m_in] != _AT_LOWER)).any()
        or not row_binding[m_in:].all()
        or (np.abs(duals) <= DUAL_TOL)[np.concatenate([row_binding, ~basic])].any()
    )

    binding = np.concatenate([in_upper, row_binding[m_in:], at_lo, at_hi])[at]
    tight = np.concatenate([tight_upper, np.ones(prob.b_eq.size, dtype=bool),
                            sol.active_lo, sol.active_hi])[at]
    param_deg = np.zeros(count, dtype=bool)
    param_deg[param[tight & ~binding]] = True
    # Binding right-hand sides of [A_in; A_eq], then the columns: a column
    # sits at no more than one bound, so its lo and hi entries share a row.
    block = np.zeros((m + n, count))
    pos = at[binding]
    np.add.at(block, (np.where(pos < m + n, pos, pos - n), param[binding]), coeff[binding])
    row_rhs, matrix = block[:m], block[m:]   # matrix: set on nonbasic columns, solved on B

    if basic.any():
        a_rows = np.concatenate([prob.a_in[row_binding[:m_in]], prob.a_eq[row_binding[m_in:]]])
        rhs = row_rhs[row_binding] - a_rows @ matrix
        if np.any(rhs):
            matrix[basic] = np.linalg.solve(a_rows[:, basic], rhs)
    return SensitivityResult(
        matrix=matrix,
        degenerate=degenerate or bool(param_deg.any()),
        param_degenerate=param_deg,
    )
