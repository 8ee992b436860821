"""Linear programs with frozen-basis solution sensitivities.

Solving is delegated to HiGHS dual simplex through the bindings scipy ships
(`scipy.optimize._highspy`). Each LP gets a fresh solver and the same model,
options and post-solve feasibility check as scipy's `highs-ds` LP method,
without that method's per-call Python wrapping. The derivative of the
optimal point with respect to tagged right-hand-side/bound parameters is
computed here from the active set, holding the basis fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize._highspy._core as _highs

FEAS_TOL = 1e-8          # KKT / constraint residual tolerance
TIGHT_TOL = 1e-7         # activity detection
DUAL_TOL = 1e-9          # strongly-active threshold on multipliers
RANK_TOL = 1e-9


def _highs_options() -> _highs.HighsOptions:
    """The options scipy's `highs-ds` method passes for our tolerances."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
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
_ERROR = _highs.HighsStatus.kError
_OPTIMAL = _highs.HighsModelStatus.kOptimal
_UNBOUNDED = _highs.HighsModelStatus.kUnbounded
_AT_LOWER = int(_highs.HighsBasisStatus.kLower)
_AT_UPPER = int(_highs.HighsBasisStatus.kUpper)
# scipy's post-solve check tolerance: sqrt(tol) * 10 with its default 1e-9.
_CHECK_TOL = math.sqrt(1e-9) * 10

# Parameter tag kinds: which RHS/bound vector the parameter perturbs.
KIND_EQ = "eq"
KIND_IN = "in"
KIND_LO = "lo"
KIND_HI = "hi"


@dataclass
class LpProblem:
    """min c'x  s.t.  A_eq x = b_eq,  A_in x <= b_in,  lo <= x <= hi.

    `params` maps a parameter name to the RHS/bound coefficients it drives:
    a list of (kind, index, coeff) meaning d(b_kind[index])/d(param) = coeff.
    """

    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_in: np.ndarray | None = None
    b_in: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    params: dict = field(default_factory=dict)

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


def _highs_model(prob: LpProblem):
    """HiGHS column-wise LP for rows [A_in; A_eq] and its column bounds."""
    a_t = np.vstack([prob.a_in, prob.a_eq]).T
    if not (np.isfinite(prob.c).all() and np.isfinite(a_t).all()
            and np.isfinite(prob.b_in).all() and np.isfinite(prob.b_eq).all()):
        raise ValueError("LP costs, matrices and right-hand sides must be finite")
    nonzero = a_t != 0.0
    cols, rows = np.nonzero(nonzero)
    n, m = a_t.shape
    # +-inf becomes +-kHighsInf, as in scipy's LP front end.
    lb = np.fmin(np.fmax(prob.lo, -_INF), _INF)
    ub = np.fmax(np.fmin(prob.hi, _INF), -_INF)
    model = _highs.HighsLp()
    model.num_col_ = n
    model.num_row_ = m
    model.col_cost_ = prob.c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = np.concatenate([np.full(prob.b_in.size, -_INF), prob.b_eq])
    model.row_upper_ = np.concatenate([prob.b_in, prob.b_eq])
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = np.searchsorted(cols, np.arange(n + 1))
    matrix.index_ = rows
    matrix.value_ = a_t[nonzero]
    return model, lb, ub


def solve_lp(prob: LpProblem) -> LpSolution:
    """Solve with HiGHS dual simplex; statuses are reported, never raised.

    Non-finite costs, matrix entries or right-hand sides raise `ValueError`.
    A solution that misses its bounds or rows by more than scipy's post-solve
    check tolerance, or holds a NaN, is reported infeasible.
    """
    model, lb, ub = _highs_model(prob)
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(model) == _ERROR:
        return LpSolution(status="infeasible")
    ran = highs.run() != _ERROR
    model_status = highs.getModelStatus()
    if model_status == _UNBOUNDED:
        return LpSolution(status="unbounded")
    if not ran or model_status != _OPTIMAL:
        return LpSolution(status="infeasible")

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
            or (slack < -_CHECK_TOL).any() or (np.abs(con) > _CHECK_TOL).any()):
        return LpSolution(status="infeasible")

    row_dual = np.array(solution.row_dual)
    col_dual = np.array(solution.col_dual)
    col_status = np.array(highs.getBasis().col_status, dtype=np.int8)
    active_in = prob.b_in - prob.a_in @ x <= TIGHT_TOL * (1.0 + np.abs(prob.b_in))
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
    )


@dataclass
class SensitivityResult:
    """d(optimal x)/d(param) columns in `prob.params` order."""

    matrix: np.ndarray          # (n, n_params)
    param_names: list
    degenerate: bool
    param_degenerate: np.ndarray  # bool per param: tied to an ambiguous row


def _candidate_rows(prob: LpProblem, sol: LpSolution):
    """Active rows as (key, row_vector, strong) in basis-priority order."""
    n = prob.n
    cands = []
    for i in range(prob.b_eq.size):
        cands.append(((KIND_EQ, i), prob.a_eq[i], True))
    strong, weak = [], []
    for i in np.flatnonzero(sol.active_in):
        entry = ((KIND_IN, int(i)), prob.a_in[i], abs(sol.in_duals[i]) > DUAL_TOL)
        (strong if entry[2] else weak).append(entry)
    for j in np.flatnonzero(sol.active_lo):
        e = np.zeros(n)
        e[j] = 1.0
        entry = ((KIND_LO, int(j)), e, abs(sol.lo_duals[j]) > DUAL_TOL)
        (strong if entry[2] else weak).append(entry)
    for j in np.flatnonzero(sol.active_hi):
        e = np.zeros(n)
        e[j] = 1.0
        entry = ((KIND_HI, int(j)), e, abs(sol.hi_duals[j]) > DUAL_TOL)
        (strong if entry[2] else weak).append(entry)
    return cands + strong + weak


def solution_sensitivity(prob: LpProblem, sol: LpSolution) -> SensitivityResult:
    """Frozen-basis derivative of the optimal primal w.r.t. tagged parameters.

    The binding constraints are assembled into a square system in priority
    order (equalities, then nonzero-dual actives, then zero-dual actives);
    parameters whose rows do not enter the selected basis get zero columns.
    Ambiguity (a zero-dual row adding rank, redundant strong rows, or an
    under-determined optimal face) sets the degeneracy flag; the derivative of
    the basis actually selected is returned regardless.
    """
    if not sol.optimal:
        raise ValueError("sensitivity requires an optimal solution")
    n = prob.n
    names = list(prob.params.keys())
    n_par = len(names)

    # Orthonormal basis of the selected rows, grown column by column in place.
    q = np.empty((n, n))
    a_basis = np.empty((n, n))
    rank = 0
    basis_keys: dict = {}
    degenerate = False
    for key, a, strong in _candidate_rows(prob, sol):
        if rank == n:
            if strong:
                degenerate = True
            continue
        qk = q[:, :rank]
        r = a - qk @ (qk.T @ a)
        r -= qk @ (qk.T @ r)  # second pass keeps q orthonormal at scale
        nr = float(np.linalg.norm(r))
        if nr > RANK_TOL * max(1.0, float(np.linalg.norm(a))):
            if not strong:
                degenerate = True  # a slack-dual row is needed to pin the point
            basis_keys[key] = rank
            a_basis[rank] = a
            q[:, rank] = r / nr
            rank += 1
        elif strong and key[0] != KIND_EQ:
            degenerate = True  # redundant strongly-active row: multiple bases

    if rank < n:
        # Optimal face has free directions; pin them (zero movement) and flag.
        degenerate = True
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            qk = q[:, :rank]
            r = e - qk @ (qk.T @ e)
            nr = float(np.linalg.norm(r))
            if nr > RANK_TOL:
                a_basis[rank] = e
                q[:, rank] = r / nr
                rank += 1
                if rank == n:
                    break

    rhs = np.zeros((n, n_par))
    param_deg = np.zeros(n_par, dtype=bool)
    tight_unselected = set()
    for i in range(prob.b_eq.size):
        if (KIND_EQ, i) not in basis_keys:
            tight_unselected.add((KIND_EQ, i))
    for i in np.flatnonzero(sol.active_in):
        if (KIND_IN, int(i)) not in basis_keys:
            tight_unselected.add((KIND_IN, int(i)))
    for j in np.flatnonzero(sol.active_lo):
        if (KIND_LO, int(j)) not in basis_keys:
            tight_unselected.add((KIND_LO, int(j)))
    for j in np.flatnonzero(sol.active_hi):
        if (KIND_HI, int(j)) not in basis_keys:
            tight_unselected.add((KIND_HI, int(j)))

    for p, name in enumerate(names):
        for kind, idx, coeff in prob.params[name]:
            key = (kind, int(idx))
            pos = basis_keys.get(key)
            if pos is not None:
                rhs[pos, p] += coeff
            elif key in tight_unselected:
                param_deg[p] = True  # tight but outside the chosen basis

    if n_par and np.any(rhs):
        lu, piv = scipy.linalg.lu_factor(a_basis[:rank])
        matrix = scipy.linalg.lu_solve((lu, piv), rhs)
    else:
        matrix = np.zeros((n, n_par))
    return SensitivityResult(
        matrix=matrix, param_names=names,
        degenerate=degenerate or bool(param_deg.any()),
        param_degenerate=param_deg,
    )


def kkt_residuals(prob: LpProblem, sol: LpSolution) -> dict:
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

