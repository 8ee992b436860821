"""One cascade level: flow-dependent failure rates, interval outage
probabilities, the fast overload/shedding process, and the two re-dispatch
LPs (target selection and ramp-limited execution), each with the local
sensitivity matrices of the state chain when asked for (`jacobians=True`).
`dispatch_lp` builds these two LPs and the risk-management LP.

All maps are differentiated under the frozen-event / frozen-basis rule: the
trip sequence, island partition and LP active sets are held fixed, so every
returned Jacobian is the sub-derivative of the piecewise-smooth map actually
taken. Each local Jacobian is a `gradient.Csr`, built from its nonzero
blocks without a dense n_x x n_x step.

Under the same rule every stage cost is its price row times its state
change, price @ (x_out - x_in): [-c_D; 0] for the fast process and an
emergency execution, [-c_D; c_G sigma] for an execution LP with sigma the
sign of each generator's move. Only `gradient.chain_step` differentiates it.

With `jacobians=False` the same states, costs, flags and LP solutions are
produced, but no Jacobian, price row or LP sensitivity is computed: those
fields are None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lp
from .gradient import Csr
from .lp import InternalError
from .network import (
    NetworkCase,
    SystemState,
    Topology,
    apply_outage,
    dc_power_flow,
    flow_sensitivity,
)

BALANCE_TOL = 1e-9      # MW, island imbalance treated as balanced
SHED_EPS = 1e-9         # MW, total load below this counts as fully shed
TARGET_EPSILON = 1e-3   # weight of the generation-cost tie-break in the target LP
TIE_BREAK = 1e-4        # relative size of the per-unit cost tie-break of every dispatch LP
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_FAST_EVENTS = 50


# ---------------------------------------------------------------------------
# Failure rates and interval outage probabilities
# ---------------------------------------------------------------------------

def failure_rates(case: NetworkCase, topo: Topology, flows: np.ndarray):
    """Per-branch rate lambda(|F|/F_max) and its flow derivative.

    Out-of-service branches get rate 0 with zero slope. The derivative is the
    active segment slope times sign(F)/F_max (sub-derivative at kinks).
    """
    lam = np.zeros(case.n_branch)
    dlam_df = np.zeros(case.n_branch)
    rho = np.abs(flows) / case.f_max
    sgn = np.sign(flows)

    mid = topo.mask & (rho > case.knee) & (rho <= 1.0)
    over = topo.mask & (rho > 1.0)
    base = topo.mask & ~mid & ~over

    lam[base] = case.lam0[base]
    mid_slope = (case.lam1 - case.lam0) / np.maximum(1.0 - case.knee, 1e-12)
    lam[mid] = case.lam0[mid] + (rho[mid] - case.knee[mid]) * mid_slope[mid]
    dlam_df[mid] = mid_slope[mid] * sgn[mid] / case.f_max[mid]
    raw = case.lam1 + case.over_slope * (rho - 1.0)
    capped = over & (raw >= case.lam_max)
    free = over & ~capped
    lam[capped] = case.lam_max[capped]
    lam[free] = raw[free]
    dlam_df[free] = case.over_slope[free] * sgn[free] / case.f_max[free]
    return lam, dlam_df


def level_probabilities(lam: np.ndarray, tau_d: float):
    """Interval outage distribution from competing exponential rates.

    Pr_i = (lam_i / sum lam) * (1 - exp(-sum(lam) tau)),  Pr_no = exp(-sum tau).
    With all rates zero the no-outage event has probability one.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("failure rates must be nonnegative")
    total = float(lam.sum())
    if total == 0.0:
        return np.zeros(lam.size), 1.0
    hit = -np.expm1(-total * tau_d)
    return lam * (hit / total), float(np.exp(-total * tau_d))


def probability_jacobian(lam: np.ndarray, tau_d: float) -> np.ndarray:
    """d[Pr_1..Pr_ne, Pr_no]/d lambda, analytic, (ne+1, ne).

    Uses series forms near sum(lam) -> 0 where the closed form loses digits.
    """
    lam = np.asarray(lam, dtype=float)
    ne = lam.size
    total = float(lam.sum())
    jac = np.zeros((ne + 1, ne))
    if total * tau_d < 1e-8:
        g = tau_d * (1.0 - 0.5 * total * tau_d)
        gp = -0.5 * tau_d * tau_d * (1.0 - (2.0 / 3.0) * total * tau_d)
    else:
        g = -np.expm1(-total * tau_d) / total
        gp = (tau_d * np.exp(-total * tau_d) - g) / total
    jac[:ne, :] = lam[:, None] * gp
    jac[np.arange(ne), np.arange(ne)] += g
    jac[ne, :] = -tau_d * np.exp(-total * tau_d)
    return jac


def probability_sensitivity(
    case: NetworkCase,
    topo: Topology,
    lam_all: np.ndarray,
    dlam_all: np.ndarray,
    tau_d: float,
) -> np.ndarray:
    """d[Pr over in-service branches, Pr_no]/d[P_d; P_g] at a state whose
    `failure_rates` are `lam_all` and `dlam_all`.

    Chains the probability Jacobian through the rate model and the flow
    sensitivity of the fixed topology. Rows follow the in-service branch
    order returned by `in_service_ids`.
    """
    jac_pr = probability_jacobian(lam_all[topo.mask], tau_d)    # (ne+1, ne)
    dflow = flow_sensitivity(case, topo)[topo.mask, :]          # (ne, n_x)
    chain = dlam_all[topo.mask][:, None] * dflow                # dlam/dx
    return jac_pr @ chain


def in_service_ids(case: NetworkCase, topo: Topology) -> list:
    """In-service branch ids in case order (the outage-event candidates)."""
    return case.branch_ids[topo.mask].tolist()


# ---------------------------------------------------------------------------
# Fast (short-timescale) overload process
# ---------------------------------------------------------------------------

@dataclass
class FastEvent:
    """One iteration of the fast process: trips applied, then rebalancing."""

    tripped: tuple
    cost: float


@dataclass
class ShortTimescaleTrace:
    """The fast process's outcome; its cost is price @ (final_state - input state)."""

    events: list
    final_state: SystemState
    final_topology: Topology
    cost: float                 # total fast cost, $
    jac: Csr | None             # d(final state)/d(input state)
    price: np.ndarray | None    # the shed price [-c_D; 0]
    truncated: bool = False

    @property
    def n_events(self) -> int:
        return len(self.events)


@lru_cache(maxsize=16)
def _identity(n: int) -> Csr:
    """The n x n identity, one shared read-only object per recent size."""
    return Csr.from_coo(np.arange(n), np.arange(n), np.ones(n), (n, n))


def _identity_with_rows(n: int, blocks: list) -> Csr:
    """The n x n identity with the rows of each (rows, cols, values) block
    replaced by `values` in columns `cols`; no row is in two blocks."""
    if not blocks:
        return _identity(n)
    width = np.ones(n, dtype=np.intp)
    for rows, cols, _ in blocks:
        width[rows] = cols.size
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(width, out=indptr[1:])
    indices = np.arange(n).repeat(width)   # right for unreplaced rows
    data = np.ones(indptr[-1])
    for rows, cols, values in blocks:
        at = indptr[rows, None] + np.arange(cols.size)
        indices[at] = cols
        data[at] = values
    return Csr(indptr, indices, data, (n, n))


def _shed_price(case: NetworkCase) -> np.ndarray:
    """[-c_D; 0]: shedding load costs c_D per MW, curtailing generation nothing."""
    return np.concatenate([-case.c_load, np.zeros(case.n_gen)])


def _rebalance(case: NetworkCase, topo: Topology, state: SystemState,
               jacobians: bool = True):
    """Per-island proportional balance restoration.

    Deficit islands (generation below load, incl. de-energized) shed load
    proportionally at cost c_D per MW; surplus islands curtail generation
    proportionally above P_min when island load covers total P_min, else
    fully proportionally, at no cost. Returns (state', jacobian, cost); the
    cost is `_shed_price(case) @ (state' - state)`. The map is linear per
    island given the frozen partition, so the jacobian is the identity with
    one block of rows per unbalanced island (the shared `_identity(n_x)`
    when every island is balanced). Without `jacobians` the jacobian is None.
    """
    n_l, n_x = case.n_load, case.n_x
    p_d = state.p_load.copy()
    p_g = state.p_gen.copy()
    blocks = []     # (rows, cols, values) of the rows each island replaces
    cost = 0.0

    for li, gi in zip(topo.island_loads, topo.island_gens):
        d_tot = float(p_d[li].sum()) if li.size else 0.0
        g_tot = float(p_g[gi].sum()) if gi.size else 0.0
        if abs(g_tot - d_tot) <= BALANCE_TOL:
            continue
        lx = li            # load slots in x
        gx = n_l + gi      # generator slots in x
        cols = np.concatenate([lx, gx]) if jacobians else None   # a block's columns
        if g_tot < d_tot:
            # Shed load down to the available generation.
            alpha = g_tot / d_tot
            cd = case.c_load[li]
            cost += float(cd @ (p_d[li] * (1.0 - alpha)))
            if jacobians:
                block = np.outer(p_d[li], np.repeat([-g_tot / d_tot**2, 1.0 / d_tot],
                                                    [li.size, gi.size]))
                i = np.arange(li.size)
                block[i, i] += alpha
                blocks.append((lx, cols, block))
            p_d[li] *= alpha
        else:
            # Curtail generation down to the island load (no direct cost).
            m = case.gen_min[gi]
            m_tot = float(m.sum())
            if d_tot >= m_tot and g_tot > m_tot + BALANCE_TOL:
                denom = g_tot - m_tot
                beta = (d_tot - m_tot) / denom
                surplus = p_g[gi] - m
                scale, ref = denom, surplus
                p_g[gi] = m + beta * surplus
            else:
                beta = d_tot / g_tot
                scale, ref = g_tot, p_g[gi].copy()
                p_g[gi] *= beta
            if jacobians:
                block = np.outer(ref, np.repeat([1.0 / scale, -beta / scale],
                                                [li.size, gi.size]))
                j = np.arange(gi.size)
                block[j, li.size + j] += beta
                blocks.append((gx, cols, block))
    jac = _identity_with_rows(n_x, blocks) if jacobians else None
    return SystemState(p_d, p_g), jac, cost


def short_timescale_process(
    case: NetworkCase,
    topo: Topology,
    state: SystemState,
    initial_trips: tuple = (),
    jacobians: bool = True,
) -> ShortTimescaleTrace:
    """Instantaneous cascade between stochastic outages.

    Repeats (rebalance islands, solve flows, trip |F| > trip_factor*F_max)
    until no branch trips. `initial_trips` names the already-removed branches
    whose outage starts the process, so the event list mirrors the full
    outage sequence. Each iteration with a trip strictly shrinks the
    in-service set, so the loop terminates; `MAX_FAST_EVENTS` is a safety
    valve that sheds all remaining load when exceeded.
    """
    events: list[FastEvent] = []
    cur_topo = topo
    cur_state = state
    jac_total = eye = _identity(case.n_x) if jacobians else None
    cost_total = 0.0
    pending_trips: tuple = tuple(initial_trips)
    truncated = False

    for _ in range(MAX_FAST_EVENTS):
        new_state, jac_step, cost_step = _rebalance(case, cur_topo, cur_state, jacobians)
        changed = cost_step > 0.0 or bool(pending_trips) or not np.array_equal(
            new_state.x, cur_state.x
        )
        if jacobians and jac_step is not eye:
            jac_total = jac_step if jac_total is eye else jac_step @ jac_total
        cost_total += cost_step
        cur_state = new_state
        if changed:
            events.append(FastEvent(tripped=pending_trips, cost=cost_step))
        flows = dc_power_flow(case, cur_topo, cur_state)
        over = case.branch_ids[
            cur_topo.mask & (np.abs(flows) > case.trip_factor * case.f_max)
        ].tolist()
        if not over:
            break
        cur_topo = apply_outage(case, cur_topo, over)
        pending_trips = tuple(over)
    else:
        # Did not settle within MAX_FAST_EVENTS: shed everything left and flag it.
        truncated = True
        cost_total += float(case.c_load @ cur_state.p_load)
        cur_state = SystemState(np.zeros(case.n_load), np.zeros(case.n_gen))
        if jacobians:
            jac_total = Csr.zeros((case.n_x, case.n_x))

    return ShortTimescaleTrace(
        events=events,
        final_state=cur_state,
        final_topology=cur_topo,
        cost=cost_total,
        jac=jac_total,
        price=_shed_price(case) if jacobians else None,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Re-dispatch target (DC-OPF) and ramp-limited execution
# ---------------------------------------------------------------------------

@dataclass
class TargetResult:
    x_star: SystemState
    jac: Csr | None             # d x* / d x' (None without jacobians)
    fallback: bool              # infeasible OPF -> shed-all target
    sol: lp.LpSolution          # the memoized target-LP solution


def _tie_broken_costs(case: NetworkCase) -> tuple[np.ndarray, np.ndarray]:
    """(c_D, c_G) as the dispatch LPs price them: unit k of [P_d; P_g] costs
    c_k (1 + TIE_BREAK w_k), with w_k = frac(k * 0.618...).

    With equal case costs (rts96: every load 10000, every generator 100 $/MW)
    an LP has a whole optimal face, and which vertex HiGHS returns depends on
    its path. The distinct, evenly spread weights pick one of them; two
    costs whose ratio exceeds 1 + TIE_BREAK keep their order. The weights
    only choose among optima: reported costs use the case's own
    `c_load`/`c_gen`.
    """
    w = np.arange(case.n_x) * _GOLDEN % 1.0
    c = np.concatenate([case.c_load, case.c_gen]) * (1.0 + TIE_BREAK * w)
    return c[: case.n_load], c[case.n_load :]


def dispatch_lp(case: NetworkCase, topo: Topology, load_sign: float, lo_d: np.ndarray,
                hi_d: np.ndarray, p_ref: np.ndarray | None = None, rows: tuple | None = None,
                flows: bool = False, params: tuple = (0, ())) -> lp.LpProblem:
    """The one builder of the target, execution and RM LPs, priced with
    `_tie_broken_costs`.

    - Variables [P_d; P_g], plus split columns [u; v] with P_g - u + v = p_ref
      when `p_ref` is given, so that c_G'(u + v) prices |P_g - p_ref|.
    - Objective load_sign c_D'P_d, plus c_G'(u + v), or TARGET_EPSILON
      c_G'P_g without `p_ref`.
    - Equality rows: one balance row per energized island (-1 for its loads,
      +1 for its generators, right-hand side 0), then the split rows.
    - Inequality rows: the caller's one-sided `rows` = (A, b), A [P_d; P_g]
      <= b, then with `flows` one ranged row -F_max <= flow <= F_max per
      branch with a nonzero flow-sensitivity row (out-of-service branches and
      branches of de-energized islands drop out).
    - Bounds lo_d <= P_d <= hi_d, P_min <= P_g <= P_max, u, v >= 0.

    `params` is (count, terms): a term (block, index, param, coeff) says that
    parameter param[k] moves entry index[k] of `block` by `coeff`, where the
    block is "rows" (their b), "split" (p_ref), "lo" or "hi" (the bounds).
    """
    n_l, n_g, n_x = case.n_load, case.n_gen, case.n_x
    n_split = 0 if p_ref is None else n_g
    n_vars = n_x + 2 * n_split
    c_load, c_gen = _tie_broken_costs(case)
    k = np.flatnonzero(topo.energized)[:, None]
    a_eq = np.zeros((k.size + n_split, n_vars))
    a_eq[: k.size, :n_l][topo.load_island == k] = -1.0
    a_eq[: k.size, n_l:n_x][topo.gen_island == k] = 1.0
    if p_ref is None:
        c = np.concatenate([load_sign * c_load, TARGET_EPSILON * c_gen])
        b_eq = np.zeros(k.size)
    else:
        c = np.concatenate([load_sign * c_load, np.zeros(n_g), c_gen, c_gen])
        j = np.arange(n_g)
        a_eq[k.size + j, n_l + j] = 1.0
        a_eq[k.size + j, n_x + j] = -1.0
        a_eq[k.size + j, n_x + n_g + j] = 1.0
        b_eq = np.concatenate([np.zeros(k.size), p_ref])

    a_rows, b_in = (np.zeros((0, n_x)), np.zeros(0)) if rows is None else rows
    lb_in = None
    if flows:
        sens = flow_sensitivity(case, topo)
        live = np.flatnonzero(np.any(sens, axis=1))
        f_max = case.f_max[live]
        lb_in = np.concatenate([np.full(len(b_in), -np.inf), -f_max])
        a_rows = np.concatenate([a_rows, sens[live]])
        b_in = np.concatenate([b_in, f_max])
    a_in = np.zeros((len(a_rows), n_vars))
    a_in[:, :n_x] = a_rows

    m_in, m_eq = len(a_in), len(a_eq)
    offset = {"rows": 0, "split": m_in + k.size, "lo": m_in + m_eq, "hi": m_in + m_eq + n_vars}
    count, terms = params
    empty = np.zeros(0, np.intp)
    blocks, index, param, coeff = zip(("rows", empty, empty, 0.0), *terms)
    at = np.concatenate([offset[block] + i for block, i in zip(blocks, index)])
    return lp.LpProblem(
        c=c, a_eq=a_eq, b_eq=b_eq, a_in=a_in, lb_in=lb_in, b_in=b_in,
        lo=np.concatenate([lo_d, case.gen_min, np.zeros(2 * n_split)]),
        hi=np.concatenate([hi_d, case.gen_max, np.full(2 * n_split, np.inf)]),
        params=(count, at, np.concatenate(param), np.repeat(coeff, [len(i) for i in index])),
    )


def _solve_dispatch_lp(topo: Topology, key: tuple, build, derive=None):
    """(solution, jacobians) of the dispatch LP that `key` names
    on `topo`, solved once per distinct LP.

    The costs, the matrices a_eq, a_in, the row lower bounds lb_in and the
    generator and split-column bounds of the target and execution LPs depend
    only on the case, the topology and the LP kind; the state enters through
    the other right-hand sides and bounds. So the kind and the bytes of the
    state-driven vectors name the LP in `topo.lp_memo`, and the caller
    computes only those before the lookup.
    `build()` makes the `LpProblem`; it runs on a miss, and again when an
    LP first solved without jacobians is later asked for them.
    `derive(matrix)` turns the sensitivity matrix into the jacobians, a
    `Csr` or a tuple of them; without it (no gradients) no sensitivity is
    computed and (solution, None) comes back, as it does for an LP that is
    not optimal.

    Each memo entry is [solution, jacobians], the jacobians None until a
    caller asks for them; a hit returns the read-only solution and the same
    read-only jacobians that the first call got.
    """
    entry = topo.lp_memo.get(key)
    prob = None
    if entry is None:
        prob = build()
        entry = topo.lp_memo[key] = [lp.solve_lp(prob), None]
    sol, jacs = entry
    if derive is None or not sol.optimal:
        return sol, None
    if jacs is None:
        sens = lp.solution_sensitivity(prob if prob is not None else build(), sol)
        jacs = entry[1] = derive(sens.matrix)
    return sol, jacs


def dispatch_target(
    case: NetworkCase,
    topo: Topology,
    x_prime: SystemState,
    jacobians: bool = True,
) -> TargetResult:
    """Serve as much (cost-weighted) load as the network allows.

    min c_D'(P'_d - P*_d) + eps c_G' P*_g  s.t. island balance, |flow| <= F_max,
    0 <= P*_d <= P'_d, P_min <= P*_g <= P_max. The generation term only breaks
    ties toward cheap units, and c_D, c_G carry the per-unit tie-break of
    `_tie_broken_costs`, so the optimum is unique. Infeasibility falls back
    to the shed-all target (P*_d = 0, P*_g = P'_g), flagged.
    """
    n_l, n_g, n_x = case.n_load, case.n_gen, case.n_x
    hi_d = np.maximum(x_prime.p_load, 0.0)

    def build():
        # parameter i is P'_d[i], the upper bound of P*_d[i]
        i = np.arange(n_l)
        return dispatch_lp(case, topo, -1.0, np.zeros(n_l), hi_d, flows=True,
                           params=(n_l, [("hi", i, i, 1.0)]))

    def derive(matrix):
        return Csr.from_dense(matrix, (n_x, n_x))  # d x*/d P'_g is zero

    sol, derived = _solve_dispatch_lp(
        topo, ("target", hi_d.tobytes()), build, derive if jacobians else None
    )
    if not sol.optimal:
        jac = None
        if jacobians:
            gens = n_l + np.arange(n_g)
            jac = Csr.from_coo(gens, gens, np.ones(n_g), (n_x, n_x))
        return TargetResult(
            x_star=SystemState(np.zeros(n_l), x_prime.p_gen.copy()),
            jac=jac, fallback=True, sol=sol,
        )
    return TargetResult(
        x_star=SystemState(sol.x[:n_l].copy(), sol.x[n_l:].copy()),
        jac=derived,
        fallback=False,
        sol=sol,
    )


def control_cost_value(case: NetworkCase, x_from: SystemState, x_to: SystemState) -> float:
    """Re-dispatch cost of moving `x_from` to `x_to` at the case's costs:
    c_D'(P_d(from) - P_d(to)) + c_G'|P_g(to) - P_g(from)|. It is the realized
    cost C_R of an execution and the control cost C_0 of an assessment."""
    return float(
        case.c_load @ (x_from.p_load - x_to.p_load)
        + case.c_gen @ np.abs(x_to.p_gen - x_from.p_gen)
    )


@dataclass
class ExecuteResult:
    """Executed state and cost; the jacobians and the price row are None
    without jacobians. The cost is `price @ (x - x')`."""

    state: SystemState
    cost: float                   # realized adjustment cost C_R, $
    emergency: bool
    sol: lp.LpSolution            # the memoized execution-LP solution
    jac_prime: Csr | None = None         # d x / d x'
    jac_star: Csr | None = None          # d x / d x*
    price: np.ndarray | None = None      # [-c_D; c_G sigma], or the shed price


def check_tau_d(tau_d: float) -> None:
    """Raise a ValueError naming config key 'tau_d' unless it is finite and > 0."""
    if not math.isfinite(tau_d):
        raise ValueError("config key 'tau_d' must be finite")
    if tau_d <= 0:
        raise ValueError("config key 'tau_d' must be > 0")


def dispatch_execute(
    case: NetworkCase,
    topo: Topology,
    x_prime: SystemState,
    x_star: SystemState,
    tau_d: float,
    jacobians: bool = True,
) -> ExecuteResult:
    """Move toward the target within one interval's ramp capability.

    min c_D'(P_d - P*_d) + c_G'|P_g - P*_g|  s.t. island balance,
    |P_g - P'_g| <= tau_D r_g, P_min <= P_g <= P_max, P*_d <= P_d <= P'_d,
    with c_D, c_G tie-broken by `_tie_broken_costs`. The realized cost C_R
    prices the executed adjustment against the pre-dispatch state at the
    case's costs, `control_cost_value(case, x', x)`.
    """
    check_tau_d(tau_d)
    n_l, n_g, n_x = case.n_load, case.n_gen, case.n_x
    p_ref = np.asarray(x_star.p_gen, dtype=float)
    # ramp rows P_g <= P'_g + tau_D r_g, then -P_g <= -P'_g + tau_D r_g
    window = tau_d * case.gen_ramp
    b_in = np.concatenate([x_prime.p_gen + window, -x_prime.p_gen + window])
    hi_d = np.maximum(x_prime.p_load, 0.0)
    lo_d = np.minimum(np.maximum(x_star.p_load, 0.0), hi_d)  # clip unreachable targets

    def build():
        i, j = np.arange(n_l), np.arange(n_g)
        ramp = np.zeros((2 * n_g, n_x))
        ramp[j, n_l + j] = 1.0
        ramp[n_g + j, n_l + j] = -1.0
        # parameters [x*; x']: P*_d moves lo_d, P*_g the split rows, P'_d
        # hi_d, and P'_g both ramp rows
        return dispatch_lp(
            case, topo, 1.0, lo_d, hi_d, p_ref=p_ref,
            rows=(ramp, b_in),
            params=(2 * n_x, [
                ("lo", i, i, 1.0), ("split", j, n_l + j, 1.0), ("hi", i, n_x + i, 1.0),
                ("rows", j, n_x + n_l + j, 1.0), ("rows", n_g + j, n_x + n_l + j, -1.0),
            ]),
        )

    def derive(matrix):
        return Csr.from_dense(matrix[:n_x, :n_x]), Csr.from_dense(matrix[:n_x, n_x:])

    key = ("execute", p_ref.tobytes(), b_in.tobytes(), lo_d.tobytes(), hi_d.tobytes())
    sol, derived = _solve_dispatch_lp(topo, key, build, derive if jacobians else None)
    if not sol.optimal:
        # Ramp window cannot restore balance: emergency proportional shedding.
        state, jac, cost = _rebalance(case, topo, x_prime, jacobians)
        return ExecuteResult(
            state=state, cost=cost, emergency=True, sol=sol,
            jac_prime=jac, jac_star=Csr.zeros((n_x, n_x)) if jacobians else None,
            price=_shed_price(case) if jacobians else None,
        )

    state = SystemState(sol.x[:n_l].copy(), sol.x[n_l : n_l + n_g].copy())
    _assert_balanced(case, topo, state)
    cost = control_cost_value(case, x_prime, state)
    if not jacobians:
        return ExecuteResult(state=state, cost=cost, emergency=False, sol=sol)

    jac_star, jac_prime = derived
    move = state.p_gen - x_prime.p_gen
    sigma = np.sign(np.where(np.abs(move) <= 1e-9, 0.0, move))
    return ExecuteResult(
        state=state, cost=cost, emergency=False, sol=sol,
        jac_prime=jac_prime, jac_star=jac_star,
        price=np.concatenate([-case.c_load, case.c_gen * sigma]),
    )


def _assert_balanced(case: NetworkCase, topo: Topology, state: SystemState) -> None:
    """Hard post-condition: per-island |sum P_g - sum P_d| <= 1e-6 MW."""
    n_isl = len(topo.islands)
    d = np.bincount(topo.load_island, weights=state.p_load, minlength=n_isl)
    g = np.bincount(topo.gen_island, weights=state.p_gen, minlength=n_isl)
    bad = np.flatnonzero(np.abs(g - d) > 1e-6)
    if bad.size:
        k = bad[0]
        raise InternalError(
            f"island {k} unbalanced after dispatch: |{g[k]:.9f} - {d[k]:.9f}| > 1e-6"
        )


# ---------------------------------------------------------------------------
# Full level record
# ---------------------------------------------------------------------------

@dataclass
class LevelRecord:
    """Everything one Markov-tree level produces: the fast process (x -> x'),
    the target LP (x' -> x*) and the execution LP ((x', x*) -> x), each with
    its local sensitivities.

    The conditional probability of the sampled event and its gradient row
    live in the parent's distribution, so the tree layer keeps them on the
    node.
    """

    event_id: int                   # 0 = no outage this level
    fast: ShortTimescaleTrace
    target: TargetResult
    execute: ExecuteResult

    @property
    def topo(self) -> Topology:
        """The topology after the fast process."""
        return self.fast.final_topology

    @property
    def x_next(self) -> SystemState:
        return self.execute.state

    @property
    def cost(self) -> float:
        """C_F + C_R."""
        return self.fast.cost + self.execute.cost

    @property
    def signature(self) -> tuple:
        """Hashable fingerprint of the trip set and both LPs' active sets,
        computed on each call."""
        return (
            tuple(sorted(self.topo.in_service)),
            self.target.sol.active_signature(),
            self.execute.sol.active_signature(),
        )


def simulate_level(
    case: NetworkCase,
    topo: Topology,
    state: SystemState,
    event_id: int,
    tau_d: float,
    jacobians: bool = True,
) -> LevelRecord:
    """Run one level: apply the sampled outage (if any), let the fast process
    settle, pick a re-dispatch target, execute it within the interval.
    `jacobians=False` skips every local derivative (see the module note)."""
    if event_id:
        topo_after = apply_outage(case, topo, {event_id})
        trace = short_timescale_process(
            case, topo_after, state, initial_trips=(event_id,), jacobians=jacobians
        )
    else:
        trace = short_timescale_process(case, topo, state, jacobians=jacobians)
    tgt = dispatch_target(case, trace.final_topology, trace.final_state, jacobians)
    exe = dispatch_execute(
        case, trace.final_topology, trace.final_state, tgt.x_star, tau_d, jacobians
    )
    return LevelRecord(event_id, trace, tgt, exe)


def is_fully_shed(state: SystemState) -> bool:
    return state.total_load() <= SHED_EPS
