"""One cascade level: flow-dependent failure rates, interval outage
probabilities, the fast overload/shedding process, and the two re-dispatch
LPs (target selection and ramp-limited execution), each with the local
sensitivity matrices of the state chain when asked for (`jacobians=True`).

All maps are differentiated under the frozen-event / frozen-basis rule: the
trip sequence, island partition and LP active sets are held fixed, so every
returned Jacobian is the sub-derivative of the piecewise-smooth map actually
taken.

With `jacobians=False` the same states, costs, flags and active-set
signatures are produced, but no Jacobian, cost row or LP sensitivity is
computed: those fields are None and `degenerate` stays False.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
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
MAX_FAST_EVENTS = 50


class InternalError(RuntimeError):
    """Violated internal post-condition (unbalanced island after dispatch)."""


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
    state: SystemState,
    tau_d: float,
) -> np.ndarray:
    """d[Pr over in-service branches, Pr_no]/d[P_d; P_g] at the given state.

    Chains the probability Jacobian through the rate model and the flow
    sensitivity of the fixed topology. Rows follow the in-service branch
    order returned by `in_service_ids`.
    """
    flows = dc_power_flow(case, topo, state).flows
    lam_all, dlam_all = failure_rates(case, topo, flows)
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
    events: list
    final_state: SystemState
    final_topology: Topology
    cost: float                 # total fast cost, $
    jac: np.ndarray | None      # d(final state)/d(input state)
    dcost_dx: np.ndarray | None  # row, d(total cost)/d(input state)
    truncated: bool = False

    @property
    def n_events(self) -> int:
        return len(self.events)


def _rebalance(case: NetworkCase, topo: Topology, state: SystemState,
               jacobians: bool = True):
    """Per-island proportional balance restoration.

    Deficit islands (generation below load, incl. de-energized) shed load
    proportionally at cost c_D per MW; surplus islands curtail generation
    proportionally above P_min when island load covers total P_min, else
    fully proportionally. Returns (state', jacobian, cost, dcost_dx);
    the map is linear per island given the frozen partition. Without
    `jacobians` the jacobian and dcost_dx are None.
    """
    n_l, n_x = case.n_load, case.n_x
    p_d = state.p_load.copy()
    p_g = state.p_gen.copy()
    jac = np.eye(n_x) if jacobians else None
    cost = 0.0
    dcost = np.zeros(n_x) if jacobians else None
    island_of_bus = np.array(topo.island_of_bus)
    load_island = island_of_bus[case.load_bus]
    gen_island = island_of_bus[case.gen_bus]

    for k in range(len(topo.islands)):
        li = np.flatnonzero(load_island == k)
        gi = np.flatnonzero(gen_island == k)
        d_tot = float(p_d[li].sum()) if li.size else 0.0
        g_tot = float(p_g[gi].sum()) if gi.size else 0.0
        if abs(g_tot - d_tot) <= BALANCE_TOL:
            continue
        lx = li            # load slots in x
        gx = n_l + gi      # generator slots in x
        if g_tot < d_tot:
            # Shed load down to the available generation.
            alpha = g_tot / d_tot
            cd = case.c_load[li]
            cost += float(cd @ (p_d[li] * (1.0 - alpha)))
            if jacobians:
                rows = np.zeros((li.size, n_x))
                block_dd = -np.outer(p_d[li], np.full(li.size, g_tot / d_tot**2))
                block_dd[np.arange(li.size), np.arange(li.size)] += alpha
                rows[:, lx] = block_dd
                if gi.size:
                    rows[:, gx] = np.outer(p_d[li], np.full(gi.size, 1.0 / d_tot))
                dcost_step = np.zeros(n_x)
                dcost_step[lx] += cd
                dcost_step -= cd @ rows
                dcost += dcost_step
                jac[lx, :] = rows
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
                rows = np.zeros((gi.size, n_x))
                block_gg = -np.outer(ref, np.full(gi.size, beta / scale))
                block_gg[np.arange(gi.size), np.arange(gi.size)] += beta
                rows[:, gx] = block_gg
                if li.size:
                    rows[:, lx] = np.outer(ref, np.full(li.size, 1.0 / scale))
                jac[gx, :] = rows
    return SystemState(p_d, p_g), jac, cost, dcost


def short_timescale_process(
    case: NetworkCase,
    topo: Topology,
    state: SystemState,
    initial_trips: tuple = (),
    max_events: int = MAX_FAST_EVENTS,
    jacobians: bool = True,
) -> ShortTimescaleTrace:
    """Instantaneous cascade between stochastic outages.

    Repeats (rebalance islands, solve flows, trip |F| > trip_factor*F_max)
    until no branch trips. `initial_trips` names the already-removed branches
    whose outage starts the process, so the event list mirrors the full
    outage sequence. Each iteration with a trip strictly shrinks the
    in-service set, so the loop terminates; `max_events` is a safety valve
    that sheds all remaining load when exceeded.
    """
    events: list[FastEvent] = []
    cur_topo = topo
    cur_state = state
    jac_total = np.eye(case.n_x) if jacobians else None
    dcost_total = np.zeros(case.n_x) if jacobians else None
    cost_total = 0.0
    pending_trips: tuple = tuple(initial_trips)
    truncated = False

    for _ in range(max_events):
        new_state, jac_step, cost_step, dcost_step = _rebalance(
            case, cur_topo, cur_state, jacobians
        )
        changed = cost_step > 0.0 or bool(pending_trips) or not np.array_equal(
            new_state.x, cur_state.x
        )
        if jacobians:
            dcost_total += dcost_step @ jac_total  # w.r.t. the process input state
            jac_total = jac_step @ jac_total
        cost_total += cost_step
        cur_state = new_state
        if changed:
            events.append(FastEvent(tripped=pending_trips, cost=cost_step))
        flows = dc_power_flow(case, cur_topo, cur_state).flows
        over = case.branch_ids[
            cur_topo.mask & (np.abs(flows) > case.trip_factor * case.f_max)
        ].tolist()
        if not over:
            break
        cur_topo, _ = apply_outage(case, cur_topo, over)
        pending_trips = tuple(over)
    else:
        # Did not settle within max_events: shed everything left and flag it.
        truncated = True
        cost_total += float(case.c_load @ cur_state.p_load)
        cur_state = SystemState(np.zeros(case.n_load), np.zeros(case.n_gen))
        if jacobians:
            dcost_total += case.c_load @ jac_total[: case.n_load, :]
            jac_total = np.zeros((case.n_x, case.n_x))

    return ShortTimescaleTrace(
        events=events,
        final_state=cur_state,
        final_topology=cur_topo,
        cost=cost_total,
        jac=jac_total,
        dcost_dx=dcost_total,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Re-dispatch target (DC-OPF) and ramp-limited execution
# ---------------------------------------------------------------------------

@dataclass
class TargetResult:
    x_star: SystemState
    jac: np.ndarray | None      # d x* / d x' (None without jacobians)
    fallback: bool              # infeasible OPF -> shed-all target
    degenerate: bool            # computed only with jacobians
    signature: tuple


def _island_balance_rows(case: NetworkCase, topo: Topology, n_vars: int):
    """One equality row per energized island over [P_d; P_g] slots."""
    rows, rhs = [], []
    for k, members in enumerate(topo.islands):
        if not topo.energized[k]:
            continue
        mset = set(members)
        row = np.zeros(n_vars)
        for i, p in enumerate(case.load_bus):
            if p in mset:
                row[i] = -1.0
        for j, p in enumerate(case.gen_bus):
            if p in mset:
                row[case.n_load + j] = 1.0
        rows.append(row)
        rhs.append(0.0)
    return rows, rhs


def _flow_limit_rows(case: NetworkCase, topo: Topology, n_vars: int):
    """|flow| <= F_max over the [P_d; P_g] slots: the +sens rows of every
    branch with a nonzero flow-sensitivity row, then the -sens rows.

    Out-of-service branches and branches in de-energized islands have zero
    sensitivity rows, so they drop out.
    """
    sens = flow_sensitivity(case, topo)
    live = np.flatnonzero(np.any(sens, axis=1))
    rows = np.zeros((2 * live.size, n_vars))
    rows[: live.size, : case.n_x] = sens[live]
    rows[live.size :, : case.n_x] = -sens[live]
    return rows, np.concatenate([case.f_max[live], case.f_max[live]])


def _move_split_rows(case: NetworkCase, n_vars: int, p_ref: np.ndarray):
    """P_g - u + v = p_ref over [P_d, P_g, u, v], one row per generator, so
    that c_G'(u + v) prices |P_g - p_ref|."""
    n_l, n_g = case.n_load, case.n_gen
    rows = np.zeros((n_g, n_vars))
    j = np.arange(n_g)
    rows[j, n_l + j] = 1.0
    rows[j, n_l + n_g + j] = -1.0
    rows[j, n_l + 2 * n_g + j] = 1.0
    return rows, np.asarray(p_ref, dtype=float)


def dispatch_target(
    case: NetworkCase,
    topo: Topology,
    x_prime: SystemState,
    jacobians: bool = True,
) -> TargetResult:
    """Serve as much (cost-weighted) load as the network allows.

    min c_D'(P'_d - P*_d) + eps c_G' P*_g  s.t. island balance, |flow| <= F_max,
    0 <= P*_d <= P'_d, P_min <= P*_g <= P_max. The generation term only breaks
    ties toward cheap units. Infeasibility falls back to the shed-all target
    (P*_d = 0, P*_g = P'_g), flagged.
    """
    n_l, n_g = case.n_load, case.n_gen
    n_vars = n_l + n_g
    c = np.concatenate([-case.c_load, TARGET_EPSILON * case.c_gen])
    eq_rows, eq_rhs = _island_balance_rows(case, topo, n_vars)
    a_in, b_in = _flow_limit_rows(case, topo, n_vars)

    lo = np.concatenate([np.zeros(n_l), case.gen_min])
    hi = np.concatenate([np.maximum(x_prime.p_load, 0.0), case.gen_max])
    params = {f"xp_d{i}": [(lp.KIND_HI, i, 1.0)] for i in range(n_l)}

    prob = lp.LpProblem(
        c=c,
        a_eq=np.vstack(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rows else None,
        a_in=a_in,
        b_in=b_in,
        lo=lo,
        hi=hi,
        params=params,
    )
    sol = lp.solve_lp(prob)
    if not sol.optimal:
        jac = None
        if jacobians:
            jac = np.zeros((case.n_x, case.n_x))
            jac[n_l:, n_l:] = np.eye(n_g)
        return TargetResult(
            x_star=SystemState(np.zeros(n_l), x_prime.p_gen.copy()),
            jac=jac, fallback=True, degenerate=False, signature=(sol.status,),
        )
    jac, degenerate = None, False
    if jacobians:
        sens_res = lp.solution_sensitivity(prob, sol)
        jac = np.zeros((case.n_x, case.n_x))
        jac[:, :n_l] = sens_res.matrix[: case.n_x, :]  # columns ordered xp_d0..  (gen cols zero)
        degenerate = sens_res.degenerate
    return TargetResult(
        x_star=SystemState(sol.x[:n_l].copy(), sol.x[n_l:].copy()),
        jac=jac,
        fallback=False,
        degenerate=degenerate,
        signature=sol.active_signature(),
    )


@dataclass
class ExecuteResult:
    """Executed state and cost; the four derivative fields are None without
    jacobians."""

    state: SystemState
    cost: float                   # realized adjustment cost C_R, $
    jac_prime: np.ndarray | None  # d x / d x'
    jac_star: np.ndarray | None   # d x / d x*
    dcost_dxprime: np.ndarray | None  # row
    dcost_dxstar: np.ndarray | None   # row
    emergency: bool
    degenerate: bool              # computed only with jacobians
    signature: tuple


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
    |P_g - P'_g| <= tau_D r_g, P_min <= P_g <= P_max, P*_d <= P_d <= P'_d.
    The realized cost C_R prices the executed adjustment against the
    pre-dispatch state: c_D'(P'_d - P_d) + c_G'|P_g - P'_g|.
    """
    if tau_d <= 0:
        raise ValueError("tau_d must be > 0")
    n_l, n_g, n_x = case.n_load, case.n_gen, case.n_x
    n_vars = n_l + 3 * n_g  # P_d, P_g, u, v with P_g - u + v = P*_g

    c = np.concatenate([case.c_load, np.zeros(n_g), case.c_gen, case.c_gen])
    eq_rows, eq_rhs = _island_balance_rows(case, topo, n_vars)
    split, split_rhs = _move_split_rows(case, n_vars, x_star.p_gen)
    params = {f"xs_g{j}": [(lp.KIND_EQ, len(eq_rows) + j, 1.0)] for j in range(n_g)}

    a_in = np.zeros((2 * n_g, n_vars))
    b_in = np.zeros(2 * n_g)
    window = tau_d * case.gen_ramp
    for j in range(n_g):
        a_in[j, n_l + j] = 1.0
        b_in[j] = x_prime.p_gen[j] + window[j]
        a_in[n_g + j, n_l + j] = -1.0
        b_in[n_g + j] = -x_prime.p_gen[j] + window[j]
        params[f"xp_g{j}"] = [(lp.KIND_IN, j, 1.0), (lp.KIND_IN, n_g + j, -1.0)]

    hi_d = np.maximum(x_prime.p_load, 0.0)
    lo_d = np.minimum(np.maximum(x_star.p_load, 0.0), hi_d)  # clip unreachable targets
    lo = np.concatenate([lo_d, case.gen_min, np.zeros(2 * n_g)])
    hi = np.concatenate([hi_d, case.gen_max, np.full(2 * n_g, np.inf)])
    for i in range(n_l):
        params[f"xs_d{i}"] = [(lp.KIND_LO, i, 1.0)]
        params[f"xp_d{i}"] = [(lp.KIND_HI, i, 1.0)]

    prob = lp.LpProblem(
        c=c,
        a_eq=np.vstack(eq_rows + [split]), b_eq=np.concatenate([eq_rhs, split_rhs]),
        a_in=a_in, b_in=b_in, lo=lo, hi=hi, params=params,
    )
    sol = lp.solve_lp(prob)
    if not sol.optimal:
        # Ramp window cannot restore balance: emergency proportional shedding.
        state, jac, cost, dcost = _rebalance(case, topo, x_prime, jacobians)
        return ExecuteResult(
            state=state, cost=cost,
            jac_prime=jac, jac_star=np.zeros((n_x, n_x)) if jacobians else None,
            dcost_dxprime=dcost, dcost_dxstar=np.zeros(n_x) if jacobians else None,
            emergency=True, degenerate=False, signature=(sol.status,),
        )

    state = SystemState(sol.x[:n_l].copy(), sol.x[n_l : n_l + n_g].copy())
    _assert_balanced(case, topo, state)
    move = state.p_gen - x_prime.p_gen
    cost = float(case.c_load @ (x_prime.p_load - state.p_load) + case.c_gen @ np.abs(move))
    if not jacobians:
        return ExecuteResult(
            state=state, cost=cost,
            jac_prime=None, jac_star=None, dcost_dxprime=None, dcost_dxstar=None,
            emergency=False, degenerate=False, signature=sol.active_signature(),
        )

    sens_res = lp.solution_sensitivity(prob, sol)
    cols = {name: k for k, name in enumerate(sens_res.param_names)}
    dx = sens_res.matrix[:n_x, :]
    jac_star = np.zeros((n_x, n_x))
    jac_prime = np.zeros((n_x, n_x))
    for i in range(n_l):
        jac_star[:, i] = dx[:, cols[f"xs_d{i}"]]
        jac_prime[:, i] = dx[:, cols[f"xp_d{i}"]]
    for j in range(n_g):
        jac_star[:, n_l + j] = dx[:, cols[f"xs_g{j}"]]
        jac_prime[:, n_l + j] = dx[:, cols[f"xp_g{j}"]]

    sigma = np.sign(np.where(np.abs(move) <= 1e-9, 0.0, move))
    w = np.concatenate([-case.c_load, case.c_gen * sigma])  # dC_R/dx at fixed x'
    direct = np.concatenate([case.c_load, -case.c_gen * sigma])
    dcost_dxstar = w @ jac_star
    dcost_dxprime = w @ jac_prime + direct
    return ExecuteResult(
        state=state, cost=cost,
        jac_prime=jac_prime, jac_star=jac_star,
        dcost_dxprime=dcost_dxprime, dcost_dxstar=dcost_dxstar,
        emergency=False, degenerate=sens_res.degenerate,
        signature=sol.active_signature(),
    )


def _assert_balanced(case: NetworkCase, topo: Topology, state: SystemState) -> None:
    """Hard post-condition: per-island |sum P_g - sum P_d| <= 1e-6 MW."""
    for k, members in enumerate(topo.islands):
        mset = set(members)
        d = sum(state.p_load[i] for i, p in enumerate(case.load_bus) if p in mset)
        g = sum(state.p_gen[j] for j, p in enumerate(case.gen_bus) if p in mset)
        if abs(g - d) > 1e-6:
            raise InternalError(
                f"island {k} unbalanced after dispatch: |{g:.9f} - {d:.9f}| > 1e-6"
            )


# ---------------------------------------------------------------------------
# Full level record
# ---------------------------------------------------------------------------

@dataclass
class LevelRecord:
    """Everything one Markov-tree level produces, local sensitivities included.

    The Jacobian and cost-row fields are None, and `degenerate` is False, for
    a level simulated without jacobians. The conditional probability of the
    sampled event and its gradient row live in the parent's distribution, so
    the tree layer keeps them on the node.
    """

    event_id: int                      # 0 = no outage this level
    topo: Topology                     # after the fast process
    x_prime: SystemState
    x_star: SystemState
    x_next: SystemState
    cost_fast: float                   # C_F
    cost_redispatch: float             # C_R
    jac_prime: np.ndarray | None       # d x'/d x
    jac_star: np.ndarray | None        # d x*/d x'
    jac_exec_prime: np.ndarray | None  # d x/d x'
    jac_exec_star: np.ndarray | None   # d x/d x*
    dcf_dx: np.ndarray | None          # row, d C_F/d x
    dcr_dxprime: np.ndarray | None     # row
    dcr_dxstar: np.ndarray | None      # row
    fast_events: int = 0
    truncated: bool = False
    target_fallback: bool = False
    emergency: bool = False
    degenerate: bool = False
    signature: tuple = ()

    @property
    def cost(self) -> float:
        return self.cost_fast + self.cost_redispatch


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
        topo_after, _ = apply_outage(case, topo, {event_id})
        trace = short_timescale_process(
            case, topo_after, state, initial_trips=(event_id,), jacobians=jacobians
        )
    else:
        trace = short_timescale_process(case, topo, state, jacobians=jacobians)
    tgt = dispatch_target(case, trace.final_topology, trace.final_state, jacobians)
    exe = dispatch_execute(
        case, trace.final_topology, trace.final_state, tgt.x_star, tau_d, jacobians
    )
    return LevelRecord(
        event_id=event_id,
        topo=trace.final_topology,
        x_prime=trace.final_state,
        x_star=tgt.x_star,
        x_next=exe.state,
        cost_fast=trace.cost,
        cost_redispatch=exe.cost,
        jac_prime=trace.jac,
        jac_star=tgt.jac,
        jac_exec_prime=exe.jac_prime,
        jac_exec_star=exe.jac_star,
        dcf_dx=trace.dcost_dx,
        dcr_dxprime=exe.dcost_dxprime,
        dcr_dxstar=exe.dcost_dxstar,
        fast_events=trace.n_events,
        truncated=trace.truncated,
        target_fallback=tgt.fallback,
        emergency=exe.emergency,
        degenerate=tgt.degenerate or exe.degenerate,
        signature=(
            tuple(sorted(trace.final_topology.in_service)),
            tgt.signature,
            exe.signature,
        ),
    )


def is_fully_shed(state: SystemState) -> bool:
    return state.total_load() <= SHED_EPS
