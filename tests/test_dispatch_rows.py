"""The dispatch LPs and the cached topology arrays against reference
implementations.

Each `ref_*` function builds its result row by row and branch by branch,
testing membership in `topo.in_service` and in the island bus tuples. The
shared row builders must give the same matrices, bounds and parameters, and
the mask- and island-array code the same numbers, bit for bit. The
reference parameters are one list of (vector, index, coeff) per parameter,
placed on the stacked [b_in; b_eq; lo; hi] only when compared.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from gridrisk import cascade, cases, lp
from gridrisk.assess import AssessmentConfig, base_state, run_assessment
from gridrisk.cascade import TARGET_EPSILON
from gridrisk.management import build_rm
from gridrisk.network import apply_outage, build_topology, dc_power_flow, flow_sensitivity
from test_network import reference_bus


# -- reference copies ---------------------------------------------------------

def ref_costs(case):
    """(c_D, c_G) with the dispatch LPs' tie-break, unit by unit: unit k of
    [P_d; P_g] costs c_k (1 + 1e-4 frac(k (sqrt(5) - 1) / 2))."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    costs = [c * (1.0 + 1e-4 * (k * golden % 1.0))
             for k, c in enumerate([*case.c_load, *case.c_gen])]
    return np.array(costs[: case.n_load]), np.array(costs[case.n_load :])


def ref_island_balance_rows(case, topo, n_vars):
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


def ref_target_lp(case, topo, x_prime):
    n_l, n_g = case.n_load, case.n_gen
    n_vars = n_l + n_g
    c_load, c_gen = ref_costs(case)
    c = np.concatenate([-c_load, TARGET_EPSILON * c_gen])
    eq_rows, eq_rhs = ref_island_balance_rows(case, topo, n_vars)
    sens = flow_sensitivity(case, topo)
    rows, lower, upper = [], [], []   # one ranged row per live branch
    for i, br in enumerate(case.branches):
        if br.id in topo.in_service and np.any(sens[i]):
            rows.append(sens[i])
            lower.append(-case.f_max[i])
            upper.append(case.f_max[i])
    lo = np.concatenate([np.zeros(n_l), case.gen_min])
    hi = np.concatenate([np.maximum(x_prime.p_load, 0.0), case.gen_max])
    params = [[("hi", i, 1.0)] for i in range(n_l)]   # P'_d
    return lp.LpProblem(
        c=c,
        a_eq=np.vstack(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rows else None,
        a_in=np.vstack(rows) if rows else None,
        lb_in=np.array(lower) if rows else None,
        b_in=np.array(upper) if rows else None,
        lo=lo, hi=hi,
    ), params


def ref_execute_lp(case, topo, x_prime, x_star, tau_d):
    n_l, n_g = case.n_load, case.n_gen
    n_vars = n_l + 3 * n_g
    c_load, c_gen = ref_costs(case)
    c = np.concatenate([c_load, np.zeros(n_g), c_gen, c_gen])
    eq_rows, eq_rhs = ref_island_balance_rows(case, topo, n_vars)
    terms = {}
    for j in range(n_g):
        row = np.zeros(n_vars)
        row[n_l + j] = 1.0
        row[n_l + n_g + j] = -1.0
        row[n_l + 2 * n_g + j] = 1.0
        eq_rows.append(row)
        eq_rhs.append(x_star.p_gen[j])
        terms[f"xs_g{j}"] = [("eq", len(eq_rhs) - 1, 1.0)]
    a_in = np.zeros((2 * n_g, n_vars))
    b_in = np.zeros(2 * n_g)
    window = tau_d * case.gen_ramp
    for j in range(n_g):
        a_in[j, n_l + j] = 1.0
        b_in[j] = x_prime.p_gen[j] + window[j]
        a_in[n_g + j, n_l + j] = -1.0
        b_in[n_g + j] = -x_prime.p_gen[j] + window[j]
        terms[f"xp_g{j}"] = [("in", j, 1.0), ("in", n_g + j, -1.0)]
    hi_d = np.maximum(x_prime.p_load, 0.0)
    lo_d = np.minimum(np.maximum(x_star.p_load, 0.0), hi_d)
    lo = np.concatenate([lo_d, case.gen_min, np.zeros(2 * n_g)])
    hi = np.concatenate([hi_d, case.gen_max, np.full(2 * n_g, np.inf)])
    for i in range(n_l):
        terms[f"xs_d{i}"] = [("lo", i, 1.0)]
        terms[f"xp_d{i}"] = [("hi", i, 1.0)]
    # columns of d x/d x*, then of d x/d x', each in [P_d; P_g] order
    order = ([f"xs_d{i}" for i in range(n_l)] + [f"xs_g{j}" for j in range(n_g)]
             + [f"xp_d{i}" for i in range(n_l)] + [f"xp_g{j}" for j in range(n_g)])
    params = [terms[name] for name in order]
    return lp.LpProblem(
        c=c, a_eq=np.vstack(eq_rows), b_eq=np.array(eq_rhs),
        a_in=a_in, b_in=b_in, lo=lo, hi=hi,
    ), params


def ref_rm_lp(case, topo, x_pre, x_star0, gamma, r_prime0, r_expected):
    """The one-sided risk row, then one ranged flow row per live branch."""
    n_l, n_g = case.n_load, case.n_gen
    n_vars = n_l + 3 * n_g
    c_load, c_gen = ref_costs(case)
    c = np.concatenate([-c_load, np.zeros(n_g), c_gen, c_gen])
    eq_rows, eq_rhs = ref_island_balance_rows(case, topo, n_vars)
    for j in range(n_g):
        row = np.zeros(n_vars)
        row[n_l + j] = 1.0
        row[n_l + n_g + j] = -1.0
        row[n_l + 2 * n_g + j] = 1.0
        eq_rows.append(row)
        eq_rhs.append(x_pre.p_gen[j])
    sens = flow_sensitivity(case, topo)
    live = [i for i, br in enumerate(case.branches)
            if br.id in topo.in_service and np.any(sens[i])]
    rows = [np.zeros(n_vars)]
    rows[0][: case.n_x] = -gamma
    lower = [-np.inf]
    rhs = [r_expected - r_prime0 - float(gamma @ x_star0.x)]
    for i in live:
        row = np.zeros(n_vars)
        row[: case.n_x] = sens[i]
        rows.append(row)
        lower.append(-case.f_max[i])
        rhs.append(case.f_max[i])
    lo = np.concatenate([np.zeros(n_l), case.gen_min, np.zeros(2 * n_g)])
    hi = np.concatenate([np.maximum(x_pre.p_load, 0.0), case.gen_max, np.full(2 * n_g, np.inf)])
    return lp.LpProblem(
        c=c, a_eq=np.vstack(eq_rows), b_eq=np.array(eq_rhs),
        a_in=np.vstack(rows), lb_in=np.array(lower), b_in=np.array(rhs), lo=lo, hi=hi,
    ), len(live)


def ref_island_of_bus(topo):
    return {p: k for k, members in enumerate(topo.islands) for p in members}


def ref_live(case, topo):
    """Positions of the in-service branches of energized islands."""
    island_of = ref_island_of_bus(topo)
    return [i for i, br in enumerate(case.branches) if br.id in topo.in_service
            and topo.energized[island_of[case.branch_from[i]]]]


def ref_topology_data(case, topo):
    n_bus = case.n_bus
    island_of = ref_island_of_bus(topo)
    b_mat = np.zeros((n_bus, n_bus))
    for i, br in enumerate(case.branches):
        if br.id not in topo.in_service:
            continue
        u, v = case.branch_from[i], case.branch_to[i]
        b_mat[u, u] += br.y
        b_mat[v, v] += br.y
        b_mat[u, v] -= br.y
        b_mat[v, u] -= br.y
    inv_map = np.zeros((n_bus, n_bus))
    for k, members in enumerate(topo.islands):
        if not topo.energized[k] or len(members) == 1:
            continue
        ref = reference_bus(case, members)
        keep = [p for p in members if p != ref]
        inv_map[np.ix_(keep, keep)] = scipy.linalg.inv(b_mat[np.ix_(keep, keep)])
    flow_rows = np.zeros((case.n_branch, n_bus))
    for i, br in enumerate(case.branches):
        if br.id not in topo.in_service:
            continue
        if not topo.energized[island_of[case.branch_from[i]]]:
            continue
        flow_rows[i] = br.y * (inv_map[case.branch_from[i]] - inv_map[case.branch_to[i]])
    sens = np.zeros((case.n_branch, case.n_x))
    sens[:, : case.n_load] = -flow_rows[:, case.load_bus]
    sens[:, case.n_load :] = flow_rows[:, case.gen_bus]
    return inv_map, sens


def ref_dc_flows(case, topo, state):
    inv_map, _ = ref_topology_data(case, topo)
    island_of = ref_island_of_bus(topo)
    inj = np.zeros(case.n_bus)
    np.add.at(inj, case.gen_bus, state.p_gen)
    np.add.at(inj, case.load_bus, -state.p_load)
    inj /= case.base_mva
    angles = inv_map @ inj
    flows_pu = np.zeros(case.n_branch)
    for i, br in enumerate(case.branches):
        if br.id in topo.in_service:
            if topo.energized[island_of[case.branch_from[i]]]:
                flows_pu[i] = br.y * (angles[case.branch_from[i]] - angles[case.branch_to[i]])
    return flows_pu * case.base_mva


@pytest.mark.parametrize("name", ["toy6", "rts96", "ring120"])
def test_tie_broken_costs_keep_order_and_differ(name):
    """The tie-break keeps every strict order of the case's costs (loads and
    generators together) and gives no two units the same cost."""
    case = getattr(cases, name)()
    base = np.concatenate([case.c_load, case.c_gen])
    tied = np.concatenate(cascade._tie_broken_costs(case))
    assert np.array_equal(tied, np.concatenate(ref_costs(case)))
    below = base[:, None] < base[None, :]
    assert below.any()
    assert (tied[:, None] < tied[None, :])[below].all()
    assert np.unique(tied).size == tied.size


# -- scenarios ------------------------------------------------------------------

SCENARIOS = [("toy6", ()), ("toy6", (1,)), ("rts96", (22, 23, 24))]


def after_fast_process(case, outages):
    x = base_state(case)
    topo = apply_outage(case, build_topology(case), outages)
    fast = cascade.short_timescale_process(
        case, topo, x, initial_trips=tuple(sorted(outages)), jacobians=False
    )
    return fast.final_topology, fast.final_state


def ref_stacked_entries(prob, params):
    """The sorted (at, param, coeff) entries of the reference parameters."""
    m_in, m_eq = prob.b_in.size, prob.b_eq.size
    offset = {"in": 0, "eq": m_in, "lo": m_in + m_eq, "hi": m_in + m_eq + prob.n}
    return sorted((offset[vec] + idx, p, coeff)
                  for p, terms in enumerate(params) for vec, idx, coeff in terms)


def assert_same_lp(new, ref, ref_params=()):
    for name in ("c", "a_eq", "b_eq", "a_in", "lb_in", "b_in", "lo", "hi"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    count, at, param, coeff = new.params
    assert count == len(ref_params)
    assert sorted(zip(at.tolist(), param.tolist(), coeff.tolist())) == \
        ref_stacked_entries(ref, ref_params)


@pytest.fixture()
def captured_lps(monkeypatch):
    """Every dispatch LP asked for, built here whether or not its topology's
    memo holds it (a memo hit builds no LP)."""
    probs = []
    solve = cascade._solve_dispatch_lp

    def capture(topo, key, build, derive=None):
        probs.append(build())
        return solve(topo, key, build, derive)

    monkeypatch.setattr(cascade, "_solve_dispatch_lp", capture)
    return probs


@pytest.mark.parametrize("name,outages", SCENARIOS)
def test_target_and_execute_lps_match_reference(name, outages, request, captured_lps):
    case = request.getfixturevalue(name)
    topo, x_prime = after_fast_process(case, outages)
    start = len(captured_lps)   # after base_state's target LP
    tgt = cascade.dispatch_target(case, topo, x_prime)
    cascade.dispatch_execute(case, topo, x_prime, tgt.x_star, 15.0)
    new_target, new_execute = captured_lps[start:]
    assert_same_lp(new_target, *ref_target_lp(case, topo, x_prime))
    if name == "rts96":
        assert new_target.b_in.size == len(ref_live(case, topo))   # one row per live branch
    assert_same_lp(new_execute, *ref_execute_lp(case, topo, x_prime, tgt.x_star, 15.0))


@pytest.mark.parametrize("name,outages", SCENARIOS)
def test_rm_lp_matches_reference_in_stacked_order(name, outages, request):
    case = request.getfixturevalue(name)
    topo, x_pre = after_fast_process(case, outages)
    x_star0 = cascade.dispatch_target(case, topo, x_pre, jacobians=False).x_star
    gamma = -np.concatenate([case.c_load, case.c_gen]) * 1e-2
    r_prime0 = 1000.0
    new = build_rm(case, topo, x_pre, x_star0, gamma, r_prime0, 0.5 * r_prime0)
    ref, n_live = ref_rm_lp(case, topo, x_pre, x_star0, gamma, r_prime0, 0.5 * r_prime0)
    assert n_live > 0
    sol_new, sol_ref = lp.solve_lp(new), lp.solve_lp(ref)
    assert sol_new.optimal and sol_ref.optimal
    assert np.array_equal(sol_new.x, sol_ref.x)
    assert sol_new.in_duals[0] == sol_ref.in_duals[0]
    assert_same_lp(new, ref)


def test_mask_and_flows_match_reference_on_rts96_run(rts96, monkeypatch):
    seen = []
    flow = cascade.dc_power_flow

    def record(case, topo, state):
        seen.append((topo, state))
        return flow(case, topo, state)

    monkeypatch.setattr(cascade, "dc_power_flow", record)
    cfg = AssessmentConfig(attempts=8, seed=3, gradients=False)
    run_assessment(rts96, {22, 23, 24}, cfg)
    assert len({topo.in_service for topo, _ in seen}) > 3
    ref_sens = {}
    for topo, state in seen:
        assert np.array_equal(
            topo.mask, [br.id in topo.in_service for br in rts96.branches]
        )
        if topo.in_service not in ref_sens:
            _, ref_sens[topo.in_service] = ref_topology_data(rts96, topo)
            assert np.array_equal(flow_sensitivity(rts96, topo), ref_sens[topo.in_service])
            island_of = ref_island_of_bus(topo)
            assert np.array_equal(topo.load_island, [island_of[p] for p in rts96.load_bus])
            assert np.array_equal(topo.gen_island, [island_of[p] for p in rts96.gen_bus])
        flows = dc_power_flow(rts96, topo, state)
        assert np.array_equal(flows, ref_sens[topo.in_service] @ state.x)
        # flows through the angles differ from these by roundoff only
        ref = ref_dc_flows(rts96, topo, state)
        assert np.abs(flows - ref).max() <= 1e-12 * np.abs(ref).max()
