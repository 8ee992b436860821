"""Invariants checked on generated cases (`test_network.small_cases`): an
exhaustive depth-2 R' equals the enumeration oracle (acceptance 01), each
opened node's children distribution sums to 1 (acceptance 02), best-first
search run to full exploration gives the exhaustive R' and root gradient
(acceptance 06's order independence), every non-emergency execution keeps
island balance, the ramp window and the generator and load bounds
(acceptance 05), gradient runs on a warm dispatch-LP memo match solving
every LP node for node, and the target, execution and RM LPs equal their
row-by-row reference copies bit for bit."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from gridrisk import cascade
from gridrisk.assess import (
    AssessmentConfig,
    InfeasibleBaseCase,
    enumeration_risk,
    pre_control,
    run_assessment,
)
from gridrisk.management import build_rm
from gridrisk.network import apply_outage, build_topology, parse_case
from test_acceptance import conservation_violations
from test_dispatch_rows import assert_same_lp, ref_execute_lp, ref_rm_lp, ref_target_lp
from test_lp_memo import always_solve, assert_same_nodes
from test_network import small_cases

CONFIG = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive", seed=1)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_risk_and_memo_invariants(data):
    case = data.draw(small_cases())
    outages = {data.draw(st.sampled_from(case.branch_ids.tolist()))}
    try:
        fast = pre_control(case, outages)
    except InfeasibleBaseCase:
        assume(False)

    def assessment(config):
        return run_assessment(case, outages, config, fast=fast)

    off = assessment(replace(CONFIG, gradients=False))
    oracle = enumeration_risk(case, off.topo, off.x_root, CONFIG.tau_d, 2)
    assert abs(off.r_prime - oracle) <= 1e-9 * max(abs(oracle), 1e-12)
    for node in off.tree.nodes.values():
        if node.child_probs is not None:
            assert abs(node.child_probs.sum() - 1.0) <= 1e-12, node.label
    _, violations = conservation_violations(case, off, CONFIG.tau_d)
    assert not violations, violations
    # the first gradient run meets LPs the memo holds without jacobians, the
    # second finds every jacobian held
    runs = [assessment(CONFIG), assessment(CONFIG)]
    best_first = assessment(replace(CONFIG, policy="best-first"))
    assert best_first.tree.nodes.keys() == runs[0].tree.nodes.keys()
    assert abs(best_first.r_prime - runs[0].r_prime) <= 1e-9 * abs(runs[0].r_prime)
    s_accum = runs[0].tree.root.s_accum
    scale = max(1.0, np.abs(s_accum).max())
    assert np.abs(best_first.tree.root.s_accum - s_accum).max() <= 1e-12 * scale
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cascade, "_solve_dispatch_lp", always_solve)
        want = assessment(CONFIG)
    for got in runs:
        assert_same_nodes(got, want)


@st.composite
def cases_with_outage(draw):
    case = draw(small_cases())
    outages = st.sets(st.sampled_from(case.branch_ids.tolist()), min_size=1, max_size=2)
    return case, draw(outages)


# A generator feeding loads at buses 2 and 3 along a chain: losing branch 2
# leaves bus 3 an island with load and no generator, which gets no balance row.
CHAIN3 = parse_case(json.dumps({
    "base_mva": 100.0, "buses": [{"id": 1}, {"id": 2}, {"id": 3}],
    "branches": [{"id": 1, "from": 1, "to": 2, "y": 10.0, "f_max": 200.0},
                 {"id": 2, "from": 2, "to": 3, "y": 10.0, "f_max": 80.0}],
    "generators": [{"id": 1, "bus": 1, "p": 150.0, "p_min": 0.0, "p_max": 220.0,
                    "ramp": 8.0, "cost": 90.0}],
    "loads": [{"id": 1, "bus": 2, "p": 90.0, "cost": 10000.0},
              {"id": 2, "bus": 3, "p": 60.0, "cost": 9000.0}],
}))


@settings(max_examples=25, deadline=None)
@given(cases_with_outage())
@example((CHAIN3, {2}))
def test_dispatch_lps_match_reference(case_and_outage):
    """After one or two drawn outages and their fast process, the target,
    execution and RM LPs equal `test_dispatch_rows`' reference copies,
    parameters included; the loads of an island without a generator appear
    in no balance row."""
    case, outages = case_and_outage
    topo = apply_outage(case, build_topology(case), outages)
    fast = cascade.short_timescale_process(
        case, topo, case.base_state(), initial_trips=tuple(outages), jacobians=False
    )
    topo, x_prime = fast.final_topology, fast.final_state
    dead_islands = [k for k, on in enumerate(topo.energized) if not on]
    dead_loads = np.isin(topo.load_island, dead_islands)
    event("a load without a generator" if dead_loads.any() else "every load has a generator")
    built = []
    solve = cascade._solve_dispatch_lp

    def capture(topo, key, build, derive=None):
        built.append(build())
        return solve(topo, key, build, derive)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cascade, "_solve_dispatch_lp", capture)
        tgt = cascade.dispatch_target(case, topo, x_prime)
        cascade.dispatch_execute(case, topo, x_prime, tgt.x_star, 15.0)
    target, execute = built
    assert_same_lp(target, *ref_target_lp(case, topo, x_prime))
    assert_same_lp(execute, *ref_execute_lp(case, topo, x_prime, tgt.x_star, 15.0))
    assert target.b_eq.size == len(topo.islands) - len(dead_islands)
    assert not target.a_eq[:, : case.n_load][:, dead_loads].any()
    gamma = -np.concatenate([case.c_load, case.c_gen]) * 1e-2
    rm = build_rm(case, topo, x_prime, tgt.x_star, gamma, 1000.0, 500.0)
    assert_same_lp(rm, ref_rm_lp(case, topo, x_prime, tgt.x_star, gamma, 1000.0, 500.0)[0])
