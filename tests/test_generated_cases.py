"""Invariants checked on generated cases (`test_network.small_cases`): an
exhaustive depth-2 R' equals the enumeration oracle (acceptance 01), each
opened node's children distribution sums to 1 (acceptance 02), best-first
search run to full exploration gives the exhaustive R' and root gradient
(acceptance 06's order independence), and gradient runs on a warm
dispatch-LP memo match solving every LP node for node."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridrisk import cascade
from gridrisk.assess import (
    AssessmentConfig,
    InfeasibleBaseCase,
    enumeration_risk,
    pre_control,
    run_assessment,
)
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
