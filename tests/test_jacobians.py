"""Gradients-off runs compute no derivatives and reach the same tree."""

from dataclasses import replace

import numpy as np
import pytest

from gridrisk import cases, lp
from gridrisk.assess import AssessmentConfig, base_state, enumeration_risk, run_assessment
from gridrisk.cascade import simulate_level
from gridrisk.network import SystemState, apply_outage, build_topology

# (part of the level record, derivative field) pairs
JACOBIAN_FIELDS = (("fast", "jac"), ("fast", "dcost_dx"), ("target", "jac"),
                   ("execute", "jac_prime"), ("execute", "jac_star"),
                   ("execute", "dcost_dxprime"), ("execute", "dcost_dxstar"))


def _no_jacobians(rec) -> bool:
    return all(getattr(getattr(rec, part), f) is None for part, f in JACOBIAN_FIELDS)


@pytest.fixture()
def sensitivity_calls(monkeypatch):
    calls = [0]
    inner = lp.solution_sensitivity

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(lp, "solution_sensitivity", counted)
    return calls


def _assert_same_tree(off, on):
    assert off.tree.nodes.keys() == on.tree.nodes.keys()
    for label, node in on.tree.nodes.items():
        other = off.tree.nodes[label]
        assert (other.prob, other.cost, other.c_equiv) == (node.prob, node.cost, node.c_equiv)
        if node.record is not None:
            assert other.record.signature == node.record.signature
            assert _no_jacobians(other.record)
    assert off.r_prime == on.r_prime
    assert off.control_cost == on.control_cost


@pytest.mark.parametrize("name, outages, cfg", [
    ("toy6", {3}, AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400,
                                   policy="exhaustive", seed=1)),
    ("rts96", {22, 23, 24}, AssessmentConfig(tau_d=15.0, t_max=45.0, attempts=12,
                                             policy="probability-sampled", seed=5)),
])
def test_gradients_off_matches_on_node_for_node(request, name, outages, cfg):
    case = request.getfixturevalue(name)
    on = run_assessment(case, outages, cfg)
    off = run_assessment(case, outages, replace(cfg, gradients=False))
    assert len(on.tree.nodes) > 5
    _assert_same_tree(off, on)
    assert off.gamma is None and on.gamma is not None


def test_gradients_off_solves_no_sensitivity(sensitivity_calls):
    # a fresh case: the memo keeps the jacobians of earlier gradient runs on a
    # shared one, and the last step needs LPs not yet differentiated
    toy6 = cases.toy6()
    cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive",
                           seed=1, gradients=False)
    base_state(toy6)
    a = run_assessment(toy6, {3}, cfg)
    enumeration_risk(toy6, a.topo, a.x_root, 15.0, 2)
    assert sensitivity_calls[0] == 0
    run_assessment(toy6, {3}, replace(cfg, gradients=True))
    assert sensitivity_calls[0] > 0  # the counter sees the gradients-on solves


def test_level_without_jacobians_matches_level_with(toy6):
    topo = build_topology(toy6)
    t2 = apply_outage(toy6, topo, {3})
    state = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
    for event_id in (0, 4, 5):
        on = simulate_level(toy6, t2, state, event_id, 15.0)
        off = simulate_level(toy6, t2, state, event_id, 15.0, jacobians=False)
        np.testing.assert_array_equal(off.x_next.x, on.x_next.x)
        np.testing.assert_array_equal(off.target.x_star.x, on.target.x_star.x)
        assert (off.fast.cost, off.execute.cost) == (on.fast.cost, on.execute.cost)
        assert off.signature == on.signature
        assert (off.fast.n_events, off.fast.truncated, off.target.fallback,
                off.execute.emergency) == (on.fast.n_events, on.fast.truncated,
                                           on.target.fallback, on.execute.emergency)
        assert _no_jacobians(off)


@pytest.mark.parametrize("gradients", [True, False])
def test_signatures_computed_only_on_demand(toy6, monkeypatch, gradients):
    calls = [0]
    inner = lp.LpSolution.active_signature

    def counted(sol):
        calls[0] += 1
        return inner(sol)

    monkeypatch.setattr(lp.LpSolution, "active_signature", counted)
    cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive",
                           seed=1, gradients=gradients)
    a = run_assessment(toy6, {3}, cfg)
    assert calls[0] == 0
    sig = a.signature()
    # two LPs per recorded node, and the root execution LP under the root label
    assert calls[0] == 2 * (len(sig) - 1) + 1 > 1
    rebuilt = {
        label: (tuple(sorted(node.record.topo.in_service)),
                inner(node.record.target.sol), inner(node.record.execute.sol))
        for label, node in a.tree.nodes.items() if node.record is not None
    }
    rebuilt[()] = inner(a.execute.sol)
    assert sig == rebuilt
