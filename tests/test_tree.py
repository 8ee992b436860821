import itertools
import json

import numpy as np
import pytest

from gridrisk import gradient
from gridrisk import tree as mtree
from gridrisk.assess import AssessmentConfig, enumeration_risk, pre_control, run_assessment
from gridrisk.cases import toy6
from gridrisk.network import SystemState, build_topology, parse_case


def chain3_case():
    """Generator feeding two loads over a two-branch chain."""
    doc = {
        "base_mva": 100.0,
        "buses": [{"id": 1}, {"id": 2}, {"id": 3}],
        "branches": [
            {"id": 1, "from": 1, "to": 2, "y": 10.0, "f_max": 200.0},
            {"id": 2, "from": 2, "to": 3, "y": 10.0, "f_max": 80.0},
        ],
        "generators": [
            {"id": 1, "bus": 1, "p": 150.0, "p_min": 0.0, "p_max": 220.0,
             "ramp": 8.0, "cost": 90.0}
        ],
        "loads": [
            {"id": 1, "bus": 2, "p": 90.0, "cost": 10000.0},
            {"id": 2, "bus": 3, "p": 60.0, "cost": 9000.0},
        ],
        "failure_rate": {"lambda_0": 2e-4, "lambda_1": 2e-2, "knee": 0.6},
    }
    return parse_case(json.dumps(doc))


def build_tree(case, depth, outages=(), **kwargs):
    cfg = AssessmentConfig(
        tau_d=15.0, t_max=15.0 * depth, attempts=500, policy="exhaustive", **kwargs
    )
    return run_assessment(case, set(outages), cfg)


class TestExpansion:
    def test_depth_one_child_count(self):
        case = chain3_case()
        a = build_tree(case, depth=1)
        # at most one node per branch event plus the no-outage child
        leaves = [n for n in a.tree.nodes.values() if n.level == 1]
        assert 1 <= len(leaves) <= case.n_branch + 1
        assert all(n.terminal for n in leaves)

    def test_exhaustive_visits_each_leaf_once(self):
        case = chain3_case()
        a = build_tree(case, depth=2)
        nodes = a.tree.nodes
        # <= 3 + 3*3 nodes for two branches, depth 2
        assert len(nodes) - 1 <= 12
        leaves = [n for n in nodes.values() if n.terminal]
        # the number of attempts that expanded something equals the leaf count
        assert len(a.history.attempts) >= len(leaves)
        assert a.tree.root.fully_explored()

    def test_probability_mass_conserved(self):
        case = chain3_case()
        a = build_tree(case, depth=2)
        for node in a.tree.nodes.values():
            if node.child_ids is None:
                continue
            mass = float(node.child_probs.sum())
            assert abs(mass - 1.0) <= 1e-12

    def test_fixed_seed_reproducible_paths(self):
        case = chain3_case()
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=40,
                               policy="probability-sampled", seed=9)
        a = run_assessment(case, set(), cfg)
        b = run_assessment(case, set(), cfg)
        assert sorted(a.tree.nodes.keys()) == sorted(b.tree.nodes.keys())
        assert a.r_prime == b.r_prime

    def test_best_first_explores_risky_child_first(self):
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=3,
                               policy="best-first", seed=0)
        a = run_assessment(case, {3}, cfg)
        assert len(a.tree.nodes) > 1

    @pytest.mark.parametrize("policy", ["exhaustive", "probability-sampled", "best-first"])
    @pytest.mark.parametrize("gradients", [False, True])
    def test_terminal_root_ends_the_search(self, two_bus, policy, gradients):
        # losing the only branch sheds all load, so the root is terminal: one
        # empty attempt is recorded, not one per attempt of the budget
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=200, policy=policy,
                               seed=1, gradients=gradients)
        a = run_assessment(two_bus, {1}, cfg)
        assert a.tree.root.terminal and list(a.tree.nodes) == [()]
        assert a.history.attempts == [1] and a.history.r_prime == [0.0]
        assert len(a.history.gammas) == int(gradients)

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_best_first_near_tie_goes_to_first_child(self, order):
        # scores of about 180 that differ in the last bit: the first child
        # in order wins, whichever of the two is one ulp more likely
        case = chain3_case()
        topo = build_topology(case)
        t = mtree.MarkovTree(case, topo, case.base_state(), tau_d=15.0, depth=2,
                             gradients=False)
        t.avg_leaf_cost = 9876.5
        pr = 0.0182557968369987
        probs = {1: pr, 2: np.nextafter(pr, 1.0)}
        node = t.root
        node.child_ids = [*order, 0]
        node.child_probs = np.array([probs[e] for e in order] + [1e-3])
        assert node.child_probs[0] != node.child_probs[1]
        assert t._pick_best_first(node) == 0


class TestBackwardUpdate:
    def test_single_level_hand_value(self):
        # one child with Pr=0.1 and C=500 -> root subsequent risk 50
        case = chain3_case()
        topo = build_topology(case)
        t = mtree.MarkovTree(case, topo, case.base_state(), tau_d=15.0, depth=1,
                             gradients=False)
        child = mtree.TreeNode(
            label=(1,), level=1, prob=0.1, cost=500.0,
            state=case.base_state(), topo=topo, terminal=True,
        )
        t.root.children[1] = child
        t.nodes[(1,)] = child
        mtree.backward_risk_update(t, [child])
        assert child.c_equiv == 500.0
        assert t.root.subsequent_risk == pytest.approx(50.0, abs=1e-12)

    def test_leaf_equivalent_cost_is_cost(self):
        case = chain3_case()
        a = build_tree(case, depth=2)
        for node in a.tree.nodes.values():
            if node.terminal:
                assert node.c_equiv == node.cost

    def test_c_equiv_at_least_cost(self):
        case = chain3_case()
        a = build_tree(case, depth=2)
        for node in a.tree.nodes.values():
            assert node.c_equiv >= node.cost - 1e-12

    def test_replay_leaves_everything_unchanged(self):
        case = chain3_case()
        a = build_tree(case, depth=2)
        t = a.tree
        snapshot = {
            k: (v.c_equiv, None if v.s_accum is None else v.s_accum.copy())
            for k, v in t.nodes.items()
        }
        # replay the left-most path with a fresh attempt index
        node, path = t.root, []
        while not node.terminal:
            node = node.children[node.child_ids[0]]
            path.append(node)
        mtree.backward_risk_update(t, path)
        gradient.backward_gradient_update(t, path, attempt=99999)
        for k, (c_eq, s) in snapshot.items():
            assert t.nodes[k].c_equiv == c_eq
            if s is not None:
                assert np.array_equal(t.nodes[k].s_accum, s)


class TestRiskEstimate:
    def test_exhaustive_matches_enumeration(self):
        case = chain3_case()
        a = build_tree(case, depth=2)
        oracle = enumeration_risk(case, a.topo, a.x_root, 15.0, 2)
        assert a.r_prime == pytest.approx(oracle, rel=1e-9)
        assert a.risk == a.control_cost + a.r_prime

    def test_zero_rate_case_zero_risk(self):
        doc = json.loads(
            __import__("gridrisk.network", fromlist=["serialize_case"]).serialize_case(
                chain3_case()
            )
        )
        for br in doc["branches"]:
            br.update({"lambda_0": 0.0, "lambda_1": 0.0, "overload_slope": 0.0,
                       "lambda_max": 0.0})
        case = parse_case(json.dumps(doc))
        a = build_tree(case, depth=2)
        assert a.r_prime == pytest.approx(0.0, abs=1e-9)

    def test_monotone_growth_under_enumeration(self):
        case = chain3_case()
        a = build_tree(case, depth=2)
        rp = a.history.r_prime
        assert all(rp[i] <= rp[i + 1] + 1e-12 for i in range(len(rp) - 1))

    def test_empty_budget_empty_history(self):
        with pytest.raises(ValueError, match="config key 'attempts' must be >= 1"):
            AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=0, policy="exhaustive")


class TestDumps:
    def test_tree_csv_roundtrip(self, tmp_path):
        case = chain3_case()
        a = build_tree(case, depth=2)
        path = tmp_path / "tree.csv"
        mtree.dump_tree_csv(a.tree, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        import csv

        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == len(a.tree.nodes)
        root_row = next(r for r in rows if r["label"] == "root")
        assert float(root_row["r_prime"]) == pytest.approx(a.r_prime)


def test_exhaustive_bound_counts_in_service_branches(toy6, monkeypatch):
    cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=5, policy="exhaustive")
    in_service = int(run_assessment(toy6, {1}, cfg).topo.mask.sum())
    bound = (in_service + 1) ** cfg.depth
    assert bound < (toy6.n_branch + 1) ** cfg.depth
    monkeypatch.setattr(mtree, "MAX_EXHAUSTIVE_NODES", bound)
    run_assessment(toy6, {1}, cfg)
    monkeypatch.setattr(mtree, "MAX_EXHAUSTIVE_NODES", bound - 1)
    with pytest.raises(ValueError, match="exceeds"):
        run_assessment(toy6, {1}, cfg)


def test_exhaustive_refuses_huge_label_spaces(rts96):
    cfg = AssessmentConfig(tau_d=15.0, t_max=150.0, attempts=10, policy="exhaustive")
    with pytest.raises(ValueError, match="exceeds"):
        run_assessment(rts96, {22, 23, 24}, cfg)


def uncached_fully_explored(node):
    """`TreeNode.fully_explored` as it was before the flag was cached: a walk
    of the whole subtree on every call."""
    if node.terminal:
        return True
    if node.child_ids is None:
        return False
    for eid in node.child_ids:
        child = node.children.get(eid)
        if child is None or not uncached_fully_explored(child):
            return False
    return True


def tree_rows(a):
    return [(label, n.prob, n.cost, n.c_equiv, n.first_attempt)
            for label, n in a.tree.nodes.items()]


TOY6_CONTINGENCIES = [c for k in (1, 2) for c in itertools.combinations(range(1, 7), k)]


@pytest.mark.parametrize("name, runs", [
    ("toy6", [(set(c), AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=200,
                                         policy="exhaustive", seed=1, gradients=False))
              for c in TOY6_CONTINGENCIES]),
    ("rts96", [({22, 23, 24}, AssessmentConfig(tau_d=15.0, t_max=150.0, attempts=25,
                                               policy="best-first", seed=1,
                                               gradients=False))]),
], ids=["toy6-exhaustive", "rts96-best-first"])
def test_cached_fully_explored_builds_the_same_tree(request, monkeypatch, name, runs):
    case = request.getfixturevalue(name)
    for outages, cfg in runs:
        with monkeypatch.context() as m:
            m.setattr(mtree.TreeNode, "fully_explored", uncached_fully_explored)
            ref = run_assessment(case, outages, cfg)
        got = run_assessment(case, outages, cfg)
        assert tree_rows(got) == tree_rows(ref)
        assert got.history.r_prime == ref.history.r_prime
        for node in got.tree.nodes.values():
            assert node.fully_explored() == uncached_fully_explored(node)
        if cfg.policy == "exhaustive":
            root = got.tree.root
            assert root.fully_explored()
            root.children.clear()
            assert root.fully_explored()   # cached, not walked again


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy 'x'"):
        AssessmentConfig(policy="x")


@pytest.mark.parametrize("outages", [{3}, {2, 5}, {1, 4}])
def test_precomputed_pre_control_builds_the_same_tree(outages):
    """A run handed `pre_control` builds the tree, node for node, that a run
    computing it itself builds, also when the trace serves a second target."""
    cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive",
                           seed=1)
    ref_case, case = toy6(), toy6()
    fast = pre_control(case, outages)
    first = run_assessment(case, outages, cfg, fast=fast)
    ref = run_assessment(ref_case, outages, cfg)
    target = SystemState.from_x(first.x_target.x + 1.0, case.n_load)
    again = run_assessment(case, outages, cfg, target, fast)
    ref_again = run_assessment(ref_case, outages, cfg, target)
    for got, want in ((first, ref), (again, ref_again)):
        assert tree_rows(got) == tree_rows(want)
        assert got.history.r_prime == want.history.r_prime
        assert got.pre_control_cost == want.pre_control_cost
        np.testing.assert_array_equal(got.x_pre.x, want.x_pre.x)
        np.testing.assert_array_equal(got.gamma, want.gamma)
