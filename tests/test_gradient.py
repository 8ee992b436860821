from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from gridrisk import gradient
from gridrisk import tree as mtree
from gridrisk.assess import AssessmentConfig, pre_control, run_assessment, validate_gradient
from gridrisk.cases import toy6
from gridrisk.network import SystemState, build_topology

# acceptance criterion 3's interior control target on toy6 {3}
TOY_INTERIOR = SystemState([110.0, 85.0, 55.0], [5.0, 160.0, 10.0])


class TestCompression:
    def test_zero_threshold_lossless(self):
        m = np.array([[1e-6, 0.2], [0.5, 1e-9]])
        c = gradient.compress(m, 0.0)
        np.testing.assert_array_equal(gradient.to_dense(c), m)

    def test_threshold_drops_small_entries(self):
        m = np.array([[1e-6, 0.2], [0.5, 1e-9]])
        c = gradient.compress(m, 1e-5)
        assert c.nnz == 2
        dense = gradient.to_dense(c)
        assert dense[0, 1] == 0.2 and dense[1, 0] == 0.5
        assert dense[0, 0] == 0.0 and dense[1, 1] == 0.0

    def test_reconstruction_differs_only_below_threshold(self):
        rng = np.random.default_rng(3)
        m = rng.normal(scale=1e-4, size=(30, 30))
        thr = 1e-4
        diff = gradient.to_dense(gradient.compress(m, thr)) - m
        assert np.abs(diff).max() < thr
        kept = np.abs(m) >= thr
        assert np.all(diff[kept] == 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            gradient.compress(np.eye(2), -1.0)

    def test_nan_threshold_rejected(self):
        # NaN used to pass the sign check and act as the lossless threshold 0
        with pytest.raises(ValueError):
            gradient.compress(np.eye(2), np.nan)

    @pytest.mark.parametrize("threshold", [0.0, 1e-5])
    def test_matches_csr_storage(self, threshold):
        # the stored entries and the dense read-back, -0.0 included (it is not
        # stored and reads back as +0.0), are CSR's
        rng = np.random.default_rng(11)
        for _ in range(50):
            shape = tuple(rng.integers(1, 15, size=2))
            m = rng.normal(scale=1e-5, size=shape)
            m[rng.random(shape) < 0.2] = 0.0
            m[rng.random(shape) < 0.2] = -0.0
            m[0, 0] = -0.0
            c = gradient.compress(m, threshold)
            ref = csr_matrix(np.where(np.abs(m) >= threshold, m, 0.0) if threshold else m)
            assert c.nnz == ref.nnz
            assert gradient.to_dense(c).tobytes() == ref.toarray().tobytes()


class TestConvergenceIndices:
    def test_exact_match_gives_zero(self):
        g = np.array([1.0, 2.0])
        d, dd = gradient.convergence_indices([g, g], g)
        assert d[1] is None or d[1] == 0.0  # base distance is zero -> undefined
        assert dd[0] == 0.0

    def test_direction_scale_invariance(self):
        ref = np.array([0.0, 1.0])
        g = np.array([3.0, 4.0])
        _, dd1 = gradient.convergence_indices([g], ref)
        _, dd2 = gradient.convergence_indices([7.5 * g], ref)
        assert dd1[0] == dd2[0]

    def test_hand_computed_delta(self):
        ref = np.array([0.0, 1.0])
        g1 = np.array([1.0, 0.0])
        g2 = np.array([0.5, 0.5])
        d, _ = gradient.convergence_indices([g1, g2], ref)
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(0.5)

    def test_zero_denominators_marked(self):
        zero = np.zeros(2)
        d, dd = gradient.convergence_indices([zero], zero)
        assert d[0] is None
        assert dd[0] is None


class TestForwardChain:
    def test_level_zero_identity_and_composition(self):
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive")
        a = run_assessment(case, {3}, cfg)
        # pick a depth-2 path and recompose the chain independently
        label = next(k for k in a.tree.nodes if len(k) == 2 and k[1] != 0)
        x1 = a.tree.nodes[label[:1]]
        x2 = a.tree.nodes[label]
        x_parent = np.eye(case.n_x)
        next_rows, cost_rows = [], []
        for node in (x1, x2):
            _, _, x_parent, dcost = gradient.chain_step(node.record, x_parent)
            next_rows.append(x_parent)
            cost_rows.append(dcost)
        np.testing.assert_allclose(next_rows[0], gradient.to_dense(x1.chain_x))
        np.testing.assert_allclose(next_rows[1], gradient.to_dense(x2.chain_x))
        np.testing.assert_allclose(cost_rows[1], x2.dcost_dx0)

    def test_dimension_mismatch_rejected(self):
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=15.0, attempts=10, policy="exhaustive")
        a = run_assessment(case, {3}, cfg)
        rec = next(n.record for n in a.tree.nodes.values() if n.record is not None)
        with pytest.raises(ValueError):
            gradient.chain_step(rec, np.eye(2))

    def test_record_without_jacobians_rejected(self):
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=15.0, attempts=10, policy="exhaustive",
                               gradients=False)
        a = run_assessment(case, {3}, cfg)
        rec = next(n.record for n in a.tree.nodes.values() if n.record is not None)
        with pytest.raises(ValueError, match="without jacobians"):
            gradient.chain_step(rec, np.eye(case.n_x))


class TestBackwardGradient:
    def _stub_tree(self, n_x=3):
        case = toy6()
        topo = build_topology(case)
        t = mtree.MarkovTree(case, topo, case.base_state(), tau_d=15.0, depth=2)
        return t

    def test_single_level_product_rule(self):
        t = self._stub_tree()
        n = t.case.n_x
        dcost = np.arange(1.0, n + 1.0)
        dprob = np.linspace(0.5, 1.0, n)
        child = mtree.TreeNode(
            label=(1,), level=1, prob=0.2, cost=300.0,
            state=t.root.state, topo=t.root.topo, terminal=True, first_attempt=1,
        )
        child.dcost_dx0 = dcost
        child.dprob_dx0 = dprob
        child.s_accum = np.zeros(n)
        t.root.children[1] = child
        t.nodes[(1,)] = child
        s0 = gradient.backward_gradient_update(t, [child], attempt=1)
        np.testing.assert_allclose(s0, 0.2 * dcost + 300.0 * dprob)
        np.testing.assert_allclose(t.root.s_accum, s0)

    def test_revisit_adds_nothing(self):
        t = self._stub_tree()
        n = t.case.n_x
        child = mtree.TreeNode(
            label=(1,), level=1, prob=0.2, cost=300.0,
            state=t.root.state, topo=t.root.topo, terminal=True, first_attempt=1,
        )
        child.dcost_dx0 = np.ones(n)
        child.dprob_dx0 = np.ones(n)
        child.s_accum = np.zeros(n)
        t.root.children[1] = child
        t.nodes[(1,)] = child
        gradient.backward_gradient_update(t, [child], attempt=1)
        before = t.root.s_accum.copy()
        s0 = gradient.backward_gradient_update(t, [child], attempt=2)
        np.testing.assert_array_equal(s0, np.zeros(n))
        np.testing.assert_array_equal(t.root.s_accum, before)

    def test_order_independence_exhaustive(self):
        # best-first run to full exploration visits the same tree in another order
        case = toy6()
        base = dict(tau_d=15.0, t_max=30.0, attempts=400, seed=1)
        a = run_assessment(case, {3}, AssessmentConfig(**base, policy="exhaustive"))
        b = run_assessment(case, {3}, AssessmentConfig(**base, policy="best-first"))
        assert a.tree.nodes.keys() == b.tree.nodes.keys()
        visits = [{k: n.first_attempt for k, n in t.tree.nodes.items()} for t in (a, b)]
        assert visits[0] != visits[1]
        scale = max(1.0, np.abs(a.tree.root.s_accum).max())
        assert np.abs(a.tree.root.s_accum - b.tree.root.s_accum).max() <= 1e-12 * scale


class TestControlGradient:
    def test_identity_execution(self):
        s0 = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(gradient.control_gradient(s0, np.eye(3)), s0)

    def test_saturated_column_zeroes_entry(self):
        s0 = np.array([1.0, -2.0, 3.0])
        exec_sens = np.eye(3)
        exec_sens[:, 2] = 0.0  # ramp-saturated control
        g = gradient.control_gradient(s0, exec_sens)
        assert g[2] == 0.0

    def test_gradient_oracle_on_toy_case(self):
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400,
                               policy="exhaustive", seed=1)
        val = validate_gradient(case, {3}, cfg, control_target=TOY_INTERIOR, step=0.25)
        assert val.passed
        assert val.unflagged_fraction >= 0.8
        assert val.checked >= 3

    def test_load_clip_at_conventional_target_is_flagged(self):
        # the conventional target of toy6 {1} serves every load, so P*_d sits
        # at the execution clip P*_d = P'_d: raising it moves nothing while
        # lowering it moves the load, and central differences read half the
        # frozen-basis gradient
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400,
                               policy="exhaustive", seed=1)
        val = validate_gradient(case, {1}, cfg, step=0.25)
        loads = slice(0, case.n_load)
        assert np.all(val.flagged[loads])
        assert np.all(np.abs(val.gamma[loads]) > 1.0)
        assert not np.any(val.rel_err[~val.flagged] > 0.05)
        # nothing is left to check, and an empty check does not pass
        assert val.checked == 0 and not val.passed

    @pytest.mark.parametrize("policy, attempts", [
        ("probability-sampled", 10), ("probability-sampled", 40), ("best-first", 5),
        ("best-first", 15),
    ])
    def test_gradient_oracle_at_partial_budgets(self, policy, attempts):
        # a partial tree: each side's search must explore the center's labels
        # or the component is flagged, so no exhaustive budget is needed
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=attempts, policy=policy,
                               seed=17)
        val = validate_gradient(toy6(), {3}, cfg, control_target=TOY_INTERIOR, step=0.25)
        assert val.passed and val.checked >= 3

    def test_gradients_off_config_validates_the_same(self):
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400,
                               policy="exhaustive", seed=1)
        on = validate_gradient(case, {3}, cfg, control_target=TOY_INTERIOR)
        off = validate_gradient(case, {3}, replace(cfg, gradients=False),
                                control_target=TOY_INTERIOR)
        for name in ("gamma", "fd", "rel_err", "flagged"):
            np.testing.assert_array_equal(getattr(off, name), getattr(on, name))
        assert off.passed and off.checked == on.checked

    def test_root_execution_lp_alone_flags_a_generator(self):
        # at toy6 {3}'s conventional target x* = x_pre, so every generator's
        # split row in the root execution LP sits at u = v = 0: moving gen1's
        # target changes that LP's active set and no tree node's signature
        case = toy6()
        cfg = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=400,
                               policy="exhaustive", seed=1, gradients=False)
        fast = pre_control(case, {3})
        center = run_assessment(case, {3}, cfg, fast=fast)
        sig0 = center.signature()
        root0 = sig0.pop(())
        i = case.state_names().index("gen1@bus1")
        root_moved = False
        for sign in (1.0, -1.0):
            x = center.x_target.x.copy()
            x[i] += sign * 0.25
            a = run_assessment(case, {3}, cfg, SystemState.from_x(x, case.n_load), fast)
            sig = a.signature()
            root_moved |= sig.pop(()) != root0
            assert sig == sig0
        assert root_moved
        assert validate_gradient(case, {3}, cfg, step=0.25).flagged[i]

    @pytest.mark.parametrize("step", [0.0, -0.25, float("nan"), float("inf")])
    def test_step_checked_before_any_assessment(self, step):
        # no case: the check must come before anything reads it
        cfg = AssessmentConfig(t_max=30.0, policy="exhaustive")
        with pytest.raises(ValueError, match="config key 'fd_step' must be finite and > 0"):
            validate_gradient(None, {3}, cfg, step=step)


def test_compression_error_bound_on_control_gradient():
    # threshold-compressed chains move the projected gradient by no more than
    # the documented bound and keep its direction
    from gridrisk.cases import ring120

    case = ring120()
    base = dict(tau_d=15.0, t_max=45.0, attempts=40,
                policy="probability-sampled", seed=5)
    dense = run_assessment(case, {1}, AssessmentConfig(**base, threshold=None))
    comp = run_assessment(case, {1}, AssessmentConfig(**base, threshold=1e-5))
    g_d, g_c = dense.gamma, comp.gamma
    norm = np.linalg.norm(g_d)
    assert norm > 0
    bound = 1e-5 * comp.tree.dense_entries
    assert np.linalg.norm(g_c - g_d) <= bound
    _, dd = gradient.convergence_indices([g_c], g_d)
    assert dd[0] <= 1e-2
