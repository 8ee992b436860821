import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrisk import cascade, cases
from gridrisk.assess import enumeration_risk
from gridrisk.network import parse_case, serialize_case
from gridrisk.cascade import (
    InternalError,
    _assert_balanced,
    dispatch_execute,
    dispatch_target,
    failure_rates,
    level_probabilities,
    probability_jacobian,
    probability_sensitivity,
    short_timescale_process,
    simulate_level,
)
from gridrisk.network import SystemState, apply_outage, build_topology, dc_power_flow


def _with_branch_limit(case, branch_id, f_max):
    doc = json.loads(serialize_case(case))
    for br in doc["branches"]:
        if br["id"] == branch_id:
            br["f_max"] = f_max
    return parse_case(json.dumps(doc))


class TestFailureRates:
    def test_below_knee_flat(self, two_bus):
        topo = build_topology(two_bus)
        lam, dlam = failure_rates(two_bus, topo, np.array([0.0]))
        assert lam[0] == pytest.approx(1e-4)
        assert dlam[0] == 0.0

    def test_at_rating(self, two_bus):
        topo = build_topology(two_bus)
        lam, _ = failure_rates(two_bus, topo, np.array([100.0]))
        assert lam[0] == pytest.approx(1e-2)

    def test_mid_segment_value(self):
        # knee 0.6, lam0 1e-4, lam1 1e-2, loading 0.8
        case = cases.two_bus()
        topo = build_topology(case)
        lam, dlam = failure_rates(case, topo, np.array([80.0]))
        assert lam[0] == pytest.approx(1e-4 + 0.5 * (1e-2 - 1e-4), rel=1e-12)
        assert lam[0] == pytest.approx(5.05e-3, rel=1e-12)
        slope = (1e-2 - 1e-4) / 0.4
        assert dlam[0] == pytest.approx(slope / 100.0, rel=1e-12)

    def test_out_of_service_zero(self, two_bus):
        topo = build_topology(two_bus)
        t2 = apply_outage(two_bus, topo, {1})
        lam, dlam = failure_rates(two_bus, t2, np.array([0.0]))
        assert lam[0] == 0.0 and dlam[0] == 0.0

    def test_cap_applies(self, two_bus):
        topo = build_topology(two_bus)
        lam, dlam = failure_rates(two_bus, topo, np.array([3000.0]))
        assert lam[0] == pytest.approx(two_bus.lam_max[0])
        assert dlam[0] == 0.0


class TestLevelProbabilities:
    def test_all_zero_rates(self):
        pr, pr_no = level_probabilities(np.zeros(4), 1.0)
        assert np.all(pr == 0.0)
        assert pr_no == 1.0

    def test_single_element(self):
        pr, pr_no = level_probabilities(np.array([0.4]), 1.0)
        assert pr[0] == pytest.approx(1.0 - np.exp(-0.4), rel=1e-12)
        assert pr[0] == pytest.approx(0.32968, abs=5e-6)

    def test_two_elements(self):
        pr, pr_no = level_probabilities(np.array([0.1, 0.3]), 1.0)
        assert pr[0] == pytest.approx(0.08242, abs=5e-6)
        assert pr[1] == pytest.approx(0.24726, abs=5e-6)
        assert pr_no == pytest.approx(0.67032, abs=5e-6)
        assert pr.sum() + pr_no == pytest.approx(1.0, abs=1e-15)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            level_probabilities(np.array([-0.1]), 1.0)

    @given(
        lam=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12),
        tau=st.floats(0.1, 60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization_property(self, lam, tau):
        pr, pr_no = level_probabilities(np.array(lam), tau)
        assert abs(pr.sum() + pr_no - 1.0) <= 1e-12

    def test_jacobian_matches_finite_differences(self):
        lam = np.array([0.1, 0.3])
        tau = 1.0
        jac = probability_jacobian(lam, tau)
        h = 1e-7
        for j in range(2):
            dl = np.zeros(2)
            dl[j] = h
            up = np.append(*level_probabilities(lam + dl, tau))
            dn = np.append(*level_probabilities(lam - dl, tau))
            fd = (up - dn) / (2 * h)
            np.testing.assert_allclose(jac[:, j], fd, atol=1e-8)

    def test_jacobian_tiny_rates_series(self):
        lam = np.array([1e-12, 2e-12])
        jac = probability_jacobian(lam, 1.0)
        assert jac[0, 0] == pytest.approx(1.0, rel=1e-6)  # d Pr_i/d lam_i -> tau


def sensitivity_at(case, topo, state, tau_d):
    """`probability_sensitivity` at `state`, from the rates its flows give."""
    rates = failure_rates(case, topo, dc_power_flow(case, topo, state))
    return probability_sensitivity(case, topo, *rates, tau_d)


class TestProbabilitySensitivity:
    def test_zero_below_knee(self, two_bus):
        topo = build_topology(two_bus)
        sens = sensitivity_at(two_bus, topo, SystemState([20.0], [20.0]), 15.0)
        assert np.all(sens == 0.0)

    def test_single_branch_chain_matches_fd(self, two_bus):
        topo = build_topology(two_bus)
        state = SystemState([80.0], [80.0])  # loading 0.8, active slope
        sens = sensitivity_at(two_bus, topo, state, 15.0)
        h = 0.1

        def probs(delta):
            st_ = SystemState(state.p_load + delta[:1], state.p_gen + delta[1:])
            flows = dc_power_flow(two_bus, topo, st_)
            lam, _ = failure_rates(two_bus, topo, flows)
            pr, pr_no = level_probabilities(lam, 15.0)
            return np.append(pr, pr_no)

        for k in range(2):
            d = np.zeros(2)
            d[k] = h
            fd = (probs(d) - probs(-d)) / (2 * h)
            np.testing.assert_allclose(sens[:, k], fd, atol=1e-7)


class TestShortTimescale:
    def test_no_trip_identity(self, two_bus):
        topo = build_topology(two_bus)
        state = SystemState([50.0], [50.0])
        trace = short_timescale_process(two_bus, topo, state)
        assert trace.n_events == 0
        assert trace.cost == 0.0
        np.testing.assert_array_equal(trace.jac.toarray(), np.eye(2))
        np.testing.assert_array_equal(trace.final_state.x, state.x)

    def test_islanding_sheds_whole_load(self, two_bus):
        topo = build_topology(two_bus)
        t2 = apply_outage(two_bus, topo, {1})
        state = SystemState([50.0], [50.0])
        trace = short_timescale_process(two_bus, t2, state, initial_trips=(1,))
        assert trace.n_events == 1
        assert trace.cost == pytest.approx(50.0 * 10000.0)
        assert trace.final_state.p_load[0] == 0.0
        assert trace.final_state.p_gen[0] == 0.0

    def test_induced_trip_two_events(self):
        # overload the loop path beyond trip_factor by removing the direct line
        case = _with_branch_limit(cases.triangle(), 3, 70.0)
        # loop path carries 100 MW once branch 1 is lost
        topo = build_topology(case)
        t2 = apply_outage(case, topo, {1})
        state = SystemState([100.0], [100.0])
        trace = short_timescale_process(case, t2, state, initial_trips=(1,))
        assert trace.n_events == 2
        assert trace.events[0].tripped == (1,)
        assert 3 in trace.events[1].tripped
        # total cost equals the sum over events
        assert trace.cost == pytest.approx(sum(e.cost for e in trace.events))
        assert trace.cost == pytest.approx(100.0 * 10000.0)

    def test_jacobian_matches_fd_on_islanding(self, toy6):
        # branch 5 outage islands buses 5-6 with load and the small unit
        topo = build_topology(toy6)
        t2 = apply_outage(toy6, topo, {5})
        state = SystemState([120.0, 90.0, 60.0], [100.0, 160.0, 10.0])
        trace = short_timescale_process(toy6, t2, state, initial_trips=(5,))
        jac = trace.jac.toarray()
        h = 0.1
        for k in range(toy6.n_x):
            d = np.zeros(toy6.n_x)
            d[k] = h
            up = short_timescale_process(
                toy6, t2, SystemState.from_x(state.x + d, 3), initial_trips=(5,)
            )
            dn = short_timescale_process(
                toy6, t2, SystemState.from_x(state.x - d, 3), initial_trips=(5,)
            )
            fd = (up.final_state.x - dn.final_state.x) / (2 * h)
            np.testing.assert_allclose(jac[:, k], fd, atol=1e-4)
            fd_cost = (up.cost - dn.cost) / (2 * h)
            assert trace.dcost_dx[k] == pytest.approx(fd_cost, abs=1e-4 * max(1, abs(fd_cost)))

    def test_termination_strictly_shrinks(self, toy6):
        topo = build_topology(toy6)
        t2 = apply_outage(toy6, topo, {3})
        trace = short_timescale_process(
            toy6, t2, SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0]),
            initial_trips=(3,),
        )
        assert not trace.truncated
        sizes = [len(t2.in_service)]
        sizes.append(len(trace.final_topology.in_service))
        assert sizes[-1] <= sizes[0]


class TestDispatchTarget:
    def test_feasible_state_serves_all(self, toy6):
        topo = build_topology(toy6)
        state = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        tgt = dispatch_target(toy6, topo, state)
        assert not tgt.fallback
        np.testing.assert_allclose(tgt.x_star.p_load, state.p_load, atol=1e-8)

    def test_corridor_clamped_to_limit(self):
        # direct line limited to 60 MW: at most 90 MW of load is servable
        # (2/3 of the injection takes the direct path)
        case = _with_branch_limit(cases.triangle(), 1, 60.0)
        topo = build_topology(case)
        tgt = dispatch_target(case, topo, SystemState([100.0], [100.0]))
        assert tgt.x_star.p_load[0] == pytest.approx(90.0, abs=1e-7)
        flows = dc_power_flow(case, topo, tgt.x_star)
        assert abs(flows[0]) == pytest.approx(60.0, abs=1e-7)

    def test_deenergized_island_target_zero(self, two_bus):
        topo = build_topology(two_bus)
        t2 = apply_outage(two_bus, topo, {1})
        tgt = dispatch_target(two_bus, t2, SystemState([0.0], [50.0]))
        assert tgt.x_star.p_load[0] == 0.0


class TestDispatchExecute:
    def test_unbalanced_island_raises(self, two_bus):
        topo = build_topology(two_bus)
        _assert_balanced(two_bus, topo, SystemState([50.0], [50.0]))
        split = apply_outage(two_bus, topo, {1})   # gen on island 0, load on 1
        _assert_balanced(two_bus, split, SystemState([0.0], [0.0]))
        with pytest.raises(InternalError, match=r"island 1 unbalanced .*\|0\.0+ - 50\.0+\|"):
            _assert_balanced(two_bus, split, SystemState([50.0], [0.0]))

    def test_target_reached_within_ramp(self, toy6):
        topo = build_topology(toy6)
        xp = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        xs = SystemState([115.0, 90.0, 60.0], [95.0, 160.0, 10.0])
        exe = dispatch_execute(toy6, topo, xp, xs, 15.0)
        np.testing.assert_allclose(exe.state.x, xs.x, atol=1e-7)
        expected = 5 * 10000.0 + 5 * 80.0 + 10 * 120.0 + 10 * 150.0
        assert exe.cost == pytest.approx(expected, rel=1e-9)

    def test_ramp_limits_movement(self, toy6):
        topo = build_topology(toy6)
        xp = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        # want a 100 MW swap, window is 6 MW/min * 5 min = 30 MW
        xs = SystemState([120.0, 90.0, 60.0], [0.0, 270.0, 0.0])
        exe = dispatch_execute(toy6, topo, xp, xs, 5.0)
        assert exe.state.p_gen[0] == pytest.approx(70.0, abs=1e-7)
        assert exe.state.p_gen[1] == pytest.approx(200.0, abs=1e-7)

    def test_identity_when_target_is_current(self, toy6):
        topo = build_topology(toy6)
        xp = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        exe = dispatch_execute(toy6, topo, xp, xp, 15.0)
        np.testing.assert_allclose(exe.state.x, xp.x, atol=1e-9)
        assert exe.cost == pytest.approx(0.0, abs=1e-9)

    def test_jacobians_own_their_memory(self, toy6):
        # a view would keep the LP's whole sensitivity matrix alive in each level
        topo = build_topology(toy6)
        xp = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        xs = SystemState([115.0, 90.0, 60.0], [95.0, 160.0, 10.0])
        exe = dispatch_execute(toy6, topo, xp, xs, 15.0)
        assert not exe.emergency
        assert exe.jac_star.shape == exe.jac_prime.shape == (toy6.n_x, toy6.n_x)
        for jac in (exe.jac_star, exe.jac_prime):
            assert all(a.base is None for a in (jac.indptr, jac.indices, jac.data))

    @pytest.mark.parametrize("tau_d, message", [
        (0.0, "must be > 0"), (-15.0, "must be > 0"),
        (float("nan"), "must be finite"), (float("inf"), "must be finite"),
    ])
    def test_bad_tau_d_names_the_key(self, toy6, tau_d, message):
        topo = build_topology(toy6)
        xp = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        match = f"config key 'tau_d' {message}"
        with pytest.raises(ValueError, match=match):
            dispatch_execute(toy6, topo, xp, xp, tau_d)
        with pytest.raises(ValueError, match=match):
            enumeration_risk(toy6, topo, xp, tau_d, 2)

    def test_balance_invariant(self, toy6):
        topo = build_topology(toy6)
        t2 = apply_outage(toy6, topo, {5})
        trace = short_timescale_process(
            toy6, t2, SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0]),
            initial_trips=(5,),
        )
        tgt = dispatch_target(toy6, t2, trace.final_state)
        exe = dispatch_execute(toy6, t2, trace.final_state, tgt.x_star, 15.0)
        for members in t2.islands:
            mset = set(members)
            d = sum(exe.state.p_load[i] for i, b in enumerate(toy6.load_bus) if b in mset)
            g = sum(exe.state.p_gen[j] for j, b in enumerate(toy6.gen_bus) if b in mset)
            assert abs(g - d) <= 1e-6


class TestSimulateLevel:
    def test_no_outage_level_costs_nothing_at_plan(self, toy6):
        topo = build_topology(toy6)
        state = dispatch_target(toy6, topo, toy6.base_state()).x_star
        rec = simulate_level(toy6, topo, state, 0, 15.0)
        assert rec.cost == pytest.approx(0.0, abs=1e-6)
        np.testing.assert_allclose(rec.x_next.x, state.x, atol=1e-6)

    def test_islanding_event_costs(self, toy6):
        topo = build_topology(toy6)
        t2 = apply_outage(toy6, topo, {3})
        state = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        rec = simulate_level(toy6, t2, state, 4, 15.0)  # second corridor circuit
        assert rec.event_id == 4
        assert rec.fast.cost > 0.0  # bus-4 load lost
        assert len(rec.topo.islands) >= 2


class TestTargetSensitivity:
    def test_jacobian_matches_fd(self, toy6):
        # feasible interior point: upper load bounds bind, so d x*/d x'_d = I
        # on the load block and the generator block re-balances
        topo = build_topology(toy6)
        state = SystemState([110.0, 80.0, 50.0], [100.0, 140.0, 0.0])
        tgt = dispatch_target(toy6, topo, state)
        jac = tgt.jac.toarray()
        h = 0.1
        for k in range(toy6.n_load):
            d = np.zeros(toy6.n_x)
            d[k] = h
            up = dispatch_target(toy6, topo, SystemState.from_x(state.x + d, 3))
            dn = dispatch_target(toy6, topo, SystemState.from_x(state.x - d, 3))
            fd = (up.x_star.x - dn.x_star.x) / (2 * h)
            np.testing.assert_allclose(jac[:, k], fd, atol=1e-4)
        # generator columns are identically zero (plans ignore current output)
        assert np.all(jac[:, toy6.n_load:] == 0.0)


class TestTruncation:
    def test_max_events_sheds_everything_and_flags(self, monkeypatch):
        case = _with_branch_limit(cases.triangle(), 3, 70.0)
        topo = build_topology(case)
        t2 = apply_outage(case, topo, {1})
        state = SystemState([100.0], [100.0])
        monkeypatch.setattr(cascade, "MAX_FAST_EVENTS", 1)
        trace = short_timescale_process(case, t2, state, initial_trips=(1,))
        assert trace.truncated
        assert trace.final_state.total_load() == 0.0
        assert trace.cost == pytest.approx(100.0 * 10000.0)
        assert np.all(trace.jac.toarray() == 0.0)


def test_rebalance_curtails_case_setpoints(rts96):
    # the file setpoints exceed the load under the lossless model; rebalancing
    # curtails each unit in proportion to its output above minimum
    full = rts96.base_state()
    surplus = full.p_gen - rts96.gen_min
    assert full.p_gen.sum() > full.p_load.sum() >= rts96.gen_min.sum()
    state, _, cost, _ = cascade._rebalance(rts96, build_topology(rts96), full,
                                           jacobians=False)
    assert cost == 0.0
    np.testing.assert_array_equal(state.p_load, full.p_load)
    assert state.p_gen.sum() == pytest.approx(state.p_load.sum(), abs=1e-6)
    np.testing.assert_allclose(state.p_gen - rts96.gen_min,
                               surplus * (state.p_gen.sum() - rts96.gen_min.sum())
                               / surplus.sum(), rtol=1e-12, atol=1e-9)
    assert (state.p_gen >= rts96.gen_min - 1e-9).all()
    assert (state.p_gen <= rts96.gen_max + 1e-9).all()
