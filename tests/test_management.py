import json
from types import SimpleNamespace

import numpy as np
import pytest

from gridrisk import lp, management
from gridrisk.assess import AssessmentConfig, control_cost_value, run_assessment
from gridrisk.cascade import _tie_broken_costs
from gridrisk.cases import toy6
from gridrisk.management import (
    RmConfig,
    build_rm,
    irm,
    rm_step,
    write_strategy_json,
    write_trajectory_csv,
)
from gridrisk.network import SystemState, build_topology, parse_case, serialize_case


@pytest.fixture()
def pre_state(toy6):
    return SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])


class TestControlCost:
    def test_no_change_costs_nothing(self, toy6, pre_state):
        assert control_cost_value(toy6, pre_state, pre_state) == 0.0

    def test_shedding_price(self, toy6, pre_state):
        target = SystemState([117.0, 90.0, 60.0], pre_state.p_gen)
        assert control_cost_value(toy6, pre_state, target) == pytest.approx(3 * 10000.0)

    def test_generation_move_price(self, toy6, pre_state):
        target = SystemState(pre_state.p_load, [95.0, 175.0, 0.0])
        assert control_cost_value(toy6, pre_state, target) == pytest.approx(5 * 80.0 + 5 * 120.0)


class TestBuildRm:
    def test_zero_decrease_free_optimum(self, toy6, pre_state):
        topo = build_topology(toy6)
        gamma = np.zeros(toy6.n_x)
        prob = build_rm(toy6, topo, pre_state, pre_state, gamma,
                        r_prime0=100.0, r_expected=100.0)
        sol = lp.solve_lp(prob)
        assert sol.optimal
        c_load, _ = _tie_broken_costs(toy6)   # the costs the RM LP prices with
        assert sol.objective == pytest.approx(-c_load @ pre_state.p_load, rel=1e-12)
        np.testing.assert_allclose(sol.x[: toy6.n_load], pre_state.p_load, atol=1e-8)

    def test_single_control_hand_solution(self, toy6, pre_state):
        # risk-decrease gradient of -1000 $/MW on load 1, decrease of 500 $:
        # shed exactly 0.5 MW at 10000 $/MW
        topo = build_topology(toy6)
        gamma = np.zeros(toy6.n_x)
        gamma[0] = -1000.0
        prob = build_rm(toy6, topo, pre_state, pre_state, gamma,
                        r_prime0=1000.0, r_expected=500.0)
        sol = lp.solve_lp(prob)
        assert sol.x[0] == pytest.approx(119.5, abs=1e-7)
        # risk row satisfied: gamma . (x* - x0) >= delta_r
        dx = sol.x[: toy6.n_x] - pre_state.x
        assert gamma @ dx >= 500.0 - 1e-6 * 500.0

    def test_unreachable_decrease_infeasible(self, toy6, pre_state):
        topo = build_topology(toy6)
        gamma = np.zeros(toy6.n_x)
        gamma[0] = -1000.0
        prob = build_rm(toy6, topo, pre_state, pre_state, gamma,
                        r_prime0=1e9, r_expected=0.0)
        assert lp.solve_lp(prob).status == "infeasible"


class TestRmStep:
    def test_zero_delta_returns_input_exactly(self, toy6, pre_state):
        topo = build_topology(toy6)
        res = rm_step(toy6, topo, pre_state, pre_state, np.ones(toy6.n_x),
                      r_prime0=0.0, delta_r=0.0)
        assert res.x_star is pre_state
        assert res.cost == 0.0
        assert not res.changed

    def test_infeasible_halves_then_gives_up(self, toy6, pre_state, monkeypatch):
        topo = build_topology(toy6)
        gamma = np.zeros(toy6.n_x)  # no control authority at all
        gamma[0] = 1e-9
        monkeypatch.setattr(management, "MAX_HALVINGS", 3)
        res = rm_step(toy6, topo, pre_state, pre_state, gamma,
                      r_prime0=1e6, delta_r=1e6)
        assert not res.feasible
        assert res.halvings == 4

    def test_binding_risk_row_has_nonzero_dual(self, toy6, pre_state):
        topo = build_topology(toy6)
        gamma_assessed = np.zeros(toy6.n_x)
        gamma_assessed[0] = 1000.0  # risk grows with served load 1
        res = rm_step(toy6, topo, pre_state, pre_state, gamma_assessed,
                      r_prime0=1000.0, delta_r=500.0)
        assert res.feasible and res.changed
        # shedding 0.5 MW of load 1 is the cheapest way to meet the row; the
        # balance row pairs it with 0.5 MW off the cheapest generator
        assert res.x_star.p_load[0] == pytest.approx(119.5, abs=1e-7)
        assert res.cost == pytest.approx(0.5 * (10000.0 + 80.0), rel=1e-9)
        # relaxing a binding risk requirement lowers cost (scipy marginal <= 0)
        sol = lp.solve_lp(build_rm(toy6, topo, pre_state, pre_state, -gamma_assessed,
                                   r_prime0=1000.0, r_expected=500.0))
        assert sol.in_duals[0] < 0.0
        assert res.predicted_r_prime == pytest.approx(500.0, rel=1e-9)


class TestIrm:
    def test_zero_rate_case_single_row(self):
        doc = json.loads(serialize_case(toy6()))
        for br in doc["branches"]:
            br.update({"lambda_0": 0.0, "lambda_1": 0.0, "overload_slope": 0.0,
                       "lambda_max": 0.0})
        case = parse_case(json.dumps(doc))
        cfg = RmConfig(assessment=AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=0))
        traj = irm(case, set(), cfg)
        assert len(traj.rounds) == 1
        assert traj.rounds[0].r_prime == pytest.approx(0.0, abs=1e-9)

    def test_engineered_case_strictly_decreasing(self, toy6):
        cfg = RmConfig(assessment=AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive", seed=3))
        traj = irm(toy6, {3}, cfg)
        accepted = traj.accepted_r_primes()
        assert len(accepted) >= 2
        assert all(accepted[i + 1] < accepted[i] for i in range(len(accepted) - 1))
        assert accepted[-1] <= 0.5 * accepted[0]
        # every row keeps total = C0 + R'
        for row in traj.rounds:
            assert row.total == pytest.approx(row.control_cost + row.r_prime)

    def test_explicit_schedule_followed(self, toy6):
        cfg = RmConfig(
            delta_r=[50000.0, 20000.0],
            assessment=AssessmentConfig(
                tau_d=15.0, t_max=30.0, attempts=300, policy="exhaustive", seed=3),
            max_iterations=5,
        )
        traj = irm(toy6, {3}, cfg)
        used = [r.delta_r for r in traj.rounds[1:]]
        assert used and used[0] == pytest.approx(50000.0)

    def test_scalar_delta_r_is_the_constant_schedule(self, toy6):
        assessment = AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=3)
        runs = [
            irm(toy6, {3}, RmConfig(delta_r=dr, assessment=assessment, max_iterations=3))
            for dr in (20000, [20000.0] * 3)
        ]
        assert len(runs[0].rounds) > 1
        assert runs[0].rounds == runs[1].rounds

    def test_scalar_delta_r_builds_no_schedule(self, toy6, monkeypatch):
        """A scalar delta_r is read each round, so no sequence as long as
        max_iterations is built before round 1: a huge cap costs nothing."""

        class Cap(int):
            def __mul__(self, other):
                raise AssertionError("a max_iterations-long sequence was built")

            __rmul__ = __mul__

        asked = []

        def stop(*args):
            asked.append(args[-1])
            return SimpleNamespace(feasible=False, changed=False)

        monkeypatch.setattr(management, "rm_step", stop)
        cfg = RmConfig(delta_r=20000, max_iterations=Cap(10**9), assessment=AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=3))
        traj = irm(toy6, {3}, cfg)
        assert asked == [20000.0]
        assert len(traj.rounds) == 1

    def test_outputs_written(self, toy6, tmp_path):
        cfg = RmConfig(assessment=AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=3),
            max_iterations=2)
        traj = irm(toy6, {3}, cfg)
        csv_path = tmp_path / "trajectory.csv"
        json_path = tmp_path / "strategy.json"
        write_trajectory_csv(traj, str(csv_path))
        write_strategy_json(toy6, traj, str(json_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1].split(",")[0] == "round"
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["loads"]) == toy6.n_load


class TestRmQualitative:
    def test_risk_row_invariant_at_solution(self, toy6):
        # gamma.(x* - x*_0) >= delta_r in the risk-decrease orientation
        from gridrisk.assess import AssessmentConfig, run_assessment

        a = run_assessment(toy6, {3}, AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive", seed=1))
        delta_r = 0.5 * a.r_prime
        res = rm_step(toy6, a.topo, a.x_pre, a.x_target, a.gamma,
                      a.r_prime, delta_r)
        assert res.feasible and res.changed
        achieved = float(-a.gamma @ (res.x_star.x - a.x_target.x))
        assert achieved >= res.delta_r - 1e-6 * abs(res.delta_r)

    def test_dominant_gradient_control_is_exercised(self, toy6):
        # the strongest risk-increasing control must be pulled down by the RM
        from gridrisk.assess import AssessmentConfig, run_assessment

        a = run_assessment(toy6, {3}, AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive", seed=1))
        k = int(np.argmax(np.abs(a.gamma)))
        res = rm_step(toy6, a.topo, a.x_pre, a.x_target, a.gamma,
                      a.r_prime, 0.5 * a.r_prime)
        moved = res.x_star.x - a.x_target.x
        assert moved[k] * np.sign(a.gamma[k]) < 0  # moved against the gradient

    def test_depth_one_matches_when_risk_all_on_level_one(self):
        # zero rates everywhere except the risky corridor circuit: the only
        # cascade continuation beyond level 1 is costless, so a depth-1
        # assessment carries the same risk, gradient and RM outcome
        from gridrisk.assess import AssessmentConfig, run_assessment

        doc = json.loads(serialize_case(toy6()))
        for br in doc["branches"]:
            if br["id"] != 4:
                br.update({"lambda_0": 0.0, "lambda_1": 0.0,
                           "overload_slope": 0.0, "lambda_max": 0.0})
        case = parse_case(json.dumps(doc))
        kw = dict(tau_d=15.0, attempts=400, policy="exhaustive", seed=1)
        one = run_assessment(case, {3}, AssessmentConfig(t_max=15.0, **kw))
        two = run_assessment(case, {3}, AssessmentConfig(t_max=30.0, **kw))
        assert one.r_prime == pytest.approx(two.r_prime, rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(one.gamma, two.gamma, rtol=1e-9, atol=1e-9)
        s1 = rm_step(case, one.topo, one.x_pre, one.x_target, one.gamma,
                     one.r_prime, 0.5 * one.r_prime)
        s2 = rm_step(case, two.topo, two.x_pre, two.x_target, two.gamma,
                     two.r_prime, 0.5 * two.r_prime)
        np.testing.assert_allclose(s1.x_star.x, s2.x_star.x, atol=1e-7)
