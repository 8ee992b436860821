"""Risk management: the gradient-constrained minimum-cost re-dispatch LP and
its iterated form that re-assesses risk between steps."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .assess import (
    Assessment, AssessmentConfig, check_setting, pre_control, run_assessment,
)
from .cascade import control_cost_value, dispatch_lp
from .network import NetworkCase, SystemState, Topology

MAX_REJECTIONS = 4   # rejected IRM rounds before the loop stops
MAX_HALVINGS = 10    # halvings of an infeasible RM risk decrease before giving up


def build_rm(
    case: NetworkCase,
    topo: Topology,
    x_pre: SystemState,
    x_star0: SystemState,
    gamma: np.ndarray,
    r_prime0: float,
    r_expected: float,
) -> lp.LpProblem:
    """Minimum-cost target change subject to the linearized risk constraint.

    Variables [P*_d, P*_g, u, v] with u - v = P*_g - P_g(pre); the risk row is
    -gamma . (x* - x*_0) <= R_E - R'_0, i.e. gamma . dx* >= R'_0 - R_E, with
    `gamma` in the risk-decrease orientation expected by that form. Network
    constraints: per-island balance, |target flows| <= F_max, generator
    bounds, 0 <= P*_d <= P_d(pre). `cascade.dispatch_lp` builds it, so the
    costs carry the dispatch LPs' per-unit tie-break and the optimum is
    unique; the step's reported cost uses the case's own costs. The one-sided
    risk row is inequality row 0; the ranged flow-limit rows, one per live
    branch, follow it.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size != case.n_x:
        raise ValueError("gamma must cover the control variables [P*_d; P*_g]")
    # -gamma.(z - x0) <= R_E - R'0  ->  -gamma.z <= R_E - R'0 - gamma.x0
    risk_rhs = r_expected - r_prime0 - float(gamma @ x_star0.x)
    return dispatch_lp(
        case, topo, -1.0, np.zeros(case.n_load), np.maximum(x_pre.p_load, 0.0),
        p_ref=x_pre.p_gen, rows=(-gamma[None, :], np.array([risk_rhs])), flows=True,
    )


@dataclass
class RmStepResult:
    x_star: SystemState
    cost: float                  # control cost of the returned target
    predicted_r_prime: float     # linearized risk at the returned target
    delta_r: float               # risk decrease actually imposed (after halvings)
    feasible: bool
    halvings: int
    changed: bool


def rm_step(
    case: NetworkCase,
    topo: Topology,
    x_pre: SystemState,
    x_star0: SystemState,
    gamma_assessed: np.ndarray,
    r_prime0: float,
    delta_r: float,
) -> RmStepResult:
    """One risk-management solve toward an expected risk decrease delta_r.

    The assessed gradient dR'/dx* is negated into the risk-row orientation;
    an infeasible decrease is halved (at most `MAX_HALVINGS` times); with
    delta_r = 0 the current target is returned untouched at zero cost.
    """
    if delta_r <= 0.0:
        return RmStepResult(
            x_star=x_star0, cost=0.0, predicted_r_prime=r_prime0, delta_r=0.0,
            feasible=True, halvings=0, changed=False,
        )
    gamma_rm = -np.asarray(gamma_assessed, dtype=float)
    halvings = 0
    while True:
        prob = build_rm(
            case, topo, x_pre, x_star0, gamma_rm, r_prime0, r_prime0 - delta_r
        )
        sol = lp.solve_lp(prob)
        if sol.optimal:
            break
        halvings += 1
        if halvings > MAX_HALVINGS:
            return RmStepResult(
                x_star=x_star0, cost=0.0, predicted_r_prime=r_prime0,
                delta_r=delta_r, feasible=False, halvings=halvings, changed=False,
            )
        delta_r *= 0.5
    x_new = SystemState(
        sol.x[: case.n_load].copy(),
        sol.x[case.n_load : case.n_x].copy(),
    )
    predicted = r_prime0 + float(gamma_assessed @ (x_new.x - x_star0.x))
    return RmStepResult(
        x_star=x_new,
        cost=control_cost_value(case, x_pre, x_new),
        predicted_r_prime=predicted,
        delta_r=delta_r,
        feasible=True,
        halvings=halvings,
        changed=not np.allclose(x_new.x, x_star0.x, atol=1e-9),
    )


@dataclass
class RmConfig:
    """Iterated risk-management settings.

    delta_r: explicit schedule (list) or a single value reused each round;
    None selects the adaptive default (0.8 of the current assessed risk,
    halved on infeasibility or non-improvement). epsilon_stop defaults to
    max(1, 1e-3 R'_0). Each setting is checked on construction; a bad one
    raises a ValueError naming it.
    """

    delta_r: object = None
    epsilon_stop: float | None = None
    max_iterations: int = 8
    assessment: AssessmentConfig = field(default_factory=AssessmentConfig)

    def __post_init__(self):
        if self.delta_r is not None:
            for val in self.delta_r if isinstance(self.delta_r, list) else [self.delta_r]:
                check_setting("delta_r", val, low=-math.inf)
        if self.epsilon_stop is not None:
            check_setting("epsilon_stop", self.epsilon_stop)
        check_setting("max_iterations", self.max_iterations, integral=True)


@dataclass
class IrmRound:
    round_index: int
    delta_r: float | None
    control_cost: float
    r_prime: float
    total: float
    accepted: bool


@dataclass
class IrmTrajectory:
    rounds: list
    final_target: SystemState
    final_assessment: Assessment

    def accepted_r_primes(self) -> list:
        return [r.r_prime for r in self.rounds if r.accepted]


def irm(case: NetworkCase, initial_outages, config: RmConfig) -> IrmTrajectory:
    """Iterate assess -> gradient-constrained re-dispatch -> re-assess.

    A round is accepted when the re-assessed subsequent risk drops by more
    than epsilon_stop; otherwise the step size is halved and the round is
    recorded as rejected. The loop stops on the rejection budget, the
    iteration cap, or when no further decrease is expected. Every round
    starts from the same pre-control state, computed once.
    """
    assess_cfg = config.assessment
    fast = pre_control(case, initial_outages)
    current = run_assessment(case, initial_outages, assess_cfg, fast=fast)
    r0 = current.r_prime
    eps = config.epsilon_stop
    if eps is None:
        eps = max(1.0, 1e-3 * r0)

    schedule = config.delta_r
    adaptive = schedule is None
    delta_r = 0.8 * r0 if adaptive else None

    rounds = [
        IrmRound(0, None, current.control_cost, current.r_prime,
                 current.control_cost + current.r_prime, True)
    ]
    target = current.x_target
    rejections = 0
    for it in range(1, config.max_iterations + 1):
        if current.r_prime <= eps:
            break
        if isinstance(schedule, (int, float)):
            delta_r = float(schedule)
        elif not adaptive:
            if it - 1 >= len(schedule):
                break
            delta_r = schedule[it - 1]
        step = rm_step(
            case, current.topo, current.x_pre, target,
            current.gamma, current.r_prime, delta_r,
        )
        if not step.feasible or not step.changed:
            break
        trial = run_assessment(case, initial_outages, assess_cfg, step.x_star, fast)
        improved = current.r_prime - trial.r_prime > eps
        rounds.append(
            IrmRound(
                it, step.delta_r, trial.control_cost, trial.r_prime,
                trial.control_cost + trial.r_prime, improved,
            )
        )
        if improved:
            current = trial
            target = step.x_star
            if adaptive:
                delta_r = 0.8 * current.r_prime
        else:
            rejections += 1
            if adaptive:
                delta_r = step.delta_r * 0.5
            if rejections >= MAX_REJECTIONS or not adaptive:
                break
    return IrmTrajectory(rounds=rounds, final_target=target, final_assessment=current)


def write_trajectory_csv(trajectory: IrmTrajectory, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "delta_r", "control_cost", "subsequent_risk", "total_risk", "accepted"]
        )
        for r in trajectory.rounds:
            writer.writerow(
                [
                    r.round_index,
                    "" if r.delta_r is None else repr(float(r.delta_r)),
                    repr(float(r.control_cost)),
                    repr(float(r.r_prime)),
                    repr(float(r.total)),
                    int(r.accepted),
                ]
            )


def write_strategy_json(case: NetworkCase, trajectory: IrmTrajectory, path: str) -> None:
    """Final target state in a form the off-line strategy store can index."""
    target = trajectory.final_target
    doc = {
        "schema_version": 1,
        "loads": [
            {"id": l.id, "bus": l.bus, "target_mw": float(target.p_load[i])}
            for i, l in enumerate(case.loads)
        ],
        "generators": [
            {"id": g.id, "bus": g.bus, "target_mw": float(target.p_gen[j])}
            for j, g in enumerate(case.generators)
        ],
        "control_cost": float(trajectory.final_assessment.control_cost),
        "subsequent_risk": float(trajectory.final_assessment.r_prime),
        "total_risk": float(
            trajectory.final_assessment.control_cost + trajectory.final_assessment.r_prime
        ),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
