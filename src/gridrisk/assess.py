"""End-to-end risk assessment: base dispatch, initial outages, control
execution, tree search with gradient accumulation, and the finite-difference
gradient validator."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cascade, gradient, tree as mtree
from .network import NetworkCase, SystemState, Topology, build_topology, apply_outage


class InfeasibleBaseCase(RuntimeError):
    """The pre-outage case cannot be dispatched into a balanced feasible state."""


AUTO_DENSE_BUS_LIMIT = 200   # dense chain storage below, compressed above
AUTO_THRESHOLD = 1e-5


@dataclass
class AssessmentConfig:
    tau_d: float = 15.0
    t_max: float = 150.0
    attempts: int = 200
    policy: str = "probability-sampled"
    seed: int = 0
    gradients: bool = True
    threshold: object = "auto"              # None = dense, float = compressed
    base_dispatch: str = "opf"              # "opf" | "case"
    exhaustive_order: str = "ascending"

    @property
    def depth(self) -> int:
        n = int(self.t_max // self.tau_d)
        if n < 1:
            raise ValueError("t_max must cover at least one interval")
        return n

    def resolve_threshold(self, case: NetworkCase) -> float | None:
        if self.threshold == "auto":
            return None if case.n_bus < AUTO_DENSE_BUS_LIMIT else AUTO_THRESHOLD
        return self.threshold

    def budget(self) -> mtree.SearchBudget:
        return mtree.SearchBudget(
            attempts=self.attempts,
            depth=self.depth,
            seed=self.seed,
            policy=self.policy,
            exhaustive_order=self.exhaustive_order,
        )


@dataclass
class Assessment:
    case: NetworkCase
    config: AssessmentConfig
    topo: Topology
    x_pre: SystemState            # pre-control state (after initial fast process)
    x_target: SystemState         # control target
    x_root: SystemState           # executed post-control state
    control_cost: float           # C_0
    pre_control_cost: float       # fast-process cost of the initial outages (not in R)
    tree: mtree.MarkovTree
    history: mtree.ConvergenceHistory
    exec_sensitivity: np.ndarray | None

    @property
    def r_prime(self) -> float:
        return self.tree.root.subsequent_risk

    @property
    def risk(self) -> float:
        return self.control_cost + self.r_prime

    @property
    def gamma(self) -> np.ndarray | None:
        """Risk gradient over control (target-state) variables, $/MW."""
        if not self.tree.gradients or self.exec_sensitivity is None:
            return None
        return gradient.control_gradient(self.tree.root.s_accum, self.exec_sensitivity)

    def gamma_history(self) -> list:
        return [
            gradient.control_gradient(g, self.exec_sensitivity)
            for g in self.history.gammas
        ]

    def signature(self) -> dict:
        """Per-node event/active-set fingerprints for perturbation comparison."""
        out = {}
        for label, node in self.tree.nodes.items():
            if node.record is not None:
                out[label] = node.record.signature
        return out


def base_state(case: NetworkCase, base_dispatch: str = "opf") -> SystemState:
    """Balanced pre-outage dispatch.

    "opf": serve the full case load with the planning LP on the intact
    network (flow-feasible by construction). "case": keep the case file's
    generator setpoints, proportionally rebalanced to the load.
    """
    topo0 = build_topology(case)
    full = case.base_state()
    if base_dispatch == "opf":
        tgt = cascade.dispatch_target(case, topo0, full, jacobians=False)
        if tgt.fallback:
            raise InfeasibleBaseCase("planning LP infeasible on the intact network")
        served = tgt.x_star.total_load()
        if served + 1e-6 < full.total_load():
            raise InfeasibleBaseCase(
                f"intact network can only serve {served:.3f} of "
                f"{full.total_load():.3f} MW base load"
            )
        return tgt.x_star
    if base_dispatch == "case":
        state, _, cost, _ = cascade._rebalance(case, topo0, full, jacobians=False)
        if cost > 0:
            raise InfeasibleBaseCase("case dispatch cannot cover the base load")
        if np.any(state.p_gen > case.gen_max + 1e-9) or np.any(
            state.p_gen < case.gen_min - 1e-9
        ):
            raise InfeasibleBaseCase("case dispatch violates generator bounds")
        return state
    raise ValueError(f"unknown base_dispatch '{base_dispatch}'")


def run_assessment(
    case: NetworkCase,
    initial_outages,
    config: AssessmentConfig,
    control_target: SystemState | None = None,
) -> Assessment:
    """Assess subsequent cascading risk after the initial outages.

    The control target defaults to the conventional re-dispatch plan (the
    planning LP on the post-outage network); the tree is rooted at the state
    the execution LP reaches within one interval.
    """
    x_base = base_state(case, config.base_dispatch)
    topo0 = build_topology(case)
    topo1, _ = apply_outage(case, topo0, initial_outages)
    fast = cascade.short_timescale_process(
        case, topo1, x_base, initial_trips=tuple(sorted(initial_outages)), jacobians=False
    )
    x_pre = fast.final_state
    topo1 = fast.final_topology

    if control_target is None:
        control_target = cascade.dispatch_target(case, topo1, x_pre, jacobians=False).x_star
    exe = cascade.dispatch_execute(
        case, topo1, x_pre, control_target, config.tau_d, jacobians=config.gradients
    )
    c0 = control_cost_value(case, x_pre, exe.state)

    t = mtree.MarkovTree(
        case,
        topo1,
        exe.state,
        tau_d=config.tau_d,
        depth=config.depth,
        gradients=config.gradients,
        threshold=config.resolve_threshold(case),
    )
    history = mtree.search(t, config.budget())
    return Assessment(
        case=case,
        config=config,
        topo=topo1,
        x_pre=x_pre,
        x_target=control_target,
        x_root=exe.state,
        control_cost=c0,
        pre_control_cost=fast.cost,
        tree=t,
        history=history,
        exec_sensitivity=exe.jac_star,
    )


def control_cost_value(case: NetworkCase, x_pre: SystemState, x_target: SystemState) -> float:
    """Re-dispatch control cost: -c_D'(P*_d - P_d) + c_G'|P*_g - P_g|."""
    return float(
        -case.c_load @ (x_target.p_load - x_pre.p_load)
        + case.c_gen @ np.abs(x_target.p_gen - x_pre.p_gen)
    )


# ---------------------------------------------------------------------------
# Independent enumeration oracle (kept free of the tree recursion machinery)
# ---------------------------------------------------------------------------

def enumeration_risk(
    case: NetworkCase,
    topo: Topology,
    state: SystemState,
    tau_d: float,
    depth: int,
) -> float:
    """Expected cascade cost by direct recursion over every event sequence.

    Independently recomputes sum over paths of (product of conditional
    probabilities) * cost, mirroring the model semantics: the no-outage child
    is absorbing, fully shed states stop, depth limits the horizon.
    """
    if depth < 1 or cascade.is_fully_shed(state):
        return 0.0
    ids = cascade.in_service_ids(case, topo)
    flows = cascade.dc_power_flow(case, topo, state).flows
    lam, _ = cascade.failure_rates(case, topo, flows)
    probs, pr_no = cascade.level_probabilities(lam[topo.mask], tau_d)
    total = 0.0
    for eid, pr in zip(ids, probs):
        if pr <= 0.0:
            continue
        rec = cascade.simulate_level(case, topo, state, eid, tau_d, jacobians=False)
        total += pr * (
            rec.cost + enumeration_risk(case, rec.topo, rec.x_next, tau_d, depth - 1)
        )
    rec0 = cascade.simulate_level(case, topo, state, 0, tau_d, jacobians=False)
    total += pr_no * rec0.cost  # absorbing: no continuation below the no-outage child
    return total


# ---------------------------------------------------------------------------
# Finite-difference gradient validation
# ---------------------------------------------------------------------------

def _clipped_loads(target: SystemState, x_pre: SystemState) -> np.ndarray:
    """Loads whose target the root execution LP clips to the pre-control load."""
    return np.maximum(target.p_load, 0.0) > np.maximum(x_pre.p_load, 0.0)


@dataclass
class GradientValidation:
    names: list
    gamma: np.ndarray
    fd: np.ndarray
    rel_err: np.ndarray
    flagged: np.ndarray
    passed: bool
    unflagged_fraction: float
    checked: int


def validate_gradient(
    case: NetworkCase,
    initial_outages,
    config: AssessmentConfig,
    control_target: SystemState | None = None,
    step: float = 0.25,
    rel_tol: float = 0.05,
    gamma_floor: float = 1e-3,
) -> GradientValidation:
    """Compare the accumulated gradient against central finite differences of
    the exhaustively assessed subsequent risk over each control component.

    Components whose perturbation changes any trip set or LP active set (or
    that hit a flagged simulation) are excluded from the tolerance check, as
    are those whose perturbation changes which root load targets the
    execution LP clips at the pre-control load (`P*_d > P'_d`): that clip is
    a kink no active set records. Requires an exhaustive budget so both sides
    see the identical tree. Passes only when at least one component was
    checked and every checked component is within `rel_tol`.
    """
    if config.policy != "exhaustive":
        raise ValueError("gradient validation requires an exhaustive search budget")
    center = run_assessment(case, initial_outages, config, control_target)
    target = center.x_target
    sig0 = center.signature()
    clip0 = _clipped_loads(target, center.x_pre)
    fd_config = replace(config, gradients=False)

    n = case.n_x
    gamma = center.gamma.copy()
    fd = np.zeros(n)
    flagged = np.zeros(n, dtype=bool)
    for i in range(n):
        delta = np.zeros(n)
        delta[i] = step
        vals = []
        for sign in (+1.0, -1.0):
            perturbed = SystemState.from_x(target.x + sign * delta, case.n_load)
            a = run_assessment(case, initial_outages, fd_config, perturbed)
            vals.append(a.r_prime)
            if a.signature() != sig0 or not np.array_equal(
                _clipped_loads(perturbed, a.x_pre), clip0
            ):
                flagged[i] = True
        fd[i] = (vals[0] - vals[1]) / (2.0 * step)

    rel_err = np.zeros(n)
    passed = True
    checked = 0
    for i in range(n):
        if abs(gamma[i]) <= gamma_floor:
            continue
        rel_err[i] = abs(fd[i] - gamma[i]) / abs(gamma[i])
        if not flagged[i]:
            checked += 1
            if rel_err[i] > rel_tol:
                passed = False
    frac = 1.0 - flagged.mean()
    return GradientValidation(
        names=case.state_names(),
        gamma=gamma,
        fd=fd,
        rel_err=rel_err,
        flagged=flagged,
        passed=passed and checked > 0,
        unflagged_fraction=float(frac),
        checked=checked,
    )
