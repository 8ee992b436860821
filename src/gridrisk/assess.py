"""End-to-end risk assessment: base dispatch, initial outages, control
execution, tree search with gradient accumulation, and the finite-difference
gradient validator."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cascade, gradient, tree as mtree
from .cascade import control_cost_value
from .network import NetworkCase, SystemState, Topology, build_topology, apply_outage


class InfeasibleBaseCase(RuntimeError):
    """The pre-outage case cannot be dispatched into a balanced feasible state."""


AUTO_DENSE_BUS_LIMIT = 200   # dense chain storage below, compressed above
AUTO_THRESHOLD = 1e-5
POLICIES = ("best-first", "probability-sampled", "exhaustive")
FD_REL_TOL = 0.05        # finite-difference check: largest relative error
FD_GAMMA_FLOOR = 1e-3    # finite-difference check: smaller |gamma| is not checked


def check_setting(key: str, val, low: float = 0.0, integral: bool = False) -> None:
    """Raise a ValueError naming config key `key` unless `val` is a finite
    number, an int when `integral` (a bool is neither), and at least `low`."""
    if isinstance(val, bool) or not isinstance(val, int if integral else (int, float)):
        raise ValueError(f"config key '{key}' has the wrong type: {type(val).__name__}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ValueError(f"config key '{key}' must be finite")
    if val < low:
        raise ValueError(f"config key '{key}' must be >= {low:g}")


@dataclass
class AssessmentConfig:
    """Assessment and tree-search settings. The tree has floor(t_max / tau_d)
    levels. Policies: best-first (score-guided), probability-sampled and
    exhaustive (depth-first, children in event order). Each setting
    is checked on construction; a bad one raises a ValueError naming it."""

    tau_d: float = 15.0
    t_max: float = 150.0
    attempts: int = 200
    policy: str = "probability-sampled"
    seed: int = 0
    gradients: bool = True
    threshold: object = "auto"              # None = dense, float = compressed

    def __post_init__(self):
        check_setting("tau_d", self.tau_d, low=-math.inf)
        cascade.check_tau_d(self.tau_d)
        check_setting("t_max", self.t_max, low=-math.inf)
        if self.t_max < self.tau_d:
            raise ValueError("config key 't_max' must be >= tau_d")
        if not math.isfinite(self.t_max / self.tau_d):
            raise ValueError("config key 't_max' must be a finite multiple of tau_d")
        check_setting("attempts", self.attempts, low=1, integral=True)
        check_setting("seed", self.seed, integral=True)
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy '{self.policy}'")
        if self.threshold is not None and self.threshold != "auto":
            check_setting("threshold", self.threshold)

    @property
    def depth(self) -> int:
        return int(self.t_max // self.tau_d)

    def resolve_threshold(self, case: NetworkCase) -> float | None:
        if self.threshold == "auto":
            return None if case.n_bus < AUTO_DENSE_BUS_LIMIT else AUTO_THRESHOLD
        return self.threshold


@dataclass
class Assessment:
    topo: Topology
    x_pre: SystemState            # pre-control state (after initial fast process)
    x_target: SystemState         # control target
    execute: cascade.ExecuteResult  # the root execution LP: x_pre, x_target -> x_root
    control_cost: float           # C_0
    pre_control_cost: float       # fast-process cost of the initial outages (not in R)
    tree: mtree.MarkovTree
    history: mtree.ConvergenceHistory

    @property
    def x_root(self) -> SystemState:
        """The executed post-control state, the tree's root."""
        return self.execute.state

    @property
    def exec_sensitivity(self) -> gradient.Csr | None:
        """d x_root / d x_target (None without gradients)."""
        return self.execute.jac_star

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
        """Fingerprint for perturbation comparison: each explored label maps to
        its trip set and both LPs' active sets, and the root label () to the
        root execution LP's active set, so two assessments share a signature
        only if they explore the same labels on the same trips and bases."""
        out = {(): self.execute.sol.active_signature()}
        for label, node in self.tree.nodes.items():
            if node.record is not None:
                out[label] = node.record.signature
        return out


def base_state(case: NetworkCase) -> SystemState:
    """Balanced pre-outage dispatch: the planning LP serving the full case
    load on the intact network (flow-feasible by construction)."""
    full = case.base_state()
    tgt = cascade.dispatch_target(case, build_topology(case), full, jacobians=False)
    if tgt.fallback:
        raise InfeasibleBaseCase("planning LP infeasible on the intact network")
    served = tgt.x_star.total_load()
    if served + 1e-6 < full.total_load():
        raise InfeasibleBaseCase(
            f"intact network can only serve {served:.3f} of "
            f"{full.total_load():.3f} MW base load"
        )
    return tgt.x_star


def pre_control(case: NetworkCase, initial_outages) -> cascade.ShortTimescaleTrace:
    """The fast process the initial outages start from the base dispatch. It
    ends in the pre-control state and does not depend on the control target."""
    x_base = base_state(case)
    topo1 = apply_outage(case, build_topology(case), initial_outages)
    return cascade.short_timescale_process(
        case, topo1, x_base, initial_trips=tuple(sorted(initial_outages)), jacobians=False
    )


def run_assessment(
    case: NetworkCase,
    initial_outages,
    config: AssessmentConfig,
    control_target: SystemState | None = None,
    fast: cascade.ShortTimescaleTrace | None = None,
) -> Assessment:
    """Assess subsequent cascading risk after the initial outages.

    `fast` is `pre_control(case, initial_outages)`, computed when not given.
    The control target defaults to the conventional re-dispatch plan (the
    planning LP on the post-outage network); the tree is rooted at the state
    the execution LP reaches within one interval.
    """
    if fast is None:
        fast = pre_control(case, initial_outages)
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
    history = mtree.search(t, config)
    return Assessment(
        topo=topo1,
        x_pre=x_pre,
        x_target=control_target,
        execute=exe,
        control_cost=c0,
        pre_control_cost=fast.cost,
        tree=t,
        history=history,
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
    flows = cascade.dc_power_flow(case, topo, state)
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


def check_fd_step(step: float) -> None:
    """Raise a ValueError naming `fd_step` unless `step` is finite and > 0."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError("config key 'fd_step' must be finite and > 0")


def validate_gradient(
    case: NetworkCase,
    initial_outages,
    config: AssessmentConfig,
    control_target: SystemState | None = None,
    step: float = 0.25,
) -> GradientValidation:
    """Compare the accumulated gradient against central finite differences of
    the assessed subsequent risk R' over each control component.

    The gradient is that of R' on a fixed explored tree with fixed trips and
    bases, so a component is flagged, and left out of the tolerance check,
    when either perturbation changes the assessment's `signature`: the
    explored labels, any trip set or any LP active set, the root execution
    LP's included (a load target that reaches the pre-control load makes
    that load's upper bound there active). Any policy and budget will do,
    since a search that explores other labels flags the component. The
    center assessment runs with gradients whatever `config.gradients` says.
    Passes only when at least one component was checked and every checked
    component with |gamma| above `FD_GAMMA_FLOOR` is within `FD_REL_TOL`.
    `step` is the `fd_step` config key; see `check_fd_step`.
    """
    check_fd_step(step)
    fast = pre_control(case, initial_outages)
    center = run_assessment(
        case, initial_outages, replace(config, gradients=True), control_target, fast
    )
    target = center.x_target
    sig0 = center.signature()
    fd_config = replace(config, gradients=False)

    n = case.n_x
    gamma = center.gamma
    fd = np.zeros(n)
    flagged = np.zeros(n, dtype=bool)
    for i in range(n):
        delta = np.zeros(n)
        delta[i] = step
        vals = []
        for sign in (+1.0, -1.0):
            perturbed = SystemState.from_x(target.x + sign * delta, case.n_load)
            a = run_assessment(case, initial_outages, fd_config, perturbed, fast)
            vals.append(a.r_prime)
            flagged[i] |= a.signature() != sig0
        fd[i] = (vals[0] - vals[1]) / (2.0 * step)

    big = np.abs(gamma) > FD_GAMMA_FLOOR
    rel_err = np.zeros(n)
    rel_err[big] = np.abs(fd[big] - gamma[big]) / np.abs(gamma[big])
    checked = big & ~flagged
    return GradientValidation(
        names=case.state_names(),
        gamma=gamma,
        fd=fd,
        rel_err=rel_err,
        flagged=flagged,
        passed=bool(checked.any() and not np.any(rel_err[checked] > FD_REL_TOL)),
        unflagged_fraction=float(1.0 - flagged.mean()),
        checked=int(checked.sum()),
    )
