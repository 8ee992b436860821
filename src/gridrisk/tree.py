"""Markov tree of cascade states: forward path expansion and the backward
equivalent-cost / subsequent-risk update.

Each tree level spans one dispatch interval; a node's children are the
conditional outage events of that interval (branch failures plus the
no-outage event, id 0). Paths end at the depth cap, at a fully shed state,
or at the absorbing no-outage child.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import cascade
from .gradient import backward_gradient_update, chain_step, maybe_compress, to_dense
from .network import NetworkCase, SystemState, Topology

MAX_EXHAUSTIVE_NODES = 200_000


@dataclass
class SearchBudget:
    """Tree-search configuration.

    depth is the number of levels n = floor(T_max / tau_d); policies:
    best-first (score-guided), probability-sampled, exhaustive (depth-first
    enumeration, `exhaustive_order` picks the child visiting order).
    Exhaustive search refuses label spaces larger than
    `MAX_EXHAUSTIVE_NODES` (counted as (elements+1)^depth). A search stops
    early once an exhaustive or best-first policy has visited everything.
    """

    attempts: int
    depth: int
    seed: int = 0
    policy: str = "probability-sampled"
    exhaustive_order: str = "ascending"

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.policy not in ("best-first", "probability-sampled", "exhaustive"):
            raise ValueError(f"unknown policy '{self.policy}'")

    def check_exhaustive_size(self, n_elements: int) -> None:
        if self.policy != "exhaustive":
            return
        if (n_elements + 1) ** self.depth > MAX_EXHAUSTIVE_NODES:
            raise ValueError(
                f"exhaustive search over {n_elements + 1}^{self.depth} labels "
                f"exceeds the {MAX_EXHAUSTIVE_NODES} node bound"
            )

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class TreeNode:
    label: tuple
    level: int
    event_id: int
    prob: float                     # conditional probability from the parent
    cost: float                     # C
    state: SystemState
    topo: Topology
    c_equiv: float = 0.0            # C'
    visited: bool = False
    first_attempt: int = -1
    terminal: bool = False
    children: dict = field(default_factory=dict)
    record: cascade.LevelRecord | None = None
    # gradient bookkeeping (None when gradients are disabled)
    chain_x: object | None = None       # d x^{(level)} / d x^{(0)}
    dcost_dx0: np.ndarray | None = None
    dprob_dx0: np.ndarray | None = None
    s_accum: np.ndarray | None = None
    # children distribution, filled on first expansion past this node
    child_events: list | None = None
    child_probs: np.ndarray | None = None
    prob_no_outage: float | None = None
    dpr_dx0: np.ndarray | None = None   # rows: events then no-outage
    # cached True result of fully_explored()
    _explored: bool = field(default=False, init=False, repr=False)

    @property
    def subsequent_risk(self) -> float:
        return self.c_equiv - self.cost

    def fully_explored(self) -> bool:
        """Every path below has reached a visited terminal node.

        `visited`, `terminal` and `children` only ever grow, so once True the
        answer stays True and is cached instead of re-walking the subtree.
        """
        if self._explored:
            return True
        if self.terminal:
            self._explored = self.visited
        elif self.child_events is not None:
            self._explored = all(
                (child := self.children.get(eid)) is not None and child.fully_explored()
                for eid in self.child_events + [0]
            )
        return self._explored


class MarkovTree:
    """Node arena keyed by outage-sequence labels, rooted at the post-control
    state. Holds the per-run gradient accumulators and chain storage policy."""

    def __init__(
        self,
        case: NetworkCase,
        topo: Topology,
        root_state: SystemState,
        tau_d: float,
        depth: int,
        gradients: bool = True,
        threshold: float | None = None,
    ):
        self.case = case
        self.tau_d = tau_d
        self.depth = depth
        self.gradients = gradients
        self.threshold = threshold
        self.stored_entries = 0
        self.dense_entries = 0
        self.avg_leaf_cost = 0.0
        self._leaves_seen = 0
        self.root = TreeNode(
            label=(), level=0, event_id=-1, prob=1.0, cost=0.0,
            state=root_state, topo=topo,
            terminal=cascade.is_fully_shed(root_state),
        )
        if gradients:
            eye = np.eye(case.n_x)
            self.root.chain_x = self._store(eye)
            self.root.dcost_dx0 = np.zeros(case.n_x)
            self.root.dprob_dx0 = np.zeros(case.n_x)
            self.root.s_accum = np.zeros(case.n_x)
        self.nodes: dict[tuple, TreeNode] = {(): self.root}

    # -- storage ------------------------------------------------------------

    def _store(self, matrix: np.ndarray):
        self.dense_entries += matrix.size
        stored = maybe_compress(matrix, self.threshold)
        self.stored_entries += getattr(stored, "nnz", matrix.size)
        return stored

    # -- node expansion -----------------------------------------------------

    def _open_node(self, node: TreeNode) -> None:
        """Compute the children distribution of a non-terminal node."""
        if node.child_events is not None or node.terminal:
            return
        ids = cascade.in_service_ids(self.case, node.topo)
        flows = cascade.dc_power_flow(self.case, node.topo, node.state).flows
        lam, _ = cascade.failure_rates(self.case, node.topo, flows)
        probs, pr_no = cascade.level_probabilities(lam[node.topo.mask], self.tau_d)
        keep = probs > 0.0
        node.child_events = [ids[i] for i in np.flatnonzero(keep)]
        node.child_probs = probs[keep]
        node.prob_no_outage = pr_no
        if self.gradients:
            dpr_dx = cascade.probability_sensitivity(
                self.case, node.topo, node.state, self.tau_d
            )
            rows = np.vstack([dpr_dx[np.flatnonzero(keep), :], dpr_dx[-1:, :]])
            node.dpr_dx0 = rows @ to_dense(node.chain_x)

    def _child_prob(self, node: TreeNode, event_id: int) -> float:
        if event_id == 0:
            return float(node.prob_no_outage)
        k = node.child_events.index(event_id)
        return float(node.child_probs[k])

    def _child_dprob(self, node: TreeNode, event_id: int) -> np.ndarray:
        if event_id == 0:
            return node.dpr_dx0[-1, :]
        k = node.child_events.index(event_id)
        return node.dpr_dx0[k, :]

    def _make_child(self, node: TreeNode, event_id: int, attempt: int) -> TreeNode:
        rec = cascade.simulate_level(
            self.case, node.topo, node.state, event_id, self.tau_d,
            jacobians=self.gradients,
        )
        label = node.label + (event_id,)
        level = node.level + 1
        terminal = (
            level >= self.depth
            or event_id == 0
            or cascade.is_fully_shed(rec.x_next)
        )
        child = TreeNode(
            label=label, level=level, event_id=event_id,
            prob=self._child_prob(node, event_id), cost=rec.cost,
            state=rec.x_next, topo=rec.topo,
            terminal=terminal, record=rec, first_attempt=attempt,
        )
        if self.gradients:
            x_parent = to_dense(node.chain_x)
            x_prime, x_star, x_next, dcost = chain_step(rec, x_parent)
            child.chain_x = self._store(x_next)
            child.dcost_dx0 = dcost
            child.dprob_dx0 = self._child_dprob(node, event_id)
            child.s_accum = np.zeros(self.case.n_x)
        node.children[event_id] = child
        self.nodes[label] = child
        return child

    def _descend(self, node: TreeNode, event_id: int, attempt: int) -> TreeNode:
        child = node.children.get(event_id)
        if child is None:
            child = self._make_child(node, event_id, attempt)
        return child

    # -- policies -----------------------------------------------------------

    def _pick_exhaustive(self, node: TreeNode, order: str) -> int | None:
        ids = list(node.child_events) + [0]
        if order == "descending":
            ids = ids[::-1]
        for eid in ids:
            child = node.children.get(eid)
            if child is None or not child.fully_explored():
                return eid
        return None

    def _pick_sampled(self, node: TreeNode, rng: np.random.Generator) -> int:
        probs = np.append(node.child_probs, node.prob_no_outage)
        total = probs.sum()
        draw = rng.random() * total
        acc = 0.0
        for k, p in enumerate(probs):
            acc += p
            if draw <= acc:
                return node.child_events[k] if k < len(node.child_events) else 0
        return 0

    def _pick_best_first(self, node: TreeNode) -> int | None:
        """Unexplored children score Pr * running-average leaf cost; explored
        ones score Pr * their current equivalent cost."""
        best_eid, best_score = None, -1.0
        for k, eid in enumerate(list(node.child_events) + [0]):
            child = node.children.get(eid)
            if child is not None and child.fully_explored():
                continue
            pr = node.child_probs[k] if eid != 0 else node.prob_no_outage
            estimate = (
                child.c_equiv if child is not None and child.visited
                else max(self.avg_leaf_cost, 1.0)
            )
            score = pr * estimate
            if score > best_score + 1e-15:
                best_eid, best_score = eid, score
        return best_eid

    # -- public operations ----------------------------------------------------

    def expand_path(self, budget: SearchBudget, rng: np.random.Generator,
                    attempt: int) -> list | None:
        """Simulate one root-to-termination path, creating missing nodes.

        Returns the visited nodes below the root (leaf last), or None when an
        exhaustive search has nothing left to visit.
        """
        node = self.root
        if not node.visited:
            node.visited = True
            node.first_attempt = attempt
        path: list[TreeNode] = []
        while not node.terminal:
            self._open_node(node)
            if budget.policy == "exhaustive":
                eid = self._pick_exhaustive(node, budget.exhaustive_order)
                if eid is None:
                    return path or None
            elif budget.policy == "probability-sampled":
                eid = self._pick_sampled(node, rng)
            else:
                eid = self._pick_best_first(node)
                if eid is None:
                    return path or None
            node = self._descend(node, eid, attempt)
            path.append(node)
            if not node.visited:
                node.visited = True
        if path:
            leaf_cost = path[-1].c_equiv if path[-1].c_equiv else path[-1].cost
            self._leaves_seen += 1
            self.avg_leaf_cost += (leaf_cost - self.avg_leaf_cost) / self._leaves_seen
        return path


def backward_risk_update(tree: MarkovTree, path: list) -> None:
    """Refresh equivalent costs from the leaf back to the root.

    C'(node) = C(node) + sum over instantiated children of Pr * C'(child);
    recomputation makes replaying an already-visited path a no-op.
    """
    for node in reversed([tree.root] + path):
        total = node.cost
        for child in node.children.values():
            total += child.prob * child.c_equiv
        node.c_equiv = total


@dataclass
class ConvergenceHistory:
    attempts: list = field(default_factory=list)
    r_prime: list = field(default_factory=list)
    gammas: list = field(default_factory=list)  # raw root gradient snapshots


def search(tree: MarkovTree, budget: SearchBudget) -> ConvergenceHistory:
    """Run forward expansion + backward updates `budget.attempts` times.

    With `tree.gradients` the risk-gradient backward pass follows each risk
    update; per-attempt R' and the root gradient accumulator are recorded.
    """
    budget.check_exhaustive_size(int(tree.root.topo.mask.sum()))
    rng = budget.rng()
    history = ConvergenceHistory()
    for attempt in range(1, budget.attempts + 1):
        path = tree.expand_path(budget, rng, attempt)
        if path is None:
            break
        if path:
            backward_risk_update(tree, path)
            if tree.gradients:
                backward_gradient_update(tree, path, attempt)
        history.attempts.append(attempt)
        history.r_prime.append(tree.root.subsequent_risk)
        if tree.gradients:
            history.gammas.append(tree.root.s_accum.copy())
    return history


def dump_tree_csv(tree: MarkovTree, path: str) -> None:
    """One row per node: label, level, Pr, C, C', R', b."""
    with open(path, "w", newline="") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(["label", "level", "prob", "cost", "c_equiv", "r_prime", "visited"])
        for label in sorted(tree.nodes.keys()):
            node = tree.nodes[label]
            writer.writerow(
                [
                    "-".join(str(e) for e in label) or "root",
                    node.level,
                    repr(float(node.prob)),
                    repr(float(node.cost)),
                    repr(float(node.c_equiv)),
                    repr(float(node.subsequent_risk)),
                    int(node.visited),
                ]
            )
