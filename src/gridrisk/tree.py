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
import numpy.random  # noqa: F401  (numpy loads it lazily: at import, not in the first search)

from . import cascade
from .gradient import backward_gradient_update, chain_step, maybe_compress, to_dense
from .network import NetworkCase, SystemState, Topology

MAX_EXHAUSTIVE_NODES = 200_000
BEST_FIRST_RTOL = 1e-9   # best-first scores this close (relative) are a tie


def check_exhaustive_size(depth: int, n_elements: int) -> None:
    """Refuse an exhaustive search over more than `MAX_EXHAUSTIVE_NODES`
    labels, counted as (elements+1)^depth."""
    # (n+1)^depth multiplied out only until it passes the bound: a depth of
    # millions would otherwise build a huge integer (n = 0 leaves it at 1)
    labels = 1
    for _ in range(depth if n_elements else 0):
        labels *= n_elements + 1
        if labels > MAX_EXHAUSTIVE_NODES:
            raise ValueError(
                f"exhaustive search over {n_elements + 1}^{depth} labels "
                f"exceeds the {MAX_EXHAUSTIVE_NODES} node bound"
            )


@dataclass
class TreeNode:
    label: tuple
    level: int
    prob: float                     # conditional probability from the parent
    cost: float                     # C
    state: SystemState
    topo: Topology
    c_equiv: float = 0.0            # C'
    terminal: bool = False
    children: dict = field(default_factory=dict)
    record: cascade.LevelRecord | None = None
    # gradient bookkeeping (None when gradients are disabled)
    chain_x: object | None = None       # d x^{(level)} / d x^{(0)}
    dcost_dx0: np.ndarray | None = None
    dprob_dx0: np.ndarray | None = None  # none at the root, nobody's child
    s_accum: np.ndarray | None = None   # dC'/dx0 of this node
    # children distribution, filled on first expansion past this node: the
    # outage events then the no-outage event 0, with their probabilities and
    # d Pr / d x0 rows in the same order
    child_ids: list | None = None
    child_probs: np.ndarray | None = None
    dpr_dx0: np.ndarray | None = None
    # cached True result of fully_explored()
    _explored: bool = field(default=False, init=False, repr=False)

    @property
    def subsequent_risk(self) -> float:
        return self.c_equiv - self.cost

    def fully_explored(self) -> bool:
        """Every path below has reached a terminal node.

        `terminal` and `children` only ever grow, so once True the answer
        stays True and is cached instead of re-walking the subtree.
        """
        if self._explored:
            return True
        if self.terminal:
            self._explored = True
        elif self.child_ids is not None:
            self._explored = all(
                (child := self.children.get(eid)) is not None and child.fully_explored()
                for eid in self.child_ids
            )
        return self._explored


class MarkovTree:
    """Node arena keyed by outage-sequence labels, rooted at the post-control
    state. Holds the chain storage policy and its entry counts."""

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
            label=(), level=0, prob=1.0, cost=0.0,
            state=root_state, topo=topo,
            terminal=cascade.is_fully_shed(root_state),
        )
        if gradients:
            eye = np.eye(case.n_x)
            self.root.chain_x = self._store(eye)
            self.root.dcost_dx0 = np.zeros(case.n_x)
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
        if node.child_ids is not None or node.terminal:
            return
        ids = cascade.in_service_ids(self.case, node.topo)
        flows = cascade.dc_power_flow(self.case, node.topo, node.state)
        lam, dlam_df = cascade.failure_rates(self.case, node.topo, flows)
        probs, pr_no = cascade.level_probabilities(lam[node.topo.mask], self.tau_d)
        kept = np.append(np.flatnonzero(probs > 0.0), probs.size)  # then no-outage
        node.child_ids = [ids[i] for i in kept[:-1]] + [0]
        node.child_probs = np.append(probs, pr_no)[kept]
        if self.gradients:
            dpr_dx = cascade.probability_sensitivity(
                self.case, node.topo, lam, dlam_df, self.tau_d
            )
            node.dpr_dx0 = dpr_dx[kept, :] @ to_dense(node.chain_x)

    def _make_child(self, node: TreeNode, k: int) -> TreeNode:
        """Simulate the level below `node` for its k-th child event."""
        event_id = node.child_ids[k]
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
            label=label, level=level, prob=float(node.child_probs[k]), cost=rec.cost,
            state=rec.x_next, topo=rec.topo,
            terminal=terminal, record=rec,
        )
        if self.gradients:
            x_parent = to_dense(node.chain_x)
            x_next, dcost = chain_step(rec, x_parent)
            child.chain_x = self._store(x_next)
            child.dcost_dx0 = dcost
            child.dprob_dx0 = node.dpr_dx0[k, :]
        node.children[event_id] = child
        self.nodes[label] = child
        return child

    # -- policies -----------------------------------------------------------

    # Each policy returns an index into `node.child_ids`, or None when it
    # has nothing left to visit.

    def _pick_exhaustive(self, node: TreeNode) -> int | None:
        for k, eid in enumerate(node.child_ids):
            child = node.children.get(eid)
            if child is None or not child.fully_explored():
                return k
        return None

    def _pick_sampled(self, node: TreeNode, rng: np.random.Generator) -> int:
        probs = node.child_probs
        draw = rng.random() * probs.sum()
        acc = 0.0
        for k, p in enumerate(probs):
            acc += p
            if draw <= acc:
                return k
        return len(probs) - 1

    def _pick_best_first(self, node: TreeNode) -> int | None:
        """Unexplored children score Pr * running-average leaf cost; explored
        ones score Pr * their current equivalent cost. Scores within
        `BEST_FIRST_RTOL` of the best so far are a tie, which the first child
        in order wins, so last-bit roundoff does not pick the child."""
        best_k, best_score = None, -1.0
        for k, (eid, pr) in enumerate(zip(node.child_ids, node.child_probs)):
            child = node.children.get(eid)
            if child is not None and child.fully_explored():
                continue
            estimate = child.c_equiv if child is not None else max(self.avg_leaf_cost, 1.0)
            score = pr * estimate
            if score > best_score + BEST_FIRST_RTOL * abs(best_score):
                best_k, best_score = k, score
        return best_k

    # -- public operations ----------------------------------------------------

    def expand_path(self, config, rng: np.random.Generator) -> list | None:
        """Simulate one root-to-termination path, creating missing nodes.

        Returns the visited nodes below the root (leaf last), an empty list
        when the root is terminal, or None when an exhaustive or best-first
        search has nothing left to visit.
        """
        node = self.root
        path: list[TreeNode] = []
        while not node.terminal:
            self._open_node(node)
            if config.policy == "probability-sampled":
                k = self._pick_sampled(node, rng)
            elif config.policy == "exhaustive":
                k = self._pick_exhaustive(node)
            else:
                k = self._pick_best_first(node)
            if k is None:
                return path or None
            node = node.children.get(node.child_ids[k]) or self._make_child(node, k)
            path.append(node)
        if path:
            leaf_cost = path[-1].c_equiv if path[-1].c_equiv else path[-1].cost
            self._leaves_seen += 1
            self.avg_leaf_cost += (leaf_cost - self.avg_leaf_cost) / self._leaves_seen
        return path


def backward_risk_update(tree: MarkovTree, path: list) -> None:
    """Refresh C' and, with `tree.gradients`, S = dC'/dx0 from the leaf back
    to the root, both in one step per node.

    C'(node) = C(node) + sum over instantiated children of Pr * C'(child), and
    S(node) is its derivative, `backward_gradient_update`; recomputation makes
    replaying an already-visited path a no-op.
    """
    for node in reversed([tree.root] + path):
        total = node.cost
        for child in node.children.values():
            total += child.prob * child.c_equiv
        node.c_equiv = total
        if tree.gradients:
            node.s_accum = backward_gradient_update(node)


@dataclass
class ConvergenceHistory:
    attempts: list = field(default_factory=list)
    r_prime: list = field(default_factory=list)
    gammas: list = field(default_factory=list)  # raw root gradient snapshots


def search(tree: MarkovTree, config) -> ConvergenceHistory:
    """Run forward expansion + backward updates `config.attempts` times, as
    `config` (an `assess.AssessmentConfig`) sets them.

    Each attempt's one backward walk refreshes C' and, with `tree.gradients`,
    S; per-attempt R' and the root gradient dR'/dx0 are recorded.
    The search stops early when nothing is left to visit, and after the
    first attempt when the root is terminal (that attempt is recorded).
    """
    if config.policy == "exhaustive":
        check_exhaustive_size(tree.depth, int(tree.root.topo.mask.sum()))
    rng = np.random.default_rng(config.seed)
    history = ConvergenceHistory()
    for attempt in range(1, config.attempts + 1):
        path = tree.expand_path(config, rng)
        if path is None:
            break
        backward_risk_update(tree, path)
        history.attempts.append(attempt)
        history.r_prime.append(tree.root.subsequent_risk)
        if tree.gradients:
            history.gammas.append(tree.root.s_accum.copy())
        if not path:   # a terminal root
            break
    return history


def dump_tree_csv(tree: MarkovTree, path: str) -> None:
    """One row per node: label, level, Pr, C, C', R' and `visited`, always 1."""
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
                    1,
                ]
            )
