"""Risk-gradient machinery: forward sensitivity chains along cascade paths,
the backward per-path gradient recursion with persistent node accumulators,
the projection into control (target-state) space, convergence indices, and
thresholded compressed storage for the chain matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import LevelRecord


# ---------------------------------------------------------------------------
# Compressed storage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Compressed:
    """A matrix kept as the flat positions and values of its stored entries;
    every other entry reads back as +0.0, as from a CSR matrix."""

    index: np.ndarray
    values: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return self.index.size

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense.flat[self.index] = self.values
        return dense


def compress(matrix: np.ndarray, threshold: float) -> Compressed:
    """Storage keeping only the nonzero entries with |value| >= threshold (0
    keeps the matrix lossless, but for the sign of its zeros).

    Chain sensitivity matrices are dominated by near-zero entries on large
    systems (typically well under 1% of entries exceed 1e-3 and under 10%
    exceed 1e-5 in magnitude), so thresholded storage cuts memory by an order
    of magnitude while leaving the projected gradient direction intact.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be >= 0")
    flat = matrix.ravel()
    index = np.flatnonzero(np.abs(flat) >= threshold if threshold > 0 else flat)
    return Compressed(index, flat[index], matrix.shape)


def maybe_compress(matrix: np.ndarray, threshold: float | None):
    return matrix if threshold is None else compress(matrix, threshold)


def to_dense(stored) -> np.ndarray:
    return stored.toarray() if isinstance(stored, Compressed) else stored


# ---------------------------------------------------------------------------
# Forward chain
# ---------------------------------------------------------------------------

def chain_step(rec: LevelRecord, x_parent: np.ndarray):
    """Advance the root-referenced chain across one level.

    x' chains through the fast process, the target through the planning LP,
    the executed state through both execution-LP blocks; the level cost row
    combines the fast-cost row (at the parent state) with the re-dispatch
    cost rows (at this level's post-outage and target states).
    """
    n = x_parent.shape[0]
    fast, exe = rec.fast, rec.execute
    if fast.jac is None:
        raise ValueError("level record was simulated without jacobians")
    if fast.jac.shape != (n, n):
        raise ValueError("level record dimensions do not match the chain")
    x_prime = fast.jac @ x_parent
    x_star = rec.target.jac @ x_prime
    x_next = exe.jac_star @ x_star + exe.jac_prime @ x_prime
    dcost = fast.dcost_dx @ x_parent + exe.dcost_dxprime @ x_prime + exe.dcost_dxstar @ x_star
    return x_prime, x_star, x_next, dcost


# ---------------------------------------------------------------------------
# Backward gradient accumulation
# ---------------------------------------------------------------------------

def backward_gradient_update(tree, path: list, attempt: int) -> np.ndarray:
    """One backward pass of the risk-gradient recursion along a path.

    Walking leaf -> root with b(r) = 1 iff the node was first visited this
    attempt:

        S(n)  = b(n) dC(n)/dx0
        dC(n) = b(n) C(n)
        S(r)  = b(r) dC(r)/dx0 + Pr(r+1) S(r+1) + dC(r+1) dPr(r+1)/dx0
        dC(r) = b(r) C(r) + Pr(r+1) dC(r+1)
        S(0)  = Pr(1) S(1) + dC(1) dPr(1)/dx0    (the root carries no cost)

    Each level's path-local S is added into the node's persistent accumulator;
    the root accumulator converges to dR'/dx0 and is exact (independent of
    visit order) once every node has been visited.
    """
    n_x = tree.case.n_x
    if not path:
        return np.zeros(n_x)
    s_child = None
    dc_child = 0.0
    pr_child = 0.0
    dpr_child = np.zeros(n_x)
    for node in reversed(path):
        b = 1.0 if node.first_attempt == attempt else 0.0
        if s_child is None:  # path end
            s_here = b * node.dcost_dx0
            dc_here = b * node.cost
        else:
            s_here = b * node.dcost_dx0 + pr_child * s_child + dc_child * dpr_child
            dc_here = b * node.cost + pr_child * dc_child
        node.s_accum += s_here
        s_child, dc_child = s_here, dc_here
        pr_child, dpr_child = node.prob, node.dprob_dx0
    s_root = pr_child * s_child + dc_child * dpr_child
    tree.root.s_accum += s_root
    return s_root


def control_gradient(s0: np.ndarray, exec_sensitivity: np.ndarray) -> np.ndarray:
    """Project the root state gradient into the control (target) space."""
    return np.asarray(s0) @ np.asarray(exec_sensitivity)


# ---------------------------------------------------------------------------
# Convergence indices
# ---------------------------------------------------------------------------

def convergence_indices(gammas: list, reference: np.ndarray):
    """Normalized distance and direction-distance of each snapshot from the
    reference gradient; entries are None where a denominator vanishes."""
    ref = np.asarray(reference, dtype=float)
    ref_norm = float(np.linalg.norm(ref))
    base = float(np.linalg.norm(np.asarray(gammas[0]) - ref)) if gammas else 0.0
    deltas, deltas_dir = [], []
    for g in gammas:
        g = np.asarray(g, dtype=float)
        deltas.append(float(np.linalg.norm(g - ref)) / base if base > 0 else None)
        g_norm = float(np.linalg.norm(g))
        if g_norm > 0 and ref_norm > 0:
            deltas_dir.append(float(np.linalg.norm(g / g_norm - ref / ref_norm)))
        else:
            deltas_dir.append(None)
    return deltas, deltas_dir
