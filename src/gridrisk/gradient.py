"""Risk-gradient machinery: forward sensitivity chains along cascade paths,
the backward per-path gradient recursion with persistent node accumulators,
the projection into control (target-state) space, convergence indices, and
thresholded compressed storage for the chain matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .cascade import LevelRecord


# ---------------------------------------------------------------------------
# Compressed storage
# ---------------------------------------------------------------------------

@dataclass
class CompressedMatrix:
    """Sparse storage keeping only entries with |value| >= threshold.

    Chain sensitivity matrices are dominated by near-zero entries on large
    systems (typically well under 1% of entries exceed 1e-3 and under 10%
    exceed 1e-5 in magnitude), so thresholded storage cuts memory by an order
    of magnitude while leaving the projected gradient direction intact.
    """

    data: sp.csr_matrix
    threshold: float

    @property
    def nnz(self) -> int:
        return int(self.data.nnz)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def to_dense(self) -> np.ndarray:
        return self.data.toarray()


def compress(matrix: np.ndarray, threshold: float) -> CompressedMatrix:
    """Drop entries below the absolute threshold (0 keeps the matrix lossless)."""
    if not threshold >= 0:
        raise ValueError("threshold must be >= 0")
    kept = np.where(np.abs(matrix) >= threshold, matrix, 0.0) if threshold > 0 else matrix
    return CompressedMatrix(data=sp.csr_matrix(kept), threshold=threshold)


def maybe_compress(matrix: np.ndarray, threshold: float | None):
    return matrix if threshold is None else compress(matrix, threshold)


def to_dense(stored) -> np.ndarray:
    return stored.to_dense() if isinstance(stored, CompressedMatrix) else stored


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
    if rec.jac_prime is None:
        raise ValueError("level record was simulated without jacobians")
    if rec.jac_prime.shape != (n, n):
        raise ValueError("level record dimensions do not match the chain")
    x_prime = rec.jac_prime @ x_parent
    x_star = rec.jac_star @ x_prime
    x_next = rec.jac_exec_star @ x_star + rec.jac_exec_prime @ x_prime
    dcost = rec.dcf_dx @ x_parent + rec.dcr_dxprime @ x_prime + rec.dcr_dxstar @ x_star
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


def first_stable_below(values: list, level: float) -> int | None:
    """1-based index from which the sequence stays below `level` (None if never)."""
    idx = None
    for i, v in enumerate(values):
        if v is None or v >= level:
            idx = None
        elif idx is None:
            idx = i + 1
    return idx
