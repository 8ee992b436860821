"""Risk-gradient machinery: forward sensitivity chains along cascade paths,
the backward per-path gradient recursion with persistent node accumulators,
the projection into control (target-state) space, convergence indices, the
`Csr` sparse matrix every local Jacobian is kept in, and thresholded
compressed storage for the chain matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._ext import load_scipy_extension

if TYPE_CHECKING:
    from .cascade import LevelRecord

_sparsetools = load_scipy_extension("scipy.sparse._sparsetools")


# ---------------------------------------------------------------------------
# Sparse matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Csr:
    """A read-only matrix in compressed sparse row form: row i holds the
    entries `data[indptr[i]:indptr[i+1]]` in columns `indices[...]`, and
    every other entry reads +0.0.

    `A @ X` (X dense, 1-D or 2-D) and `A @ B` (B a `Csr`) run scipy's
    compiled CSR kernels. `v @ A` (v 1-D) runs the CSC kernel on the same
    arrays, which read as CSC are A's transpose; it adds the products
    v[i] A[i, j] into each column in row order, the sum
    `np.bincount(indices, weights=np.repeat(v, np.diff(indptr)) * data)`
    forms, bit for bit.

    The constructors below keep what the kernels assume and do not check:
    indptr nondecreasing, every column index in range and no position twice.
    A direct construction is checked as `scipy.sparse` checks one by default:
    `np.intp` index arrays, float data, their lengths and the ends of indptr.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    __array_ufunc__ = None   # numpy hands `ndarray @ Csr` to __rmatmul__

    def __post_init__(self):
        ip, ix, d = self.indptr, self.indices, self.data
        if not (ip.dtype == ix.dtype == np.intp and d.dtype == np.float64
                and ip.shape == (self.shape[0] + 1,) and ix.shape == d.shape
                and ip[0] == 0 and ip[-1] == d.size):
            raise ValueError(f"inconsistent CSR arrays for shape {self.shape}")
        ip.flags.writeable = ix.flags.writeable = d.flags.writeable = False

    @classmethod
    def from_coo(cls, rows, cols, values, shape) -> Csr:
        """Entry (rows[k], cols[k]) = values[k] for each k, no position twice."""
        order = np.argsort(rows, kind="stable")
        return cls._from_sorted(rows[order], cols[order].astype(np.intp, copy=False),
                                values[order].astype(float, copy=False), shape)

    @classmethod
    def from_dense(cls, block: np.ndarray, shape=None, keep=None) -> Csr:
        """The nonzero entries of float `block` (those where `keep` is True,
        when given) at their positions in a matrix of `shape`, by default
        `block.shape`."""
        rows, cols = (block if keep is None else keep).nonzero()   # strided views
        return cls._from_sorted(rows, cols.copy(), block[rows, cols], shape or block.shape)

    @classmethod
    def _from_sorted(cls, rows, cols, values, shape) -> Csr:
        return cls(np.searchsorted(rows, np.arange(shape[0] + 1)), cols, values, shape)

    @classmethod
    def zeros(cls, shape) -> Csr:
        return cls(np.zeros(shape[0] + 1, np.intp), np.zeros(0, np.intp), np.zeros(0), shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return dense

    def __matmul__(self, other):
        m, n = self.shape
        if isinstance(other, Csr):
            return self._matmat(other)
        x = np.ascontiguousarray(other, dtype=float)
        if x.shape[:1] != (n,) or x.ndim > 2:
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {x.shape}")
        out = np.zeros((m,) + x.shape[1:])
        _sparsetools.csr_matvecs(m, n, x.shape[1] if x.ndim == 2 else 1, self.indptr,
                                 self.indices, self.data, x.ravel(), out.ravel())
        return out

    def __rmatmul__(self, other) -> np.ndarray:
        m, n = self.shape
        v = np.ascontiguousarray(other, dtype=float)
        if v.shape != (m,):
            raise ValueError(f"cannot multiply shape {v.shape} by a {self.shape} matrix")
        out = np.zeros(n)
        _sparsetools.csc_matvec(n, m, self.indptr, self.indices, self.data, v, out)
        return out

    def _matmat(self, other: Csr) -> Csr:
        (m, k), (k2, n) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"cannot multiply a {self.shape} by a {other.shape} matrix")
        size = _sparsetools.csr_matmat_maxnnz(m, n, self.indptr, self.indices,
                                              other.indptr, other.indices)
        indptr = np.empty(m + 1, np.intp)
        indices = np.empty(size, np.intp)
        data = np.empty(size)
        _sparsetools.csr_matmat(m, n, self.indptr, self.indices, self.data,
                                other.indptr, other.indices, other.data, indptr, indices, data)
        used = int(indptr[-1])   # the kernel drops products that sum to zero
        if used < size:
            indices, data = indices[:used].copy(), data[:used].copy()
        return Csr(indptr, indices, data, (m, n))


# ---------------------------------------------------------------------------
# Compressed storage
# ---------------------------------------------------------------------------

def compress(matrix: np.ndarray, threshold: float) -> Csr:
    """Storage keeping only the nonzero entries with |value| >= threshold (0
    keeps the matrix lossless, but for the sign of its zeros).

    Chain sensitivity matrices are dominated by near-zero entries on large
    systems (typically well under 1% of entries exceed 1e-3 and under 10%
    exceed 1e-5 in magnitude), so thresholded storage cuts memory by an order
    of magnitude while leaving the projected gradient direction intact.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be >= 0")
    return Csr.from_dense(matrix, keep=np.abs(matrix) >= threshold if threshold > 0 else None)


def maybe_compress(matrix: np.ndarray, threshold: float | None):
    return matrix if threshold is None else compress(matrix, threshold)


def to_dense(stored) -> np.ndarray:
    return stored.toarray() if isinstance(stored, Csr) else stored


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


def control_gradient(s0: np.ndarray, exec_sensitivity) -> np.ndarray:
    """Project the root state gradient into the control (target) space;
    `exec_sensitivity` is a `Csr` or a dense matrix."""
    return np.asarray(s0) @ exec_sensitivity


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
