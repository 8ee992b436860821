"""Sparse local jacobians: every `Csr` jacobian a cascade level builds reads
back as the dense matrix of the formulas below, as does the level cost row
`gradient.chain_step` forms from the price rows, every stage cost is its
price row times its state change, the CSR products equal the dense ones, and
no level record keeps a dense n_x x n_x array.

The reference builders keep the dense formulas the level jacobians were
built with before they were sparse, as `test_dispatch_rows.py` keeps its
reference row builders.
"""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrisk import cascade, cases, lp
from gridrisk.assess import AssessmentConfig, run_assessment
from gridrisk.gradient import Csr, chain_step
from gridrisk.network import SystemState, Topology, apply_outage, dc_power_flow


# ---------------------------------------------------------------------------
# Dense reference builders
# ---------------------------------------------------------------------------

def ref_rebalance(case, topo, state):
    """(jacobian, d cost/d state, balanced state) of `cascade._rebalance`,
    dense."""
    n_l, n_x = case.n_load, case.n_x
    p_d, p_g = state.p_load.copy(), state.p_gen.copy()
    jac = np.eye(n_x)
    dcost = np.zeros(n_x)
    for k in range(len(topo.islands)):
        li = np.flatnonzero(topo.load_island == k)
        gi = np.flatnonzero(topo.gen_island == k)
        d_tot = float(p_d[li].sum()) if li.size else 0.0
        g_tot = float(p_g[gi].sum()) if gi.size else 0.0
        if abs(g_tot - d_tot) <= cascade.BALANCE_TOL:
            continue
        lx, gx = li, n_l + gi
        if g_tot < d_tot:
            alpha = g_tot / d_tot
            cd = case.c_load[li]
            rows = np.zeros((li.size, n_x))
            block_dd = -np.outer(p_d[li], np.full(li.size, g_tot / d_tot**2))
            block_dd[np.arange(li.size), np.arange(li.size)] += alpha
            rows[:, lx] = block_dd
            if gi.size:
                rows[:, gx] = np.outer(p_d[li], np.full(gi.size, 1.0 / d_tot))
            step = np.zeros(n_x)
            step[lx] += cd
            step -= cd @ rows
            dcost += step
            jac[lx, :] = rows
            p_d[li] *= alpha
        else:
            m = case.gen_min[gi]
            m_tot = float(m.sum())
            if d_tot >= m_tot and g_tot > m_tot + cascade.BALANCE_TOL:
                beta = (d_tot - m_tot) / (g_tot - m_tot)
                scale, ref = g_tot - m_tot, p_g[gi] - m
                p_g[gi] = m + beta * ref
            else:
                beta = d_tot / g_tot
                scale, ref = g_tot, p_g[gi].copy()
                p_g[gi] *= beta
            rows = np.zeros((gi.size, n_x))
            block_gg = -np.outer(ref, np.full(gi.size, beta / scale))
            block_gg[np.arange(gi.size), np.arange(gi.size)] += beta
            rows[:, gx] = block_gg
            if li.size:
                rows[:, lx] = np.outer(ref, np.full(li.size, 1.0 / scale))
            jac[gx, :] = rows
    return jac, dcost, SystemState(p_d, p_g)


def ref_fast(case, topo, state, initial_trips=()):
    """(jacobian, d cost/d input state) of `cascade.short_timescale_process`,
    composed with dense products."""
    jac_total, dcost_total = np.eye(case.n_x), np.zeros(case.n_x)
    for _ in range(cascade.MAX_FAST_EVENTS):
        jac_step, dcost_step, state = ref_rebalance(case, topo, state)
        dcost_total += dcost_step @ jac_total
        jac_total = jac_step @ jac_total
        flows = dc_power_flow(case, topo, state)
        over = case.branch_ids[topo.mask & (np.abs(flows) > case.trip_factor * case.f_max)]
        if not over.size:
            return jac_total, dcost_total
        topo = apply_outage(case, topo, over.tolist())
    dcost_total += case.c_load @ jac_total[: case.n_load, :]
    return np.zeros((case.n_x, case.n_x)), dcost_total


def ref_target(case, matrix, fallback):
    n_l, n_x = case.n_load, case.n_x
    jac = np.zeros((n_x, n_x))
    if fallback:
        jac[n_l:, n_l:] = np.eye(case.n_gen)
    else:
        jac[:, :n_l] = matrix[:n_x, :]
    return jac


def ref_execute(case, matrix, x_prime, x):
    """(d x/d x*, d x/d x', d C_R/d x*, d C_R/d x') of a normal execution
    from x' to x, C_R = c_D'(P'_d - P_d) + c_G'|P_g - P'_g| with the sign of
    a move within 1e-9 MW taken as 0."""
    n_x = case.n_x
    jac_star, jac_prime = matrix[:n_x, :n_x].copy(), matrix[:n_x, n_x:].copy()
    move = x.p_gen - x_prime.p_gen
    w = np.concatenate([-case.c_load, case.c_gen * np.sign(np.where(np.abs(move) <= 1e-9,
                                                                    0.0, move))])
    return jac_star, jac_prime, w @ jac_star, w @ jac_prime - w


# ---------------------------------------------------------------------------
# Level records against the references
# ---------------------------------------------------------------------------

def _close(actual, desired):
    """Equal up to the roundoff of a different summation order."""
    scale = max(1.0, float(np.abs(desired).max(initial=0.0)))
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * scale)


def assert_price_identity(tree):
    """Every recorded level's fast cost is `fast.price @ (x' - x_in)` and its
    execution cost `execute.price @ (x - x')`, within 1e-9 of the summed
    |terms| plus 1e-9 $/MW of c_G per unit: a generator move within 1e-9 MW
    has no sign, so the price leaves its cost out."""
    dead_band = 1e-9 * float(tree.case.c_gen.sum())
    for label, node in tree.nodes.items():
        rec = node.record
        if rec is None:
            continue
        x_in, x_prime = tree.nodes[label[:-1]].state.x, rec.fast.final_state.x
        for cost, price, change in ((rec.fast.cost, rec.fast.price, x_prime - x_in),
                                    (rec.execute.cost, rec.execute.price,
                                     rec.x_next.x - x_prime)):
            terms = price * change
            assert abs(cost - terms.sum()) <= 1e-9 * np.abs(terms).sum() + dead_band, label


@pytest.fixture()
def sensitivity_matrices(monkeypatch):
    """id(solution) -> (solution, sensitivity matrix) of every sensitivity
    solved; the solution is kept so that its id stays unique."""
    seen = {}
    inner = lp.solution_sensitivity

    def recorded(prob, sol):
        sens = inner(prob, sol)
        seen[id(sol)] = (sol, sens.matrix)
        return sens

    monkeypatch.setattr(lp, "solution_sensitivity", recorded)
    return seen


LEVEL_RUNS = {
    "toy6-3": ("toy6", {3}, dict(t_max=30.0, attempts=400, policy="exhaustive"), None),
    "toy6-2-4": ("toy6", {2, 4}, dict(t_max=30.0, attempts=400, policy="exhaustive"), None),
    # rts96 {85,92,93}: the level after outage 88 falls back and sheds
    "rts96-fallback": ("rts96", {85, 92, 93}, dict(attempts=40, seed=1), None),
    # one fast-process round only: every level that trips a branch truncates
    "rts96-truncated": ("rts96", {22, 23, 24}, dict(attempts=10, seed=1), 1),
}


@pytest.mark.parametrize("run", LEVEL_RUNS)
def test_level_jacobians_match_dense_formulas(run, sensitivity_matrices, monkeypatch):
    name, outages, settings_, max_events = LEVEL_RUNS[run]
    if max_events is not None:
        monkeypatch.setattr(cascade, "MAX_FAST_EVENTS", max_events)
    case = getattr(cases, name)()   # a fresh case: every LP solves its sensitivity here
    a = run_assessment(case, outages, AssessmentConfig(**settings_))
    flags = {"fallback": 0, "emergency": 0, "truncated": 0}
    for label, node in a.tree.nodes.items():
        rec = node.record
        if rec is None:
            continue
        parent = a.tree.nodes[label[:-1]]
        topo = parent.topo
        if rec.event_id:
            topo = apply_outage(case, topo, {rec.event_id})
        trips = (rec.event_id,) if rec.event_id else ()
        jac, dcost = ref_fast(case, topo, parent.state, trips)
        _close(rec.fast.jac.toarray(), jac)

        tgt, exe = rec.target, rec.execute
        matrix = None if tgt.fallback else sensitivity_matrices[id(tgt.sol)][1]
        jac_target = ref_target(case, matrix, tgt.fallback)
        np.testing.assert_array_equal(tgt.jac.toarray(), jac_target)
        if exe.emergency:
            jac_prime, dcost_prime, _ = ref_rebalance(case, rec.topo, rec.fast.final_state)
            jac_star, dcost_star = np.zeros((case.n_x, case.n_x)), np.zeros(case.n_x)
        else:
            jac_star, jac_prime, dcost_star, dcost_prime = ref_execute(
                case, sensitivity_matrices[id(exe.sol)][1], rec.fast.final_state, exe.state)
        np.testing.assert_array_equal(exe.jac_star.toarray(), jac_star)
        np.testing.assert_array_equal(exe.jac_prime.toarray(), jac_prime)
        # the level cost row against the input state, from the identity chain
        _close(chain_step(rec, np.eye(case.n_x))[1],
               dcost + (dcost_prime + dcost_star @ jac_target) @ jac)
        flags["fallback"] += tgt.fallback
        flags["emergency"] += exe.emergency
        flags["truncated"] += rec.fast.truncated
    if run == "rts96-fallback":
        assert flags["fallback"] and flags["emergency"]
    if run == "rts96-truncated":
        assert flags["truncated"]
    assert_price_identity(a.tree)
    _close(a.gamma, a.tree.root.s_accum @ a.exec_sensitivity.toarray())


def _arrays(obj, seen):
    """Every ndarray a level record holds, through its dataclasses, lists and
    `Csr` matrices; topologies belong to the case's cache and are skipped."""
    if id(obj) in seen or isinstance(obj, Topology):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item, seen)


def test_level_records_hold_no_dense_square_matrix():
    case = cases.ring120()
    a = run_assessment(case, {1}, AssessmentConfig(tau_d=15.0, t_max=45.0, attempts=10,
                                                   policy="probability-sampled", seed=5))
    records = [node.record for node in a.tree.nodes.values() if node.record is not None]
    assert len(records) > 5
    assert isinstance(a.exec_sensitivity, Csr)
    sizes = [arr.size for rec in records for arr in _arrays(rec, set())]
    assert max(sizes) < case.n_x ** 2
    assert all(isinstance(rec.fast.jac, Csr) and isinstance(rec.target.jac, Csr)
               for rec in records)


# ---------------------------------------------------------------------------
# CSR products against dense products
# ---------------------------------------------------------------------------

@st.composite
def matrices(draw, rows, cols):
    """A dense (rows, cols) matrix: sparse random (often with empty rows),
    all zero, or (when square) the identity."""
    kind = draw(st.sampled_from(["sparse", "zeros", "identity"] if rows == cols
                                else ["sparse", "zeros"]))
    if kind == "zeros":
        return np.zeros((rows, cols))
    if kind == "identity":
        return np.eye(rows)
    values = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                           min_size=rows * cols, max_size=rows * cols))
    keep = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return np.where(np.reshape(keep, (rows, cols)), np.reshape(values, (rows, cols)), 0.0)


def _assert_product(actual, a, b):
    """`actual` equals a @ b within 1e-12 of the sum of |terms| per entry."""
    bound = 1e-12 * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(actual - a @ b) <= bound)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_csr_products_match_dense(data):
    m, k, n = (data.draw(st.integers(1, 7)) for _ in range(3))
    a = data.draw(matrices(m, k))
    b = data.draw(matrices(k, n))
    x = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=k * n, max_size=k * n)))
    v = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)))
    x = x.reshape(k, n)
    a_csr, b_csr = Csr.from_dense(a), Csr.from_dense(b)
    assert a_csr.toarray().tobytes() == (a + 0.0).tobytes()
    assert a_csr.nnz == np.count_nonzero(a)
    _assert_product(a_csr @ x, a, x)
    _assert_product(a_csr @ x[:, 0], a, x[:, 0])
    _assert_product(v @ a_csr, v, a)
    # v @ A is the sum np.bincount forms, in the same order
    weights = np.repeat(v, np.diff(a_csr.indptr)) * a_csr.data
    assert (v @ a_csr).tobytes() == np.bincount(a_csr.indices, weights=weights,
                                                minlength=k).tobytes()
    product = a_csr @ b_csr
    assert isinstance(product, Csr) and product.shape == (m, n)
    _assert_product(product.toarray(), a, b)


@pytest.mark.parametrize("indptr, indices, dtype, shape", [
    ([0, 2], [0], np.intp, (1, 2)),     # indptr ends past the entries
    ([1, 1], [0], np.intp, (1, 2)),     # indptr starts past 0
    ([0, 1], [0], np.intp, (2, 2)),     # indptr of the wrong length
    ([0, 1], [0], np.int32, (1, 2)),    # indices not np.intp
])
def test_inconsistent_csr_arrays_rejected(indptr, indices, dtype, shape):
    # the compiled kernels would read or write outside the arrays
    with pytest.raises(ValueError, match="inconsistent CSR arrays"):
        Csr(np.array(indptr, np.intp), np.array(indices, dtype), np.ones(len(indices)), shape)
