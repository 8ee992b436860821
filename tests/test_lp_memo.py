"""The per-topology memo of the dispatch LPs (`cascade._solve_dispatch_lp`).

A memo hit must be indistinguishable from solving the LP again: runs with
the memo match runs that solve every LP and recompute every jacobian node
for node, each distinct LP is solved once, two LPs the memo treats as one
are the same LP, and the jacobians the memo shares are read-only and kept
as long as the case, so a repeated run solves and differentiates nothing.
"""

import itertools

import numpy as np
import pytest

from gridrisk import assess, cascade, cases, lp, management
from gridrisk.assess import AssessmentConfig, run_assessment
from gridrisk.management import RmConfig, irm

TOY6_IRM = AssessmentConfig(tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=1)
RTS96_SAMPLED = AssessmentConfig(attempts=40, seed=1, gradients=False)
TOY6_OUTAGES = [set(o) for k in (1, 2) for o in itertools.combinations(range(1, 7), k)]


def always_solve(topo, key, build, derive=None):
    """`cascade._solve_dispatch_lp` without the memo: every call builds and
    solves its LP and, when jacobians are asked for, recomputes them."""
    prob = build()
    sol = lp.solve_lp(prob)
    if derive is None or not sol.optimal:
        return sol, None
    return sol, derive(lp.solution_sensitivity(prob, sol).matrix)


def assessments_of(run, monkeypatch):
    """Every `Assessment` that `run()` builds, in order."""
    seen = []

    def record(*args, **kwargs):
        seen.append(run_assessment(*args, **kwargs))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(management, "run_assessment", record)
        run()
    return seen


def assert_same_nodes(got, want):
    assert got.tree.nodes.keys() == want.tree.nodes.keys()
    assert got.x_root.x.tobytes() == want.x_root.x.tobytes()
    for label, node in want.tree.nodes.items():
        other = got.tree.nodes[label]
        for name in ("prob", "cost", "c_equiv", "subsequent_risk", "first_attempt"):
            assert getattr(other, name) == getattr(node, name), (label, name)
        assert other.state.x.tobytes() == node.state.x.tobytes(), label
        if node.record is not None:
            assert other.record.signature == node.record.signature, label
        if want.tree.gradients:
            assert np.array_equal(other.s_accum, node.s_accum), label
    if want.gamma is not None:
        assert got.gamma.tobytes() == want.gamma.tobytes()


@pytest.mark.parametrize("name, outages, config", [
    *[pytest.param("toy6", o, TOY6_IRM, id="toy6-irm-" + ",".join(map(str, sorted(o))))
      for o in TOY6_OUTAGES],
    pytest.param("rts96", {22, 23, 24}, RTS96_SAMPLED, id="rts96-sampled"),
])
def test_memo_matches_solving_every_lp(name, outages, config, monkeypatch):
    def run():
        case = getattr(cases, name)()
        if config.gradients:
            irm(case, outages, RmConfig(assessment=config))
        else:
            management.run_assessment(case, outages, config)

    with_memo = assessments_of(run, monkeypatch)
    monkeypatch.setattr(cascade, "_solve_dispatch_lp", always_solve)
    without = assessments_of(run, monkeypatch)
    assert len(with_memo) == len(without) >= 1
    for got, want in zip(with_memo, without):
        assert_same_nodes(got, want)


def test_each_lp_solved_once(monkeypatch):
    """A toy6 IRM run solves exactly its memo entries plus its RM LPs, and
    runs `base_state`, with its intact-network target LP, once."""
    case = cases.toy6()
    solves, rm_builds, base_solves = [], [], []
    solve, build_rm, base_state = lp.solve_lp, management.build_rm, assess.base_state

    def counting_solve(prob):
        solves.append(prob)
        return solve(prob)

    def counting_build_rm(*args):
        rm_builds.append(args)
        return build_rm(*args)

    def counting_base_state(*args):
        before = len(solves)
        state = base_state(*args)
        base_solves.append(len(solves) - before)
        return state

    monkeypatch.setattr(lp, "solve_lp", counting_solve)
    monkeypatch.setattr(management, "build_rm", counting_build_rm)
    monkeypatch.setattr(assess, "base_state", counting_base_state)
    trajectory = irm(case, {2, 5}, RmConfig(assessment=TOY6_IRM))
    assert len(trajectory.rounds) >= 2 and rm_builds
    entries = sum(len(topo.lp_memo) for topo in case._topo_cache.values())
    assert len(solves) == entries + len(rm_builds)
    assert base_solves == [1]


@pytest.mark.parametrize("name, outages, config", [
    pytest.param("toy6", {2, 5}, TOY6_IRM, id="toy6-irm"),
    pytest.param("rts96", {22, 23, 24}, RTS96_SAMPLED, id="rts96-sampled"),
])
def test_one_memo_entry_is_one_lp(name, outages, config, monkeypatch):
    """LPs the memo answers with one solution have equal costs and matrices,
    the parts its key leaves out, and equal keyed vectors. The LP is built
    here on every call, hit or miss, to compare it."""
    calls = []
    memoized = cascade._solve_dispatch_lp

    def record(topo, key, build, derive=None):
        result = memoized(topo, key, build, derive)
        calls.append((build(), result[0]))
        return result

    monkeypatch.setattr(cascade, "_solve_dispatch_lp", record)
    case = getattr(cases, name)()
    if config.gradients:
        irm(case, outages, RmConfig(assessment=config))
    else:
        run_assessment(case, outages, config)
    groups = {}
    for prob, sol in calls:
        groups.setdefault(id(sol), []).append(prob)
    assert len(groups) < len(calls)
    for probs in groups.values():
        first = probs[0]
        for prob in probs[1:]:
            for field in ("c", "a_eq", "a_in", "lb_in", "b_eq", "b_in", "lo", "hi"):
                assert np.array_equal(getattr(prob, field), getattr(first, field)), field


def test_hit_returns_the_same_read_only_jacobians():
    """A memo hit hands back the jacobian arrays of the first call, which no
    caller can write into."""
    case = cases.toy6()
    fast = assess.pre_control(case, {1})
    topo, x = fast.final_topology, fast.final_state
    tgt = cascade.dispatch_target(case, topo, x)
    exe = cascade.dispatch_execute(case, topo, x, tgt.x_star, 15.0)
    assert not tgt.fallback and not exe.emergency
    tgt_again = cascade.dispatch_target(case, topo, x)
    exe_again = cascade.dispatch_execute(case, topo, x, tgt.x_star, 15.0)
    assert tgt_again.jac is tgt.jac
    assert exe_again.jac_star is exe.jac_star and exe_again.jac_prime is exe.jac_prime
    for jac in (tgt.jac, exe.jac_star, exe.jac_prime):
        for array in (jac.indptr, jac.indices, jac.data):
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 1
    with pytest.raises(AttributeError):
        tgt.jac.data = np.zeros(tgt.jac.nnz)


def test_repeat_run_solves_and_differentiates_nothing(monkeypatch):
    """The memo keeps every LP's jacobians as long as the case: after five
    gradient runs on one case, a repeat of the first solves no LP and
    computes no sensitivity, and its gradient is the first run's byte for
    byte."""
    case = cases.rts96()

    def gamma(seed):
        return run_assessment(case, {22, 23, 24}, AssessmentConfig(attempts=6, seed=seed)).gamma

    first = gamma(1).tobytes()
    for seed in range(2, 6):
        gamma(seed)
    calls = []
    solve, sensitivity = lp.solve_lp, lp.solution_sensitivity
    monkeypatch.setattr(lp, "solve_lp", lambda prob: calls.append("solve") or solve(prob))
    monkeypatch.setattr(lp, "solution_sensitivity",
                        lambda prob, sol: calls.append("sensitivity") or sensitivity(prob, sol))
    assert gamma(1).tobytes() == first
    assert calls == []
