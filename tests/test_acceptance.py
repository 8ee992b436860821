"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import time

import numpy as np

from gridrisk import cases, lp
from gridrisk.assess import (
    AssessmentConfig,
    enumeration_risk,
    run_assessment,
    validate_gradient,
)
from gridrisk.cascade import level_probabilities
from gridrisk.cli import main as cli_main
from gridrisk.gradient import convergence_indices
from gridrisk.management import RmConfig, irm, rm_step
from gridrisk.network import SystemState, build_topology, serialize_case

TOY_OUTAGE = {3}
TOY_CONTROL = ([110.0, 85.0, 55.0], [5.0, 160.0, 10.0])


def report(index, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {index:02d} {status}: {detail}")
    assert passed, detail


def first_stable_below(values: list, level: float) -> int | None:
    """1-based index from which the sequence stays below `level` (None if never)."""
    idx = None
    for i, v in enumerate(values):
        if v is None or v >= level:
            idx = None
        elif idx is None:
            idx = i + 1
    return idx


def toy_config(**kw):
    base = dict(tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive", seed=1)
    base.update(kw)
    return AssessmentConfig(**base)


def test_first_stable_below():
    vals = [0.5, 0.05, 0.2, 0.04, 0.03]
    assert first_stable_below(vals, 0.1) == 4
    assert first_stable_below([0.5, 0.4], 0.1) is None


def test_01_enumeration_oracle_risk_equality(toy6):
    t0 = time.time()
    a = run_assessment(toy6, TOY_OUTAGE, toy_config(gradients=False))
    oracle = enumeration_risk(toy6, a.topo, a.x_root, 15.0, 2)
    elapsed = time.time() - t0
    rel = abs(a.r_prime - oracle) / max(abs(oracle), 1e-12)
    report(
        1,
        rel <= 1e-9 and elapsed < 10.0,
        f"tree R'={a.r_prime:.6f} vs enumeration {oracle:.6f} "
        f"(rel {rel:.2e}, {elapsed:.1f}s)",
    )


def test_02_probability_normalization():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 40))
        lam = rng.uniform(0.0, 2.0, size=size)
        lam[rng.random(size) < 0.2] = 0.0
        tau = float(rng.uniform(0.1, 60.0))
        pr, pr_no = level_probabilities(lam, tau)
        worst = max(worst, abs(pr.sum() + pr_no - 1.0))
    elapsed = time.time() - t0
    report(2, worst <= 1e-12 and elapsed < 1.0,
           f"1000 draws, worst |sum-1| = {worst:.2e} ({elapsed:.2f}s)")


def test_03_gradient_oracle(toy6):
    t0 = time.time()
    target = SystemState(*TOY_CONTROL)
    val = validate_gradient(
        toy6, TOY_OUTAGE, toy_config(), control_target=target,
        step=0.25,
    )
    elapsed = time.time() - t0
    report(
        3,
        val.passed and val.unflagged_fraction >= 0.8 and elapsed < 300.0,
        f"{val.checked} components checked, max rel err "
        f"{val.rel_err.max():.2e}, unflagged {val.unflagged_fraction:.0%} "
        f"({elapsed:.1f}s)",
    )


def test_04_lp_sensitivity_randomized():
    t0 = time.time()
    rng = np.random.default_rng(404)
    checked, worst = 0, 0.0
    while checked < 100:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 6))
        a_in = rng.normal(size=(m, n))
        x0 = rng.uniform(-1.0, 1.0, size=n)
        b_in = a_in @ x0 + np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.2, 1.0, m))
        prob = lp.LpProblem(
            c=rng.normal(size=n), a_in=a_in, b_in=b_in,
            lo=x0 - rng.uniform(0.1, 2.0, n), hi=x0 + rng.uniform(0.1, 2.0, n),
            params=(m, np.arange(m), np.arange(m), np.ones(m)),
        )
        sol = lp.solve_lp(prob)
        if not sol.optimal:
            continue
        sens = lp.solution_sensitivity(prob, sol)
        if sens.degenerate:
            continue
        checked += 1
        h = 1e-4
        for p in range(m):
            b_up, b_dn = b_in.copy(), b_in.copy()
            b_up[p] += h
            b_dn[p] -= h
            up = lp.solve_lp(lp.LpProblem(c=prob.c, a_in=a_in, b_in=b_up,
                                          lo=prob.lo, hi=prob.hi))
            dn = lp.solve_lp(lp.LpProblem(c=prob.c, a_in=a_in, b_in=b_dn,
                                          lo=prob.lo, hi=prob.hi))
            if not (up.optimal and dn.optimal):
                continue
            fd = (up.x - dn.x) / (2 * h)
            err = np.abs(fd - sens.matrix[:, p]).max() / max(1.0, np.abs(fd).max())
            worst = max(worst, err)
    elapsed = time.time() - t0
    report(4, worst <= 1e-5 and elapsed < 30.0,
           f"100 non-degenerate instances, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def conservation_violations(case, a, tau_d: float) -> tuple:
    """Acceptance 05's checks on every non-emergency execution of `a`'s tree:
    island balance within 1e-6 MW, and the ramp window, generator bounds and
    load bounds within 1e-8 MW. Returns (executions checked, violations)."""
    violations = []
    count = 0
    window = tau_d * case.gen_ramp
    for node in a.tree.nodes.values():
        rec = node.record
        if rec is None or rec.execute.emergency:
            continue
        count += 1
        state = rec.x_next
        for members in rec.topo.islands:
            mset = set(members)
            d = sum(state.p_load[i] for i, b in enumerate(case.load_bus) if b in mset)
            g = sum(state.p_gen[j] for j, b in enumerate(case.gen_bus) if b in mset)
            if abs(g - d) > 1e-6:
                violations.append(f"balance {node.label}: {g - d:.2e}")
        move = np.abs(state.p_gen - rec.fast.final_state.p_gen) - window
        if np.any(move > 1e-8):
            violations.append(f"ramp {node.label}: {move.max():.2e}")
        if np.any(state.p_gen > case.gen_max + 1e-8) or np.any(
            state.p_gen < case.gen_min - 1e-8
        ):
            violations.append(f"gen bounds {node.label}")
        hi = np.maximum(rec.fast.final_state.p_load, 0.0)
        lo = np.minimum(np.maximum(rec.target.x_star.p_load, 0.0), hi)
        if np.any(state.p_load > hi + 1e-8) or np.any(state.p_load < lo - 1e-8):
            violations.append(f"load bounds {node.label}")
    return count, violations


def test_05_conservation_after_every_execution(toy6, rts96):
    violations = []
    scenarios = [
        (toy6, TOY_OUTAGE, toy_config(seed=5, gradients=False)),
        (rts96, {22, 23, 24},
         AssessmentConfig(tau_d=15.0, t_max=45.0, attempts=30,
                          policy="probability-sampled", seed=5, gradients=False)),
    ]
    count = 0
    for case, outages, cfg in scenarios:
        checked, found = conservation_violations(
            case, run_assessment(case, outages, cfg), cfg.tau_d
        )
        count += checked
        violations += found
    report(5, not violations,
           f"{count} executions checked, violations: {violations[:3] or 'none'}")


def test_06_recursion_idempotence_and_order_independence(toy6):
    from gridrisk import gradient as grad
    from gridrisk import tree as mtree

    a = run_assessment(toy6, TOY_OUTAGE, toy_config())
    t = a.tree
    before = {
        k: (v.c_equiv, None if v.s_accum is None else v.s_accum.copy())
        for k, v in t.nodes.items()
    }
    node, path = t.root, []
    while not node.terminal:
        node = node.children[node.child_ids[0]]
        path.append(node)
    mtree.backward_risk_update(t, path)
    grad.backward_gradient_update(t, path, attempt=99999)
    replay_ok = all(
        t.nodes[k].c_equiv == c and (s is None or np.array_equal(t.nodes[k].s_accum, s))
        for k, (c, s) in before.items()
    )
    # the same tree visited in another order: best-first run to full exploration
    b = run_assessment(toy6, TOY_OUTAGE, toy_config(policy="best-first"))
    same_tree = b.tree.nodes.keys() == a.tree.nodes.keys()
    scale = max(1.0, np.abs(a.tree.root.s_accum).max())
    order_gap = np.abs(a.tree.root.s_accum - b.tree.root.s_accum).max()
    report(
        6,
        replay_ok and same_tree and order_gap <= 1e-12 * scale,
        f"replay exact: {replay_ok}; best-first builds the same tree: {same_tree}; "
        f"order gap {order_gap:.2e} (<= 1e-12 of scale {scale:.1e})",
    )


def test_07_direction_converges_before_magnitude(rts96):
    t0 = time.time()
    outcomes = []
    for seed in (1, 2, 3):
        cfg = AssessmentConfig(tau_d=15.0, t_max=150.0, attempts=400,
                               policy="probability-sampled", seed=seed)
        a = run_assessment(rts96, {22, 23, 24}, cfg)
        gammas = a.gamma_history()
        deltas, deltas_dir = convergence_indices(gammas, gammas[-1])
        i_dir = first_stable_below(deltas_dir, 0.1)
        i_mag = first_stable_below(deltas, 0.1)
        outcomes.append((seed, i_dir, i_mag))
    elapsed = time.time() - t0
    ok = all(
        i_dir is not None and i_mag is not None and i_dir <= i_mag
        for _, i_dir, i_mag in outcomes
    )
    report(7, ok and elapsed < 600.0,
           f"(seed, dir, mag) = {outcomes} ({elapsed:.0f}s)")


def test_08_rm_zero_decrease_is_identity(toy6):
    topo = build_topology(toy6)
    x_pre = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
    res = rm_step(toy6, topo, x_pre, x_pre, np.ones(toy6.n_x),
                  r_prime0=0.0, delta_r=0.0)
    ok = res.x_star is x_pre and res.cost == 0.0
    report(8, ok, f"delta_r=0 -> unchanged target, cost {res.cost!r}")


def test_09_irm_effectiveness(toy6):
    t0 = time.time()
    cfg = RmConfig(assessment=toy_config(seed=3))
    traj = irm(toy6, TOY_OUTAGE, cfg)
    accepted = traj.accepted_r_primes()
    elapsed = time.time() - t0
    strictly_down = all(
        accepted[i + 1] < accepted[i] for i in range(len(accepted) - 1)
    )
    halved = accepted[-1] <= 0.5 * accepted[0]
    stopped = len(traj.rounds) <= cfg.max_iterations + 1
    report(
        9,
        strictly_down and halved and stopped and elapsed < 600.0,
        f"accepted R' {['%.0f' % v for v in accepted]} "
        f"(final/initial {accepted[-1] / accepted[0]:.2f}, {elapsed:.0f}s)",
    )


def test_10_compressed_storage(tmp_path):
    t0 = time.time()
    case = cases.ring120()
    base = dict(tau_d=15.0, t_max=60.0, attempts=80,
                policy="probability-sampled", seed=5)
    dense = run_assessment(case, {1}, AssessmentConfig(**base, threshold=None))
    comp = run_assessment(case, {1}, AssessmentConfig(**base, threshold=1e-5))
    _, dd = convergence_indices([comp.gamma], dense.gamma)
    reduction = comp.tree.dense_entries / max(comp.tree.stored_entries, 1)
    elapsed = time.time() - t0
    report(
        10,
        dd[0] is not None and dd[0] <= 1e-2 and reduction >= 2.0 and elapsed < 900.0,
        f"delta_dir {dd[0]:.2e}, entry reduction {reduction:.1f}x "
        f"({case.n_bus} buses, {elapsed:.0f}s)",
    )


def test_11_deterministic_outputs(toy6, tmp_path):
    case_file = tmp_path / "toy6.json"
    case_file.write_text(serialize_case(toy6))
    outs = []
    for rep in ("r1", "r2"):
        out = tmp_path / rep
        code = cli_main([
            "gradient", "--case", str(case_file), "--outages", "3",
            "--tau-d", "15", "--t-max", "30",
            "--policy", "probability-sampled", "--attempts", "120",
            "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    names = ["summary.json", "tree.csv", "convergence.csv", "gradient.csv"]
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    report(11, same, f"byte-identical outputs for {names}")
