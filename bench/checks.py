"""Output checks, made apart from the program's own answer.

`load_outputs` parses what one round wrote; `references` computes the
independent values some checks compare against (a dense-storage gradient,
the enumeration oracle, central finite differences); `check` returns one
`(check name, message)` pair per violation. `corruptions` lists, for the
self-test, one corrupted copy of the outputs per check and the check that
must report it.
"""

from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

import numpy as np

from workloads import TAU_D, Inputs

REL_TOL = 1e-9          # tree recursion, R = C0 + R', totals, enumeration oracle
DIR_TOL = 1e-2          # compressed vs dense gradient direction (acceptance 10)
ENTRY_SHARE = 0.5       # compressed storage keeps at most half the dense entries
FD_STEP = 0.25          # finite-difference step, MW (acceptance 03)
FD_REL_TOL = 0.05
FD_GAMMA_FLOOR = 1e-3
FD_UNFLAGGED_SHARE = 0.8
# Interior control target of acceptance 03. IRM's own initial target, the
# conventional re-dispatch, is an LP vertex where central differences straddle
# kinks: on toy6 {3} every nonzero component changes an active set.
FD_TARGET = ([110.0, 85.0, 55.0], [5.0, 160.0, 10.0])
FD_OUTAGES = ((3,),)    # contingencies whose initial gradient is checked


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# schema_version="):
            raise ValueError(f"{path}: missing schema_version comment")
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Loading outputs
# ---------------------------------------------------------------------------

def load_outputs(workdir: Path, inputs: Inputs) -> list:
    """One dict per operation with the parsed files it wrote."""
    outs = []
    for op in inputs.ops:
        d = workdir / op.out
        if inputs.workload == "toy6-irm":
            rec = {"trajectory": _read_csv(d / "trajectory.csv")}
        else:
            rec = {
                "tree": _read_csv(d / "tree.csv"),
                "convergence": _read_csv(d / "convergence.csv"),
                "summary": json.loads((d / "summary.json").read_text()),
            }
            if inputs.workload == "grid400-gradient":
                rec["gradient"] = _read_csv(d / "gradient.csv")
        rec["outages"] = op.outages
        outs.append(rec)
    return outs


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def _op_args(argv: list) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}


def _config(argv: list, **overrides):
    from gridrisk.assess import AssessmentConfig

    args = _op_args(argv)
    cfg = AssessmentConfig(
        tau_d=float(args["tau-d"]), t_max=float(args["t-max"]),
        attempts=int(args["attempts"]), policy=args["policy"], seed=int(args["seed"]),
    )
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def references(workdir: Path, inputs: Inputs) -> list:
    """Per operation, the values the checks compare against."""
    from gridrisk.network import parse_case

    case = parse_case((workdir / inputs.case_file).read_text(), "native-json")
    refs = []
    for op in inputs.ops:
        if inputs.workload == "grid400-gradient":
            refs.append(_grid_reference(case, op))
        elif inputs.workload == "toy6-irm":
            refs.append(_toy_reference(case, op))
        else:
            refs.append({"n_x": case.n_x})
    return refs


def _grid_reference(case, op) -> dict:
    from gridrisk.assess import run_assessment

    dense = run_assessment(case, set(op.outages),
                           _config(op.argv, gradients=True, threshold=None))
    return {"n_x": case.n_x, "dense_gamma": dense.gamma}


def _toy_reference(case, op) -> dict:
    from gridrisk.assess import enumeration_risk, run_assessment

    # The tree root (topology and executed state) needs no search.
    cfg = _config(op.argv, gradients=False, attempts=1)
    root = run_assessment(case, set(op.outages), cfg)
    ref = {"enumeration": enumeration_risk(case, root.topo, root.x_root, TAU_D, cfg.depth)}
    if tuple(op.outages) in FD_OUTAGES:
        ref.update(_finite_differences(case, op))
    return ref


def _finite_differences(case, op) -> dict:
    """Gradient at FD_TARGET against central differences of the exhaustive R'.

    Components whose perturbation changes a trip set or an LP active set are
    flagged and left out of the tolerance test, as in acceptance 03.
    """
    from gridrisk.assess import run_assessment
    from gridrisk.network import SystemState

    center = run_assessment(case, set(op.outages), _config(op.argv, gradients=True),
                            SystemState(*FD_TARGET))
    sig0 = center.signature()
    fd_cfg = _config(op.argv, gradients=False)
    fd = np.zeros(case.n_x)
    flagged = np.zeros(case.n_x, dtype=bool)
    for i in range(case.n_x):
        vals = []
        for sign in (1.0, -1.0):
            x = center.x_target.x.copy()
            x[i] += sign * FD_STEP
            a = run_assessment(case, set(op.outages), fd_cfg,
                               SystemState.from_x(x, case.n_load))
            vals.append(a.r_prime)
            flagged[i] |= a.signature() != sig0
        fd[i] = (vals[0] - vals[1]) / (2.0 * FD_STEP)
    return {"gamma": center.gamma, "fd": fd, "flagged": flagged}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _parent(label: str) -> str | None:
    if label == "root":
        return None
    return label.rsplit("-", 1)[0] if "-" in label else "root"


def check_tree(rec: dict) -> list:
    """tree.csv recursion, summary.json totals and convergence.csv."""
    errs = []
    nodes = {row["label"]: row for row in rec["tree"]}
    children: dict = {label: [] for label in nodes}
    for label in nodes:
        parent = _parent(label)
        if parent is not None:
            if parent not in children:
                errs.append(("tree.parent", f"node {label} has no parent row"))
                continue
            children[parent].append(label)
    if "root" not in nodes:
        return errs + [("tree.parent", "no root row")]

    rebuilt: dict = {}
    for label in sorted(nodes, key=lambda s: s.count("-") + (s != "root"), reverse=True):
        rebuilt[label] = float(nodes[label]["cost"]) + sum(
            float(nodes[c]["prob"]) * rebuilt[c] for c in children[label]
        )
    for label, value in rebuilt.items():
        stored = float(nodes[label]["c_equiv"])
        if not _close(stored, value):
            errs.append(("tree.c_equiv", f"node {label}: c_equiv {stored!r}, "
                                         f"rebuilt from prob and cost {value!r}"))
    for label, kids in children.items():
        total = sum(float(nodes[c]["prob"]) for c in kids)
        if total > 1.0 + 1e-12:
            errs.append(("tree.siblings", f"children of {label} sum to probability {total!r}"))

    summary = rec["summary"]
    root_r = float(nodes["root"]["r_prime"])
    if not (_close(summary["R_prime"], root_r) and _close(summary["R_prime"], rebuilt["root"])):
        errs.append(("summary.R_prime", f"R_prime {summary['R_prime']!r}, root row {root_r!r}, "
                                        f"rebuilt {rebuilt['root']!r}"))
    if not _close(summary["R"], summary["C0"] + summary["R_prime"]):
        errs.append(("summary.R", f"R {summary['R']!r} != C0 + R_prime "
                                  f"{summary['C0'] + summary['R_prime']!r}"))

    conv = [float(row["r_prime"]) for row in rec["convergence"]]
    for i in range(1, len(conv)):
        if conv[i] < conv[i - 1]:
            errs.append(("convergence.monotone",
                         f"R' falls from {conv[i - 1]!r} to {conv[i]!r} at row {i + 1}"))
            break
    return errs


def check_grid(rec: dict, ref: dict) -> list:
    errs = []
    gamma = np.array([float(row["gamma"]) for row in rec["gradient"]])
    dense = np.asarray(ref["dense_gamma"], dtype=float)
    if gamma.shape != dense.shape:
        return [("gradient.direction", f"{gamma.size} gradient entries, expected {dense.size}")]
    gn, dn = float(np.linalg.norm(gamma)), float(np.linalg.norm(dense))
    delta_dir = float(np.linalg.norm(gamma / gn - dense / dn)) if gn > 0 and dn > 0 else np.inf
    if not delta_dir <= DIR_TOL:
        errs.append(("gradient.direction",
                     f"compressed vs dense delta_dir {delta_dir!r} > {DIR_TOL}"))
    summary = rec["summary"]
    expected_dense = len(rec["tree"]) * ref["n_x"] ** 2   # one chain matrix per node
    if summary.get("dense_entries") != expected_dense:
        errs.append(("gradient.entries", f"dense_entries {summary.get('dense_entries')!r}, "
                                          f"{len(rec['tree'])} nodes make {expected_dense}"))
    elif not summary.get("stored_entries", np.inf) <= ENTRY_SHARE * expected_dense:
        errs.append(("gradient.entries", f"stored_entries {summary.get('stored_entries')!r} "
                                          f"> {ENTRY_SHARE} x {expected_dense}"))
    return errs


def check_irm(rec: dict, ref: dict) -> list:
    errs = []
    rows = rec["trajectory"]
    for row in rows:
        cost, risk, total = (float(row[k]) for k in
                             ("control_cost", "subsequent_risk", "total_risk"))
        if not _close(total, cost + risk):
            errs.append(("irm.total", f"round {row['round']}: total {total!r} != "
                                      f"cost + risk {cost + risk!r}"))
    accepted = [float(r["subsequent_risk"]) for r in rows if r["accepted"] == "1"]
    if any(b >= a for a, b in zip(accepted, accepted[1:])):
        errs.append(("irm.accepted", f"accepted R' do not strictly decrease: {accepted}"))
    r0 = float(rows[0]["subsequent_risk"])
    if not _close(r0, ref["enumeration"]):
        errs.append(("irm.enumeration", f"round 0 R' {r0!r}, enumeration oracle "
                                        f"{ref['enumeration']!r}"))
    if "fd" in ref:
        errs.extend(_check_fd(ref["gamma"], ref["fd"], ref["flagged"]))
    return errs


def _check_fd(gamma, fd, flagged) -> list:
    errs = []
    checked = 0
    for i, (g, f) in enumerate(zip(gamma, fd)):
        if abs(g) <= FD_GAMMA_FLOOR or flagged[i]:
            continue
        checked += 1
        if abs(f - g) > FD_REL_TOL * abs(g):
            errs.append(("irm.fd_gradient", f"component {i}: gradient {g!r}, "
                                            f"finite difference {f!r}"))
    unflagged = 1.0 - float(np.mean(flagged))
    if checked == 0 or unflagged < FD_UNFLAGGED_SHARE:
        errs.append(("irm.fd_gradient", f"{checked} components compared, "
                                        f"{unflagged:.0%} unflagged"))
    return errs


def check(workload: str, outputs: list, refs: list) -> list:
    errs = []
    for k, (rec, ref) in enumerate(zip(outputs, refs)):
        if workload == "toy6-irm":
            found = check_irm(rec, ref)
        else:
            found = check_tree(rec)
            if workload == "grid400-gradient":
                found += check_grid(rec, ref)
        errs.extend((name, f"op{k} {rec['outages']}: {msg}") for name, msg in found)
    return errs


# ---------------------------------------------------------------------------
# Self-test corruptions
# ---------------------------------------------------------------------------

def corruptions(workload: str, outputs: list, refs: list):
    """Yield (check name, description, outputs, refs), one per check."""
    def fresh():
        return copy.deepcopy(outputs), copy.deepcopy(refs)

    if workload != "toy6-irm":
        o, r = fresh()
        node = next(row for row in o[0]["tree"] if row["label"] != "root")
        node["cost"] = repr(float(node["cost"]) * 1.5 + 1.0)
        yield "tree.c_equiv", f"cost of node {node['label']} changed", o, r

        o, r = fresh()
        rows = o[0]["tree"]
        parents = [_parent(row["label"]) for row in rows]
        node = next(row for row, p in zip(rows, parents) if p is not None and parents.count(p) > 1)
        node["prob"] = "1.0"
        yield "tree.siblings", f"prob of node {node['label']} set to 1", o, r

        o, r = fresh()
        o[0]["summary"]["R_prime"] *= 1.0 + 1e-6
        yield "summary.R_prime", "summary R_prime scaled by 1 + 1e-6", o, r

        o, r = fresh()
        o[0]["summary"]["R"] += 1.0
        yield "summary.R", "summary R raised by 1", o, r

        o, r = fresh()
        conv = o[0]["convergence"]
        k = max(1, len(conv) // 2)
        conv[k]["r_prime"] = repr(float(conv[k - 1]["r_prime"]) - 1.0)
        yield "convergence.monotone", f"convergence row {k + 1} below its predecessor", o, r

    if workload == "grid400-gradient":
        o, r = fresh()
        grad = o[0]["gradient"]
        k = max(range(len(grad)), key=lambda i: abs(float(grad[i]["gamma"])))
        grad[k]["gamma"] = repr(-float(grad[k]["gamma"]))
        yield "gradient.direction", f"largest gradient entry {k} negated", o, r

        o, r = fresh()
        o[0]["summary"]["stored_entries"] = o[0]["summary"]["dense_entries"] // 2 + 1
        yield "gradient.entries", "stored_entries set above half the dense entries", o, r

    if workload == "toy6-irm":
        o, r = fresh()
        k = next(i for i, rec in enumerate(o)
                 if sum(row["accepted"] == "1" for row in rec["trajectory"]) >= 2)
        rows = [row for row in o[k]["trajectory"] if row["accepted"] == "1"]
        rows[1]["subsequent_risk"] = repr(float(rows[0]["subsequent_risk"]) + 1.0)
        rows[1]["total_risk"] = repr(float(rows[1]["control_cost"])
                                     + float(rows[1]["subsequent_risk"]))
        yield "irm.accepted", f"op{k}: second accepted R' raised above the first", o, r

        o, r = fresh()
        k = next(i for i, ref in enumerate(r) if ref["enumeration"] > 0)
        row = o[k]["trajectory"][0]
        row["subsequent_risk"] = repr(float(row["subsequent_risk"]) * (1.0 + 1e-6))
        row["total_risk"] = repr(float(row["control_cost"]) + float(row["subsequent_risk"]))
        yield "irm.enumeration", f"op{k}: round 0 R' scaled by 1 + 1e-6", o, r

        o, r = fresh()
        row = o[0]["trajectory"][0]
        row["total_risk"] = repr(float(row["total_risk"]) + 1.0)
        yield "irm.total", "op0: round 0 total raised by 1", o, r

        o, r = fresh()
        k = next(i for i, ref in enumerate(r) if "fd" in ref)
        gamma = r[k]["gamma"]
        j = int(np.argmax(np.where(r[k]["flagged"], 0.0, np.abs(gamma))))
        gamma[j] *= 1.5
        yield "irm.fd_gradient", f"op{k}: gradient entry {j} scaled by 1.5", o, r

