"""Command-line front end: deterministic assessment, gradient, gradient
validation and iterated risk-management runs with CSV/JSON reports.

Exit codes: 0 success, 2 case/config/strategy parse or read error, 3 infeasible
base case, 4 internal error (an island left unbalanced after dispatch).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import assess as _assess
from . import cascade as _cascade
from . import gradient as _gradient
from . import management as _mgmt
from . import tree as _tree
from .network import CaseError, NetworkCase, parse_case

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    """Single-file run configuration; flags override individual fields."""

    case: str = ""
    format: str = "native-json"
    outages: list = field(default_factory=list)
    tau_d: float = 15.0
    t_max: float = 150.0
    attempts: int = 200
    policy: str = "probability-sampled"
    seed: int = 0
    delta_r: float | list | None = None     # None = adaptive schedule
    threshold: float | str | None = "auto"  # "auto", None = dense, float = compressed
    out: str = "out"
    base_dispatch: str = "opf"
    failure_rate: dict = field(default_factory=dict)
    costs: dict = field(default_factory=dict)
    epsilon_stop: float | None = None
    max_iterations: int = 8
    strategy: str | None = None     # JSON file with an explicit control target
    fd_step: float = 0.25

    def validate(self) -> None:
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in self.outages):
            raise ValueError("config key 'outages' must be a list of integer branch ids")
        for key in ("tau_d", "t_max", "threshold", "delta_r", "epsilon_stop", "fd_step"):
            val = getattr(self, key)
            vals = val if isinstance(val, list) else [val]
            if not all(math.isfinite(v) for v in vals if _is_number(v)):
                raise ValueError(f"config key '{key}' must be finite")
        if self.tau_d <= 0:
            raise ValueError("tau_d must be > 0")
        if self.t_max < self.tau_d:
            raise ValueError("t_max must be >= tau_d")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not (self.threshold is None or self.threshold == "auto"
                or _is_number(self.threshold)):
            raise ValueError("config key 'threshold' must be \"auto\", null or a number")
        if isinstance(self.delta_r, list) and not all(map(_is_number, self.delta_r)):
            raise ValueError("config key 'delta_r' must be a number or a list of numbers")
        if self.fd_step <= 0:
            raise ValueError("config key 'fd_step' must be > 0")

    def assessment(self, gradients: bool = True) -> _assess.AssessmentConfig:
        return _assess.AssessmentConfig(
            tau_d=self.tau_d,
            t_max=self.t_max,
            attempts=self.attempts,
            policy=self.policy,
            seed=self.seed,
            gradients=gradients,
            threshold=self.threshold,
            base_dispatch=self.base_dispatch,
        )


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _type_matches(hint, val) -> bool:
    """JSON value against a RunConfig annotation: an int counts as a float,
    a bool counts as no number."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(val, bool):
        return bool in allowed or object in allowed
    return isinstance(val, allowed + ((int,) if float in allowed else ()))


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        hints = typing.get_type_hints(RunConfig)
        for key, val in doc.items():
            if key not in hints:
                raise ValueError(f"unknown config key '{key}'")
            if not _type_matches(hints[key], val):
                raise ValueError(
                    f"config key '{key}' has the wrong type: {type(val).__name__}"
                )
            setattr(cfg, key, val)
    overrides = {
        "case": args.case,
        "format": args.format,
        "tau_d": args.tau_d,
        "t_max": args.t_max,
        "attempts": args.attempts,
        "policy": args.policy,
        "seed": args.seed,
        "threshold": args.threshold,
        "out": args.out,
        "strategy": getattr(args, "strategy", None),
        "fd_step": getattr(args, "fd_step", None),
    }
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    if args.outages is not None:
        cfg.outages = [int(tok) for tok in args.outages.split(",") if tok.strip()]
    if getattr(args, "delta_r", None) is not None:
        cfg.delta_r = [float(tok) for tok in args.delta_r.split(",")]
        if len(cfg.delta_r) == 1:
            cfg.delta_r = cfg.delta_r[0]
    cfg.validate()
    return cfg


def load_case_file(cfg: RunConfig) -> NetworkCase:
    text = Path(cfg.case).read_text()
    defaults = {"failure_rate": cfg.failure_rate, "costs": cfg.costs}
    return parse_case(text, cfg.format, defaults)


def load_strategy(case: NetworkCase, path: str):
    from .network import SystemState

    with open(path) as fh:
        doc = json.load(fh)
    p_load = np.array([l.p for l in case.loads])
    p_gen = np.array([g.p for g in case.generators])
    load_pos = {l.id: i for i, l in enumerate(case.loads)}
    gen_pos = {g.id: j for j, g in enumerate(case.generators)}
    for key, pos, values in (("loads", load_pos, p_load), ("generators", gen_pos, p_gen)):
        for row in doc.get(key, []):
            eid = int(row["id"])
            if eid not in pos:
                raise ValueError(f"strategy names unknown {key[:-1]} id {eid}")
            target = float(row["target_mw"])
            if not math.isfinite(target):
                raise ValueError(f"strategy target_mw of {key[:-1]} id {eid} must be finite")
            values[pos[eid]] = target
    return SystemState(p_load, p_gen)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_convergence_csv(path: Path, history, deltas=None, deltas_dir=None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(["attempt", "r_prime", "delta", "delta_dir"])
        for i, (attempt, r_prime) in enumerate(zip(history.attempts, history.r_prime)):
            delta = None if deltas is None else deltas[i]
            delta_dir = None if deltas_dir is None else deltas_dir[i]
            writer.writerow(
                [
                    attempt,
                    _fmt(r_prime),
                    "" if delta is None else _fmt(delta),
                    "" if delta_dir is None else _fmt(delta_dir),
                ]
            )


def write_gradient_csv(path: Path, case: NetworkCase, gamma: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(["variable", "bus", "gamma"])
        for name, bus, value in zip(case.state_names(), case.state_buses(), gamma):
            writer.writerow([name, bus, _fmt(value)])


def _summary(assessment, cfg: RunConfig) -> dict:
    return {
        "schema_version": 2,
        "case": cfg.case,
        "outages": list(cfg.outages),
        "seed": cfg.seed,
        "attempts": len(assessment.history.attempts),
        "C0": float(assessment.control_cost),
        "pre_control_cost": float(assessment.pre_control_cost),
        "R_prime": float(assessment.r_prime),
        "R": float(assessment.risk),
    }


def cmd_assess(cfg: RunConfig) -> int:
    case = load_case_file(cfg)
    target = load_strategy(case, cfg.strategy) if cfg.strategy else None
    a = _assess.run_assessment(case, cfg.outages, cfg.assessment(gradients=False), target)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _tree.dump_tree_csv(a.tree, str(out / "tree.csv"))
    write_convergence_csv(out / "convergence.csv", a.history)
    with open(out / "summary.json", "w") as fh:
        json.dump(_summary(a, cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"R={a.risk!r} R_prime={a.r_prime!r} C0={a.control_cost!r}")
    return EXIT_OK


def cmd_gradient(cfg: RunConfig) -> int:
    case = load_case_file(cfg)
    target = load_strategy(case, cfg.strategy) if cfg.strategy else None
    a = _assess.run_assessment(case, cfg.outages, cfg.assessment(gradients=True), target)
    gammas = a.gamma_history()
    deltas, deltas_dir = _gradient.convergence_indices(gammas, gammas[-1])
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _tree.dump_tree_csv(a.tree, str(out / "tree.csv"))
    write_convergence_csv(out / "convergence.csv", a.history, deltas, deltas_dir)
    write_gradient_csv(out / "gradient.csv", case, a.gamma)
    summary = _summary(a, cfg)
    summary["gamma_norm"] = float(np.linalg.norm(a.gamma))
    if a.tree.threshold is not None:
        summary["stored_entries"] = int(a.tree.stored_entries)
        summary["dense_entries"] = int(a.tree.dense_entries)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"R_prime={a.r_prime!r} gamma_norm={summary['gamma_norm']!r}")
    return EXIT_OK


def cmd_validate_gradient(cfg: RunConfig) -> int:
    case = load_case_file(cfg)
    target = load_strategy(case, cfg.strategy) if cfg.strategy else None
    acfg = cfg.assessment(gradients=True)
    if acfg.policy != "exhaustive":
        print("validate-gradient requires --policy exhaustive", file=sys.stderr)
        return EXIT_PARSE
    val = _assess.validate_gradient(
        case, cfg.outages, acfg, control_target=target, step=cfg.fd_step
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "validation.csv", "w", newline="") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(["variable", "gamma", "fd", "rel_err", "flagged"])
        for i, name in enumerate(val.names):
            writer.writerow(
                [name, _fmt(val.gamma[i]), _fmt(val.fd[i]), _fmt(val.rel_err[i]),
                 int(val.flagged[i])]
            )
    with open(out / "validation.json", "w") as fh:
        json.dump(
            {
                "schema_version": 1,
                "passed": bool(val.passed),
                "checked_components": int(val.checked),
                "unflagged_fraction": val.unflagged_fraction,
            },
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    print(f"passed={val.passed} checked={val.checked} unflagged={val.unflagged_fraction:.3f}")
    return EXIT_OK


def cmd_irm(cfg: RunConfig) -> int:
    case = load_case_file(cfg)
    rm_cfg = _mgmt.RmConfig(
        delta_r=cfg.delta_r,
        epsilon_stop=cfg.epsilon_stop,
        max_iterations=cfg.max_iterations,
        assessment=cfg.assessment(gradients=True),
    )
    traj = _mgmt.irm(case, cfg.outages, rm_cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _mgmt.write_trajectory_csv(traj, str(out / "trajectory.csv"))
    _mgmt.write_strategy_json(case, traj, str(out / "strategy.json"))
    final = traj.final_assessment
    print(
        f"C0={final.control_cost!r} R_prime={final.r_prime!r} "
        f"total={final.control_cost + final.r_prime!r}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridrisk",
        description="Cascading-outage risk assessment and risk management",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("assess", cmd_assess),
        ("gradient", cmd_gradient),
        ("validate-gradient", cmd_validate_gradient),
        ("irm", cmd_irm),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--case", help="case file path")
        p.add_argument("--format", choices=["native-json", "matpower-text"])
        p.add_argument("--outages", help="comma-separated initial branch ids")
        p.add_argument("--tau-d", dest="tau_d", type=float)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--attempts", type=int)
        p.add_argument("--policy",
                       choices=["best-first", "probability-sampled", "exhaustive"])
        p.add_argument("--seed", type=int)
        p.add_argument("--delta-r", dest="delta_r", help="value or comma schedule")
        p.add_argument("--threshold", type=float,
                       help="compressed sensitivity storage threshold")
        p.add_argument("--out", help="output directory")
        p.add_argument("--strategy", help="control strategy JSON")
        p.add_argument("--fd-step", dest="fd_step", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if not cfg.case:
            raise FileNotFoundError("no case file given (--case or config)")
        return args.func(cfg)
    except (FileNotFoundError, CaseError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _assess.InfeasibleBaseCase as exc:
        print(f"infeasible base case: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _cascade.InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
