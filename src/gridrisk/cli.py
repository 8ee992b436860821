"""Command-line front end: deterministic assessment, gradient, gradient
validation and iterated risk-management runs with CSV/JSON reports.

Exit codes: 0 success, 2 case/config/strategy parse or read error, an
output directory that cannot be made, or a case whose island systems cannot
be solved, 3 infeasible base case, 4 internal error (an island left
unbalanced after dispatch). Every command checks every config key, then
reads its case and strategy and makes its output directory (`_start`)
before its run, so a bad input or an unmakeable `--out` fails at once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import assess as _assess
from . import cascade as _cascade
from . import gradient as _gradient
from . import management as _mgmt
from . import tree as _tree
from .network import CaseError, NetworkCase, PowerFlowError, SystemState, parse_case

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    """Single-file run configuration; flags override individual keys. The
    assessment and risk-management keys live in `rm` and its `assessment`,
    the library configs that declare and check them."""

    case: str = ""
    format: str = "native-json"
    outages: list = field(default_factory=list)
    out: str = "out"
    failure_rate: dict = field(default_factory=dict)
    costs: dict = field(default_factory=dict)
    strategy: str | None = None     # JSON file with an explicit control target
    fd_step: float = 0.25
    rm: _mgmt.RmConfig = field(default_factory=_mgmt.RmConfig)

    def __post_init__(self):
        _assess.check_fd_step(self.fd_step)


# Fields that are no config key: the nested configs and `gradients` (each
# command picks it).
_NOT_KEYS = {"gradients", "assessment", "rm"}
_KEY_CLASS = {
    f.name: cls
    for cls in (RunConfig, _mgmt.RmConfig, _assess.AssessmentConfig)
    for f in fields(cls) if f.name not in _NOT_KEYS
}
_RUN_HINTS = typing.get_type_hints(RunConfig)


def _type_matches(hint, val) -> bool:
    """JSON value against a RunConfig annotation: an int counts as a float,
    a bool counts as no number."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(val, bool):
        return bool in allowed or object in allowed
    return isinstance(val, allowed + ((int,) if float in allowed else ()))


def _parse_tokens(flag: str, tokens, kind: type, what: str) -> list:
    values = []
    for tok in tokens:
        try:
            values.append(kind(tok))
        except ValueError:
            raise ValueError(f"{flag} takes {what}, got '{tok.strip()}'") from None
    return values


def load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's keys overridden by the given flags, each handed to
    the dataclass that declares it."""
    settings = {}
    if args.config:
        with open(args.config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError("config file must hold a JSON object")
    flags = {key: val for key, val in vars(args).items()
             if val is not None and key not in ("command", "func", "config")}
    if "outages" in flags:
        tokens = filter(str.strip, flags["outages"].split(","))
        flags["outages"] = _parse_tokens("--outages", tokens, int, "integer branch ids")
    if "delta_r" in flags:
        schedule = _parse_tokens("--delta-r", flags["delta_r"].split(","), float, "numbers")
        flags["delta_r"] = schedule[0] if len(schedule) == 1 else schedule
    kwargs = {RunConfig: {}, _mgmt.RmConfig: {}, _assess.AssessmentConfig: {}}
    for key, val in {**settings, **flags}.items():
        if key not in _KEY_CLASS:
            raise ValueError(f"unknown config key '{key}'")
        kwargs[_KEY_CLASS[key]][key] = val
    for key, val in kwargs[RunConfig].items():
        if not _type_matches(_RUN_HINTS[key], val):
            raise ValueError(f"config key '{key}' has the wrong type: {type(val).__name__}")
    if not all(isinstance(b, int) and not isinstance(b, bool)
               for b in kwargs[RunConfig].get("outages", [])):
        raise ValueError("config key 'outages' must be a list of integer branch ids")
    assessment = _assess.AssessmentConfig(**kwargs[_assess.AssessmentConfig])
    rm = _mgmt.RmConfig(**kwargs[_mgmt.RmConfig], assessment=assessment)
    return RunConfig(**kwargs[RunConfig], rm=rm)


def load_case_file(cfg: RunConfig) -> NetworkCase:
    text = Path(cfg.case).read_text()
    defaults = {"failure_rate": cfg.failure_rate, "costs": cfg.costs}
    return parse_case(text, cfg.format, defaults)


def load_strategy(case: NetworkCase, path: str) -> SystemState:
    """The case's state with each listed load and generator at its
    `target_mw`. A malformed file raises an error naming the entity and key."""
    from .network import CaseSemanticError, _number

    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CaseSemanticError("top-level JSON value must be an object", "strategy")
    p_load = np.array([l.p for l in case.loads])
    p_gen = np.array([g.p for g in case.generators])
    load_pos = {l.id: i for i, l in enumerate(case.loads)}
    gen_pos = {g.id: j for j, g in enumerate(case.generators)}
    for key, pos, values in (("loads", load_pos, p_load), ("generators", gen_pos, p_gen)):
        rows = doc.get(key, [])
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            raise CaseSemanticError(f"'{key}' must be a list of objects", "strategy")
        for k, row in enumerate(rows):
            eid = _number(row, "id", f"strategy {key}[{k}]", kind=int)
            if eid not in pos:
                raise ValueError(f"strategy names unknown {key[:-1]} id {eid}")
            target = _number(row, "target_mw", f"strategy {key[:-1]} id {eid}")
            if not math.isfinite(target):
                raise ValueError(f"strategy target_mw of {key[:-1]} id {eid} must be finite")
            values[pos[eid]] = target
    return SystemState(p_load, p_gen)


def _start(cfg: RunConfig) -> tuple[NetworkCase, SystemState | None, Path]:
    """Every command's start: the case, the strategy (or None), the made `--out`."""
    case = load_case_file(cfg)
    target = load_strategy(case, cfg.strategy) if cfg.strategy else None
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return case, target, out


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
        "seed": cfg.rm.assessment.seed,
        "attempts": len(assessment.history.attempts),
        "C0": float(assessment.control_cost),
        "pre_control_cost": float(assessment.pre_control_cost),
        "R_prime": float(assessment.r_prime),
        "R": float(assessment.risk),
    }


def cmd_assess(cfg: RunConfig) -> int:
    case, target, out = _start(cfg)
    acfg = replace(cfg.rm.assessment, gradients=False)
    a = _assess.run_assessment(case, cfg.outages, acfg, target)
    _tree.dump_tree_csv(a.tree, str(out / "tree.csv"))
    write_convergence_csv(out / "convergence.csv", a.history)
    with open(out / "summary.json", "w") as fh:
        json.dump(_summary(a, cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"R={a.risk!r} R_prime={a.r_prime!r} C0={a.control_cost!r}")
    return EXIT_OK


def cmd_gradient(cfg: RunConfig) -> int:
    case, target, out = _start(cfg)
    a = _assess.run_assessment(case, cfg.outages, cfg.rm.assessment, target)
    gammas = a.gamma_history()
    deltas, deltas_dir = _gradient.convergence_indices(gammas, gammas[-1])
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
    case, target, out = _start(cfg)
    val = _assess.validate_gradient(
        case, cfg.outages, cfg.rm.assessment, control_target=target, step=cfg.fd_step
    )
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
    case, _, out = _start(cfg)   # the strategy is checked; IRM starts from its own target
    traj = _mgmt.irm(case, cfg.outages, cfg.rm)
    _mgmt.write_trajectory_csv(traj, str(out / "trajectory.csv"))
    _mgmt.write_strategy_json(case, traj, str(out / "strategy.json"))
    final = traj.final_assessment
    print(
        f"C0={final.control_cost!r} R_prime={final.r_prime!r} "
        f"total={final.risk!r}"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    building it takes about 1 ms, and parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="gridrisk",
        description="Cascading-outage risk assessment and risk management",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--threshold": {"type": float, "help": "compressed sensitivity storage threshold"},
        "--strategy": {"help": "control strategy JSON"},
        "--fd-step": {"type": float},
        "--delta-r": {"help": "value or comma schedule"},
    }
    for name, fn, own in (
        ("assess", cmd_assess, ["--strategy"]),
        ("gradient", cmd_gradient, ["--threshold", "--strategy"]),
        ("validate-gradient", cmd_validate_gradient, ["--threshold", "--strategy", "--fd-step"]),
        ("irm", cmd_irm, ["--threshold", "--delta-r"]),
    ):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--case", help="case file path")
        p.add_argument("--format", choices=["native-json", "matpower-text"])
        p.add_argument("--outages", help="comma-separated initial branch ids")
        p.add_argument("--tau-d", type=float)
        p.add_argument("--t-max", type=float)
        p.add_argument("--attempts", type=int)
        p.add_argument("--policy", choices=_assess.POLICIES)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        for flag in own:
            p.add_argument(flag, **flags[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if not cfg.case:
            raise FileNotFoundError("no case file given (--case or config)")
        return args.func(cfg)
    except (OSError, CaseError, PowerFlowError, json.JSONDecodeError, ValueError) as exc:
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
