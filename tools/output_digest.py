"""Fingerprint the CLI outputs of a fixed set of gridrisk commands.

    python3 tools/output_digest.py --src src > change.txt
    python3 tools/output_digest.py --src src --against ../parent/src

runs every command of `commands()` in its own process, with `--src` on
PYTHONPATH and one BLAS thread (the thread count changes the last digits of
the results), and prints one line per output file and per stdout:
`<sha256>  <command>/<file>`. The case files are written by the checked-out
code's own `serialize_case`, the strategy and config files by this script,
and every path a command sees is relative to one work directory, so two
checkouts that compute the same results print the same lines. With
`--against DIR` it runs the commands on both source trees and prints only
the `<command>/<file>` labels whose digests differ (or that only one tree
writes), exiting 1 if there is any. Each such label is followed by the
largest relative and the largest absolute difference over the numeric cells
of the two files, and by that absolute difference over the largest |value|
in the label, so a move by roundoff alone reads as one, even in a cell near
zero, where the relative difference alone can read 1; or by "text differs"
when the files differ outside their numbers. A command that exits
non-zero is digested as one label, `<command>/exit`, holding its exit status
(its stderr goes to this script's stderr), and the run goes on; with
`--against`, a command that fails on one tree only reads "exit status N
against M". Any failing command, on either tree, makes the script exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY6 = ["--case", "toy6.json", "--tau-d", "15", "--t-max", "30"]
RTS96 = ["--case", "rts96.json", "--outages", "22,23,24"]
# acceptance criterion 3's interior control target on toy6
TOY6_INTERIOR = {
    "loads": [{"id": i, "target_mw": p} for i, p in enumerate((110.0, 85.0, 55.0), 1)],
    "generators": [{"id": j, "target_mw": p} for j, p in enumerate((5.0, 160.0, 10.0), 1)],
}
# an IRM run on toy6 {3} whose assessment and risk-management keys all come
# from a config file, none from a flag
TOY6_IRM_CONFIG = {
    "case": "toy6.json", "outages": [3], "tau_d": 15, "t_max": 30, "attempts": 200,
    "policy": "exhaustive", "seed": 1, "threshold": None, "delta_r": [50000, 20000],
    "epsilon_stop": 1, "max_iterations": 3,
}


def commands() -> list:
    """(label, gridrisk argv without --out) for every command digested."""
    cmds = []
    for k in (1, 2):
        for outage in itertools.combinations(range(1, 7), k):
            ids = ",".join(map(str, outage))
            cmds.append((f"toy6-irm-{ids}", [
                "irm", *TOY6, "--outages", ids, "--policy", "exhaustive",
                "--attempts", "200", "--seed", "1",
            ]))
    cmds += [
        ("toy6-irm-3-config", ["irm", "--config", "toy6-irm-3.json"]),
        # a scalar --delta-r too large to meet: round 1 halves the RM LP's
        # risk decrease until it is feasible, round 2 passes MAX_HALVINGS
        ("toy6-irm-3-delta-r-1e9", [
            "irm", *TOY6, "--outages", "3", "--policy", "exhaustive", "--attempts", "200",
            "--seed", "1", "--delta-r", "1e9",
        ]),
        ("rts96-assess", ["assess", *RTS96, "--attempts", "40"]),
        ("rts96-gradient", ["gradient", *RTS96, "--attempts", "30"]),
        # the one command that reaches target fallbacks and emergency
        # executions with gradients on, so the emergency price row is digested
        ("rts96-gradient-fallback", [
            "gradient", "--case", "rts96.json", "--outages", "85,92,93", "--attempts", "40",
            "--seed", "1",
        ]),
        ("rts96-irm", ["irm", *RTS96, "--attempts", "20"]),
        # the one search policy no other command runs; its four rejected
        # rounds also reach the MAX_REJECTIONS stop
        ("rts96-irm-best-first", [
            "irm", *RTS96, "--policy", "best-first", "--attempts", "30",
        ]),
        # acceptance criterion 11's command
        ("toy6-gradient-3", [
            "gradient", *TOY6, "--outages", "3", "--policy", "probability-sampled",
            "--attempts", "120", "--seed", "17",
        ]),
        ("toy6-validate-gradient-3", [
            "validate-gradient", *TOY6, "--outages", "3", "--policy", "exhaustive",
            "--attempts", "300", "--fd-step", "0.25",
        ]),
        # the same at the interior target, where no component is flagged
        ("toy6-validate-gradient-3-interior", [
            "validate-gradient", *TOY6, "--outages", "3", "--policy", "exhaustive",
            "--attempts", "300", "--fd-step", "0.25", "--strategy", "toy6-interior.json",
        ]),
        # the same on a sampled partial tree, which flags a component whose
        # perturbation explores other labels
        ("toy6-validate-gradient-3-interior-sampled", [
            "validate-gradient", *TOY6, "--outages", "3", "--policy", "probability-sampled",
            "--attempts", "40", "--seed", "17", "--fd-step", "0.25",
            "--strategy", "toy6-interior.json",
        ]),
        # acceptance criterion 10's compressed run: compressed chain storage
        ("ring120-gradient-compressed", [
            "gradient", "--case", "ring120.json", "--outages", "1", "--tau-d", "15",
            "--t-max", "60", "--policy", "probability-sampled", "--attempts", "80",
            "--seed", "5", "--threshold", "1e-5",
        ]),
        # best-first on a meshed case: after outage 11, two children score
        # within last-bit roundoff of each other, so the tie rule of
        # `tree._pick_best_first` decides the tree
        ("ring120-gradient-best-first", [
            "gradient", "--case", "ring120.json", "--outages", "11", "--tau-d", "15",
            "--t-max", "60", "--policy", "best-first", "--attempts", "80",
        ]),
    ]
    return cmds


def _run(argv: list, env: dict, cwd: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        sys.stderr.write(f"exit {proc.returncode}: {' '.join(argv)}\n")
    return proc


def digests(src: str, emit=None, contents: dict | None = None) -> dict:
    """`<command>/<file>` -> sha256 for every command run on the package in
    `src`, or `<command>/exit` for a command that exits non-zero;
    `emit(line)` sees each line as soon as it is known, and `contents`, when
    given, gets each label's bytes."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(Path(src).resolve())
    found = {}

    def record(label, data):
        found[label] = hashlib.sha256(data).hexdigest()
        if contents is not None:
            contents[label] = data
        if emit is not None:
            emit(f"{found[label]}  {label}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "toy6-interior.json").write_text(json.dumps(TOY6_INTERIOR))
        (work / "toy6-irm-3.json").write_text(json.dumps(TOY6_IRM_CONFIG))
        if _run([sys.executable, "-c",
                 "from gridrisk import cases, serialize_case\n"
                 "for name in ('toy6', 'rts96', 'ring120'):\n"
                 "    with open(name + '.json', 'w') as fh:\n"
                 "        fh.write(serialize_case(getattr(cases, name)()))\n"],
                env, work).returncode:
            raise SystemExit("the case files could not be written")
        for label, cmd in commands():
            out = Path("out") / label
            proc = _run([sys.executable, "-m", "gridrisk.cli", *cmd, "--out", str(out)],
                        env, work)
            if proc.returncode:
                record(f"{label}/exit", b"%d\n" % proc.returncode)
                continue
            record(f"{label}/stdout", proc.stdout)
            for path in sorted((work / out).iterdir()):
                record(f"{label}/{path.name}", path.read_bytes())
    return found


def failed(found: dict) -> bool:
    """Whether any command of `digests`' result exited non-zero."""
    return any(label.endswith("/exit") for label in found)


_NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def exit_note(ours: bytes | None, theirs: bytes | None) -> str:
    """How two `<command>/exit` labels differ; a missing one means exit 0."""
    return f"exit status {int(ours or 0)} against {int(theirs or 0)}"


def difference_note(ours: bytes | None, theirs: bytes | None) -> str:
    """How two outputs of one label differ: the largest |a - b| / max(|a|,
    |b|) and the largest |a - b| over their numeric cells, paired in order,
    and that largest |a - b| over the largest |value| of either output, when
    the text around the numbers is the same."""
    if ours is None or theirs is None:
        return "written by one tree only"
    a, b = _NUMBER.split(ours), _NUMBER.split(theirs)
    if len(a) != len(b) or a[::2] != b[::2]:
        return "text differs"
    xs, ys = [float(v) for v in a[1::2]], [float(v) for v in b[1::2]]
    pairs = [(x, y) for x, y in zip(xs, ys) if x != y]
    relative = max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs), default=0.0)
    absolute = max((abs(x - y) for x, y in pairs), default=0.0)
    largest = max(map(abs, xs + ys), default=0.0)
    return (f"largest relative difference {relative:.3g}, absolute {absolute:.3g}, "
            f"{absolute / largest if largest else 0.0:.3g} of the largest value")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the gridrisk package (default: this checkout's src)")
    parser.add_argument("--against", metavar="DIR",
                        help="a second package directory; print only the labels whose digests "
                             "differ, each with the largest relative and absolute difference "
                             "of its numbers and that absolute difference over its largest "
                             "value")
    args = parser.parse_args(argv)
    if args.against is None:
        found = digests(args.src, emit=lambda line: print(line, flush=True))
        return 1 if failed(found) else 0
    our_data, their_data = {}, {}
    ours = digests(args.src, contents=our_data)
    theirs = digests(args.against, contents=their_data)
    changed = [label for label in {**ours, **theirs} if ours.get(label) != theirs.get(label)]
    for label in changed:
        note = exit_note if label.endswith("/exit") else difference_note
        print(f"{label}  {note(our_data.get(label), their_data.get(label))}")
    return 1 if changed or failed(ours) or failed(theirs) else 0


if __name__ == "__main__":
    sys.exit(main())
