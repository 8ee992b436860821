"""One fresh benchmark process; `run.py` starts it with BLAS pinned to one
thread and `src/` on PYTHONPATH, in the round's working directory.

    child.py setup <workload> <seed> <result.json>
        import gridrisk, write the inputs, stop before the first operation
    child.py round <workload> <seed> <result.json> <trace 0|1>
        ... then run one round of operations through gridrisk.cli.main
    child.py check <workload> <seed> <result.json> <round dir>
        check the outputs one round wrote
    child.py selftest <workload> <seed> <result.json> <round dir>
        check them, then a corrupted copy per check, which must be reported

The time of the first operation is taken from time.monotonic(), which on
Linux is one clock for all processes, so the parent can subtract its own
start time from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _setup(workload: str, seed: int):
    import gridrisk.cli  # numpy, scipy and every gridrisk module

    from workloads import write_inputs

    inputs = write_inputs(workload, seed, Path.cwd())
    return gridrisk.cli, inputs


def _count_nodes():
    """Count cascade.simulate_level calls: one per tree node simulated."""
    import gridrisk.cascade as cascade

    count = [0]
    inner = cascade.simulate_level

    def simulate_level(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    cascade.simulate_level = simulate_level
    return count


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def do_setup(workload: str, seed: int) -> dict:
    _setup(workload, seed)
    return {"t_first": time.monotonic()}


def do_round(workload: str, seed: int, traced: bool) -> dict:
    cli, inputs = _setup(workload, seed)
    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        count = _count_nodes()
    failed = 0
    t_first = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):   # the CLI prints a result line
        for op in inputs.ops:
            failed += cli.main(op.argv) != 0
    t_end = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "t_first": t_first,
        "solve_s": t_end - t_first,
        "ops": len(inputs.ops),
        "failed": failed,
        "peak_rss_kb": rss_kb,
        "digest": _digest(Path.cwd() / "out"),
    }
    if tracer is not None:
        result["layers"] = tracer.snapshot()
        result["nodes"] = result["layers"]["cascade.simulate_level.calls"]
    else:
        result["nodes"] = count[0]
    return result


def _outputs_and_references(workload: str, seed: int, round_dir: Path):
    import checks
    from workloads import make_inputs

    inputs = make_inputs(workload, seed)
    return checks.load_outputs(round_dir, inputs), checks.references(round_dir, inputs)


def do_check(workload: str, seed: int, round_dir: Path) -> dict:
    import checks

    outputs, refs = _outputs_and_references(workload, seed, round_dir)
    return {"errors": checks.check(workload, outputs, refs)}


def do_selftest(workload: str, seed: int, round_dir: Path) -> dict:
    import checks

    outputs, refs = _outputs_and_references(workload, seed, round_dir)
    errors = checks.check(workload, outputs, refs)
    passed = not errors
    lines = [f"{'PASS' if passed else 'FAIL'} unmodified output: {len(errors)} violations"]
    lines += [f"  {name}: {msg}" for name, msg in errors]
    for name, what, outs, rfs in checks.corruptions(workload, outputs, refs):
        reported = sorted({n for n, _ in checks.check(workload, outs, rfs)})
        hit = name in reported
        passed &= hit
        lines.append(f"{'PASS' if hit else 'FAIL'} {name}: {what}; reported by {reported}")
    return {"lines": lines, "passed": passed}


def main(argv) -> int:
    mode, workload, seed, result_path = argv[0], argv[1], int(argv[2]), Path(argv[3])
    import gridrisk

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(gridrisk.__file__).resolve().parents:
        raise RuntimeError(f"gridrisk imported from {gridrisk.__file__}, not from {src}")
    if mode == "setup":
        result = do_setup(workload, seed)
    elif mode == "round":
        result = do_round(workload, seed, argv[4] == "1")
    elif mode == "check":
        result = do_check(workload, seed, Path(argv[4]))
    elif mode == "selftest":
        result = do_selftest(workload, seed, Path(argv[4]))
    else:
        raise ValueError(f"unknown mode '{mode}'")
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
