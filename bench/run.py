"""gridrisk benchmark.

    python3 bench/run.py --workload rts96-assess --seed 1 --seconds 25 --trace 0

runs one workload and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. Every round of operations runs
in a fresh process (bench/child.py) with BLAS pinned to one thread and this
checkout's src/ on PYTHONPATH. With --trace 0 the metrics are the end-to-end
ones (setup_s, solve_s, nodes_per_s, peak_rss_mb); with --trace 1 untraced
rounds (the reference for the tracing overhead) alternate with traced ones,
which report per-layer metrics (see bench/layers.py).

    python3 bench/run.py                      # every workload once
    python3 bench/run.py --repeat 10          # median and quartiles per metric
    python3 bench/run.py --self-test          # each output check fails on corrupted output
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("rts96-assess", "grid400-gradient", "toy6-irm")
RUN_SECONDS = 36
MIN_SETUPS = 5          # setup_s is the median over at least this many processes
RUN_LIMIT_S = 170.0     # a run (rounds, extra set-ups, checks) ends within this
END_TO_END = {"setup_s": "s", "solve_s": "s", "nodes_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: on 2 cores the default two made rts96 nodes 1.6x slower
    # and changed the last digits of R'.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Run:
    """Child processes of one run, their directories and the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = OUT / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def spawn(self, mode: str, *extra: str) -> dict:
        """Start a child, wait for it, return its result with `setup_s`/`wall_s`."""
        workdir = self.dir / f"{mode}{self.count}"
        self.count += 1
        workdir.mkdir()
        result_file = workdir / "result.json"
        cmd = [sys.executable, str(BENCH / "child.py"), mode, self.workload,
               str(self.seed), str(result_file), *extra]
        with open(workdir / "log.txt", "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=workdir, env=_child_env(),
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(self.deadline - t_spawn, 0.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{mode} process of {self.workload} passed the "
                                 f"{RUN_LIMIT_S:.0f} s run limit") from None
            wall = time.monotonic() - t_spawn
        if code != 0:
            tail = (workdir / "log.txt").read_text()[-3000:]
            raise BenchError(f"{mode} process of {self.workload} exited {code}:\n{tail}")
        result = json.loads(result_file.read_text())
        result["workdir"] = workdir
        result["wall_s"] = wall
        if "t_first" in result:
            result["setup_s"] = result["t_first"] - t_spawn
        return result

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:     # another run is still using it
            pass


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: whole rounds for `seconds`, extra set-ups, then the checks."""
    run = Run(workload, seed)
    try:
        return _measure(run, seconds, trace)
    finally:
        run.close()


def _measure(run: Run, seconds: float, trace: bool) -> dict:
    rounds = []
    t0 = time.monotonic()
    while True:
        # A traced run alternates untraced (reference) and traced rounds.
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run.spawn("round", "1" if traced else "0"))
        rounds[-1]["traced"] = traced
        longest = max(r["wall_s"] for r in rounds)
        if time.monotonic() - t0 + longest > seconds and (traced or not trace):
            break
    plain = [r for r in rounds if not r["traced"]]
    setups = [r["setup_s"] for r in plain]
    if not trace:
        while len(setups) < MIN_SETUPS:
            setups.append(run.spawn("setup")["setup_s"])

    errors = [f"{name}: {msg}" for name, msg in
              run.spawn("check", str(rounds[0]["workdir"]))["errors"]]
    if len({r["digest"] for r in rounds}) != 1:
        errors.append("rounds of one run wrote different outputs")
    if len({r["nodes"] for r in rounds}) != 1:
        errors.append(f"node counts differ between rounds: {[r['nodes'] for r in rounds]}")
    for msg in errors:
        print(f"CHECK FAILED [{run.workload} seed {run.seed}] {msg}", file=sys.stderr)

    if trace:
        metrics = _layer_metrics(rounds, plain, errors)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in rounds),
            "nodes_per_s": statistics.median(r["nodes"] / r["solve_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return {
        "correct": not errors,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def _layer_metrics(rounds: list, plain: list, errors: list) -> dict:
    from layers import metric_names, metric_unit

    traced = [r for r in rounds if r["traced"]]
    first = traced[0]["layers"]
    for r in traced[1:]:
        moved = [k for k, v in first.items()
                 if metric_unit(k) == "count" and r["layers"][k] != v]
        if moved:
            errors.append(f"traced rounds disagree on counts {moved}")
    values = {}
    for name in metric_names():
        if name in first:
            if metric_unit(name) == "count":
                values[name] = first[name]
            else:
                values[name] = statistics.median(r["layers"][name] for r in traced)
    values["trace.solve_s"] = statistics.median(r["solve_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.solve_s"] - statistics.median(
        r["solve_s"] for r in plain)
    return {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()}


# ---------------------------------------------------------------------------
# Repeat mode and self-test
# ---------------------------------------------------------------------------

def repeat(workloads, seed: int, seconds: float, trace: bool, n: int) -> int:
    """Run each workload n times on seeds seed..seed+n-1; print the spread."""
    ok = True
    for workload in workloads:
        values: dict = {}
        failed = attempted = 0
        for i in range(n):
            res = run_workload(workload, seed + i, seconds, trace)
            ok &= res["correct"]
            failed += res["failed"]
            attempted += res["attempted"]
            print(json.dumps({"workload": workload, "seed": seed + i, **res}), flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None}
        print(json.dumps({"workload": workload, "runs": n, "attempted": attempted,
                          "failed": failed, "summary": summary}), flush=True)
    return 0 if ok else 1


def self_test(workloads, seed: int) -> int:
    """Each output check must pass on real output and report a corrupted copy."""
    ok = True
    for workload in workloads:
        run = Run(workload, seed)
        try:
            rnd = run.spawn("round", "0")
            res = run.spawn("selftest", str(rnd["workdir"]))
        finally:
            run.close()
        for line in res["lines"]:
            print(f"{workload}: {line}")
        ok &= res["passed"]
    print("SELF-TEST " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times on consecutive seeds")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridrisk" / "__init__.py").is_file():
        print(f"error: no gridrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.self_test:
            return self_test(workloads, args.seed)
        if args.repeat:
            return repeat(workloads, args.seed, args.seconds, bool(args.trace), args.repeat)
        ok = True
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            ok &= res["correct"]
            if args.workload == "all":
                res = {"workload": workload, **res}
            print(json.dumps(res), flush=True)
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
