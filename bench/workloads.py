"""Benchmark workloads: their inputs, generated from the workload seed, and
the `gridrisk` command lines one round of each runs.

A round is a fixed list of CLI operations. Every round of a run repeats the
same operations on the same inputs, so the work per round (and the tree node
count) is fixed for a given workload and seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

TAU_D = 15.0

# rts96-assess: one multi-branch contingency per RTS-96 area, each with its
# own search seed. These stay fixed; the workload seed only sets their order.
# Drawing contingencies (or search seeds) from the workload seed made the tree
# size of one 40-attempt assessment range from 16 to 61 nodes, so solve_s
# would have measured the draw rather than the program.
RTS96_OPS = (
    ((22, 23, 24), 1),   # area 1, the case the package documentation uses
    ((43, 48), 1),       # area 2
    ((85, 92, 93), 100), # area 3
)
RTS96_ATTEMPTS = 40
RTS96_T_MAX = 150.0

# grid400-gradient: best-first search two levels deep from one fixed outage.
# Its node count depends on the attempt budget alone, but its LP sizes and
# stored entries depend on the branch taken out: drawing the outage from the
# workload seed made solve_s range from 5.96 to 8.80 s over seeds 1-10 (the
# same outage repeated within 0.6 s), so the outage stays fixed and the seed
# draws only the search seed.
GRID_BUSES = 400
GRID_OUTAGES = (69,)
GRID_ATTEMPTS = 6
GRID_T_MAX = 30.0

# toy6-irm: exhaustive search, every N-1 and N-2 contingency of toy6.
TOY_T_MAX = 30.0
TOY_ATTEMPTS = 200


def ring_case(n_bus: int = GRID_BUSES) -> dict:
    """Ring-with-chords case in the native JSON schema.

    Bus i connects to bus i+1 (ring, 150 MW) and every tenth bus to the bus
    opposite it (chord, 120 MW). A generator sits on every eighth bus
    (160-180 MW, distinct costs), so generation is spread around the ring and
    the intact case is feasible; every other bus carries a 9-13 MW load.
    """
    buses = [{"id": i} for i in range(1, n_bus + 1)]
    branches = []
    for i in range(1, n_bus + 1):
        branches.append({"id": len(branches) + 1, "from": i, "to": i % n_bus + 1,
                         "y": 10.0 + (i % 3), "f_max": 150.0})
    for i in range(1, n_bus + 1, 10):
        branches.append({"id": len(branches) + 1, "from": i,
                         "to": (i - 1 + n_bus // 2) % n_bus + 1,
                         "y": 6.0, "f_max": 120.0})
    gen_buses = list(range(1, n_bus + 1, 8))
    generators = [
        {"id": j + 1, "bus": b, "p": 0.0, "p_min": 0.0,
         "p_max": 160.0 + 10.0 * (j % 3), "ramp": 5.0 + (j % 4),
         "cost": 80.0 + 0.5 * j}
        for j, b in enumerate(gen_buses)
    ]
    taken = set(gen_buses)
    loads = [
        {"id": k + 1, "bus": b, "p": 9.0 + (b % 5), "cost": 10000.0 + 5.0 * (b % 7)}
        for k, b in enumerate(b for b in range(1, n_bus + 1) if b not in taken)
    ]
    return {
        "base_mva": 100.0,
        "buses": buses,
        "branches": branches,
        "generators": generators,
        "loads": loads,
        "failure_rate": {"lambda_0": 1e-4, "lambda_1": 2e-2, "knee": 0.6,
                         "lambda_max": 0.1},
    }


@dataclass
class Op:
    """One CLI operation: its argv and what the checks need to know of it."""

    argv: list
    outages: tuple
    out: str


@dataclass
class Inputs:
    workload: str
    case_file: str
    ops: list


def _argv(command, case_file, outages, t_max, attempts, policy, seed, out):
    return [
        command, "--case", case_file,
        "--outages", ",".join(str(b) for b in outages),
        "--tau-d", repr(TAU_D), "--t-max", repr(t_max),
        "--attempts", str(attempts), "--policy", policy,
        "--seed", str(seed), "--out", out,
    ]


def make_inputs(workload: str, seed: int) -> Inputs:
    """The operations of one round, as a pure function of the workload seed.

    Paths are relative to the round's working directory, so that outputs
    (summary.json names the case path) are byte-identical across rounds.
    """
    rng = random.Random(seed)
    ops = []
    if workload == "rts96-assess":
        case_file = "inputs/rts96.json"
        order = list(RTS96_OPS)
        rng.shuffle(order)
        for k, (outages, search_seed) in enumerate(order):
            out = f"out/op{k}"
            ops.append(Op(_argv("assess", case_file, outages, RTS96_T_MAX,
                                RTS96_ATTEMPTS, "probability-sampled",
                                search_seed, out), outages, out))
    elif workload == "grid400-gradient":
        case_file = "inputs/grid400.json"
        out = "out/op0"
        ops.append(Op(_argv("gradient", case_file, GRID_OUTAGES, GRID_T_MAX,
                            GRID_ATTEMPTS, "best-first", rng.randint(1, 10**6), out),
                      GRID_OUTAGES, out))
    elif workload == "toy6-irm":
        case_file = "inputs/toy6.json"
        contingencies = [c for k in (1, 2) for c in itertools.combinations(range(1, 7), k)]
        rng.shuffle(contingencies)
        for k, outages in enumerate(contingencies):
            out = f"out/op{k}"
            ops.append(Op(_argv("irm", case_file, outages, TOY_T_MAX, TOY_ATTEMPTS,
                                "exhaustive", rng.randint(1, 10**6), out),
                          outages, out))
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return Inputs(workload, case_file, ops)


def case_text(workload: str) -> str:
    """Native-JSON text of the workload's case (needs gridrisk importable)."""
    from gridrisk import cases
    from gridrisk.network import parse_case, serialize_case

    if workload == "rts96-assess":
        return serialize_case(cases.rts96())
    if workload == "grid400-gradient":
        return serialize_case(parse_case(json.dumps(ring_case()), "native-json"))
    if workload == "toy6-irm":
        return serialize_case(cases.toy6())
    raise ValueError(f"unknown workload '{workload}'")


def write_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate and write the case file and the operation list of one round."""
    inputs = make_inputs(workload, seed)
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    (workdir / inputs.case_file).write_text(case_text(workload))
    (workdir / "inputs" / "ops.json").write_text(
        json.dumps([op.argv for op in inputs.ops], indent=1) + "\n"
    )
    return inputs
