"""The per-layer bench tracer (`bench/layers.py`) wraps gridrisk functions
by name, so renaming or deleting one of them breaks `bench/run.py --trace 1`;
this checks that the tracer still installs and that both it and the node
count of `bench/child.py` still see every tree node."""

import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

TRACE = f"""
import importlib.util, json, sys
import gridrisk.cli

spec = importlib.util.spec_from_file_location("layers", {str(LAYERS)!r})
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
names = [key.split(".") for key in layers.SPAN_METRICS if key != "cli.outputs"]
names += [(module, name) for module, group in layers.OUTPUT_WRITERS.items() for name in group]
tracer = layers.Tracer()
tracer.install()
unwrapped = [f"{{module}}.{{name}}" for module, name in names
             if getattr(sys.modules["gridrisk." + module], name).__name__ != "traced"]

# bench/child.py counts nodes by rebinding cascade.simulate_level alone
from gridrisk import cascade, cases
from gridrisk.assess import AssessmentConfig, run_assessment
calls, traced = [0], cascade.simulate_level
def simulate_level(*args, **kwargs):
    calls[0] += 1
    return traced(*args, **kwargs)
cascade.simulate_level = simulate_level
a = run_assessment(cases.toy6(), {{3}}, AssessmentConfig(
    tau_d=15.0, t_max=30.0, attempts=400, policy="exhaustive", seed=1))
print(json.dumps({{"unwrapped": unwrapped, "nodes": len(a.tree.nodes) - 1,
                  "levels": calls[0],
                  "traced": tracer.spans["cascade.simulate_level"].calls,
                  "counted": tracer.counts["tree.nodes"]}}))
"""


def test_tracer_wraps_every_name_and_counts_nodes(fresh_python):
    # -B: loading bench/layers.py by path writes no bytecode under bench/
    got = json.loads(fresh_python(TRACE, "-B"))
    assert got["unwrapped"] == []
    assert got["nodes"] > 5
    assert got["levels"] == got["traced"] == got["counted"] == got["nodes"]
