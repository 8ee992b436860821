"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the gridrisk modules with
timing wrappers under every name their callers look them up by: a function
bound elsewhere with `from ... import` (say `gridrisk.tree.chain_step`) is
replaced there too. Each wrapper records calls, inclusive time and self time
(inclusive time minus the time of the wrapped calls made inside it), and
reads the layer's counts from the return value.
"""

from __future__ import annotations

import json
import sys
import types
import weakref
from time import perf_counter

# Output writers share one span, cli.outputs.
OUTPUT_WRITERS = {
    "tree": ("dump_tree_csv",),
    "cli": ("write_convergence_csv", "write_gradient_csv"),
    "management": ("write_trajectory_csv", "write_strategy_json"),
}

# Traced functions ("module.function", plus the cli.outputs group) and the
# fields a traced run reports for each.
_CALLS_S = ("calls", "s")
_CALLS_S_SELF = ("calls", "s", "self_s")
SPAN_METRICS = {
    "network.build_topology": _CALLS_S,
    "network.dc_power_flow": _CALLS_S,
    "network.flow_sensitivity": _CALLS_S,
    "network.parse_case": ("s",),
    "lp.solve_lp": _CALLS_S,
    "lp.solution_sensitivity": _CALLS_S,
    "cascade.simulate_level": _CALLS_S_SELF,
    "cascade.short_timescale_process": _CALLS_S,
    "cascade.dispatch_target": _CALLS_S,
    "cascade.dispatch_execute": _CALLS_S,
    "cascade.probability_sensitivity": _CALLS_S,
    "tree.search": _CALLS_S_SELF,
    "tree.backward_risk_update": ("s",),
    "gradient.chain_step": _CALLS_S,
    "gradient.backward_gradient_update": _CALLS_S,
    "gradient.maybe_compress": ("s",),
    "gradient.to_dense": _CALLS_S,
    "management.rm_step": _CALLS_S,
    "management.irm": (),           # wrapped for its counts only
    "assess.run_assessment": _CALLS_S_SELF,
    "assess.base_state": ("s",),
    "cli.main": ("s",),
    "cli.load_case_file": ("s",),
    "cli.outputs": ("s",),
}
COUNT_METRICS = (
    "network.topologies",
    "lp.solve_lp.not_optimal",
    "lp.degenerate",
    "cascade.fast_events",
    "cascade.truncated",
    "cascade.target_fallbacks",
    "cascade.emergencies",
    "tree.attempts",
    "tree.nodes",
    "gradient.stored_entries",
    "gradient.dense_entries",
    "management.rm_halvings",
    "management.irm.rounds",
    "management.irm.accepted",
)
# Reported by the run itself, not by a wrapper.
RUN_METRICS = ("trace.solve_s", "trace.overhead_s")


def metric_names() -> list:
    names = [f"{span}.{field}" for span, fields in SPAN_METRICS.items() for field in fields]
    return names + list(COUNT_METRICS) + list(RUN_METRICS)


def metric_unit(name: str) -> str:
    return "count" if name.endswith(".calls") or name in COUNT_METRICS else "s"


class _Span:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict = {}
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack: list = []          # child time accumulated per open span
        self._topologies = weakref.WeakKeyDictionary()   # case -> in-service sets seen
        self._observers = {
            "network.dc_power_flow": self._see_topology,
            "network.flow_sensitivity": self._see_topology,
            "lp.solve_lp": self._see_solve,
            "lp.solution_sensitivity": self._see_sensitivity,
            "cascade.short_timescale_process": self._see_fast,
            "cascade.dispatch_target": self._see_target,
            "cascade.dispatch_execute": self._see_execute,
            "tree.search": self._see_search,
            "management.rm_step": self._see_rm_step,
            "management.irm": self._see_irm,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import gridrisk  # noqa: F401  (loads every submodule)

        replacements = {}
        for key in SPAN_METRICS:
            if key != "cli.outputs":
                module, name = key.split(".")
                fn = getattr(sys.modules[f"gridrisk.{module}"], name)
                replacements[id(fn)] = self._wrap(fn, key)
        for module, names in OUTPUT_WRITERS.items():
            mod = sys.modules[f"gridrisk.{module}"]
            for name in names:
                fn = getattr(mod, name)
                replacements[id(fn)] = self._wrap(fn, "cli.outputs")
        for modname, mod in list(sys.modules.items()):
            if modname != "gridrisk" and not modname.startswith("gridrisk."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and id(val) in replacements:
                    setattr(mod, attr, replacements[id(val)])
        # cli writes summary.json and validation.json with json.dump inline.
        cli = sys.modules["gridrisk.cli"]
        shim = types.ModuleType("json")
        shim.__dict__.update(vars(json))
        shim.dump = self._wrap(json.dump, "cli.outputs")
        cli.json = shim

    def _wrap(self, fn, key: str):
        span = self.spans.setdefault(key, _Span())
        observe = self._observers.get(key)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                span.calls += 1
                span.s += dt
                span.self_s += dt - inner
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counts read at the layer boundary -------------------------------------

    def _see_topology(self, args, result) -> None:
        case, topo = args[0], args[1]
        seen = self._topologies.setdefault(case, set())
        if topo.in_service not in seen:
            seen.add(topo.in_service)
            self.counts["network.topologies"] += 1

    def _see_solve(self, args, result) -> None:
        self.counts["lp.solve_lp.not_optimal"] += not result.optimal

    def _see_sensitivity(self, args, result) -> None:
        self.counts["lp.degenerate"] += bool(result.degenerate)

    def _see_fast(self, args, result) -> None:
        self.counts["cascade.fast_events"] += result.n_events
        self.counts["cascade.truncated"] += bool(result.truncated)

    def _see_target(self, args, result) -> None:
        self.counts["cascade.target_fallbacks"] += bool(result.fallback)

    def _see_execute(self, args, result) -> None:
        self.counts["cascade.emergencies"] += bool(result.emergency)

    def _see_search(self, args, result) -> None:
        tree = args[0]
        self.counts["tree.attempts"] += len(result.attempts)
        self.counts["tree.nodes"] += len(tree.nodes) - 1
        if tree.gradients:
            self.counts["gradient.stored_entries"] += tree.stored_entries
            self.counts["gradient.dense_entries"] += tree.dense_entries

    def _see_rm_step(self, args, result) -> None:
        self.counts["management.rm_halvings"] += result.halvings

    def _see_irm(self, args, result) -> None:
        later = result.rounds[1:]   # round 0 is the initial assessment
        self.counts["management.irm.rounds"] += len(later)
        self.counts["management.irm.accepted"] += sum(r.accepted for r in later)

    # -- report ---------------------------------------------------------------

    def snapshot(self) -> dict:
        out = {}
        for key, fields in SPAN_METRICS.items():
            span = self.spans.get(key, _Span())
            for field in fields:
                out[f"{key}.{field}"] = getattr(span, field)
        out.update(self.counts)
        return out
