"""Bundled and synthetic study cases.

`rts96` loads the packaged three-area reliability test system (73 buses,
120 branches) from matpower text; the small builders return hand-sized cases
used throughout the tests and the acceptance suite.
"""

from __future__ import annotations

import importlib.resources
import json

from .network import NetworkCase, parse_case


def _case(doc: dict) -> NetworkCase:
    return parse_case(json.dumps(doc), "native-json")


def two_bus() -> NetworkCase:
    """Single branch, one generator, one load."""
    return _case(
        {
            "base_mva": 100.0,
            "buses": [{"id": 1}, {"id": 2}],
            "branches": [{"id": 1, "from": 1, "to": 2, "y": 10.0, "f_max": 100.0}],
            "generators": [
                {"id": 1, "bus": 1, "p": 50.0, "p_min": 0.0, "p_max": 200.0,
                 "ramp": 5.0, "cost": 100.0}
            ],
            "loads": [{"id": 1, "bus": 2, "p": 50.0, "cost": 10000.0}],
            "failure_rate": {"lambda_0": 1e-4, "lambda_1": 1e-2},
        }
    )


def triangle() -> NetworkCase:
    """Symmetric three-bus loop with equal admittances and a 100 MW load."""
    return _case(
        {
            "base_mva": 100.0,
            "buses": [{"id": 1}, {"id": 2}, {"id": 3}],
            "branches": [
                {"id": 1, "from": 1, "to": 2, "y": 5.0, "f_max": 200.0},
                {"id": 2, "from": 2, "to": 3, "y": 5.0, "f_max": 200.0},
                {"id": 3, "from": 1, "to": 3, "y": 5.0, "f_max": 200.0},
            ],
            "generators": [
                {"id": 1, "bus": 1, "p": 100.0, "p_min": 0.0, "p_max": 400.0,
                 "ramp": 20.0, "cost": 90.0}
            ],
            "loads": [{"id": 1, "bus": 2, "p": 100.0, "cost": 10000.0}],
        }
    )


def toy6() -> NetworkCase:
    """Six-bus case with a double-circuit corridor feeding the main load.

    Removing one corridor circuit (branch 3) loads the surviving circuit well
    past the failure-rate knee, so level-1 risk concentrates on branch 4;
    its loss islands bus 4. A small expensive unit at bus 6 gives the target
    space a second interior generator. Costs are all distinct so dispatch
    ties never occur.
    """
    return _case(
        {
            "base_mva": 100.0,
            "buses": [{"id": i} for i in range(1, 7)],
            "branches": [
                {"id": 1, "from": 1, "to": 3, "y": 12.0, "f_max": 170.0},
                {"id": 2, "from": 2, "to": 3, "y": 12.0, "f_max": 300.0},
                {"id": 3, "from": 3, "to": 4, "y": 10.0, "f_max": 150.0},
                {"id": 4, "from": 3, "to": 4, "y": 10.0, "f_max": 150.0},
                {"id": 5, "from": 3, "to": 5, "y": 8.0, "f_max": 220.0},
                {"id": 6, "from": 5, "to": 6, "y": 8.0, "f_max": 130.0},
            ],
            "generators": [
                {"id": 1, "bus": 1, "p": 100.0, "p_min": 0.0, "p_max": 100.0,
                 "ramp": 6.0, "cost": 80.0},
                {"id": 2, "bus": 2, "p": 100.0, "p_min": 0.0, "p_max": 200.0,
                 "ramp": 6.0, "cost": 120.0},
                {"id": 3, "bus": 6, "p": 0.0, "p_min": 0.0, "p_max": 40.0,
                 "ramp": 2.0, "cost": 150.0},
            ],
            "loads": [
                {"id": 1, "bus": 4, "p": 120.0, "cost": 10000.0},
                {"id": 2, "bus": 5, "p": 90.0, "cost": 9000.0},
                {"id": 3, "bus": 6, "p": 60.0, "cost": 11000.0},
            ],
            "failure_rate": {
                "lambda_0": 1e-4, "lambda_1": 2e-2, "knee": 0.6,
                "lambda_max": 0.1, "trip_factor": 1.2,
            },
        }
    )


def ring120() -> NetworkCase:
    """Deterministic 120-bus ring-with-chords system for large-case behaviour.

    Generation sits on the first quarter of the ring, load on the rest, so
    the chords and the ring segments near the generation pocket run loaded.
    """
    n_bus = 120
    buses = [{"id": i} for i in range(1, n_bus + 1)]
    branches = []
    bid = 0
    for i in range(1, n_bus + 1):
        bid += 1
        branches.append(
            {"id": bid, "from": i, "to": (i % n_bus) + 1, "y": 10.0, "f_max": 260.0}
        )
    for i in range(1, n_bus + 1, 10):  # chords across the ring
        bid += 1
        branches.append(
            {"id": bid, "from": i, "to": (i - 1 + n_bus // 2) % n_bus + 1,
             "y": 6.0, "f_max": 220.0}
        )
    n_gen = n_bus // 8
    generators = [
        {"id": j + 1, "bus": 2 * j + 1, "p": 0.0, "p_min": 0.0,
         "p_max": 160.0 + 10.0 * (j % 3), "ramp": 5.0 + (j % 4),
         "cost": 80.0 + 3.0 * j}
        for j in range(n_gen)
    ]
    loads = [
        {"id": k + 1, "bus": b, "p": 9.0 + (b % 5), "cost": 10000.0}
        for k, b in enumerate(range(n_bus // 4 + 1, n_bus + 1))
    ]
    return _case(
        {
            "base_mva": 100.0,
            "buses": buses,
            "branches": branches,
            "generators": generators,
            "loads": loads,
            "failure_rate": {
                "lambda_0": 1e-4, "lambda_1": 2e-2, "knee": 0.6, "lambda_max": 0.1,
            },
        }
    )


def rts96_text() -> str:
    """Raw matpower text of the bundled three-area RTS-96 file."""
    return (
        importlib.resources.files("gridrisk.data").joinpath("rts96.m").read_text()
    )


def rts96() -> NetworkCase:
    """Parse the bundled RTS-96 with its companion default parameters."""
    defaults = {
        "failure_rate": {"lambda_0": 1e-4, "lambda_1": 1e-2, "knee": 0.6,
                         "lambda_max": 0.05, "trip_factor": 1.2},
        "costs": {"load_shed": 10000.0, "gen_adjust": 100.0},
    }
    return parse_case(rts96_text(), "matpower-text", defaults)
