"""Grid data model: case files, topology/islanding, DC power flow, flow sensitivities.

Each topology keeps one injection-to-flow map, its flow sensitivity
(n_branch x n_x); DC flows are read from it, and bus angles are never kept.

Units are fixed throughout the package: power in MW, branch admittance in pu
on the case's MVA base, angles in rad, failure rates in 1/min, costs in $/MW.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._ext import load_scipy_extension

# the compiled kernel scipy.linalg.inv calls after validating its input
_batched_linalg = load_scipy_extension("scipy.linalg._batched_linalg")

SCHEMA_VERSION = 1

# Default parameters used when a case file does not carry them (matpower files
# never do; native files may override per entity).
DEFAULT_FAILURE_RATE = {
    "lambda_0": 1e-4,
    "lambda_1": 1e-2,
    "knee": 0.6,
    "overload_slope": None,  # None -> continue the mid-segment slope
    "lambda_max": 0.05,
    "trip_factor": 1.2,
}
DEFAULT_COSTS = {"load_shed": 10000.0, "gen_adjust": 100.0}
DEFAULT_RAMP_FRACTION = 0.02   # MW/min as a fraction of P_max when unknown
DEFAULT_BRANCH_LIMIT = 1e4     # MW, for matpower rows with RATE_A == 0


class CaseError(ValueError):
    """Base class for case-file problems."""


class CaseSyntaxError(CaseError):
    """Malformed case text; carries the 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class CaseSemanticError(CaseError):
    """Structurally valid case with inconsistent content; names the entity."""

    def __init__(self, message: str, entity: str | None = None):
        super().__init__(message if entity is None else f"{message} [{entity}]")
        self.entity = entity


class PowerFlowError(RuntimeError):
    """An island's DC system that cannot be solved: its susceptance matrix is
    singular at working precision or not finite (say, a branch admittance
    of 1e-17 pu next to ordinary ones); names the island by its bus ids."""


class IllConditionedIsland(RuntimeWarning):
    """An island's susceptance matrix was inverted with a reciprocal
    condition number below machine precision, as `scipy.linalg.inv` warns."""


def _check_finite(entity: str, *items) -> None:
    """Reject NaN and +-inf in any float attribute of the given objects."""
    for item in items:
        for name, value in vars(item).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CaseSemanticError(f"{name} must be finite, got {value}", entity)


@dataclass(frozen=True)
class FailureRateParams:
    """Piecewise-linear flow-dependent failure rate.

    lam(rho) with rho = |F|/F_max:
      rho <= knee:      lam_0
      knee < rho <= 1:  lam_0 + (rho-knee)/(1-knee) * (lam_1-lam_0)
      rho > 1:          min(lam_1 + slope*(rho-1), lam_max)
    Continuous and nondecreasing by construction.
    """

    lam0: float
    lam1: float
    knee: float
    slope: float
    lam_max: float

    def validate(self, entity: str) -> None:
        _check_finite(entity, self)
        if not (0.0 <= self.lam0 <= self.lam1 <= self.lam_max):
            raise CaseSemanticError(
                "failure rates must satisfy 0 <= lambda_0 <= lambda_1 <= lambda_max", entity
            )
        if not (0.0 < self.knee < 1.0):
            raise CaseSemanticError("failure-rate knee must lie in (0, 1)", entity)
        if self.slope < 0.0:
            raise CaseSemanticError("overload slope must be >= 0", entity)


@dataclass(frozen=True)
class Bus:
    id: int
    kind: int = 1  # matpower-style type flag (1 PQ, 2 PV, 3 ref); informational


@dataclass(frozen=True)
class Branch:
    id: int
    from_bus: int
    to_bus: int
    y: float           # pu susceptance magnitude (1/x)
    f_max: float       # MW continuous limit
    trip_factor: float # instantaneous trip above trip_factor * f_max
    rate: FailureRateParams


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    p: float      # MW base-case setpoint
    p_min: float
    p_max: float
    ramp: float   # MW/min
    cost: float   # $/MW adjustment


@dataclass(frozen=True)
class Load:
    id: int
    bus: int
    p: float      # MW base demand
    cost: float   # $/MW shed


@dataclass(frozen=True)
class SystemState:
    """Dispatch state x = [P_d; P_g] in MW."""

    p_load: np.ndarray
    p_gen: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_load", np.asarray(self.p_load, dtype=float))
        object.__setattr__(self, "p_gen", np.asarray(self.p_gen, dtype=float))

    @property
    def x(self) -> np.ndarray:
        return np.concatenate([self.p_load, self.p_gen])

    @staticmethod
    def from_x(x: np.ndarray, n_load: int) -> "SystemState":
        x = np.asarray(x, dtype=float)
        return SystemState(x[:n_load].copy(), x[n_load:].copy())

    def total_load(self) -> float:
        return float(self.p_load.sum())


class NetworkCase:
    """Validated grid description with precomputed index arrays.

    Immutable by convention; `build_topology` caches one read-only
    `Topology` per in-service set on the instance (idempotent writes, safe to
    share across tasks).
    """

    def __init__(self, base_mva: float, buses, branches, generators, loads):
        self.base_mva = float(base_mva)
        self.buses = tuple(buses)
        self.branches = tuple(branches)
        self.generators = tuple(generators)
        self.loads = tuple(loads)
        self._validate()

        self.n_bus = len(self.buses)
        self.n_branch = len(self.branches)
        self.n_load = len(self.loads)
        self.n_gen = len(self.generators)
        self.n_x = self.n_load + self.n_gen

        self.bus_pos = {b.id: i for i, b in enumerate(self.buses)}
        self.branch_ids = np.array([br.id for br in self.branches], dtype=int)
        self.branch_pos = {br.id: i for i, br in enumerate(self.branches)}
        self.branch_from = np.array([self.bus_pos[b.from_bus] for b in self.branches], dtype=int)
        self.branch_to = np.array([self.bus_pos[b.to_bus] for b in self.branches], dtype=int)
        self.branch_y = np.array([b.y for b in self.branches])
        self.f_max = np.array([b.f_max for b in self.branches])
        self.trip_factor = np.array([b.trip_factor for b in self.branches])
        self.lam0 = np.array([b.rate.lam0 for b in self.branches])
        self.lam1 = np.array([b.rate.lam1 for b in self.branches])
        self.knee = np.array([b.rate.knee for b in self.branches])
        self.over_slope = np.array([b.rate.slope for b in self.branches])
        self.lam_max = np.array([b.rate.lam_max for b in self.branches])
        self.load_bus = np.array([self.bus_pos[l.bus] for l in self.loads], dtype=int)
        self.gen_bus = np.array([self.bus_pos[g.bus] for g in self.generators], dtype=int)
        self.c_load = np.array([l.cost for l in self.loads])
        self.c_gen = np.array([g.cost for g in self.generators])
        self.p_load0 = np.array([l.p for l in self.loads])
        self.p_gen0 = np.array([g.p for g in self.generators])
        self.gen_min = np.array([g.p_min for g in self.generators])
        self.gen_max = np.array([g.p_max for g in self.generators])
        self.gen_ramp = np.array([g.ramp for g in self.generators])
        self._topo_cache: dict[frozenset, "Topology"] = {}

    def _validate(self) -> None:
        _check_finite("case", self)
        if self.base_mva <= 0:
            raise CaseSemanticError("base_mva must be > 0", "case")
        bus_ids = {b.id for b in self.buses}
        if len(bus_ids) != len(self.buses):
            raise CaseSemanticError("duplicate bus id")
        seen = set()
        for br in self.branches:
            if br.id in seen:
                raise CaseSemanticError("duplicate branch id", f"branch {br.id}")
            seen.add(br.id)
            _check_finite(f"branch {br.id}", br)
            for end in (br.from_bus, br.to_bus):
                if end not in bus_ids:
                    raise CaseSemanticError(
                        f"branch endpoint references unknown bus {end}", f"branch {br.id}"
                    )
            if br.f_max <= 0:
                raise CaseSemanticError("branch flow limit must be > 0", f"branch {br.id}")
            if br.y <= 0:
                raise CaseSemanticError("branch admittance must be > 0", f"branch {br.id}")
            if br.trip_factor < 1.0:
                raise CaseSemanticError("trip factor must be >= 1", f"branch {br.id}")
            br.rate.validate(f"branch {br.id}")
        # The largest susceptance sum `build_topology` forms is a bus's sum of
        # y over the intact network's branches, added in case order.
        y_sum = dict.fromkeys(bus_ids, 0.0)
        for br in self.branches:
            for end in (br.from_bus, br.to_bus):
                y_sum[end] += br.y
                if not math.isfinite(y_sum[end]):
                    raise CaseSemanticError(
                        f"branch admittance overflows the susceptance sum at bus {end}",
                        f"branch {br.id}",
                    )
        for g in self.generators:
            _check_finite(f"gen {g.id}", g)
            if g.bus not in bus_ids:
                raise CaseSemanticError(f"generator references unknown bus {g.bus}", f"gen {g.id}")
            if g.p_min > g.p_max:
                raise CaseSemanticError("generator P_min > P_max", f"gen {g.id}")
            if g.ramp < 0 or g.cost < 0:
                raise CaseSemanticError("generator ramp/cost must be >= 0", f"gen {g.id}")
        for l in self.loads:
            _check_finite(f"load {l.id}", l)
            if l.bus not in bus_ids:
                raise CaseSemanticError(f"load references unknown bus {l.bus}", f"load {l.id}")
            if l.p < 0 or l.cost < 0:
                raise CaseSemanticError("load demand/cost must be >= 0", f"load {l.id}")

    def base_state(self) -> SystemState:
        return SystemState(self.p_load0.copy(), self.p_gen0.copy())

    def state_names(self) -> list[str]:
        """One name per state-vector entry, loads first then generators."""
        names = [f"load{l.id}@bus{l.bus}" for l in self.loads]
        names += [f"gen{g.id}@bus{g.bus}" for g in self.generators]
        return names

    def state_buses(self) -> list[int]:
        return [l.bus for l in self.loads] + [g.bus for g in self.generators]


@dataclass(frozen=True)
class Topology:
    """In-service branch set with its islands and flow factors; one shared
    instance per set and case (see `build_topology`), with read-only arrays
    and a memo of the dispatch LPs solved on it.

    islands are tuples of bus positions; an island is energized when it
    contains at least one generator bus, and then its flow factors are taken
    against its generator bus of lowest id. `mask` is the in-service set as
    a bool per branch in case order; equality ignores the arrays. The flow
    factors are kept once, as `flow_sens`; the island inverses they are built
    from are not kept, so no array here is n_bus x n_bus.
    """

    in_service: frozenset
    islands: tuple
    energized: tuple      # bool per island
    mask: np.ndarray = field(compare=False)
    load_island: np.ndarray = field(compare=False)  # island per load
    gen_island: np.ndarray = field(compare=False)   # island per generator
    island_loads: tuple = field(compare=False)      # load positions per island
    island_gens: tuple = field(compare=False)       # generator positions per island
    flow_sens: np.ndarray = field(compare=False)    # d(flows, MW)/d([P_d; P_g], MW)
    # dispatch-LP solutions on this topology, each with the jacobians derived
    # from its sensitivity once asked for, filled by `cascade._solve_dispatch_lp`
    lp_memo: dict = field(default_factory=dict, compare=False, repr=False)


def connected_components(n_bus: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """The islands of the graph on `n_bus` buses with edges (u[i], v[i]):
    their count and each bus's island, numbered in order of the island's
    lowest bus position as `scipy.sparse.csgraph.connected_components`
    numbers them (int32 labels, as it gives).

    Union-find in which each root is the lowest position of its set, so the
    sorted distinct roots are the islands in that order."""
    parent = list(range(n_bus))

    def root(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]   # path halving
            p = parent[p]
        return p

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots, labels = np.unique([root(p) for p in range(n_bus)], return_inverse=True)
    return roots.size, labels.astype(np.int32)


def _island_inverse(case: NetworkCase, members: tuple, sub: np.ndarray) -> np.ndarray:
    """The inverse of an island's reduced susceptance matrix `sub`, from the
    kernel `scipy.linalg.inv` calls (it finds the matrix positive definite
    and inverts it by Cholesky), so the bits are that function's. Its checks
    are mirrored: a non-finite or singular matrix raises `PowerFlowError`,
    and an ill-conditioned one only warns."""
    buses = [case.buses[p].id for p in members]
    if not np.isfinite(sub).all():
        raise PowerFlowError(f"island system is not finite (island of buses {buses})")
    inverse, errors = _batched_linalg._inv(sub, -1, False, False)
    for err in errors:
        if err["is_singular"] or err["lapack_info"] < 0:
            raise PowerFlowError(f"singular island system (island of buses {buses})")
        if err["is_ill_conditioned"]:
            warnings.warn(f"ill-conditioned island system (island of buses {buses}): "
                          f"rcond = {err['rcond']}", IllConditionedIsland, stacklevel=3)
    return inverse


def build_topology(case: NetworkCase, removed: frozenset = frozenset()) -> Topology:
    """The topology of the network without `removed` branches, from the
    case's cache or, on the first request for its in-service set, built and
    cached.

    Reference bus per energized island: the generator bus with the lowest bus
    id (choice does not affect flows).
    """
    in_service = frozenset(case.branch_ids.tolist()) - frozenset(removed)
    cached = case._topo_cache.get(in_service)
    if cached is not None:
        return cached

    n_bus = case.n_bus
    mask = np.zeros(case.n_branch, dtype=bool)
    mask[[case.branch_pos[b] for b in in_service]] = True
    u, v, y = case.branch_from[mask], case.branch_to[mask], case.branch_y[mask]
    n_isl, labels = connected_components(n_bus, u, v)
    islands = tuple(
        tuple(np.flatnonzero(labels == k).tolist()) for k in range(n_isl)
    )
    gen_buses = set(case.gen_bus.tolist())
    reference = tuple(
        min((p for p in members if p in gen_buses), key=lambda p: case.buses[p].id, default=-1)
        for members in islands
    )
    energized = tuple(r >= 0 for r in reference)

    # np.add.at applies the entries in order: branch by branch, as (u,u), (v,v),
    # (u,v), (v,u), so every sum is accumulated in case order.
    b_mat = np.zeros((n_bus, n_bus))
    np.add.at(
        b_mat,
        (np.column_stack([u, v, u, v]).ravel(), np.column_stack([u, v, v, u]).ravel()),
        np.column_stack([y, y, -y, -y]).ravel(),
    )

    # theta = inv_map @ injections(pu), zero row/col at each reference bus;
    # used here to build the flow rows and then dropped
    inv_map = np.zeros((n_bus, n_bus))
    for k, members in enumerate(islands):
        if not energized[k] or len(members) == 1:
            continue
        keep = [p for p in members if p != reference[k]]
        inv_map[np.ix_(keep, keep)] = _island_inverse(case, members, b_mat[np.ix_(keep, keep)])

    # branch-flow rows: F_pu = y_i * (theta_u - theta_v), zero for branches
    # out of service or in a de-energized island
    live = np.flatnonzero(mask & np.array(energized, dtype=bool)[labels][case.branch_from])
    frm, to = case.branch_from[live], case.branch_to[live]
    flow_rows = np.zeros((case.n_branch, n_bus))
    flow_rows[live] = case.branch_y[live, None] * (inv_map[frm] - inv_map[to])

    # injection-to-state mapping: load columns negative, generator columns positive
    sens = np.zeros((case.n_branch, case.n_x))
    sens[:, : case.n_load] = -flow_rows[:, case.load_bus]
    sens[:, case.n_load :] = flow_rows[:, case.gen_bus]

    load_island, gen_island = labels[case.load_bus], labels[case.gen_bus]
    topo = Topology(
        in_service=in_service,
        islands=islands,
        energized=energized,
        mask=mask,
        load_island=load_island,
        gen_island=gen_island,
        island_loads=tuple(np.flatnonzero(load_island == k) for k in range(n_isl)),
        island_gens=tuple(np.flatnonzero(gen_island == k) for k in range(n_isl)),
        flow_sens=sens,
    )
    for arr in (mask, load_island, gen_island, *topo.island_loads, *topo.island_gens, sens):
        arr.flags.writeable = False
    case._topo_cache[in_service] = topo
    return topo


def apply_outage(case: NetworkCase, topo: Topology, branch_ids) -> Topology:
    """Remove branches and look up the resulting topology; ids already out
    of service change nothing."""
    requested = frozenset(branch_ids)
    for bid in requested:
        if bid not in case.branch_pos:
            raise CaseSemanticError(f"unknown branch id {bid}", f"branch {bid}")
    effective = requested & topo.in_service
    if not effective:
        return topo
    removed = frozenset(case.branch_ids.tolist()) - topo.in_service | effective
    return build_topology(case, removed)


def dc_power_flow(case: NetworkCase, topo: Topology, state: SystemState) -> np.ndarray:
    """Branch flows in MW at `state`: the topology's flow sensitivity times
    [P_d; P_g].

    The factors are taken per island against its reference bus, so
    injections that do not balance in an island leave their residual on the
    reference. Out-of-service branches and branches of de-energized islands
    carry zero flow.
    """
    return topo.flow_sens @ state.x


def flow_sensitivity(case: NetworkCase, topo: Topology) -> np.ndarray:
    """d(branch flows, MW)/d([P_d; P_g], MW) for the fixed topology.

    Injection-shift factors computed per island against the island reference;
    rows of out-of-service branches and branches in de-energized islands are
    zero. Load columns carry a negative injection sign. The matrix is the
    topology's own, shared and read-only.
    """
    return topo.flow_sens


# ---------------------------------------------------------------------------
# Case parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _integer(value, key: str, entity: str) -> int:
    """`value` as an int; a boolean or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or int(value) != float(value):
        raise CaseSemanticError(f"'{key}' must be an integer, got {value!r}", entity)
    return int(value)


def _number(row: dict, key: str, entity: str, default=_REQUIRED, kind=float):
    """`kind(row[key])`, or `default` when the key is absent. A missing
    required key, a string (even a numeric one), a boolean, a value `kind`
    cannot convert, or (for `int`) a non-integral value names the entity and
    key."""
    if key not in row:
        if default is _REQUIRED:
            raise CaseSemanticError(f"missing key '{key}'", entity)
        return default
    if isinstance(row[key], str) or (kind is float and isinstance(row[key], bool)):
        raise CaseSemanticError(f"'{key}' must be a number, got {row[key]!r}", entity)
    try:
        number = kind(row[key])
    except (TypeError, ValueError, OverflowError):
        raise CaseSemanticError(f"'{key}' must be a number, got {row[key]!r}", entity) from None
    return _integer(row[key], key, entity) if kind is int else number


def _parameter_defaults(source: dict) -> tuple[dict, float, float, float]:
    """Failure-rate defaults, load-shed cost, generator-adjustment cost and
    trip factor, from the optional `failure_rate` and `costs` objects. The
    merged failure-rate block is checked here, after the costs, so a bad
    value in it is named `[failure_rate]`, not after the first branch."""
    blocks = []
    for key, base in (("failure_rate", DEFAULT_FAILURE_RATE), ("costs", DEFAULT_COSTS)):
        block = source.get(key, {})
        if not isinstance(block, dict):
            raise CaseSemanticError(f"'{key}' must be an object")
        blocks.append({**base, **block})
    rates, costs = blocks
    shed_cost = _number(costs, "load_shed", "costs")
    adjust_cost = _number(costs, "gen_adjust", "costs")
    _rate_from_dict({}, rates, "failure_rate")
    return rates, shed_cost, adjust_cost, _number(rates, "trip_factor", "failure_rate")


def _rate_from_dict(d: dict, defaults: dict, entity: str) -> FailureRateParams:
    merged = dict(defaults)
    merged.update({k: v for k, v in d.items() if v is not None})
    lam0 = _number(merged, "lambda_0", entity)
    lam1 = _number(merged, "lambda_1", entity)
    knee = _number(merged, "knee", entity)
    if merged.get("overload_slope") is None:
        slope = (lam1 - lam0) / max(1.0 - knee, 1e-12)
    else:
        slope = _number(merged, "overload_slope", entity)
    params = FailureRateParams(
        lam0=lam0, lam1=lam1, knee=knee, slope=slope,
        lam_max=_number(merged, "lambda_max", entity),
    )
    params.validate(entity)
    return params


def _parse_native_json(text: str) -> NetworkCase:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise CaseSyntaxError("top-level JSON value must be an object", 1, 1)
    for key in ("base_mva", "buses", "branches", "generators", "loads"):
        if key not in doc:
            raise CaseSemanticError(f"missing top-level key '{key}'")
        if key != "base_mva" and not (
            isinstance(doc[key], list) and all(isinstance(row, dict) for row in doc[key])
        ):
            raise CaseSemanticError(f"'{key}' must be a list of objects", "case")
    fr_defaults, shed_cost, adjust_cost, trip_default = _parameter_defaults(doc)

    def entities(key: str, label: str):
        """(row, id, entity name) per object under `key`."""
        for i, row in enumerate(doc[key]):
            eid = _number(row, "id", f"{key}[{i}]", kind=int)
            yield row, eid, f"{label} {eid}"

    buses = [
        Bus(id=eid, kind=_number(b, "kind", where, 1, int))
        for b, eid, where in entities("buses", "bus")
    ]
    branches = [
        Branch(
            id=eid,
            from_bus=_number(row, "from", where, kind=int),
            to_bus=_number(row, "to", where, kind=int),
            y=_number(row, "y", where),
            f_max=_number(row, "f_max", where),
            trip_factor=_number(row, "trip_factor", where, trip_default),
            rate=_rate_from_dict(row, fr_defaults, where),
        )
        for row, eid, where in entities("branches", "branch")
    ]
    gens = [
        Generator(
            id=eid,
            bus=_number(g, "bus", where, kind=int),
            p=_number(g, "p", where, 0.0),
            p_min=_number(g, "p_min", where, 0.0),
            p_max=_number(g, "p_max", where),
            ramp=_number(g, "ramp", where),
            cost=_number(g, "cost", where, adjust_cost),
        )
        for g, eid, where in entities("generators", "gen")
    ]
    loads = [
        Load(
            id=eid,
            bus=_number(l, "bus", where, kind=int),
            p=_number(l, "p", where),
            cost=_number(l, "cost", where, shed_cost),
        )
        for l, eid, where in entities("loads", "load")
    ]
    return NetworkCase(_number(doc, "base_mva", "case"), buses, branches, gens, loads)


_MP_NUM = re.compile(r"[-+0-9.eE]+")


def _mp_float(tok: str) -> float | None:
    """The finite number a matpower token spells, else None."""
    try:
        value = float(tok) if _MP_NUM.fullmatch(tok) else math.nan
    except ValueError:
        value = math.nan
    return value if math.isfinite(value) else None


def _matpower_block(text: str, name: str) -> tuple[list[list[float]], int]:
    """Extract `mpc.<name> = [...];` as rows of floats; returns start line."""
    m = re.search(rf"mpc\.{name}\s*=\s*\[", text)
    if m is None:
        raise CaseSyntaxError(f"matrix mpc.{name} not found", 1, 1)
    start = m.end()
    end = text.find("]", start)
    if end < 0:
        line = text.count("\n", 0, start) + 1
        raise CaseSyntaxError(f"unterminated mpc.{name} matrix", line, 1)
    body = text[start:end]
    base_line = text.count("\n", 0, start) + 1
    rows = []
    for off, raw in enumerate(body.split("\n")):
        stripped = raw.split("%", 1)[0].strip().rstrip(";").strip()
        if not stripped:
            continue
        vals = []
        for tok in stripped.split():
            value = _mp_float(tok)
            if value is None:
                col = raw.index(tok) + 1
                raise CaseSyntaxError(
                    f"invalid numeric token '{tok}' in mpc.{name}", base_line + off, col
                )
            vals.append(value)
        rows.append(vals)
    return rows, base_line


def _parse_matpower(text: str, defaults: dict | None = None) -> NetworkCase:
    """Read mpc.baseMVA / mpc.bus / mpc.gen / mpc.branch from matpower text.

    Failure-rate and cost parameters are not carried by the format: they come
    from `defaults` (keys: failure_rate, costs, ramp_fraction, branch_limit).
    """
    defaults = defaults or {}
    fr_defaults, shed_cost, adjust_cost, trip_default = _parameter_defaults(defaults)
    ramp_fraction = _number(defaults, "ramp_fraction", "defaults", DEFAULT_RAMP_FRACTION)
    branch_limit = _number(defaults, "branch_limit", "defaults", DEFAULT_BRANCH_LIMIT)

    m = re.search(r"mpc\.baseMVA\s*=\s*([-+0-9.eE]+)\s*;", text)
    if m is None:
        raise CaseSyntaxError("mpc.baseMVA assignment not found", 1, 1)
    base_mva = _mp_float(m.group(1))
    if base_mva is None:
        line = text.count("\n", 0, m.start(1)) + 1
        raise CaseSyntaxError(f"invalid mpc.baseMVA value '{m.group(1)}'", line)

    bus_rows, bus_line = _matpower_block(text, "bus")
    gen_rows, gen_line = _matpower_block(text, "gen")
    br_rows, br_line = _matpower_block(text, "branch")

    buses, loads = [], []
    for off, row in enumerate(bus_rows):
        if len(row) < 13:
            raise CaseSyntaxError("bus row needs 13 columns", bus_line + off, 1)
        where = f"bus row {off + 1}"
        bid = _integer(row[0], "BUS_I", where)
        buses.append(Bus(id=bid, kind=_integer(row[1], "BUS_TYPE", where)))
        if row[2] != 0.0:
            loads.append(
                Load(id=len(loads) + 1, bus=bid, p=row[2], cost=shed_cost)
            )
    bus_ids = {b.id for b in buses}

    gens = []
    for off, row in enumerate(gen_rows):
        if len(row) < 10:
            raise CaseSyntaxError("gen row needs 10 columns", gen_line + off, 1)
        bus = _integer(row[0], "GEN_BUS", f"gen row {off + 1}")
        pg, status, pmax, pmin = row[1], row[7], row[8], row[9]
        if status <= 0 or pmax <= 0:
            continue  # offline units and synchronous condensers
        if bus not in bus_ids:
            raise CaseSemanticError(f"generator references unknown bus {bus}", f"gen row {off + 1}")
        ramp = row[16] if len(row) >= 17 and row[16] > 0 else max(1.0, ramp_fraction * pmax)
        gens.append(
            Generator(
                id=len(gens) + 1, bus=bus, p=pg, p_min=pmin, p_max=pmax,
                ramp=ramp, cost=adjust_cost,
            )
        )

    branches = []
    for off, row in enumerate(br_rows):
        if len(row) < 11:
            raise CaseSyntaxError("branch row needs 11 columns", br_line + off, 1)
        f_bus = _integer(row[0], "F_BUS", f"branch row {off + 1}")
        t_bus = _integer(row[1], "T_BUS", f"branch row {off + 1}")
        x, rate_a, status = row[3], row[5], row[10]
        if status <= 0:
            continue
        bid = len(branches) + 1
        for end in (f_bus, t_bus):
            if end not in bus_ids:
                raise CaseSemanticError(
                    f"branch endpoint references unknown bus {end}", f"branch row {off + 1}"
                )
        if x <= 0:
            raise CaseSemanticError("branch reactance must be > 0", f"branch row {off + 1}")
        branches.append(
            Branch(
                id=bid, from_bus=f_bus, to_bus=t_bus, y=1.0 / x,
                f_max=rate_a if rate_a > 0 else branch_limit,
                trip_factor=trip_default,
                rate=_rate_from_dict({}, fr_defaults, f"branch {bid}"),
            )
        )
    return NetworkCase(base_mva, buses, branches, gens, loads)


def parse_case(text: str, fmt: str = "native-json", defaults: dict | None = None) -> NetworkCase:
    """Parse a case file body in the given format.

    fmt: "native-json" (full schema) or "matpower-text" (bus/gen/branch/baseMVA
    only; failure-rate and cost parameters from `defaults`, which a native
    case does not use but checks alike, with the same named errors).
    """
    if not text or not text.strip():
        raise CaseSyntaxError("empty case text", 1, 1)
    if fmt == "native-json":
        _parameter_defaults(defaults or {})
        return _parse_native_json(text)
    if fmt == "matpower-text":
        return _parse_matpower(text, defaults)
    raise ValueError(f"unknown case format '{fmt}'")


def serialize_case(case: NetworkCase) -> str:
    """Resolved native-JSON form; parse(serialize(parse(t))) == parse(t)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "base_mva": case.base_mva,
        "buses": [{"id": b.id, "kind": b.kind} for b in case.buses],
        "branches": [
            {
                "id": br.id, "from": br.from_bus, "to": br.to_bus, "y": br.y,
                "f_max": br.f_max, "trip_factor": br.trip_factor,
                "lambda_0": br.rate.lam0, "lambda_1": br.rate.lam1,
                "knee": br.rate.knee, "overload_slope": br.rate.slope,
                "lambda_max": br.rate.lam_max,
            }
            for br in case.branches
        ],
        "generators": [
            {
                "id": g.id, "bus": g.bus, "p": g.p, "p_min": g.p_min,
                "p_max": g.p_max, "ramp": g.ramp, "cost": g.cost,
            }
            for g in case.generators
        ],
        "loads": [
            {"id": l.id, "bus": l.bus, "p": l.p, "cost": l.cost} for l in case.loads
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)
