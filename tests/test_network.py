import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse import csgraph

from gridrisk import cases, network
from gridrisk.assess import AssessmentConfig
from gridrisk.management import RmConfig, irm
from gridrisk.network import (
    CaseSemanticError,
    CaseSyntaxError,
    IllConditionedIsland,
    PowerFlowError,
    SystemState,
    apply_outage,
    build_topology,
    dc_power_flow,
    flow_sensitivity,
    parse_case,
    serialize_case,
)


def case_equal(a, b) -> bool:
    """Structural equality of two cases."""
    return (
        a.base_mva == b.base_mva
        and a.buses == b.buses
        and a.branches == b.branches
        and a.generators == b.generators
        and a.loads == b.loads
    )


MINIMAL_2BUS = {
    "base_mva": 100.0,
    "buses": [{"id": 1}, {"id": 2}],
    "branches": [{"id": 1, "from": 1, "to": 2, "y": 10.0, "f_max": 100.0}],
    "generators": [{"id": 1, "bus": 1, "p": 50.0, "p_max": 200.0, "ramp": 5.0}],
    "loads": [{"id": 1, "bus": 2, "p": 50.0}],
}

MATPOWER_BAD_BUS = """
function mpc = bad
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t138\t1\t1.05\t0.95;
\t2\t1\t50\t10\t0\t0\t1\t1\t0\t138\t1\t1.05\t0.95;
];
mpc.gen = [
\t1\t50\t0\t30\t-30\t1\t100\t1\t100\t0;
];
mpc.branch = [
\t1\t99\t0.01\t0.1\t0\t100\t100\t100\t0\t0\t1\t-360\t360;
];
"""
MATPOWER_OK = MATPOWER_BAD_BUS.replace("\t1\t99\t", "\t1\t2\t")
DROP = object()   # delete the key instead of setting it


class TestParsing:
    def test_minimal_native_case(self):
        case = parse_case(json.dumps(MINIMAL_2BUS))
        assert case.n_bus == 2
        assert case.n_branch == 1
        assert case.n_gen == 1
        assert case.n_load == 1

    def test_empty_text_rejected(self):
        with pytest.raises(CaseSyntaxError):
            parse_case("  \n ")

    def test_json_syntax_error_carries_location(self):
        with pytest.raises(CaseSyntaxError) as err:
            parse_case('{"base_mva": 100,,}')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_matpower_dangling_bus_names_entity(self):
        with pytest.raises(CaseSemanticError) as err:
            parse_case(MATPOWER_BAD_BUS, "matpower-text")
        assert "99" in str(err.value)

    def test_matpower_bad_token_location(self):
        text = MATPOWER_BAD_BUS.replace("0.01", "zzz")
        with pytest.raises(CaseSyntaxError) as err:
            parse_case(text, "matpower-text")
        assert err.value.line is not None

    def test_semantic_checks(self):
        doc = json.loads(json.dumps(MINIMAL_2BUS))
        doc["branches"][0]["f_max"] = -1.0
        with pytest.raises(CaseSemanticError):
            parse_case(json.dumps(doc))
        doc = json.loads(json.dumps(MINIMAL_2BUS))
        doc["branches"][0]["to"] = 7
        with pytest.raises(CaseSemanticError) as err:
            parse_case(json.dumps(doc))
        assert "7" in str(err.value)

    @pytest.mark.parametrize("section, key, field", [
        (None, "base_mva", "base_mva"),
        ("branches", "f_max", "f_max"),
        ("branches", "y", "y"),
        ("branches", "trip_factor", "trip_factor"),
        ("branches", "lambda_0", "lam0"),
        ("branches", "overload_slope", "slope"),
        ("branches", "lambda_max", "lam_max"),
        ("generators", "p_max", "p_max"),
        ("generators", "ramp", "ramp"),
        ("generators", "cost", "cost"),
        ("loads", "p", "p"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, section, key, field, value):
        doc = json.loads(json.dumps(MINIMAL_2BUS))
        (doc if section is None else doc[section][0])[key] = value
        with pytest.raises(CaseSemanticError, match=f"{field} must be finite") as err:
            parse_case(json.dumps(doc))
        entity = {None: "case", "branches": "branch 1", "generators": "gen 1",
                  "loads": "load 1"}[section]
        assert err.value.entity == entity

    @pytest.mark.parametrize("value", [0.0, -100.0])
    def test_non_positive_base_mva_rejected(self, value):
        doc = json.loads(json.dumps(MINIMAL_2BUS))
        doc["base_mva"] = value
        with pytest.raises(CaseSemanticError, match="base_mva must be > 0") as err:
            parse_case(json.dumps(doc))
        assert err.value.entity == "case"

    @pytest.mark.parametrize("path, value, entity, message", [
        (("generators", 0, "ramp"), DROP, "gen 1", "missing key 'ramp'"),
        (("generators", 0, "p_max"), None, "gen 1", "'p_max' must be a number, got None"),
        (("branches",), 5, "case", "'branches' must be a list"),
        (("loads",), [5], "case", "'loads' must be a list of objects"),
        (("buses", 0, "id"), "x", "buses[0]", "'id' must be a number, got 'x'"),
        (("loads", 0, "id"), float("inf"), "loads[0]", "'id' must be a number, got inf"),
        (("branches", 0, "lambda_0"), "x", "branch 1", "'lambda_0' must be a number"),
        (("branches", 0, "from"), [1], "branch 1", "'from' must be a number, got [1]"),
        (("costs",), {"load_shed": "x"}, "costs", "'load_shed' must be a number, got 'x'"),
        (("failure_rate",), [1], None, "'failure_rate' must be an object"),
        (("base_mva",), "x", "case", "'base_mva' must be a number, got 'x'"),
        (("buses", 0, "id"), 1.5, "buses[0]", "'id' must be an integer, got 1.5"),
        (("buses", 1, "kind"), 1.9, "bus 2", "'kind' must be an integer, got 1.9"),
        (("loads", 0, "id"), True, "loads[0]", "'id' must be an integer, got True"),
        (("loads", 0, "bus"), 2.5, "load 1", "'bus' must be an integer, got 2.5"),
        (("branches", 0, "f_max"), True, "branch 1", "'f_max' must be a number, got True"),
        (("loads", 0, "p"), True, "load 1", "'p' must be a number, got True"),
        (("generators", 0, "cost"), False, "gen 1", "'cost' must be a number, got False"),
        (("costs",), {"load_shed": True}, "costs", "'load_shed' must be a number, got True"),
        # numeric strings are refused, not converted
        (("branches", 0, "f_max"), "100", "branch 1", "'f_max' must be a number, got '100'"),
        (("loads", 0, "p"), " 50 ", "load 1", "'p' must be a number, got ' 50 '"),
        (("buses", 1, "id"), "3", "buses[1]", "'id' must be a number, got '3'"),
        (("costs",), {"load_shed": "100"}, "costs", "'load_shed' must be a number, got '100'"),
        (("failure_rate",), {"knee": "0.9"}, "failure_rate",
         "'knee' must be a number, got '0.9'"),
    ])
    def test_malformed_native_value_named(self, path, value, entity, message):
        doc = json.loads(json.dumps(MINIMAL_2BUS))
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        if value is DROP:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(CaseSemanticError, match=re.escape(message)) as err:
            parse_case(json.dumps(doc))
        assert err.value.entity == entity

    def test_integral_ids_parse(self):
        doc = json.loads(json.dumps(MINIMAL_2BUS))
        doc["buses"][1]["id"] = 2.0
        doc["branches"][0]["to"] = 2.0
        doc["loads"][0]["bus"] = 2.0
        case = parse_case(json.dumps(doc))
        assert [b.id for b in case.buses] == [1, 2]
        assert all(isinstance(b.id, int) for b in case.buses)
        assert case.loads[0].bus == 2 and isinstance(case.loads[0].bus, int)

    @pytest.mark.parametrize("old, new, entity, message", [
        ("\t2\t1\t50\t", "\t2.5\t1\t50\t", "bus row 2", "'BUS_I' must be an integer, got 2.5"),
        ("\t2\t1\t50\t", "\t2\t1.5\t50\t", "bus row 2", "'BUS_TYPE' must be an integer"),
        ("\t1\t50\t0\t", "\t1.9\t50\t0\t", "gen row 1", "'GEN_BUS' must be an integer"),
        ("\t1\t2\t0.01", "\t1.5\t2\t0.01", "branch row 1", "'F_BUS' must be an integer"),
        ("\t1\t2\t0.01", "\t1\t2.5\t0.01", "branch row 1", "'T_BUS' must be an integer"),
    ])
    def test_matpower_non_integral_id_named(self, old, new, entity, message):
        assert old in MATPOWER_OK
        with pytest.raises(CaseSemanticError, match=re.escape(message)) as err:
            parse_case(MATPOWER_OK.replace(old, new), "matpower-text")
        assert err.value.entity == entity

    def test_matpower_integral_ids_parse(self):
        case = parse_case(MATPOWER_OK.replace("\t2\t1\t50\t", "\t2.0\t1\t50\t"),
                          "matpower-text")
        assert [b.id for b in case.buses] == [1, 2]
        assert case.branches[0].to_bus == 2

    @pytest.mark.parametrize("defaults, entity, message", [
        ({"costs": {"load_shed": "x"}}, "costs", "'load_shed' must be a number, got 'x'"),
        ({"costs": {"gen_adjust": None}}, "costs", "'gen_adjust' must be a number, got None"),
        ({"costs": 5}, None, "'costs' must be an object"),
        ({"failure_rate": {"knee": "x"}}, "failure_rate", "'knee' must be a number, got 'x'"),
        ({"ramp_fraction": "x"}, "defaults", "'ramp_fraction' must be a number"),
        ({"costs": {"gen_adjust": "100"}}, "costs", "'gen_adjust' must be a number, got '100'"),
        ({"failure_rate": {"lambda_0": "1e-4"}}, "failure_rate", "'lambda_0' must be a number"),
        ({"branch_limit": "500"}, "defaults", "'branch_limit' must be a number, got '500'"),
    ])
    def test_malformed_matpower_defaults_named(self, defaults, entity, message):
        with pytest.raises(CaseSemanticError, match=re.escape(message)) as err:
            parse_case(MATPOWER_OK, "matpower-text", defaults)
        assert err.value.entity == entity

    @pytest.mark.parametrize("old, new", [
        ("0.01", "1e"),                            # spelled like a number, but not one
        ("0.01", "1e400"),                         # overflows to inf
        ("mpc.baseMVA = 100", "mpc.baseMVA = 1.0.0"),
    ])
    def test_matpower_unreadable_number_located(self, old, new):
        with pytest.raises(CaseSyntaxError) as err:
            parse_case(MATPOWER_OK.replace(old, new), "matpower-text")
        assert err.value.line is not None

    def test_rts96_counts(self, rts96):
        assert rts96.n_bus == 73
        assert rts96.n_branch == 120
        assert rts96.n_gen == 96
        assert rts96.n_load == 51

    def test_roundtrip_idempotent(self, toy6):
        text = serialize_case(toy6)
        again = parse_case(text)
        assert case_equal(again, toy6)
        assert case_equal(parse_case(serialize_case(again)), again)


class TestTopology:
    def test_apply_outage_noop_flags(self, two_bus):
        # removing nothing, or a branch already out, returns the same topology
        topo = build_topology(two_bus)
        assert apply_outage(two_bus, topo, set()) is topo
        t2 = apply_outage(two_bus, topo, {1})
        assert len(t2.islands) == 2
        assert apply_outage(two_bus, t2, {1}) is t2

    def test_two_bus_split(self, two_bus):
        topo = build_topology(two_bus)
        assert len(topo.islands) == 1
        t2 = apply_outage(two_bus, topo, {1})
        assert len(t2.islands) == 2
        assert sum(t2.energized) == 1  # only the generator island stays energized

    def test_rts96_initial_outage_single_island(self, rts96):
        topo = build_topology(rts96)
        t2 = apply_outage(rts96, topo, {22, 23, 24})
        assert len(t2.islands) == 1

    def test_unknown_branch_rejected(self, two_bus):
        topo = build_topology(two_bus)
        with pytest.raises(CaseSemanticError):
            apply_outage(two_bus, topo, {42})

    def test_live_skips_deenergized_island(self, triangle):
        # without branches 1 (1-2) and 3 (1-3), branch 2 joins two load-only buses
        topo = apply_outage(triangle, build_topology(triangle), {1, 3})
        assert topo.mask.tolist() == [False, True, False]
        assert topo.energized == (True, False)
        assert not flow_sensitivity(triangle, topo).any()

    def test_one_object_per_in_service_set(self, toy6):
        topo = build_topology(toy6, {1, 2})
        step = apply_outage(toy6, build_topology(toy6), {2})
        step = apply_outage(toy6, step, {1})
        assert step is topo
        assert toy6._topo_cache[topo.in_service] is topo

    @pytest.mark.parametrize("name", [
        "mask", "flow_sens", "load_island", "gen_island",
    ])
    def test_arrays_read_only(self, toy6, name):
        topo = apply_outage(toy6, build_topology(toy6), {3})
        with pytest.raises(ValueError, match="read-only"):
            getattr(topo, name)[0] = 0

    def test_islanding_once_per_in_service_set(self, monkeypatch):
        calls = []
        components = network.connected_components

        def count(*args, **kwargs):
            calls.append(1)
            return components(*args, **kwargs)

        monkeypatch.setattr(network, "connected_components", count)
        case = cases.toy6()
        cfg = RmConfig(assessment=AssessmentConfig(
            tau_d=15.0, t_max=30.0, attempts=200, policy="exhaustive", seed=1))
        irm(case, {3}, cfg)
        assert len(case._topo_cache) > 5
        assert len(calls) == len(case._topo_cache)


@st.composite
def graphs(draw):
    """1-30 buses and up to 40 branches between them, with parallel branches
    and isolated buses."""
    n = draw(st.integers(1, 30))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return n, u, v


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_islands_match_scipy_csgraph(graph):
    n, u, v = graph
    count, labels = network.connected_components(n, u, v)
    ref_count, ref_labels = csgraph.connected_components(
        coo_matrix((np.ones(u.size), (u, v)), shape=(n, n)), directed=False)
    assert count == ref_count
    assert labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)


class TestIslandSystem:
    def test_inverse_is_scipy_linalg_inv_bit_for_bit(self, rts96):
        # intact and under every N-1 outage: the same bits as scipy.linalg.inv,
        # so the flow factors, and a flow at its limit, are the same
        checked = 0
        for removed in [(), *((b,) for b in rts96.branch_ids.tolist())]:
            topo = build_topology(rts96, frozenset(removed))
            b_mat = np.zeros((rts96.n_bus, rts96.n_bus))
            for i in np.flatnonzero(topo.mask):
                u, v, y = rts96.branch_from[i], rts96.branch_to[i], rts96.branch_y[i]
                b_mat[u, u] += y
                b_mat[v, v] += y
                b_mat[u, v] -= y
                b_mat[v, u] -= y
            for k, members in enumerate(topo.islands):
                if not topo.energized[k] or len(members) == 1:
                    continue
                ref_pos = reference_bus(rts96, members)
                keep = np.ix_(*[[p for p in members if p != ref_pos]] * 2)
                ref = scipy.linalg.inv(b_mat[keep])
                inverse = network._island_inverse(rts96, members, b_mat[keep])
                assert inverse.tobytes() == ref.tobytes()
                checked += 1
        assert checked >= rts96.n_branch + 1

    @staticmethod
    def _toy6_with_y(**y_by_branch):
        doc = json.loads(serialize_case(cases.toy6()))
        for br in doc["branches"]:
            br["y"] = y_by_branch.get(f"b{br['id']}", br["y"])
        return parse_case(json.dumps(doc))

    def test_singular_island_names_its_buses(self):
        case = self._toy6_with_y(b1=1e-17)
        with pytest.raises(PowerFlowError, match=re.escape(
                "singular island system (island of buses [1, 2, 3, 4, 5, 6])")):
            build_topology(case)

    def test_non_finite_island_names_its_buses(self):
        # branches 1 and 2 meet at bus 3, whose diagonal entry overflows to
        # inf; the case check refuses such a case file, so the admittances
        # are set on an already checked case
        case = cases.toy6()
        case.branch_y[[0, 1]] = 1e308
        with np.errstate(over="ignore"), pytest.raises(PowerFlowError, match=re.escape(
                "island system is not finite (island of buses [1, 2, 3, 4, 5, 6])")):
            build_topology(case)

    def test_ill_conditioned_island_only_warns(self):
        case = self._toy6_with_y(b1=1e300)
        with pytest.warns(IllConditionedIsland, match=r"island of buses \[.*rcond = "):
            topos = [build_topology(case, frozenset({b})) for b in case.branch_ids.tolist()]
        assert all(np.isfinite(t.flow_sens).all() for t in topos)


class TestDcPowerFlow:
    def test_two_bus_hand_solution(self, two_bus):
        # 1 pu injection over y=10 pu: flow 1 pu (100 MW)
        topo = build_topology(two_bus)
        state = SystemState([100.0], [100.0])
        flows = dc_power_flow(two_bus, topo, state)
        assert flows[0] == pytest.approx(100.0, abs=1e-9)

    def test_zero_injection_zero_flow(self, two_bus):
        topo = build_topology(two_bus)
        flows = dc_power_flow(two_bus, topo, SystemState([0.0], [0.0]))
        assert np.all(flows == 0.0)

    def test_triangle_superposition(self, triangle):
        # equal admittances: 2/3 direct, 1/3 around the loop
        topo = build_topology(triangle)
        flows = dc_power_flow(triangle, topo, SystemState([100.0], [100.0]))
        assert flows[0] == pytest.approx(200.0 / 3.0, rel=1e-12)  # 1-2
        assert abs(flows[1]) == pytest.approx(100.0 / 3.0, rel=1e-12)
        assert abs(flows[2]) == pytest.approx(100.0 / 3.0, rel=1e-12)

    def test_deenergized_island_zero_flows(self, two_bus):
        topo = build_topology(two_bus)
        t2 = apply_outage(two_bus, topo, {1})
        flows = dc_power_flow(two_bus, t2, SystemState([50.0], [50.0]))
        assert np.all(flows == 0.0)

    def test_kcl_on_toy6(self, toy6):
        topo = build_topology(toy6)
        state = SystemState([120.0, 90.0, 60.0], [100.0, 170.0, 0.0])
        flows = dc_power_flow(toy6, topo, state)
        inj = np.zeros(toy6.n_bus)
        np.add.at(inj, toy6.gen_bus, state.p_gen)
        np.add.at(inj, toy6.load_bus, -state.p_load)
        for b in range(toy6.n_bus):
            out = 0.0
            for i, br in enumerate(toy6.branches):
                if toy6.branch_from[i] == b:
                    out += flows[i]
                if toy6.branch_to[i] == b:
                    out -= flows[i]
            assert out == pytest.approx(inj[b], abs=1e-9 * toy6.base_mva)


@st.composite
def small_cases(draw):
    """Connected cases of 3-8 buses: a random spanning tree plus up to four
    extra (possibly parallel) branches, random ratings and failure rates, at
    least one generator and one load, each load at least 10 MW (so the base
    case serves load and the cascade tree can grow past its root), and costs
    drawn from a short list so that equal costs occur. The tree is drawn over
    a random order of the bus ids, so no bus position is favoured."""
    n = draw(st.integers(3, 8))
    ids = draw(st.permutations(range(1, n + 1)))
    ends = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=4))
    branches = []
    for i, (a, b) in enumerate(ends, 1):
        branches.append({
            "id": i, "from": ids[a], "to": ids[b],
            "y": draw(st.floats(0.5, 50.0)), "f_max": draw(st.floats(20.0, 300.0)),
            "lambda_0": draw(st.sampled_from([1e-4, 1e-3])),
            "lambda_1": draw(st.sampled_from([1e-2, 2e-2])),
            "lambda_max": draw(st.sampled_from([0.05, 0.1])),
            "knee": draw(st.sampled_from([0.5, 0.6, 0.8])),
        })
    costs = st.sampled_from([80.0, 100.0, 120.0])
    gen_buses = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    generators = [{"id": j, "bus": bus, "p": draw(st.floats(0.0, 150.0)), "p_max": 200.0,
                   "ramp": draw(st.floats(1.0, 10.0)), "cost": draw(costs)}
                  for j, bus in enumerate(gen_buses, 1)]
    load_buses = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n))
    loads = [{"id": k, "bus": bus, "p": draw(st.floats(10.0, 150.0)),
              "cost": draw(st.sampled_from([9000.0, 10000.0]))}
             for k, bus in enumerate(load_buses, 1)]
    return parse_case(json.dumps({
        "base_mva": 100.0, "buses": [{"id": i} for i in range(1, n + 1)],
        "branches": branches, "generators": generators, "loads": loads,
    }))


def reference_bus(case, members):
    """The reference bus of an energized island: its generator bus of
    lowest id."""
    gen_buses = set(case.gen_bus.tolist())
    return min((p for p in members if p in gen_buses), key=lambda p: case.buses[p].id)


def reduced_b_flows(case, in_service, state):
    """Branch flows (MW) from one `numpy.linalg.solve` per island of the
    reduced susceptance system, each island found by scipy's csgraph and
    referenced at its generator bus of lowest id; zero in islands without a
    generator."""
    on = np.array([br.id in in_service for br in case.branches])
    u, v, y = case.branch_from[on], case.branch_to[on], case.branch_y[on]
    _, labels = csgraph.connected_components(
        coo_matrix((np.ones(u.size), (u, v)), shape=(case.n_bus, case.n_bus)), directed=False)
    b_mat = np.zeros((case.n_bus, case.n_bus))
    for a, b, yi in zip(u, v, y):
        b_mat[[a, b], [a, b]] += yi
        b_mat[[a, b], [b, a]] -= yi
    inj = np.zeros(case.n_bus)
    np.add.at(inj, case.gen_bus, state.p_gen / case.base_mva)
    np.add.at(inj, case.load_bus, -state.p_load / case.base_mva)
    theta = np.zeros(case.n_bus)
    energized = np.zeros(case.n_bus, dtype=bool)
    for k in np.unique(labels):
        members = np.flatnonzero(labels == k)
        gens = [p for p in members if p in case.gen_bus]
        if not gens:
            continue
        energized[members] = True
        ref = min(gens, key=lambda p: case.buses[p].id)
        keep = members[members != ref]
        if keep.size:
            theta[keep] = np.linalg.solve(b_mat[np.ix_(keep, keep)], inj[keep])
    flows = np.zeros(case.n_branch)
    live = on & energized[case.branch_from]
    flows[live] = case.branch_y[live] * (theta[case.branch_from[live]]
                                         - theta[case.branch_to[live]])
    return flows * case.base_mva


def balanced_state(case, topo, state):
    """`state` with each energized island's load shared equally by its
    generators, and the load of de-energized islands set to zero."""
    p_load, p_gen = state.p_load.copy(), state.p_gen.copy()
    for k, energized in enumerate(topo.energized):
        loads, gens = topo.island_loads[k], topo.island_gens[k]
        if not energized:
            p_load[loads] = 0.0
            continue
        p_gen[gens] = p_load[loads].sum() / gens.size
    return SystemState(p_load, p_gen)


@settings(max_examples=60, deadline=None)
@given(small_cases())
def test_flows_match_reduced_b_solve_and_kcl(case):
    """On the intact network and under every N-1 outage: the flows equal an
    independent per-island solve, and with each island balanced the flows
    leaving every bus sum to its injection."""
    state = case.base_state()
    for removed in [(), *((b,) for b in case.branch_ids.tolist())]:
        topo = build_topology(case, frozenset(removed))
        flows = dc_power_flow(case, topo, state)
        ref = reduced_b_flows(case, topo.in_service, state)
        assert np.abs(flows - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)

        balanced = balanced_state(case, topo, state)
        flows = dc_power_flow(case, topo, balanced)
        inj = np.zeros(case.n_bus)
        np.add.at(inj, case.gen_bus, balanced.p_gen)
        np.add.at(inj, case.load_bus, -balanced.p_load)
        out = np.zeros(case.n_bus)
        np.add.at(out, case.branch_from, flows)
        np.add.at(out, case.branch_to, -flows)
        scale = max(np.abs(inj).max(), 1.0)
        np.testing.assert_allclose(out, inj, rtol=0, atol=1e-9 * scale)


def test_no_topology_array_is_n_bus_square():
    # the per-topology arrays grow with branches times state entries, not with
    # the square of the bus count
    case = cases.ring120()
    for removed in [(), (1,), (1, 61), (5, 121)]:
        build_topology(case, frozenset(removed))
    assert len(case._topo_cache) == 4
    for topo in case._topo_cache.values():
        for value in vars(topo).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    assert arr.shape != (case.n_bus, case.n_bus)


class TestFlowSensitivity:
    def test_two_bus_columns(self, two_bus):
        # reference sits at the generator bus, so its column is zero and the
        # load column carries the full (reference-compensated) unit response
        topo = build_topology(two_bus)
        sens = flow_sensitivity(two_bus, topo)
        assert sens.shape == (1, 2)
        assert sens[0, 0] == pytest.approx(1.0, abs=1e-12)   # load column
        assert sens[0, 1] == pytest.approx(0.0, abs=1e-12)   # generator at ref
        # a balanced gen+load increase moves the branch one-for-one
        assert sens[0, 0] + sens[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_deenergized_rows_zero(self, two_bus):
        topo = build_topology(two_bus)
        t2 = apply_outage(two_bus, topo, {1})
        assert np.all(flow_sensitivity(two_bus, t2) == 0.0)

    @pytest.mark.parametrize("case_name", ["triangle", "toy6"])
    def test_matches_central_differences(self, case_name, request):
        case = request.getfixturevalue(case_name)
        topo = build_topology(case)
        state = case.base_state()
        sens = flow_sensitivity(case, topo)
        h = 0.01 * case.base_mva  # +-0.01 pu

        def flows_with(dx):
            st = SystemState(state.p_load + dx[: case.n_load],
                             state.p_gen + dx[case.n_load :])
            return dc_power_flow(case, topo, st)

        for k in range(case.n_x):
            dx = np.zeros(case.n_x)
            dx[k] = h
            fd = (flows_with(dx) - flows_with(-dx)) / (2 * h)
            np.testing.assert_allclose(fd, sens[:, k], atol=1e-6)
