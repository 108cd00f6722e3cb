from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from foglet.topology import (
    Topology,
    TopologyError,
    Unreachable,
    load_topology,
    topology_from_snapshot,
    topology_to_document,
)
from tests.conftest import reference_topology_doc


def chain_doc():
    return {
        "nodes": [
            {"id": "cloud", "tier": "cloud", "vcpus": 8, "ram_mib": 1024, "disk_gib": 10},
            {"id": "cloudlet", "tier": "edge_cloudlet", "vcpus": 4, "ram_mib": 512, "disk_gib": 5},
            {"id": "gateway", "tier": "edge_gateway", "vcpus": 1, "ram_mib": 128, "disk_gib": 1},
        ],
        "links": [
            {"id": "wan", "a": "cloud", "b": "cloudlet", "bandwidth_mbps": 10, "latency_ms": 40},
            {"id": "lan", "a": "cloudlet", "b": "gateway", "bandwidth_mbps": 100, "latency_ms": 2},
        ],
    }


def diamond_doc(residual_left=10, residual_right=50):
    # a -l1- x -l2- b  and  a -l3- y -l4- b: two 2-hop routes.
    return {
        "nodes": [
            {"id": n, "tier": "edge_cloudlet", "vcpus": 1, "ram_mib": 64, "disk_gib": 1}
            for n in ("a", "b", "x", "y")
        ],
        "links": [
            {"id": "l1", "a": "a", "b": "x", "bandwidth_mbps": 100, "latency_ms": 1},
            {"id": "l2", "a": "x", "b": "b", "bandwidth_mbps": 100, "latency_ms": 1},
            {"id": "l3", "a": "a", "b": "y", "bandwidth_mbps": 100, "latency_ms": 1},
            {"id": "l4", "a": "y", "b": "b", "bandwidth_mbps": 100, "latency_ms": 1},
        ],
    }


def raw_residuals(topo):
    return {lid: link.bandwidth_mbps for lid, link in topo.links.items()}


def test_chain_loads():
    topo = load_topology(chain_doc())
    assert len(topo.nodes) == 3
    assert len(topo.links) == 2


def test_dangling_link_rejected():
    doc = chain_doc()
    doc["links"].append({"id": "bad", "a": "cloud", "b": "ghost", "bandwidth_mbps": 1, "latency_ms": 1})
    with pytest.raises(TopologyError, match="missing node"):
        load_topology(doc)


def test_single_node_topology_valid():
    topo = load_topology({"nodes": [
        {"id": "solo", "tier": "cloud", "vcpus": 1, "ram_mib": 64, "disk_gib": 1},
    ]})
    assert list(topo.nodes) == ["solo"]


def test_duplicate_ids_rejected():
    doc = chain_doc()
    doc["nodes"].append(dict(doc["nodes"][0]))
    with pytest.raises(TopologyError, match="duplicate node"):
        load_topology(doc)


def test_disconnected_topology_rejected():
    doc = chain_doc()
    doc["nodes"].append({"id": "island", "tier": "cloud", "vcpus": 1, "ram_mib": 64, "disk_gib": 1})
    with pytest.raises(TopologyError, match="disconnected"):
        load_topology(doc)


def test_swarm_node_with_capacity_rejected():
    with pytest.raises(TopologyError, match="capacity"):
        load_topology({"nodes": [
            {"id": "sensor", "tier": "swarm_of_things", "vcpus": 1, "ram_mib": 0, "disk_gib": 0},
        ]})


def test_swarm_node_without_capacity_allowed():
    topo = load_topology({
        "nodes": [
            {"id": "gw", "tier": "edge_gateway", "vcpus": 1, "ram_mib": 64, "disk_gib": 1},
            {"id": "sensor", "tier": "swarm_of_things"},
        ],
        "links": [{"id": "air", "a": "gw", "b": "sensor", "bandwidth_mbps": 1, "latency_ms": 1}],
    })
    assert not topo.nodes["sensor"].tier.hostable
    assert [n.id for n in topo.hostable_nodes] == ["gw"]


# -- path selection -------------------------------------------------------------


def test_unique_chain_path():
    topo = load_topology(chain_doc())
    path = topo.path_between("cloud", "gateway", raw_residuals(topo))
    assert path == ("wan", "lan")


def test_identity_path_is_empty():
    topo = load_topology(chain_doc())
    assert topo.path_between("cloud", "cloud", raw_residuals(topo)) == ()


def test_diamond_prefers_wider_bottleneck():
    # Hand enumeration: both routes are 2 hops; residuals make the right
    # route (l3, l4) the wider one, so it must win over the lex-smaller left.
    topo = load_topology(diamond_doc())
    residuals = {"l1": Fraction(10), "l2": Fraction(10),
                 "l3": Fraction(50), "l4": Fraction(50)}
    assert topo.path_between("a", "b", residuals) == ("l3", "l4")


def test_diamond_equal_bottlenecks_breaks_ties_lexicographically():
    topo = load_topology(diamond_doc())
    residuals = {lid: Fraction(10) for lid in topo.links}
    assert topo.path_between("a", "b", residuals) == ("l1", "l2")


def test_min_hops_beats_bandwidth():
    # Direct 1-hop link wins even when a 2-hop detour is far wider.
    doc = diamond_doc()
    doc["links"].append({"id": "l0", "a": "a", "b": "b", "bandwidth_mbps": 1, "latency_ms": 1})
    topo = load_topology(doc)
    assert topo.path_between("a", "b", raw_residuals(topo)) == ("l0",)


def test_down_links_excluded():
    topo = load_topology(diamond_doc())
    residuals = {lid: Fraction(10) for lid in topo.links}
    topo.set_link_state("l1", False)
    assert topo.path_between("a", "b", residuals) == ("l3", "l4")
    topo.set_link_state("l3", False)
    with pytest.raises(Unreachable):
        topo.path_between("a", "b", residuals)


def test_path_metrics_two_links():
    doc = chain_doc()
    doc["links"][0].update({"jitter_ms": 1, "latency_ms": 5})
    doc["links"][1].update({"jitter_ms": 3, "latency_ms": 40})
    topo = load_topology(doc)
    metrics = topo.path_metrics(
        ("wan", "lan"), {"wan": Fraction(8), "lan": Fraction(20)}
    )
    assert metrics.bottleneck_mbps == 8
    assert metrics.total_latency_ms == 45
    assert metrics.total_jitter_ms == 4


def test_path_metrics_empty_path():
    topo = load_topology(chain_doc())
    metrics = topo.path_metrics((), {})
    assert metrics.bottleneck_mbps is None  # unconstrained
    assert metrics.total_latency_ms == 0
    assert metrics.total_jitter_ms == 0
    assert metrics.bandwidth_at_least(Fraction(10**9))


def test_path_metrics_single_link():
    topo = load_topology(chain_doc())
    metrics = topo.path_metrics(("lan",), {"lan": Fraction(100)})
    assert metrics.bottleneck_mbps == 100
    assert metrics.total_latency_ms == 2


# -- link state ---------------------------------------------------------------------


def test_set_link_state_emits_single_event_idempotently():
    # True marks the one actual change that Engine.set_link_state forwards.
    topo = load_topology(chain_doc())
    assert topo.set_link_state("wan", False) is True
    assert topo.links["wan"].up is False
    assert topo.set_link_state("wan", False) is False
    assert topo.links["wan"].up is False
    assert topo.set_link_state("wan", True) is True
    assert topo.links["wan"].up is True


def test_set_link_state_unknown_link():
    topo = load_topology(chain_doc())
    with pytest.raises(TopologyError):
        topo.set_link_state("ghost", False)


# -- properties ----------------------------------------------------------------------

random_graphs = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(  # extra edges beyond the random spanning tree
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=6,
        ),
        st.lists(st.integers(1, 100), min_size=n + 6, max_size=n + 6),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
    )
)


def build_random_topology(n, extra_edges, bandwidths):
    nodes = [
        {"id": f"n{i:02d}", "tier": "edge_cloudlet", "vcpus": 1, "ram_mib": 64, "disk_gib": 1}
        for i in range(n)
    ]
    links = []
    counter = 0
    for i in range(1, n):  # spanning chain keeps it connected
        links.append({
            "id": f"e{counter:02d}", "a": f"n{i - 1:02d}", "b": f"n{i:02d}",
            "bandwidth_mbps": bandwidths[counter % len(bandwidths)], "latency_ms": 1,
        })
        counter += 1
    seen = {tuple(sorted((l["a"], l["b"]))) for l in links}
    for a, b in extra_edges:
        key = tuple(sorted((f"n{a:02d}", f"n{b:02d}")))
        if a == b or key in seen:
            continue
        seen.add(key)
        links.append({
            "id": f"e{counter:02d}", "a": key[0], "b": key[1],
            "bandwidth_mbps": bandwidths[counter % len(bandwidths)], "latency_ms": 1,
        })
        counter += 1
    return load_topology({"nodes": nodes, "links": links})


@given(random_graphs)
def test_path_symmetry(params):
    n, extra, bandwidths, ai, bi = params
    topo = build_random_topology(n, extra, bandwidths)
    residuals = raw_residuals(topo)
    a, b = f"n{ai:02d}", f"n{bi:02d}"
    forward = topo.path_between(a, b, residuals)
    backward = topo.path_between(b, a, residuals)
    assert forward == tuple(reversed(backward))


@given(random_graphs)
def test_tree_paths_ignore_residuals(params):
    n, _extra, bandwidths, ai, bi = params
    topo = build_random_topology(n, [], bandwidths)  # pure chain = a tree
    a, b = f"n{ai:02d}", f"n{bi:02d}"
    wide = topo.path_between(a, b, raw_residuals(topo))
    narrow = topo.path_between(a, b, {lid: Fraction(1) for lid in topo.links})
    assert wide == narrow


@given(random_graphs)
def test_removing_chosen_link_never_widens_equal_hop_path(params):
    n, extra, bandwidths, ai, bi = params
    topo = build_random_topology(n, extra, bandwidths)
    residuals = raw_residuals(topo)
    a, b = f"n{ai:02d}", f"n{bi:02d}"
    if a == b:
        return
    before = topo.path_between(a, b, residuals)
    bottleneck_before = min(residuals[lid] for lid in before)
    topo.set_link_state(before[0], False)
    try:
        after = topo.path_between(a, b, residuals)
    except Unreachable:
        return
    if len(after) != len(before):
        return  # longer detour; bottleneck comparison no longer meaningful
    bottleneck_after = min(residuals[lid] for lid in after)
    assert bottleneck_after <= bottleneck_before


def test_snapshot_round_trip_preserves_link_state():
    topo = load_topology(reference_topology_doc())
    topo.set_link_state("wan", False)
    clone = topology_from_snapshot(topology_to_document(topo))
    assert clone.links["wan"].up is False
    assert clone.links["lan-a"].up is True
    assert topology_to_document(clone) == topology_to_document(topo)


@pytest.mark.parametrize("fieldname", ["ram_mib", "disk_gib", "cache_mib"])
@pytest.mark.parametrize("value", [1.9, 0.5, -5, True])
def test_node_sizes_are_whole_numbers_never_rounded(fieldname, value):
    doc = reference_topology_doc()
    doc["nodes"][1][fieldname] = value
    with pytest.raises(TopologyError, match=fieldname):
        load_topology(doc)
