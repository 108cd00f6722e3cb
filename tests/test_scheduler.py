from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from foglet.config import EngineConfig
from foglet.engine import Engine
from foglet.inventory import Inventory
from foglet.model import Placement, ResourceVector, validate_request
from foglet.scheduler import choose, feasible_nodes, priority, ScoredNode
from foglet.topology import load_topology
from tests.conftest import reference_topology_doc


CONFIG = EngineConfig()


def request(doc, rid="r1"):
    return validate_request(doc, request_id=rid)


@pytest.fixture
def topo():
    return load_topology(reference_topology_doc())


@pytest.fixture
def view(topo):
    return Inventory(topo).snapshot()


def verdict_map(verdicts):
    return {v.node_id: v for v in verdicts}


def test_location_requirement_filters_regions(topo, view):
    req = request({
        "component": {"name": "anonymizer"},
        "requirements": [{"location": {"region": "metro-a"}}],
    })
    verdicts = verdict_map(feasible_nodes(req, view, topo, CONFIG))
    assert not verdicts["cloud"].passed
    assert verdicts["cloudlet-a"].passed
    assert verdicts["gateway-a"].passed


def test_empty_requirements_pass_everywhere(topo, view):
    req = request({"component": {"name": "x"}, "requirements": []})
    verdicts = feasible_nodes(req, view, topo, CONFIG)
    assert all(v.passed for v in verdicts)
    assert len(verdicts) == 3  # hostable nodes only


def test_best_effort_requirement_still_needs_connectivity(topo):
    topo.set_link_state("wan", False)
    topo.set_link_state("lan-a", False)
    view = Inventory(topo).snapshot()
    req = request({
        "component": {"name": "x"},
        "requirements": [{"network": {"endpoint": "camera-1"}}],  # best effort
    })
    verdicts = verdict_map(feasible_nodes(req, view, topo, CONFIG))
    assert not verdicts["cloud"].passed
    assert "unreachable" in verdicts["cloud"].failures()[0].detail
    # The camera's own gateway is still fine: empty path.
    assert verdicts["gateway-a"].passed


def test_bandwidth_threshold_filters_thin_uplink(topo, view):
    req = request({
        "component": {"name": "face_detection"},
        "requirements": [
            {"network": {"profile": "signaling_and_video_streaming", "endpoint": "camera-1"}}
        ],
    })
    verdicts = verdict_map(feasible_nodes(req, view, topo, CONFIG))
    assert not verdicts["cloud"].passed  # 2 Mbit/s bottleneck < 4 floor
    assert verdicts["cloudlet-a"].passed
    assert verdicts["gateway-a"].passed


def test_latency_threshold_filters(topo, view):
    config = EngineConfig()
    req = request({
        "component": {"name": "x"},
        "requirements": [
            {"network": {"profile": "interactive_real_time_video", "endpoint": "camera-1"}}
        ],
    })
    verdicts = verdict_map(feasible_nodes(req, view, topo, config))
    # cloud path latency 42 ms > 50? no: 40+2=42 <= 50, but bandwidth 2 < 4 fails it.
    assert not verdicts["cloud"].passed
    assert verdicts["cloudlet-a"].passed  # 2 ms, 100 Mbit/s


def test_covered_flow_rate_beyond_bottleneck_fails(topo, view):
    req = request({
        "component": {
            "name": "x",
            "flows": [{"from_endpoint": "camera-1", "rate_mbps": 200.0}],
        },
        "requirements": [{"network": {"endpoint": "camera-1"}}],
    })
    verdicts = verdict_map(feasible_nodes(req, view, topo, CONFIG))
    assert not verdicts["cloudlet-a"].passed  # 200 > 100 Mbit/s LAN
    assert verdicts["gateway-a"].passed      # co-located, empty path


def test_compute_shortfall_reported_per_node(topo, view):
    req = request({
        "component": {"name": "x"},
        "requirements": [{"compute": {"vcpus": 1_000_000}}],
    })
    verdicts = feasible_nodes(req, view, topo, CONFIG)
    assert all(not v.passed for v in verdicts)
    for v in verdicts:
        assert "vcpus shortfall" in v.failures()[0].detail


def test_access_label_match(topo, view):
    doc = reference_topology_doc()
    doc["nodes"][1]["labels"] = ["gpu"]
    topo = load_topology(doc)
    view = Inventory(topo).snapshot()
    req = request({
        "component": {"name": "x"},
        "requirements": [{"access": {"label": "gpu"}}],
    })
    verdicts = verdict_map(feasible_nodes(req, view, topo, CONFIG))
    assert verdicts["cloudlet-a"].passed
    assert not verdicts["cloud"].passed


# -- priority ---------------------------------------------------------------------


def score(node_id, req, view, topo, config=CONFIG):
    """priority() fed the node's own filter verdict's path metrics, as negotiate does."""
    (verdict,) = [v for v in feasible_nodes(req, view, topo, config) if v.node_id == node_id]
    return priority(node_id, req, view, topo, config, verdict.path_metrics)


def test_full_node_scores_039():
    # One gateway whose free capacity exactly equals the footprint: the
    # post-placement free fraction is zero in every dimension, so
    # score = 0.4*0 + 0.3*1 + 0.3*0.3 = 0.39.
    topo = load_topology({"nodes": [
        {"id": "gw", "tier": "edge_gateway", "vcpus": 2, "ram_mib": 512, "disk_gib": 4},
    ]})
    view = Inventory(topo).snapshot()
    req = request({
        "component": {"name": "x"},
        "requirements": [{"compute": {"vcpus": 2, "ram_mib": 512, "disk_gib": 4}}],
    })
    scored = score("gw", req, view, topo)
    assert scored.subscores["capacity_fit"] == 0.0
    assert scored.subscores["network_slack"] == 1.0
    assert scored.subscores["tier_preference"] == 0.3
    assert scored.score == pytest.approx(0.39)


def test_default_request_prefers_cloud(topo, view):
    req = request({"component": {"name": "x"}, "requirements": []})
    cloud = score("cloud", req, view, topo)
    cloudlet = score("cloudlet-a", req, view, topo)
    assert cloud.score > cloudlet.score


def test_identical_nodes_score_identically():
    topo = load_topology({
        "nodes": [
            {"id": "a", "tier": "edge_cloudlet", "vcpus": 4, "ram_mib": 1024, "disk_gib": 10},
            {"id": "b", "tier": "edge_cloudlet", "vcpus": 4, "ram_mib": 1024, "disk_gib": 10},
        ],
        "links": [{"id": "l", "a": "a", "b": "b", "bandwidth_mbps": 10, "latency_ms": 1}],
    })
    view = Inventory(topo).snapshot()
    req = request({"component": {"name": "x"}, "requirements": []})
    assert score("a", req, view, topo).score == \
        score("b", req, view, topo).score


def test_compute_profile_reweights_capacity_fit(topo, view):
    # Memory-optimized weighting punishes the RAM-poor gateway harder.
    base = request({"component": {"name": "x"},
                    "requirements": [{"compute": {"vcpus": 1, "ram_mib": 512, "disk_gib": 1}}]})
    mem = request({"component": {"name": "x"},
                   "requirements": [{"compute": {"profile": "memory_optimized",
                                                 "vcpus": 1, "ram_mib": 512, "disk_gib": 1}}]})
    gw_base = score("gateway-a", base, view, topo).subscores["capacity_fit"]
    gw_mem = score("gateway-a", mem, view, topo).subscores["capacity_fit"]
    assert gw_mem < gw_base


def test_network_slack_saturates_at_twice_the_floor(topo, view):
    req = request({
        "component": {"name": "x"},
        "requirements": [
            {"network": {"profile": "signaling_and_video_streaming", "endpoint": "camera-1"}}
        ],
    })
    # cloudlet path bottleneck 100 vs floor 4: headroom far beyond 2x -> 1.0
    scored = score("cloudlet-a", req, view, topo)
    assert scored.subscores["network_slack"] == 1.0


def test_choose_argmax_and_ties():
    assert choose([ScoredNode("a", 0.5, {}), ScoredNode("b", 0.7, {})]) == "b"
    assert choose([ScoredNode("a", 0.5, {}), ScoredNode("b", 0.5, {})]) == "a"
    assert choose([ScoredNode("only", 0.1, {})]) == "only"
    with pytest.raises(ValueError):
        choose([])


@given(
    free=st.integers(0, 16),
    more=st.integers(1, 16),
)
def test_capacity_fit_monotone_in_free_capacity(free, more):
    # Same node shape, identical footprint; strictly more free capacity never
    # lowers capacity_fit.
    def fit(vcpus_free):
        topo = load_topology({"nodes": [
            {"id": "n", "tier": "edge_cloudlet", "vcpus": 32, "ram_mib": 1024, "disk_gib": 10},
        ]})
        inv = Inventory(topo)
        used = 32 - vcpus_free
        if used > 0:
            inv.place(Placement("pad", "t", "pad", "n", ResourceVector(used, 0, 0)))
        req = request({"component": {"name": "x"},
                       "requirements": [{"compute": {"vcpus": 0, "ram_mib": 0, "disk_gib": 0}}]})
        return score("n", req, inv.snapshot(), topo).subscores["capacity_fit"]

    assert fit(free + more) >= fit(free)


# -- small oracle: pipeline choice equals brute-force argmax -------------------------


def brute_force_choice(engine, doc):
    """Independent re-derivation: re-run filter checks and scoring arithmetic
    directly from the snapshot, then argmax with the lexicographic tie-break."""
    req = validate_request(doc, request_id="probe")
    view = engine.inventory.snapshot()
    topo = engine.topo
    config = engine.config
    best = None
    for node in topo.hostable_nodes:
        state = view.nodes[node.id]
        footprint = req.compute.request if req.compute else config.default_footprint
        if not footprint.fits_within(state.free):
            continue
        if req.location and node.region != req.location.region:
            continue
        if any(label not in node.labels for label in req.access_labels):
            continue
        feasible = True
        slack_terms = []
        path_metrics = []
        for net in req.network_requirements:
            row = config.threshold_for(net.profile)
            try:
                path = topo.path_between(node.id, topo.endpoint_node(net.endpoint),
                                         view.residuals())
            except Exception:
                feasible = False
                break
            metrics = topo.path_metrics(path, view.residuals())
            path_metrics.append(metrics)
            covered = sum((f.rate_mbps for f in req.component.flows_with_endpoint(net.endpoint)),
                          Fraction(0))
            if row.min_bandwidth_mbps is not None and not metrics.bandwidth_at_least(row.min_bandwidth_mbps):
                feasible = False
            if metrics.bottleneck_mbps is not None and covered > metrics.bottleneck_mbps:
                feasible = False
            if row.max_latency_ms is not None and metrics.total_latency_ms > row.max_latency_ms:
                feasible = False
            if row.max_jitter_ms is not None and metrics.total_jitter_ms > row.max_jitter_ms:
                feasible = False
            if row.min_bandwidth_mbps:
                slack_terms.append(
                    1.0 if metrics.bottleneck_mbps is None else
                    min(1.0, float(metrics.bottleneck_mbps / (2 * row.min_bandwidth_mbps)))
                )
            else:
                slack_terms.append(1.0)
        if not feasible:
            continue
        scored = priority(node.id, req, view, topo, config, path_metrics)
        key = (-scored.score, node.id)
        if best is None or key < best[0]:
            best = (key, node.id)
    return best[1] if best else None


def test_pipeline_choice_matches_brute_force(reference_engine):
    docs = [
        {"component": {"name": "plain"}, "requirements": []},
        {"component": {"name": "pinned"},
         "requirements": [{"location": {"region": "metro-a"}}]},
        {"component": {"name": "hungry"},
         "requirements": [{"compute": {"vcpus": 8, "ram_mib": 32768, "disk_gib": 100}}]},
        {"component": {"name": "streamy",
                       "flows": [{"from_endpoint": "camera-1", "rate_mbps": 4.0}]},
         "requirements": [{"network": {"profile": "signaling_and_video_streaming",
                                       "endpoint": "camera-1"}}]},
    ]
    for doc in docs:
        expected = brute_force_choice(reference_engine, doc)
        rid = reference_engine.submit(doc)
        (record,) = reference_engine.process_pending()
        assert record.outcome == "placed"
        assert record.node_id == expected, doc["component"]["name"]
