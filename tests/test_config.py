from fractions import Fraction

import pytest

from foglet.config import EngineConfig, SchedulerWeights, config_from_document
from foglet.model import NetworkProfile, ResourceVector
from foglet.scenario import build_engine, run_scenario
from foglet.documents import parse_scenario
from tests.conftest import reference_topology_doc


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        SchedulerWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="non-negative"):
        SchedulerWeights(1.2, -0.1, -0.1)


def test_unknown_config_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_document({"turbo": True})


def test_threshold_override_merges_row_by_row():
    config = config_from_document({
        "thresholds": {"signaling_and_video_streaming": {"min_bandwidth_mbps": 8}}
    })
    row = config.threshold_for(NetworkProfile.SIGNALING_AND_VIDEO_STREAMING)
    assert row.min_bandwidth_mbps == 8
    assert row.max_latency_ms is None  # full-row replacement, as documented
    untouched = config.threshold_for(NetworkProfile.INTERACTIVE_APPLICATION)
    assert untouched.min_bandwidth_mbps == 1


def test_footprint_and_ttl_overrides():
    config = config_from_document({
        "default_footprint": {"vcpus": 1, "ram_mib": 1024, "disk_gib": 2},
        "drain_rate_multiplier": 3,
    })
    assert config.default_footprint == ResourceVector(1, 1024, 2)
    assert config.drain_rate_multiplier == 3
    # Placement is one step, so there is no held reservation to expire and
    # a reservation TTL override is refused.
    with pytest.raises(ValueError, match=r"unknown config keys: \['reservation_ttl_s'\]"):
        config_from_document({"reservation_ttl_s": 5})


def test_scenario_config_steers_placement_end_to_end():
    # Flip the tier preference upside down: a requirement-free request then
    # favors the gateway instead of the cloud.
    script = parse_scenario({
        "name": "edge-first",
        "topology": reference_topology_doc(),
        "config": {
            "weights": {"capacity_fit": 0.0, "network_slack": 0.0, "tier_preference": 1.0},
            "tier_preference": {"cloud": 0.1, "edge_cloudlet": 0.5, "edge_gateway": 1.0},
        },
        "steps": [
            {"submit": {"request": {"component": {"name": "x"}}, "expect": "placed"}},
            {"assert_placement": {"component": "x", "node": "gateway-a"}},
        ],
    })
    result = run_scenario(script, build_engine(script))
    assert result.ok, result.failures


def test_threshold_override_changes_admission_end_to_end():
    # Drop the streaming floor below the uplink capacity: the detector's
    # camera profile is then satisfiable from the cloud, which outranks the
    # cloudlet again.
    script = parse_scenario({
        "name": "loose-floor",
        "topology": reference_topology_doc(),
        "config": {"thresholds": {
            "signaling_and_video_streaming": {"min_bandwidth_mbps": 0.5, "max_latency_ms": 300}
        }},
        "steps": [
            {"submit": {"request": {
                "component": {"name": "face_detection", "flows": [
                    # Declared camera intake must also fit: keep it under 1.5.
                    {"from_endpoint": "camera-1", "rate_mbps": 1.0},
                ]},
                "requirements": [{"network": {
                    "profile": "signaling_and_video_streaming", "endpoint": "camera-1",
                }}],
            }, "expect": "placed"}},
            {"assert_placement": {"component": "face_detection", "node": "cloud"}},
        ],
    })
    result = run_scenario(script, build_engine(script))
    assert result.ok, result.failures
