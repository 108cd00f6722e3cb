import json

from foglet.config import EngineConfig
from foglet.engine import Engine
from foglet.model import validate_request
from foglet import negotiator
from foglet.topology import load_topology
from tests.conftest import camera_app_doc, reference_topology_doc, store_app_doc


def test_requirement_free_camera_app_lands_on_cloud(reference_engine):
    reference_engine.submit(camera_app_doc())
    (record,) = reference_engine.process_pending()
    assert record.outcome == "placed"
    assert record.node_id == "cloud"


def test_streaming_profile_pushes_detector_to_the_cloudlet(reference_engine):
    reference_engine.submit(camera_app_doc(svs=True))
    (record,) = reference_engine.process_pending()
    assert record.outcome == "placed"
    assert record.node_id == "cloudlet-a"
    # The cloud was examined and failed the bandwidth floor.
    cloud = next(v for v in record.verdicts if v["node_id"] == "cloud")
    assert not cloud["passed"]


def test_impossible_compute_rejected_with_reason_per_node(reference_engine):
    reference_engine.submit({
        "component": {"name": "monster"},
        "requirements": [{"compute": {"vcpus": 1_000_000}}],
    })
    (record,) = reference_engine.process_pending()
    assert record.outcome == "rejected"
    nodes_with_reasons = {node for node, _check, _detail in record.reasons}
    assert nodes_with_reasons == {"cloud", "cloudlet-a", "gateway-a"}
    for _node, check, detail in record.reasons:
        assert check == "compute"
        assert "shortfall" in detail


def single_cloudlet_engine():
    topo = load_topology({"nodes": [
        {"id": "only", "tier": "edge_cloudlet", "vcpus": 4, "ram_mib": 1024, "disk_gib": 10},
    ]})
    return Engine(topo)


def full_footprint_doc(name):
    return {
        "component": {"name": name},
        "requirements": [{"compute": {"vcpus": 4, "ram_mib": 1024, "disk_gib": 10}}],
    }


def test_fcfs_first_wins_second_rejected():
    engine = single_cloudlet_engine()
    engine.submit(full_footprint_doc("first"))
    engine.submit(full_footprint_doc("second"))
    first, second = engine.process_pending()
    assert (first.outcome, second.outcome) == ("placed", "rejected")
    assert first.node_id == "only"


def test_fcfs_swapped_order_swaps_outcomes():
    engine = single_cloudlet_engine()
    engine.submit(full_footprint_doc("second"))
    engine.submit(full_footprint_doc("first"))
    records = engine.process_pending()
    assert [r.component for r in records] == ["second", "first"]
    assert [r.outcome for r in records] == ["placed", "rejected"]


def test_empty_queue_yields_empty_stream(reference_engine):
    assert reference_engine.process_pending() == []


def test_rejection_leaves_inventory_untouched(reference_engine):
    before = reference_engine.inventory.snapshot()
    reference_engine.submit({
        "component": {"name": "monster"},
        "requirements": [{"compute": {"vcpus": 10**6}}],
    })
    (record,) = reference_engine.process_pending()
    assert record.outcome == "rejected"
    after = reference_engine.inventory.snapshot()
    assert before.nodes == after.nodes
    assert before.links == after.links


def test_flow_admission_rejection_reports_all_nodes(reference_engine):
    # Saturate the uplink with the requirement-free camera app, then submit an
    # identical one: the chosen node's traffic no longer fits, and the
    # decision names every examined node.
    reference_engine.submit(camera_app_doc())
    reference_engine.submit(store_app_doc())
    reference_engine.process_pending()
    reference_engine.submit(camera_app_doc("face_detection2", "face_store2"))
    (record,) = reference_engine.process_pending()
    assert record.outcome == "rejected"
    by_node = {node: (check, detail) for node, check, detail in record.reasons}
    assert set(by_node) == {"cloud", "cloudlet-a", "gateway-a"}
    check, detail = by_node["cloud"]
    assert check == "flow_admission"
    assert "exhausted" in detail


def test_joint_bookings_across_requirements_share_links():
    # Two requirements that each fit individually but not together: the
    # filter passes per requirement, the joint booking at the chosen node
    # does not, so the request is rejected rather than over-committed.
    topo = load_topology({
        "nodes": [
            {"id": "host", "tier": "edge_cloudlet", "vcpus": 4, "ram_mib": 1024, "disk_gib": 10},
            {"id": "hub", "tier": "edge_gateway", "vcpus": 1, "ram_mib": 128, "disk_gib": 1},
        ],
        "links": [{"id": "thin", "a": "host", "b": "hub", "bandwidth_mbps": 5, "latency_ms": 1}],
        "endpoints": [
            {"id": "e1", "node": "hub", "kind": "sensor"},
            {"id": "e2", "node": "hub", "kind": "sensor"},
        ],
    })
    engine = Engine(topo)
    engine.submit({
        "component": {"name": "greedy", "flows": [
            {"to_endpoint": "e1", "rate_mbps": 3.0},
            {"to_endpoint": "e2", "rate_mbps": 3.0},
        ]},
        # Location pins the candidate set to the host so the hub (co-located
        # with both endpoints, empty paths) cannot absorb the request.
        "requirements": [
            {"network": {"endpoint": "e1"}},
            {"network": {"endpoint": "e2"}},
            {"compute": {"vcpus": 2}},
        ],
    })
    (record,) = engine.process_pending()
    assert record.outcome == "rejected"
    assert any(check == "flow_admission" for _n, check, _d in record.reasons)
    view = engine.inventory.snapshot()
    assert view.links["thin"].reserved_mbps == 0  # nothing half-booked


def test_unreachable_uncovered_flow_rejects(reference_engine):
    reference_engine.set_link_state("lan-a", False)
    reference_engine.submit({
        "component": {"name": "watcher", "flows": [
            {"from_endpoint": "camera-1", "rate_mbps": 1.0},
        ]},
        "requirements": [],
    })
    (record,) = reference_engine.process_pending()
    # Ranking still prefers the cloud; the camera is unreachable from there.
    assert record.outcome == "rejected"
    _node, check, detail = next(r for r in record.reasons if r[0] == "cloud")
    assert check == "flow_admission"
    assert "no up path" in detail


def test_accepted_implies_commit_succeeds(reference_engine):
    # Drive many mixed submissions; every acceptance must end as a placement
    # (no phantom acceptance), every rejection must leave no placement.
    docs = [
        camera_app_doc(),
        store_app_doc(),
        {"component": {"name": "big"},
         "requirements": [{"compute": {"vcpus": 30, "ram_mib": 1024, "disk_gib": 1}}]},
        {"component": {"name": "too-big"},
         "requirements": [{"compute": {"vcpus": 300}}]},
    ]
    for doc in docs:
        reference_engine.submit(doc)
    records = reference_engine.process_pending()
    placed = {r.request_id for r in records if r.outcome == "placed"}
    placements = {p["request_id"] for p in reference_engine.placements()}
    assert placed == placements
    statuses = {r.request_id: reference_engine.request_status(r.request_id)["state"]
                for r in records}
    assert all(s in ("placed", "rejected") for s in statuses.values())


def test_hold_and_commit_happen_in_one_decision(reference_engine, monkeypatch):
    # What was a hold and a commit is now one step inside one decision:
    # negotiation only reads, and the deploy step is the decision's one
    # inventory write, made once per accepted request and never for a
    # rejected one.
    import foglet.engine as engine_mod

    real_deploy = engine_mod.Engine._deploy
    deployed = []

    def counted(self, request, outcome):
        deployed.append(request.id)
        return real_deploy(self, request, outcome)

    monkeypatch.setattr(engine_mod.Engine, "_deploy", counted)
    reference_engine.submit(store_app_doc())
    reference_engine.submit(camera_app_doc(svs=True))
    reference_engine.submit({
        "component": {"name": "monster"},
        "requirements": [{"compute": {"vcpus": 1_000_000}}],
    })
    reference_engine.submit(camera_app_doc("fd2", "fs2", svs=True))
    records = reference_engine.process_pending()
    assert [r.outcome for r in records] == ["placed", "placed", "rejected", "placed"]
    assert deployed == [r.request_id for r in records if r.outcome == "placed"]
    doc = reference_engine.inventory.state_document()
    assert sorted(r["request_id"] for r in doc["reservations"].values()) == deployed
    assert doc["next_reservation"] == len(deployed) + 1


def test_negotiation_writes_nothing(reference_engine):
    engine = reference_engine
    engine.submit(store_app_doc())
    engine.process_pending()
    before = engine.inventory.state_document()
    request = validate_request(camera_app_doc(svs=True), request_id="probe")
    outcome = negotiator.negotiate(
        request, engine.inventory.snapshot(), engine.topo, engine.config,
        pending_flows=(), placements_by_component={}, allocate_flow_id=lambda: "f",
    )
    assert isinstance(outcome, negotiator.Accepted)
    assert outcome.candidate_node == "cloudlet-a"
    assert engine.inventory.state_document() == before


def test_fcfs_replay_is_deterministic():
    def run():
        engine = Engine(load_topology(reference_topology_doc()), config=EngineConfig())
        engine.submit(camera_app_doc(svs=True))
        engine.submit(store_app_doc())
        engine.submit(camera_app_doc("fd2", "fs2", svs=True))
        engine.submit(store_app_doc("fs2"))
        records = engine.process_pending()
        return json.dumps([r.to_dict() for r in records], sort_keys=True)

    assert run() == run()
