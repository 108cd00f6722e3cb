import json
from fractions import Fraction

import pytest

from foglet.engine import Engine
from foglet.inventory import StoreError
from foglet.model import ReferenceError_, ValidationError
from tests.conftest import camera_app_doc, store_app_doc


def test_submit_assigns_sequential_ids(reference_engine):
    first = reference_engine.submit(store_app_doc("a"))
    second = reference_engine.submit(store_app_doc("b"))
    assert (first, second) == ("req-000001", "req-000002")
    assert reference_engine.request_status(first)["state"] == "queued"


def test_submit_validates_once_and_refusals_consume_no_id(reference_engine, monkeypatch):
    import foglet.engine as engine_mod

    real_validate = engine_mod.validate_request
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "validate_request", counted)
    with pytest.raises(ReferenceError_):
        reference_engine.submit({
            "component": {"name": "x"},
            "requirements": [{"network": {"endpoint": "ghost-cam"}}],
        })
    with pytest.raises(ValidationError):
        reference_engine.submit({"component": {}})
    rid = reference_engine.submit(camera_app_doc(svs=True))
    assert rid == "req-000001"
    assert len(calls) == 3
    assert reference_engine._queue == [
        real_validate(camera_app_doc(svs=True), request_id=rid,
                      submitted_at=reference_engine.clock_s)
    ]


def test_submit_rejects_unknown_endpoint(reference_engine):
    with pytest.raises(ReferenceError_):
        reference_engine.submit({
            "component": {"name": "x"},
            "requirements": [{"network": {"endpoint": "ghost-cam"}}],
        })


def test_submit_rejects_duplicate_id(reference_engine):
    reference_engine.submit({"id": "mine", "component": {"name": "a"}})
    with pytest.raises(ValidationError, match="duplicate"):
        reference_engine.submit({"id": "mine", "component": {"name": "b"}})


def test_evict_then_reschedule_is_deterministic(reference_engine):
    reference_engine.submit(camera_app_doc())
    (first,) = reference_engine.process_pending()
    assert first.node_id == "cloud"
    reference_engine.evict_node("cloud")
    view = reference_engine.inventory.snapshot()
    assert view.nodes["cloud"].allocated.is_zero()
    assert all(l.reserved_mbps == 0 for l in view.links.values())
    assert reference_engine.report().flows == ()
    reference_engine.submit(camera_app_doc("face_detection_again", "face_store_again"))
    (second,) = reference_engine.process_pending()
    assert second.node_id == "cloud"  # identical inventory, identical choice


def test_eviction_releases_cross_owned_flow_bookings(reference_engine):
    # face_store's negotiation booked the faces flow; evicting the *detector's*
    # node must still free that booking because the flow dies with it.
    reference_engine.submit(camera_app_doc(svs=True))
    reference_engine.submit(store_app_doc())
    reference_engine.process_pending()
    wan_before = reference_engine.inventory.snapshot().links["wan"].reserved_mbps
    assert wan_before == Fraction(1, 5)
    reference_engine.evict_node("cloudlet-a")
    view = reference_engine.inventory.snapshot()
    assert view.links["wan"].reserved_mbps == 0
    assert view.links["lan-a"].reserved_mbps == 0


def test_evict_node_is_all_or_nothing(tmp_path, reference_engine):
    # Float vCPUs: 0.7 + 0.1 - 0.7 - 0.1 is below zero, so freeing both
    # placements raises; nothing may have been evicted when it does.
    engine = reference_engine
    for name, vcpus in (("big", 0.7), ("small", 0.1)):
        engine.submit({"component": {"name": name},
                       "requirements": [{"compute": {"vcpus": vcpus}},
                                        {"location": {"region": "metro-a"}}]})
    records = engine.process_pending()
    assert [r.node_id for r in records] == ["cloudlet-a", "cloudlet-a"]
    before, after = str(tmp_path / "before.bin"), str(tmp_path / "after.bin")
    engine.save(before)
    try:
        assert engine.evict_node("cloudlet-a") == [r.request_id for r in records]
    except ValueError:
        engine.save(after)
        assert open(after, "rb").read() == open(before, "rb").read()


def test_failed_transaction_fails_its_request_and_keeps_later_ones_queued(
        reference_engine, monkeypatch):
    engine = reference_engine
    first = engine.submit(store_app_doc("first"))
    second = engine.submit(store_app_doc("second"))
    real = Engine._negotiate

    def fail_first(self, request):
        if request.id == first:
            raise RuntimeError("planted failure")
        return real(self, request)

    monkeypatch.setattr(Engine, "_negotiate", fail_first)
    with pytest.raises(RuntimeError, match="planted"):
        engine.process_pending()
    assert engine.request_status(first) == {"request_id": first, "state": "failed"}
    assert engine.request_status(second)["state"] == "queued"
    (record,) = engine.process_pending()
    assert (record.request_id, record.outcome) == (second, "placed")
    assert engine.request_status(second)["state"] == "placed"


def test_component_flows_resolve_within_one_tenant_only(reference_engine):
    # Two tenants ship identically-named components; the produced flows must
    # pair up inside each tenant, never across.
    for tenant in ("alpha", "beta"):
        reference_engine.submit({
            "tenant": tenant,
            "component": {"name": "producer", "flows": [
                {"to_component": "consumer", "rate_mbps": 0.1},
            ]},
        })
    reference_engine.submit({"tenant": "alpha", "component": {"name": "consumer"}})
    records = reference_engine.process_pending()
    assert [r.outcome for r in records] == ["placed"] * 3
    report = reference_engine.report()
    assert len(report.flows) == 1  # beta's flow still waits for its consumer
    reference_engine.submit({"tenant": "beta", "component": {"name": "consumer"}})
    reference_engine.process_pending()
    assert len(reference_engine.report().flows) == 2


def test_advance_requires_positive_dt(reference_engine):
    from foglet.engine import EngineError

    with pytest.raises(EngineError):
        reference_engine.advance(0)


def test_save_load_round_trip_mid_fault(tmp_path, reference_engine):
    engine = reference_engine
    engine.flowsim.set_cache("cloudlet-a", 1024)
    engine.submit({
        "component": {"name": "anonymizer", "flows": [
            {"from_endpoint": "camera-1", "rate_mbps": 4.0},
            {"to_component": "analyzer", "rate_mbps": 0.5},
        ]},
        "requirements": [{"location": {"region": "metro-a"}}],
    })
    engine.submit({"component": {"name": "analyzer"}})
    engine.process_pending()
    engine.advance(10)
    engine.set_link_state("wan", False)
    engine.advance(30)

    path = str(tmp_path / "mid.bin")
    engine.save(path)
    clone = Engine.load(path)

    for e in (engine, clone):
        e.advance(30)
        e.set_link_state("wan", True)
        e.advance(60)
        e.submit(store_app_doc("late"))
        e.process_pending()

    original = json.dumps(engine.report().to_dict(), sort_keys=True)
    resumed = json.dumps(clone.report().to_dict(), sort_keys=True)
    assert original == resumed
    assert engine.placements() == clone.placements()
    assert engine.request_ids() == clone.request_ids()


def test_load_ignores_placement_bookings_of_older_state_files(tmp_path, reference_engine):
    # State files once repeated each placement's bandwidth bookings, which now
    # live on its reservation only, and carried the two-phase reservation
    # lifecycle: each node's held `reserved` vector and each reservation's
    # node, footprint, state, creation time and TTL. Such a file still loads
    # and re-saves to the current bytes.
    from foglet.inventory import read_store, write_store

    engine = reference_engine
    engine.submit(camera_app_doc(svs=True))
    engine.submit(store_app_doc())
    engine.process_pending()
    path = str(tmp_path / "now.bin")
    engine.save(path)
    resaved = str(tmp_path / "resaved.bin")
    Engine.load(path).save(resaved)
    assert open(resaved, "rb").read() == open(path, "rb").read()

    records = read_store(path)
    inventory = dict(records)["inventory"]
    zero = {"vcpus": 0.0, "ram_mib": 0, "disk_gib": 0}
    for node in inventory["nodes"].values():
        assert "reserved" not in node
        node["reserved"] = zero
    placements = inventory["placements"]
    assert list(inventory["reservations"]) == ["rsv-000001", "rsv-000002"]
    for rsv in inventory["reservations"].values():
        assert set(rsv) == {"request_id", "network"}
        placement = placements[rsv["request_id"]]
        rsv.update(node_id=placement["node_id"], resources=placement["allocated"],
                   state="committed", created_at="0", ttl_s="30")
    bookings = {}
    for rsv in inventory["reservations"].values():
        bookings.setdefault(rsv["request_id"], []).extend(rsv["network"])
    assert any(bookings.values())
    for req_id, placement in placements.items():
        assert "network_reservations" not in placement
        placement["network_reservations"] = bookings.get(req_id, [])
    older = str(tmp_path / "older.bin")
    write_store(older, records)
    Engine.load(older).save(resaved)
    assert open(resaved, "rb").read() == open(path, "rb").read()


def test_load_rejects_missing_sections(tmp_path):
    from foglet.inventory import write_store

    path = str(tmp_path / "partial.bin")
    write_store(path, [("meta", {"engine_version": 1})])
    with pytest.raises(StoreError, match="missing"):
        Engine.load(path)


def test_queued_requests_survive_save_load(tmp_path, reference_engine):
    reference_engine.submit(store_app_doc("later"))
    path = str(tmp_path / "queued.bin")
    reference_engine.save(path)
    clone = Engine.load(path)
    (record,) = clone.process_pending()
    assert record.outcome == "placed"
    assert record.component == "later"
