import copy
import dataclasses
import functools
import json
import os
import struct
import sys
import tempfile
import threading
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from foglet.config import EngineConfig, config_from_document
from foglet.documents import load_scenario
from foglet.engine import Engine
from foglet.inventory import STORE_MAGIC, StoreError, read_store, write_store
from foglet.model import ReferenceError_, ValidationError
from foglet.scenario import build_engine, run_scenario
from foglet.topology import load_topology
from tests.conftest import (
    SCENARIO_DIR,
    camera_app_doc,
    reference_topology_doc,
    store_app_doc,
)


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


def test_save_load_round_trip_mid_fault(tmp_path):
    doc = reference_topology_doc()
    doc["nodes"][1]["cache_mib"] = 1024
    engine = Engine(load_topology(doc))
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
    engine = reference_engine
    engine.submit(camera_app_doc(svs=True))
    engine.submit(store_app_doc())
    engine.process_pending()
    path = str(tmp_path / "now.bin")
    engine.save(path)
    resaved = str(tmp_path / "resaved.bin")
    Engine.load(path).save(resaved)
    assert _read(resaved) == _read(path)

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
    assert _read(resaved) == _read(path)


def test_load_rejects_missing_sections(tmp_path):
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


# -- the decision journal ------------------------------------------------------------


def _decide_three(engine):
    """Two placements and one rejection."""
    engine.submit(camera_app_doc(svs=True))
    engine.submit(store_app_doc())
    engine.submit({"component": {"name": "huge"},
                   "requirements": [{"compute": {"vcpus": 64}}]})
    assert [r.outcome for r in engine.process_pending()] == ["placed", "placed", "rejected"]
    return engine


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _saved(engine, path) -> bytes:
    engine.save(str(path))
    return _read(path)


def _with_section(sections, name, payload):
    return [(n, payload if n == name else p) for n, p in sections]


@pytest.mark.parametrize("name", ["usecase_a", "usecase_b", "usecase_c"])
def test_checkpoint_after_every_step_saves_what_an_uninterrupted_run_saves(tmp_path, name):
    script = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))
    config = config_from_document(script.config, EngineConfig())
    engine = build_engine(script)
    assert run_scenario(script, engine).ok
    uninterrupted = _saved(engine, tmp_path / "uninterrupted.bin")

    path = str(tmp_path / "step.bin")
    engine = build_engine(script)
    for step in script.steps:
        assert run_scenario(dataclasses.replace(script, steps=[step]), engine).ok
        engine.save(path)
        engine = Engine.load(path, config=config)
    assert _saved(engine, path) == uninterrupted


def test_a_loaded_engine_explains_every_request_as_before(tmp_path, reference_engine):
    engine = _decide_three(reference_engine)
    engine.submit(store_app_doc("queued"))
    before = {rid: (engine.explain(rid), engine.request_status(rid))
              for rid in engine.request_ids()}
    assert sum(explained is not None for explained, _ in before.values()) == 3
    engine.save(str(tmp_path / "state.bin"))
    clone = Engine.load(str(tmp_path / "state.bin"))
    assert {rid: (clone.explain(rid), clone.request_status(rid))
            for rid in clone.request_ids()} == before
    assert clone.explain("req-999999") is None


def test_decoding_a_loaded_journal_leaves_the_saved_bytes_unchanged(tmp_path, reference_engine):
    first = _saved(_decide_three(reference_engine), tmp_path / "first.bin")
    clone = Engine.load(str(tmp_path / "first.bin"))
    for rid in clone.request_ids():
        clone.explain(rid)
    assert _saved(clone, tmp_path / "second.bin") == first


def test_a_fresh_engine_saves_the_same_bytes_twice(tmp_path, reference_engine):
    engine = reference_engine
    assert _saved(engine, tmp_path / "a.bin") == _saved(engine, tmp_path / "b.bin")
    _decide_three(engine)
    assert _saved(engine, tmp_path / "c.bin") == _saved(engine, tmp_path / "d.bin")


def test_load_refuses_version_1_state_files(tmp_path, reference_engine):
    # Version 1 framed each section as a length and a JSON {"kind", "data"}
    # object, and kept the decision history inside the meta section.
    path = str(tmp_path / "v1.bin")
    body = json.dumps({"kind": "meta", "data": {"engine_version": 1, "decisions": {}}}).encode()
    with open(path, "wb") as fh:
        fh.write(STORE_MAGIC + struct.pack(">I", 1) + struct.pack(">I", len(body)) + body)
    with pytest.raises(StoreError, match="version 1 "):
        Engine.load(path)

    reference_engine.save(path)
    sections = read_store(path)
    dict(sections)["meta"]["engine_version"] = 1
    write_store(path, sections)
    with pytest.raises(StoreError, match="engine version 1 "):
        Engine.load(path)


def test_load_refuses_version_2_state_files(tmp_path, reference_engine):
    # Version 2 kept scenario caches only in its flowsim section, next to a
    # second copy of the clock; loading it now would lose the caches.
    path = str(tmp_path / "v2.bin")
    reference_engine.save(path)
    sections = read_store(path)
    meta = dict(sections)["meta"]
    meta["engine_version"] = 2
    flowsim = {"flows": {}, "clock_s": meta["clock_s"],
               "caches": {"cloudlet-a": "134217728/15625"}}
    write_store(path, _with_section(sections, "flowsim", flowsim))
    with pytest.raises(StoreError, match="engine version 2 "):
        Engine.load(path)


def test_load_refuses_version_3_state_files(tmp_path, reference_engine):
    # Version 3 saved the flows as one JSON document, with running sourced
    # and delivered counters in place of the activation and stall clocks.
    path = str(tmp_path / "v3.bin")
    _decide_three(reference_engine).save(path)
    sections = read_store(path)
    dict(sections)["meta"]["engine_version"] = 3
    flows = {
        record["id"]: {**record, "sourced_mbit": "0", "delivered_mbit": "0"}
        for record in map(json.loads, dict(sections)["flowsim"].splitlines())
    }
    write_store(path, _with_section(sections, "flowsim", {"flows": flows}))
    with pytest.raises(StoreError, match="engine version 3 "):
        Engine.load(path)


def _keys(doc):
    """Every mapping key anywhere in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


def test_a_usecase_c_checkpoint_holds_each_fact_once(tmp_path):
    script = load_scenario(os.path.join(SCENARIO_DIR, "usecase_c.yaml"))
    engine = build_engine(script)
    assert run_scenario(script, engine).ok
    path = str(tmp_path / "c.bin")
    engine.save(path)
    sections = dict(read_store(path))
    (cloudlet,) = [n for n in sections["topology"]["nodes"] if n["id"] == "cloudlet-a"]
    assert cloudlet["cache_mib"] == 1024
    flows = [json.loads(line) for line in sections["flowsim"].splitlines()]
    assert [f["id"] for f in flows] == sorted(engine.flowsim.flows)
    keys = {name: set(_keys(doc)) for name, doc in sections.items()
            if name not in ("decisions", "flowsim")}
    keys["flowsim"] = set(_keys(flows))
    assert [name for name, found in keys.items() if "clock_s" in found] == ["meta"]
    for name in ("meta", "inventory", "flowsim"):
        assert not keys[name] & {"capacity", "bandwidth_mbps", "cache_mib", "caches"}, name

    # Each inventory link shows its capacity for readers; a load never reads it back.
    for link in sections["inventory"]["links"].values():
        link["capacity_mbps"] = "1"
    write_store(path, list(sections.items()))
    clone = Engine.load(path)
    assert dict(clone.inventory.reserved()) == dict(engine.inventory.reserved())
    assert dict(clone.inventory.residuals()) == dict(engine.inventory.residuals())
    assert clone.nodes() == engine.nodes()
    assert clone.flowsim.caches == engine.flowsim.caches
    assert clone.clock_s == engine.clock_s == clone.report().horizon_s


def test_load_refuses_a_journal_without_one_line_per_decided_request(tmp_path, reference_engine):
    path = str(tmp_path / "state.bin")
    _decide_three(reference_engine).save(path)
    sections = read_store(path)
    journal = dict(sections)["decisions"]
    lines = journal.split(b"\n")[:-1]
    assert len(lines) == 3
    for bad in (b"", b"\n".join(lines[:2]) + b"\n", journal + lines[0] + b"\n",
                b"\n" + journal[:-1]):
        write_store(path, _with_section(sections, "decisions", bad))
        with pytest.raises(StoreError, match="journal"):
            Engine.load(path)
    write_store(path, _with_section(sections, "decisions", {}))
    with pytest.raises(StoreError, match="journal"):
        Engine.load(path)


def test_a_journal_line_that_does_not_decode_fails_when_first_read(tmp_path, reference_engine):
    engine = _decide_three(reference_engine)
    queued = engine.submit(store_app_doc("queued"))
    path = str(tmp_path / "state.bin")
    engine.save(path)
    sections = read_store(path)
    lines = dict(sections)["decisions"].split(b"\n")[:-1]
    for bad in (b"{not json", b'{"request_id": "req-000001"}', b"[]", lines[1]):
        journal = b"\n".join([bad] + lines[1:]) + b"\n"
        write_store(path, _with_section(sections, "decisions", journal))
        clone = Engine.load(path)  # the framing holds, so load reads no record
        assert clone.request_status(queued) == {"request_id": queued, "state": "queued"}
        with pytest.raises(StoreError, match="journal"):
            clone.explain("req-000001")
        with pytest.raises(StoreError, match="journal"):
            clone.request_status("req-000001")


def test_threads_reading_a_loaded_journal_see_every_record(tmp_path, reference_engine):
    engine = _decide_three(reference_engine)
    rids = engine.request_ids()
    expected = [engine.explain(rid) for rid in rids]
    engine.save(str(tmp_path / "state.bin"))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            clone = Engine.load(str(tmp_path / "state.bin"))
            seen = []
            threads = [
                threading.Thread(target=lambda: seen.append([clone.explain(r) for r in rids]))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert seen == [expected] * len(threads)
    finally:
        sys.setswitchinterval(old_interval)


# -- a raising call leaves no trace ----------------------------------------------------

FRACTIONAL = [{"location": {"region": "metro-a"}}]
CALLS = {
    "store": ("submit", store_app_doc("store")),
    "camera": ("submit", camera_app_doc(svs=True)),
    "named": ("submit", {"id": "req-000003", "component": {"name": "named"}}),
    "invalid": ("submit", {"component": {}}),
    "ghost-endpoint": ("submit", {"component": {"name": "x"},
                                  "requirements": [{"network": {"endpoint": "ghost-cam"}}]}),
    "big": ("submit", {"component": {"name": "big"},
                       "requirements": [{"compute": {"vcpus": 0.7}}] + FRACTIONAL}),
    "small": ("submit", {"component": {"name": "small"},
                         "requirements": [{"compute": {"vcpus": 0.1}}] + FRACTIONAL}),
    "process": ("process_pending",),
    "advance": ("advance", 10),
    "advance-zero": ("advance", 0),
    "advance-negative": ("advance", -5),
    "wan-down": ("set_link_state", "wan", False),
    "wan-up": ("set_link_state", "wan", True),
    "ghost-link": ("set_link_state", "ghost", False),
}


def _statuses_name_running_placements(engine) -> None:
    """A request is `placed` exactly when the inventory runs its placement,
    on the node its status names."""
    running = {p["request_id"]: p["node_id"] for p in engine.placements()}
    placed = {}
    for rid in engine.request_ids():
        status = engine.request_status(rid)
        if status["state"] == "placed":
            placed[rid] = status["placement"]["node_id"]
    assert placed == running


def _raising_calls_leave_no_trace(names, tmpdir) -> list:
    """Makes the named CALLS in order; every call that raises must leave the
    saved bytes as they were, and after every call no status may name a
    placement that does not exist. Returns the names of those that raised."""
    engine = Engine(load_topology(reference_topology_doc()), config=EngineConfig())
    raised = []
    for name in names:
        method, *args = CALLS[name]
        before = _saved(engine, os.path.join(tmpdir, "before.bin"))
        try:
            getattr(engine, method)(*copy.deepcopy(args))
        except Exception:
            raised.append(name)
            assert _saved(engine, os.path.join(tmpdir, "after.bin")) == before, name
        _statuses_name_running_placements(engine)
    return raised


def test_each_refused_call_leaves_the_saved_bytes_unchanged(tmp_path):
    names = [
        "invalid",
        "named", "named",  # duplicate id
        "store", "store",  # req-000001, req-000002
        "store",  # req-000003 is taken, so req-000004
        "advance-zero", "advance-negative", "ghost-link",
        "big", "small", "process",
    ]
    assert _raising_calls_leave_no_trace(names, str(tmp_path)) == [
        "invalid", "named", "advance-zero", "advance-negative", "ghost-link",
    ]


@hypothesis.settings(max_examples=200)
@hypothesis.given(st.lists(st.sampled_from(sorted(CALLS)), max_size=20))
def test_any_raising_call_leaves_the_saved_bytes_unchanged(names):
    with tempfile.TemporaryDirectory() as tmpdir:
        _raising_calls_leave_no_trace(names, tmpdir)


def _key_paths(doc, prefix=()):
    """The path to every mapping key anywhere in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _key_paths(value, prefix + (i,))


@functools.lru_cache(maxsize=None)
def _rich_state():
    """Sections of a state file with every kind of fact in it (decisions, a
    queued request, a deferred flow, caching and stalled flows), and each
    key in it as (section, flow line or None, key path)."""
    doc = reference_topology_doc()
    doc["nodes"][1]["cache_mib"] = 16
    engine = Engine(load_topology(doc), config=EngineConfig())
    _decide_three(engine)
    engine.submit(camera_app_doc(name="second_detector", store="never_placed"))
    engine.process_pending()
    engine.submit(store_app_doc("queued"))
    engine.advance(5)
    engine.set_link_state("wan", False)
    engine.advance(Fraction(61, 2))
    engine.set_link_state("lan-a", False)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "state.bin")
        engine.save(path)
        sections = read_store(path)
    keys = [
        (name, None, path)
        for name, payload in sections if name not in ("decisions", "flowsim")
        for path in _key_paths(payload)
    ] + [
        ("flowsim", n, path)
        for n, line in enumerate(dict(sections)["flowsim"].splitlines())
        for path in _key_paths(json.loads(line))
    ]
    return sections, keys


@hypothesis.given(
    st.data(),
    st.one_of(st.just("delete"), st.sampled_from([None, 0, -1, 2.5, "x", "1/0", [], {}, True])),
)
def test_a_missing_or_mistyped_key_loads_or_raises_store_error(data, change):
    rich_sections, rich_keys = _rich_state()
    name, line_no, keys = data.draw(st.sampled_from(rich_keys))
    sections = copy.deepcopy(rich_sections)
    lines = dict(sections)["flowsim"].splitlines(keepends=True)
    doc = json.loads(lines[line_no]) if name == "flowsim" else dict(sections)[name]
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if change == "delete":
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = change
    if name == "flowsim":
        lines[line_no] = json.dumps(doc).encode() + b"\n"
        doc = b"".join(lines)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "state.bin")
        write_store(path, _with_section(sections, name, doc))
        try:
            Engine.load(path)
        except StoreError:
            pass


def test_load_names_the_missing_key_in_a_store_error(tmp_path, reference_engine):
    path = str(tmp_path / "state.bin")
    _decide_three(reference_engine).save(path)
    sections = read_store(path)
    del dict(sections)["meta"]["statuses"]
    write_store(path, sections)
    with pytest.raises(StoreError, match="statuses"):
        Engine.load(path)
