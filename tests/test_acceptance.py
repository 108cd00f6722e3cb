"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance (byte-exact where the criterion says exact). A summary line per
criterion is printed at the end of the run (see conftest).
"""

import dataclasses
import json
import os
import random
import time
from fractions import Fraction

import pytest

from foglet.config import EngineConfig, config_from_document
from foglet.engine import Engine
from foglet.flowsim import BYTES_PER_MBIT
from foglet.inventory import BandwidthBooking, InsufficientResources, Inventory
from foglet.model import Placement, ResourceVector, validate_request
from foglet.scheduler import PlannedFlow
from foglet.documents import load_scenario
from foglet.scenario import build_engine, run_scenario
from foglet.topology import load_topology
from tests.conftest import SCENARIO_DIR, camera_app_doc, reference_topology_doc, store_app_doc
from tests.stepped_flowsim import SteppedFlowSimulator

MBIT_TO_BYTES = Fraction(1_000_000, 8)


def scenario(name):
    return load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))


def run_named(name):
    script = scenario(name)
    started = time.monotonic()
    result = run_scenario(script, build_engine(script))
    elapsed = time.monotonic() - started
    return result, elapsed


def wan_offered(report_dict):
    return next(l for l in report_dict["links"] if l["link_id"] == "wan")["offered_mbps"]


def placements_of(result):
    return {o["component"]: o["node_id"] for o in result.outcomes if o["outcome"] == "placed"}


# -- criterion 1: cloud-only baseline ---------------------------------------------


def test_criterion_1_cloud_only_baseline():
    result, elapsed = run_named("usecase_a")
    assert result.ok, result.failures
    assert placements_of(result) == {"face_detection": "cloud", "face_store": "cloud"}
    assert wan_offered(result.final_report) == 4.0
    assert elapsed < 5.0


# -- criterion 2: bandwidth-aware placement ----------------------------------------


def test_criterion_2_edge_placement_cuts_uplink_load():
    result, elapsed = run_named("usecase_b")
    assert result.ok, result.failures
    assert placements_of(result) == {"face_detection": "cloudlet-a", "face_store": "cloud"}
    offered = wan_offered(result.final_report)
    assert offered == 0.2  # exact: 1/5 Mbit/s survives the float boundary
    baseline, _ = run_named("usecase_a")
    ratio = wan_offered(baseline.final_report) / offered
    assert ratio >= 10
    assert ratio == 20  # config arithmetic: 4.0 / 0.2, tolerance 0
    assert elapsed < 5.0


# -- criterion 3: graceful degradation as admission outcomes ------------------------


def build_reference_engine():
    return Engine(load_topology(reference_topology_doc()), config=EngineConfig())


def test_criterion_3_degradation_admission_outcomes():
    # After the bandwidth-aware layout, a second identical camera app fits:
    # the uplink still has room for another 0.2 Mbit/s faces flow.
    engine = build_reference_engine()
    engine.submit(camera_app_doc(svs=True))
    engine.submit(store_app_doc())
    engine.process_pending()
    engine.submit(camera_app_doc("face_detection2", "face_store2", svs=True))
    engine.submit(store_app_doc("face_store2"))
    outcomes = [r.outcome for r in engine.process_pending()]
    assert outcomes == ["placed", "placed"]

    # After the cloud-only layout, the saturated uplink rejects the second
    # identical app with a network resource reason.
    engine = build_reference_engine()
    engine.submit(camera_app_doc())
    engine.submit(store_app_doc())
    engine.process_pending()
    wan = engine.report().link("wan")
    assert wan.reserved_mbps == wan.capacity_mbps  # saturated
    engine.submit(camera_app_doc("face_detection2", "face_store2"))
    (record,) = engine.process_pending()
    assert record.outcome == "rejected"
    check, detail = next(
        (check, detail) for node, check, detail in record.reasons if node == "cloud"
    )
    assert check == "flow_admission"
    assert "bandwidth exhausted" in detail


# -- criterion 4: fault caching at the edge ------------------------------------------


def test_criterion_4_fault_caching_and_drain():
    result, _ = run_named("usecase_c")
    assert result.ok, result.failures
    assert placements_of(result) == {"anonymizer": "cloudlet-a", "analyzer": "cloud"}

    # Mid-fault report (first report step): peak buffer = rate * 60 s, exact.
    mid = result.reports[0]
    flow = next(f for f in mid["flows"] if "analyzer" in f["sink"])
    expected_bytes = float(Fraction(1, 2) * 60 * MBIT_TO_BYTES)
    assert flow["bytes_cached"] == expected_bytes
    assert flow["bytes_cached_peak"] == expected_bytes
    assert flow["bytes_lost"] == 0

    # Post-restore: everything sourced was delivered.
    final = next(f for f in result.final_report["flows"] if "analyzer" in f["sink"])
    assert final["bytes_delivered"] == final["bytes_sourced"]
    assert final["bytes_cached"] == 0
    assert final["bytes_lost"] == 0

    # The same fault under the cloud-only layout loses rate * 60 s: the flow
    # sources at a camera with no cache-capable node upstream of the break.
    engine = build_reference_engine()
    engine.submit(camera_app_doc())
    engine.submit(store_app_doc())
    engine.process_pending()
    engine.advance(10)
    engine.set_link_state("wan", False)
    engine.advance(60)
    report = engine.report()
    camera_flow = next(f for f in report.flows if "camera-1" in f.source)
    assert camera_flow.state == "stalled"
    assert camera_flow.bytes_lost == Fraction(4) * 60 * MBIT_TO_BYTES
    assert camera_flow.bytes_cached == 0


# -- criterion 5: scheduler equals brute force over randomized instances -------------
#
# The oracle below re-derives placement from scratch: its own path
# enumeration (DFS over all simple paths), its own filter checks, the scoring
# formula spelled out, the documented tie-breaks, and the post-choice flow
# admission rule. It shares no code with the scheduler.


class OracleTopo:
    def __init__(self, doc):
        self.nodes = {n["id"]: n for n in doc["nodes"]}
        self.links = {l["id"]: l for l in doc["links"]}
        self.endpoints = {e["id"]: e for e in doc.get("endpoints", [])}

    def all_simple_paths(self, a, b):
        if a == b:
            return [()]
        paths = []

        def dfs(at, visited, acc):
            for lid, link in self.links.items():
                if at not in (link["a"], link["b"]):
                    continue
                nxt = link["b"] if at == link["a"] else link["a"]
                if nxt in visited:
                    continue
                if nxt == b:
                    paths.append(tuple(acc + [lid]))
                else:
                    dfs(nxt, visited | {nxt}, acc + [lid])

        dfs(a, {a}, [])
        return paths

    def best_path(self, a, b, residuals):
        """Documented rule, canonical direction: fewest hops, widest
        bottleneck, lexicographically smallest id sequence."""
        if a == b:
            return ()
        lo, hi = (a, b) if a <= b else (b, a)
        candidates = self.all_simple_paths(lo, hi)
        candidates = [p for p in candidates if all(residuals.get(l) is not None for l in p)]
        if not candidates:
            return None
        best = min(candidates, key=lambda p: (len(p), -min(residuals[l] for l in p), p))
        return best if a == lo else tuple(reversed(best))


def oracle_decide(topo_doc, request_doc, config):
    """Returns ("placed", node_id) or ("rejected", None)."""
    topo = OracleTopo(topo_doc)
    request = validate_request(request_doc, request_id="oracle")
    residuals = {
        l["id"]: Fraction(str(l["bandwidth_mbps"])) for l in topo_doc["links"]
    }
    footprint = (request.compute.request if request.compute is not None
                 else config.default_footprint)

    profile_weights = {
        "general_purpose": (1 / 3, 1 / 3, 1 / 3),
        "compute_optimized": (0.6, 0.2, 0.2),
        "memory_optimized": (0.2, 0.6, 0.2),
        "storage_optimized": (0.2, 0.2, 0.6),
    }
    tier_pref = {"cloud": 1.0, "edge_cloudlet": 0.6, "edge_gateway": 0.3}

    def path_stats(path):
        if path is None:
            return None
        if not path:
            return (None, Fraction(0), Fraction(0))
        bottleneck = min(residuals[l] for l in path)
        latency = sum(Fraction(str(topo.links[l].get("latency_ms", 0))) for l in path)
        jitter = sum(Fraction(str(topo.links[l].get("jitter_ms", 0))) for l in path)
        return (bottleneck, latency, jitter)

    candidates = []
    for node in topo_doc["nodes"]:
        if node["tier"] == "swarm_of_things":
            continue
        capacity = ResourceVector(float(node.get("vcpus", 0)),
                                  int(node.get("ram_mib", 0)), int(node.get("disk_gib", 0)))
        if not footprint.fits_within(capacity):
            continue
        if request.location and node.get("region", "") != request.location.region:
            continue
        if any(label not in set(node.get("labels", [])) for label in request.access_labels):
            continue
        ok = True
        slack_terms = []
        for net in request.network_requirements:
            row = config.threshold_for(net.profile)
            attach = topo.endpoints[net.endpoint]["node"]
            stats = path_stats(topo.best_path(node["id"], attach, residuals))
            if stats is None:
                ok = False
                break
            bottleneck, latency, jitter = stats
            covered = sum(
                (f.rate_mbps for f in request.component.flows_with_endpoint(net.endpoint)),
                Fraction(0),
            )
            if row.min_bandwidth_mbps is not None and bottleneck is not None \
                    and bottleneck < row.min_bandwidth_mbps:
                ok = False
            if bottleneck is not None and covered > bottleneck:
                ok = False
            if row.max_latency_ms is not None and latency > row.max_latency_ms:
                ok = False
            if row.max_jitter_ms is not None and jitter > row.max_jitter_ms:
                ok = False
            if row.min_bandwidth_mbps:
                slack_terms.append(1.0 if bottleneck is None else
                                   min(1.0, float(bottleneck / (2 * row.min_bandwidth_mbps))))
            else:
                slack_terms.append(1.0)
        if not ok:
            continue

        weights = profile_weights[
            request.compute.profile.value if request.compute else "general_purpose"
        ]
        free_after = capacity - footprint

        def frac(amount, total):
            return 0.0 if total <= 0 else max(0.0, min(1.0, amount / total))

        capacity_fit = sum(w * f for w, f in zip(weights, (
            frac(free_after.vcpus, capacity.vcpus),
            frac(free_after.ram_mib, capacity.ram_mib),
            frac(free_after.disk_gib, capacity.disk_gib),
        )))
        network_slack = sum(slack_terms) / len(slack_terms) if slack_terms else 1.0
        tier = tier_pref.get(node["tier"], 0.0)
        score = 0.4 * capacity_fit + 0.3 * network_slack + 0.3 * tier
        candidates.append((-score, node["id"]))

    if not candidates:
        return ("rejected", None)
    chosen = min(candidates)[1]

    # Post-choice flow admission, mirroring the documented booking order:
    # requirement-covered endpoint traffic first (full rate), then uncovered
    # endpoint flows (clamped; zero residual or no path rejects the request).
    working = dict(residuals)
    covered_endpoints = {r.endpoint for r in request.network_requirements}
    for net in request.network_requirements:
        flows = request.component.flows_with_endpoint(net.endpoint)
        if not flows:
            continue
        attach = topo.endpoints[net.endpoint]["node"]
        path = topo.best_path(chosen, attach, working)
        if path is None:
            return ("rejected", None)
        total = sum((f.rate_mbps for f in flows), Fraction(0))
        if path and total > 0:
            if min(working[l] for l in path) < total:
                return ("rejected", None)
            for l in path:
                working[l] -= total
    for spec in request.component.flows:
        if spec.peer_kind.value != "endpoint" or spec.peer in covered_endpoints:
            continue
        attach = topo.endpoints[spec.peer]["node"]
        path = topo.best_path(chosen, attach, working)
        if path is None:
            return ("rejected", None)
        if path and spec.rate_mbps > 0:
            bottleneck = min(working[l] for l in path)
            if bottleneck <= 0:
                return ("rejected", None)
            booked = min(spec.rate_mbps, bottleneck)
            for l in path:
                working[l] -= booked
    return ("placed", chosen)


def random_instance(rng):
    n = rng.randint(1, 8)
    regions = ["r1", "r2", "r3"]
    labels_pool = ["gpu", "ssd", "secure"]
    nodes = []
    for i in range(n):
        nodes.append({
            "id": f"n{i:02d}",
            "tier": rng.choice(["cloud", "edge_cloudlet", "edge_gateway"]),
            "region": rng.choice(regions),
            "vcpus": rng.choice([1, 2, 4, 8, 16, 32]),
            "ram_mib": rng.choice([256, 1024, 4096, 16384, 65536]),
            "disk_gib": rng.choice([1, 10, 100, 480, 1000]),
            "labels": [l for l in labels_pool if rng.random() < 0.25],
        })
    links = []
    counter = 0
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):  # random spanning tree
        a, b = order[rng.randrange(i)], order[i]
        links.append({
            "id": f"e{counter:02d}",
            "a": f"n{a:02d}", "b": f"n{b:02d}",
            "bandwidth_mbps": rng.choice([0.5, 1, 2, 4, 10, 100]),
            "latency_ms": rng.choice([1, 2, 10, 40, 120, 400]),
            "jitter_ms": rng.choice([0, 1, 5, 20]),
        })
        counter += 1
    seen = {tuple(sorted((l["a"], l["b"]))) for l in links}
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randrange(n), rng.randrange(n)
        key = tuple(sorted((f"n{a:02d}", f"n{b:02d}")))
        if a == b or key in seen:
            continue
        seen.add(key)
        links.append({
            "id": f"e{counter:02d}", "a": key[0], "b": key[1],
            "bandwidth_mbps": rng.choice([0.5, 1, 2, 4, 10, 100]),
            "latency_ms": rng.choice([1, 2, 10, 40, 120, 400]),
            "jitter_ms": rng.choice([0, 1, 5, 20]),
        })
        counter += 1
    endpoints = []
    for j in range(rng.randint(0, 2)):
        endpoints.append({
            "id": f"ep{j}", "node": f"n{rng.randrange(n):02d}", "kind": "sensor",
        })
    topo_doc = {"nodes": nodes, "links": links, "endpoints": endpoints}

    requirements = []
    if rng.random() < 0.5:
        requirements.append({"compute": {
            "profile": rng.choice(["general_purpose", "compute_optimized",
                                   "memory_optimized", "storage_optimized"]),
            "vcpus": rng.choice([0, 1, 2, 4, 8]),
            "ram_mib": rng.choice([0, 256, 2048, 8192]),
            "disk_gib": rng.choice([0, 1, 50, 400]),
        }})
    if rng.random() < 0.3:
        # Regions are reference-checked at submission, so draw a present one.
        requirements.append({"location": {"region": rng.choice([n["region"] for n in nodes])}})
    if rng.random() < 0.25:
        requirements.append({"access": {"label": rng.choice(labels_pool)}})
    flows = []
    for endpoint in endpoints:
        if rng.random() < 0.5:
            flows.append({
                "from_endpoint" if rng.random() < 0.5 else "to_endpoint": endpoint["id"],
                "rate_mbps": rng.choice([0.2, 0.5, 1, 4, 8]),
            })
        if rng.random() < 0.4:
            requirements.append({"network": {
                "profile": rng.choice(["best_effort", "interactive_application",
                                       "signaling_and_video_streaming",
                                       "interactive_real_time_video"]),
                "endpoint": endpoint["id"],
            }})
    request_doc = {
        "component": {"name": "probe", "flows": flows},
        "requirements": requirements,
    }
    return topo_doc, request_doc


def test_criterion_5_scheduler_matches_brute_force_oracle():
    rng = random.Random(0x5EED)
    config = EngineConfig()
    instances = 0
    while instances < 1000:
        topo_doc, request_doc = random_instance(rng)
        expected = oracle_decide(topo_doc, request_doc, config)
        engine = Engine(load_topology(topo_doc), config=config)
        engine.submit(request_doc)
        (record,) = engine.process_pending()
        actual = (record.outcome, record.node_id)
        assert actual == expected, (topo_doc, request_doc, actual, expected)
        instances += 1
    assert instances >= 1000


# -- criterion 6: inventory conservation under randomized operations ------------------


def test_criterion_6_inventory_conservation_10k_ops():
    rng = random.Random(0xC0FFEE)
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    node_ids = [n.id for n in topo.hostable_nodes]
    link_ids = list(topo.links)
    booked = []  # (request id, booking) pairs still held
    ops = places = evictions = returns = 0

    def check():
        for node in topo.nodes.values():
            assert inv.allocated(node.id).fits_within(node.capacity)
        for lid, link in topo.links.items():
            assert 0 <= inv.reserved()[lid] <= link.bandwidth_mbps

    while ops < 10_000:
        op = rng.choice(["place", "place", "place", "evict", "return"])
        if op == "place":
            resources = ResourceVector(
                rng.choice([0, 0.25, 0.5, 1, 2, 4, 8]),
                rng.choice([0, 128, 512, 4096, 16384]),
                rng.choice([0, 1, 8, 64, 256]),
            )
            bookings = []
            if rng.random() < 0.6:
                bookings.append(BandwidthBooking(
                    path=tuple(rng.sample(link_ids, rng.randint(1, len(link_ids)))),
                    mbps=Fraction(rng.randint(1, 30), 10),
                ))
            before = inv.state_document()
            try:
                inv.place(Placement(
                    request_id=f"r{ops}", tenant="t", component=f"c{ops}",
                    node_id=rng.choice(node_ids), allocated=resources,
                ), bookings)
                booked.extend((f"r{ops}", b) for b in bookings)
                places += 1
            except InsufficientResources:
                assert inv.state_document() == before, "failed place mutated state"
        elif op == "evict":
            gone = set(inv.evict_placements_on(rng.choice(node_ids)))
            booked = [(r, b) for r, b in booked if r not in gone]
            evictions += bool(gone)
        elif op == "return" and booked:
            request_id, booking = booked.pop(rng.randrange(len(booked)))
            inv.release_placement_bandwidth(request_id, booking.path, booking.mbps)
            returns += 1
        check()
        ops += 1
    assert ops >= 10_000
    assert places >= 1 and evictions >= 1 and returns >= 1


# -- criterion 7: deterministic replay --------------------------------------------------


@pytest.mark.parametrize("name", ["usecase_a", "usecase_b", "usecase_c"])
def test_criterion_7_replay_is_byte_identical(name):
    first, _ = run_named(name)
    second, _ = run_named(name)
    assert first.outcome_stream() == second.outcome_stream()
    assert json.dumps(first.final_report, sort_keys=True) == \
        json.dumps(second.final_report, sort_keys=True)
    assert json.dumps(first.reports, sort_keys=True) == \
        json.dumps(second.reports, sort_keys=True)


# -- criterion 8: exact byte conservation under randomized fault schedules ---------------


def test_criterion_8_byte_conservation_random_faults():
    # Delivered bytes are derived (sourced - cached - lost), so conservation
    # holds by construction; each report is also compared, exactly, with the
    # step-by-step simulator the closed-form counters replaced.
    rng = random.Random(0xFA57)
    for _ in range(60):
        cache = rng.choice([0, 0, 1, 16, 1024])
        doc = reference_topology_doc()
        doc["nodes"][1]["cache_mib"] = cache
        engine = Engine(load_topology(doc), config=EngineConfig())
        engine.submit(camera_app_doc(svs=rng.random() < 0.5))
        engine.submit(store_app_doc())
        engine.process_pending()
        oracle = SteppedFlowSimulator(
            engine.topo, drain_multiplier=engine.config.drain_rate_multiplier,
            residuals_fn=engine.inventory.residuals,
        )
        for f in engine.flowsim.flows.values():
            oracle.activate_flow(PlannedFlow(
                flow_id=f.id, source=f.source, sink=f.sink, rate_mbps=f.rate_mbps,
                path=f.path, booked_mbps=f.booked_mbps, booking_owner=f.booking_owner,
            ))
        link_ids = list(engine.topo.links)
        for _step in range(rng.randint(4, 20)):
            roll = rng.random()
            if roll < 0.35:
                link, up = rng.choice(link_ids), rng.random() < 0.5
                changed = engine.topo.links[link].up != up
                engine.set_link_state(link, up)
                if changed:
                    oracle.on_link_state_changed(link)
            else:
                dt = Fraction(rng.randint(1, 900), 10)
                engine.advance(dt)
                oracle.advance(dt)
            report = engine.report()
            for flow in report.flows:
                assert flow.bytes_sourced == (
                    flow.bytes_delivered + flow.bytes_cached + flow.bytes_lost
                ), flow
                assert flow.bytes_cached >= 0, flow
            for node, held in report.caches.items():
                assert 0 <= held <= engine.flowsim.caches[node] * BYTES_PER_MBIT, node
            reserved = engine.inventory.reserved()
            assert report == oracle.report(reserved)


# -- criterion 9: persist/restore mid-scenario ---------------------------------------------


def test_criterion_9_mid_scenario_checkpoint_resume(tmp_path):
    script = scenario("usecase_c")
    uninterrupted = run_scenario(script, build_engine(script))
    assert uninterrupted.ok, uninterrupted.failures

    # Split mid-fault: the buffer is half full at the checkpoint.
    split = next(
        i for i, s in enumerate(script.steps)
        if s.__class__.__name__ == "AdvanceStep" and s.dt_s == 60
    ) + 1
    prefix = dataclasses.replace(script, steps=script.steps[:split])
    suffix = dataclasses.replace(script, steps=script.steps[split:])

    engine = build_engine(script)
    first_half = run_scenario(prefix, engine)
    assert first_half.ok, first_half.failures
    store = str(tmp_path / "checkpoint-test.bin")
    engine.save(store)
    resumed_engine = Engine.load(
        store, config=config_from_document(script.config, EngineConfig())
    )
    second_half = run_scenario(suffix, resumed_engine)
    assert second_half.ok, second_half.failures
    assert json.dumps(second_half.final_report, sort_keys=True) == \
        json.dumps(uninterrupted.final_report, sort_keys=True)
