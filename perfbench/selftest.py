"""Planted faults: each must be caught by the checks the workloads run.

A small mesh engine makes one covered placement, one rejection and one
advance. The real outputs must pass; each output with one planted fault
must not. A check that never fails proves nothing.
"""

from __future__ import annotations

import copy
import dataclasses
from fractions import Fraction

import checks
from foglet import Engine, load_topology


def _topology():
    k = 3
    nodes = [{"id": f"g{r}{c}", "tier": "edge_gateway", "vcpus": 2, "ram_mib": 2048,
              "disk_gib": 16, "region": f"n{r}{c}"} for r in range(k) for c in range(k)]
    links = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                links.append({"id": f"h{r}{c}", "a": f"g{r}{c}", "b": f"g{r}{c + 1}",
                              "bandwidth_mbps": 10, "latency_ms": 1})
            if r + 1 < k:
                links.append({"id": f"v{r}{c}", "a": f"g{r}{c}", "b": f"g{r + 1}{c}",
                              "bandwidth_mbps": 10, "latency_ms": 1})
    return {"nodes": nodes, "links": links,
            "endpoints": [{"id": "cam", "node": "g00", "kind": "camera"}]}


def _detector(region, label=None):
    reqs = [{"network": {"profile": "interactive_application", "endpoint": "cam"}},
            {"compute": {"vcpus": 0.5, "ram_mib": 256, "disk_gib": 1}},
            {"location": {"region": region}}]
    if label:
        reqs.append({"access": {"label": label}})
    return {"tenant": "t", "component": {
        "name": f"det-{region}-{label}", "flows": [{"from_endpoint": "cam", "rate_mbps": 3.0}]},
        "requirements": reqs}


def _decide(engine, doc):
    inv, flows = engine.inventory.state_document(), engine.flowsim.state_document()["flows"]
    engine.submit(doc)
    record = engine.process_pending()[0]
    return (record, inv, engine.inventory.state_document(),
            flows, engine.flowsim.state_document()["flows"])


def _longer_path(net, src, dst, hops):
    """Some simple path from src to dst with more than `hops` links."""
    stack = [(src, (), {src})]
    while stack:
        at, path, seen = stack.pop()
        if at == dst and len(path) > hops:
            return path
        for lid, nxt in net.adj[at]:
            if nxt not in seen:
                stack.append((nxt, path + (lid,), seen | {nxt}))
    raise AssertionError("no longer path")


def run():
    """Returns a list of planted faults the checks missed (empty when all
    were caught), or raises if the real outputs fail a check."""
    doc = _topology()
    net = checks.Net(doc)
    engine = Engine(load_topology(doc))
    missed = []

    def expect(name, problems):
        if not problems:
            missed.append(name)

    # A covered placement far from the camera, after a best-effort flow has
    # narrowed one side of the mesh so the widest path is unique.
    narrowing = {"tenant": "u", "component": {
        "name": "pull", "flows": [{"from_endpoint": "cam", "rate_mbps": 4.0}]},
        "requirements": [{"location": {"region": "n01"}}]}
    ledger = checks.Ledger(net)
    for d in (narrowing, _detector("n22")):
        record, before, after, flows, flows_after = _decide(engine, d)
        ledger_before = ledger.copy()
        problems, disagree = checks.decision_problems(
            net, ledger, d, record, before, after, flows, flows_after)
        if problems or disagree or record.outcome != "placed":
            raise AssertionError(f"clean decision failed its checks: {problems} {disagree}")
    [(fid, flow)] = [(f, v) for f, v in flows_after.items() if f not in flows]

    def placed_problems(record=record, before=before, after=after, flows_after=flows_after):
        return checks.decision_problems(net, ledger_before.copy(), d, record, before, after,
                                        flows, flows_after)

    detour = dict(flow, path=list(reversed(_longer_path(
        net, flow["sink"]["node"], flow["source"]["node"], len(flow["path"])))))
    expect("non-minimum-hop path", placed_problems(flows_after={**flows_after, fid: detour})[0])

    residual = checks.residuals(net, before)
    narrow = None
    for path in _min_hop_paths(net, flow["source"]["node"], flow["sink"]["node"]):
        if min(residual[l] for l in path) < min(residual[l] for l in flow["path"]):
            narrow = dict(flow, path=list(path))
    if narrow is None:
        raise AssertionError("self-test mesh has no narrower minimum-hop path")
    after_narrow = copy.deepcopy(after)
    for lid in flow["path"]:
        after_narrow["links"][lid]["reserved_mbps"] = str(
            Fraction(after_narrow["links"][lid]["reserved_mbps"]) - Fraction(flow["booked_mbps"]))
    for lid in narrow["path"]:
        after_narrow["links"][lid]["reserved_mbps"] = str(
            Fraction(after_narrow["links"][lid]["reserved_mbps"]) + Fraction(flow["booked_mbps"]))
    expect("covered path narrower than the widest minimum-hop path",
           placed_problems(after=after_narrow, flows_after={**flows_after, fid: narrow})[0])

    over = copy.deepcopy(after)
    lid = flow["path"][0]
    over["links"][lid]["reserved_mbps"] = str(Fraction(over["links"][lid]["capacity_mbps"]) + 1)
    expect("link booked over capacity", placed_problems(after=over)[0])

    flipped = copy.deepcopy(list(record.verdicts))
    flipped[0]["checks"][0]["passed"] = not flipped[0]["checks"][0]["passed"]
    expect("flipped compute verdict",
           placed_problems(record=dataclasses.replace(record, verdicts=tuple(flipped)))[1])

    # A rejection (no node carries the label) that must leave state alone.
    rej_doc = _detector("n11", label="none")
    record, before, after, flows, flows_after = _decide(engine, rej_doc)
    problems, _ = checks.decision_problems(net, ledger.copy(), rej_doc, record,
                                           before, after, flows, flows_after)
    if problems or record.outcome != "rejected":
        raise AssertionError(f"clean rejection failed its checks: {problems}")
    changed = copy.deepcopy(after)
    changed["next_reservation"] += 1
    expect("rejection that changed inventory state",
           checks.decision_problems(net, ledger.copy(), rej_doc, record, before, changed,
                                    flows, flows_after)[0])

    # Byte accounting over one advance with every link up.
    faults = checks.FaultModel(net)
    faults.start(engine.report())
    engine.advance(10)
    report = engine.report()
    flows = engine.flowsim.state_document()["flows"]
    baseline = dict(faults.lost)
    if faults.problems(report, flows, 10):
        raise AssertionError("clean advance failed its checks")
    moved = list(report.flows)
    moved[0] = dataclasses.replace(moved[0], bytes_delivered=moved[0].bytes_delivered - 1,
                                   bytes_lost=moved[0].bytes_lost + 1)
    faults.lost = baseline
    expect("one byte moved from delivered to lost",
           faults.problems(dataclasses.replace(report, flows=tuple(moved)), flows, 10))
    return missed


def _min_hop_paths(net, src, dst):
    dist = net.hops(src)
    out = []

    def walk(at, path):
        if at == dst:
            out.append(tuple(path))
            return
        for lid, nxt in net.adj[at]:
            if dist.get(nxt) == dist[at] + 1 and dist[nxt] <= dist[dst]:
                walk(nxt, path + [lid])

    walk(src, [])
    return out
