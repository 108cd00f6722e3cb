"""Independent checks of the engine's outputs.

Nothing here calls into foglet's routing, accounting or simulation code.
The checks read what the engine hands out (decision records,
`Inventory.state_document()`, `FlowSimulator.state_document()`,
`Engine.report()`) and compare it with the benchmark's own exact-rational
bookkeeping, its own breadth-first search and widest-path dynamic program,
and the fault semantics stated in the README. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

BYTES_PER_MBIT = Fraction(1_000_000, 8)
BYTES_PER_MIB = 2 ** 20
DEFAULT_FOOTPRINT = (Fraction(1, 2), 512, 1)  # EngineConfig's default, in document units


def exact(value) -> Fraction:
    """A document number as the exact decimal it was written as."""
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


class Net:
    """Static facts of a topology document, plus the link states the
    benchmark itself has set."""

    def __init__(self, doc):
        self.nodes = {n["id"]: n for n in doc["nodes"]}
        self.hostable = sorted(i for i, n in self.nodes.items()
                               if n["tier"] != "swarm_of_things")
        self.capacity = {
            i: (exact(n.get("vcpus", 0)), int(n.get("ram_mib", 0)), int(n.get("disk_gib", 0)))
            for i, n in self.nodes.items()
        }
        self.links = {l["id"]: (l["a"], l["b"], exact(l["bandwidth_mbps"])) for l in doc["links"]}
        self.adj = {i: [] for i in self.nodes}
        for lid, (a, b, _) in self.links.items():
            self.adj[a].append((lid, b))
            self.adj[b].append((lid, a))
        self.cache_bytes = {i: int(n["cache_mib"]) * BYTES_PER_MIB
                            for i, n in self.nodes.items() if n.get("cache_mib", 0) > 0}
        self.down = set()
        self._hops = {}

    def set_link(self, link_id, up):
        (self.down.discard if up else self.down.add)(link_id)
        self._hops.clear()

    def walk(self, start, path):
        """Nodes visited by `path` from `start`, or None if it breaks off."""
        nodes = [start]
        for lid in path:
            if lid not in self.links:
                return None
            a, b, _ = self.links[lid]
            if nodes[-1] == a:
                nodes.append(b)
            elif nodes[-1] == b:
                nodes.append(a)
            else:
                return None
        return nodes

    def hops(self, src):
        """Breadth-first hop counts from `src` over up links."""
        if src in self._hops:
            return self._hops[src]
        dist = self._hops[src] = {src: 0}
        queue = deque([src])
        while queue:
            at = queue.popleft()
            for lid, nxt in self.adj[at]:
                if lid not in self.down and nxt not in dist:
                    dist[nxt] = dist[at] + 1
                    queue.append(nxt)
        return dist

    def widest_min_hop(self, src, dst, residual):
        """Largest bottleneck over all minimum-hop up paths (max-min dynamic
        program over the BFS layers)."""
        dist = self.hops(src)
        best = {src: None}  # None: no link yet, unbounded
        layer = [src]
        while layer and dst not in best:
            nxt = {}
            for at in layer:
                for lid, node in self.adj[at]:
                    if lid in self.down or dist.get(node) != dist[at] + 1:
                        continue
                    width = residual[lid] if best[at] is None else min(best[at], residual[lid])
                    if node not in nxt or width > nxt[node]:
                        nxt[node] = width
            best.update(nxt)
            layer = list(nxt)
        return best.get(dst)


# -- admission ----------------------------------------------------------------


def footprint(doc):
    for r in doc.get("requirements", []):
        if "compute" in r:
            c = r["compute"]
            return exact(c.get("vcpus", 0)), int(c.get("ram_mib", 0)), int(c.get("disk_gib", 0))
    return DEFAULT_FOOTPRINT


def pins(doc):
    region, labels, endpoints = None, [], []
    for r in doc.get("requirements", []):
        if "location" in r:
            region = r["location"]["region"]
        elif "access" in r:
            labels.append(r["access"]["label"])
        elif "network" in r:
            endpoints.append(r["network"]["endpoint"])
    return region, labels, endpoints


class Ledger:
    """Exact per-node compute use, plus which components are placed and
    which component flows still wait for their peer."""

    def __init__(self, net):
        self.used = {n: (Fraction(0), 0, 0) for n in net.nodes}
        self.placed = {}   # (tenant, component) -> node
        self.pending = []  # (tenant, waiting for component)

    def copy(self):
        other = Ledger.__new__(Ledger)
        other.used = dict(self.used)
        other.placed = dict(self.placed)
        other.pending = list(self.pending)
        return other

    def fits(self, net, node, need):
        cap, used = net.capacity[node], self.used[node]
        return all(n <= c - u for n, c, u in zip(need, cap, used))

    def expected_flows(self, doc):
        """Flows that must start if `doc` is placed now, and the component
        flows it leaves waiting."""
        tenant = doc.get("tenant", "default")
        comp = doc["component"]
        start, wait = 0, []
        for f in comp.get("flows", []):
            if "from_endpoint" in f or "to_endpoint" in f:
                start += 1
            else:
                peer = f.get("to_component") or f.get("from_component")
                if (tenant, peer) in self.placed:
                    start += 1
                else:
                    wait.append((tenant, peer))
        start += sum(1 for w in self.pending if w == (tenant, comp["name"]))
        return start, wait

    def place(self, doc, node, wait):
        tenant = doc.get("tenant", "default")
        name = doc["component"]["name"]
        self.used[node] = tuple(u + n for u, n in zip(self.used[node], footprint(doc)))
        self.placed[(tenant, name)] = node
        self.pending = [w for w in self.pending if w != (tenant, name)] + wait


def residuals(net, inv_doc):
    return {lid: Fraction(l["capacity_mbps"]) - Fraction(l["reserved_mbps"])
            for lid, l in inv_doc["links"].items() if l["up"]}


def compute_disagreements(net, ledger, doc, record):
    """Nodes whose engine `compute` verdict differs from exact arithmetic."""
    need = footprint(doc)
    out = []
    for v in record.verdicts:
        verdict = next(c["passed"] for c in v["checks"] if c["name"] == "compute")
        if verdict != ledger.fits(net, v["node_id"], need):
            out.append(v["node_id"])
    return out


def flow_problems(net, flow, covered, residual_before=None):
    """Path and booking checks for one flow document."""
    src, dst = flow["source"]["node"], flow["sink"]["node"]
    path = tuple(flow["path"])
    where = f"flow {flow['source']['id']}->{flow['sink']['id']}"
    problems = []
    nodes = net.walk(src, path)
    if nodes is None or nodes[-1] != dst:
        return [f"{where}: path {path} does not run from {src} to {dst}"]
    if any(lid in net.down for lid in path):
        problems.append(f"{where}: path crosses a down link")
    want = net.hops(src).get(dst)
    if len(path) != want:
        problems.append(f"{where}: {len(path)} hops, BFS says {want}")
    rate, booked = Fraction(flow["rate_mbps"]), Fraction(flow["booked_mbps"])
    if not path:
        if booked != 0:
            problems.append(f"{where}: co-located flow books {booked}")
    elif covered:
        if booked != rate:
            problems.append(f"{where}: covered flow books {booked} of {rate}")
        if residual_before is not None:
            width = min(residual_before[lid] for lid in path)
            widest = net.widest_min_hop(src, dst, residual_before)
            if width != widest:
                problems.append(f"{where}: bottleneck {width} < widest min-hop {widest}")
    elif not 0 < booked <= rate:
        problems.append(f"{where}: best-effort flow books {booked} of {rate}")
    return problems


def link_problems(net, inv_doc, flows):
    """Each link's reserved bandwidth is the sum of its flows' bookings and
    within capacity."""
    booked = {lid: Fraction(0) for lid in net.links}
    for f in flows.values():
        amount = Fraction(f["booked_mbps"])
        for lid in f["path"]:
            booked[lid] += amount
    problems = []
    for lid, ls in inv_doc["links"].items():
        reserved = Fraction(ls["reserved_mbps"])
        if reserved != booked[lid]:
            problems.append(f"link {lid}: reserved {reserved} != booked {booked[lid]}")
        if reserved > net.links[lid][2]:
            problems.append(f"link {lid}: reserved {reserved} over capacity {net.links[lid][2]}")
    return problems


def is_covered(flow, request_id, endpoints):
    ends = (flow["source"], flow["sink"])
    return (any(e["kind"] == "endpoint" and e["id"] in endpoints for e in ends)
            and any(e["kind"] == "placement" and e["id"] == request_id for e in ends))


def decision_problems(net, ledger, doc, record, inv_before, inv_after,
                      flows_before, flows_after):
    """Checks of one admission decision. Returns (problems, disagreements);
    on a placement the ledger moves forward."""
    disagree = compute_disagreements(net, ledger, doc, record)
    problems = []
    if sorted(v["node_id"] for v in record.verdicts) != net.hostable:
        problems.append("verdicts do not cover every hostable node once")
    new = {fid: f for fid, f in flows_after.items() if fid not in flows_before}
    if record.outcome == "rejected":
        if inv_after != inv_before:
            problems.append("rejection changed the inventory state")
        if sorted(r[0] for r in record.reasons) != net.hostable:
            problems.append("rejection lacks a reason for every hostable node")
        if new or len(flows_after) != len(flows_before):
            problems.append("rejection changed the flows")
        return problems, disagree
    node = record.node_id
    region, labels, endpoints = pins(doc)
    if not ledger.fits(net, node, footprint(doc)):
        problems.append(f"placed on {node}, which lacks room under the exact ledger")
    if region is not None and net.nodes[node]["region"] != region:
        problems.append(f"placed on {node} outside region {region}")
    for label in labels:
        if label not in net.nodes[node].get("labels", []):
            problems.append(f"placed on {node} without label {label}")
    start, wait = ledger.expected_flows(doc)
    if len(new) != start:
        problems.append(f"placement started {len(new)} flows, expected {start}")
    residual_before = residuals(net, inv_before)
    for f in new.values():
        problems += flow_problems(net, f, is_covered(f, record.request_id, endpoints),
                                  residual_before)
    problems += link_problems(net, inv_after, flows_after)
    ledger.place(doc, node, wait)
    return problems, disagree


def population_problems(net, docs, records, inv_doc, flows):
    """Bulk checks of a set-up population: placements fit the exact ledger
    and their pins, flow paths are minimum-hop, links are booked exactly.
    Returns (problems, ledger)."""
    ledger = Ledger(net)
    problems = []
    for doc, record in zip(docs, records):
        if record.outcome != "placed":
            continue
        node = record.node_id
        region, labels, _ = pins(doc)
        if region is not None and net.nodes[node]["region"] != region:
            problems.append(f"{record.request_id} placed outside region {region}")
        if any(l not in net.nodes[node].get("labels", []) for l in labels):
            problems.append(f"{record.request_id} placed without its labels")
        _, wait = ledger.expected_flows(doc)
        ledger.place(doc, node, wait)
    for node, used in ledger.used.items():
        if not all(u <= c for u, c in zip(used, net.capacity[node])):
            problems.append(f"node {node} over capacity under the exact ledger")
    by_id = {r.request_id: d for d, r in zip(docs, records)}
    for f in flows.values():
        owner = by_id[f["booking_owner"]]
        problems += flow_problems(net, f, is_covered(f, f["booking_owner"], pins(owner)[2]))
    problems += link_problems(net, inv_doc, flows)
    return problems, ledger


def outcome_class(record) -> str:
    """'placed', or 'rejected:<check>': the check that failed first on most
    of the nodes the request's location and access pins allow."""
    if record.outcome == "placed":
        return "placed"
    if any(r[1] in ("flow_admission", "hold") for r in record.reasons):
        return "rejected:" + next(r[1] for r in record.reasons if r[1] in ("flow_admission", "hold"))
    failed = [[c["name"].split(":")[0] for c in v["checks"] if not c["passed"]]
              for v in record.verdicts]
    # Nodes the pins allow say why the request did not fit; when the pins
    # allow none, the pins themselves are the reason.
    allowed = [f for f in failed if not {"location", "access"} & set(f)] or failed
    firsts = Counter(f[0] for f in allowed)
    return "rejected:" + min(firsts, key=lambda k: (-firsts[k], k))


# -- faults and byte accounting ------------------------------------------------


class FaultModel:
    """Expected flow states and losses from the links the benchmark took down.

    A flow whose path crosses a down link caches at a cache node between its
    source and the break, or, with none there, stalls and loses everything it
    sends. Caches are sized so they never fill (a full cache shows up as an
    unexpected loss).
    """

    def __init__(self, net):
        self.net = net
        self.lost = {}

    def expected_state(self, flow):
        path = flow["path"]
        nodes = self.net.walk(flow["source"]["node"], path)
        for i, lid in enumerate(path):
            if lid in self.net.down:
                upstream = nodes[: i + 1]
                return "caching" if any(n in self.net.cache_bytes for n in upstream) else "stalled"
        return "active"

    def start(self, report):
        self.lost = {f.flow_id: f.bytes_lost for f in report.flows}

    def problems(self, report, flows, dt):
        """Check a report taken right after `advance(dt)`; the links stayed
        as they are now throughout that advance."""
        out = []
        horizon = report.horizon_s
        occupancy = Counter()
        for f in report.flows:
            doc = flows[f.flow_id]
            where = f"flow {f.flow_id}"
            if f.bytes_sourced != f.bytes_delivered + f.bytes_cached + f.bytes_lost:
                out.append(f"{where}: sourced != delivered + buffered + lost")
            if f.bytes_sourced != Fraction(doc["rate_mbps"]) * horizon * BYTES_PER_MBIT:
                out.append(f"{where}: sourced != rate x active time")
            state = self.expected_state(doc)
            want_loss = (Fraction(doc["rate_mbps"]) * Fraction(dt) * BYTES_PER_MBIT
                         if state == "stalled" else Fraction(0))
            if f.bytes_lost - self.lost.get(f.flow_id, Fraction(0)) != want_loss:
                out.append(f"{where}: lost {f.bytes_lost - self.lost.get(f.flow_id, 0)} "
                           f"bytes, expected {want_loss} ({state})")
            if f.state != state:
                out.append(f"{where}: state {f.state}, expected {state}")
            if doc["cache_node"] is not None:
                occupancy[doc["cache_node"]] += Fraction(doc["buffered_mbit"]) * BYTES_PER_MBIT
        for node, held in report.caches.items():
            if held != occupancy[node]:
                out.append(f"cache {node}: reports {held} bytes, flows hold {occupancy[node]}")
            if held > self.net.cache_bytes[node]:
                out.append(f"cache {node}: {held} bytes over capacity")
        offered = offered_per_link(self.net, flows)
        for l in report.links:
            if l.offered_mbps != offered[l.link_id]:
                out.append(f"link {l.link_id}: offered {l.offered_mbps} != {offered[l.link_id]}")
        self.start(report)
        return out


def offered_per_link(net, flows):
    """Load each link carries, summed from the flow states: live flows load
    their whole path (plus their drain rate while a buffer empties), caching
    flows load only the links from their source up to their cache node."""
    offered = {lid: Fraction(0) for lid in net.links}
    for f in flows.values():
        rate = Fraction(f["rate_mbps"])
        path = f["path"]
        if f["state"] == "active":
            if Fraction(f["buffered_mbit"]) > 0:
                rate += Fraction(f["drain_rate_mbps"])
            links = path
        elif f["state"] == "caching":
            nodes = net.walk(f["source"]["node"], path)
            links = path[: nodes.index(f["cache_node"])]
        else:
            links = ()
        for lid in links:
            offered[lid] += rate
    return offered


def drained_problems(report):
    return [f"flow {f.flow_id}: {f.bytes_cached} bytes still buffered"
            for f in report.flows if f.bytes_cached != 0]
