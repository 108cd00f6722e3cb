"""The infrastructure graph: nodes, links, endpoints, and path computation.

Nodes and links are fixed for the lifetime of a topology; the only mutable
bit is per-link up/down state, which the topology alone owns (the inventory
and the flow simulator read it here).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .model import ResourceVector, Tier, mbps, whole_number


class TopologyError(Exception):
    pass


@dataclass(frozen=True)
class Node:
    id: str
    tier: Tier
    capacity: ResourceVector
    region: str = ""
    labels: frozenset = frozenset()
    cache_mib: int = 0  # >0 enables fault-time caching of flows at this node


@dataclass
class Link:
    id: str
    a: str
    b: str
    bandwidth_mbps: Fraction
    latency_ms: Fraction
    jitter_ms: Fraction = Fraction(0)
    up: bool = True

    def other(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a

    def touches(self, node_id: str) -> bool:
        return node_id in (self.a, self.b)


@dataclass(frozen=True)
class Endpoint:
    """A data source/sink attached to a node; never hosts components."""

    id: str
    node: str
    kind: str = ""


# A path is an ordered tuple of link ids from source to destination.
Path = Tuple[str, ...]


@dataclass(frozen=True)
class PathMetrics:
    bottleneck_mbps: Optional[Fraction]  # None = unconstrained (empty path)
    total_latency_ms: Fraction
    total_jitter_ms: Fraction

    def bandwidth_at_least(self, needed: Fraction) -> bool:
        return self.bottleneck_mbps is None or self.bottleneck_mbps >= needed


class Unreachable(Exception):
    def __init__(self, a: str, b: str):
        super().__init__(f"no path over up links between {a!r} and {b!r}")
        self.a = a
        self.b = b


class Topology:
    def __init__(self, nodes: Iterable[Node], links: Iterable[Link],
                 endpoints: Iterable[Endpoint] = ()):
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self.endpoints: Dict[str, Endpoint] = {}
        # node -> (incident link, node at its other end)
        self._adjacency: Dict[str, List[Tuple[Link, str]]] = {}

        for n in nodes:
            if n.id in self.nodes:
                raise TopologyError(f"duplicate node id {n.id!r}")
            self.nodes[n.id] = n
            self._adjacency[n.id] = []
        for l in links:
            if l.id in self.links:
                raise TopologyError(f"duplicate link id {l.id!r}")
            for end in (l.a, l.b):
                if end not in self.nodes:
                    raise TopologyError(f"link {l.id!r} references missing node {end!r}")
            if l.a == l.b:
                raise TopologyError(f"link {l.id!r} is a self-loop")
            if l.bandwidth_mbps <= 0:
                raise TopologyError(f"link {l.id!r} must have positive bandwidth")
            if l.latency_ms < 0 or l.jitter_ms < 0:
                raise TopologyError(f"link {l.id!r} has negative latency or jitter")
            self.links[l.id] = l
            self._adjacency[l.a].append((l, l.b))
            self._adjacency[l.b].append((l, l.a))
        for e in endpoints:
            if e.id in self.endpoints:
                raise TopologyError(f"duplicate endpoint id {e.id!r}")
            if e.node not in self.nodes:
                raise TopologyError(f"endpoint {e.id!r} attached to missing node {e.node!r}")
            self.endpoints[e.id] = e

        for n in self.nodes.values():
            if n.tier is Tier.SWARM_OF_THINGS and not n.capacity.is_zero():
                raise TopologyError(
                    f"swarm-of-things node {n.id!r} cannot advertise capacity"
                )

        self._check_connected()

    def _check_connected(self) -> None:
        if len(self.nodes) <= 1:
            return
        start = next(iter(self.nodes))
        seen = {start}
        stack = [start]
        while stack:
            at = stack.pop()
            for _, nxt in self._adjacency[at]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise TopologyError(f"topology is disconnected; unreachable nodes: {missing}")

    @property
    def hostable_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.tier.hostable]

    @property
    def regions(self) -> set:
        return {n.region for n in self.nodes.values() if n.region}

    def endpoint_node(self, endpoint_id: str) -> str:
        return self.endpoints[endpoint_id].node

    def set_link_state(self, link_id: str, up: bool) -> bool:
        """Set a link's state; idempotent, True only when the state changed."""
        link = self.links.get(link_id)
        if link is None:
            raise TopologyError(f"unknown link {link_id!r}")
        if link.up == up:
            return False
        link.up = up
        return True

    def path_nodes(self, start: str, path: Path) -> List[str]:
        """Node sequence visited by `path`, beginning at `start`."""
        out = [start]
        at = start
        for lid in path:
            link = self.links[lid]
            if not link.touches(at):
                raise TopologyError(f"path link {lid!r} does not continue from {at!r}")
            at = link.other(at)
            out.append(at)
        return out

    def _hops_to(self, target: str, stop: Optional[str] = None) -> Dict[str, int]:
        """BFS hop counts to `target` over up links; with `stop`, only up to
        and including the layer that holds it."""
        dist = {target: 0}
        frontier = [target]
        while frontier and stop not in dist:
            nxt = []
            for at in frontier:
                hops = dist[at] + 1
                for link, other in self._adjacency[at]:
                    if link.up and other not in dist:
                        dist[other] = hops
                        nxt.append(other)
            frontier = nxt
        return dist

    def _widest_min_hop(self, source: str, target: str, dist: Mapping[str, int],
                        residual: Mapping[str, Fraction]) -> Path:
        """path_between(source, target) given `dist`, the hop counts to
        `target`, complete up to dist[source]. Costs the size of the min-hop
        sub-DAG between the two nodes."""
        # The sub-DAG, one layer per hop count from `source`: toward[u] lists
        # u's steps (link id, residual, next node) one hop closer to `target`.
        toward: Dict[str, list] = {}
        layers = [[source]]
        for _ in range(dist[source]):
            nxt: List[str] = []
            seen = set()
            for at in layers[-1]:
                closer = dist[at] - 1
                steps = toward[at] = []
                for link, other in self._adjacency[at]:
                    if link.up and dist.get(other) == closer:
                        steps.append((link.id, residual.get(link.id, link.bandwidth_mbps), other))
                        if other not in seen:
                            seen.add(other)
                            nxt.append(other)
            layers.append(nxt)
        # The tie-break reads link ids from the smaller-id end.
        if source < target:
            order = [at for layer in reversed(layers[:-1]) for at in layer]
            return _widest_walk(source, target, toward, order)
        back: Dict[str, list] = {at: [] for layer in layers[1:] for at in layer}
        for at, steps in toward.items():
            for lid, width, other in steps:
                back[other].append((lid, width, at))
        order = [at for layer in layers[1:] for at in layer]
        return tuple(reversed(_widest_walk(target, source, back, order)))

    def path_between(self, a: str, b: str, residual: Mapping[str, Fraction]) -> Path:
        """Deterministic routing: minimum hops, then maximum bottleneck residual
        bandwidth, then lexicographically smallest link-id sequence.

        The tie-break is evaluated in canonical node order (smaller id first)
        and reversed as needed, so path_between(a, b) is always the reverse of
        path_between(b, a) under the same residuals.
        """
        for node_id in (a, b):
            if node_id not in self.nodes:
                raise TopologyError(f"unknown node {node_id!r}")
        if a == b:
            return ()
        dist = self._hops_to(b, stop=a)
        if a not in dist:
            raise Unreachable(a, b)
        return self._widest_min_hop(a, b, dist, residual)

    def paths_to(self, target: str, sources: Iterable[str],
                 residual: Mapping[str, Fraction]) -> Dict[str, Optional[Path]]:
        """path_between(s, target, residual) for every source s, from one BFS
        out of `target`; None where s cannot reach it."""
        if target not in self.nodes:
            raise TopologyError(f"unknown node {target!r}")
        dist = self._hops_to(target)
        return {
            s: None if s not in dist
            else () if s == target
            else self._widest_min_hop(s, target, dist, residual)
            for s in sources
        }

    def path_metrics(self, path: Path, residual: Mapping[str, Fraction]) -> PathMetrics:
        """Aggregate metrics of a path: min residual bandwidth, summed latency/jitter."""
        if not path:
            return PathMetrics(None, Fraction(0), Fraction(0))
        links = [self.links[lid] for lid in path]
        return PathMetrics(
            bottleneck_mbps=min(
                residual.get(l.id, l.bandwidth_mbps) for l in links
            ),
            total_latency_ms=sum((l.latency_ms for l in links), Fraction(0)),
            total_jitter_ms=sum((l.jitter_ms for l in links), Fraction(0)),
        )


def _widest_walk(start: str, goal: str, steps: Mapping[str, list],
                 order: Sequence[str]) -> Path:
    """The widest path from `start` to `goal` in a DAG of equal-length paths,
    ties to the lexicographically smallest link-id sequence.

    `steps[u]` lists (link id, residual, next node) for u's links toward
    `goal`; `order` lists every node but `goal`, each after the nodes its
    steps lead to. A max-min pass gives each node the best bottleneck it can
    still reach `goal` with; the walk then takes, at each node, the smallest
    link id that keeps that best bottleneck of `start` reachable.
    """
    width: Dict[str, Optional[Fraction]] = {goal: None}  # None: unbounded
    for at in order:
        best = None
        for _, residual, nxt in steps[at]:
            rest = width[nxt]
            through = residual if rest is None or residual < rest else rest
            if best is None or through > best:
                best = through
        width[at] = best
    need = width[start]
    path = []
    at = start
    while at != goal:
        lid, at = min(
            (lid, nxt) for lid, residual, nxt in steps[at]
            if residual >= need and (width[nxt] is None or width[nxt] >= need)
        )
        path.append(lid)
    return tuple(path)


_TIER_ALIASES = {t.value: t for t in Tier}
_TIER_ALIASES.update({
    "Cloud": Tier.CLOUD,
    "EdgeCloudlet": Tier.EDGE_CLOUDLET,
    "EdgeGateway": Tier.EDGE_GATEWAY,
    "SwarmOfThings": Tier.SWARM_OF_THINGS,
})


def load_topology(doc: Mapping) -> Topology:
    """Build a topology from its document form.

    Expected shape: {nodes: [...], links: [...], endpoints: [...]}; see the
    shipped scenario files for the field inventory.
    """
    if not isinstance(doc, Mapping):
        raise TopologyError("topology document must be a mapping")
    nodes = []
    for nd in doc.get("nodes", []) or []:
        tier_name = nd.get("tier")
        tier = _TIER_ALIASES.get(tier_name)
        if tier is None:
            raise TopologyError(f"node {nd.get('id')!r}: unknown tier {tier_name!r}")
        try:
            capacity = ResourceVector(
                vcpus=float(nd.get("vcpus", 0)),
                ram_mib=whole_number(nd.get("ram_mib", 0), "ram_mib"),
                disk_gib=whole_number(nd.get("disk_gib", 0), "disk_gib"),
            )
            cache_mib = whole_number(nd.get("cache_mib", 0), "cache_mib")
        except ValueError as exc:
            raise TopologyError(f"node {nd.get('id')!r}: {exc}")
        nodes.append(Node(
            id=str(nd["id"]),
            tier=tier,
            capacity=capacity,
            region=str(nd.get("region", "")),
            labels=frozenset(nd.get("labels", []) or []),
            cache_mib=cache_mib,
        ))
    links = []
    for ld in doc.get("links", []) or []:
        links.append(Link(
            id=str(ld["id"]),
            a=str(ld["a"]),
            b=str(ld["b"]),
            bandwidth_mbps=mbps(ld["bandwidth_mbps"]),
            latency_ms=mbps(ld.get("latency_ms", 0)),
            jitter_ms=mbps(ld.get("jitter_ms", 0)),
        ))
    endpoints = []
    for ed in doc.get("endpoints", []) or []:
        endpoints.append(Endpoint(
            id=str(ed["id"]),
            node=str(ed["node"]),
            kind=str(ed.get("kind", "")),
        ))
    return Topology(nodes, links, endpoints)


def topology_to_document(topo: Topology) -> dict:
    """Serialize structure plus current link state (used by engine snapshots)."""
    return {
        "nodes": [
            {
                "id": n.id,
                "tier": n.tier.value,
                "vcpus": n.capacity.vcpus,
                "ram_mib": n.capacity.ram_mib,
                "disk_gib": n.capacity.disk_gib,
                "region": n.region,
                "labels": sorted(n.labels),
                "cache_mib": n.cache_mib,
            }
            for n in sorted(topo.nodes.values(), key=lambda n: n.id)
        ],
        "links": [
            {
                "id": l.id,
                "a": l.a,
                "b": l.b,
                "bandwidth_mbps": str(l.bandwidth_mbps),
                "latency_ms": str(l.latency_ms),
                "jitter_ms": str(l.jitter_ms),
                "up": l.up,
            }
            for l in sorted(topo.links.values(), key=lambda l: l.id)
        ],
        "endpoints": [
            {"id": e.id, "node": e.node, "kind": e.kind}
            for e in sorted(topo.endpoints.values(), key=lambda e: e.id)
        ],
    }


def topology_from_snapshot(doc: Mapping) -> Topology:
    """Rebuild a topology from topology_to_document output, link states included."""
    topo = load_topology(doc)
    for ld in doc.get("links", []) or []:
        if not ld.get("up", True):
            topo.links[str(ld["id"])].up = False
    return topo
