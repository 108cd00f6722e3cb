"""Placement pipeline: filter nodes against all requirements, rank the
survivors, choose the best, then deploy by placing the component and its
bandwidth bookings in the inventory and activating its traffic flows.

Bandwidth accounting distinguishes two classes of traffic:

* flows covered by a network requirement toward the same endpoint are
  admission-controlled up front: the filter only passes nodes whose path can
  carry the full declared rate on top of the profile threshold, and the full
  rate is booked.
* uncovered flows (component-to-component traffic, or endpoint traffic with
  no stated requirement) are best effort: they never influence which node is
  chosen, and at the chosen node they book whatever the path has left,
  capped at their rate. A path with zero residual cannot carry new traffic
  at all, which fails the request rather than falling back to a lower-ranked
  node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

from .config import EngineConfig
from .inventory import BandwidthBooking, Inventory
from .model import (
    ApplicationComponent,
    ComputeProfile,
    DeploymentRequest,
    FlowPeer,
    FlowSpec,
    NetworkRequirement,
    Placement,
    ResourceVector,
)
from .topology import Path, PathMetrics, Topology, Unreachable

_PROFILE_WEIGHTS = {
    ComputeProfile.GENERAL_PURPOSE: (1 / 3, 1 / 3, 1 / 3),
    ComputeProfile.COMPUTE_OPTIMIZED: (0.6, 0.2, 0.2),
    ComputeProfile.MEMORY_OPTIMIZED: (0.2, 0.6, 0.2),
    ComputeProfile.STORAGE_OPTIMIZED: (0.2, 0.2, 0.6),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class FilterVerdict:
    node_id: str
    passed: bool
    checks: Tuple[CheckResult, ...]
    # Metrics of the path toward each network requirement's endpoint, in
    # request order (None: unreachable); priority() scores from these.
    path_metrics: Tuple[Optional[PathMetrics], ...] = ()

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class ScoredNode:
    node_id: str
    score: float
    subscores: Mapping[str, float]

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "score": self.score,
            "subscores": dict(self.subscores),
        }


@dataclass(frozen=True)
class FlowEnd:
    """One end of a flow: either a topology endpoint or a placed component."""

    kind: str  # "endpoint" | "placement"
    id: str    # endpoint id, or request id of the placement
    node: str
    component: str = ""  # set for placement ends


@dataclass(frozen=True)
class PlannedFlow:
    """A flow ready to activate: resolved ends, routed path, booked bandwidth."""

    flow_id: str
    source: FlowEnd
    sink: FlowEnd
    rate_mbps: Fraction
    path: Path
    booked_mbps: Fraction
    booking_owner: str  # request id whose reservation carries the booking


@dataclass(frozen=True)
class PendingFlow:
    """A component-peered flow whose peer has not been placed yet."""

    owner_request: str
    tenant: str
    owner_component: str
    owner_node: str
    spec: FlowSpec


class FlowAdmissionError(Exception):
    """The chosen node cannot carry one of the component's flows."""

    def __init__(self, node_id: str, detail: str):
        self.node_id = node_id
        self.detail = detail
        super().__init__(f"{node_id}: {detail}")


def effective_footprint(request: DeploymentRequest, config: EngineConfig) -> ResourceVector:
    compute = request.compute
    return compute.request if compute is not None else config.default_footprint


def _covered_rate(component: ApplicationComponent, endpoint_id: str) -> Fraction:
    return sum(
        (f.rate_mbps for f in component.flows_with_endpoint(endpoint_id)), Fraction(0)
    )


def _requirement_metrics(
    node_ids: Sequence[str], request: DeploymentRequest, inventory: Inventory, topo: Topology
) -> Mapping[str, Tuple[Optional[PathMetrics], ...]]:
    """For each node, the metrics of its path toward each network requirement's
    endpoint, in request order (None: unreachable); one BFS per endpoint."""
    residuals = inventory.residuals() if request.network_requirements else {}
    routes = [
        topo.paths_to(topo.endpoint_node(req.endpoint), node_ids, residuals)
        for req in request.network_requirements
    ]
    return {
        node_id: tuple(
            None if paths[node_id] is None else topo.path_metrics(paths[node_id], residuals)
            for paths in routes
        )
        for node_id in node_ids
    }


def _network_check(
    req: NetworkRequirement,
    metrics: Optional[PathMetrics],
    request: DeploymentRequest,
    config: EngineConfig,
) -> CheckResult:
    name = f"network:{req.endpoint}"
    if metrics is None:
        return CheckResult(name, False, "endpoint unreachable over up links")
    thresholds = config.threshold_for(req.profile)
    problems = []
    if thresholds.min_bandwidth_mbps is not None and not metrics.bandwidth_at_least(
        thresholds.min_bandwidth_mbps
    ):
        problems.append(
            f"bottleneck {float(metrics.bottleneck_mbps):g} < "
            f"min {float(thresholds.min_bandwidth_mbps):g} Mbit/s"
        )
    if (
        thresholds.max_latency_ms is not None
        and metrics.total_latency_ms > thresholds.max_latency_ms
    ):
        problems.append(
            f"latency {float(metrics.total_latency_ms):g} > "
            f"max {float(thresholds.max_latency_ms):g} ms"
        )
    if (
        thresholds.max_jitter_ms is not None
        and metrics.total_jitter_ms > thresholds.max_jitter_ms
    ):
        problems.append(
            f"jitter {float(metrics.total_jitter_ms):g} > "
            f"max {float(thresholds.max_jitter_ms):g} ms"
        )
    covered = _covered_rate(request.component, req.endpoint)
    if covered > 0 and not metrics.bandwidth_at_least(covered):
        problems.append(
            f"declared {float(covered):g} Mbit/s toward {req.endpoint} not reservable "
            f"(bottleneck {float(metrics.bottleneck_mbps):g})"
        )
    if problems:
        return CheckResult(name, False, "; ".join(problems))
    bw = "inf" if metrics.bottleneck_mbps is None else f"{float(metrics.bottleneck_mbps):g}"
    return CheckResult(
        name, True,
        f"bottleneck {bw} Mbit/s, latency {float(metrics.total_latency_ms):g} ms",
    )


def feasible_nodes(
    request: DeploymentRequest,
    inventory: Inventory,
    topo: Topology,
    config: EngineConfig,
) -> List[FilterVerdict]:
    """One verdict per hostable node, every check evaluated (no short-circuit)."""
    footprint = effective_footprint(request, config)
    nodes = sorted(topo.hostable_nodes, key=lambda n: n.id)
    routed = _requirement_metrics([n.id for n in nodes], request, inventory, topo)
    verdicts = []
    for node in nodes:
        checks: List[CheckResult] = []
        short = footprint.shortfalls(inventory.free(node.id))
        if short:
            detail = ", ".join(f"{dim} shortfall {amount:g}" for dim, amount in short.items())
            checks.append(CheckResult("compute", False, detail))
        else:
            checks.append(CheckResult("compute", True, "fits"))
        location = request.location
        if location is not None:
            ok = node.region == location.region
            checks.append(CheckResult(
                "location", ok,
                f"node region {node.region!r} vs required {location.region!r}",
            ))
        for label in request.access_labels:
            ok = label in node.labels
            checks.append(CheckResult(
                f"access:{label}", ok, "label present" if ok else "label missing"
            ))
        metrics = routed[node.id]
        for req, req_metrics in zip(request.network_requirements, metrics):
            checks.append(_network_check(req, req_metrics, request, config))
        verdicts.append(FilterVerdict(
            node_id=node.id,
            passed=all(c.passed for c in checks),
            checks=tuple(checks),
            path_metrics=metrics,
        ))
    return verdicts


def priority(
    node_id: str,
    request: DeploymentRequest,
    inventory: Inventory,
    topo: Topology,
    config: EngineConfig,
    path_metrics: Sequence[Optional[PathMetrics]],
) -> ScoredNode:
    """Score a filter-passing node in [0, 1].

    capacity_fit: profile-weighted mean of post-placement free-capacity
    fractions; network_slack: mean headroom over the request's bandwidth
    floors; tier_preference: configured per-tier constant. `path_metrics` is
    the node's FilterVerdict.path_metrics.
    """
    node = topo.nodes[node_id]
    free = inventory.free(node_id)
    footprint = effective_footprint(request, config)
    compute = request.compute
    profile = compute.profile if compute is not None else ComputeProfile.GENERAL_PURPOSE
    weights = _PROFILE_WEIGHTS[profile]

    free_after = free - footprint if footprint.fits_within(free) else None

    def fraction(free_amount, total) -> float:
        if total <= 0:
            return 0.0
        return max(0.0, min(1.0, free_amount / total))

    if free_after is None:
        capacity_fit = 0.0
    else:
        cap = node.capacity
        fractions = (
            fraction(free_after.vcpus, cap.vcpus),
            fraction(free_after.ram_mib, cap.ram_mib),
            fraction(free_after.disk_gib, cap.disk_gib),
        )
        capacity_fit = sum(w * f for w, f in zip(weights, fractions))

    slack_terms = []
    for req, metrics in zip(request.network_requirements, path_metrics):
        thresholds = config.threshold_for(req.profile)
        if thresholds.min_bandwidth_mbps is None or thresholds.min_bandwidth_mbps == 0:
            slack_terms.append(1.0)
        elif metrics is None:
            slack_terms.append(0.0)
        elif metrics.bottleneck_mbps is None:
            slack_terms.append(1.0)
        else:
            slack_terms.append(
                min(1.0, float(metrics.bottleneck_mbps / (2 * thresholds.min_bandwidth_mbps)))
            )
    network_slack = sum(slack_terms) / len(slack_terms) if slack_terms else 1.0

    tier_preference = config.tier_preference.get(node.tier, 0.0)
    w = config.weights
    score = (
        w.capacity_fit * capacity_fit
        + w.network_slack * network_slack
        + w.tier_preference * tier_preference
    )
    return ScoredNode(
        node_id=node_id,
        score=score,
        subscores={
            "capacity_fit": capacity_fit,
            "network_slack": network_slack,
            "tier_preference": tier_preference,
        },
    )


def choose(scored: Sequence[ScoredNode]) -> str:
    """Highest score wins; ties go to the lexicographically smallest node id."""
    if not scored:
        raise ValueError("choose() requires a non-empty candidate list")
    return min(scored, key=lambda s: (-s.score, s.node_id)).node_id


def schedule(
    request: DeploymentRequest,
    node_id: str,
    planned_flows: Sequence[PlannedFlow],
    inventory,
    flowsim,
    config: EngineConfig,
):
    """Deploy step, the only inventory write of a decision: place the
    component with its flows' bandwidth bookings, then bring the flows up
    along their booked paths.
    """
    placement = Placement(
        request_id=request.id,
        tenant=request.tenant,
        component=request.component.name,
        node_id=node_id,
        allocated=effective_footprint(request, config),
    )
    inventory.place(placement, [
        BandwidthBooking(path=p.path, mbps=p.booked_mbps)
        for p in planned_flows
        if p.path and p.booked_mbps > 0
    ])
    for plan in planned_flows:
        flowsim.activate_flow(plan)
    return placement


def plan_flows(
    request: DeploymentRequest,
    node_id: str,
    inventory: Inventory,
    topo: Topology,
    config: EngineConfig,
    placements_by_component: Mapping[Tuple[str, str], "tuple[str, str]"],
    pending: Sequence[PendingFlow],
    allocate_flow_id,
) -> Tuple[List[PlannedFlow], List[PendingFlow]]:
    """Resolve and route every flow that activates if `request` lands on `node_id`.

    Returns (planned flows, component-peered specs to defer). Bookings are
    simulated against a working copy of the residuals so that several flows
    sharing a link are admitted jointly. Raises FlowAdmissionError when an
    uncovered flow meets a saturated or severed path.
    """
    residuals = dict(inventory.residuals())
    covered_endpoints = {r.endpoint for r in request.network_requirements}
    planned: List[PlannedFlow] = []
    deferred: List[PendingFlow] = []

    def book(path: Path, amount: Fraction) -> None:
        for lid in path:
            residuals[lid] -= amount

    def route(a: str, b: str, label: str) -> Path:
        try:
            return topo.path_between(a, b, residuals)
        except Unreachable:
            raise FlowAdmissionError(node_id, f"{label}: no up path between {a} and {b}")

    def ends_for(spec: FlowSpec, owner_end: FlowEnd, peer_end: FlowEnd):
        return (peer_end, owner_end) if spec.inbound else (owner_end, peer_end)

    def oriented(path: Path, spec: FlowSpec) -> Path:
        # Paths are computed owner-to-peer; flow paths run source-to-sink.
        return tuple(reversed(path)) if spec.inbound else path

    def best_effort(spec: FlowSpec, owner_end: FlowEnd, peer_end: FlowEnd, label: str) -> None:
        """Route owner-to-peer, book what the path has left up to the rate,
        and plan the flow; only an exhausted path rejects."""
        path = route(owner_end.node, peer_end.node, label)
        if path and spec.rate_mbps:
            bottleneck = min(residuals[lid] for lid in path)
            if bottleneck <= 0:
                raise FlowAdmissionError(
                    node_id,
                    f"{label}: path bandwidth exhausted (needs {float(spec.rate_mbps):g} Mbit/s)",
                )
            booked = min(spec.rate_mbps, bottleneck)
            book(path, booked)
        else:
            booked = Fraction(0)
        source, sink = ends_for(spec, owner_end, peer_end)
        planned.append(PlannedFlow(
            flow_id=allocate_flow_id(), source=source, sink=sink,
            rate_mbps=spec.rate_mbps, path=oriented(path, spec), booked_mbps=booked,
            booking_owner=request.id,
        ))

    here = FlowEnd(kind="placement", id=request.id, node=node_id,
                   component=request.component.name)

    # Requirement-covered endpoint traffic: full-rate bookings along the
    # requirement's path, one booking per endpoint.
    for req in request.network_requirements:
        flows = request.component.flows_with_endpoint(req.endpoint)
        if not flows:
            continue
        attach = topo.endpoint_node(req.endpoint)
        path = route(node_id, attach, f"endpoint {req.endpoint}")
        total = sum((f.rate_mbps for f in flows), Fraction(0))
        if path and total > 0:
            bottleneck = min(residuals[lid] for lid in path)
            if bottleneck < total:
                raise FlowAdmissionError(
                    node_id,
                    f"endpoint {req.endpoint}: declared {float(total):g} Mbit/s exceeds "
                    f"residual {float(bottleneck):g}",
                )
            book(path, total)
        for spec in flows:
            peer = FlowEnd(kind="endpoint", id=spec.peer, node=attach)
            source, sink = ends_for(spec, here, peer)
            planned.append(PlannedFlow(
                flow_id=allocate_flow_id(),
                source=source,
                sink=sink,
                rate_mbps=spec.rate_mbps,
                path=oriented(path, spec),
                booked_mbps=spec.rate_mbps if path else Fraction(0),
                booking_owner=request.id,
            ))

    # Best-effort traffic: uncovered endpoint flows, component flows with an
    # already-placed peer, and earlier components' flows waiting on us.
    for spec in request.component.flows:
        if spec.peer_kind is FlowPeer.ENDPOINT:
            if spec.peer in covered_endpoints:
                continue
            peer = FlowEnd(kind="endpoint", id=spec.peer, node=topo.endpoint_node(spec.peer))
            best_effort(spec, here, peer, f"flow to endpoint {spec.peer}")
        else:
            key = (request.tenant, spec.peer)
            target = placements_by_component.get(key)
            if target is None:
                deferred.append(PendingFlow(
                    owner_request=request.id,
                    tenant=request.tenant,
                    owner_component=request.component.name,
                    owner_node=node_id,
                    spec=spec,
                ))
                continue
            peer_request, peer_node = target
            peer = FlowEnd(kind="placement", id=peer_request, node=peer_node,
                           component=spec.peer)
            best_effort(spec, here, peer, f"flow to component {spec.peer}")

    for waiting in pending:
        if waiting.tenant != request.tenant:
            continue
        if waiting.spec.peer != request.component.name:
            continue
        owner_end = FlowEnd(kind="placement", id=waiting.owner_request,
                            node=waiting.owner_node, component=waiting.owner_component)
        best_effort(waiting.spec, owner_end, here, f"deferred flow from {waiting.owner_component}")

    return planned, deferred
