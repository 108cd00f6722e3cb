"""Admission: test a request's feasibility against a fresh state snapshot,
hold resources on the best node when it fits, reject with per-node reasons
when it does not.

Negotiation and placement share one filter/rank implementation so that an
accepted request is guaranteed schedulable: the held reservation is the
hand-off token between the two phases. Requests are processed strictly in
arrival order; a request's transaction fully completes (placed or rejected)
before the next is examined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

from . import scheduler
from .config import EngineConfig
from .inventory import BandwidthBooking, InsufficientResources, Inventory
from .model import DeploymentRequest
from .scheduler import (
    FilterVerdict,
    FlowAdmissionError,
    PendingFlow,
    PlannedFlow,
    ScoredNode,
)
from .topology import Topology


@dataclass(frozen=True)
class Accepted:
    reservation_id: str
    candidate_node: str
    planned_flows: Tuple[PlannedFlow, ...]
    deferred_flows: Tuple[PendingFlow, ...]
    verdicts: Tuple[FilterVerdict, ...]
    scores: Tuple[ScoredNode, ...]


@dataclass(frozen=True)
class Rejected:
    # One (node, failed-check, detail) entry per candidate node examined.
    reasons: Tuple[Tuple[str, str, str], ...]
    verdicts: Tuple[FilterVerdict, ...]
    scores: Tuple[ScoredNode, ...] = ()


NegotiationOutcome = Union[Accepted, Rejected]


def negotiate(
    request: DeploymentRequest,
    inventory: Inventory,
    topo: Topology,
    config: EngineConfig,
    pending_flows: Sequence[PendingFlow],
    placements_by_component,
    allocate_flow_id,
    now: Fraction,
) -> NegotiationOutcome:
    """Run the accept/reject transaction for one request.

    On acceptance a reservation is held on the winning node covering the
    request's compute footprint and the full traffic booking plan. Rejection
    leaves the inventory untouched.
    """
    view = inventory.snapshot()
    verdicts = tuple(scheduler.feasible_nodes(request, view, topo, config))
    passing = [v for v in verdicts if v.passed]
    if not passing:
        reasons = []
        for v in verdicts:
            failed = v.failures()
            detail = "; ".join(f"{c.name}: {c.detail}" for c in failed)
            reasons.append((v.node_id, failed[0].name, detail))
        return Rejected(reasons=tuple(reasons), verdicts=verdicts)

    scores = tuple(
        scheduler.priority(v.node_id, request, view, topo, config, v.path_metrics)
        for v in passing
    )
    chosen = scheduler.choose(scores)

    try:
        planned, deferred = scheduler.plan_flows(
            request, chosen, view, topo, config,
            placements_by_component, pending_flows, allocate_flow_id,
        )
    except FlowAdmissionError as exc:
        return Rejected(
            reasons=_reasons_after_choice(verdicts, chosen, "flow_admission", exc.detail),
            verdicts=verdicts,
            scores=scores,
        )

    bookings = [
        BandwidthBooking(path=p.path, mbps=p.booked_mbps)
        for p in planned
        if p.path and p.booked_mbps > 0
    ]
    try:
        reservation = inventory.hold(
            request_id=request.id,
            node_id=chosen,
            resources=scheduler.effective_footprint(request, config),
            network=bookings,
            now=now,
            ttl_s=config.reservation_ttl_s,
        )
    except InsufficientResources as exc:
        # Unreachable in the sequential pipeline (the plan was just checked
        # against the same snapshot), kept for contract completeness.
        return Rejected(
            reasons=_reasons_after_choice(verdicts, chosen, "hold", str(exc)),
            verdicts=verdicts,
            scores=scores,
        )
    return Accepted(
        reservation_id=reservation.id,
        candidate_node=chosen,
        planned_flows=tuple(planned),
        deferred_flows=tuple(deferred),
        verdicts=verdicts,
        scores=scores,
    )


def _reasons_after_choice(
    verdicts: Sequence[FilterVerdict], chosen: str, check: str, detail: str
) -> Tuple[Tuple[str, str, str], ...]:
    reasons = []
    for v in verdicts:
        if v.node_id == chosen:
            reasons.append((v.node_id, check, detail))
        elif v.passed:
            reasons.append((
                v.node_id, "not_attempted",
                f"feasible but outranked by {chosen}; requests deploy on the single chosen node",
            ))
        else:
            failed = v.failures()
            reasons.append((
                v.node_id, failed[0].name,
                "; ".join(f"{c.name}: {c.detail}" for c in failed),
            ))
    return tuple(reasons)
