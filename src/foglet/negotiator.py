"""Admission: test a request's feasibility against a state snapshot, choose
the best node and plan its flows when it fits, reject with per-node reasons
when it does not.

Negotiation only reads: the plan it accepts is placed by
`scheduler.schedule` in the same locked engine call, against the state the
snapshot was taken from. Requests are processed strictly in arrival order;
a request's transaction fully completes (placed or rejected) before the
next is examined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from . import scheduler
from .config import EngineConfig
from .inventory import InventoryView
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
    view: InventoryView,
    topo: Topology,
    config: EngineConfig,
    pending_flows: Sequence[PendingFlow],
    placements_by_component,
    allocate_flow_id,
) -> NegotiationOutcome:
    """Decide one request against `view`.

    An acceptance names the chosen node and the flows to activate there,
    with their bandwidth bookings; nothing is written until it is placed.
    """
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

    return Accepted(
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
