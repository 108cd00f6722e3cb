"""Composition root: one engine instance owns the topology, inventory, flow
simulator, FCFS request queue, virtual clock, and decision history.

Everything is driven by explicit calls (submit, process_pending, advance,
set_link_state), so a scenario is fully deterministic: no wall-clock time,
no background activity.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import negotiator, scheduler
from .config import EngineConfig
from .flowsim import FlowSimulator, MetricsReport
from .inventory import Inventory, write_store, read_store, StoreError
from .model import (
    DeploymentRequest,
    ReferenceError_,
    ValidationError,
    check_references,
    mbps,
    request_to_document,
    validate_request,
)
from .negotiator import Accepted, Rejected
from .scheduler import PendingFlow
from .topology import Topology, topology_to_document, topology_from_snapshot

ENGINE_STORE_VERSION = 1

audit_log = logging.getLogger("foglet.audit")


@dataclass(frozen=True)
class DecisionRecord:
    """Everything `explain` needs about one request's transaction."""

    request_id: str
    component: str
    outcome: str  # placed | rejected
    node_id: Optional[str]
    reasons: Tuple[Tuple[str, str, str], ...]
    verdicts: Tuple[dict, ...]
    scores: Tuple[dict, ...]
    decided_at: Fraction

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "component": self.component,
            "outcome": self.outcome,
            "node_id": self.node_id,
            "reasons": [list(r) for r in self.reasons],
            # Records never change after they are made, so their dicts are shared.
            "verdicts": list(self.verdicts),
            "scores": list(self.scores),
            "decided_at": float(self.decided_at),
        }


class EngineError(Exception):
    pass


class Engine:
    def __init__(self, topo: Topology, config: Optional[EngineConfig] = None):
        self._lock = threading.RLock()
        self.topo = topo
        self.config = config or EngineConfig()
        self.inventory = Inventory(topo)
        self.flowsim = FlowSimulator(
            topo,
            drain_multiplier=self.config.drain_rate_multiplier,
            residuals_fn=self._link_residuals,
        )

        self.clock_s = Fraction(0)
        self._queue: List[DeploymentRequest] = []
        self._statuses: Dict[str, str] = {}
        self.decisions: Dict[str, DecisionRecord] = {}
        self._placements_by_component: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._pending_flows: List[PendingFlow] = []
        self._next_request = 1
        self._next_flow = 1

    # -- identifiers (sequential: replays must produce identical ids) -----------

    def _allocate_request_id(self) -> str:
        rid = f"req-{self._next_request:06d}"
        self._next_request += 1
        return rid

    def _allocate_flow_id(self) -> str:
        fid = f"flow-{self._next_flow:06d}"
        self._next_flow += 1
        return fid

    def _link_residuals(self) -> Mapping[str, Fraction]:
        return self.inventory.snapshot().residuals()

    # -- submission and the FCFS loop -------------------------------------------

    def submit(self, doc: Mapping) -> str:
        """Validate, resolve references, and enqueue. Raises ValidationError or
        ReferenceError_; a raising submit leaves no trace."""
        with self._lock:
            request = validate_request(doc, submitted_at=self.clock_s)
            check_references(
                request, self.topo.endpoints.keys(), self.topo.regions
            )
            if not request.id:
                request = replace(request, id=self._allocate_request_id())
            if request.id in self._statuses:
                raise ValidationError("id", f"duplicate request id {request.id!r}")
            self._queue.append(request)
            self._statuses[request.id] = "queued"
            return request.id

    def process_pending(self) -> List[DecisionRecord]:
        """Drain the queue strictly in arrival order: each request's transaction
        (negotiate, and on acceptance, placement) completes before the next
        request is examined. A request whose transaction raises is marked
        failed and the exception propagates; later requests stay queued."""
        with self._lock:
            records = []
            while self._queue:
                request = self._queue.pop(0)
                try:
                    records.append(self._process_one(request))
                except BaseException:
                    self._statuses[request.id] = "failed"
                    raise
            return records

    def _negotiate(self, request: DeploymentRequest):
        return negotiator.negotiate(
            request,
            self.inventory.snapshot(),
            self.topo,
            self.config,
            pending_flows=tuple(self._pending_flows),
            placements_by_component=dict(self._placements_by_component),
            allocate_flow_id=self._allocate_flow_id,
        )

    def _process_one(self, request: DeploymentRequest) -> DecisionRecord:
        outcome = self._negotiate(request)
        if isinstance(outcome, Accepted):
            record = self._deploy(request, outcome)
        else:
            record = self._reject(request, outcome)
        self.decisions[request.id] = record
        audit_log.info("%s", json.dumps({
            "request_id": record.request_id,
            "outcome": record.outcome,
            "candidate": record.node_id,
            "reasons": [list(r) for r in record.reasons],
            "timestamp": float(record.decided_at),
        }, sort_keys=True))
        return record

    def _deploy(self, request: DeploymentRequest, outcome: Accepted) -> DecisionRecord:
        placement = scheduler.schedule(
            request,
            outcome.candidate_node,
            outcome.planned_flows,
            self.inventory,
            self.flowsim,
            self.config,
        )
        self._placements_by_component[(request.tenant, request.component.name)] = (
            request.id,
            outcome.candidate_node,
        )
        # plan_flows resolved every pending spec aimed at this component.
        self._pending_flows = [
            w for w in self._pending_flows
            if not (w.tenant == request.tenant and w.spec.peer == request.component.name)
        ]
        self._pending_flows.extend(outcome.deferred_flows)
        self._statuses[request.id] = "placed"
        return DecisionRecord(
            request_id=request.id,
            component=request.component.name,
            outcome="placed",
            node_id=placement.node_id,
            reasons=(),
            verdicts=tuple(v.to_dict() for v in outcome.verdicts),
            scores=tuple(s.to_dict() for s in outcome.scores),
            decided_at=self.clock_s,
        )

    def _reject(self, request: DeploymentRequest, outcome: Rejected) -> DecisionRecord:
        self._statuses[request.id] = "rejected"
        return DecisionRecord(
            request_id=request.id,
            component=request.component.name,
            outcome="rejected",
            node_id=None,
            reasons=outcome.reasons,
            verdicts=tuple(v.to_dict() for v in outcome.verdicts),
            scores=tuple(s.to_dict() for s in outcome.scores),
            decided_at=self.clock_s,
        )

    # -- time and faults -----------------------------------------------------------

    def advance(self, dt_s) -> None:
        dt = mbps(dt_s)
        if dt <= 0:
            raise EngineError("advance requires dt > 0")
        with self._lock:
            self.clock_s += dt
            self.flowsim.advance(dt)

    def set_link_state(self, link_id: str, up: bool) -> None:
        with self._lock:
            if self.topo.set_link_state(link_id, up):
                self.flowsim.on_link_state_changed(link_id)

    def evict_node(self, node_id: str) -> List[str]:
        """Test/scenario plumbing: drop every placement on a node."""
        with self._lock:
            evicted = self.inventory.evict_placements_on(node_id)
            dead = self.flowsim.deactivate_flows_touching(evicted)
            for flow in dead:
                if flow.booking_owner in evicted:
                    continue  # inventory already freed that reservation's bookings
                if flow.path and flow.booked_mbps > 0:
                    self.inventory.release_placement_bandwidth(
                        flow.booking_owner, flow.path, flow.booked_mbps
                    )
            gone = set(evicted)
            self._placements_by_component = {
                k: v for k, v in self._placements_by_component.items() if v[0] not in gone
            }
            self._pending_flows = [
                w for w in self._pending_flows if w.owner_request not in gone
            ]
            return evicted

    # -- views -----------------------------------------------------------------------

    def report(self) -> MetricsReport:
        with self._lock:
            view = self.inventory.snapshot()
            reserved = {lid: ls.reserved_mbps for lid, ls in view.links.items()}
            return self.flowsim.report(reserved)

    def request_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._statuses)

    def request_status(self, request_id: str) -> Optional[dict]:
        with self._lock:
            state = self._statuses.get(request_id)
            if state is None:
                return None
            out = {"request_id": request_id, "state": state}
            record = self.decisions.get(request_id)
            if record is not None:
                if record.outcome == "placed":
                    out["placement"] = {"node_id": record.node_id}
                else:
                    out["reasons"] = [list(r) for r in record.reasons]
            return out

    def explain(self, request_id: str) -> Optional[dict]:
        with self._lock:
            record = self.decisions.get(request_id)
            return None if record is None else record.to_dict()

    def placements(self) -> List[dict]:
        with self._lock:
            view = self.inventory.snapshot()
            return [
                {
                    "request_id": p.request_id,
                    "tenant": p.tenant,
                    "component": p.component,
                    "node_id": p.node_id,
                    "state": p.state.value,
                    "allocated": p.allocated.to_dict(),
                }
                for p in sorted(view.placements.values(), key=lambda p: p.request_id)
            ]

    def nodes(self) -> List[dict]:
        with self._lock:
            view = self.inventory.snapshot()
            out = []
            for node in sorted(self.topo.nodes.values(), key=lambda n: n.id):
                state = view.nodes[node.id]
                out.append({
                    "id": node.id,
                    "tier": node.tier.value,
                    "region": node.region,
                    "labels": sorted(node.labels),
                    "capacity": state.capacity.to_dict(),
                    "allocated": state.allocated.to_dict(),
                })
            return out

    def placement_node(self, tenant: str, component: str) -> Optional[str]:
        with self._lock:
            hit = self._placements_by_component.get((tenant, component))
            return hit[1] if hit else None

    # -- persistence --------------------------------------------------------------------

    def save(self, path: str) -> None:
        with self._lock:
            meta = {
                "engine_version": ENGINE_STORE_VERSION,
                "clock_s": str(self.clock_s),
                "next_request": self._next_request,
                "next_flow": self._next_flow,
                "statuses": dict(self._statuses),
                "queue": [
                    {**request_to_document(r), "submitted_at": str(r.submitted_at)}
                    for r in self._queue
                ],
                "placements_by_component": {
                    f"{tenant}/{component}": list(v)
                    for (tenant, component), v in sorted(self._placements_by_component.items())
                },
                "pending_flows": [
                    {
                        "owner_request": w.owner_request,
                        "tenant": w.tenant,
                        "owner_component": w.owner_component,
                        "owner_node": w.owner_node,
                        "spec": w.spec.to_dict(),
                    }
                    for w in self._pending_flows
                ],
                "decisions": {
                    rid: record.to_dict() for rid, record in sorted(self.decisions.items())
                },
            }
            write_store(path, [
                ("meta", meta),
                ("topology", topology_to_document(self.topo)),
                ("inventory", self.inventory.state_document()),
                ("flowsim", self.flowsim.state_document()),
            ])

    @classmethod
    def load(cls, path: str, config: Optional[EngineConfig] = None) -> "Engine":
        records = dict(read_store(path))
        for kind in ("meta", "topology", "inventory", "flowsim"):
            if kind not in records:
                raise StoreError(f"state file is missing its {kind} section")
        meta = records["meta"]
        if meta.get("engine_version") != ENGINE_STORE_VERSION:
            raise StoreError("state file engine version mismatch")
        topo = topology_from_snapshot(records["topology"])
        engine = cls(topo, config=config)
        engine.inventory.load_state_document(records["inventory"])
        engine.flowsim.load_state_document(records["flowsim"])
        engine.clock_s = Fraction(meta["clock_s"])
        engine._next_request = int(meta["next_request"])
        engine._next_flow = int(meta["next_flow"])
        engine._statuses = dict(meta["statuses"])
        engine._queue = [
            validate_request(
                doc, request_id=doc["id"], submitted_at=Fraction(doc["submitted_at"])
            )
            for doc in meta["queue"]
        ]
        engine._placements_by_component = {
            tuple(key.split("/", 1)): tuple(value)
            for key, value in meta["placements_by_component"].items()
        }
        engine._pending_flows = [
            PendingFlow(
                owner_request=w["owner_request"],
                tenant=w["tenant"],
                owner_component=w["owner_component"],
                owner_node=w["owner_node"],
                spec=_flow_spec_from_dict(w["spec"]),
            )
            for w in meta["pending_flows"]
        ]
        engine.decisions = {
            rid: DecisionRecord(
                request_id=d["request_id"],
                component=d["component"],
                outcome=d["outcome"],
                node_id=d["node_id"],
                reasons=tuple(tuple(r) for r in d["reasons"]),
                verdicts=tuple(d["verdicts"]),
                scores=tuple(d["scores"]),
                decided_at=mbps(d["decided_at"]),
            )
            for rid, d in meta["decisions"].items()
        }
        return engine


def _flow_spec_from_dict(doc: Mapping):
    from .model import _parse_flow

    return _parse_flow(doc, 0)
