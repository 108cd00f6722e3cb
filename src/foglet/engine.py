"""Composition root: one engine instance owns the topology, inventory, flow
simulator, FCFS request queue, and decision history. The virtual clock is
the flow simulator's; the engine reads it and saves it.

Everything is driven by explicit calls (submit, process_pending, advance,
set_link_state), so a scenario is fully deterministic: no wall-clock time,
no background activity.

The decision history is saved as a journal, one JSON line per record in the
order the decisions were made. Records never change, so each is encoded
once, at the first save after it is made, and a loaded journal is decoded
only when `explain` or `request_status` first needs a record.
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
from .inventory import Inventory, StoreError, exact_reader, read_store, write_store
from .model import (
    DeploymentRequest,
    ReferenceError_,
    ValidationError,
    check_references,
    mbps,
    request_to_document,
    validate_request,
)
from .negotiator import Accepted
from .scheduler import PendingFlow
from .topology import (
    Topology,
    TopologyError,
    topology_from_document,
    topology_to_document,
)

ENGINE_STORE_VERSION = 4
DECIDED = frozenset({"placed", "rejected"})  # the statuses that have a record
# What a well-framed state file with a missing or mistyped key raises while
# it is read back; Engine.load reports each as a StoreError.
_MALFORMED = (
    KeyError, TypeError, ValueError, AttributeError, IndexError, ArithmeticError,
    ValidationError, TopologyError,
)

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

    @classmethod
    def from_dict(cls, d: Mapping) -> "DecisionRecord":
        return cls(
            request_id=d["request_id"],
            component=d["component"],
            outcome=d["outcome"],
            node_id=d["node_id"],
            reasons=tuple(tuple(r) for r in d["reasons"]),
            verdicts=tuple(d["verdicts"]),
            scores=tuple(d["scores"]),
            decided_at=mbps(d["decided_at"]),
        )


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
            residuals_fn=self.inventory.residuals,
        )

        self._queue: List[DeploymentRequest] = []
        self._statuses: Dict[str, str] = {}
        self._decisions: Dict[str, DecisionRecord] = {}
        # The journal holds the encoded lines of the records made before the
        # last save or load; records made since wait in _unjournaled. After a
        # load, the first _undecoded bytes of the journal are not in
        # _decisions yet.
        self._journal = bytearray()
        self._unjournaled: List[DecisionRecord] = []
        self._undecoded = 0
        self._placements_by_component: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._pending_flows: List[PendingFlow] = []
        self._next_request = 1
        self._next_flow = 1

    @property
    def clock_s(self) -> Fraction:
        return self.flowsim.clock_s

    # -- identifiers (sequential: replays must produce identical ids) -----------

    def _allocate_request_id(self) -> str:
        """The next sequential id that no request has taken yet."""
        while True:
            rid = f"req-{self._next_request:06d}"
            self._next_request += 1
            if rid not in self._statuses:
                return rid

    def _allocate_flow_id(self) -> str:
        fid = f"flow-{self._next_flow:06d}"
        self._next_flow += 1
        return fid

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
            self.inventory,
            self.topo,
            self.config,
            # Passed as they are: negotiation only reads them, and _deploy
            # replaces the pending list rather than changing it.
            pending_flows=self._pending_flows,
            placements_by_component=self._placements_by_component,
            allocate_flow_id=self._allocate_flow_id,
        )

    def _process_one(self, request: DeploymentRequest) -> DecisionRecord:
        outcome = self._negotiate(request)
        if isinstance(outcome, Accepted):
            decided, node_id, reasons = "placed", self._deploy(request, outcome), ()
        else:
            decided, node_id, reasons = "rejected", None, outcome.reasons
        record = DecisionRecord(
            request_id=request.id,
            component=request.component.name,
            outcome=decided,
            node_id=node_id,
            reasons=reasons,
            verdicts=tuple(v.to_dict() for v in outcome.verdicts),
            scores=tuple(s.to_dict() for s in outcome.scores),
            decided_at=self.clock_s,
        )
        if audit_log.isEnabledFor(logging.INFO):
            audit_log.info("%s", json.dumps({
                "request_id": record.request_id,
                "outcome": record.outcome,
                "candidate": record.node_id,
                "reasons": [list(r) for r in record.reasons],
                "timestamp": float(record.decided_at),
            }, sort_keys=True))
        self._statuses[request.id] = record.outcome
        self._decisions[request.id] = record
        self._unjournaled.append(record)
        return record

    def _deploy(self, request: DeploymentRequest, outcome: Accepted) -> str:
        """Place an accepted request and resolve its flows; returns its node."""
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
        return placement.node_id

    # -- time and faults -----------------------------------------------------------

    def advance(self, dt_s) -> None:
        dt = mbps(dt_s)
        if dt <= 0:
            raise EngineError("advance requires dt > 0")
        with self._lock:
            self.flowsim.advance(dt)

    def set_link_state(self, link_id: str, up: bool) -> None:
        with self._lock:
            if self.topo.set_link_state(link_id, up):
                self.flowsim.on_link_state_changed(link_id)

    # -- views -----------------------------------------------------------------------

    def report(self) -> MetricsReport:
        with self._lock:
            return self.flowsim.report(self.inventory.reserved())

    def request_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._statuses)

    def request_status(self, request_id: str) -> Optional[dict]:
        with self._lock:
            state = self._statuses.get(request_id)
            if state is None:
                return None
            out = {"request_id": request_id, "state": state}
            if state in DECIDED:
                record = self._decision(request_id)
                if record.outcome == "placed":
                    out["placement"] = {"node_id": record.node_id}
                else:
                    out["reasons"] = [list(r) for r in record.reasons]
            return out

    def explain(self, request_id: str) -> Optional[dict]:
        with self._lock:
            if self._statuses.get(request_id) not in DECIDED:
                return None
            return self._decision(request_id).to_dict()

    def _decision(self, request_id: str) -> DecisionRecord:
        """The record of a decided request, decoding a loaded journal first
        if it has not been decoded yet. Call with the lock held."""
        if self._undecoded:
            lines = self._journal[: self._undecoded].split(b"\n")[:-1]
            try:
                records = [DecisionRecord.from_dict(json.loads(line)) for line in lines]
            except (ValueError, KeyError, TypeError) as exc:
                raise StoreError(f"corrupt decision journal: {exc!r}") from exc
            self._decisions.update((r.request_id, r) for r in records)
            self._undecoded = 0
        record = self._decisions.get(request_id)
        if record is None:
            raise StoreError(f"decision journal has no record of {request_id!r}")
        return record

    def placements(self) -> List[dict]:
        """The running placements, by request id."""
        with self._lock:
            return [
                {
                    "request_id": p.request_id,
                    "tenant": p.tenant,
                    "component": p.component,
                    "node_id": p.node_id,
                    "state": "running",
                    "allocated": p.allocated.to_dict(),
                }
                for p in self.inventory.placements()
            ]

    def nodes(self) -> List[dict]:
        with self._lock:
            out = []
            for node in sorted(self.topo.nodes.values(), key=lambda n: n.id):
                out.append({
                    "id": node.id,
                    "tier": node.tier.value,
                    "region": node.region,
                    "labels": sorted(node.labels),
                    "capacity": node.capacity.to_dict(),
                    "allocated": self.inventory.allocated(node.id).to_dict(),
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
            }
            self._journal += b"".join(
                json.dumps(r.to_dict(), sort_keys=True).encode() + b"\n"
                for r in self._unjournaled
            )
            self._unjournaled.clear()
            write_store(path, [
                ("meta", meta),
                ("decisions", self._journal),
                ("topology", topology_to_document(self.topo)),
                ("inventory", self.inventory.state_document()),
                ("flowsim", self.flowsim.state_lines()),
            ])

    @classmethod
    def load(cls, path: str, config: Optional[EngineConfig] = None) -> "Engine":
        """Rebuild an engine from a state file. Raises StoreError for a file
        that is corrupt, of another version, or lacks or mistypes any key."""
        records = dict(read_store(path))
        for kind in ("meta", "decisions", "topology", "inventory", "flowsim"):
            if kind not in records:
                raise StoreError(f"state file is missing its {kind} section")
        try:
            return cls._from_sections(records, config)
        except _MALFORMED as exc:
            raise StoreError(f"malformed state file: {exc!r}") from exc

    @classmethod
    def _from_sections(cls, records: Mapping, config: Optional[EngineConfig]) -> "Engine":
        meta = records["meta"]
        version = meta.get("engine_version")
        if version != ENGINE_STORE_VERSION:
            raise StoreError(
                f"state file engine version {version!r} != supported {ENGINE_STORE_VERSION}"
            )
        journal = records["decisions"]
        decided = sum(state in DECIDED for state in meta["statuses"].values())
        if not isinstance(journal, bytes) or journal.count(b"\n") != decided \
                or journal[-1:] not in (b"", b"\n"):
            raise StoreError(
                f"decision journal does not hold one line for each of {decided} decided requests"
            )
        topo = topology_from_document(records["topology"])
        engine = cls(topo, config=config)
        engine.inventory.load_state_document(records["inventory"])
        engine.flowsim.load_state_lines(records["flowsim"])
        engine.flowsim.clock_s = exact_reader()(meta["clock_s"])
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
        engine._journal = bytearray(journal)
        engine._undecoded = len(journal)
        return engine


def _flow_spec_from_dict(doc: Mapping):
    from .model import _parse_flow

    return _parse_flow(doc, 0)
