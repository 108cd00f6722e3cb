"""Authoritative resource state: node allocations, reservations, link
bandwidth bookings, placements, and a durable snapshot file.

All mutations go through a single writer lock; reads take immutable
snapshots. The two-phase lifecycle is hold -> commit|release|expire: a held
reservation parks quantities in `reserved`, committing moves node resources
to `allocated` (link bandwidth stays booked under `reserved` for as long as
the placement lives).
"""

from __future__ import annotations

import enum
import json
import struct
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .model import Placement, PlacementState, ResourceVector, ZERO_RESOURCES, mbps
from .topology import Topology

STORE_MAGIC = b"FGST"
STORE_VERSION = 1


class InventoryError(Exception):
    pass


class InsufficientResources(InventoryError):
    """A hold that does not fit; carries where and by how much it missed."""

    def __init__(self, where: str, detail: str):
        self.where = where
        self.detail = detail
        super().__init__(f"{where}: {detail}")


class InvalidState(InventoryError):
    """Reservation state-machine violation (commit after expiry, double release, ...)."""


class StoreError(InventoryError):
    """Corrupt, truncated, or version-mismatched state file."""


class ReservationState(enum.Enum):
    HELD = "held"
    COMMITTED = "committed"
    RELEASED = "released"
    EXPIRED = "expired"


@dataclass(frozen=True)
class BandwidthBooking:
    """Bandwidth parked on every link of a path, owned by one reservation."""

    path: Tuple[str, ...]
    mbps: Fraction


@dataclass(frozen=True)
class Reservation:
    id: str
    request_id: str
    node_id: str
    resources: ResourceVector
    network: Tuple[BandwidthBooking, ...]
    created_at: Fraction
    ttl_s: Fraction
    state: ReservationState = ReservationState.HELD


@dataclass(frozen=True)
class NodeState:
    node_id: str
    capacity: ResourceVector
    allocated: ResourceVector = ZERO_RESOURCES
    reserved: ResourceVector = ZERO_RESOURCES

    @property
    def free(self) -> ResourceVector:
        return self.capacity - self.allocated - self.reserved


@dataclass(frozen=True)
class LinkState:
    """Bandwidth bookings on one link; its up/down state lives in the topology."""

    link_id: str
    capacity_mbps: Fraction
    reserved_mbps: Fraction = Fraction(0)

    @property
    def residual_mbps(self) -> Fraction:
        return self.capacity_mbps - self.reserved_mbps


@dataclass(frozen=True)
class InventoryView:
    """Immutable point-in-time state; safe to hand across threads."""

    nodes: Mapping[str, NodeState]
    links: Mapping[str, LinkState]
    reservations: Mapping[str, Reservation]
    placements: Mapping[str, Placement]
    down_links: FrozenSet[str] = frozenset()  # links down when the view was taken

    def residuals(self) -> Mapping[str, Fraction]:
        """Per-link unreserved bandwidth over up links (down links excluded).

        Built on first use and shared by every later call on this view; it is
        read-only, so a caller that books against it works on a copy.
        """
        return self._residuals

    @cached_property
    def _residuals(self) -> Mapping[str, Fraction]:
        return MappingProxyType({
            lid: ls.residual_mbps for lid, ls in self.links.items()
            if lid not in self.down_links
        })


class Inventory:
    """Single-writer resource store backed by a topology."""

    def __init__(self, topo: Topology):
        self._lock = threading.RLock()
        self._topo = topo
        self._nodes: Dict[str, NodeState] = {
            n.id: NodeState(node_id=n.id, capacity=n.capacity)
            for n in topo.nodes.values()
        }
        self._links: Dict[str, LinkState] = {
            l.id: LinkState(link_id=l.id, capacity_mbps=l.bandwidth_mbps)
            for l in topo.links.values()
        }
        self._reservations: Dict[str, Reservation] = {}
        self._placements: Dict[str, Placement] = {}
        self._next_reservation = 1

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> InventoryView:
        with self._lock:
            return InventoryView(
                nodes=dict(self._nodes),
                links=dict(self._links),
                reservations=dict(self._reservations),
                placements=dict(self._placements),
                down_links=frozenset(
                    lid for lid, link in self._topo.links.items() if not link.up
                ),
            )

    # -- two-phase reservation lifecycle --------------------------------------

    def hold(
        self,
        request_id: str,
        node_id: str,
        resources: ResourceVector,
        network: Sequence[BandwidthBooking] = (),
        *,
        now: Fraction = Fraction(0),
        ttl_s: Fraction = Fraction(30),
    ) -> Reservation:
        """Atomically reserve node resources plus path bandwidth, or change nothing.

        Raises InsufficientResources naming the node or link that fell short.
        """
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise InventoryError(f"unknown node {node_id!r}")
            short = resources.shortfalls(node.free)
            if short:
                dim, amount = next(iter(short.items()))
                raise InsufficientResources(
                    f"node {node_id}", f"{dim} shortfall {amount:g}"
                )
            per_link: Dict[str, Fraction] = {}
            for booking in network:
                for lid in booking.path:
                    per_link[lid] = per_link.get(lid, Fraction(0)) + booking.mbps
            for lid, needed in per_link.items():
                ls = self._links.get(lid)
                if ls is None:
                    raise InventoryError(f"unknown link {lid!r}")
                if not self._topo.links[lid].up:
                    raise InsufficientResources(f"link {lid}", "link is down")
                if ls.reserved_mbps + needed > ls.capacity_mbps:
                    shortfall = ls.reserved_mbps + needed - ls.capacity_mbps
                    raise InsufficientResources(
                        f"link {lid}", f"bandwidth shortfall {float(shortfall):g} Mbit/s"
                    )

            rid = f"rsv-{self._next_reservation:06d}"
            self._next_reservation += 1
            reservation = Reservation(
                id=rid,
                request_id=request_id,
                node_id=node_id,
                resources=resources,
                network=tuple(network),
                created_at=now,
                ttl_s=ttl_s,
            )
            self._nodes[node_id] = replace(node, reserved=node.reserved + resources)
            for lid, needed in per_link.items():
                ls = self._links[lid]
                self._links[lid] = replace(ls, reserved_mbps=ls.reserved_mbps + needed)
            self._reservations[rid] = reservation
            return reservation

    def _release_network(self, network: Iterable[BandwidthBooking]) -> None:
        per_link: Dict[str, Fraction] = {}
        for booking in network:
            for lid in booking.path:
                per_link[lid] = per_link.get(lid, Fraction(0)) + booking.mbps
        for lid, amount in per_link.items():
            ls = self._links[lid]
            self._links[lid] = replace(ls, reserved_mbps=ls.reserved_mbps - amount)

    def commit(self, reservation_id: str, placement: Placement) -> Placement:
        """Move a held reservation's node resources into allocated and record
        the placement. Link bandwidth stays booked for the placement's lifetime."""
        with self._lock:
            rsv = self._reservations.get(reservation_id)
            if rsv is None:
                raise InvalidState(f"unknown reservation {reservation_id!r}")
            if rsv.state is not ReservationState.HELD:
                raise InvalidState(
                    f"reservation {reservation_id} is {rsv.state.value}, not held"
                )
            node = self._nodes[rsv.node_id]
            self._nodes[rsv.node_id] = replace(
                node,
                reserved=node.reserved - rsv.resources,
                allocated=node.allocated + rsv.resources,
            )
            self._reservations[reservation_id] = replace(
                rsv, state=ReservationState.COMMITTED
            )
            self._placements[placement.request_id] = placement
            return placement

    def release(self, reservation_id: str) -> None:
        with self._lock:
            rsv = self._reservations.get(reservation_id)
            if rsv is None:
                raise InvalidState(f"unknown reservation {reservation_id!r}")
            if rsv.state is not ReservationState.HELD:
                raise InvalidState(
                    f"reservation {reservation_id} is {rsv.state.value}, not held"
                )
            node = self._nodes[rsv.node_id]
            self._nodes[rsv.node_id] = replace(node, reserved=node.reserved - rsv.resources)
            self._release_network(rsv.network)
            self._reservations[reservation_id] = replace(
                rsv, state=ReservationState.RELEASED
            )

    def expire_reservations(self, now: Fraction) -> List[str]:
        """Expire held reservations strictly past created_at + ttl; returns their ids."""
        expired = []
        with self._lock:
            for rid, rsv in list(self._reservations.items()):
                if rsv.state is not ReservationState.HELD:
                    continue
                if rsv.created_at + rsv.ttl_s < now:
                    node = self._nodes[rsv.node_id]
                    self._nodes[rsv.node_id] = replace(
                        node, reserved=node.reserved - rsv.resources
                    )
                    self._release_network(rsv.network)
                    self._reservations[rid] = replace(rsv, state=ReservationState.EXPIRED)
                    expired.append(rid)
        return expired

    # -- placement teardown ----------------------------------------------------

    def release_placement_bandwidth(self, request_id: str, path: Tuple[str, ...],
                                    amount: Fraction) -> None:
        """Return one booked path's bandwidth early (flow torn down before its
        placement is). The committed reservation keeps the remaining bookings."""
        with self._lock:
            self._release_network([BandwidthBooking(path=path, mbps=amount)])
            for rid, rsv in self._reservations.items():
                if rsv.request_id != request_id or rsv.state is not ReservationState.COMMITTED:
                    continue
                remaining = list(rsv.network)
                for i, b in enumerate(remaining):
                    if b.path == path and b.mbps == amount:
                        del remaining[i]
                        break
                else:
                    continue
                self._reservations[rid] = replace(rsv, network=tuple(remaining))
                return

    def evict_placements_on(self, node_id: str) -> List[str]:
        """Remove every placement on a node, freeing its allocations and any
        bandwidth booked under its committed reservations. Returns request ids."""
        with self._lock:
            if node_id not in self._nodes:
                raise InventoryError(f"unknown node {node_id!r}")
            evicted = []
            for req_id, placement in list(self._placements.items()):
                if placement.node_id != node_id or placement.state is PlacementState.EVICTED:
                    continue
                node = self._nodes[node_id]
                self._nodes[node_id] = replace(
                    node, allocated=node.allocated - placement.allocated
                )
                for rid, rsv in self._reservations.items():
                    if (rsv.request_id == req_id
                            and rsv.state is ReservationState.COMMITTED):
                        self._release_network(rsv.network)
                        self._reservations[rid] = replace(rsv, network=())
                self._placements[req_id] = placement.evicted()
                evicted.append(req_id)
            return evicted

    # -- persistence -----------------------------------------------------------

    def state_document(self) -> dict:
        with self._lock:
            return {
                "nodes": {
                    nid: {
                        "capacity": ns.capacity.to_dict(),
                        "allocated": ns.allocated.to_dict(),
                        "reserved": ns.reserved.to_dict(),
                    }
                    for nid, ns in sorted(self._nodes.items())
                },
                "links": {
                    lid: {
                        "capacity_mbps": str(ls.capacity_mbps),
                        "reserved_mbps": str(ls.reserved_mbps),
                        "up": self._topo.links[lid].up,
                    }
                    for lid, ls in sorted(self._links.items())
                },
                "reservations": {
                    rid: {
                        "request_id": r.request_id,
                        "node_id": r.node_id,
                        "resources": r.resources.to_dict(),
                        "network": [
                            {"path": list(b.path), "mbps": str(b.mbps)} for b in r.network
                        ],
                        "created_at": str(r.created_at),
                        "ttl_s": str(r.ttl_s),
                        "state": r.state.value,
                    }
                    for rid, r in sorted(self._reservations.items())
                },
                "placements": {
                    req_id: {
                        "tenant": p.tenant,
                        "component": p.component,
                        "node_id": p.node_id,
                        "allocated": p.allocated.to_dict(),
                        "state": p.state.value,
                    }
                    for req_id, p in sorted(self._placements.items())
                },
                "next_reservation": self._next_reservation,
            }

    def load_state_document(self, doc: Mapping) -> None:
        with self._lock:
            self._nodes = {
                nid: NodeState(
                    node_id=nid,
                    capacity=ResourceVector.from_dict(nd["capacity"]),
                    allocated=ResourceVector.from_dict(nd["allocated"]),
                    reserved=ResourceVector.from_dict(nd["reserved"]),
                )
                for nid, nd in doc["nodes"].items()
            }
            self._links = {
                lid: LinkState(
                    link_id=lid,
                    capacity_mbps=Fraction(ld["capacity_mbps"]),
                    reserved_mbps=Fraction(ld["reserved_mbps"]),
                )
                for lid, ld in doc["links"].items()
            }
            self._reservations = {
                rid: Reservation(
                    id=rid,
                    request_id=rd["request_id"],
                    node_id=rd["node_id"],
                    resources=ResourceVector.from_dict(rd["resources"]),
                    network=tuple(
                        BandwidthBooking(path=tuple(b["path"]), mbps=Fraction(b["mbps"]))
                        for b in rd["network"]
                    ),
                    created_at=Fraction(rd["created_at"]),
                    ttl_s=Fraction(rd["ttl_s"]),
                    state=ReservationState(rd["state"]),
                )
                for rid, rd in doc["reservations"].items()
            }
            self._placements = {
                req_id: Placement(
                    request_id=req_id,
                    tenant=pd["tenant"],
                    component=pd["component"],
                    node_id=pd["node_id"],
                    allocated=ResourceVector.from_dict(pd["allocated"]),
                    state=PlacementState(pd["state"]),
                )
                for req_id, pd in doc["placements"].items()
            }
            self._next_reservation = int(doc["next_reservation"])


# -- durable store file format -------------------------------------------------
# magic | u32 version | repeated records of u32 length + JSON payload. Readers
# validate the whole file before handing any state back, so a truncated or
# corrupt file never yields partial state.


def write_store(path: str, records: Sequence[Tuple[str, Mapping]]) -> None:
    blob = bytearray()
    blob += STORE_MAGIC
    blob += struct.pack(">I", STORE_VERSION)
    for kind, payload in records:
        body = json.dumps({"kind": kind, "data": payload}, sort_keys=True).encode()
        blob += struct.pack(">I", len(body))
        blob += body
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    import os

    os.replace(tmp, path)


def read_store(path: str) -> List[Tuple[str, dict]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(STORE_MAGIC) + 4 or blob[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise StoreError("not a state file (bad magic)")
    offset = len(STORE_MAGIC)
    (version,) = struct.unpack_from(">I", blob, offset)
    if version != STORE_VERSION:
        raise StoreError(f"state file version {version} != supported {STORE_VERSION}")
    offset += 4
    records = []
    while offset < len(blob):
        if offset + 4 > len(blob):
            raise StoreError("truncated record header")
        (length,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            raise StoreError("truncated record body")
        try:
            record = json.loads(blob[offset : offset + length])
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt record: {exc}") from exc
        if not isinstance(record, dict) or "kind" not in record or "data" not in record:
            raise StoreError("malformed record")
        records.append((record["kind"], record["data"]))
        offset += length
    return records
