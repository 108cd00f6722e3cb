"""Authoritative resource state: node allocations, link bandwidth bookings,
placements, and a durable snapshot file.

Writes take the single writer lock, and the three that change placements
are all-or-nothing: each checks everything first and raises without
changing anything, or applies all of its changes. `place` records a
placement, its node footprint and its bandwidth bookings in one step;
`release_placement_bandwidth` returns one booking early;
`evict_placements_on` frees a node. Reads take immutable snapshots.
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .model import Placement, PlacementState, ResourceVector, ZERO_RESOURCES
from .topology import Topology

STORE_MAGIC = b"FGST"
STORE_VERSION = 1


class InventoryError(Exception):
    pass


class InsufficientResources(InventoryError):
    """A placement that does not fit; carries where and by how much it missed."""

    def __init__(self, where: str, detail: str):
        self.where = where
        self.detail = detail
        super().__init__(f"{where}: {detail}")


class StoreError(InventoryError):
    """Corrupt, truncated, or version-mismatched state file."""


@dataclass(frozen=True)
class BandwidthBooking:
    """Bandwidth parked on every link of a path, owned by one reservation."""

    path: Tuple[str, ...]
    mbps: Fraction


@dataclass(frozen=True)
class Reservation:
    """The bandwidth bookings of one running placement, keyed by its request."""

    id: str
    request_id: str
    network: Tuple[BandwidthBooking, ...]


@dataclass(frozen=True)
class NodeState:
    node_id: str
    capacity: ResourceVector
    allocated: ResourceVector = ZERO_RESOURCES

    @property
    def free(self) -> ResourceVector:
        return self.capacity - self.allocated


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
        # request id -> bandwidth bookings of its running placement
        self._reservations: Dict[str, Reservation] = {}
        self._placements: Dict[str, Placement] = {}
        self._next_reservation = 1

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> InventoryView:
        with self._lock:
            return InventoryView(
                nodes=dict(self._nodes),
                links=dict(self._links),
                placements=dict(self._placements),
                down_links=frozenset(
                    lid for lid, link in self._topo.links.items() if not link.up
                ),
            )

    # -- writes ------------------------------------------------------------------

    def place(self, placement: Placement, network: Sequence[BandwidthBooking] = ()) -> None:
        """Allocate the placement's footprint on its node, book `network` and
        record both, or raise and change nothing.

        Raises InsufficientResources naming the node or link that fell short,
        and InventoryError for an unknown node or link or a request placed before.
        """
        with self._lock:
            if placement.request_id in self._placements:
                raise InventoryError(f"request {placement.request_id!r} is already placed")
            node = self._nodes.get(placement.node_id)
            if node is None:
                raise InventoryError(f"unknown node {placement.node_id!r}")
            short = placement.allocated.shortfalls(node.free)
            if short:
                dim, amount = next(iter(short.items()))
                raise InsufficientResources(
                    f"node {placement.node_id}", f"{dim} shortfall {amount:g}"
                )
            per_link = _per_link(network)
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

            self._nodes[node.node_id] = replace(
                node, allocated=node.allocated + placement.allocated
            )
            self._book(per_link, 1)
            self._placements[placement.request_id] = placement
            self._reservations[placement.request_id] = Reservation(
                id=f"rsv-{self._next_reservation:06d}",
                request_id=placement.request_id,
                network=tuple(network),
            )
            self._next_reservation += 1

    def _book(self, per_link: Mapping[str, Fraction], sign: int) -> None:
        for lid, amount in per_link.items():
            ls = self._links[lid]
            self._links[lid] = replace(ls, reserved_mbps=ls.reserved_mbps + sign * amount)

    def release_placement_bandwidth(self, request_id: str, path: Tuple[str, ...],
                                    amount: Fraction) -> None:
        """Return one booked path's bandwidth early (flow torn down before its
        placement is). The placement keeps its remaining bookings."""
        booking = BandwidthBooking(path=tuple(path), mbps=amount)
        with self._lock:
            rsv = self._reservations.get(request_id)
            if rsv is None or booking not in rsv.network:
                raise InventoryError(
                    f"request {request_id!r} books no {amount} Mbit/s on {list(path)}"
                )
            remaining = list(rsv.network)
            remaining.remove(booking)
            self._book(_per_link([booking]), -1)
            self._reservations[request_id] = replace(rsv, network=tuple(remaining))

    def evict_placements_on(self, node_id: str) -> List[str]:
        """Remove every running placement on a node, freeing its allocations
        and bandwidth bookings, or raise and change nothing. Returns request ids."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise InventoryError(f"unknown node {node_id!r}")
            victims = [
                p for p in self._placements.values()
                if p.node_id == node_id and p.state is PlacementState.RUNNING
            ]
            # Work out the new allocation first: a subtraction that raises
            # then leaves the inventory as it was.
            allocated = node.allocated
            for placement in victims:
                allocated = allocated - placement.allocated
            per_link = _per_link(
                b for p in victims for b in self._reservations[p.request_id].network
            )

            self._nodes[node_id] = replace(node, allocated=allocated)
            self._book(per_link, -1)
            for placement in victims:
                self._placements[placement.request_id] = placement.evicted()
                del self._reservations[placement.request_id]
            return [p.request_id for p in victims]

    # -- persistence -----------------------------------------------------------

    def state_document(self) -> dict:
        with self._lock:
            return {
                "nodes": {
                    nid: {
                        "capacity": ns.capacity.to_dict(),
                        "allocated": ns.allocated.to_dict(),
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
                    r.id: {
                        "request_id": r.request_id,
                        "network": [
                            {"path": list(b.path), "mbps": str(b.mbps)} for b in r.network
                        ],
                    }
                    for r in sorted(self._reservations.values(), key=lambda r: r.id)
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
        """Also loads older documents: keys no longer written are ignored."""
        with self._lock:
            self._nodes = {
                nid: NodeState(
                    node_id=nid,
                    capacity=ResourceVector.from_dict(nd["capacity"]),
                    allocated=ResourceVector.from_dict(nd["allocated"]),
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
                rd["request_id"]: Reservation(
                    id=rid,
                    request_id=rd["request_id"],
                    network=tuple(
                        BandwidthBooking(path=tuple(b["path"]), mbps=Fraction(b["mbps"]))
                        for b in rd["network"]
                    ),
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


def _per_link(network: Iterable[BandwidthBooking]) -> Dict[str, Fraction]:
    """Each link's total over the bookings whose paths cross it."""
    per_link: Dict[str, Fraction] = {}
    for booking in network:
        for lid in booking.path:
            per_link[lid] = per_link.get(lid, Fraction(0)) + booking.mbps
    return per_link


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
