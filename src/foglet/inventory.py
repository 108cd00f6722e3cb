"""Authoritative resource state: node allocations, link bandwidth bookings,
running placements, and the durable state file format.

Capacities and link up/down state belong to the topology: the inventory
reads them from it and saves only what it allocates and books. It keeps
three running maps, each node's allocation and each link's reserved and
residual bandwidth; `_book` is the only writer of the two link maps.

The inventory has no lock of its own: the engine serializes every call
under its lock, and readers read the live maps in place. The three writes
that change placements are all-or-nothing: each checks everything first
and raises without changing anything, or applies all of its changes.
`place` records a placement, its node footprint and its bandwidth bookings
in one step; `release_placement_bandwidth` returns one booking early;
`evict_placements_on` frees a node and deletes its placements. The engine
calls only `place`, so its placements last as long as it does; the other
two are kept for the inventory's conservation property (acceptance
criterion 6).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .model import Placement, ResourceVector, ZERO_RESOURCES
from .topology import Topology

STORE_MAGIC = b"FGST"
STORE_VERSION = 2


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


def exact_reader() -> Callable[[object], Fraction]:
    """A reader for the exact number strings of one load: each distinct
    string is parsed once (`Fraction(str)` is slow), and anything that is
    not such a string raises StoreError."""
    seen: Dict[str, Fraction] = {}

    def read(text) -> Fraction:
        if type(text) is not str:
            raise StoreError(f"not an exact number string: {text!r}")
        value = seen.get(text)
        if value is None:
            try:
                value = seen[text] = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise StoreError(f"not an exact number: {text!r}") from exc
        return value

    return read


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


class Inventory:
    """Resource store backed by a topology; the engine serializes access."""

    def __init__(self, topo: Topology):
        self._topo = topo
        self._allocated: Dict[str, ResourceVector] = {
            nid: ZERO_RESOURCES for nid in topo.nodes
        }
        self._reserved: Dict[str, Fraction] = {lid: Fraction(0) for lid in topo.links}
        self._residual: Dict[str, Fraction] = {
            lid: link.bandwidth_mbps for lid, link in topo.links.items()
        }
        # request id -> bandwidth bookings of its running placement
        self._reservations: Dict[str, Reservation] = {}
        self._placements: Dict[str, Placement] = {}
        self._next_reservation = 1

    # -- reads ---------------------------------------------------------------

    def allocated(self, node_id: str) -> ResourceVector:
        return self._allocated[node_id]

    def free(self, node_id: str) -> ResourceVector:
        return self._topo.nodes[node_id].capacity - self._allocated[node_id]

    def reserved(self) -> Mapping[str, Fraction]:
        """Per-link booked bandwidth: a live, read-only view."""
        return MappingProxyType(self._reserved)

    def residuals(self) -> Mapping[str, Fraction]:
        """Per-link unbooked bandwidth, capacity − reserved, over every link,
        up or down: a live, read-only view. Routing reads only up links; a
        caller that books against it works on a copy."""
        return MappingProxyType(self._residual)

    def placements(self) -> List[Placement]:
        """The running placements, by request id."""
        return sorted(self._placements.values(), key=lambda p: p.request_id)

    # -- writes ------------------------------------------------------------------

    def place(self, placement: Placement, network: Sequence[BandwidthBooking] = ()) -> None:
        """Allocate the placement's footprint on its node, book `network` and
        record both, or raise and change nothing.

        Raises InsufficientResources naming the node or link that fell short,
        and InventoryError for an unknown node or link or a request that already
        has a running placement.
        """
        if placement.request_id in self._placements:
            raise InventoryError(f"request {placement.request_id!r} is already placed")
        node_id = placement.node_id
        if node_id not in self._allocated:
            raise InventoryError(f"unknown node {node_id!r}")
        short = placement.allocated.shortfalls(self.free(node_id))
        if short:
            dim, amount = next(iter(short.items()))
            raise InsufficientResources(f"node {node_id}", f"{dim} shortfall {amount:g}")
        per_link = _per_link(network)
        for lid, needed in per_link.items():
            residual = self._residual.get(lid)
            if residual is None:
                raise InventoryError(f"unknown link {lid!r}")
            if not self._topo.links[lid].up:
                raise InsufficientResources(f"link {lid}", "link is down")
            if needed > residual:
                raise InsufficientResources(
                    f"link {lid}", f"bandwidth shortfall {float(needed - residual):g} Mbit/s"
                )

        self._allocated[node_id] = self._allocated[node_id] + placement.allocated
        self._book(per_link, 1)
        self._placements[placement.request_id] = placement
        self._reservations[placement.request_id] = Reservation(
            id=f"rsv-{self._next_reservation:06d}",
            request_id=placement.request_id,
            network=tuple(network),
        )
        self._next_reservation += 1

    def _book(self, per_link: Mapping[str, Fraction], sign: int) -> None:
        links = self._topo.links
        for lid, amount in per_link.items():
            reserved = self._reserved[lid] = self._reserved[lid] + sign * amount
            self._residual[lid] = links[lid].bandwidth_mbps - reserved

    def release_placement_bandwidth(self, request_id: str, path: Tuple[str, ...],
                                    amount: Fraction) -> None:
        """Return one booked path's bandwidth before its placement goes.
        The placement keeps its remaining bookings."""
        booking = BandwidthBooking(path=tuple(path), mbps=amount)
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
        if node_id not in self._allocated:
            raise InventoryError(f"unknown node {node_id!r}")
        victims = [p for p in self._placements.values() if p.node_id == node_id]
        # Work out the new allocation first: a subtraction that raises
        # then leaves the inventory as it was.
        allocated = self._allocated[node_id]
        for placement in victims:
            allocated = allocated - placement.allocated
        per_link = _per_link(
            b for p in victims for b in self._reservations[p.request_id].network
        )

        self._allocated[node_id] = allocated
        self._book(per_link, -1)
        for placement in victims:
            del self._placements[placement.request_id]
            del self._reservations[placement.request_id]
        return [p.request_id for p in victims]

    # -- persistence -----------------------------------------------------------

    def state_document(self) -> dict:
        """Allocations, bookings and running placements. Each link also shows
        the topology's capacity and up state for readers; loading reads back
        only what the inventory owns."""
        links = self._topo.links
        return {
            "nodes": {
                nid: {"allocated": allocated.to_dict()}
                for nid, allocated in sorted(self._allocated.items())
            },
            "links": {
                lid: {
                    "capacity_mbps": str(links[lid].bandwidth_mbps),
                    "reserved_mbps": str(reserved),
                    "up": links[lid].up,
                }
                for lid, reserved in sorted(self._reserved.items())
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
                }
                for req_id, p in sorted(self._placements.items())
            },
            "next_reservation": self._next_reservation,
        }

    def load_state_document(self, doc: Mapping) -> None:
        """Load allocations and bookings onto the topology's nodes and links.
        Also loads older documents: keys no longer read are ignored."""
        nodes, links = doc["nodes"], doc["links"]
        read = exact_reader()
        self._allocated = {
            nid: ResourceVector.from_dict(nodes[nid]["allocated"]) for nid in self._topo.nodes
        }
        self._reserved = {lid: read(links[lid]["reserved_mbps"]) for lid in self._topo.links}
        self._residual = {
            lid: link.bandwidth_mbps - self._reserved[lid]
            for lid, link in self._topo.links.items()
        }
        self._reservations = {
            rd["request_id"]: Reservation(
                id=rid,
                request_id=rd["request_id"],
                network=tuple(
                    BandwidthBooking(path=tuple(b["path"]), mbps=read(b["mbps"]))
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
# magic | u32 version | repeated sections of u8 encoding | u8 name length |
# u32 body length | name | body. A JSON section's body is its mapping as JSON;
# a raw section's body is bytes the store does not interpret. Readers validate
# the framing of the whole file before handing any state back, so a truncated
# or corrupt file never yields partial state.

_SECTION = struct.Struct(">cBI")
_JSON, _RAW = b"J", b"R"


def write_store(path: str, sections: Sequence[Tuple[str, Union[Mapping, bytes]]]) -> None:
    """Write `(name, payload)` sections; a `bytes` or `bytearray` payload is
    written as it is, and reads back as `bytes`."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(STORE_MAGIC + struct.pack(">I", STORE_VERSION))
        for name, payload in sections:
            raw = isinstance(payload, (bytes, bytearray))
            body = payload if raw else json.dumps(payload, sort_keys=True).encode()
            key = name.encode()
            fh.write(_SECTION.pack(_RAW if raw else _JSON, len(key), len(body)))
            fh.write(key)
            fh.write(body)
    os.replace(tmp, path)


def read_store(path: str) -> List[Tuple[str, Union[dict, bytes]]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(STORE_MAGIC) + 4 or blob[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise StoreError("not a state file (bad magic)")
    offset = len(STORE_MAGIC)
    (version,) = struct.unpack_from(">I", blob, offset)
    if version != STORE_VERSION:
        raise StoreError(f"state file version {version} != supported {STORE_VERSION}")
    offset += 4
    sections = []
    while offset < len(blob):
        if offset + _SECTION.size > len(blob):
            raise StoreError("truncated section header")
        encoding, key_len, length = _SECTION.unpack_from(blob, offset)
        offset += _SECTION.size
        end = offset + key_len + length
        if end > len(blob):
            raise StoreError("truncated section body")
        if encoding not in (_JSON, _RAW):
            raise StoreError(f"unknown section encoding {encoding!r}")
        try:
            name = blob[offset : offset + key_len].decode()
            body = blob[offset + key_len : end]
            sections.append((name, json.loads(body) if encoding == _JSON else body))
        except ValueError as exc:  # a JSON or UTF-8 decoding error
            raise StoreError(f"corrupt section: {exc}") from exc
        offset = end
    return sections
