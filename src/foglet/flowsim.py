"""Constant-rate flow simulation with link-fault caching and drain-on-restore.

The model is fluid: each flow moves rate * dt megabits per advance step, with
no packets, queueing, or congestion (admission control keeps reserved load
within link capacity; unreserved best-effort load may oversubscribe a link,
which shows up as utilization > 1 in reports rather than as loss).

All counters are exact rationals in megabits, so every conservation
identity holds with zero tolerance and replays are bit-identical.

Fault semantics: when a link on a flow's path goes down, the flow caches at
the nearest cache-capable node upstream of the break if one exists (data
keeps accruing in that node's buffer), otherwise it stalls and its data is
lost. On restore, buffered data drains at a configured multiple of the flow
rate, capped by the path's residual bandwidth, concurrently with live
traffic.

Accounting costs what changed, not the number of flows:

- Closed-form counters. A flow's rate never changes, so between events its
  counters are linear in the clock: sourced = rate * (clock - started_s),
  a stalled flow's loss grows at its rate from `stalled_s`, and delivered
  = sourced - buffered - lost. `advance` steps only the flows whose
  arithmetic depends on step boundaries: caching flows, which share their
  cache's free space per step, and live flows draining a buffer.
- Offered load per group. Flows that load the same links, (path, number of
  leading links loaded), form a group: a live flow loads its whole path, a
  caching flow the links up to its cache, a stalled flow none. A link event
  only reassigns states and notes each flow it touched, with its state
  before; group moves, stepping and the stall clock catch up at the next
  advance, report, save or teardown. A report re-sums only the groups whose
  members changed and applies the difference to their links.
- Flows saved as lines. The state file holds one compact JSON line per
  flow, in id order. A flow keeps its encoded line until its record
  changes, so a save encodes only the flows touched since the last one.
"""

from __future__ import annotations

import enum
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .inventory import StoreError, exact_reader
from .scheduler import FlowEnd, PlannedFlow
from .topology import Path, Topology, TopologyError

BYTES_PER_MBIT = Fraction(1_000_000, 8)
MBIT_PER_MIB = Fraction(8 * 2**20, 1_000_000)
ZERO = Fraction(0)

_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODE = json.JSONDecoder().decode


class FlowState(enum.Enum):
    ACTIVE = "active"
    CACHING = "caching"
    STALLED = "stalled"


@dataclass
class Flow:
    id: str
    source: FlowEnd
    sink: FlowEnd
    rate_mbps: Fraction
    path: Path  # source-to-sink link order
    booked_mbps: Fraction
    booking_owner: str
    started_s: Fraction  # the clock when the flow was activated
    state: FlowState = FlowState.ACTIVE
    cache_node: Optional[str] = None  # set while CACHING, and while a buffer is parked
    drain_rate_mbps: Fraction = ZERO  # >0 while a restored flow drains
    buffered_mbit: Fraction = ZERO
    lost_mbit: Fraction = ZERO  # while STALLED: the loss up to stalled_s
    stalled_s: Fraction = ZERO  # the clock when the flow last stalled
    buffered_peak_mbit: Fraction = ZERO
    # Derived from the fields above and never saved.
    rate_bytes: Optional[Fraction] = field(default=None, repr=False, compare=False)
    source_label: str = field(init=False, repr=False, compare=False)
    sink_label: str = field(init=False, repr=False, compare=False)
    line: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    group: Optional["_Group"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rate_bytes is None:
            self.rate_bytes = self.rate_mbps * BYTES_PER_MBIT
        self.source_label = _end_label(self.source)
        self.sink_label = _end_label(self.sink)

    def record(self) -> dict:
        return {
            "id": self.id,
            "source": vars(self.source),
            "sink": vars(self.sink),
            "rate_mbps": str(self.rate_mbps),
            "path": list(self.path),
            "booked_mbps": str(self.booked_mbps),
            "booking_owner": self.booking_owner,
            "state": self.state.value,
            "cache_node": self.cache_node,
            "drain_rate_mbps": str(self.drain_rate_mbps),
            "started_s": str(self.started_s),
            "buffered_mbit": str(self.buffered_mbit),
            "lost_mbit": str(self.lost_mbit),
            "stalled_s": str(self.stalled_s),
            "buffered_peak_mbit": str(self.buffered_peak_mbit),
        }

    def encode(self) -> bytes:
        return (_ENCODER.encode(self.record()) + "\n").encode()


_flow_id = operator.attrgetter("id")


def _end_label(end: FlowEnd) -> str:
    return f"{end.kind}:{end.component or end.id}@{end.node}"


class _Group:
    """The flows that load the same links, and the load last applied to them."""

    __slots__ = ("key", "links", "members", "applied")

    def __init__(self, key: Tuple[Path, int]):
        self.key = key
        self.links = key[0][: key[1]]
        self.members: Dict[str, Flow] = {}
        self.applied = ZERO


def _load(flow: Flow) -> Fraction:
    """Megabits per second a grouped (live or caching) flow puts on its links."""
    if flow.state is FlowState.ACTIVE and flow.buffered_mbit > 0:
        return flow.rate_mbps + flow.drain_rate_mbps
    return flow.rate_mbps


def _steps(flow: Flow) -> bool:
    """Whether `advance` has to step the flow rather than extrapolate it."""
    if flow.state is FlowState.CACHING:
        return True
    return flow.state is FlowState.ACTIVE and bool(flow.buffered_mbit and flow.drain_rate_mbps)


@dataclass(frozen=True)
class LinkReport:
    link_id: str
    capacity_mbps: Fraction
    reserved_mbps: Fraction
    offered_mbps: Fraction
    up: bool

    @property
    def utilization(self) -> Fraction:
        return self.offered_mbps / self.capacity_mbps

    def to_dict(self) -> dict:
        return {
            "link_id": self.link_id,
            "capacity_mbps": float(self.capacity_mbps),
            "reserved_mbps": float(self.reserved_mbps),
            "offered_mbps": float(self.offered_mbps),
            "utilization": float(self.utilization),
            "up": self.up,
        }


@dataclass(frozen=True)
class FlowReport:
    flow_id: str
    source: str
    sink: str
    rate_mbps: Fraction
    state: str
    bytes_sourced: Fraction
    bytes_delivered: Fraction
    bytes_cached: Fraction
    bytes_lost: Fraction
    bytes_cached_peak: Fraction

    def to_dict(self) -> dict:
        return {
            "flow_id": self.flow_id,
            "source": self.source,
            "sink": self.sink,
            "rate_mbps": float(self.rate_mbps),
            "state": self.state,
            "bytes_sourced": float(self.bytes_sourced),
            "bytes_delivered": float(self.bytes_delivered),
            "bytes_cached": float(self.bytes_cached),
            "bytes_lost": float(self.bytes_lost),
            "bytes_cached_peak": float(self.bytes_cached_peak),
        }


@dataclass(frozen=True)
class MetricsReport:
    horizon_s: Fraction
    links: Tuple[LinkReport, ...]
    flows: Tuple[FlowReport, ...]
    caches: Mapping[str, Fraction]  # node -> occupied bytes

    def link(self, link_id: str) -> LinkReport:
        for l in self.links:
            if l.link_id == link_id:
                return l
        raise KeyError(link_id)

    def flow(self, flow_id: str) -> FlowReport:
        for f in self.flows:
            if f.flow_id == flow_id:
                return f
        raise KeyError(flow_id)

    def to_dict(self) -> dict:
        return {
            "horizon_s": float(self.horizon_s),
            "links": [l.to_dict() for l in self.links],
            "flows": [f.to_dict() for f in self.flows],
            "caches": {n: float(v) for n, v in sorted(self.caches.items())},
        }


class FlowSimulator:
    """Owns all flows, node caches and the virtual clock; driven by advance()
    and link changes.

    Cache sizes are the topology's `cache_mib`. The clock is not in the
    saved flow lines: the engine saves it with its own counters and sets
    `clock_s` back on load.

    Cache occupancy is a running total: `_occupied[n]` equals the sum of
    `buffered_mbit` over the flows whose `cache_node` is `n`, exactly, and is
    adjusted wherever a parked buffer grows, drains, moves or is removed.
    """

    def __init__(self, topo: Topology, drain_multiplier: Fraction = Fraction(2),
                 residuals_fn: Optional[Callable[[], Mapping[str, Fraction]]] = None):
        self._topo = topo
        self._drain_multiplier = drain_multiplier
        # Residual bandwidth source for drain-rate sizing; defaults to raw capacity.
        self._residuals_fn = residuals_fn or (
            lambda: {lid: l.bandwidth_mbps for lid, l in topo.links.items()}
        )
        self.flows: Dict[str, Flow] = {}
        # node -> cache capacity in megabits
        self.caches: Dict[str, Fraction] = {
            n.id: n.cache_mib * MBIT_PER_MIB for n in topo.nodes.values() if n.cache_mib > 0
        }
        # node -> megabits parked there
        self._occupied: Dict[str, Fraction] = {}
        self.clock_s = ZERO
        self._reset_tracking()

    def _reset_tracking(self) -> None:
        # flows that advance must step, by id
        self._stepped: Dict[str, Flow] = {}
        # flows a link event or activation touched since the last catch-up,
        # with their state before (None for a new flow)
        self._touched: Dict[str, Tuple[Flow, Optional[FlowState]]] = {}
        # offered-load groups, and those whose members changed since the last report
        self._groups: Dict[Tuple[Path, int], _Group] = {}
        self._dirty: Dict[Tuple[Path, int], _Group] = {}
        # link -> offered load of the groups as last applied
        self._offered: Dict[str, Fraction] = {lid: ZERO for lid in self._topo.links}

    def _park(self, node_id: str, mbit: Fraction) -> None:
        self._occupied[node_id] = self._occupied.get(node_id, ZERO) + mbit

    def _ordered(self) -> List[Flow]:
        return sorted(self.flows.values(), key=_flow_id)

    # -- activation / teardown -------------------------------------------------

    def activate_flow(self, plan: PlannedFlow) -> Flow:
        flow = Flow(
            id=plan.flow_id,
            source=plan.source,
            sink=plan.sink,
            rate_mbps=plan.rate_mbps,
            path=plan.path,
            booked_mbps=plan.booked_mbps,
            booking_owner=plan.booking_owner,
            started_s=self.clock_s,
        )
        self._assign_state(flow)  # a new flow holds no data, so needs no drain rate
        self.flows[flow.id] = flow
        self._touched[flow.id] = (flow, None)
        return flow

    def deactivate_flows_touching(self, request_ids) -> List[Flow]:
        """Remove flows whose source or sink placement belongs to `request_ids`."""
        self._settle()
        targets = set(request_ids)
        removed = []
        for fid, flow in list(self.flows.items()):
            for end in (flow.source, flow.sink):
                if end.kind == "placement" and end.id in targets:
                    removed.append(self.flows.pop(fid))
                    if flow.buffered_mbit:
                        self._park(flow.cache_node, -flow.buffered_mbit)
                    self._stepped.pop(fid, None)
                    group = flow.group
                    if group is not None:
                        del group.members[fid]
                        self._dirty[group.key] = group
                        flow.group = None
                    break
        return removed

    # -- fault handling ----------------------------------------------------------

    def _first_down_index(self, path: Path) -> Optional[int]:
        for i, lid in enumerate(path):
            if not self._topo.links[lid].up:
                return i
        return None

    def _upstream_nodes(self, flow: Flow, down_index: int) -> List[str]:
        """Nodes the flow's data can still reach: source node through the node
        just before the down link."""
        nodes = self._topo.path_nodes(flow.source.node, flow.path)
        return nodes[: down_index + 1]

    def _assign_state(self, flow: Flow) -> bool:
        """Set the flow's state from its path's links; True when the flow is
        restored holding data and still needs a drain rate."""
        down = self._first_down_index(flow.path)
        if down is None:
            # Restored path. Buffered data stays parked at its cache node and
            # keeps occupying that cache until the drain finishes.
            flow.state = FlowState.ACTIVE
            if flow.buffered_mbit > 0:
                return flow.drain_rate_mbps == 0
            flow.cache_node = None
            return False
        # Broken path: cache at the most downstream reachable cache with free
        # space, and room for all of the flow's parked buffer when that has to
        # move; otherwise stall. A flow already caching keeps its cache node
        # while that node remains reachable.
        flow.drain_rate_mbps = ZERO
        reachable = self._upstream_nodes(flow, down)
        if flow.cache_node in reachable:
            flow.state = FlowState.CACHING
            return False
        for node_id in reversed(reachable):
            capacity = self.caches.get(node_id)
            if capacity is None:
                continue
            occupied = self._occupied.get(node_id, ZERO)
            if occupied < capacity and (
                not flow.buffered_mbit or occupied + flow.buffered_mbit <= capacity
            ):
                if flow.buffered_mbit:  # the parked buffer moves with the flow
                    self._park(flow.cache_node, -flow.buffered_mbit)
                    self._park(node_id, flow.buffered_mbit)
                flow.state = FlowState.CACHING
                flow.cache_node = node_id
                return False
        flow.state = FlowState.STALLED
        if flow.buffered_mbit == 0:
            flow.cache_node = None
        return False

    def _drain_rate_for(self, flow: Flow, residuals: Mapping[str, Fraction]) -> Fraction:
        if not flow.path:
            return self._drain_multiplier * flow.rate_mbps
        residual = min(residuals.get(lid, ZERO) for lid in flow.path)
        return max(ZERO, min(self._drain_multiplier * flow.rate_mbps, residual))

    def on_link_state_changed(self, link_id: str) -> None:
        """Reassign every flow routed over a link whose state just changed,
        noting each one for the next catch-up (`_settle`)."""
        touched = self._touched
        restored = []
        for flow in self.flows.values():
            if link_id in flow.path:
                if flow.id not in touched:
                    touched[flow.id] = (flow, flow.state)
                if self._assign_state(flow):
                    restored.append(flow)
        # Residuals are read once per change, and only when a restored flow
        # needs a drain rate; reassigning flows does not change them.
        if restored:
            residuals = self._residuals_fn()
            for flow in restored:
                flow.drain_rate_mbps = self._drain_rate_for(flow, residuals)

    # -- catch-up ----------------------------------------------------------------

    def _settle(self) -> None:
        """Bring the flows touched since the last catch-up up to date: their
        stall clocks, groups, stepping membership and encoded lines. The
        clock has not moved since they were touched."""
        if not self._touched:
            return
        clock = self.clock_s
        for flow, before in self._touched.values():
            flow.line = None
            if before is FlowState.STALLED:
                if flow.state is not FlowState.STALLED:
                    flow.lost_mbit += flow.rate_mbps * (clock - flow.stalled_s)
            elif flow.state is FlowState.STALLED:
                flow.stalled_s = clock
            self._track(flow)
        self._touched.clear()

    def _group_key(self, flow: Flow) -> Optional[Tuple[Path, int]]:
        if flow.state is FlowState.ACTIVE:
            loaded = len(flow.path)
        elif flow.state is FlowState.CACHING:
            # Load reaches only the segment between source and cache node.
            nodes = self._topo.path_nodes(flow.source.node, flow.path)
            loaded = nodes.index(flow.cache_node)
        else:
            loaded = 0
        return (flow.path, loaded) if loaded else None

    def _track(self, flow: Flow) -> None:
        """Put the flow in the group and stepping set its state calls for."""
        key = self._group_key(flow)
        group = flow.group
        if group is not None:
            self._dirty[group.key] = group  # its load may have changed
            if group.key != key:
                del group.members[flow.id]
                group = None
        if group is None and key is not None:
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group(key)
            group.members[flow.id] = flow
            self._dirty[key] = group
        flow.group = group
        if _steps(flow):
            self._stepped[flow.id] = flow
        else:
            self._stepped.pop(flow.id, None)

    # -- time ---------------------------------------------------------------------

    def advance(self, dt_s: Fraction) -> None:
        """Move simulated time forward, stepping the flows that need it.

        Flows caching at the same node share its remaining space
        proportionally to rate within the step (keeps the result
        order-independent). Every other flow's counters follow from the
        clock.
        """
        if dt_s <= 0:
            raise ValueError("advance requires dt > 0")
        self._settle()
        stepped = self._stepped
        # Pre-compute per-cache inflow so space is shared proportionally.
        cache_inflow: Dict[str, Fraction] = {}
        for flow in stepped.values():
            if flow.state is FlowState.CACHING and flow.rate_mbps > 0:
                cache_inflow[flow.cache_node] = (
                    cache_inflow.get(flow.cache_node, ZERO) + flow.rate_mbps
                )
        cache_accept: Dict[str, Fraction] = {}
        occupied = self._occupied
        for node_id, inflow_rate in cache_inflow.items():
            free = self.caches[node_id] - occupied.get(node_id, ZERO)
            wanted = inflow_rate * dt_s
            share = min(Fraction(1), free / wanted)  # inflow_rate and dt_s are > 0
            cache_accept[node_id] = share
            # What the loop below adds to this cache's buffers, summed exactly.
            occupied[node_id] = occupied.get(node_id, ZERO) + wanted * share

        # Each flow's counters depend only on that flow and cache_accept, so
        # the order of this loop does not matter.
        drained_out = []
        for flow in stepped.values():
            flow.line = None
            if flow.state is FlowState.ACTIVE:
                drained = min(flow.buffered_mbit, flow.drain_rate_mbps * dt_s)
                flow.buffered_mbit -= drained
                occupied[flow.cache_node] -= drained
                if flow.buffered_mbit == 0:
                    flow.drain_rate_mbps = ZERO
                    flow.cache_node = None
                    drained_out.append(flow)
            else:  # CACHING
                produced = flow.rate_mbps * dt_s
                share = cache_accept.get(flow.cache_node, Fraction(1))
                accepted = produced * share
                flow.buffered_mbit += accepted
                flow.lost_mbit += produced - accepted
                flow.buffered_peak_mbit = max(flow.buffered_peak_mbit, flow.buffered_mbit)
        for flow in drained_out:  # now live at their rate alone
            del stepped[flow.id]
            if flow.group is not None:
                self._dirty[flow.group.key] = flow.group
        self.clock_s += dt_s

    # -- reporting -------------------------------------------------------------------

    def _fold_offered(self) -> Dict[str, Fraction]:
        """Per-link offered load, after re-summing the groups that changed."""
        offered = self._offered
        for key, group in self._dirty.items():
            total = sum(map(_load, group.members.values()), ZERO)
            delta = total - group.applied
            if delta:
                for lid in group.links:
                    offered[lid] += delta
                group.applied = total
            if not group.members:
                del self._groups[key]
        self._dirty.clear()
        return offered

    def report(self, reserved: Mapping[str, Fraction]) -> MetricsReport:
        """Immutable counters snapshot; `reserved` is the inventory's per-link
        booked bandwidth."""
        self._settle()
        offered = self._fold_offered()
        links = tuple(
            LinkReport(
                link_id=lid,
                capacity_mbps=link.bandwidth_mbps,
                reserved_mbps=reserved.get(lid, ZERO),
                offered_mbps=offered[lid],
                up=link.up,
            )
            for lid, link in sorted(self._topo.links.items())
        )
        clock = self.clock_s
        started = elapsed = None
        flows = []
        for f in self._ordered():
            if f.started_s is not started:
                started, elapsed = f.started_s, clock - f.started_s
            sourced = f.rate_bytes * elapsed
            lost = f.lost_mbit
            if f.state is FlowState.STALLED:
                lost = lost + f.rate_mbps * (clock - f.stalled_s)
            if f.buffered_mbit or lost:
                cached = f.buffered_mbit * BYTES_PER_MBIT
                lost = lost * BYTES_PER_MBIT
                delivered = sourced - cached - lost
            else:  # an undisturbed flow
                cached = lost = ZERO
                delivered = sourced
            flows.append(FlowReport(
                flow_id=f.id,
                source=f.source_label,
                sink=f.sink_label,
                rate_mbps=f.rate_mbps,
                state=f.state.value,
                bytes_sourced=sourced,
                bytes_delivered=delivered,
                bytes_cached=cached,
                bytes_lost=lost,
                bytes_cached_peak=(
                    f.buffered_peak_mbit * BYTES_PER_MBIT if f.buffered_peak_mbit else ZERO
                ),
            ))
        caches = {
            node_id: self._occupied.get(node_id, ZERO) * BYTES_PER_MBIT
            for node_id in self.caches
        }
        return MetricsReport(
            horizon_s=clock, links=links, flows=tuple(flows), caches=caches
        )

    # -- persistence ------------------------------------------------------------------

    def state_document(self) -> dict:
        """Every flow's record, by id: what its saved line holds."""
        self._settle()
        return {"flows": {f.id: f.record() for f in self._ordered()}}

    def state_lines(self) -> bytes:
        """One JSON line per flow, in id order; only flows whose record
        changed since their line was last encoded or loaded are encoded."""
        self._settle()
        lines = []
        for f in self._ordered():
            if f.line is None:
                f.line = f.encode()
            lines.append(f.line)
        return b"".join(lines)

    def load_state_lines(self, body: bytes) -> None:
        """Replace every flow with those of `state_lines` output, keeping each
        line as its flow's encoding. Raises StoreError for a malformed line."""
        if not isinstance(body, bytes) or body[-1:] not in (b"", b"\n"):
            raise StoreError("flowsim section is not a block of flow lines")
        read = _LineReader(self._topo)
        flows: Dict[str, Flow] = {}
        start = 0
        while start < len(body):
            end = body.index(b"\n", start) + 1
            line = body[start:end]
            try:
                fd = _DECODE(line.decode())
                fid, owner, cache_node = fd["id"], fd["booking_owner"], fd["cache_node"]
                rate, rate_bytes = read.rate(fd["rate_mbps"])
                if not isinstance(fid, str) or fid in flows or not isinstance(owner, str):
                    raise ValueError(f"bad or repeated id {fid!r} or owner {owner!r}")
                if cache_node is not None and cache_node not in self.caches:
                    raise ValueError(f"no cache at {cache_node!r}")
                flow = Flow(
                    id=fid,
                    source=read.end(fd["source"]),
                    sink=read.end(fd["sink"]),
                    rate_mbps=rate,
                    path=read.path(fd["path"]),
                    booked_mbps=read.exact(fd["booked_mbps"]),
                    booking_owner=owner,
                    started_s=read.exact(fd["started_s"]),
                    state=FlowState(fd["state"]),
                    cache_node=cache_node,
                    drain_rate_mbps=read.exact(fd["drain_rate_mbps"]),
                    buffered_mbit=read.exact(fd["buffered_mbit"]),
                    lost_mbit=read.exact(fd["lost_mbit"]),
                    stalled_s=read.exact(fd["stalled_s"]),
                    buffered_peak_mbit=read.exact(fd["buffered_peak_mbit"]),
                    rate_bytes=rate_bytes,
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise StoreError(f"flowsim line {len(flows) + 1}: {exc!r}") from exc
            flow.line = line
            flows[fid] = flow
            start = end
        self.flows = flows
        self._occupied = {}
        self._reset_tracking()
        try:
            for flow in flows.values():
                if flow.buffered_mbit:
                    self._park(flow.cache_node, flow.buffered_mbit)
                self._track(flow)
        except (ValueError, TopologyError) as exc:  # a cache off the flow's path
            raise StoreError(f"flowsim flow {flow.id}: {exc!r}") from exc


class _LineReader:
    """Reads the values of one load's flow lines, each distinct one once:
    flows share ends, paths and rates, and `Fraction(str)` is slow."""

    def __init__(self, topo: Topology):
        self._topo = topo
        self.exact = exact_reader()
        self._ends: Dict[tuple, FlowEnd] = {}
        self._paths: Dict[tuple, Path] = {}
        self._rates: Dict[str, Tuple[Fraction, Fraction]] = {}

    def end(self, doc: Mapping) -> FlowEnd:
        key = (doc["kind"], doc["id"], doc["node"], doc["component"])
        end = self._ends.get(key)
        if end is None:
            if not all(isinstance(v, str) for v in key) or key[2] not in self._topo.nodes:
                raise ValueError(f"bad flow end {doc!r}")
            end = self._ends[key] = FlowEnd(*key)
        return end

    def path(self, links) -> Path:
        key = tuple(links)
        path = self._paths.get(key)
        if path is None:
            if not all(lid in self._topo.links for lid in key):
                raise ValueError(f"unknown link in path {links!r}")
            path = self._paths[key] = key
        return path

    def rate(self, text: str) -> Tuple[Fraction, Fraction]:
        """A rate in megabits and in bytes per second."""
        rate = self._rates.get(text)
        if rate is None:
            mbit = self.exact(text)
            rate = self._rates[text] = (mbit, mbit * BYTES_PER_MBIT)
        return rate
