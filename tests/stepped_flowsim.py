"""The flow simulator as it was before its counters were kept in closed
form: every `advance` steps every flow, and `report` re-sums offered load
over every flow's path. Kept as the oracle that `test_flowsim.py` and
criterion 8 compare `foglet.flowsim.FlowSimulator` against, step by step.

It builds its reports from `foglet.flowsim`'s report types, so a report
from each simulator compares equal exactly when every counter, state,
offered load and cache occupancy agrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional

from foglet.flowsim import (
    BYTES_PER_MBIT,
    MBIT_PER_MIB,
    FlowReport,
    FlowState,
    LinkReport,
    MetricsReport,
)
from foglet.scheduler import FlowEnd, PlannedFlow
from foglet.topology import Path, Topology


@dataclass
class SteppedFlow:
    id: str
    source: FlowEnd
    sink: FlowEnd
    rate_mbps: Fraction
    path: Path  # source-to-sink link order
    booked_mbps: Fraction
    booking_owner: str
    state: FlowState = FlowState.ACTIVE
    cache_node: Optional[str] = None  # set while CACHING
    drain_rate_mbps: Fraction = Fraction(0)  # >0 while a restored flow drains
    sourced_mbit: Fraction = Fraction(0)
    delivered_mbit: Fraction = Fraction(0)
    buffered_mbit: Fraction = Fraction(0)
    lost_mbit: Fraction = Fraction(0)
    buffered_peak_mbit: Fraction = Fraction(0)



class SteppedFlowSimulator:
    """Owns all flows, node caches and the virtual clock; driven by advance()
    and link changes.

    Cache sizes are the topology's `cache_mib`. It has no save or load: a
    test that checkpoints the simulator under test keeps this one running.

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
        self.flows: Dict[str, SteppedFlow] = {}
        # node -> cache capacity in megabits
        self.caches: Dict[str, Fraction] = {
            n.id: n.cache_mib * MBIT_PER_MIB for n in topo.nodes.values() if n.cache_mib > 0
        }
        # node -> megabits parked there
        self._occupied: Dict[str, Fraction] = {}
        self.clock_s = Fraction(0)

    def _park(self, node_id: str, mbit: Fraction) -> None:
        self._occupied[node_id] = self._occupied.get(node_id, Fraction(0)) + mbit

    # -- activation / teardown -------------------------------------------------

    def activate_flow(self, plan: PlannedFlow) -> SteppedFlow:
        flow = SteppedFlow(
            id=plan.flow_id,
            source=plan.source,
            sink=plan.sink,
            rate_mbps=plan.rate_mbps,
            path=plan.path,
            booked_mbps=plan.booked_mbps,
            booking_owner=plan.booking_owner,
        )
        self._assign_state(flow)  # a new flow holds no data, so needs no drain rate
        self.flows[flow.id] = flow
        return flow

    def deactivate_flows_touching(self, request_ids) -> List[SteppedFlow]:
        """Remove flows whose source or sink placement belongs to `request_ids`."""
        targets = set(request_ids)
        removed = []
        for fid, flow in list(self.flows.items()):
            for end in (flow.source, flow.sink):
                if end.kind == "placement" and end.id in targets:
                    removed.append(self.flows.pop(fid))
                    if flow.buffered_mbit:
                        self._park(flow.cache_node, -flow.buffered_mbit)
                    break
        return removed

    # -- fault handling ----------------------------------------------------------

    def _first_down_index(self, path: Path) -> Optional[int]:
        for i, lid in enumerate(path):
            if not self._topo.links[lid].up:
                return i
        return None

    def _upstream_nodes(self, flow: SteppedFlow, down_index: int) -> List[str]:
        """Nodes the flow's data can still reach: source node through the node
        just before the down link."""
        nodes = self._topo.path_nodes(flow.source.node, flow.path)
        return nodes[: down_index + 1]

    def _assign_state(self, flow: SteppedFlow) -> bool:
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
        flow.drain_rate_mbps = Fraction(0)
        reachable = self._upstream_nodes(flow, down)
        if flow.cache_node in reachable:
            flow.state = FlowState.CACHING
            return False
        for node_id in reversed(reachable):
            capacity = self.caches.get(node_id)
            if capacity is None:
                continue
            occupied = self._occupied.get(node_id, Fraction(0))
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

    def _drain_rate_for(self, flow: SteppedFlow, residuals: Mapping[str, Fraction]) -> Fraction:
        if not flow.path:
            return self._drain_multiplier * flow.rate_mbps
        residual = min(residuals.get(lid, Fraction(0)) for lid in flow.path)
        return max(Fraction(0), min(self._drain_multiplier * flow.rate_mbps, residual))

    def on_link_state_changed(self, link_id: str) -> None:
        """Reassign every flow routed over a link whose state just changed."""
        restored = [
            flow for flow in self.flows.values()
            if link_id in flow.path and self._assign_state(flow)
        ]
        # Residuals are read once per change, and only when a restored flow
        # needs a drain rate; reassigning flows does not change them.
        if restored:
            residuals = self._residuals_fn()
            for flow in restored:
                flow.drain_rate_mbps = self._drain_rate_for(flow, residuals)

    # -- time ---------------------------------------------------------------------

    def advance(self, dt_s: Fraction) -> None:
        """Move simulated time forward, accruing per-flow byte counters.

        Flows are independent constant-rate streams, except that flows caching
        at the same node share its remaining space proportionally to rate
        within the step (keeps the result order-independent).
        """
        if dt_s <= 0:
            raise ValueError("advance requires dt > 0")
        # Pre-compute per-cache inflow so space is shared proportionally.
        cache_inflow: Dict[str, Fraction] = {}
        for flow in self.flows.values():
            if flow.state is FlowState.CACHING and flow.rate_mbps > 0:
                cache_inflow[flow.cache_node] = (
                    cache_inflow.get(flow.cache_node, Fraction(0)) + flow.rate_mbps
                )
        cache_accept: Dict[str, Fraction] = {}
        occupied = self._occupied
        for node_id, inflow_rate in cache_inflow.items():
            free = self.caches[node_id] - occupied.get(node_id, Fraction(0))
            wanted = inflow_rate * dt_s
            share = min(Fraction(1), free / wanted)  # inflow_rate and dt_s are > 0
            cache_accept[node_id] = share
            # What the loop below adds to this cache's buffers, summed exactly.
            occupied[node_id] = occupied.get(node_id, Fraction(0)) + wanted * share

        # Each flow's counters depend only on that flow and cache_accept, so
        # the order of this loop does not matter.
        for flow in self.flows.values():
            produced = flow.rate_mbps * dt_s
            flow.sourced_mbit += produced
            if flow.state is FlowState.ACTIVE:
                flow.delivered_mbit += produced
                if flow.buffered_mbit and flow.drain_rate_mbps:  # both never negative
                    drained = min(flow.buffered_mbit, flow.drain_rate_mbps * dt_s)
                    flow.buffered_mbit -= drained
                    flow.delivered_mbit += drained
                    occupied[flow.cache_node] -= drained
                    if flow.buffered_mbit == 0:
                        flow.drain_rate_mbps = Fraction(0)
                        flow.cache_node = None
            elif flow.state is FlowState.CACHING:
                share = cache_accept.get(flow.cache_node, Fraction(1))
                accepted = produced * share
                flow.buffered_mbit += accepted
                flow.lost_mbit += produced - accepted
                flow.buffered_peak_mbit = max(flow.buffered_peak_mbit, flow.buffered_mbit)
            else:  # STALLED
                flow.lost_mbit += produced
        self.clock_s += dt_s

    # -- reporting -------------------------------------------------------------------

    def _offered_per_link(self) -> Dict[str, Fraction]:
        offered = {lid: Fraction(0) for lid in self._topo.links}
        for flow in self.flows.values():
            if flow.state is FlowState.ACTIVE:
                rate = flow.rate_mbps + (
                    flow.drain_rate_mbps if flow.buffered_mbit > 0 else Fraction(0)
                )
                for lid in flow.path:
                    offered[lid] += rate
            elif flow.state is FlowState.CACHING:
                # Load reaches only the segment between source and cache node.
                nodes = self._topo.path_nodes(flow.source.node, flow.path)
                cache_at = nodes.index(flow.cache_node)
                for lid in flow.path[:cache_at]:
                    offered[lid] += flow.rate_mbps
        return offered

    def report(self, reserved: Mapping[str, Fraction]) -> MetricsReport:
        """Immutable counters snapshot; `reserved` is the inventory's per-link
        booked bandwidth."""
        offered = self._offered_per_link()
        links = tuple(
            LinkReport(
                link_id=lid,
                capacity_mbps=link.bandwidth_mbps,
                reserved_mbps=reserved.get(lid, Fraction(0)),
                offered_mbps=offered[lid],
                up=link.up,
            )
            for lid, link in sorted(self._topo.links.items())
        )
        flows = tuple(
            FlowReport(
                flow_id=f.id,
                source=self._end_label(f.source),
                sink=self._end_label(f.sink),
                rate_mbps=f.rate_mbps,
                state=f.state.value,
                bytes_sourced=f.sourced_mbit * BYTES_PER_MBIT,
                bytes_delivered=f.delivered_mbit * BYTES_PER_MBIT,
                bytes_cached=f.buffered_mbit * BYTES_PER_MBIT,
                bytes_lost=f.lost_mbit * BYTES_PER_MBIT,
                bytes_cached_peak=f.buffered_peak_mbit * BYTES_PER_MBIT,
            )
            for f in sorted(self.flows.values(), key=lambda f: f.id)
        )
        caches = {
            node_id: self._occupied.get(node_id, Fraction(0)) * BYTES_PER_MBIT
            for node_id in self.caches
        }
        return MetricsReport(
            horizon_s=self.clock_s, links=links, flows=flows, caches=caches
        )

    @staticmethod
    def _end_label(end: FlowEnd) -> str:
        return f"{end.kind}:{end.component or end.id}@{end.node}"
