import json
import os
import random
import tempfile
from fractions import Fraction
from hypothesis import given, strategies as st

from foglet.engine import Engine
from foglet.flowsim import BYTES_PER_MBIT, FlowSimulator, FlowState, MBIT_PER_MIB
from foglet.scheduler import FlowEnd, PlannedFlow
from foglet.topology import load_topology
from tests.stepped_flowsim import SteppedFlowSimulator


def chain_topology(cache_mib=0):
    return load_topology({
        "nodes": [
            {"id": "cloud", "tier": "cloud", "vcpus": 8, "ram_mib": 1024, "disk_gib": 10},
            {"id": "cloudlet", "tier": "edge_cloudlet", "vcpus": 4, "ram_mib": 512,
             "disk_gib": 5, "cache_mib": cache_mib},
            {"id": "gateway", "tier": "edge_gateway", "vcpus": 1, "ram_mib": 128, "disk_gib": 1},
        ],
        "links": [
            {"id": "wan", "a": "cloud", "b": "cloudlet", "bandwidth_mbps": 10, "latency_ms": 40},
            {"id": "lan", "a": "cloudlet", "b": "gateway", "bandwidth_mbps": 100, "latency_ms": 2},
        ],
        "endpoints": [{"id": "cam", "node": "gateway", "kind": "camera"}],
    })


def set_link(topo, sim, link_id, up):
    """Change a link's state and tell the simulator, as Engine.set_link_state does."""
    if topo.set_link_state(link_id, up):
        sim.on_link_state_changed(link_id)


def planned(flow_id, rate, path, source_node="gateway", sink_node="cloud",
            source_kind="endpoint", sink_kind="placement"):
    return PlannedFlow(
        flow_id=flow_id,
        source=FlowEnd(kind=source_kind, id="src", node=source_node, component="src"),
        sink=FlowEnd(kind=sink_kind, id="dst", node=sink_node, component="dst"),
        rate_mbps=Fraction(str(rate)),
        path=path,
        booked_mbps=Fraction(0),
        booking_owner="req",
    )


def test_activation_adds_offered_load_to_each_path_link():
    sim = FlowSimulator(chain_topology())
    sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    report = sim.report({})
    assert report.link("lan").offered_mbps == 4
    assert report.link("wan").offered_mbps == 4


def test_zero_rate_flow_active_without_load():
    sim = FlowSimulator(chain_topology())
    flow = sim.activate_flow(planned("f1", 0, ("lan", "wan")))
    assert flow.state is FlowState.ACTIVE
    assert all(l.offered_mbps == 0 for l in sim.report({}).links)


def test_colocated_flow_empty_path():
    sim = FlowSimulator(chain_topology())
    flow = sim.activate_flow(planned("f1", 3, (), source_node="cloud"))
    assert flow.state is FlowState.ACTIVE
    sim.advance(Fraction(10))
    assert all(l.offered_mbps == 0 for l in sim.report({}).links)
    assert sim.report({}).flow("f1").bytes_delivered == 30 * BYTES_PER_MBIT


def test_advance_delivers_rate_times_dt():
    sim = FlowSimulator(chain_topology())
    sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    sim.advance(Fraction(10))
    flow_report = sim.report({}).flow("f1")
    assert flow_report.bytes_delivered == 40 * BYTES_PER_MBIT  # 5e6 bytes
    assert flow_report.bytes_delivered == 5_000_000


def test_fault_without_cache_stalls_and_loses():
    topo = chain_topology(cache_mib=0)
    sim = FlowSimulator(topo)
    sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    set_link(topo, sim, "wan", False)
    assert sim.flows["f1"].state is FlowState.STALLED
    sim.advance(Fraction(60))
    report = sim.report({}).flow("f1")
    assert report.bytes_lost == 240 * BYTES_PER_MBIT
    assert report.bytes_cached == 0
    # A stalled source puts nothing on the wire.
    assert sim.report({}).link("lan").offered_mbps == 0


def test_fault_with_upstream_cache_buffers_without_loss():
    topo = chain_topology(cache_mib=100)
    sim = FlowSimulator(topo)
    sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    set_link(topo, sim, "wan", False)
    assert sim.flows["f1"].state is FlowState.CACHING
    assert sim.flows["f1"].cache_node == "cloudlet"
    sim.advance(Fraction(10))
    report = sim.report({})
    assert report.flow("f1").bytes_cached == 40 * BYTES_PER_MBIT  # 5e6: fits in 100 MiB
    assert report.flow("f1").bytes_lost == 0
    assert report.caches["cloudlet"] == 40 * BYTES_PER_MBIT
    # Traffic still reaches the cache over the lan segment.
    assert report.link("lan").offered_mbps == 4
    assert report.link("wan").offered_mbps == 0


def test_fault_break_before_cache_stalls():
    # Cache sits at the cloudlet, but the broken link is upstream of it.
    topo = chain_topology(cache_mib=100)
    sim = FlowSimulator(topo)
    sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    set_link(topo, sim, "lan", False)
    assert sim.flows["f1"].state is FlowState.STALLED


def test_cache_overflow_counts_as_loss():
    topo = chain_topology(cache_mib=1)  # 1 MiB = 8.388608 Mbit
    sim = FlowSimulator(topo)
    sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    set_link(topo, sim, "wan", False)
    sim.advance(Fraction(10))  # wants 40 Mbit, cache takes 8.388608
    flow = sim.flows["f1"]
    assert flow.buffered_mbit == 1 * MBIT_PER_MIB
    assert flow.lost_mbit == 40 - MBIT_PER_MIB
    sim.advance(Fraction(5))  # cache already full: everything lost
    assert flow.buffered_mbit == 1 * MBIT_PER_MIB
    assert flow.lost_mbit == 60 - MBIT_PER_MIB


def test_two_flows_share_cache_proportionally():
    topo = chain_topology(cache_mib=1)
    sim = FlowSimulator(topo)
    sim.activate_flow(planned("f1", 3, ("lan", "wan")))
    sim.activate_flow(planned("f2", 1, ("lan", "wan")))
    set_link(topo, sim, "wan", False)
    sim.advance(Fraction(10))  # inflow 40 Mbit vs 8.388608 free
    f1, f2 = sim.flows["f1"], sim.flows["f2"]
    total = f1.buffered_mbit + f2.buffered_mbit
    assert total == MBIT_PER_MIB
    assert f1.buffered_mbit == 3 * f2.buffered_mbit  # proportional to rate
    # Conservation still holds per flow.
    for f in sim.report({}).flows:
        assert f.bytes_sourced == f.bytes_delivered + f.bytes_cached + f.bytes_lost


def test_zero_duration_fault_moves_no_bytes():
    topo = chain_topology(cache_mib=100)
    sim = FlowSimulator(topo)
    sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    before = json.dumps(sim.report({}).to_dict(), sort_keys=True)
    set_link(topo, sim, "wan", False)
    set_link(topo, sim, "wan", True)
    after = json.dumps(sim.report({}).to_dict(), sort_keys=True)
    assert before == after


def test_restore_drains_buffer_completely():
    topo = chain_topology(cache_mib=1024)
    sim = FlowSimulator(topo)
    sim.activate_flow(planned("f1", Fraction(1, 2), ("wan",), source_node="cloudlet",
                              source_kind="placement"))
    sim.advance(Fraction(10))
    set_link(topo, sim, "wan", False)
    sim.advance(Fraction(60))
    flow = sim.flows["f1"]
    assert flow.buffered_mbit == 30
    assert flow.buffered_peak_mbit == 30
    set_link(topo, sim, "wan", True)
    # Drain rate = min(2 * 0.5, residual 10) = 1 Mbit/s; 30 Mbit drains in 30 s.
    assert flow.drain_rate_mbps == 1
    sim.advance(Fraction(29))
    assert flow.buffered_mbit == 1
    assert flow.state is FlowState.ACTIVE
    # During drain the link carries live + drain load.
    assert sim.report({}).link("wan").offered_mbps == Fraction(3, 2)
    sim.advance(Fraction(1))
    assert flow.buffered_mbit == 0
    assert flow.drain_rate_mbps == 0
    report = sim.report({}).flow("f1")
    assert report.bytes_sourced == report.bytes_delivered
    assert sim.report({}).caches["cloudlet"] == 0


def test_drain_rate_caps_at_residual_bandwidth():
    topo = chain_topology(cache_mib=1024)
    # Residuals callback reports only 0.25 Mbit/s spare on the wan.
    sim = FlowSimulator(topo, residuals_fn=lambda: {"wan": Fraction(1, 4), "lan": Fraction(100)})
    sim.activate_flow(planned("f1", Fraction(1, 2), ("wan",), source_node="cloudlet",
                              source_kind="placement"))
    set_link(topo, sim, "wan", False)
    sim.advance(Fraction(20))
    set_link(topo, sim, "wan", True)
    assert sim.flows["f1"].drain_rate_mbps == Fraction(1, 4)


def test_link_up_reads_residuals_at_most_once():
    topo = chain_topology(cache_mib=1024)
    reads = []

    def residuals():
        reads.append(1)
        return {"wan": Fraction(10), "lan": Fraction(100)}

    sim = FlowSimulator(topo, residuals_fn=residuals)
    for i in range(4):
        sim.activate_flow(planned(f"f{i}", Fraction(1, 2), ("wan",), source_node="cloudlet",
                                  source_kind="placement"))
    set_link(topo, sim, "wan", False)
    sim.advance(Fraction(20))
    assert reads == []  # nothing to drain yet
    set_link(topo, sim, "wan", True)
    assert all(f.drain_rate_mbps == 1 for f in sim.flows.values())
    assert len(reads) == 1
    set_link(topo, sim, "lan", False)  # no flow on it: no read
    assert len(reads) == 1


def test_flow_activated_over_down_link_starts_caching_or_stalled():
    topo = chain_topology(cache_mib=100)
    sim = FlowSimulator(topo)
    set_link(topo, sim, "wan", False)
    flow = sim.activate_flow(planned("f1", 4, ("lan", "wan")))
    assert flow.state is FlowState.CACHING
    set_link(topo, sim, "lan", False)
    flow2 = sim.activate_flow(planned("f2", 4, ("lan", "wan")))
    assert flow2.state is FlowState.STALLED


# -- conservation under randomized fault schedules ------------------------------------


@given(st.integers(0, 2**32 - 1))
def test_byte_conservation_random_fault_schedule(seed):
    rng = random.Random(seed)
    topo = chain_topology(cache_mib=rng.choice([0, 1, 100]))
    sim = FlowSimulator(topo)
    for i in range(rng.randint(1, 3)):
        sim.activate_flow(planned(
            f"f{i}", Fraction(rng.randint(1, 80), 10), ("lan", "wan"),
        ))
    for _ in range(rng.randint(5, 25)):
        action = rng.random()
        if action < 0.3:
            set_link(topo, sim, rng.choice(["lan", "wan"]), rng.random() < 0.5)
        else:
            sim.advance(Fraction(rng.randint(1, 300), 10))
        for flow in sim.report({}).flows:
            assert flow.bytes_sourced == (
                flow.bytes_delivered + flow.bytes_cached + flow.bytes_lost
            )


def test_identical_schedules_produce_identical_reports():
    def run():
        topo = chain_topology(cache_mib=10)
        sim = FlowSimulator(topo)
        sim.activate_flow(planned("f1", Fraction(41, 10), ("lan", "wan")))
        sim.advance(Fraction(7, 2))
        set_link(topo, sim, "wan", False)
        sim.advance(Fraction(13))
        set_link(topo, sim, "wan", True)
        sim.advance(Fraction(100))
        return json.dumps(sim.report({}).to_dict(), sort_keys=True)

    assert run() == run()


# -- cache occupancy: running total against the re-summing oracle ----------------------


def occupied_mbit(flows, node_id):
    """Oracle: a cache's occupancy re-summed from the buffers parked there."""
    return sum(
        (f.buffered_mbit for f in flows.values() if f.cache_node == node_id), Fraction(0)
    )


class OracleFlowSimulator(FlowSimulator):
    """Reads cache occupancy by re-summing every flow's buffer at each read, as
    the simulator did before it kept a running total; writes to it are dropped."""

    @property
    def _occupied(self):
        nodes = set(self.caches) | {f.cache_node for f in self.flows.values() if f.cache_node}
        return {n: occupied_mbit(self.flows, n) for n in nodes}

    @_occupied.setter
    def _occupied(self, value):
        pass


def two_cache_topology(cloudlet_mib, gateway_mib):
    """cloud -wan- cloudlet -metro- gateway -lan- pole: a camera on the pole
    streams to the cloud across both caches."""
    return load_topology({
        "nodes": [
            {"id": "cloud", "tier": "cloud", "vcpus": 8, "ram_mib": 1024, "disk_gib": 10},
            {"id": "cloudlet", "tier": "edge_cloudlet", "vcpus": 4, "ram_mib": 512,
             "disk_gib": 5, "cache_mib": cloudlet_mib},
            {"id": "gateway", "tier": "edge_gateway", "vcpus": 1, "ram_mib": 128,
             "disk_gib": 1, "cache_mib": gateway_mib},
            {"id": "pole", "tier": "edge_gateway", "vcpus": 1, "ram_mib": 128, "disk_gib": 1},
        ],
        "links": [
            {"id": "wan", "a": "cloud", "b": "cloudlet", "bandwidth_mbps": 10, "latency_ms": 40},
            {"id": "metro", "a": "cloudlet", "b": "gateway", "bandwidth_mbps": 50,
             "latency_ms": 5},
            {"id": "lan", "a": "gateway", "b": "pole", "bandwidth_mbps": 100, "latency_ms": 2},
        ],
        "endpoints": [{"id": "cam", "node": "pole", "kind": "camera"}],
    })


# (source node, path, sink node)
TWO_CACHE_ROUTES = (
    ("pole", ("lan", "metro", "wan"), "cloud"),
    ("gateway", ("metro", "wan"), "cloud"),
    ("cloudlet", ("wan",), "cloud"),
    ("pole", ("lan", "metro"), "cloudlet"),
)


def two_cache_plan(flow_id, route, rate_tenths, app):
    source_node, path, sink_node = TWO_CACHE_ROUTES[route]
    return PlannedFlow(
        flow_id=flow_id,
        source=FlowEnd(kind="endpoint", id="cam", node=source_node, component="cam"),
        sink=FlowEnd(kind="placement", id=f"app{app}", node=sink_node, component="app"),
        rate_mbps=Fraction(rate_tenths, 10),
        path=path,
        booked_mbps=Fraction(0),
        booking_owner=f"app{app}",
    )


class Side:
    """One simulator on its own topology; `roundtrip` swaps in a fresh one
    loaded from the old one's state document."""

    def __init__(self, cls, cloudlet_mib, gateway_mib):
        self.cls = cls
        self.topo = two_cache_topology(cloudlet_mib, gateway_mib)
        self.sim = cls(self.topo)

    def roundtrip(self):
        lines, clock = self.sim.state_lines(), self.sim.clock_s
        self.sim = self.cls(self.topo)
        self.sim.load_state_lines(lines)
        self.sim.clock_s = clock


activate_step = st.tuples(
    st.just("activate"), st.integers(0, len(TWO_CACHE_ROUTES) - 1),
    st.integers(1, 80), st.integers(0, 3),
)
storm_steps = st.lists(
    st.one_of(
        activate_step,
        # Faults on the two links between caches are the ones that move buffers.
        st.tuples(st.just("toggle"), st.sampled_from(["wan", "metro", "wan", "metro", "lan"])),
        st.tuples(st.just("advance"), st.integers(1, 300)),
        st.tuples(st.just("advance"), st.integers(1, 300)),
        st.tuples(st.just("roundtrip")),
    ),
    min_size=10,
    max_size=40,
)


@given(
    st.sampled_from([1, 2, 100]),
    st.sampled_from([1, 2, 100]),
    st.lists(activate_step, min_size=1, max_size=4),
    storm_steps,
)
def test_running_occupancy_matches_the_oracle(cloudlet_mib, gateway_mib, setup, storm):
    real = Side(FlowSimulator, cloudlet_mib, gateway_mib)
    oracle = Side(OracleFlowSimulator, cloudlet_mib, gateway_mib)
    for n, step in enumerate(setup + storm):
        for side in (real, oracle):
            kind = step[0]
            if kind == "activate":
                side.sim.activate_flow(two_cache_plan(f"f{n}", *step[1:]))
            elif kind == "toggle":
                set_link(side.topo, side.sim, step[1], not side.topo.links[step[1]].up)
            elif kind == "advance":
                side.sim.advance(Fraction(step[1], 10))
            else:
                side.roundtrip()
        sim = real.sim
        for node in set(sim._occupied) | set(sim.caches):
            assert sim._occupied.get(node, 0) == occupied_mbit(sim.flows, node)
        for node, capacity in sim.caches.items():
            assert 0 <= sim._occupied.get(node, 0) <= capacity
        assert all(f.buffered_mbit >= 0 for f in sim.flows.values())
        assert sim.report({}).caches == oracle.sim.report({}).caches
        assert {
            fid: (f.state, f.cache_node, f.buffered_mbit) for fid, f in sim.flows.items()
        } == {
            fid: (f.state, f.cache_node, f.buffered_mbit)
            for fid, f in oracle.sim.flows.items()
        }


def test_buffer_moves_to_upstream_cache_when_its_cache_is_cut_off():
    topo = two_cache_topology(cloudlet_mib=100, gateway_mib=100)
    sim = FlowSimulator(topo)
    flow = sim.activate_flow(two_cache_plan("f1", 0, 40, 0))
    set_link(topo, sim, "wan", False)
    sim.advance(Fraction(10))
    assert flow.cache_node == "cloudlet"
    assert sim.report({}).caches == {"cloudlet": 40 * BYTES_PER_MBIT, "gateway": 0}
    set_link(topo, sim, "metro", False)
    assert flow.cache_node == "gateway"
    assert sim.report({}).caches == {"cloudlet": 0, "gateway": 40 * BYTES_PER_MBIT}


def test_buffer_moves_only_into_a_cache_with_room_for_all_of_it():
    topo = two_cache_topology(cloudlet_mib=100, gateway_mib=1)
    sim = FlowSimulator(topo)
    flow = sim.activate_flow(two_cache_plan("f1", 0, 50, 0))
    set_link(topo, sim, "wan", False)
    sim.advance(Fraction(2))
    assert sim.report({}).caches == {"cloudlet": 10 * BYTES_PER_MBIT, "gateway": 0}
    # The gateway's 1 MiB (8.39 Mbit) cannot take the 10 Mbit buffer, and the
    # pole has no cache: the flow stalls and its buffer stays where it is.
    set_link(topo, sim, "metro", False)
    assert (flow.state, flow.cache_node) == (FlowState.STALLED, "cloudlet")
    assert sim.report({}).caches == {"cloudlet": 10 * BYTES_PER_MBIT, "gateway": 0}
    set_link(topo, sim, "metro", True)
    assert (flow.state, flow.cache_node) == (FlowState.CACHING, "cloudlet")


class CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.values_calls = 0

    def values(self):
        self.values_calls += 1
        return super().values()


def test_link_down_iterates_the_flow_table_once():
    topo = two_cache_topology(cloudlet_mib=100, gateway_mib=100)
    sim = FlowSimulator(topo)
    for i in range(5):
        sim.activate_flow(two_cache_plan(f"f{i}", 0, 10, i))
    sim.flows = CountingDict(sim.flows)
    set_link(topo, sim, "wan", False)
    assert sim.flows.values_calls == 1
    assert all(f.cache_node == "cloudlet" for f in dict.values(sim.flows))


# -- closed-form accounting against the step-by-step simulator -------------------------


def _node(node_id, tier, cache_mib=0):
    return {"id": node_id, "tier": tier, "region": node_id, "vcpus": 64,
            "ram_mib": 65536, "disk_gib": 1000, "cache_mib": cache_mib}


def oracle_topology_doc(shape, caches):
    """A chain (cloud - cloudlet-a - gateway - pole) or a small mesh with a
    second cloudlet beside the first, so that flows from the pole's camera
    have two routes to the cloud. `caches` maps node to MiB."""
    nodes = [_node("cloud", "cloud"), _node("cloudlet-a", "edge_cloudlet"),
             _node("gateway", "edge_gateway"), _node("pole", "edge_gateway")]
    links = [("wan-a", "cloud", "cloudlet-a", 10), ("metro-a", "cloudlet-a", "gateway", 50),
             ("lan", "gateway", "pole", 100)]
    if shape == "mesh":
        nodes.append(_node("cloudlet-b", "edge_cloudlet"))
        links += [("wan-b", "cloud", "cloudlet-b", 10), ("metro-b", "cloudlet-b", "gateway", 50)]
    for nd in nodes:
        nd["cache_mib"] = caches.get(nd["id"], 0)
    return {
        "nodes": nodes,
        "links": [{"id": i, "a": a, "b": b, "bandwidth_mbps": bw, "latency_ms": 1}
                  for i, a, b, bw in links],
        "endpoints": [{"id": "cam", "node": "pole", "kind": "camera"}],
    }


def pinned_app_doc(name, node, rate_tenths):
    return {
        "component": {"name": name, "flows": [
            {"from_endpoint": "cam", "rate_mbps": rate_tenths / 10},
        ]},
        "requirements": [{"location": {"region": node}}],
    }


class Mirrored:
    """An engine, and the step-by-step simulator fed the same flows, link
    changes and advances; `check` compares the two after every step."""

    def __init__(self, doc, workdir):
        self.engine = Engine(load_topology(doc))
        self.path = os.path.join(workdir, "state.bin")
        self.oracle = SteppedFlowSimulator(
            self.engine.topo,
            drain_multiplier=self.engine.config.drain_rate_multiplier,
            # The engine may be replaced by a loaded copy; read the current one.
            residuals_fn=lambda: self.engine.inventory.residuals(),
        )
        self.apps = 0

    def submit(self, node, rate_tenths):
        self.apps += 1
        self.engine.submit(pinned_app_doc(f"app{self.apps}", node, rate_tenths))
        self.engine.process_pending()
        for f in sorted(self.engine.flowsim.flows.values(), key=lambda f: f.id):
            if f.id not in self.oracle.flows:
                self.oracle.activate_flow(PlannedFlow(
                    flow_id=f.id, source=f.source, sink=f.sink, rate_mbps=f.rate_mbps,
                    path=f.path, booked_mbps=f.booked_mbps, booking_owner=f.booking_owner,
                ))

    def toggle(self, link_id):
        self.set_link(link_id, not self.engine.topo.links[link_id].up)

    def set_link(self, link_id, up):
        self.engine.set_link_state(link_id, up)
        if self.oracle._topo is not self.engine.topo:  # after a load
            self.oracle._topo.set_link_state(link_id, up)
        self.oracle.on_link_state_changed(link_id)

    def advance(self, tenths):
        self.engine.advance(Fraction(tenths, 10))
        self.oracle.advance(Fraction(tenths, 10))

    def roundtrip(self):
        self.engine.save(self.path)
        self.engine = Engine.load(self.path)

    def check(self):
        engine, oracle = self.engine, self.oracle
        assert engine.report() == oracle.report(engine.inventory.reserved())
        assert {fid: (f.state, f.cache_node) for fid, f in engine.flowsim.flows.items()} == {
            fid: (f.state, f.cache_node) for fid, f in oracle.flows.items()
        }
        for f in engine.flowsim.flows.values():
            assert f.line is None or f.line == f.encode(), f.id


oracle_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(["cloud", "cloudlet-a", "cloudlet-b"]),
                  st.integers(1, 40)),
        st.tuples(st.just("toggle"),
                  st.sampled_from(["wan-a", "wan-a", "wan-b", "metro-a", "metro-b", "lan"])),
        # A down and up (or up and down) with no advance between them.
        st.tuples(st.just("flap"), st.sampled_from(["wan-a", "wan-b", "metro-a"])),
        # Down, data caches or is lost, up: a drain starts.
        st.tuples(st.just("outage"), st.sampled_from(["wan-a", "wan-b", "metro-a", "metro-b"]),
                  st.integers(1, 300)),
        st.tuples(st.just("advance"), st.integers(1, 300)),
        st.tuples(st.just("advance"), st.integers(1, 300)),
        st.tuples(st.just("roundtrip")),
    ),
    min_size=10,
    max_size=30,
)


@given(
    st.sampled_from(["chain", "mesh"]),
    st.sampled_from([{"cloudlet-a": 1}, {"cloudlet-a": 100}, {"gateway": 2},
                     {"cloudlet-a": 100, "gateway": 1}, {"cloudlet-a": 2, "cloudlet-b": 100}]),
    st.lists(st.tuples(st.sampled_from(["cloud", "cloudlet-a", "cloudlet-b"]),
                       st.integers(1, 40)), min_size=1, max_size=4),
    oracle_steps,
)
def test_closed_form_accounting_matches_the_stepped_simulator(shape, caches, apps, storm):
    with tempfile.TemporaryDirectory() as workdir:
        side = Mirrored(oracle_topology_doc(shape, caches), workdir)
        for node, rate in apps:
            if shape == "mesh" or node != "cloudlet-b":
                side.submit(node, rate)
        side.check()
        for step in storm:
            kind, args = step[0], step[1:]
            if shape == "chain" and any(str(a).endswith("-b") for a in args):
                continue  # the chain has no second cloudlet
            if kind == "flap":
                side.toggle(*args)
                side.toggle(*args)
            elif kind == "outage":
                link, tenths = args
                side.set_link(link, False)
                side.check()
                side.advance(tenths)
                side.check()
                side.set_link(link, True)
            else:
                getattr(side, kind)(*args)
            side.check()
