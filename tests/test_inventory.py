import random
from fractions import Fraction

import pytest

from foglet.inventory import (
    BandwidthBooking,
    InsufficientResources,
    InvalidState,
    Inventory,
    ReservationState,
    StoreError,
    read_store,
    write_store,
)
from foglet.model import Placement, ResourceVector
from foglet.topology import load_topology
from tests.conftest import reference_topology_doc


@pytest.fixture
def inv():
    return Inventory(load_topology(reference_topology_doc()))


def placement_for(reservation, component="comp"):
    return Placement(
        request_id=reservation.request_id,
        tenant="default",
        component=component,
        node_id=reservation.node_id,
        allocated=reservation.resources,
    )


def test_fresh_snapshot_is_all_zero(inv):
    view = inv.snapshot()
    for state in view.nodes.values():
        assert state.allocated.is_zero()
        assert state.reserved.is_zero()
    for link in view.links.values():
        assert link.reserved_mbps == 0


def test_snapshot_reflects_committed_placement(inv):
    rsv = inv.hold("r1", "cloud", ResourceVector(2, 2048, 0))
    inv.commit(rsv.id, placement_for(rsv))
    state = inv.snapshot().nodes["cloud"]
    assert state.allocated == ResourceVector(2, 2048, 0)
    assert state.reserved.is_zero()


def test_snapshots_without_writes_are_equal(inv):
    assert inv.snapshot().nodes == inv.snapshot().nodes
    assert inv.snapshot().links == inv.snapshot().links


def test_snapshot_immune_to_later_writes(inv):
    before = inv.snapshot()
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(2, 2048, 10))
    inv.commit(rsv.id, placement_for(rsv))
    assert before.nodes["cloudlet-a"].allocated.is_zero()
    assert before.nodes["cloudlet-a"].reserved.is_zero()


def test_hold_within_cloudlet_capacity(inv):
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(2, 2048, 10))
    assert rsv.state is ReservationState.HELD
    assert inv.snapshot().nodes["cloudlet-a"].reserved == ResourceVector(2, 2048, 10)


def test_second_hold_beyond_capacity_names_shortfall(inv):
    inv.hold("r1", "cloudlet-a", ResourceVector(2, 2048, 10))
    with pytest.raises(InsufficientResources) as err:
        inv.hold("r2", "cloudlet-a", ResourceVector(3, 1024, 10))
    assert "vcpus shortfall 1" in str(err.value)


def test_zero_hold_succeeds(inv):
    rsv = inv.hold("r1", "gateway-a", ResourceVector())
    assert rsv.state is ReservationState.HELD
    assert inv.snapshot().nodes["gateway-a"].reserved.is_zero()


def test_failed_hold_changes_nothing(inv):
    inv.hold("r1", "cloudlet-a", ResourceVector(2, 2048, 10),
             [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    before = inv.snapshot()
    with pytest.raises(InsufficientResources):
        inv.hold("r2", "cloudlet-a", ResourceVector(1, 100, 1),
                 [BandwidthBooking(path=("wan",), mbps=Fraction(5))])
    after = inv.snapshot()
    assert before.nodes == after.nodes
    assert before.links == after.links


def test_hold_checks_aggregate_bandwidth_across_paths(inv):
    with pytest.raises(InsufficientResources, match="wan"):
        inv.hold("r1", "cloudlet-a", ResourceVector(), [
            BandwidthBooking(path=("wan",), mbps=Fraction(3, 2)),
            BandwidthBooking(path=("wan", "lan-a"), mbps=Fraction(1)),
        ])


def test_hold_rejects_down_link():
    # Link up/down is owned by the topology; holds read it there.
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    topo.set_link_state("wan", False)
    with pytest.raises(InsufficientResources, match="down"):
        inv.hold("r1", "cloudlet-a", ResourceVector(),
                 [BandwidthBooking(path=("wan",), mbps=Fraction(1))])


def test_snapshot_records_down_links_when_taken():
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    before = inv.snapshot()
    topo.set_link_state("wan", False)
    after = inv.snapshot()
    assert "wan" in before.residuals() and "wan" not in after.residuals()
    assert after.down_links == {"wan"}
    assert inv.state_document()["links"]["wan"]["up"] is False


def test_residual_map_is_built_once_per_snapshot_and_read_only(inv):
    view = inv.snapshot()
    assert view.residuals() is view.residuals()
    with pytest.raises(TypeError):
        view.residuals()["wan"] = Fraction(0)


def test_commit_conserves_quantities(inv):
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(2, 2048, 10))
    inv.commit(rsv.id, placement_for(rsv))
    state = inv.snapshot().nodes["cloudlet-a"]
    assert state.allocated == ResourceVector(2, 2048, 10)
    assert state.reserved.is_zero()


def test_double_commit_is_invalid(inv):
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(1, 0, 0))
    inv.commit(rsv.id, placement_for(rsv))
    with pytest.raises(InvalidState):
        inv.commit(rsv.id, placement_for(rsv))


def test_commit_after_expiry_sweep_is_invalid(inv):
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(1, 0, 0),
                   now=Fraction(0), ttl_s=Fraction(30))
    assert inv.expire_reservations(Fraction(31)) == [rsv.id]
    with pytest.raises(InvalidState, match="expired"):
        inv.commit(rsv.id, placement_for(rsv))


def test_release_restores_pre_hold_state(inv):
    before = inv.snapshot()
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(2, 2048, 10),
                   [BandwidthBooking(path=("lan-a",), mbps=Fraction(4))])
    inv.release(rsv.id)
    after = inv.snapshot()
    assert before.nodes == after.nodes
    assert before.links == after.links


def test_release_committed_is_invalid(inv):
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(1, 0, 0))
    inv.commit(rsv.id, placement_for(rsv))
    with pytest.raises(InvalidState):
        inv.release(rsv.id)


def test_release_then_hold_same_amounts(inv):
    full = ResourceVector(4, 16384, 480)
    rsv = inv.hold("r1", "cloudlet-a", full)
    inv.release(rsv.id)
    rsv2 = inv.hold("r2", "cloudlet-a", full)
    assert rsv2.state is ReservationState.HELD


def test_expire_with_no_held_reservations(inv):
    assert inv.expire_reservations(Fraction(10**6)) == []


def test_expiry_boundary_is_strict(inv):
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(1, 0, 0),
                   now=Fraction(0), ttl_s=Fraction(30))
    assert inv.expire_reservations(Fraction(30)) == []  # exactly at the boundary
    assert inv.expire_reservations(Fraction(30) + Fraction(1, 1000)) == [rsv.id]
    assert inv.snapshot().nodes["cloudlet-a"].reserved.is_zero()


def test_evict_frees_placement(inv):
    rsv = inv.hold("r1", "cloudlet-a", ResourceVector(2, 2048, 10),
                   [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    inv.commit(rsv.id, placement_for(rsv))
    assert inv.evict_placements_on("cloudlet-a") == ["r1"]
    view = inv.snapshot()
    assert view.nodes["cloudlet-a"].allocated.is_zero()
    assert view.links["wan"].reserved_mbps == 0
    assert view.placements["r1"].state.value == "evicted"


def test_evict_empty_node(inv):
    assert inv.evict_placements_on("gateway-a") == []


# -- persistence --------------------------------------------------------------------


def persist(inv, path):
    """Write the inventory's section of a state file, as Engine.save does."""
    write_store(path, [("inventory", inv.state_document())])


def restore(path):
    """Load an inventory from a state file's section, as Engine.load does."""
    inv = Inventory(load_topology(reference_topology_doc()))
    inv.load_state_document(dict(read_store(path))["inventory"])
    return inv


def test_persist_restore_fresh(tmp_path, inv):
    path = str(tmp_path / "state.bin")
    persist(inv, path)
    restored = restore(path)
    assert restored.state_document() == inv.state_document()


def test_persist_restore_after_mutations(tmp_path, inv):
    r1 = inv.hold("r1", "cloud", ResourceVector(2, 2048, 10))
    inv.commit(r1.id, placement_for(r1, "a"))
    r2 = inv.hold("r2", "cloudlet-a", ResourceVector(1, 512, 1),
                  [BandwidthBooking(path=("wan",), mbps=Fraction(1, 2))])
    inv.commit(r2.id, placement_for(r2, "b"))
    path = str(tmp_path / "state.bin")
    persist(inv, path)
    restored = restore(path)
    assert restored.state_document() == inv.state_document()
    assert set(restored.snapshot().placements) == {"r1", "r2"}


def test_restore_truncated_file_fails_cleanly(tmp_path, inv):
    path = str(tmp_path / "state.bin")
    persist(inv, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 7])
    with pytest.raises(StoreError):
        restore(path)


def test_restore_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "junk.bin")
    open(path, "wb").write(b"not a store at all")
    with pytest.raises(StoreError, match="magic"):
        read_store(path)


def test_restore_rejects_version_mismatch(tmp_path):
    path = str(tmp_path / "state.bin")
    write_store(path, [("inventory", {})])
    blob = bytearray(open(path, "rb").read())
    blob[7] = 99  # bump the version field
    open(path, "wb").write(bytes(blob))
    with pytest.raises(StoreError, match="version"):
        read_store(path)


# -- conservation under random operation sequences ------------------------------------


def test_conservation_under_random_ops():
    rng = random.Random(20260808)
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    node_ids = [n.id for n in topo.hostable_nodes]
    link_ids = list(topo.links)
    held = []
    clock = Fraction(0)

    def check_invariants():
        view = inv.snapshot()
        for state in view.nodes.values():
            total = state.allocated + state.reserved
            assert total.fits_within(state.capacity), state
        for link in view.links.values():
            assert 0 <= link.reserved_mbps <= link.capacity_mbps, link

    for step in range(2000):
        op = rng.choice(["hold", "hold", "commit", "release", "expire", "evict"])
        if op == "hold":
            resources = ResourceVector(
                rng.choice([0, 0.5, 1, 2, 4]),
                rng.choice([0, 256, 2048, 8192]),
                rng.choice([0, 1, 10, 100]),
            )
            bookings = []
            if rng.random() < 0.5:
                bookings.append(BandwidthBooking(
                    path=tuple(rng.sample(link_ids, rng.randint(1, len(link_ids)))),
                    mbps=Fraction(rng.randint(1, 40), 10),
                ))
            before = inv.snapshot()
            try:
                rsv = inv.hold(f"r{step}", rng.choice(node_ids), resources, bookings,
                               now=clock, ttl_s=Fraction(30))
                held.append(rsv)
            except InsufficientResources:
                after = inv.snapshot()
                assert before.nodes == after.nodes
                assert before.links == after.links
        elif op == "commit" and held:
            rsv = held.pop(rng.randrange(len(held)))
            try:
                inv.commit(rsv.id, placement_for(rsv, f"c{step}"))
            except InvalidState:
                pass
        elif op == "release" and held:
            rsv = held.pop(rng.randrange(len(held)))
            try:
                inv.release(rsv.id)
            except InvalidState:
                pass
        elif op == "expire":
            clock += rng.choice([Fraction(1), Fraction(10), Fraction(40)])
            expired = set(inv.expire_reservations(clock))
            held = [r for r in held if r.id not in expired]
        elif op == "evict":
            inv.evict_placements_on(rng.choice(node_ids))
        check_invariants()
