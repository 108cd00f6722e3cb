import random
from fractions import Fraction

import pytest

from foglet.inventory import (
    BandwidthBooking,
    InsufficientResources,
    Inventory,
    InventoryError,
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


def placement(request_id, node_id, resources, component="comp"):
    return Placement(
        request_id=request_id,
        tenant="default",
        component=component,
        node_id=node_id,
        allocated=resources,
    )


def test_fresh_snapshot_is_all_zero():
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    for node_id in topo.nodes:
        assert inv.allocated(node_id).is_zero()
    assert set(inv.reserved()) == set(topo.links)
    for lid, link in topo.links.items():
        assert inv.reserved()[lid] == 0
        assert inv.residuals()[lid] == link.bandwidth_mbps


def test_snapshot_reflects_committed_placement(inv):
    inv.place(placement("r1", "cloud", ResourceVector(2, 2048, 0)))
    assert inv.allocated("cloud") == ResourceVector(2, 2048, 0)
    assert inv.free("cloud") == ResourceVector(30, 63488, 1000)


def test_commit_conserves_quantities(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(2, 2048, 10)),
              [BandwidthBooking(path=("wan", "lan-a"), mbps=Fraction(3, 2))])
    assert inv.allocated("cloudlet-a") == ResourceVector(2, 2048, 10)
    assert inv.reserved()["wan"] == Fraction(3, 2)
    assert inv.reserved()["lan-a"] == Fraction(3, 2)
    assert [(p.request_id, p.node_id) for p in inv.placements()] == [("r1", "cloudlet-a")]
    doc = inv.state_document()
    assert doc["reservations"] == {"rsv-000001": {
        "request_id": "r1", "network": [{"path": ["wan", "lan-a"], "mbps": "3/2"}],
    }}
    assert doc["next_reservation"] == 2


def test_hold_within_cloudlet_capacity(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(2, 2048, 10)))
    assert inv.allocated("cloudlet-a") == ResourceVector(2, 2048, 10)
    assert inv.free("cloudlet-a") == ResourceVector(2, 14336, 470)


def test_second_hold_beyond_capacity_names_shortfall(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(2, 2048, 10)))
    with pytest.raises(InsufficientResources) as err:
        inv.place(placement("r2", "cloudlet-a", ResourceVector(3, 1024, 10)))
    assert "vcpus shortfall 1" in str(err.value)


def test_zero_hold_succeeds(inv):
    inv.place(placement("r1", "gateway-a", ResourceVector()))
    assert inv.allocated("gateway-a").is_zero()
    assert [p.request_id for p in inv.placements()] == ["r1"]


def test_failed_hold_changes_nothing(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(2, 2048, 10)),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    before = inv.state_document()
    with pytest.raises(InsufficientResources):
        inv.place(placement("r2", "cloudlet-a", ResourceVector(1, 100, 1)),
                  [BandwidthBooking(path=("wan",), mbps=Fraction(5))])
    with pytest.raises(InventoryError, match="unknown node"):
        inv.place(placement("r2", "nowhere", ResourceVector()))
    with pytest.raises(InventoryError, match="unknown link"):
        inv.place(placement("r2", "cloud", ResourceVector()),
                  [BandwidthBooking(path=("lan-a", "ghost"), mbps=Fraction(1))])
    assert inv.state_document() == before


def test_hold_checks_aggregate_bandwidth_across_paths(inv):
    with pytest.raises(InsufficientResources, match="wan"):
        inv.place(placement("r1", "cloudlet-a", ResourceVector()), [
            BandwidthBooking(path=("wan",), mbps=Fraction(3, 2)),
            BandwidthBooking(path=("wan", "lan-a"), mbps=Fraction(1)),
        ])


def test_hold_rejects_down_link():
    # Link up/down is owned by the topology; placements read it there.
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    topo.set_link_state("wan", False)
    with pytest.raises(InsufficientResources, match="down"):
        inv.place(placement("r1", "cloudlet-a", ResourceVector()),
                  [BandwidthBooking(path=("wan",), mbps=Fraction(1))])


def test_snapshot_records_down_links_when_taken():
    # The topology owns up/down; a down link keeps its residual, and the
    # state file reads its up state from the topology.
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    topo.set_link_state("wan", False)
    assert inv.residuals()["wan"] == topo.links["wan"].bandwidth_mbps
    assert inv.state_document()["links"]["wan"]["up"] is False


def test_residual_map_is_built_once_per_snapshot_and_read_only(inv):
    # The residual and reserved maps are live views that callers cannot write.
    residuals, reserved = inv.residuals(), inv.reserved()
    with pytest.raises(TypeError):
        residuals["wan"] = Fraction(0)
    with pytest.raises(TypeError):
        reserved["wan"] = Fraction(0)
    capacity = residuals["wan"]
    inv.place(placement("r1", "cloudlet-a", ResourceVector()),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    assert reserved["wan"] == 1
    assert residuals["wan"] == capacity - 1


def test_release_placement_bandwidth_returns_one_booking(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(1, 0, 0)), [
        BandwidthBooking(path=("wan",), mbps=Fraction(1, 2)),
        BandwidthBooking(path=("wan", "lan-a"), mbps=Fraction(1)),
    ])
    inv.release_placement_bandwidth("r1", ("wan",), Fraction(1, 2))
    assert inv.reserved()["wan"] == 1
    assert inv.reserved()["lan-a"] == 1
    (record,) = inv.state_document()["reservations"].values()
    assert record["network"] == [{"path": ["wan", "lan-a"], "mbps": "1"}]


def test_release_of_unbooked_bandwidth_raises_and_changes_nothing(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(1, 0, 0)),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    before = inv.state_document()
    for request_id, path, amount in (("r1", ("wan",), Fraction(2)),
                                     ("r1", ("lan-a",), Fraction(1)),
                                     ("r9", ("wan",), Fraction(1))):
        with pytest.raises(InventoryError, match="books no"):
            inv.release_placement_bandwidth(request_id, path, amount)
    assert inv.state_document() == before


def test_evict_frees_placement(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(2, 2048, 10)),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    inv.place(placement("r2", "cloud", ResourceVector(1, 0, 0)),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1, 2))])
    assert inv.evict_placements_on("cloudlet-a") == ["r1"]
    assert inv.allocated("cloudlet-a").is_zero()
    assert inv.reserved()["wan"] == Fraction(1, 2)
    assert [p.request_id for p in inv.placements()] == ["r2"]
    doc = inv.state_document()
    assert list(doc["placements"]) == ["r2"]
    assert [r["request_id"] for r in doc["reservations"].values()] == ["r2"]
    assert inv.evict_placements_on("cloudlet-a") == []


def test_double_commit_is_invalid(inv):
    # A running request is placed once; placing it again would count its
    # footprint twice. Eviction deletes the placement, so the request then
    # holds nothing and placing it again counts its footprint once.
    inv.place(placement("r1", "cloudlet-a", ResourceVector(1, 0, 0)))
    before = inv.state_document()
    with pytest.raises(InventoryError, match="already placed"):
        inv.place(placement("r1", "cloudlet-a", ResourceVector(1, 0, 0)))
    assert inv.state_document() == before
    inv.evict_placements_on("cloudlet-a")
    inv.place(placement("r1", "cloud", ResourceVector(1, 0, 0)))
    assert inv.allocated("cloud") == ResourceVector(1, 0, 0)
    assert inv.allocated("cloudlet-a").is_zero()


def test_release_restores_pre_hold_state(inv):
    # Evicting a placement returns everything placing it took.
    def reads():
        doc = inv.state_document()
        return doc["nodes"], doc["links"], dict(inv.residuals())

    before = reads()
    inv.place(placement("r1", "cloudlet-a", ResourceVector(2, 2048, 10)),
              [BandwidthBooking(path=("lan-a",), mbps=Fraction(4))])
    inv.evict_placements_on("cloudlet-a")
    assert reads() == before


def test_release_committed_is_invalid(inv):
    # Returning bandwidth early frees only the booking; the footprint of a
    # placed request stays until eviction, and a booking returns only once.
    inv.place(placement("r1", "cloudlet-a", ResourceVector(1, 0, 0)),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    inv.release_placement_bandwidth("r1", ("wan",), Fraction(1))
    assert inv.allocated("cloudlet-a") == ResourceVector(1, 0, 0)
    before = inv.state_document()
    with pytest.raises(InventoryError, match="books no"):
        inv.release_placement_bandwidth("r1", ("wan",), Fraction(1))
    assert inv.state_document() == before


def test_release_then_hold_same_amounts(inv):
    full = ResourceVector(4, 16384, 480)
    inv.place(placement("r1", "cloudlet-a", full))
    inv.evict_placements_on("cloudlet-a")
    inv.place(placement("r2", "cloudlet-a", full))
    assert inv.free("cloudlet-a").is_zero()


def test_evict_empty_node(inv):
    assert inv.evict_placements_on("gateway-a") == []


def test_evicting_fractional_vcpus_is_all_or_nothing(inv):
    # Float vCPUs: 0.7 + 0.1 - 0.7 - 0.1 is below zero, so freeing both
    # placements raises; nothing may have been evicted when it does.
    inv.place(placement("big", "cloudlet-a", ResourceVector(0.7, 0, 0), "big"))
    inv.place(placement("small", "cloudlet-a", ResourceVector(0.1, 0, 0), "small"))
    before = inv.state_document()
    try:
        assert inv.evict_placements_on("cloudlet-a") == ["big", "small"]
    except ValueError:
        assert inv.state_document() == before
    else:
        assert inv.allocated("cloudlet-a").is_zero()
        assert inv.placements() == []


def test_evicting_an_unknown_node_changes_nothing(inv):
    inv.place(placement("r1", "cloudlet-a", ResourceVector(1, 0, 0)),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1))])
    before = inv.state_document()
    with pytest.raises(InventoryError, match="unknown node 'ghost'"):
        inv.evict_placements_on("ghost")
    assert inv.state_document() == before


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
    inv.place(placement("r1", "cloud", ResourceVector(2, 2048, 10), "a"))
    inv.place(placement("r2", "cloudlet-a", ResourceVector(1, 512, 1), "b"),
              [BandwidthBooking(path=("wan",), mbps=Fraction(1, 2))])
    path = str(tmp_path / "state.bin")
    persist(inv, path)
    restored = restore(path)
    assert restored.state_document() == inv.state_document()
    assert [p.request_id for p in restored.placements()] == ["r1", "r2"]


def test_restore_truncated_file_fails_cleanly(tmp_path, inv):
    path = str(tmp_path / "state.bin")
    persist(inv, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) - 7])
    with pytest.raises(StoreError):
        restore(path)


def test_restore_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"not a store at all")
    with pytest.raises(StoreError, match="magic"):
        read_store(path)


def test_restore_rejects_version_mismatch(tmp_path):
    path = str(tmp_path / "state.bin")
    write_store(path, [("inventory", {})])
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[7] = 99  # bump the version field
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(StoreError, match="version"):
        read_store(path)


def test_store_carries_raw_sections_as_bytes(tmp_path):
    path, again = tmp_path / "a.bin", tmp_path / "b.bin"
    sections = [("meta", {"n": 1}), ("lines", b'{"x": 1}\n\xff'), ("empty", bytearray())]
    write_store(str(path), sections)
    read = read_store(str(path))
    assert read == [("meta", {"n": 1}), ("lines", b'{"x": 1}\n\xff'), ("empty", b"")]
    write_store(str(again), read)
    assert again.read_bytes() == path.read_bytes()


def test_store_rejects_a_json_section_that_does_not_decode(tmp_path):
    path = tmp_path / "state.bin"
    write_store(str(path), [("meta", {"n": 1})])
    blob = bytearray(path.read_bytes())
    blob[-2] = 0xFF  # inside the JSON body
    path.write_bytes(blob)
    with pytest.raises(StoreError, match="corrupt"):
        read_store(str(path))


# -- conservation under random operation sequences ------------------------------------


def test_conservation_under_random_ops():
    rng = random.Random(20260808)
    topo = load_topology(reference_topology_doc())
    inv = Inventory(topo)
    node_ids = [n.id for n in topo.hostable_nodes]
    link_ids = list(topo.links)
    booked = []  # (request id, booking) pairs still held

    def check_invariants():
        # The running maps equal a fresh recomputation from the bookings.
        crossing = {lid: Fraction(0) for lid in link_ids}
        for rsv in inv.state_document()["reservations"].values():
            for booking in rsv["network"]:
                for lid in booking["path"]:
                    crossing[lid] += Fraction(booking["mbps"])
        assert dict(inv.reserved()) == crossing
        for lid, link in topo.links.items():
            reserved = inv.reserved()[lid]
            assert 0 <= reserved <= link.bandwidth_mbps, lid
            assert inv.residuals()[lid] == link.bandwidth_mbps - reserved, lid
        for node in topo.nodes.values():
            allocated = inv.allocated(node.id)
            assert allocated.fits_within(node.capacity), node.id
            assert inv.free(node.id) == node.capacity - allocated, node.id

    for step in range(2000):
        op = rng.choice(["place", "place", "release", "evict", "link"])
        if op == "place":
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
            before = inv.state_document()
            try:
                inv.place(placement(f"r{step}", rng.choice(node_ids), resources), bookings)
                booked.extend((f"r{step}", b) for b in bookings)
            except InsufficientResources:
                assert inv.state_document() == before
        elif op == "release" and booked:
            request_id, booking = booked.pop(rng.randrange(len(booked)))
            inv.release_placement_bandwidth(request_id, booking.path, booking.mbps)
        elif op == "evict":
            gone = set(inv.evict_placements_on(rng.choice(node_ids)))
            booked = [(r, b) for r, b in booked if r not in gone]
        elif op == "link":
            topo.set_link_state(rng.choice(link_ids), rng.random() < 0.6)
        check_invariants()
