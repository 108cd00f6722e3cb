"""Seeded topology documents and request streams for the three workloads.

Everything here produces plain documents (dicts of str/int/float), the same
shape `foglet.load_topology` and `Engine.submit` accept from a file or the
HTTP API; the engine never sees a generator object.

Request streams are made of rounds. Every round of a workload has the same
make-up (how many detectors, stores, pins, deferred flows, probes) and the
seed only varies the parameters and the order, so a round's cost does not
drift with the seed and every round attempts the same number of operations.
"""

from __future__ import annotations

import random

# Seed-independent float-vCPU probes (see README, "float-vCPU fault"): each
# probe node gets its base footprints during set-up; the probe request then
# asks for what exact arithmetic says is left, and a float ledger refuses it.
# (capacity, base footprints, probe footprint), all in vCPUs.
FLOAT_PROBES = (
    (0.3, (0.1,), 0.2),
    (0.7, (0.3, 0.1), 0.3),
    (0.7, (0.3, 0.3), 0.1),
)

SVS = "signaling_and_video_streaming"
INTERACTIVE = "interactive_application"


def _node(id, tier, vcpus, ram, disk, region, labels=(), cache_mib=0):
    doc = {"id": id, "tier": tier, "vcpus": vcpus, "ram_mib": ram,
           "disk_gib": disk, "region": region, "labels": list(labels)}
    if cache_mib:
        doc["cache_mib"] = cache_mib
    return doc


def _link(id, a, b, bw, lat):
    return {"id": id, "a": a, "b": b, "bandwidth_mbps": bw, "latency_ms": lat}


# -- admit-tree --------------------------------------------------------------

TREE_CLOUDLETS = 12
TREE_GATEWAYS = 5


def tree_topology(seed: int) -> dict:
    """1 cloud, 12 like cloudlets over thin WAN links, 5 small gateways each
    with one camera, plus one tiny node per float probe. The seed places the
    labels and draws the latencies; capacities are the same in every region
    so that which regions a round loads does not change its cost."""
    rng = random.Random(f"tree-topology-{seed}")
    gpu = set(rng.sample(range(TREE_CLOUDLETS), TREE_CLOUDLETS // 4))
    ssd = set(rng.sample(range(TREE_CLOUDLETS), TREE_CLOUDLETS // 2))
    nodes = [_node("cloud", "cloud", 8, 16384, 4000, "core", ("gpu", "ssd"))]
    links, endpoints = [], []
    for c in range(TREE_CLOUDLETS):
        region, cl = f"r{c:02d}", f"cl{c:02d}"
        labels = [l for l, has in (("gpu", c in gpu), ("ssd", c in ssd)) if has]
        nodes.append(_node(cl, "edge_cloudlet", 2, 4096, 500, region, labels))
        links.append(_link(f"wan-{c:02d}", "cloud", cl, 10, rng.randint(15, 40)))
        for g in range(TREE_GATEWAYS):
            gw = f"gw{c:02d}-{g}"
            nodes.append(_node(gw, "edge_gateway", 1, 1024, 32, region))
            links.append(_link(f"lan-{c:02d}-{g}", cl, gw, 100, rng.randint(1, 5)))
            endpoints.append({"id": f"cam-{c:02d}-{g}", "node": gw, "kind": "camera"})
    for i, (cap, _, _) in enumerate(FLOAT_PROBES):
        nodes.append(_node(f"probe-{i}", "edge_gateway", cap, 64, 1, f"probe-{i}"))
        links.append(_link(f"probe-link-{i}", "cloud", f"probe-{i}", 100, 5))
    return {"nodes": nodes, "links": links, "endpoints": endpoints}


def probe_base_requests() -> list:
    """Set-up placements that leave each probe node with a decimal remainder."""
    out = []
    for i, (_, base, _) in enumerate(FLOAT_PROBES):
        for j, vcpus in enumerate(base):
            out.append(_probe_doc(i, f"probe-base-{i}-{j}", vcpus))
    return out


def probe_requests() -> list:
    return [_probe_doc(i, f"probe-ask-{i}", ask) for i, (_, _, ask) in enumerate(FLOAT_PROBES)]


def _probe_doc(i, name, vcpus):
    return {
        "tenant": "probe",
        "component": {"name": name, "image": "bench/probe:1"},
        "requirements": [
            {"compute": {"vcpus": vcpus, "ram_mib": 16, "disk_gib": 0}},
            {"location": {"region": f"probe-{i}"}},
        ],
    }


# -- admit-mesh --------------------------------------------------------------

MESH_K = 6


def mesh_topology(seed: int) -> dict:
    """k x k edge gateways, 4-neighbour links of equal bandwidth, cameras at
    the four corners and at four interior gateways placed symmetrically. The
    seed places the labels and draws the latencies."""
    rng = random.Random(f"mesh-topology-{seed}")
    k = MESH_K
    nodes, links, endpoints = [], [], []

    def gid(r, c):
        return f"g{r}-{c}"

    cells = [(r, c) for r in range(k) for c in range(k)]
    gpu = set(rng.sample(cells, len(cells) // 4))
    ssd = set(rng.sample(cells, len(cells) // 4))
    for r, c in cells:
        region = f"q{(r >= k // 2) * 2 + (c >= k // 2)}"
        labels = [l for l, has in (("gpu", (r, c) in gpu), ("ssd", (r, c) in ssd)) if has]
        nodes.append(_node(gid(r, c), "edge_gateway", 2 + (r + c) % 3,
                           2048 * (1 + (r + c) % 2), 64, region, labels))
    for r, c in cells:
        if c + 1 < k:
            links.append(_link(f"h{r}-{c}", gid(r, c), gid(r, c + 1), 20, rng.randint(1, 4)))
        if r + 1 < k:
            links.append(_link(f"v{r}-{c}", gid(r, c), gid(r + 1, c), 20, rng.randint(1, 4)))
    near, far = k // 4, k - 1 - k // 4
    spots = [(0, 0), (0, k - 1), (k - 1, 0), (k - 1, k - 1),
             (near, near), (near, far), (far, near), (far, far)]
    for i, (r, c) in enumerate(spots):
        endpoints.append({"id": f"cam-{i}", "node": gid(r, c), "kind": "camera"})
    return {"nodes": nodes, "links": links, "endpoints": endpoints}


# -- application streams (both admit workloads) ------------------------------


SECOND_REQUEST_LAG = 3


def deal(rng, choices, n) -> list:
    """`n` values cycling through `choices`, shuffled: the seed decides who
    gets which value, never how many of each there are."""
    out = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(out)
    return out


def app_round(rng, tag, cameras, regions_of, shape) -> list:
    """One round of application requests.

    `shape` fixes the make-up: the number of apps (half of their detectors
    carry a network requirement toward their camera), how many detectors are
    location-pinned and how many stores are access-pinned, how many apps
    submit the detector before its store (so its store flow is deferred),
    how many detectors carry no compute requirement (default footprint),
    and the camera stream rates. App i feeds camera i mod len(cameras).
    Every app is a detector plus a store under its own tenant. Returns the
    request documents in submission order; the seed draws the parameters,
    never the make-up or the order.
    """
    n = shape["apps"]
    k = len(cameras)
    cams = [cameras[i % k] for i in range(n)]
    # Camera by camera, every other app is covered, so each hot camera gets
    # the same share of covered detectors. Each flag below goes to evenly
    # spaced apps of the covered and of the uncovered half, both in camera
    # order, so which kinds of camera get pinned apps does not hang on the
    # seed either; the seed only picks among neighbours.
    by_camera = sorted(range(n), key=lambda i: (i % k, i))
    covered = [False] * n
    for rank, i in enumerate(by_camera):
        covered[i] = rank % 2 == 0
    halves = ([i for i in by_camera if covered[i]], [i for i in by_camera if not covered[i]])
    flags = {}
    for key in ("pin_location", "pin_access", "detector_first", "default_footprint"):
        flags[key] = [False] * n
        for half, share in zip(halves, ((shape[key] + 1) // 2, shape[key] // 2)):
            for j in range(share):
                flags[key][half[int((j + rng.random()) * len(half) / share)]] = True
    profiles = deal(rng, (SVS, INTERACTIVE), n)
    det_cpu = deal(rng, ("compute_optimized", "general_purpose"), n)
    det_vcpus = deal(rng, (0.5, 1, 1.5, 2), n)
    det_ram = deal(rng, (512, 1024, 2048), n)
    det_disk = deal(rng, (1, 2), n)
    cam_rates = deal(rng, shape["camera_mbps"], n)
    store_rates = deal(rng, (0.2, 0.5, 1.0), n)
    store_vcpus = deal(rng, (0.25, 0.5), n)
    store_ram = deal(rng, (256, 512), n)
    store_disk = deal(rng, (8, 16), n)
    labels = deal(rng, ("gpu", "ssd"), n)
    apps = []
    for i in range(n):
        tenant, cam, store_name = f"{tag}-a{i:02d}", cams[i], f"store-{i:02d}"
        det_reqs = []
        if covered[i]:
            det_reqs.append({"network": {"profile": profiles[i], "endpoint": cam}})
        if not flags["default_footprint"][i]:
            det_reqs.append({"compute": {"profile": det_cpu[i], "vcpus": det_vcpus[i],
                                         "ram_mib": det_ram[i], "disk_gib": det_disk[i]}})
        if flags["pin_location"][i]:
            det_reqs.append({"location": {"region": regions_of[cam]}})
        detector = {
            "tenant": tenant,
            "component": {
                "name": f"det-{i:02d}",
                "image": "bench/detector:1",
                "flows": [
                    {"from_endpoint": cam, "rate_mbps": cam_rates[i]},
                    {"to_component": store_name, "rate_mbps": store_rates[i]},
                ],
            },
            "requirements": det_reqs,
        }
        store_reqs = [{"compute": {"profile": "storage_optimized", "vcpus": store_vcpus[i],
                                   "ram_mib": store_ram[i], "disk_gib": store_disk[i]}}]
        if flags["pin_access"][i]:
            store_reqs.append({"access": {"label": labels[i]}})
        store = {
            "tenant": tenant,
            "component": {"name": store_name, "image": "bench/store:1"},
            "requirements": store_reqs,
        }
        apps.append((detector, store) if flags["detector_first"][i] else (store, detector))
    # A fixed submission pattern: covered apps first, then the others, and
    # each app's second request three apps after its first, so deferred
    # flows wait across other decisions. How full the network is when a
    # covered detector routes sets how many nodes it scores, so the seed
    # must not choose where covered detectors fall in a round.
    seq = [apps[i] for i in halves[0] + halves[1]]
    out = []
    for t in range(n + SECOND_REQUEST_LAG):
        if t < n:
            out.append(seq[t][0])
        if t >= SECOND_REQUEST_LAG:
            out.append(seq[t - SECOND_REQUEST_LAG][1])
    return out


TREE_RATES = (2.0, 2.5, 3.0, 4.0)
MESH_RATES = (4.0, 5.0, 6.0)  # HD cameras
TREE_SHAPE = {"apps": 20, "pin_location": 6, "pin_access": 6,
              "detector_first": 10, "default_footprint": 4, "camera_mbps": TREE_RATES}
TREE_BASE_SHAPE = {"apps": 10, "pin_location": 2, "pin_access": 2,
                   "detector_first": 5, "default_footprint": 2, "camera_mbps": TREE_RATES}
MESH_SHAPE = {"apps": 16, "pin_location": 4, "pin_access": 4,
              "detector_first": 8, "default_footprint": 4, "camera_mbps": MESH_RATES}
MESH_BASE_SHAPE = {"apps": 6, "pin_location": 2, "pin_access": 2,
                   "detector_first": 3, "default_footprint": 1, "camera_mbps": MESH_RATES}


def regions_of_cameras(topo_doc) -> dict:
    region = {n["id"]: n["region"] for n in topo_doc["nodes"]}
    return {e["id"]: region[e["node"]] for e in topo_doc["endpoints"]}


def admit_stream(workload: str, seed: int, round_index: int, topo_doc) -> list:
    """Round `round_index` of the timed stream; round -1 is the set-up base."""
    rng = random.Random(f"{workload}-stream-{seed}-{round_index}")
    regions = regions_of_cameras(topo_doc)
    cameras = sorted(regions)
    if workload == "admit-tree" and round_index < 0:
        # The base: one camera in each of ten regions, so every base app
        # fits and the base state has the same make-up for every seed.
        picked = set(rng.sample(sorted(set(regions.values())), TREE_BASE_SHAPE["apps"]))
        cameras = [c for c in cameras if regions[c] in picked and c.endswith("-0")]
    elif workload == "admit-tree":
        # Four hot regions per round, so their thin WAN links and small
        # gateways fill up and the round ends in rejections.
        hot = set(rng.sample(sorted(set(regions.values())), 4))
        cameras = [c for c in cameras if regions[c] in hot]
    else:
        # Three hot corner cameras and one hot interior one per round.
        # Corner requirements are the costliest to route; with this many of
        # them p95 lies well inside their group rather than on its edge,
        # where the seed would move it.
        cameras = rng.sample(cameras[:4], 3) + rng.sample(cameras[4:], 1)
    base = round_index < 0
    if workload == "admit-tree":
        shape = TREE_BASE_SHAPE if base else TREE_SHAPE
    else:
        shape = MESH_BASE_SHAPE if base else MESH_SHAPE
    tag = "base" if base else f"r{round_index}"
    docs = app_round(rng, tag, cameras, regions, shape)
    if workload == "admit-tree" and not base:
        # Probes sit at fixed places so every round attempts the same ones.
        for k, probe in enumerate(probe_requests()):
            docs.insert((k + 1) * len(docs) // (len(FLOAT_PROBES) + 1) + k, probe)
    return docs


# -- fault-drain -------------------------------------------------------------

DRAIN_CLOUDLETS = 10
DRAIN_GATEWAYS = 4
DRAIN_CAMERAS_PER_GATEWAY = 1
DRAIN_APPS_PER_REGION = 80
DRAIN_TENANTS = 8
DRAIN_CACHELESS = 2
DRAIN_CACHE_MIB = 8192


def drain_topology(seed: int) -> dict:
    """1 cloud, 10 cloudlets (all but two with a fault cache), 4 gateways per
    cloudlet, one camera-carrying swarm node per gateway."""
    rng = random.Random(f"drain-topology-{seed}")
    cacheless = set(rng.sample(range(DRAIN_CLOUDLETS), DRAIN_CACHELESS))
    nodes = [_node("cloud", "cloud", 256, 1048576, 10000, "core", ("analytics",))]
    links, endpoints = [], []
    for c in range(DRAIN_CLOUDLETS):
        region, cl = f"f{c:02d}", f"cl{c:02d}"
        nodes.append(_node(cl, "edge_cloudlet", 16, 32768, 1000, region,
                           cache_mib=0 if c in cacheless else DRAIN_CACHE_MIB))
        links.append(_link(f"wan-{c:02d}", "cloud", cl, rng.choice((150, 200, 250)),
                           rng.randint(15, 40)))
        for g in range(DRAIN_GATEWAYS):
            gw = f"gw{c:02d}-{g}"
            nodes.append(_node(gw, "edge_gateway", 4, 4096, 32, region))
            links.append(_link(f"lan-{c:02d}-{g}", cl, gw, 1000, rng.randint(1, 5)))
            for s in range(DRAIN_CAMERAS_PER_GATEWAY):
                sw = f"sw{c:02d}-{g}-{s}"
                nodes.append(_node(sw, "swarm_of_things", 0, 0, 0, region))
                links.append(_link(f"air-{c:02d}-{g}-{s}", gw, sw, 100, 1))
                endpoints.append({"id": f"cam-{c:02d}-{g}-{s}", "node": sw, "kind": "camera"})
    return {"nodes": nodes, "links": links, "endpoints": endpoints}


def drain_population(seed: int, topo_doc) -> list:
    """One analyzer per tenant on the cloud, then region-pinned edge apps,
    each fed by a camera of its region and sending to its tenant's analyzer."""
    rng = random.Random(f"drain-population-{seed}")
    docs = [{
        "tenant": f"t{t}",
        "component": {"name": "analyzer", "image": "bench/analyzer:1"},
        "requirements": [
            {"compute": {"vcpus": 2, "ram_mib": 4096, "disk_gib": 20}},
            {"access": {"label": "analytics"}},
        ],
    } for t in range(DRAIN_TENANTS)]
    cams_by_region = {}
    regions = regions_of_cameras(topo_doc)
    for cam in sorted(regions):
        cams_by_region.setdefault(regions[cam], []).append(cam)
    apps = []
    for c in range(DRAIN_CLOUDLETS):
        region = f"f{c:02d}"
        for i in range(DRAIN_APPS_PER_REGION):
            apps.append({
                "tenant": f"t{rng.randrange(DRAIN_TENANTS)}",
                "component": {
                    "name": f"edge-{c:02d}-{i:03d}",
                    "image": "bench/edge:1",
                    "flows": [
                        {"from_endpoint": rng.choice(cams_by_region[region]),
                         "rate_mbps": rng.choice((0.5, 1.0, 1.5, 2.0))},
                        {"to_component": "analyzer",
                         "rate_mbps": rng.choice((0.1, 0.2, 0.25, 0.4))},
                    ],
                },
                "requirements": [
                    {"compute": {"vcpus": 0.25, "ram_mib": 128, "disk_gib": 1}},
                    {"location": {"region": region}},
                ],
            })
    rng.shuffle(apps)
    return docs + apps


def storm_round(seed: int, round_index: int, topo_doc) -> list:
    """One fault storm: a list of ("down"|"up", link) and ("advance", dt).

    Two cached WAN links fail with overlapping outages, one of them fails
    again while it drains, and one cacheless region loses data. Every link
    is back up at the end of the round, with cached regions still draining.
    """
    rng = random.Random(f"storm-{seed}-{round_index}")
    cached = {n["id"] for n in topo_doc["nodes"] if n.get("cache_mib")}
    wans = sorted(l["id"] for l in topo_doc["links"] if l["id"].startswith("wan-"))
    with_cache = [l for l in wans if f"cl{l[4:]}" in cached]
    a, b = rng.sample(with_cache, 2)
    c = rng.choice(sorted(set(wans) - set(with_cache)))

    def dt():
        return ("advance", rng.choice((10, 15, 20, 30)))

    return [
        ("down", a), dt(),
        ("down", b), dt(),
        ("up", a), ("advance", 5),
        ("down", a), dt(),
        ("up", a), dt(),
        ("down", c), dt(),
        ("up", b), ("advance", 5),
        ("up", c), ("advance", 5),
    ]
