"""Widest-shortest routing against an enumerating oracle.

`Topology.path_between` routes with BFS layers, a max-min pass over the
min-hop sub-DAG and a greedy walk. The oracle below lists every minimum-hop
path and applies the documented rule to the list: fewest hops, widest
bottleneck, then the lexicographically smallest link-id sequence read from
the smaller-id end. It shares no code with the router.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from foglet.topology import Unreachable, load_topology


def min_hop_paths(topo, a, b):
    """All minimum-hop simple paths from a to b over up links."""
    if a == b:
        return [()]
    adjacency = {n: [] for n in topo.nodes}
    for lid, link in topo.links.items():
        if link.up:
            adjacency[link.a].append(lid)
            adjacency[link.b].append(lid)
    dist = {a: 0}
    frontier = [a]
    while frontier and b not in dist:
        nxt = []
        for at in frontier:
            for lid in adjacency[at]:
                other = topo.links[lid].other(at)
                if other not in dist:
                    dist[other] = dist[at] + 1
                    nxt.append(other)
        frontier = nxt
    if b not in dist:
        return []
    paths = []

    def backtrack(at, suffix):
        if at == a:
            paths.append(tuple(reversed(suffix)))
            return
        for lid in adjacency[at]:
            prev = topo.links[lid].other(at)
            if dist.get(prev) == dist[at] - 1:
                suffix.append(lid)
                backtrack(prev, suffix)
                suffix.pop()

    backtrack(b, [])
    return paths


def enumerated_path(topo, a, b, residual):
    """The documented rule applied to the full list of min-hop paths; None
    when b is unreachable."""
    if a == b:
        return ()
    lo, hi = (a, b) if a <= b else (b, a)
    candidates = min_hop_paths(topo, lo, hi)
    if not candidates:
        return None

    def bottleneck(path):
        return min(residual.get(lid, topo.links[lid].bandwidth_mbps) for lid in path)

    best = min(candidates, key=lambda p: (-bottleneck(p), p))
    return best if a == lo else tuple(reversed(best))


def routed(topo, a, b, residual):
    try:
        return topo.path_between(a, b, residual)
    except Unreachable:
        return None


# -- generated shapes ----------------------------------------------------------------
# Node and link names are drawn from a shuffled pool, so id order and position
# in the graph are unrelated ("n10" sorts before "n2").

def grid_edges(k):
    cell = lambda r, c: r * k + c  # noqa: E731
    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((cell(r, c), cell(r, c + 1)))
            if r + 1 < k:
                edges.append((cell(r, c), cell(r + 1, c)))
    return k * k, edges


def diamonds_edges(k):
    # k diamonds in a row: hub i fans out to two middles that rejoin at hub i+1.
    edges = []
    for i in range(k):
        hub, left, right, nxt = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(hub, left), (hub, right), (left, nxt), (right, nxt)]
    return 3 * k + 1, edges


def ladder_edges(k):
    # Two rails of k nodes joined by k rungs.
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return 2 * k, edges


SHAPES = {"grid": grid_edges, "diamonds": diamonds_edges, "ladder": ladder_edges}
# Few distinct widths, so ties on the bottleneck are common; fractions
# included, and 0 for a saturated link.
WIDTHS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(4)]


@st.composite
def routing_cases(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    n, edges = SHAPES[shape](draw(st.integers(2, 5)))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    link_ids = draw(st.permutations([f"l{i}" for i in range(len(edges))]))
    capacities = draw(st.lists(st.sampled_from(WIDTHS[1:]), min_size=len(edges),
                               max_size=len(edges)))
    topo = load_topology({
        "nodes": [{"id": name, "tier": "edge_cloudlet", "vcpus": 1, "ram_mib": 64,
                   "disk_gib": 1} for name in names],
        "links": [{"id": lid, "a": names[u], "b": names[v], "bandwidth_mbps": cap,
                   "latency_ms": 1}
                  for lid, (u, v), cap in zip(link_ids, edges, capacities)],
    })
    for lid in sorted(topo.links):
        if draw(st.integers(0, 5)) == 0:
            topo.set_link_state(lid, False)
    # A residual for most links; a missing one reads as the link's capacity.
    residual = {}
    for lid in sorted(topo.links):
        width = draw(st.sampled_from(WIDTHS + [None]))
        if width is not None:
            residual[lid] = width
    a = draw(st.sampled_from(names))
    b = draw(st.sampled_from(names))
    return topo, residual, a, b


@given(routing_cases())
def test_path_between_matches_enumerating_oracle(case):
    topo, residual, a, b = case
    for src, dst in ((a, b), (b, a)):
        assert routed(topo, src, dst, residual) == enumerated_path(topo, src, dst, residual)


@given(routing_cases())
def test_paths_to_matches_path_between(case):
    topo, residual, _, target = case
    paths = topo.paths_to(target, sorted(topo.nodes), residual)
    for source in sorted(topo.nodes):
        assert paths[source] == routed(topo, source, target, residual)


def test_grid_corner_route_is_widest_then_smallest_ids():
    # 3x3 grid, every link 10 wide except one on the row-first route: the
    # router leaves the lexicographically first path for the widest one.
    n, edges = grid_edges(3)
    topo = load_topology({
        "nodes": [{"id": f"n{i}", "tier": "edge_cloudlet", "vcpus": 1, "ram_mib": 64,
                   "disk_gib": 1} for i in range(n)],
        "links": [{"id": f"l{i}", "a": f"n{u}", "b": f"n{v}", "bandwidth_mbps": 10,
                   "latency_ms": 1} for i, (u, v) in enumerate(edges)],
    })
    residual = {lid: Fraction(10) for lid in topo.links}
    assert topo.path_between("n0", "n8", residual) == enumerated_path(topo, "n0", "n8", residual)
    first = topo.path_between("n0", "n8", residual)
    residual[first[0]] = Fraction(1)
    second = topo.path_between("n0", "n8", residual)
    assert second[0] != first[0] and len(second) == len(first) == 4
    assert second == enumerated_path(topo, "n0", "n8", residual)
    assert topo.path_between("n8", "n0", residual) == tuple(reversed(second))
