import hashlib
from itertools import combinations, permutations

import pytest

from firebreak import families
from firebreak.families import (
    FAMILIES,
    connected_by_class,
    enumerate_connected,
    grid_hex,
    grid_rect,
    grid_tri,
    random_ktree,
    random_regular,
    random_tree,
)
from firebreak.graphs import Graph, GraphError, canonical_form
from firebreak.structure import is_forest


def test_complete_edge_count():
    assert FAMILIES["complete"](n=5).m == 10


def test_petersen_shape():
    g = FAMILIES["petersen"]()
    assert g.n == 10 and g.m == 15
    assert all(d == 3 for d in g.degrees())


def test_random_ktree_edge_count():
    g = random_ktree(10, 2, seed=7)
    assert g.m == 2 * 10 - 3
    for k in (1, 2, 3):
        g = random_ktree(9, k, seed=1)
        assert g.m == k * 9 - k * (k + 1) // 2


def test_invalid_params():
    with pytest.raises(GraphError):
        FAMILIES["cycle"](n=2)
    with pytest.raises(GraphError):
        FAMILIES["grid_rect"](w=1, h=5)
    with pytest.raises(GraphError):
        random_regular(5, 3)  # odd n*d


def test_seed_determinism():
    for family, params in [
        ("random_tree", dict(n=12, seed=3)),
        ("random_ktree", dict(n=9, k=2, seed=3)),
        ("random_regular", dict(n=10, d=3, seed=3)),
    ]:
        a = FAMILIES[family](**params)
        b = FAMILIES[family](**params)
        assert a == b


def test_random_tree_is_tree():
    for seed in range(5):
        g = random_tree(15, seed)
        assert g.m == 14 and g.is_connected() and is_forest(g, range(g.m))
        assert random_tree(2, seed).edges == ((0, 1),)


def test_random_regular_properties():
    cases = [(12, 3, s) for s in range(5)] + [(12, 4, s) for s in range(5)] + [(24, 5, 0)]
    for n, d, seed in cases:
        g = random_regular(n, d, seed)
        assert g.n == n and all(deg == d for deg in g.degrees())
        assert g.is_connected()
        assert not g.has_parallel_edges()


def _pinned_regular_cases():
    for d in (2, 3, 4):
        for n in range(d + 1, 27):
            if n * d % 2 == 0:
                yield from ((n, d, seed) for seed in range(6))
    # the benchmark's and the verify suites' instances
    yield from [(24, 5, 0), (20, 4, 0), (18, 3, 0), (20, 3, 0), (16, 4, 0), (16, 3, 0)]
    yield from ((12, 4, seed) for seed in range(13))


def test_random_regular_pinned():
    # the digest of the edge lists that rng.shuffle's pairings gave; every
    # Python the package supports must draw the same graphs
    digest = hashlib.sha256()
    count = 0
    for n, d, seed in _pinned_regular_cases():
        digest.update(repr((n, d, seed, random_regular(n, d, seed).edges)).encode())
        count += 1
    assert count == 348 + 19
    assert digest.hexdigest() == "9d02871a03c8fcd44f0f8fa1ae6625c1e35c74a273bb4afc83a9b9eac01fe00d"


def test_random_regular_stub_limit(monkeypatch):
    # random_regular(12, 3, 4) succeeds on its 17th try of 36 stubs
    g = random_regular(12, 3, 4)
    monkeypatch.setattr(families, "PAIRING_STUB_LIMIT", 17 * 36)
    assert random_regular(12, 3, 4).edges == g.edges
    monkeypatch.setattr(families, "PAIRING_STUB_LIMIT", 17 * 36 - 1)
    with pytest.raises(GraphError, match="^pairing model gave up after 16 tries"):
        random_regular(12, 3, 4)
    with pytest.raises(GraphError, match="^pairing model gave up after 0 tries"):
        random_regular(10**6, 4)


@pytest.mark.parametrize("family, params", [
    ("complete", {"n": 1414}), ("complete_bipartite", {"p": 1000, "q": 999}), ("path", {"n": 500_001}),
    ("cycle", {"n": 500_001}), ("star", {"n": 500_001}), ("path_power", {"n": 333_335, "k": 2}),
    ("prism", {"n": 200_001}), ("grid_rect", {"w": 500, "h": 668}), ("grid_tri", {"w": 2, "h": 166_668}),
    ("grid_hex", {"w": 500, "h": 801}), ("random_tree", {"n": 500_001}), ("random_ktree", {"n": 250_002, "k": 3}),
])
def test_family_past_the_size_limit(family, params):
    # the smallest graph of each row's shape with more than a million vertices
    # plus edges, refused from the parameters before a vertex or an edge is
    # listed; the CLI fuzz in test_cli.py takes sizes up to 10**20
    with pytest.raises(GraphError, match="would have more than 1,000,000 vertices and edges in all$"):
        FAMILIES[family](**params)


@pytest.mark.parametrize("family, params", [
    ("complete", {"n": 6}), ("complete_bipartite", {"p": 3, "q": 4}), ("path", {"n": 5}), ("cycle", {"n": 5}),
    ("star", {"n": 5}), ("path_power", {"n": 7, "k": 3}), ("path_power", {"n": 4, "k": 9}), ("prism", {"n": 4}),
    ("grid_rect", {"w": 3, "h": 4}), ("grid_tri", {"w": 4, "h": 5}), ("grid_tri", {"w": 3, "h": 2}),
    ("grid_hex", {"w": 5, "h": 4}), ("grid_hex", {"w": 4, "h": 5}), ("grid_hex", {"w": 5, "h": 5}),
    ("random_tree", {"n": 6}), ("random_ktree", {"n": 8, "k": 3}),
])
def test_size_limit_counts_vertices_and_edges(monkeypatch, family, params):
    # each builder counts exactly the vertices and edges it lists: the graph
    # is built at a limit of its size and refused one below it
    g = FAMILIES[family](**params)
    monkeypatch.setattr(families, "GRAPH_SIZE_LIMIT", g.n + g.m)
    assert FAMILIES[family](**params) == g
    monkeypatch.setattr(families, "GRAPH_SIZE_LIMIT", g.n + g.m - 1)
    with pytest.raises(GraphError, match=f"would have more than {g.n + g.m - 1} vertices and edges in all$"):
        FAMILIES[family](**params)


def test_random_regular_below_degree_two():
    assert random_regular(1, 0) == Graph(1, [])
    assert random_regular(2, 1) == Graph(2, [(0, 1)])
    for n, d in ((4, 0), (4, 1)):
        with pytest.raises(GraphError, match="needs n = d\\+1"):
            random_regular(n, d)
    for n, d in ((0, -1), (3, -2)):
        with pytest.raises(GraphError, match="^d-regular graph needs d >= 0$"):
            random_regular(n, d)


def test_grid_shapes():
    r = grid_rect(4, 5)
    assert r.n == 20 and r.m == 4 * 4 + 3 * 5
    t = grid_tri(5, 5)
    inner = [r_ * 5 + c for r_ in range(1, 4) for c in range(1, 4)]
    assert max(t.degree(v) for v in inner) == 6
    hx = grid_hex(6, 6)
    assert hx.max_degree() <= 3 and hx.is_connected()


def test_path_power_clique_width():
    g = FAMILIES["path_power"](n=8, k=3)
    assert g.degree(0) == 3
    assert g.degree(4) == 6


def test_enumerate_connected_counts():
    # labelled connected graphs on n vertices (OEIS A001187)
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
    for n, count in expected.items():
        assert sum(1 for _ in enumerate_connected(n)) == count


def test_enumerate_connected_unique_and_connected():
    seen = set()
    for g in enumerate_connected(4):
        key = tuple(sorted(g.edges))
        assert key not in seen
        seen.add(key)
        assert g.is_connected()


def test_enumerate_connected_graphs_match_constructor():
    # the yielded graphs skip Graph's checks, so compare every one with a checked copy
    for n in range(1, 7):
        for g in enumerate_connected(n):
            h = Graph(g.n, g.edges)
            assert (g.n, g.edges) == (h.n, h.edges)
            assert g.adj_mask == h.adj_mask and g.adj == h.adj
            assert g == h and hash(g) == hash(h)


def test_enumerate_connected_builds_its_tables_once(monkeypatch):
    first = [(g.n, g.edges) for g in enumerate_connected(5)]

    def rebuilt(*args):
        raise AssertionError("the n = 5 tables were built again")

    monkeypatch.setattr(families, "_pair_subsets", rebuilt)
    assert [(g.n, g.edges) for g in enumerate_connected(5)] == first


def enumerate_reference(n):
    pair_list = list(combinations(range(n), 2))
    for word in range(1 << len(pair_list)):
        edges = [pair_list[i] for i in range(len(pair_list)) if (word >> i) & 1]
        if len(edges) < n - 1:
            continue
        g = Graph(n, edges)
        if g.is_connected():
            yield g


def test_enumerate_connected_matches_reference():
    # same graphs, same order, same edge order as the one-Graph-per-word sweep
    for n in range(1, 7):
        got = [(g.n, g.edges) for g in enumerate_connected(n)]
        assert got == [(g.n, g.edges) for g in enumerate_reference(n)], n


def test_enumerate_range_check():
    with pytest.raises(GraphError):
        list(enumerate_connected(0))
    with pytest.raises(GraphError):
        list(enumerate_connected(7))


def test_connected_by_class_matches_canonical_form():
    # same graphs in the same order as enumerate_connected, and the same
    # grouping as canonical_form, on every connected graph with n <= 5
    for n in range(1, 6):
        pairs = list(connected_by_class(n))
        assert [g.edges for g, _ in pairs] == [g.edges for g in enumerate_connected(n)]
        by_form = {}
        assert [cls for _, cls in pairs] == [by_form.setdefault(canonical_form(g), len(by_form)) for g, _ in pairs]


def test_connected_by_class_counts_and_members():
    # classes per n (OEIS A001349), class sizes summing to the labelled
    # counts, and for n <= 5 every member a relabelling of its first graph
    counts, sizes = [], []
    for n in range(1, 7):
        members = {}
        for g, cls in connected_by_class(n):
            members.setdefault(cls, []).append(g)
        assert list(members) == list(range(len(members)))
        counts.append(len(members))
        sizes.append(sum(map(len, members.values())))
        if n > 5:
            continue
        for first, *rest in members.values():
            images = {tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in first.edges))
                      for p in permutations(range(n))}
            assert all(g.edges in images for g in rest)
    assert counts == [1, 1, 2, 6, 21, 112]
    assert sizes == [1, 1, 4, 38, 728, 26704]


def test_connected_by_class_range_check():
    for n in (0, 7):
        with pytest.raises(GraphError, match="supports 1 <= n <= 6"):
            next(connected_by_class(n))
