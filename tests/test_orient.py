import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firebreak.families import (
    complete,
    complete_bipartite,
    cube,
    cycle,
    enumerate_connected,
    grid_tri,
    k33,
    path,
    petersen,
    prism,
    random_ktree,
    random_regular,
    random_tree,
    star,
)
from firebreak.graphs import Graph, GraphError, bits, bridges, mask_of, write_orientation
from firebreak.orient import (
    RECIPES,
    _orient_forest_edges,
    orient_bipartite,
    orient_bounded_degree,
    orient_by_colouring,
    orient_by_fvs,
    orient_by_forests,
    orient_complete,
    orient_grid,
    orient_half,
    orient_ktree,
    orient_subcubic,
    orient_tree,
    orient_unicyclic,
)
from firebreak.structure import exact_colouring, forest_peel, is_forest, ktree_structure, min_fvs


def outdegs(o):
    return [o.out_degree(v) for v in range(o.n)]


# --- trees


def test_tree_p3_rooted_middle():
    assert outdegs(orient_tree(path(3), root=1)) == [1, 0, 1]


def test_tree_star_rooted_centre():
    o = orient_tree(star(5), root=0)
    assert o.out_degree(0) == 0
    assert all(o.out_degree(v) == 1 for v in range(1, 5))


def test_tree_random_max_outdegree_one():
    o = orient_tree(random_tree(50, 3), root=0)
    assert o.max_out_degree() == 1


def test_tree_rejects_cycles():
    with pytest.raises(GraphError):
        orient_tree(cycle(4), root=0)


# --- half-degree


@pytest.mark.parametrize("g", [cycle(5), complete(4), complete(5), petersen()])
def test_half_degree_bound(g):
    o = orient_half(g)
    assert all(o.out_degree(v) <= g.degree(v) // 2 + 1 for v in range(g.n))


def test_half_single_cycle_is_outregular():
    assert outdegs(orient_half(cycle(5))) == [1] * 5


def test_half_handshake():
    for seed in range(5):
        g = random_regular(10, 3, seed)
        assert sum(outdegs(orient_half(g))) == g.m


# --- unicyclic


def test_unicyclic_cycle():
    assert outdegs(orient_unicyclic(cycle(6))) == [1] * 6


def test_unicyclic_with_pendant_path():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert outdegs(orient_unicyclic(g)) == [1] * 5


def test_unicyclic_rejects_dense():
    with pytest.raises(GraphError):
        orient_unicyclic(complete(4))


# --- complete


def test_complete_odd_outregular():
    assert outdegs(orient_complete(5)) == [2] * 5
    assert outdegs(orient_complete(3)) == [1] * 3


def test_complete_even_sink():
    o = orient_complete(6)
    assert o.out_degree(5) == 0 and o.in_degree(5) == 5
    assert all(o.out_degree(v) == 3 for v in range(5))


# --- bipartite


def test_bipartite_k23_chooses_low_degree_side():
    o = orient_bipartite(complete_bipartite(2, 3))
    assert o.max_out_degree() == 2


def test_bipartite_c4_two_sources_two_sinks():
    o = orient_bipartite(cycle(4))
    assert sorted(outdegs(o)) == [0, 0, 2, 2]


def test_bipartite_rejects_odd_clique():
    with pytest.raises(GraphError):
        orient_bipartite(complete(5))


# --- colouring


def _longest_directed_path(o):
    @functools.lru_cache(None)
    def lp(v):
        return max((1 + lp(w) for w in bits(o.out_mask[v])), default=0)

    return max(lp(v) for v in range(o.n))


def test_colouring_k3_transitive():
    o = orient_by_colouring(complete(3), [[0], [1], [2]])
    assert o.arcs == ((0, 1), (0, 2), (1, 2))


def test_colouring_petersen_three_parts():
    parts = exact_colouring(petersen(), 3)
    o = orient_by_colouring(petersen(), parts)
    assert _longest_directed_path(o) <= 2


def test_colouring_is_acyclic():
    g = random_regular(10, 3, 1)
    parts = exact_colouring(g, 3) or exact_colouring(g, 4)
    o = orient_by_colouring(g, parts)
    # directed acyclicity via the longest-path recursion terminating
    assert _longest_directed_path(o) <= len(parts) - 1


def test_colouring_two_parts_matches_bipartite_flow():
    g = complete_bipartite(3, 4)
    ob = orient_bipartite(g)
    source = ob.meta["source"]
    parts = [sorted(bits(source)), sorted(set(range(g.n)) - set(bits(source)))]
    assert orient_by_colouring(g, parts).arcs == ob.arcs


def test_colouring_rejects_improper():
    with pytest.raises(GraphError):
        orient_by_colouring(complete(3), [[0, 1], [2]])


# --- forests


def test_forests_tree_single_part():
    t = random_tree(9, 0)
    o = orient_by_forests(t, forest_peel(t))
    assert o.max_out_degree() == 1


def test_forests_k4_two_parts():
    o = orient_by_forests(complete(4), forest_peel(complete(4)))
    assert o.max_out_degree() <= 2


def test_forests_triangulated_patch():
    g = grid_tri(6, 6)
    o = orient_by_forests(g, forest_peel(g))
    assert o.max_out_degree() <= 3


def test_forests_rejects_cyclic_part():
    with pytest.raises(GraphError):
        orient_by_forests(cycle(3), [[0, 1, 2]])


# --- feedback vertex set


def test_fvs_c5():
    o = orient_by_fvs(cycle(5), 1)
    assert o.out_degree(0) == 0
    inside = [(t, h) for t, h in o.arcs if t != 0 and h != 0]
    per_vertex = [sum(1 for t, _ in inside if t == v) for v in range(5)]
    assert max(per_vertex) <= 1


def test_fvs_empty_set_equals_tree_orientation():
    t = random_tree(10, 4)
    assert orient_by_fvs(t, 0).arcs == orient_tree(t, root=0).arcs


def test_fvs_no_arc_leaves_set():
    g = petersen()
    fvs = min_fvs(g)
    o = orient_by_fvs(g, fvs)
    for t, h in o.arcs:
        if (fvs >> t) & 1:
            assert (fvs >> h) & 1


def test_fvs_rejects_non_forest_remainder():
    with pytest.raises(GraphError):
        orient_by_fvs(complete(4), 1)


# --- k-trees


def test_ktree_k3_is_directed_triangle():
    assert outdegs(orient_ktree(complete(3), 2)) == [1, 1, 1]


def test_ktree_fan_outdegrees():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    o = orient_ktree(g, 2)
    info = ktree_structure(g, 2)
    for u, clique in info.order:
        assert o.out_degree(u) == 2
        assert set(bits(o.out_mask[u])) == set(clique)


def test_ktree_three_tree_root_clique():
    g = random_ktree(8, 3, seed=2)
    o = orient_ktree(g, 3)
    info = ktree_structure(g, 3)
    for u, _ in info.order:
        assert o.out_degree(u) == 3
    central = mask_of(info.central)
    for t, h in o.arcs:
        if (central >> t) & 1:
            assert (central >> h) & 1  # fire cannot leave the root clique
    # even-size root clique uses the sink variant
    sink = o.meta["sink"]
    assert sink == info.central[-1]
    assert o.out_degree(sink) == 0


def test_ktree_rejects_non_ktree():
    with pytest.raises(GraphError):
        orient_ktree(cycle(5), 2)


def digest(orientations):
    text = "".join(write_orientation(o) for o in orientations)
    return hashlib.sha256(text.encode()).hexdigest()


def test_tournament_orientations_pinned():
    # the orientation files of both tournament users, odd and even cliques,
    # frozen before they shared one tournament helper
    assert digest(orient_complete(n) for n in range(2, 10)) == (
        "cfb90a0453a094ae0702d7c1e7312cd9c965fa5db28bbda2bd7f61373cbd6115"
    )
    trees = [(random_ktree(8 + seed, k, seed), k) for k in (2, 3) for seed in range(5)]
    assert digest(orient_ktree(g, k) for g, k in trees) == (
        "b111b8317895e98a101a84f920828355cf4eaf33d3195dab380a73dc3730e42f"
    )


# three triangles and a pendant path, joined by four bridges
BRIDGED = Graph(11, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6),
                     (6, 7), (7, 8), (8, 6), (8, 9), (9, 10)])


def test_subcubic_orientations_pinned():
    # the orientation files of the subcubic construction and both its users,
    # labels included on the meta line, frozen while each 2-edge-connected
    # component was still renumbered onto a suppressed cubic multigraph
    small = [g for n in range(1, 6) for g in enumerate_connected(n) if g.max_degree() <= 3]
    cubic = [random_regular(n, 3, s) for n in range(8, 21, 2) for s in range(3)]
    assert len(small) == 516
    assert digest(orient_subcubic(g) for g in small + cubic + [BRIDGED]) == (
        "880b02c67cdf6a8f03ad8b5b58b36a6174bbd5bbe09ae0878b3d702de85c1340"
    )
    bounded = [(random_regular(n, d, s), d) for d in (4, 5) for n in (12, 16) for s in range(3)]
    assert digest(orient_bounded_degree(g, d) for g, d in bounded) == (
        "c6c508bbbb52fd42dfd8957101952352b791514c3067e39e31e14a7b2661b177"
    )
    assert digest(orient_grid("hex", w, h) for w, h in ((4, 4), (5, 7), (9, 9))) == (
        "a8651b02b87894184e714334f57af3d198e6204d6c86d32637c1805e7b7ace2f"
    )


def test_cycle_peeling_orientations_and_bridges_pinned():
    # the orientation files of the two cycle-peeling constructions and the
    # output of bridges, frozen while each walk still kept its own stack
    multigraphs = [Graph(3, [(0, 1), (0, 1), (1, 2)]), Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])]
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [random_regular(n, d, s) for d in (3, 4, 5) for n in (10, 12, 16, 20) for s in range(3)]
    graphs += multigraphs
    assert len(graphs) == 810
    assert digest(orient_half(g) for g in graphs) == (
        "06f55bc81e97768b10af6cea972b520df31efffa7e352f5879db394fe3b20346"
    )
    assert digest(orient_unicyclic(g) for g in graphs if g.m <= g.n) == (
        "e36e71ce25b03c0ba5e984f4b7b7ef06af079bb5e04517390daa7f34e4167cfb"
    )
    text = "".join(f"{sorted(found)} {comps}\n" for found, comps in map(bridges, graphs))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7ae84bf4ccefbd078b9730bad7bab3411ee7c59ea7b1d6244cbe8d25123ba782"
    )


def test_tree_peeling_orientations_pinned():
    # the orientation files of the recipes that orient a forest towards its
    # roots, frozen while that forest was still walked with its own queue
    trees = [g for n in range(1, 7) for g in enumerate_connected(n) if g.m == n - 1]
    assert len(trees) == 1442
    assert digest(orient_tree(t, r) for t in trees for r in range(t.n)) == (
        "66fdc3e159c460b88e227538031ff4d836e2cb7fc1f9b82e6146a7a61f8ada83"
    )
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [random_regular(n, d, s) for d in (3, 4) for n in (10, 12) for s in range(3)]
    assert len(graphs) == 784
    assert digest(orient_by_forests(g, forest_peel(g)) for g in graphs) == (
        "0150c8b2b5a76dd12d23c6ce534a75e1a80126c232c58e73d2a616b366c6e606"
    )
    assert digest(orient_by_fvs(g, min_fvs(g)) for g in graphs) == (
        "3b27301955a48ae6158cbf3f5ea976dd12477df459cccb49b52271e60115b66c"
    )


def queue_walk_forest_arcs(g, edge_subset, roots):
    """Reference: walk each tree of the forest from its lowest vertex in the
    bitmask ``roots`` (else its lowest vertex) with a queue, pointing each
    edge at the vertex it was reached from."""
    arcs = [None] * g.m
    inc = [[] for _ in range(g.n)]
    involved = 0
    for i in edge_subset:
        u, v = g.edges[i]
        inc[u].append((v, i))
        inc[v].append((u, i))
        involved |= (1 << u) | (1 << v)
    seen = 0
    for root in [*bits(roots & involved), *bits(involved)]:
        if (seen >> root) & 1:
            continue
        seen |= 1 << root
        queue = [root]
        while queue:
            v = queue.pop()
            for w, i in inc[v]:
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    arcs[i] = (w, v)
                    queue.append(w)
    return arcs


def test_forest_edges_match_the_queue_walk():
    # random graphs, a random forest among each one's edges listed in random
    # order, and random roots masks that may hold several vertices of a tree
    rng = random.Random(0)
    for trial in range(300):
        n = rng.randint(1, 14)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        comp = list(range(n))
        forest = []
        for i in rng.sample(range(g.m), g.m):
            u, v = g.edges[i]
            if comp[u] != comp[v] and rng.random() < 0.8:
                old = comp[v]
                comp = [comp[u] if c == old else c for c in comp]
                forest.append(i)
        roots = rng.getrandbits(n) if trial % 4 else 0
        arcs = [None] * g.m
        _orient_forest_edges(g, forest, arcs, roots=roots)
        assert arcs == queue_walk_forest_arcs(g, forest, roots), trial


# --- subcubic


def subdivided_prism():
    # prism with one edge subdivided once: one thread with an inner vertex
    edges = list(prism(3).edges)
    u, v = edges.pop(0)
    return Graph(7, edges + [(u, 6), (6, v)])


def check_subcubic_classification(o):
    labels = o.meta["labels"]
    g = o.graph
    assert all(lbl is not None for lbl in labels)
    for v in range(g.n):
        assert o.out_degree(v) <= 2
        if o.out_degree(v) == 2:
            out_idx = [i for i, (t, _) in enumerate(o.arcs) if t == v]
            in_idx = [i for i, (_, h) in enumerate(o.arcs) if h == v]
            assert sum(1 for i in out_idx if labels[i] == "cycle") == 1
            other = [labels[i] for i in out_idx if labels[i] != "cycle"]
            assert other[0] in ("path", "bridge")
            assert any(labels[i] == "cycle" for i in in_idx)
    cycle_in = [0] * g.n
    cycle_out = [0] * g.n
    path_in = [0] * g.n
    path_out = [0] * g.n
    for i, (t, h) in enumerate(o.arcs):
        if labels[i] == "cycle":
            cycle_out[t] += 1
            cycle_in[h] += 1
        elif labels[i] == "path":
            path_out[t] += 1
            path_in[h] += 1
    assert all(a == b and a <= 1 for a, b in zip(cycle_in, cycle_out))
    assert all(a <= 1 and b <= 1 for a, b in zip(path_in, path_out))
    assert is_forest(g, [i for i in range(g.m) if labels[i] == "path"])


@pytest.mark.parametrize(
    "g",
    [
        complete(4), petersen(), cube(), prism(3), k33(), cycle(7),
        # three threads between two degree-3 vertices
        Graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]),
        subdivided_prism(),
        # multigraphs: a double edge, and a double edge closed by a path
        Graph(2, [(0, 1), (0, 1)]),
        Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)]),
    ],
    ids=["K4", "petersen", "cube", "prism", "K33", "C7", "theta", "subdivided-prism",
         "double-edge", "double-edge-path"],
)
def test_subcubic_named(g):
    o = orient_subcubic(g)
    assert o.max_out_degree() <= 2
    if all(d == 2 for d in g.degrees()):
        assert outdegs(o) == [1] * g.n
    else:
        check_subcubic_classification(o)


def test_subcubic_with_bridges():
    check_subcubic_classification(orient_subcubic(BRIDGED))


def test_subcubic_random_cubic():
    for seed in range(6):
        o = orient_subcubic(random_regular(12, 3, seed))
        check_subcubic_classification(o)


def test_subcubic_rejects_degree_four():
    with pytest.raises(GraphError):
        orient_subcubic(complete(5))


# --- bounded degree


def test_bounded_k5_sink_property():
    g = complete(5)
    o = orient_bounded_degree(g, 4)
    assert o.meta["sinks"]
    for x in o.meta["sinks"]:
        assert o.out_degree(x) == 0
        assert o.in_degree(x) == g.degree(x)


def test_bounded_five_regular_layer_sinks():
    g = random_regular(12, 5, seed=1)
    o = orient_bounded_degree(g, 5)
    assert sum(outdegs(o)) == g.m
    rank = {v: i for i, v in enumerate(o.meta["sinks"])}
    for x in o.meta["sinks"]:
        # arcs leave a peeled vertex only towards earlier-peeled vertices
        assert all(h in rank and rank[h] < rank[x] for h in bits(o.out_mask[x]))


def test_bounded_huge_d_matches_max_degree():
    # d is a bound, not a count of levels: 10**20 peels as the maximum degree does
    g = random_regular(12, 5, seed=1)
    huge, exact = orient_bounded_degree(g, 10**20), orient_bounded_degree(g, 5)
    assert (huge.arcs, huge.meta["sinks"], huge.meta["labels"]) == (exact.arcs, exact.meta["sinks"], exact.meta["labels"])


def test_bounded_rejects_excess_degree():
    with pytest.raises(GraphError):
        orient_bounded_degree(random_regular(12, 5, 0), 4)


# --- grids


def test_grid_rect_interior_two_outregular():
    o = orient_grid("rect", 7, 7)
    for r in range(1, 6):
        for c in range(1, 6):
            assert o.out_degree(r * 7 + c) == 2


def test_grid_tri_sink_rows():
    o = orient_grid("tri", 9, 9)
    for v in range(o.n):
        if (v // 9) % 2 == 0:
            assert all(w == v + 1 for w in bits(o.out_mask[v]))


def test_grid_hex_subcubic():
    o = orient_grid("hex", 8, 8)
    assert o.max_out_degree() <= 2
    check_subcubic_classification(o)


def test_grid_too_small():
    with pytest.raises(GraphError):
        orient_grid("rect", 3, 9)


# --- registry determinism


def test_recipe_registry_deterministic_files():
    a = write_orientation(RECIPES["subcubic"](petersen()))
    b = write_orientation(RECIPES["subcubic"](petersen()))
    assert a == b


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_half_orientation_handshake_property(seed):
    g = random_tree(10, seed % 100)
    o = orient_half(g)
    assert sum(outdegs(o)) == g.m
    assert o.max_out_degree() <= 1  # trees decompose into no cycles
