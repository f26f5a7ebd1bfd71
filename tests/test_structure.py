import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firebreak.structure
from firebreak.bounds import _chromatic_number, greedy_clique
from firebreak.families import (
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    grid_rect,
    grid_tri,
    path,
    path_power,
    petersen,
    prism,
    random_ktree,
    random_regular,
    random_tree,
    star,
)
from firebreak.graphs import Graph, GraphError, distances, mask_of, popcount
from firebreak.structure import (
    bipartition,
    exact_colouring,
    forest_peel,
    greedy_colouring,
    is_forest,
    is_proper_colouring,
    ktree_structure,
    min_fvs,
    perfect_matching,
)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, chosen)


# --- colouring


def test_exact_colouring_c5():
    parts = exact_colouring(cycle(5), 3)
    assert parts is not None and len(parts) == 3
    assert is_proper_colouring(cycle(5), parts)


def test_exact_colouring_k4_infeasible():
    assert exact_colouring(complete(4), 3) is None


def test_exact_colouring_empty_graph():
    assert exact_colouring(Graph(0, []), 0) == []


def recursive_colouring(g, k):
    # the recursive backtracking search that exact_colouring keeps on its own
    # stack: vertices by (-degree, id), colours ascending, first colouring found
    colour = [-1] * g.n
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))

    def assign(i, used):
        if i == g.n:
            return True
        v = order[i]
        taken = {colour[w] for w, _ in g.adj[v] if colour[w] >= 0}
        for c in range(min(used + 1, k)):
            if c not in taken:
                colour[v] = c
                if assign(i + 1, max(used, c + 1)):
                    return True
                colour[v] = -1
        return False

    if not assign(0, 0):
        return None
    return [[v for v in range(g.n) if colour[v] == c] for c in range(max(colour, default=-1) + 1)]


def test_exact_colouring_matches_the_recursive_search():
    cases = [g for n in range(1, 6) for g in enumerate_connected(n)]
    cases += [random_regular(n, d, s) for d in (3, 4, 5) for n in (10, 12, 16) for s in range(3)]
    cases.append(Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)]))
    for g in cases:
        for k in range(min(g.n, 5) + 1):
            assert exact_colouring(g, k) == recursive_colouring(g, k), (g.edges, k)


def test_exact_colouring_gives_up_at_the_step_limit(monkeypatch):
    # a path takes one step per vertex
    first = exact_colouring(path(5), 2)
    monkeypatch.setattr(firebreak.structure, "COLOURING_STEP_LIMIT", 5)
    assert exact_colouring(path(5), 2) == first
    monkeypatch.setattr(firebreak.structure, "COLOURING_STEP_LIMIT", 4)
    with pytest.raises(GraphError, match="^exact colouring gave up after 4 steps on 5 vertices$"):
        exact_colouring(path(5), 2)


def test_greedy_colouring_petersen():
    parts = greedy_colouring(petersen())
    assert len(parts) <= 4
    assert is_proper_colouring(petersen(), parts)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_greedy_colouring_always_proper(g):
    assert is_proper_colouring(g, greedy_colouring(g))


# --- forest peeling


def test_forest_peel_tree():
    assert len(forest_peel(random_tree(20, 1))) == 1


def test_forest_peel_k4():
    parts = forest_peel(complete(4))
    assert len(parts) == 2


def test_forest_peel_triangulated_patch():
    parts = forest_peel(grid_tri(6, 6))
    assert len(parts) <= 3


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_forest_peel_partitions_into_forests(g):
    parts = forest_peel(g)
    seen = sorted(i for part in parts for i in part)
    assert seen == list(range(g.m))
    for part in parts:
        assert is_forest(g, part)


# --- feedback vertex sets


def test_min_fvs_examples():
    assert min_fvs(random_tree(8, 2)) == 0
    assert popcount(min_fvs(cycle(5))) == 1
    assert popcount(min_fvs(complete(4))) == 2


def test_min_fvs_gives_up_at_the_subset_limit(monkeypatch):
    # K4 succeeds on its sixth subset: the empty set, four singletons, {0, 1}
    monkeypatch.setattr(firebreak.structure, "FVS_SUBSET_LIMIT", 6)
    assert min_fvs(complete(4)) == 0b11
    assert min_fvs(complete(4), below=2) is None
    monkeypatch.setattr(firebreak.structure, "FVS_SUBSET_LIMIT", 5)
    with pytest.raises(GraphError, match="gave up after 5 subsets of 4 vertices"):
        min_fvs(complete(4))
    # sizes 0 and 1 are all 5 subsets: a search that stops below size 2 holds
    assert min_fvs(complete(4), below=2) is None
    with pytest.raises(GraphError):
        min_fvs(complete(4), below=3)
    assert min_fvs(cycle(5)) == 0b1  # found on its second subset


def test_min_fvs_leaves_forest():
    g = petersen()
    fvs = min_fvs(g)
    assert is_forest(g, [i for i, (u, v) in enumerate(g.edges) if not ((fvs >> u) | (fvs >> v)) & 1])


# --- reference copies: the cheaper bodies must return exactly what the
# straightforward ones did

MULTIGRAPHS = [
    Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 1), (2, 3)]),
    Graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (3, 4)]),
]

# a tree plus a cycle, and a double edge hanging off a path beside an
# isolated vertex
DISCONNECTED = [
    Graph(7, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (6, 4)]),
    Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 3)]),
]

# isolated vertices beside edges, including the empty and edgeless graphs
WITH_ISOLATED = [
    Graph(0, []),
    Graph(1, []),
    Graph(5, []),
    Graph(5, [(1, 2), (2, 3), (3, 1)]),
    Graph(7, [(6, 0), (0, 4), (4, 6), (4, 2), (2, 6), (0, 2), (1, 3)]),
] + DISCONNECTED


def greedy_clique_reference(g):
    best = 1 if g.n else 0
    am = g.adj_mask
    for v in range(g.n):
        mask = 1 << v
        for u in range(g.n):
            if (mask >> u) & 1:
                continue
            if mask & ~am[u]:
                continue
            mask |= 1 << u
        best = max(best, popcount(mask))
    return best


def greedy_colouring_reference(g):
    colour = [-1] * g.n
    for v in range(g.n):
        used = {colour[w] for w, _ in g.adj[v] if colour[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    parts = max(colour, default=-1) + 1
    return [[v for v in range(g.n) if colour[v] == c] for c in range(parts)]


def min_fvs_reference(g):
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            removed = mask_of(subset)
            keep = [i for i, (u, v) in enumerate(g.edges) if not ((removed >> u) | (removed >> v)) & 1]
            if is_forest(g, keep):
                return removed
    return (1 << g.n) - 1


def forest_peel_reference(g):
    remaining = set(range(g.m))
    parts = []
    while remaining:
        inc = [[] for _ in range(g.n)]
        for i in sorted(remaining):
            u, v = g.edges[i]
            inc[u].append((v, i))
            inc[v].append((u, i))
        part = []
        seen = [False] * g.n
        for root in range(g.n):
            if seen[root] or not inc[root]:
                continue
            seen[root] = True
            stack = [(root, 0)]
            while stack:
                v, idx = stack[-1]
                descended = False
                while idx < len(inc[v]):
                    w, i = inc[v][idx]
                    idx += 1
                    if not seen[w]:
                        seen[w] = True
                        part.append(i)
                        stack[-1] = (v, idx)
                        stack.append((w, 0))
                        descended = True
                        break
                if not descended:
                    stack.pop()
        remaining.difference_update(part)
        parts.append(sorted(part))
    return parts


def chromatic_reference(g):
    greedy = len(greedy_colouring(g))
    if g.n <= 16:
        for k in range(1, greedy + 1):
            if exact_colouring(g, k) is not None:
                return k, True
    return greedy, False


def test_min_fvs_matches_reference():
    cases = [g for n in range(1, 7) for g in enumerate_connected(n)]
    for g in cases + [Graph(0, []), Graph(5, [])] + MULTIGRAPHS + DISCONNECTED:
        assert min_fvs(g) == min_fvs_reference(g), g.edges


def test_min_fvs_below_stops_at_the_bound():
    cases = [g for n in range(1, 6) for g in enumerate_connected(n)]
    for g in cases + [Graph(0, []), Graph(5, [])] + MULTIGRAPHS + DISCONNECTED:
        full = min_fvs(g)
        for below in range(-1, g.n + 2):
            assert min_fvs(g, below=below) == (full if popcount(full) < below else None), (g.edges, below)


def test_forest_peel_matches_reference():
    cases = [g for n in range(1, 6) for g in enumerate_connected(n)]
    for g in cases + [grid_tri(6, 6), complete(9)] + MULTIGRAPHS:
        assert forest_peel(g) == forest_peel_reference(g), g.edges


def test_chromatic_number_matches_reference():
    cases = [g for n in range(1, 6) for g in enumerate_connected(n)]
    cases += [g for i, g in enumerate(enumerate_connected(6)) if i % 7 == 0]
    cases += [complete(n) for n in range(1, 9)] + [petersen(), grid_tri(4, 4), prism(4)]
    cases += [Graph(0, []), Graph(5, []), Graph(17, []), cycle(17), path(18)] + MULTIGRAPHS
    for g in cases:
        assert _chromatic_number(g, bipartition(g) is not None) == chromatic_reference(g), g.edges


def bipartition_reference(g):
    # two-colouring by a depth-first search over incidence lists
    colour = [-1] * g.n
    for s in range(g.n):
        if colour[s] >= 0:
            continue
        colour[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w, _ in g.adj[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return None
    a = mask_of(v for v in range(g.n) if colour[v] == 0)
    return a, ((1 << g.n) - 1) & ~a


def test_bipartition_matches_reference():
    cases = [g for n in range(1, 7) for g in enumerate_connected(n)]
    cases += [complete_bipartite(3, 4), grid_rect(5, 4), cycle(17), cycle(18), path(18), petersen()]
    cases += MULTIGRAPHS + WITH_ISOLATED + [Graph(4, [(0, 1), (0, 1), (2, 3)]), Graph(6, [(5, 4), (4, 3), (3, 0)])]
    bipartite = 0
    for g in cases:
        sides = bipartition(g)
        assert sides == bipartition_reference(g), g.edges
        bipartite += sides is not None
    assert 0 < bipartite < len(cases)


def greedy_cases():
    cases = [g for n in range(1, 6) for g in enumerate_connected(n)]
    cases += [g for i, g in enumerate(enumerate_connected(6)) if i % 7 == 0]
    return cases + MULTIGRAPHS + WITH_ISOLATED


def test_greedy_clique_matches_reference():
    for g in greedy_cases():
        assert greedy_clique(g) == greedy_clique_reference(g), g.edges


def test_greedy_colouring_matches_reference():
    for g in greedy_cases():
        assert greedy_colouring(g) == greedy_colouring_reference(g), g.edges


# --- perfect matchings


def test_matching_k4_forced():
    m = perfect_matching(complete(4), must_include=0)
    assert m is not None and 0 in m and len(m) == 2
    pairs = {complete(4).edges[i] for i in m}
    assert pairs == {(0, 1), (2, 3)}


def test_matching_parallel_edges():
    theta = Graph(2, [(0, 1), (0, 1), (0, 1)])
    assert perfect_matching(theta, must_include=1) == [1]


def test_matching_petersen_any_forced_edge():
    g = petersen()
    for forced in range(g.m):
        m = perfect_matching(g, must_include=forced)
        assert m is not None and len(m) == 5 and forced in m


def test_matching_complement_is_two_factor_on_cubic():
    for seed in range(5):
        g = random_regular(10, 3, seed)
        m = perfect_matching(g)
        assert m is not None
        left = [i for i in range(g.m) if i not in set(m)]
        degree = [0] * g.n
        for i in left:
            u, v = g.edges[i]
            degree[u] += 1
            degree[v] += 1
        assert all(d == 2 for d in degree)


def test_matching_none_when_impossible():
    assert perfect_matching(star(4)) is None
    assert perfect_matching(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])) is None


def backtracking_matching(g, must_include=None):
    # the search without its dead-vertex skip or its step limit
    chosen = [] if must_include is None else [must_include]
    matched = 0 if must_include is None else mask_of(g.edges[must_include])

    def extend(matched):
        free = ~matched & ((1 << g.n) - 1)
        if not free:
            return True
        v = (free & -free).bit_length() - 1
        for w, i in g.adj[v]:
            if not (matched >> w) & 1:
                chosen.append(i)
                if extend(matched | (1 << v) | (1 << w)):
                    return True
                chosen.pop()
        return False

    return sorted(chosen) if g.n % 2 == 0 and extend(matched) else None


def test_matching_skip_keeps_the_first_matching():
    cases = [(g, None) for g in enumerate_connected(4)]
    cases += [(random_regular(n, d, s), None) for d in (3, 4) for n in range(6, 17, 2) for s in range(3)]
    cases += [(petersen(), forced) for forced in range(15)]
    cases += [(prism(4), forced) for forced in range(12)]
    for g, forced in cases:
        assert perfect_matching(g, must_include=forced) == backtracking_matching(g, forced), g.edges


def test_matching_gives_up_at_the_step_limit(monkeypatch):
    # random_regular(16, 3, 0) is matched on its tenth step, two past the
    # eight edges of the matching
    g = random_regular(16, 3, 0)
    first = perfect_matching(g)
    monkeypatch.setattr(firebreak.structure, "PERFECT_MATCHING_STEP_LIMIT", 10)
    assert perfect_matching(g) == first
    monkeypatch.setattr(firebreak.structure, "PERFECT_MATCHING_STEP_LIMIT", 9)
    with pytest.raises(GraphError, match="^perfect matching search gave up after 9 steps on 16 vertices$"):
        perfect_matching(g)


def test_matching_step_limit_on_large_cubic_graphs():
    # at the documented limit: (120, 3, 1) takes 59,861 steps, (120, 3, 2) needs more
    assert len(perfect_matching(random_regular(120, 3, 1))) == 60
    with pytest.raises(GraphError, match="^perfect matching search gave up after 100000 steps on 120 vertices$"):
        perfect_matching(random_regular(120, 3, 2))


# --- k-tree recognition


def fan_two_tree():
    return Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])


def test_ktree_complete():
    info = ktree_structure(complete(4), 3)
    assert info is not None
    assert info.central == (0, 1, 2, 3)
    assert info.order == []


def test_ktree_fan():
    info = ktree_structure(fan_two_tree(), 2)
    assert info is not None and len(info.order) == 3
    # replaying the order from the central clique rebuilds the graph
    g = fan_two_tree()
    present = set(info.central)
    for u, clique in info.order:
        assert set(clique) <= present
        assert all(tuple(sorted((u, w))) in {tuple(sorted(e)) for e in g.edges} for w in clique)
        present.add(u)
    assert present == set(range(g.n))


def test_ktree_rejects_c5():
    assert ktree_structure(cycle(5), 2) is None
    # 6 vertices and 9 edges, as a 2-tree has, but no vertex of degree 2
    for g in (complete_bipartite(3, 3), prism(3)):
        assert ktree_structure(g, 2) is None
    # a tree's edge count, but a triangle and an isolated vertex
    assert ktree_structure(Graph(4, [(0, 1), (1, 2), (0, 2)]), 1) is None


def test_ktree_structure_pinned():
    # cliques, central clique and construction order, frozen while the
    # cliques and the order were found by two separate peeling loops
    h = hashlib.sha256()
    for k in range(1, 5):
        for n in range(k + 1, 15):
            for g in [random_ktree(n, k, s) for s in range(3)] + [path_power(n, k)]:
                info = ktree_structure(g, k)
                h.update(repr((info.cliques, info.central, info.order)).encode())
    assert h.hexdigest() == "c01a8c51ebe2a2e8c7df71eaa3778a29a61f537433dd007e1b02bd2f9c26ed23"


def test_ktree_central_clique_minimises_distance():
    g = random_ktree(12, 2, seed=5)
    info = ktree_structure(g, 2)
    assert info is not None
    dist = [distances(g, v) for v in range(g.n)]
    radius = lambda clique: max(min(dist[v][w] for w in clique) for v in range(g.n))
    best = min(radius(c) for c in info.cliques)
    assert radius(info.central) == best


def test_ktree_cliques_count():
    for seed in range(4):
        g = random_ktree(10, 3, seed)
        info = ktree_structure(g, 3)
        assert info is not None
        assert len(info.cliques) == 10 - 3
