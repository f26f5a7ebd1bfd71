"""Constructive edge orientations with guaranteed outdegree structure.

Each recipe returns an Orientation whose ``meta`` records the scheme and any
labelling the scripted defence strategies need (cycle/path/bridge arc labels,
grid dimensions, cyclic tournament order). Choices left open by the
constructions (tree roots, tie breaks, arc directions called arbitrary) are
fixed to smallest-id variants so identical inputs give identical outputs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, GraphError, Orientation, bits, bridges, dfs, layers
from . import families as gen
from .structure import (
    _oneway_side,
    bipartition,
    exact_colouring,
    forest_peel,
    greedy_colouring,
    is_complete,
    is_forest,
    is_proper_colouring,
    ktree_structure,
    min_fvs,
    perfect_matching,
)


def _edge_index(g: Graph) -> dict[tuple[int, int], int]:
    idx = {}
    for i, (u, v) in enumerate(g.edges):
        idx[(u, v)] = i
        idx[(v, u)] = i
    return idx


def _towards_roots(g: Graph, edge_subset, arcs: list, nbr: list[int], roots: int) -> None:
    """Point each edge in ``edge_subset`` from its end farther from the
    bitmask ``roots`` to its nearer end, a vertex's depth being the index of
    its layer in one ``layers`` search from ``roots`` along ``nbr``. On trees
    holding one root each this orients every edge towards its tree's root."""
    depth = [0] * g.n
    for d, layer in enumerate(layers(nbr, roots)):
        for v in bits(layer):
            depth[v] = d
    for i in edge_subset:
        u, v = g.edges[i]
        arcs[i] = (u, v) if depth[u] > depth[v] else (v, u)


def _orient_forest_edges(g: Graph, edge_subset, arcs, roots: int = 0) -> None:
    """Orient a forest (given by edge indices) towards per-tree roots: each
    tree's lowest vertex in the bitmask ``roots``, or its lowest vertex when
    ``roots`` holds none of it. Arcs run child to parent."""
    forest = Graph._from_valid(g.n, tuple(g.edges[i] for i in edge_subset))
    seeds = 0
    for tree in forest.components():
        tree = tree & roots or tree
        seeds |= tree & -tree
    _towards_roots(g, edge_subset, arcs, forest.adj_mask, seeds)


def _find_cycle(g: Graph, alive: set[int]):
    """A cycle within the given edge indices, as (edge index, tail, head)
    triples following the cycle, or None. Deterministic in id order: the
    first ``dfs`` edge back to a vertex still on the path closes the cycle."""
    reached_by: list = [None] * g.n  # (vertex, edge) into each vertex on the path
    for kind, v, w, i in dfs(g, alive):
        if kind == "done":
            reached_by[w] = None
        elif kind != "back":
            reached_by[w] = (v, i)
        elif reached_by[w]:
            cycle = [(i, v, w)]
            while v != w:
                u, e = reached_by[v]
                cycle.append((e, u, v))
                v = u
            cycle.reverse()
            return cycle
    return None


def orient_tree(t: Graph, root: int = 0) -> Orientation:
    """Orient every edge of a tree towards the root; max outdegree 1."""
    if t.m != t.n - 1 or not t.is_connected():
        raise GraphError("input is not a tree")
    if not 0 <= root < t.n:
        raise GraphError("root out of range")
    arcs: list = [None] * t.m
    _orient_forest_edges(t, range(t.m), arcs, roots=1 << root)
    return Orientation(t, arcs, meta={"scheme": "tree", "root": root})


def orient_half(g: Graph) -> Orientation:
    """Orientation with outdegree at most floor(degree/2) + 1 everywhere.

    Peels edge-disjoint cycles and orients each as a directed cycle, then
    orients the leftover forest towards smallest-id roots.
    """
    arcs: list = [None] * g.m
    alive = set(range(g.m))
    while True:
        cycle = _find_cycle(g, alive)
        if cycle is None:
            break
        for ei, tail, head in cycle:
            arcs[ei] = (tail, head)
            alive.discard(ei)
    _orient_forest_edges(g, alive, arcs)
    return Orientation(g, arcs, meta={"scheme": "half"})


def orient_unicyclic(g: Graph) -> Orientation:
    """1-outregular orientation of a connected graph with at most one cycle."""
    if g.n == 0:
        raise GraphError("the graph has no vertices")
    if not g.is_connected():
        raise GraphError("input must be connected")
    if g.m > g.n:
        raise GraphError("more than one independent cycle")
    if g.m < g.n:
        return orient_tree(g, root=0)
    arcs: list = [None] * g.m
    cycle = _find_cycle(g, set(range(g.m)))
    on_cycle = 0
    for ei, tail, head in cycle:
        arcs[ei] = (tail, head)
        on_cycle |= (1 << tail) | (1 << head)
    rest = [i for i in range(g.m) if arcs[i] is None]
    _orient_forest_edges(g, rest, arcs, roots=on_cycle)
    return Orientation(g, arcs, meta={"scheme": "unicyclic"})


def _complete_arcs(order: Sequence[int], index: dict, arcs: list) -> None:
    """Cyclic tournament on an odd set: position i beats the next half."""
    n = len(order)
    h = (n - 1) // 2
    for i in range(n):
        for step in range(1, h + 1):
            j = (i + step) % n
            arcs[index[(order[i], order[j])]] = (order[i], order[j])


def _tournament(order: Sequence[int], index: dict, arcs: list) -> Optional[int]:
    """Orient the clique on ``order``: the cyclic tournament when its size is
    odd, else every vertex into the last one, the sink, and the cyclic
    tournament on the rest. Returns the sink, or None."""
    if len(order) % 2 == 1:
        _complete_arcs(order, index, arcs)
        return None
    *rest, sink = order
    _complete_arcs(rest, index, arcs)
    for v in rest:
        arcs[index[(v, sink)]] = (v, sink)
    return sink


def orient_complete(n: int) -> Orientation:
    """Tournament on K_n: cyclic and (n-1)/2-outregular for odd n; for even n
    one vertex becomes a sink and the rest form the odd tournament."""
    if n < 2:
        raise GraphError("complete orientation needs n >= 2")
    g = gen.complete(n)
    index = _edge_index(g)
    arcs: list = [None] * g.m
    sink = _tournament(list(range(n)), index, arcs)
    meta = {"scheme": "complete", "n": n, "order": tuple(range(n)), "sink": sink}
    return Orientation(g, arcs, meta=meta)


def orient_bipartite(g: Graph) -> Orientation:
    """Orient all edges away from the side whose maximum degree is smaller."""
    sides = bipartition(g)
    if sides is None:
        raise GraphError("input is not bipartite")
    source, _ = _oneway_side(g, sides)
    arcs = [(u, v) if (source >> u) & 1 else (v, u) for u, v in g.edges]
    return Orientation(g, arcs, meta={"scheme": "bipartite", "source": source})


def orient_by_colouring(g: Graph, parts: list[list[int]]) -> Orientation:
    """Orient every edge towards the endpoint in the higher colour class;
    the result is acyclic with directed paths of at most len(parts)-1 arcs."""
    if not is_proper_colouring(g, parts):
        raise GraphError("parts are not a proper colouring")
    colour = {}
    for c, part in enumerate(parts):
        for v in part:
            colour[v] = c
    arcs = [(u, v) if colour[u] < colour[v] else (v, u) for u, v in g.edges]
    return Orientation(g, arcs, meta={"scheme": "colouring", "parts": len(parts)})


def orient_by_forests(g: Graph, parts: list[list[int]]) -> Orientation:
    """Orient each forest of an edge partition towards smallest-id roots;
    outdegree is bounded by the number of parts."""
    seen: set[int] = set()
    for part in parts:
        if not is_forest(g, part):
            raise GraphError("a part contains a cycle")
        overlap = seen.intersection(part)
        if overlap:
            raise GraphError("parts overlap")
        seen.update(part)
    if seen != set(range(g.m)):
        raise GraphError("parts do not cover all edges")
    arcs: list = [None] * g.m
    for part in parts:
        _orient_forest_edges(g, part, arcs)
    return Orientation(g, arcs, meta={"scheme": "forests", "parts": len(parts)})


def orient_by_fvs(g: Graph, fvs: int) -> Orientation:
    """Orient the forest outside a feedback vertex set towards per-tree roots,
    everything crossing into the set towards it, and set-internal edges from
    lower to higher id. No arc leaves the set."""
    outside = [i for i, (u, v) in enumerate(g.edges) if not ((fvs >> u) | (fvs >> v)) & 1]
    if not is_forest(g, outside):
        raise GraphError("removing the set does not leave a forest")
    arcs: list = [None] * g.m
    _orient_forest_edges(g, outside, arcs)
    for i, (u, v) in enumerate(g.edges):
        if arcs[i] is not None:
            continue
        u_in = (fvs >> u) & 1
        v_in = (fvs >> v) & 1
        if u_in and v_in:
            arcs[i] = (min(u, v), max(u, v))
        elif v_in:
            arcs[i] = (u, v)
        else:
            arcs[i] = (v, u)
    return Orientation(g, arcs, meta={"scheme": "fvs", "fvs": fvs})


def orient_ktree(g: Graph, k: int) -> Orientation:
    """Orient a k-tree so every attachment points at earlier vertices and the
    fire can only flow towards the central clique, which is oriented as a
    small tournament."""
    if k < 1:
        raise GraphError("k must be at least 1")
    info = ktree_structure(g, k)
    if info is None:
        raise GraphError(f"input is not a {k}-tree")
    index = _edge_index(g)
    arcs: list = [None] * g.m
    sink = _tournament(list(info.central), index, arcs)
    for u, clique in info.order:
        for w in clique:
            arcs[index[(u, w)]] = (u, w)
    meta = {"scheme": "ktree", "k": k, "central": info.central, "sink": sink}
    return Orientation(g, arcs, meta=meta)


# ---------------------------------------------------------------------------
# subcubic construction


def orient_subcubic(g: Graph) -> Orientation:
    """Orientation of a connected subcubic graph with max outdegree 2 in which
    every outdegree-2 vertex has one outgoing cycle arc, one incoming cycle
    arc, and one outgoing path or bridge arc.

    Bridges are oriented by rooting the bridge tree; every other component is
    split into a 2-factor (oriented as directed cycles) and a perfect matching
    (paths oriented end to end), choosing the matching so that a vertex
    feeding an outgoing bridge sits on a cycle. The component's threads, its
    maximal paths through degree-2 vertices, are walked and matched in the
    graph's own vertex ids.
    """
    if g.max_degree() > 3:
        raise GraphError("input must be subcubic")
    if not g.is_connected():
        raise GraphError("input must be connected")
    arcs, labels = _subcubic_arcs(g)
    return Orientation(g, arcs, meta={"scheme": "subcubic", "labels": tuple(labels)})


def _subcubic_arcs(g: Graph) -> tuple[list, list]:
    """Arcs and labels of the subcubic construction on every connected
    component of a subcubic graph, each bridge tree rooted at the
    2-edge-connected component of its connected component's lowest vertex."""
    bridge_set, comps = bridges(g)
    arcs: list = [None] * g.m
    labels: list = [None] * g.m
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in bits(comp):
            comp_of[v] = ci

    deg = [0] * g.n  # degree once the bridges are removed
    comp_edges: list[list[int]] = [[] for _ in comps]
    for i, (u, v) in enumerate(g.edges):
        if i not in bridge_set:
            deg[u] += 1
            deg[v] += 1
            comp_edges[comp_of[u]].append(i)

    # every path from a connected component's lowest vertex to a bridge's
    # far end crosses the bridge, so its near end lies one layer shallower
    _towards_roots(g, bridge_set, arcs, g.adj_mask, sum(c & -c for c in g.components()))
    outgoing_tail: dict[int, int] = {}
    for ei in bridge_set:
        tail = arcs[ei][0]
        labels[ei] = "bridge"
        outgoing_tail[comp_of[tail]] = tail

    for ci, comp in enumerate(comps):
        if not comp_edges[ci]:
            continue
        if all(deg[v] == 2 for v in bits(comp)):
            for ei, tail, head in _find_cycle(g, set(comp_edges[ci])):
                arcs[ei] = (tail, head)
                labels[ei] = "cycle"
            continue
        ends = [v for v in bits(comp) if deg[v] == 3]
        threads = _threads(g, ends, deg, bridge_set)
        end_index = {v: k for k, v in enumerate(ends)}
        multi = Graph(len(ends), [(end_index[p[0]], end_index[p[-1]]) for p, _ in threads])
        must = None
        b = outgoing_tail.get(ci)
        if b is not None:
            # the bridge tail has degree 2 here, so it sits inside one thread;
            # forcing another thread at that thread's first end into the
            # matching keeps it in the 2-factor, giving the tail an outgoing
            # cycle arc
            t_b = next(t for t, (p, _) in enumerate(threads) if b in p[1:-1])
            x = end_index[threads[t_b][0][0]]
            must = next(t for _, t in multi.adj[x] if t != t_b)
        matching = perfect_matching(multi, must_include=must)
        if matching is None:
            raise GraphError("no perfect matching in a bridgeless cubic component")
        # the unmatched threads form a 2-factor: write it one cycle at a time
        factor = set(range(multi.m)).difference(matching)
        while factor:
            for t, tail, _ in _find_cycle(multi, factor):
                _write_thread(threads[t], ends[tail], arcs, labels, "cycle")
                factor.discard(t)
        for t in matching:
            path, _ = threads[t]
            _write_thread(threads[t], min(path[0], path[-1]), arcs, labels, "path")
    return arcs, labels


def _threads(g: Graph, ends: list[int], deg: list[int], bridge_set: set[int]):
    """Maximal paths whose inner vertices have degree 2 once the bridges are
    removed, as (vertex path, edge indices) pairs. They start from ``ends``,
    the degree-3 vertices in ascending id, each one's incidences taken in
    edge-index order."""
    threads = []
    used: set[int] = set()
    for v in ends:
        for w, ei in g.adj[v]:
            if ei in bridge_set or ei in used:
                continue
            path, edges = [v, w], [ei]
            while deg[path[-1]] == 2:
                w, ei = next(
                    (x, i) for x, i in g.adj[path[-1]] if i != edges[-1] and i not in bridge_set
                )
                path.append(w)
                edges.append(ei)
            used.update(edges)
            threads.append((path, edges))
    return threads


def _write_thread(thread, tail: int, arcs: list, labels: list, label: str) -> None:
    """Orient a thread end to end, starting from its end ``tail``."""
    path, edges = thread
    if path[0] != tail:
        path, edges = path[::-1], edges[::-1]
    for a, b, ei in zip(path, path[1:], edges):
        arcs[ei] = (a, b)
        labels[ei] = label


# ---------------------------------------------------------------------------
# bounded degree


def orient_bounded_degree(g: Graph, d: int) -> Orientation:
    """Orientation for maximum degree d >= 4: peel maximum-degree vertices
    into sink layers level by level until the remainder is subcubic, then
    orient the remainder with the subcubic construction.

    Every peeled vertex receives all its remaining edges as incoming arcs, so
    fire reaching it stops there.
    """
    if d < 4:
        raise GraphError("use the subcubic construction for d <= 3")
    if g.max_degree() > d:
        raise GraphError(f"maximum degree exceeds {d}")
    deg = g.degrees()
    alive = (1 << g.n) - 1
    extraction: list[int] = []
    rank: dict[int, int] = {}
    # peeling only lowers degrees, so no level above the maximum degree has a
    # vertex: start there, not at d, which may be any size
    for level in range(min(d, g.max_degree()), 3, -1):
        while True:
            v = next((v for v in bits(alive) if deg[v] == level), None)
            if v is None:
                break
            rank[v] = len(extraction)
            extraction.append(v)
            alive &= ~(1 << v)
            for w, _ in g.adj[v]:
                if (alive >> w) & 1:
                    deg[w] -= 1

    arcs: list = [None] * g.m
    labels: list = [None] * g.m
    for i, (u, v) in enumerate(g.edges):
        ru, rv = rank.get(u), rank.get(v)
        if ru is None and rv is None:
            continue
        if rv is None or (ru is not None and ru < rv):
            arcs[i] = (v, u)
        else:
            arcs[i] = (u, v)
        labels[i] = "sink"

    rest = [i for i in range(g.m) if arcs[i] is None]
    core_arcs, core_labels = _subcubic_arcs(Graph(g.n, [g.edges[i] for i in rest]))
    for i, arc, label in zip(rest, core_arcs, core_labels):
        arcs[i] = arc
        labels[i] = label

    meta = {
        "scheme": "bounded",
        "d": d,
        "sinks": tuple(extraction),
        "labels": tuple(labels),
    }
    return Orientation(g, arcs, meta=meta)


# ---------------------------------------------------------------------------
# grid patches


def orient_grid(kind: str, w: int, h: int) -> Orientation:
    """Oriented grid patch: rows one way and alternating columns for the
    rectangular grid, source/sink row layering for the triangular grid, and
    the subcubic construction for the hexagonal grid."""
    if w < 4 or h < 4:
        raise GraphError("grid orientation needs w, h >= 4")
    if kind == "rect":
        g = gen.grid_rect(w, h)
        arcs = []
        for u, v in g.edges:
            if v == u + 1:  # row edge: right to left
                arcs.append((v, u))
            else:  # column edge: even columns run bottom to top
                c = u % w
                arcs.append((v, u) if c % 2 == 0 else (u, v))
        return Orientation(g, arcs, meta={"scheme": "grid-rect", "w": w, "h": h})
    if kind == "tri":
        g = gen.grid_tri(w, h)
        arcs = []
        for u, v in g.edges:
            if v == u + 1:  # row edge: left to right
                arcs.append((u, v))
            else:  # diagonal: odd rows are sources, even rows sinks
                r = u // w
                arcs.append((u, v) if r % 2 == 1 else (v, u))
        return Orientation(g, arcs, meta={"scheme": "grid-tri", "w": w, "h": h})
    if kind == "hex":
        o = orient_subcubic(gen.grid_hex(w, h))
        o.meta.update(kind="grid-hex", w=w, h=h)
        return o
    raise GraphError(f"unknown grid kind '{kind}'")


# ---------------------------------------------------------------------------
# recipe registry
#
# Each recipe takes the input graph first (None when there is none) and then
# exactly its own parameters.


def _recipe_complete(graph=None, n=None):
    """Orient the input graph, which must be complete; without one, K_n."""
    if graph is not None:
        if not is_complete(graph):
            raise GraphError("input graph is not complete")
        n = graph.n
    elif n is None:
        raise GraphError("complete recipe needs a graph or n")
    return orient_complete(n)


def _recipe_colouring(graph, k=None):
    if k is not None:
        parts = exact_colouring(graph, k)
        if parts is None:
            raise GraphError(f"graph admits no proper {k}-colouring")
    else:
        parts = greedy_colouring(graph)
    return orient_by_colouring(graph, parts)


def _recipe_bounded(graph, d=None):
    return orient_bounded_degree(graph, max(4, graph.max_degree()) if d is None else d)


def _recipe_grid(kind: str):
    def recipe(graph=None, w=9, h=9):
        if graph is not None:
            raise GraphError(f"grid-{kind} builds its own patch and takes no input graph")
        return orient_grid(kind, w, h)
    return recipe


RECIPES = {
    "tree": orient_tree,
    "half": orient_half,
    "unicyclic": orient_unicyclic,
    "complete": _recipe_complete,
    "bipartite": orient_bipartite,
    "colouring": _recipe_colouring,
    "forests": lambda graph: orient_by_forests(graph, forest_peel(graph)),
    "fvs": lambda graph: orient_by_fvs(graph, min_fvs(graph)),
    "ktree": orient_ktree,
    "subcubic": orient_subcubic,
    "bounded-degree": _recipe_bounded,
    "grid-rect": _recipe_grid("rect"),
    "grid-tri": _recipe_grid("tri"),
    "grid-hex": _recipe_grid("hex"),
}
