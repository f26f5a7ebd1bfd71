"""Structural subroutines used by the orientation constructions and the
bound report.

Everything here is exhaustive or greedy-deterministic and intended for the
small instances the rest of the package works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Optional

from .graphs import Graph, GraphError, bits, components, dfs, layers, mask_of, popcount


def greedy_colouring(g: Graph) -> list[list[int]]:
    """Proper colouring by smallest available colour in ascending id order.

    Each colour class is a vertex bitmask; a vertex joins the first class that
    holds none of its neighbours.
    """
    am = g.adj_mask
    classes: list[int] = []
    for v in range(g.n):
        for c, cls in enumerate(classes):
            if not cls & am[v]:
                classes[c] = cls | (1 << v)
                break
        else:
            classes.append(1 << v)
    return [list(bits(cls)) for cls in classes]


COLOURING_STEP_LIMIT = 100_000
"""Colours ``exact_colouring`` gives to vertices before it gives up, about
0.3 s of search. The most steps any call of the package's tests or verify
suites (seeds 0 and 7) takes is 16; over every connected graph on at most 6
vertices and every k it is 9, over 200 random 16-vertex graphs G(16, 1/2) at
the k the bound report tries 179, and ``random_regular(30, 5, 0)`` at k = 3
takes 2,817. ``random_regular(60, 5, 0)`` at k = 3 gives up."""


def exact_colouring(g: Graph, k: int) -> Optional[list[list[int]]]:
    """Backtracking proper k-colouring, or None when infeasible.

    Vertices are coloured by descending degree, lowest id first on a tie, for
    earlier failures. Each tries in ascending order the colours below k that
    no coloured neighbour holds, up to one new colour past those used so
    far, and the first colouring found is returned. Raises GraphError once it
    has given ``COLOURING_STEP_LIMIT`` colours and the search is not done.
    The search keeps its own stack, one colour to try next per vertex, so
    any number of vertices stays clear of Python's recursion limit.
    """
    n = g.n
    if k < 0 or k > n:
        raise GraphError("exact colouring needs 0 <= k <= n")
    adj = g.adj
    colour = [-1] * n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    nxt = [0] * n  # the next colour to try at each position
    used = [0] * (n + 1)  # the colours used before each position
    budget = COLOURING_STEP_LIMIT
    i = 0
    while 0 <= i < n:
        v = order[i]
        taken = {colour[w] for w, _ in adj[v]}
        c = nxt[i]
        while c in taken:
            c += 1
        if c < min(used[i] + 1, k):
            budget -= 1
            if budget < 0:
                raise GraphError(f"exact colouring gave up after {COLOURING_STEP_LIMIT} steps on {n} vertices")
            colour[v] = c
            nxt[i] = c + 1
            used[i + 1] = max(used[i], c + 1)
            i += 1
        else:
            colour[v] = -1
            nxt[i] = 0
            i -= 1
    if i < 0:
        return None
    return [[v for v in range(n) if colour[v] == c] for c in range(used[n])]


def is_proper_colouring(g: Graph, parts: list[list[int]]) -> bool:
    colour = {}
    for c, part in enumerate(parts):
        for v in part:
            colour[v] = c
    if len(colour) != g.n:
        return False
    return all(colour[u] != colour[v] for u, v in g.edges)


def is_complete(g: Graph) -> bool:
    """A complete graph on at least one vertex, without parallel edges."""
    return g.n >= 1 and g.m == g.n * (g.n - 1) // 2 and not g.has_parallel_edges()


def bipartition(g: Graph) -> Optional[tuple[int, int]]:
    """Two-colouring as (side A, side B) bitmasks, or None.

    Each component is searched breadth-first from its lowest vertex, which
    goes to side A, and its layers alternate sides from there. An edge inside
    a layer closes an odd cycle, and without one every edge joins two
    consecutive layers."""
    am = g.adj_mask
    sides = [0, 0]
    unseen = (1 << g.n) - 1
    while unseen:
        layer, side = unseen & -unseen, 0
        while layer:
            unseen &= ~layer
            sides[side] |= layer
            reach = 0
            part = layer
            while part:
                low = part & -part
                reach |= am[low.bit_length() - 1]
                part ^= low
            if reach & layer:
                return None
            layer, side = reach & unseen, side ^ 1
    return sides[0], sides[1]


def _oneway_side(g: Graph, sides: tuple[int, int]) -> tuple[int, int]:
    """The source side of the one-way orientation and its maximum degree:
    the side whose maximum degree is smaller, side A on a tie."""
    deg = g.degrees()
    a, b = (max((deg[v] for v in bits(side)), default=0) for side in sides)
    return (sides[0], a) if a <= b else (sides[1], b)


def forest_peel(g: Graph) -> list[list[int]]:
    """Partition the edges into forests by repeatedly removing a maximal
    depth-first spanning forest.

    Each part is a list of edge indices and is acyclic; the part count is an
    upper estimate of the arboricity. The depth-first walk matters: it leaves
    long paths rather than stars behind, so dense graphs peel in fewer rounds.

    Each round is one ``dfs`` over the edges earlier rounds left and keeps
    its tree edges, the edges that reached a new vertex.
    """
    left = set(range(g.m))
    parts: list[list[int]] = []
    while left:
        part = sorted([i for kind, _, _, i in dfs(g, left) if kind == "tree"])
        left.difference_update(part)
        parts.append(part)
    return parts


def is_forest(g: Graph, edge_indices) -> bool:
    """Whether the edges with the given indices hold no cycle. k edges on n
    vertices are a forest exactly when they leave n - k components (see
    ``min_fvs``); an index given twice counts as a parallel edge."""
    kept = Graph._from_valid(g.n, tuple(g.edges[i] for i in edge_indices))
    return len(kept.components()) == g.n - kept.m


FVS_SUBSET_LIMIT = 1 << 20
"""Vertex subsets ``min_fvs`` tries before it gives up. Every graph on at
most 20 vertices stays within it, as do the at most 18-vertex graphs that the
bound report passes."""


def min_fvs(g: Graph, *, below: Optional[int] = None) -> Optional[int]:
    """Smallest vertex bitmask whose removal leaves a forest, by exhaustive
    search in increasing size. Raises GraphError once it has tried
    ``FVS_SUBSET_LIMIT`` subsets and more remain.

    With ``below``, only the sizes under it are tried, in the same order, and
    None is returned when every such set has at least ``below`` vertices.

    A subset whose removal keeps at least n - size edges is skipped without a
    forest test: a forest on n - size >= 1 vertices has at most n - size - 1
    edges, parallel edges counted, so those edges hold a cycle. Every size
    below n keeps a vertex, and size n - 1 always succeeds, so the rule never
    meets n - size = 0 except on the empty graph, which returns the empty mask
    either way.

    The forest test compares counts. A component on k_i vertices is connected,
    so it has at least k_i - 1 edges, and exactly k_i - 1 when it is a tree (a
    parallel edge is a cycle and costs one edge more). Summed over the c
    components of the kept k vertices, the kept edges number at least k - c,
    with equality exactly when the kept graph is acyclic. Edges are counted
    with their multiplicity; components are found on the neighbourhood masks,
    where parallel edges do not change connectivity.
    """
    n = g.n
    am = g.adj_mask
    full = (1 << n) - 1
    ends = [(1 << u) | (1 << v) for u, v in g.edges]
    budget = FVS_SUBSET_LIMIT
    for size in range(n + 1 if below is None else min(n + 1, below)):
        for subset in islice(combinations(range(n), size), budget):
            removed = mask_of(subset)
            kept = sum(1 for e in ends if not e & removed)
            if kept < n - size and kept == n - size - len(components(am, full & ~removed)):
                return removed
        budget -= comb(n, size)
        if budget < 0:
            raise GraphError(f"feedback vertex set search gave up after {FVS_SUBSET_LIMIT} "
                             f"subsets of {n} vertices")
    return full if below is None or n < below else None


PERFECT_MATCHING_STEP_LIMIT = 100_000
"""Edges ``perfect_matching`` tries before it gives up, about 0.1 s of search.
The most steps any graph of the package, its tests, its benchmark or its
verify suites (seeds 0-299) takes is 31, on a 14-vertex cubic multigraph of
the subcubic construction; the hex grids take one step per matched edge (405
at 30 x 30, 1,175 at 50 x 50).
Of the cubic graphs ``random_regular(120, 3, s)``, seeds 0 and 1 are matched
in 378 and 59,861 steps; seed 2 gives up."""


def perfect_matching(g: Graph, must_include: Optional[int] = None) -> Optional[list[int]]:
    """Perfect matching of a (multi)graph as edge indices, or None.

    ``must_include`` forces one edge index into the matching. Written for the
    cubic components of the bounded-outdegree construction, where existence
    is guaranteed, but works on any small graph. The search matches the
    lowest free vertex v to each free neighbour w in incidence order and
    backtracks. Raises GraphError once it has tried
    ``PERFECT_MATCHING_STEP_LIMIT`` edges and the search is not done.

    A step is skipped untried when it leaves a free neighbour of v or w with
    no free neighbour: that vertex can never be matched, so the skipped
    subtree holds no perfect matching, and the first matching in search order
    is the one found without the check.

    The search keeps its own stack, one frame per matched pair, so a matching
    of any size stays clear of Python's recursion limit.
    """
    if g.n % 2 != 0:
        return None
    chosen: list[int] = []
    start_mask = 0
    if must_include is not None:
        u, v = g.edges[must_include]
        start_mask = (1 << u) | (1 << v)
        chosen.append(must_include)
    full = (1 << g.n) - 1
    adj, nbr = g.adj, g.adj_mask
    budget = PERFECT_MATCHING_STEP_LIMIT
    # the matched set and the next incidence to try, of each vertex the
    # search has stepped from; the vertex is the lowest one left free
    frames: list[tuple[int, int]] = []
    matched, k = start_mask, 0
    while True:
        free = full & ~matched
        if not free:
            return sorted(chosen)
        v = (free & -free).bit_length() - 1
        inc = adj[v]
        while k < len(inc):
            w, i = inc[k]
            k += 1
            if (matched >> w) & 1:
                continue
            budget -= 1
            if budget < 0:
                raise GraphError(f"perfect matching search gave up after {PERFECT_MATCHING_STEP_LIMIT} "
                                 f"steps on {g.n} vertices")
            pair = (1 << v) | (1 << w)
            rest = free & ~pair
            touched = (nbr[v] | nbr[w]) & rest
            while touched:
                x = touched & -touched
                if not nbr[x.bit_length() - 1] & rest:
                    break
                touched ^= x
            if not touched:
                break
        else:
            if not frames:
                return None
            chosen.pop()
            matched, k = frames.pop()
            continue
        chosen.append(i)
        frames.append((matched, k))
        matched, k = matched | pair, 0


@dataclass
class KTreeStructure:
    """Recognition certificate of a k-tree.

    ``order`` lists the vertices outside the central clique in the order they
    can be attached, each with the k-clique it attaches to; reversing it peels
    the graph down to the central clique.
    """

    k: int
    cliques: list[tuple[int, ...]]
    central: tuple[int, ...]
    order: list[tuple[int, tuple[int, ...]]]


def ktree_structure(g: Graph, k: int) -> Optional[KTreeStructure]:
    """Recognise a k-tree and derive a construction order from the clique that
    minimises the largest distance to any vertex (ties: lexicographic)."""
    if k < 1 or g.n < k + 1 or g.m != k * g.n - k * (k + 1) // 2:
        return None
    if g.has_parallel_edges() or not g.is_connected():
        return None
    cliques = _ktree_cliques(g, k)
    if cliques is None:
        return None
    central = _central_clique(g, cliques)
    order = _construction_order(g, k, central)
    if order is None:
        return None
    return KTreeStructure(k=k, cliques=cliques, central=central, order=order)


def _ktree_cliques(g: Graph, k: int) -> Optional[list[tuple[int, ...]]]:
    """All (k+1)-cliques, collected while eliminating simplicial vertices."""
    am = list(g.adj_mask)
    alive = (1 << g.n) - 1
    cliques = set()
    for _ in range(g.n - k - 1):
        v = _simplicial_vertex(am, alive, k, forbidden=0)
        if v is None:
            return None
        hood = am[v] & alive
        cliques.add(tuple(sorted(bits(hood | (1 << v)))))
        alive &= ~(1 << v)
    rest = tuple(sorted(bits(alive)))
    for u in rest:
        if (am[u] & alive) != alive & ~(1 << u):
            return None
    cliques.add(rest)
    return sorted(cliques)


def _simplicial_vertex(am: list[int], alive: int, k: int, forbidden: int) -> Optional[int]:
    for v in bits(alive & ~forbidden):
        hood = am[v] & alive
        if popcount(hood) != k:
            continue
        if all(am[w] & hood == hood & ~(1 << w) for w in bits(hood)):
            return v
    return None


def _central_clique(g: Graph, cliques: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The clique from which the fewest ``layers`` reach every vertex, the
    least such clique on a tie. The k-tree is connected, so the layer count
    is one more than the largest distance from the clique to a vertex."""
    return min(cliques, key=lambda c: (sum(1 for _ in layers(g.adj_mask, mask_of(c))), c))


def _construction_order(g: Graph, k: int, central: tuple[int, ...]):
    am = list(g.adj_mask)
    alive = (1 << g.n) - 1
    keep = mask_of(central)
    removed = []
    while popcount(alive) > k + 1:
        v = _simplicial_vertex(am, alive, k, forbidden=keep)
        if v is None:
            return None
        hood = tuple(sorted(bits(am[v] & alive)))
        removed.append((v, hood))
        alive &= ~(1 << v)
    if alive != keep:
        return None
    removed.reverse()
    return removed


def regularize(g: Graph, target: int) -> Graph:
    """Embed g in a target-regular supergraph by repeatedly taking two copies
    and joining deficient vertices; g sits on the first n vertex ids."""
    if target < g.max_degree():
        raise GraphError("target degree below the maximum degree")
    cur = g
    while any(d != target for d in cur.degrees()):
        n = cur.n
        edges = list(cur.edges)
        edges.extend((u + n, v + n) for u, v in cur.edges)
        for v in range(n):
            if cur.degree(v) < target:
                edges.append((v, v + n))
        cur = Graph(2 * n, edges)
    return cur
