"""Graph family generators and small-graph enumeration.

Random families are deterministic in the seed.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, permutations
from typing import Iterator

from .graphs import Graph, GraphError, bits, components


GRAPH_SIZE_LIMIT = 1_000_000
"""Vertices plus edges a family builds at most. A builder checks its size,
counted from the parameters alone, before it lists a vertex or an edge, so a
size flag such as ``--n 10**20`` is refused with a GraphError instead of
filling memory. ``random_regular`` is bounded by ``PAIRING_STUB_LIMIT``."""


def _check_size(what: str, n: int, m: int) -> None:
    """Refuse a graph of n vertices and m edges past GRAPH_SIZE_LIMIT."""
    if n + m > GRAPH_SIZE_LIMIT:
        raise GraphError(f"{what} would have more than {GRAPH_SIZE_LIMIT:,} vertices and edges in all")


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    _check_size("complete graph", n, n * (n - 1) // 2)
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise GraphError("complete bipartite graph needs p, q >= 1")
    _check_size("complete bipartite graph", p + q, p * q)
    edges = [(a, p + b) for a in range(p) for b in range(q)]
    return Graph(p + q, edges)


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    _check_size("path", n, n - 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    _check_size("cycle", n, n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: centre 0 joined to n-1 leaves."""
    if n < 1:
        raise GraphError("star needs n >= 1")
    _check_size("star", n, n - 1)
    return Graph(n, [(0, i) for i in range(1, n)])


def path_power(n: int, k: int) -> Graph:
    """kth power of the path: ids adjacent when at distance at most k."""
    if n < 1 or k < 1:
        raise GraphError("path power needs n >= 1 and k >= 1")
    reach = min(k, n - 1)
    _check_size("path power", n, n * reach - reach * (reach + 1) // 2)
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)]
    return Graph(n, edges)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def cube() -> Graph:
    """3-dimensional hypercube Q3."""
    edges = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    return Graph(8, edges)


def prism(n: int = 3) -> Graph:
    """n-prism: two n-cycles joined by a perfect matching."""
    if n < 3:
        raise GraphError("prism needs n >= 3")
    _check_size("prism", 2 * n, 3 * n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def k33() -> Graph:
    return complete_bipartite(3, 3)


def grid_rect(w: int, h: int) -> Graph:
    """Rectangular grid patch with w columns and h rows; id = r*w + c."""
    if w < 2 or h < 2:
        raise GraphError("rectangular grid needs w, h >= 2")
    _check_size("rectangular grid", w * h, 2 * w * h - w - h)
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h:
                edges.append((v, v + w))
    return Graph(w * h, edges)


def grid_tri(w: int, h: int) -> Graph:
    """Triangular grid patch; odd rows sit half a step to the right.

    Vertex (r, c) has id r*w + c. In-row edges join consecutive columns; the
    diagonal edges make every interior vertex degree 6.
    """
    if w < 2 or h < 2:
        raise GraphError("triangular grid needs w, h >= 2")
    _check_size("triangular grid", w * h, 3 * w * h - 2 * w - 2 * h + 1)
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h:
                if r % 2 == 0:
                    if c - 1 >= 0:
                        edges.append((v, v + w - 1))
                    edges.append((v, v + w))
                else:
                    edges.append((v, v + w))
                    if c + 1 < w:
                        edges.append((v, v + w + 1))
    return Graph(w * h, edges)


def grid_hex(w: int, h: int) -> Graph:
    """Hexagonal grid patch in brick-wall form: the rectangular grid with
    vertical edges kept only where row+column is even. Subcubic."""
    if w < 2 or h < 2:
        raise GraphError("hexagonal grid needs w, h >= 2")
    _check_size("hexagonal grid", w * h, h * (w - 1) + ((h - 1) * w + 1) // 2)
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h and (r + c) % 2 == 0:
                edges.append((v, v + w))
    return Graph(w * h, edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform labelled tree via a random Pruefer sequence."""
    if n < 1:
        raise GraphError("tree needs n >= 1")
    _check_size("tree", n, n - 1)
    if n == 1:
        return Graph(1, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    edges.append((u, heapq.heappop(leaves)))
    return Graph(n, edges)


def random_ktree(n: int, k: int, seed: int = 0) -> Graph:
    """k-tree grown by repeatedly attaching a vertex to a random k-clique."""
    if k < 1 or n < k + 1:
        raise GraphError("k-tree needs k >= 1 and n >= k+1")
    _check_size("k-tree", n, n * k - k * (k + 1) // 2)
    rng = random.Random(seed)
    root = list(range(k + 1))
    edges = list(combinations(root, 2))
    cliques = [tuple(c) for c in combinations(root, k)]
    for u in range(k + 1, n):
        host = cliques[rng.randrange(len(cliques))]
        edges.extend((w, u) for w in host)
        for rest in combinations(host, k - 1):
            cliques.append(tuple(sorted(rest + (u,))))
    return Graph(n, edges)


PAIRING_STUB_LIMIT = 2_000_000
"""Stubs ``random_regular`` shuffles, over all its tries, before it gives up.
A graph with n*d <= 200 gets at least 10,000 tries. The sizes the package, its
tests and its benchmark use (d <= 5, n <= 24) took at most 7,169 tries on
seeds 0-299; the benchmark's (24, 5, 0) takes 1,453."""


def random_regular(n: int, d: int, seed: int = 0) -> Graph:
    """Random connected d-regular simple graph by the pairing model with
    rejection. Raises GraphError once ``PAIRING_STUB_LIMIT`` would be
    exceeded by one more try, and at once where no such graph exists: below
    d = 2 only K1 and K2 are connected and regular.

    Each try shuffles the n*d stubs (one per vertex and unit of degree, the
    shuffled list carried from try to try) and pairs neighbouring positions.
    The shuffle is ``random.shuffle`` written out: for i from the last
    position down to 1 it draws ``getrandbits(k)``, k = (i + 1).bit_length(),
    until the draw j is at most i, and swaps positions i and j, which is what
    ``Random._randbelow`` does for ``shuffle``. A simple pairing has
    probability about exp(-(d^2 - 1)/4) (Wormald 1999), so (24, 5, 0) takes
    1,453 tries, and the two method calls per swap inside ``random.shuffle``
    were most of its cost. The draws, the stubs after each try, the try count
    and so every graph are the same as with ``rng.shuffle``. A try stops
    testing at its first loop or repeated pair.
    """
    if d < 0:
        raise GraphError("d-regular graph needs d >= 0")
    if n < d + 1 or (n * d) % 2 != 0:
        raise GraphError("d-regular graph needs n >= d+1 and n*d even")
    if d < 2 and n != d + 1:
        raise GraphError("connected d-regular graph with d < 2 needs n = d+1")
    getrandbits = random.Random(seed).getrandbits
    tries = PAIRING_STUB_LIMIT // max(n * d, 1)
    stubs = [v for v in range(n) for _ in range(d)] if tries else []
    draws = [(i, (i + 1).bit_length()) for i in range(len(stubs) - 1, 0, -1)]
    for _ in range(tries):
        for i, k in draws:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        seen = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            key = u * n + v if u < v else v * n + u
            if u == v or key in seen:
                break
            seen.add(key)
        else:
            g = Graph(n, zip(stubs[::2], stubs[1::2]))
            if g.is_connected():
                return g
    raise GraphError(f"pairing model gave up after {tries} tries for a {d}-regular graph "
                     f"on n={n}, seed={seed}")


FAMILIES = {
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "path": path,
    "cycle": cycle,
    "star": star,
    "path_power": path_power,
    "petersen": petersen,
    "cube": cube,
    "prism": prism,
    "k33": k33,
    "grid_rect": grid_rect,
    "grid_tri": grid_tri,
    "grid_hex": grid_hex,
    "random_tree": random_tree,
    "random_ktree": random_ktree,
    "random_regular": random_regular,
}


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Yield every labelled simple connected graph on n vertices exactly once.

    The graphs are the connected edge words in ascending order (bit i = the
    ith vertex pair of ``combinations(range(n), 2)``), each with its edges
    in pair order; there are 2^C(n,2) words, so n is capped at 6.

    A word is split into a low part (its first 8 bits) and a high part (the
    rest), and each part is grouped by the component partition its edges
    induce on the vertices: at n = 6, the 256 low parts fall into 70
    partitions and the 128 high parts into 30. Connectivity is then a table
    lookup. For each distinct high partition, the ascending list of low parts
    whose partition joins with it into a single block is built once, and the
    inner loop yields every low part on that list with no test at all.

    Sound: the components of L + H are the blocks of the join of P(L) and
    P(H), the finest partition coarser than both. A block of either
    partition is connected within L + H, so each block of the join lies in
    one component; every edge of L + H lies inside a block of P(L) or of
    P(H), so no edge leaves a block of the join. Connectivity therefore
    depends only on the pair of partitions. A pair with more than n + 1
    blocks between them is not tested: the join is P(L) merged along the
    blocks of P(H), a block of s vertices merges at most s - 1 times, so the
    join keeps at least |P(L)| - (n - |P(H)|) blocks.

    Order: the high parts run ascending in the outer loop and the low parts
    ascending within each, which is ascending word order. Every graph is
    built by ``Graph._from_valid``, since its edges are vertex pairs of
    ``combinations(range(n), 2)``. The tables depend on n alone, so
    ``_join_table`` builds them once per n.
    """
    if not 1 <= n <= 6:
        raise GraphError("labelled enumeration supports 1 <= n <= 6")
    make = Graph._from_valid
    for tail, heads in _join_table(n):
        for head in heads:
            yield make(n, head + tail)


def connected_by_class(n: int) -> Iterator[tuple[Graph, int]]:
    """Yield (graph, class index) for each graph of enumerate_connected(n),
    in its order; classes are numbered 0, 1, ... by their first member.

    The first graph not yet indexed opens a class, and the edge word of
    every relabelling of it under the n! vertex permutations is recorded
    under that index, so each later graph is one lookup on its edge word
    (bit i = the ith pair of ``combinations(range(n), 2)``). A class is
    exactly the relabellings of its first member, and a simple graph is
    determined by its edge word, so the index is exact by construction.
    """
    if not 1 <= n <= 6:
        raise GraphError("labelled enumeration supports 1 <= n <= 6")
    pairs = list(combinations(range(n), 2))
    pair_bit = {pair: 1 << i for i, pair in enumerate(pairs)}
    # moves[k][i]: the bit of pair i's image under the kth permutation
    moves = [[pair_bit[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] for u, v in pairs]
             for p in permutations(range(n))]
    index: dict[int, int] = {}
    classes = 0
    for g in enumerate_connected(n):
        cls = index.get(sum(map(pair_bit.__getitem__, g.edges)))
        if cls is None:
            cls, classes = classes, classes + 1
            at = [pairs.index(e) for e in g.edges]
            for move in moves:
                index[sum(map(move.__getitem__, at))] = cls
        yield g, cls


@cache
def _join_table(n: int) -> tuple[tuple[tuple, tuple[tuple, ...]], ...]:
    """enumerate_connected's table for n: one row per high part in ascending
    order, its edges and the edges of every low part that joins with it into
    one block, ascending. It holds only tuples, so every call shares it."""
    pair_list = list(combinations(range(n), 2))
    split = min(len(pair_list), 8)
    low_edges, low_parts = _pair_subsets(n, pair_list[:split])
    high_edges, high_parts = _pair_subsets(n, pair_list[split:])
    full = (1 << n) - 1
    distinct = {part: i for i, part in enumerate(dict.fromkeys(low_parts))}
    low_ids = [distinct[part] for part in low_parts]
    blocks = [len(set(part)) for part in distinct]
    joined = {}
    for high_part in set(high_parts):
        most = n + 1 - len(set(high_part))
        joins = [k <= most and len(components([a | b for a, b in zip(part, high_part)], full)) == 1
                 for part, k in zip(distinct, blocks)]
        joined[high_part] = tuple(low_edges[low] for low, i in enumerate(low_ids) if joins[i])
    return tuple((tail, joined[part]) for tail, part in zip(high_edges, high_parts) if joined[part])


def _pair_subsets(n: int, pairs: list[tuple[int, int]]) -> tuple[list[tuple], list[tuple[int, ...]]]:
    """The edges of every subset of pairs, and its component partition as the
    tuple of each vertex's component mask; both indexed by the subset's
    bitmask."""
    full = (1 << n) - 1
    edge_table, part_table = [], []
    for word in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if (word >> i) & 1)
        am = [0] * n
        for u, v in edges:
            am[u] |= 1 << v
            am[v] |= 1 << u
        block = [0] * n
        for comp in components(am, full):
            for v in bits(comp):
                block[v] = comp
        edge_table.append(edges)
        part_table.append(tuple(block))
    return edge_table, part_table
