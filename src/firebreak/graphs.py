"""Core graph and orientation types.

Vertices are dense integer ids 0..n-1 and every vertex set in the package is
an int bitmask, which keeps the game solver's inner loops cheap. Graphs are
immutable after construction. Parallel edges are tolerated internally (the
subcubic construction's thread multigraph needs them for ``perfect_matching``
and its cycle search); the text format and the generators only produce simple
graphs.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import factorial, prod
from typing import Iterable, Iterator, Optional, Sequence

INF = float("inf")


class GraphError(ValueError):
    """Structural precondition violated (bad input graph or parameters)."""


class ParseError(GraphError):
    """Malformed graph or orientation text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# bitmask vertex sets


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Finite undirected graph on vertices 0..n-1, loops forbidden."""

    __slots__ = ("n", "edges", "_adj", "_adj_mask")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"loop edge ({u},{u}) is forbidden")
        self.n = n
        self.edges = edges
        self._adj: Optional[list[list[tuple[int, int]]]] = None
        self._adj_mask: Optional[list[int]] = None

    @classmethod
    def _from_valid(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """A graph equal to ``Graph(n, edges)``, built without its checks.

        The caller guarantees that ``edges`` is a tuple of pairs of ints in
        0..n-1 with no loops; the tuple is kept as given.
        """
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        g._adj = None
        g._adj_mask = None
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> list[list[tuple[int, int]]]:
        """Incidence lists: adj[v] = [(neighbour, edge index), ...]."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for i, (u, v) in enumerate(self.edges):
                adj[u].append((v, i))
                adj[v].append((u, i))
            self._adj = adj
        return self._adj

    @property
    def adj_mask(self) -> list[int]:
        """Neighbourhood bitmasks (parallel edges collapse)."""
        if self._adj_mask is None:
            am = [0] * self.n
            for u, v in self.edges:
                am[u] |= 1 << v
                am[v] |= 1 << u
            self._adj_mask = am
        return self._adj_mask

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        """Degrees counted from the edge list, parallel edges included."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_parallel_edges(self) -> bool:
        seen = set()
        for u, v in self.edges:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return True
            seen.add(key)
        return False

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> list[int]:
        """Connected components as vertex bitmasks."""
        return components(self.adj_mask, (1 << self.n) - 1)

    def subgraph(self, vertices: int) -> tuple["Graph", list[int]]:
        """Induced subgraph on a vertex bitmask; returns it with the id map back."""
        vmap = list(bits(vertices))
        index = {v: i for i, v in enumerate(vmap)}
        sub_edges = [
            (index[u], index[v]) for u, v in self.edges if (vertices >> u) & 1 and (vertices >> v) & 1
        ]
        return Graph(len(vmap), sub_edges), vmap

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        norm = lambda es: sorted((u, v) if u < v else (v, u) for u, v in es)
        return self.n == other.n and norm(self.edges) == norm(other.edges)

    def __hash__(self):
        norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in self.edges))
        return hash((self.n, norm))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Orientation:
    """An undirected graph together with one direction per edge.

    ``arcs[i]`` is the edge ``graph.edges[i]`` written as (tail, head).
    ``meta`` carries construction details (scheme name, arc labels, grid
    dimensions) that scripted strategies rely on.
    """

    __slots__ = ("graph", "arcs", "meta", "_out_mask")

    def __init__(self, graph: Graph, arcs: Sequence[tuple[int, int]], meta: Optional[dict] = None):
        arcs = tuple((int(t), int(h)) for t, h in arcs)
        if len(arcs) != graph.m:
            raise GraphError("exactly one direction per edge is required")
        for i, (t, h) in enumerate(arcs):
            u, v = graph.edges[i]
            if (t, h) != (u, v) and (t, h) != (v, u):
                raise GraphError(f"arc {t}->{h} does not orient edge {i} ({u},{v})")
        self.graph = graph
        self.arcs = arcs
        self.meta = dict(meta) if meta else {}
        self._out_mask: Optional[list[int]] = None

    @classmethod
    def _from_valid(cls, graph: Graph, arcs: tuple[tuple[int, int], ...]) -> "Orientation":
        """An orientation equal to ``Orientation(graph, arcs)``, built without
        its checks.

        The caller guarantees that ``arcs`` is a tuple of int pairs, one per
        edge of ``graph``, each its edge in one of its two directions; the
        tuple is kept as given, and ``meta`` is empty.
        """
        o = cls.__new__(cls)
        o.graph = graph
        o.arcs = arcs
        o.meta = {}
        o._out_mask = None
        return o

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def out_mask(self) -> list[int]:
        """Out-neighbourhood bitmasks (parallel arcs collapse)."""
        if self._out_mask is None:
            om = [0] * self.graph.n
            for t, h in self.arcs:
                om[t] |= 1 << h
            self._out_mask = om
        return self._out_mask

    def out_degree(self, v: int) -> int:
        """Arcs leaving v, parallel arcs included."""
        return sum(t == v for t, _ in self.arcs)

    def in_degree(self, v: int) -> int:
        """Arcs entering v, parallel arcs included."""
        return sum(h == v for _, h in self.arcs)

    def max_out_degree(self) -> int:
        deg = [0] * self.graph.n
        for t, _ in self.arcs:
            deg[t] += 1
        return max(deg, default=0)

    def direction_bits(self) -> int:
        """Bitmask with bit i set when edge i runs higher id to lower id."""
        word = 0
        for i, (t, h) in enumerate(self.arcs):
            if t > h:
                word |= 1 << i
        return word

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.graph == other.graph and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.graph, self.arcs))

    def __repr__(self):
        return f"Orientation(n={self.n}, m={len(self.arcs)})"


def orientation_from_bits(graph: Graph, word: int) -> Orientation:
    """Orientation where bit i = 0 orients edge i from its lower id to its higher id.

    The arcs are the graph's own edges, so it is built by
    ``Orientation._from_valid``."""
    arcs = []
    for i, (u, v) in enumerate(graph.edges):
        lo, hi = (u, v) if u < v else (v, u)
        arcs.append((hi, lo) if (word >> i) & 1 else (lo, hi))
    return Orientation._from_valid(graph, tuple(arcs))


# ---------------------------------------------------------------------------
# canonical form


CANONICAL_LABELLING_LIMIT = 1 << 20
"""Labellings ``canonical_form`` may try. Every graph on at most 9 vertices
stays within it (9! = 362,880); a regular graph on 10 vertices, whose
refinement splits nothing, does not (10! = 3,628,800)."""


def canonical_form(g: Graph) -> Graph:
    """``g`` relabelled so that isomorphic graphs come out equal.

    Vertex colours start as degrees and are refined by the sorted colours of
    each vertex's neighbours until the number of colours stops growing. The
    cells are ordered by colour, so the cell of the smallest colour takes the
    lowest ids. Over every labelling that keeps each cell on its own block of
    ids, the one with the least edge word wins, and ``g`` relabelled by it is
    returned. The edge word of a labelling is the integer with bit a*n + b set
    for each relabelled edge {a, b}, a < b.

    Sound by construction: the output is a literal relabelling of ``g``'s
    edge set, so equal outputs prove two graphs isomorphic, however weak the
    refinement. That holds on a multigraph too, whose parallel edges collapse
    in the neighbourhood masks the refinement reads but not in the edge
    list that is relabelled. Complete for simple graphs: the refinement is
    isomorphism-invariant (a colour is the rank of a signature built from
    invariant data), so an isomorphism carries the cell-respecting labellings
    of one graph onto those of the other, both minimise over the same set of
    edge words, and a simple graph is determined by its edge word.

    The search tries the product of the cells' factorials, which suits the
    small graphs it is used on (up to about 8 vertices); refinement splits
    nothing on a regular graph, which then costs n! labellings. Raises
    GraphError, before it tries any, when that product exceeds
    ``CANONICAL_LABELLING_LIMIT``.
    """
    n = g.n
    nbrs = [list(bits(a)) for a in g.adj_mask]
    colour = [len(a) for a in nbrs]
    count = len(set(colour))
    while count < n:
        sig = [(colour[v], tuple(sorted([colour[w] for w in nbrs[v]]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == count:
            break
        count = len(rank)
    cells = [[v for v in range(n) if colour[v] == c] for c in sorted(set(colour))]
    labellings = prod(factorial(len(cell)) for cell in cells)
    if labellings > CANONICAL_LABELLING_LIMIT:
        raise GraphError(f"canonical form needs {labellings} labellings of {n} vertices, "
                         f"over the limit of {CANONICAL_LABELLING_LIMIT}")
    bit = [[1 << (a * n + b if a < b else b * n + a) for b in range(n)] for a in range(n)]
    best_word = None
    label = [0] * n
    for parts in product(*(permutations(cell) for cell in cells)):
        for i, v in enumerate(chain.from_iterable(parts)):
            label[v] = i
        word = 0
        for u, v in g.edges:
            word |= bit[label[u]][label[v]]
        if best_word is None or word < best_word:
            best_word, best = word, list(label)
    return Graph(n, sorted((best[u], best[v]) if best[u] < best[v] else (best[v], best[u])
                           for u, v in g.edges))


# ---------------------------------------------------------------------------
# text formats
#
# Graph file:        '#' comments, header "p <n> <m>", then "e <u> <v>" lines.
# Orientation file:  header "o <n> <m>", then "a <u> <v>" lines (arc u->v),
#                    one per underlying edge.


def read_graph(text: str) -> Graph:
    n, edges = _parse_listing(text, header="p", item="e")
    return Graph(n, edges)


def write_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_orientation(text: str) -> Orientation:
    meta = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("# meta "):
            import json

            try:
                meta = json.loads(line[len("# meta "):])
            except ValueError:
                raise ParseError("meta is not valid JSON", lineno) from None
            if not isinstance(meta, dict):
                raise ParseError("meta must be a JSON object", lineno)
            break
    n, arcs = _parse_listing(text, header="o", item="a")
    graph = Graph(n, [(min(t, h), max(t, h)) for t, h in arcs])
    return Orientation(graph, arcs, meta=meta)


def write_orientation(o: Orientation) -> str:
    lines = [f"o {o.graph.n} {o.graph.m}"]
    if o.meta:
        import json

        lines.insert(0, "# meta " + json.dumps(o.meta, sort_keys=True))
    lines.extend(f"a {t} {h}" for t, h in o.arcs)
    return "\n".join(lines) + "\n"


def _parse_listing(text: str, header: str, item: str):
    n = None
    m = None
    pairs: list[tuple[int, int]] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == header:
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 3:
                raise ParseError(f"header must be '{header} <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("header counts must be non-negative", lineno)
        elif parts[0] == item:
            if n is None:
                raise ParseError(f"'{item}' line before header", lineno)
            if len(parts) != 3:
                raise ParseError(f"expected '{item} <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("endpoints must be integers", lineno) from None
            if u == v:
                raise ParseError(f"loop edge ({u},{u})", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"endpoint out of range in ({u},{v})", lineno)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ParseError(f"parallel edge ({u},{v})", lineno)
            seen.add(key)
            pairs.append((u, v))
        else:
            raise ParseError(f"unknown record '{parts[0]}'", lineno)
    if n is None:
        raise ParseError("missing header", max(1, text.count("\n") + 1))
    if len(pairs) != m:
        raise ParseError(f"header announces {m} lines, found {len(pairs)}", max(1, text.count("\n") + 1))
    return n, pairs


def to_dot(obj: Graph | Orientation) -> str:
    if isinstance(obj, Orientation):
        lines = ["digraph g {"]
        lines.extend(f"  {t} -> {h};" for t, h in obj.arcs)
    else:
        lines = ["graph g {"]
        lines.extend(f"  {u} -- {v};" for u, v in obj.edges)
        for v in range(obj.n):
            if not obj.adj[v]:
                lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# distances and components


def _neighbourhoods(obj: Graph | Orientation) -> list[int]:
    """Out-neighbourhood masks of an orientation, neighbourhood masks of a graph."""
    return obj.out_mask if isinstance(obj, Orientation) else obj.adj_mask


def layers(nbr: list[int], seen: int) -> Iterator[int]:
    """Breadth-first search from the vertex bitmask ``seen`` along the
    neighbourhood masks ``nbr``: yields ``seen``, then each layer of vertices
    first reached from the one before, as bitmasks, until a layer is empty.
    The next layer is only searched once the consumer asks for it."""
    layer = seen
    while layer:
        yield layer
        reach = 0
        while layer:
            low = layer & -layer
            reach |= nbr[low.bit_length() - 1]
            layer ^= low
        layer = reach & ~seen
        seen |= layer


def distances(obj: Graph | Orientation, source: int) -> list[float]:
    """BFS distances from ``source`` along the edges of a graph or the arcs of
    an orientation; inf where a vertex is unreachable."""
    nbr = _neighbourhoods(obj)
    dist: list[float] = [INF] * len(nbr)
    for d, layer in enumerate(layers(nbr, 1 << source)):
        for v in bits(layer):
            dist[v] = d
    return dist


def components(nbr: list[int], alive: int) -> list[int]:
    """Components, as vertex bitmasks, of the subgraph induced on the bitmask
    ``alive`` by the neighbourhood masks ``nbr``; lowest vertex first."""
    comps = []
    while alive:
        seen = frontier = alive & -alive
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= nbr[v]
            frontier = reach & alive & ~seen
            seen |= frontier
        comps.append(seen)
        alive &= ~seen
    return comps


def radius(obj: Graph | Orientation) -> float:
    """The least eccentricity over all sources, 0 with at most one vertex. A
    source's eccentricity is the largest of its ``distances``, inf when it
    misses a vertex. One search of ``layers`` per source, dropped once it has
    gone one layer short of the least eccentricity so far without reaching
    every vertex, since it can no longer beat it.

    A vertex that no arc enters is reached from no other vertex, so two of
    them make every eccentricity infinite, and one of them is the only
    source whose eccentricity can be finite.
    """
    nbr = _neighbourhoods(obj)
    n = len(nbr)
    if n <= 1:
        return 0
    full = (1 << n) - 1
    entered = 0
    for mask in nbr:
        entered |= mask
    sources = full & ~entered
    if sources & (sources - 1):
        return INF
    best = INF
    for s in bits(sources or full):
        seen = 0
        for depth, layer in enumerate(layers(nbr, 1 << s)):
            seen |= layer
            if seen == full:
                best = depth
                break
            if depth >= best - 1:
                break
    return best


# ---------------------------------------------------------------------------
# depth-first search and bridges


def dfs(g: Graph, usable=None) -> Iterator[tuple[str, int, int, int]]:
    """Depth-first search over the edges of ``g`` whose indices are in
    ``usable`` (all edges when None), as (kind, v, w, i) events about vertex
    w and the edge i joining it to v.

    Each vertex not yet reached becomes a root, in ascending id: ("root", -1,
    w, -1). From v the search takes v's incidences (w, i) in edge-index order
    (``g.adj``), skipping the edge that reached v. It yields ("tree", v, w, i)
    and enters w when w is new, else ("back", v, w, i): w is then an ancestor
    still on the path or a descendant already done. Once w's incidences are
    spent it yields ("done", v, w, i) for the edge that reached w, and goes
    back to v. Its own stack of incidence iterators keeps any depth clear of
    Python's recursion limit.
    """
    adj = g.adj
    if usable is None:
        usable = range(g.m)
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        yield "root", -1, root, -1
        stack = [(-1, root, -1, iter(adj[root]))]
        while stack:
            p, v, in_edge, inc = stack[-1]
            for w, i in inc:
                if i == in_edge or i not in usable:
                    continue
                if seen[w]:
                    yield "back", v, w, i
                else:
                    seen[w] = True
                    yield "tree", v, w, i
                    stack.append((v, w, i, iter(adj[w])))
                    break
            else:
                stack.pop()
                yield "done", p, v, in_edge


def bridges(g: Graph) -> tuple[set[int], list[int]]:
    """Bridge edge indices and the 2-edge-connected components they separate.

    An edge is a bridge when its removal disconnects its component; parallel
    edges are never bridges. Components are returned as vertex bitmasks and
    partition V after the bridges are deleted.

    Low-links come from ``dfs``: w's low is the least discovery time its
    subtree reaches by an edge other than the tree edge v-w, which is a bridge
    when w's low is above v's discovery time.
    """
    disc = [0] * g.n
    low = [0] * g.n
    bridge_set: set[int] = set()
    timer = 0
    for kind, v, w, i in dfs(g):
        if kind == "back":
            low[v] = min(low[v], disc[w])
        elif kind != "done":  # w is new
            timer += 1
            disc[w] = low[w] = timer
        elif v >= 0:
            low[v] = min(low[v], low[w])
            if low[w] > disc[v]:
                bridge_set.add(i)
    keep = [(u, v) for i, (u, v) in enumerate(g.edges) if i not in bridge_set]
    comps = Graph(g.n, keep).components() if g.n else []
    return bridge_set, comps
