import math
import random
import time
from itertools import permutations

import pytest

from firebreak.graphs import (
    Graph,
    GraphError,
    Orientation,
    ParseError,
    bits,
    bridges,
    canonical_form,
    components,
    distances,
    mask_of,
    orientation_from_bits,
    popcount,
    radius,
    read_graph,
    read_orientation,
    to_dot,
    write_graph,
    write_orientation,
)
from firebreak.families import complete, cycle, enumerate_connected, path, petersen, random_regular


def test_bitmask_helpers():
    m = mask_of([0, 3, 5])
    assert list(bits(m)) == [0, 3, 5]
    assert popcount(m) == 3


def test_graph_invariants():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1]
    # parallel edges count once each, as in the incidence lists
    assert Graph(2, [(0, 1), (0, 1)]).degrees() == [2, 2]
    multi = Graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (3, 4)])
    assert multi.degrees() == [len(a) for a in multi.adj] == [2, 3, 3, 3, 3]
    assert Graph(3, []).degrees() == [0, 0, 0]
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 5)])


def test_parallel_edges_internal_only():
    g = Graph(2, [(0, 1), (1, 0)])
    assert g.has_parallel_edges()
    assert g.degree(0) == 2


def test_read_smallest_path():
    g = read_graph("p 3 2\ne 0 1\ne 1 2\n")
    assert g == path(3)


def test_write_complete_graph():
    text = write_graph(complete(4))
    lines = text.strip().splitlines()
    assert lines[0] == "p 4 6"
    assert sum(1 for ln in lines if ln.startswith("e ")) == 6


def test_round_trip_identity():
    for g in [complete(4), petersen(), path(6)]:
        assert read_graph(write_graph(g)) == g


def test_loop_edge_rejected():
    with pytest.raises(ParseError) as err:
        read_graph("p 3 1\ne 2 2\n")
    assert err.value.line == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        read_graph("p 2 1\ne 0 5\n")
    with pytest.raises(ParseError):
        read_graph("e 0 1\n")
    with pytest.raises(ParseError):
        read_graph("p 2 2\ne 0 1\n")
    with pytest.raises(ParseError):
        read_graph("p 3 2\ne 0 1\ne 1 0\n")  # public format is simple


@pytest.mark.parametrize("text, line", [
    ('# meta {"scheme": "x"}\no 2 2\na 0 1\na 1 0\n', 4),
    ("o 3 2\n\n# c\na 0 1\na 1 0\n", 5),
])
def test_orientation_parallel_arc_reports_its_line(text, line):
    with pytest.raises(ParseError, match="parallel edge") as err:
        read_orientation(text)
    assert err.value.line == line


def test_orientation_round_trip():
    o = orientation_from_bits(complete(4), 0b101010)
    o2 = read_orientation(write_orientation(o))
    assert o2 == o
    assert o2.direction_bits() == 0b101010


def test_orientation_handshake():
    g = petersen()
    for word in (0, 1, 2**15 - 1, 12345):
        o = orientation_from_bits(g, word)
        assert sum(o.out_degree(v) for v in range(g.n)) == g.m
        assert all(o.out_degree(v) + o.in_degree(v) == g.degree(v) for v in range(g.n))


def test_orientation_needs_every_edge():
    with pytest.raises(GraphError, match=r"^exactly one direction per edge is required$"):
        Orientation(path(3), [(0, 1)])
    with pytest.raises(GraphError, match=r"^arc 0->2 does not orient edge 1 \(1,2\)$"):
        Orientation(path(3), [(0, 1), (0, 2)])
    with pytest.raises(GraphError, match=r"^arc 2->2 does not orient edge 1 \(1,2\)$"):
        Orientation(path(3), [(1, 0), (2, 2)])
    assert Orientation(path(3), [(1, 0), (2, 1)]).arcs == ((1, 0), (2, 1))


def test_orientation_from_bits_matches_constructor():
    # without meta the orientation skips Orientation's checks, so compare
    # every word with a checked copy
    for g in [*(g for n in range(1, 5) for g in enumerate_connected(n)), complete(5)]:
        for word in range(1 << g.m):
            arcs = [(max(e), min(e)) if word >> i & 1 else (min(e), max(e)) for i, e in enumerate(g.edges)]
            o, ref = orientation_from_bits(g, word), Orientation(g, arcs)
            assert (o.arcs, o.meta, o.out_mask) == (ref.arcs, {}, ref.out_mask)
            assert o == ref and hash(o) == hash(ref)
    assert orientation_from_bits(path(3), 0b10, {"scheme": "x"}).meta == {"scheme": "x"}


def test_dot_export():
    assert "0 -- 1" in to_dot(path(2))
    o = orientation_from_bits(path(2), 0)
    assert "0 -> 1" in to_dot(o)


def test_metrics_directed_cycle():
    arcs = [(i, (i + 1) % 5) for i in range(5)]
    o = Orientation(cycle(5), arcs)
    assert distances(o, 0) == [0, 1, 2, 3, 4]
    assert distances(o, 3) == [2, 3, 4, 0, 1]
    assert distances(cycle(5), 0) == [0, 1, 2, 2, 1]
    assert radius(o) == 4


def test_metrics_path_and_complete():
    assert distances(path(5), 0) == [0, 1, 2, 3, 4]
    assert distances(path(5), 2) == [2, 1, 0, 1, 2]
    assert radius(path(5)) == 2
    assert distances(complete(6), 4) == [1, 1, 1, 1, 0, 1]


def test_metrics_unreachable_is_infinite():
    o = orientation_from_bits(path(3), 0)  # 0 -> 1 -> 2
    assert distances(o, 2) == [math.inf, math.inf, 0]
    assert distances(o, 1) == [math.inf, 0, 1]
    assert distances(Graph(3, [(0, 1)]), 0) == [0, 1, math.inf]
    assert radius(o) == 2  # vertex 0 reaches everything


def test_components_of_induced_masks():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
    am = g.adj_mask
    assert components(am, 0) == []
    assert components(am, 0b1111111) == [0b1111, 0b110000, 0b1000000]
    assert components(am, 0b1111011) == [0b11, 0b1000, 0b110000, 0b1000000]
    assert components(am, 0b0100101) == [0b1, 0b100, 0b100000]
    assert g.components() == components(am, (1 << g.n) - 1)
    assert Graph(0, []).components() == []
    for h in enumerate_connected(5):
        for alive in range(1 << h.n):
            comps = components(h.adj_mask, alive)
            assert sum(comps) == alive and all(a & -a < b & -b for a, b in zip(comps, comps[1:]))
            sub, _ = h.subgraph(alive)
            assert len(comps) == len(sub.components())


def test_radius_matches_metrics():
    cases = [Graph(0, []), Graph(1, []), orientation_from_bits(Graph(1, []), 0)]
    for g in (g for n in range(2, 5) for g in enumerate_connected(n)):
        cases += [orientation_from_bits(g, word) for word in range(1 << g.m)]
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(2, 11)
        density = rng.choice((0.2, 0.4, 0.7))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
        cases += [g, orientation_from_bits(g, rng.getrandbits(max(g.m, 1)))]
    for obj in cases:
        reference = min((max(distances(obj, s)) for s in range(obj.n)), default=0)
        assert radius(obj) == reference, obj


def test_bridges_path():
    found, comps = bridges(path(3))
    assert found == {0, 1}
    assert len(comps) == 3


def test_bridges_petersen():
    found, comps = bridges(petersen())
    assert found == set()
    assert len(comps) == 1


def test_bridges_two_triangles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    found, comps = bridges(g)
    assert found == {6}
    assert len(comps) == 2


def test_bridges_parallel_edges_are_not_bridges():
    g = Graph(2, [(0, 1), (0, 1)])
    found, comps = bridges(g)
    assert found == set()
    assert len(comps) == 1


# --- canonical form


def relabellings(g):
    """Every relabelling of g's edge set, as sorted edge tuples, by brute force."""
    return {
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges))
        for p in permutations(range(g.n))
    }


def test_canonical_form_against_brute_force():
    # on every connected graph with n <= 5: the form is a relabelling of the
    # input, and two graphs share a form exactly when they share the lex-min
    # relabelling over all n! permutations
    for n in range(1, 6):
        by_form, by_brute = {}, {}
        for i, g in enumerate(enumerate_connected(n)):
            form = canonical_form(g)
            perms = relabellings(g)
            assert form.n == g.n and tuple(sorted(form.edges)) in perms
            by_form.setdefault(form, set()).add(i)
            by_brute.setdefault(min(perms), set()).add(i)
        assert sorted(map(sorted, by_form.values())) == sorted(map(sorted, by_brute.values()))


def test_canonical_form_edge_cases():
    for g in (Graph(0, []), Graph(3, []), Graph(5, [(3, 4), (0, 2)])):
        assert tuple(sorted(canonical_form(g).edges)) in relabellings(g)
    assert canonical_form(Graph(4, [(0, 1), (2, 3)])) == canonical_form(Graph(4, [(0, 3), (1, 2)]))
    assert canonical_form(Graph(4, [(0, 1), (1, 2)])) != canonical_form(Graph(4, [(0, 1), (2, 3)]))


def test_canonical_form_class_counts():
    # connected graphs up to isomorphism, n = 1..6 (OEIS A001349)
    counts = [len({canonical_form(g) for g in enumerate_connected(n)}) for n in range(1, 7)]
    assert counts == [1, 1, 2, 6, 21, 112]


def test_canonical_form_refuses_oversized_search():
    # refinement splits nothing on a regular graph: a cubic graph on 12
    # vertices would take 12! labellings, Petersen 10!; both are refused
    # before the search starts
    for g in (random_regular(12, 3, 0), petersen()):
        start = time.perf_counter()
        with pytest.raises(GraphError, match="over the limit"):
            canonical_form(g)
        assert time.perf_counter() - start < 1
