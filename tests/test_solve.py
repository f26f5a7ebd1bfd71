import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firebreak.solve
from firebreak.families import (
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    grid_rect,
    k33,
    path,
    petersen,
    random_ktree,
    random_regular,
    star,
)
from firebreak.game import replay
from firebreak.graphs import Graph, GraphError, Orientation, canonical_form, orientation_from_bits
from firebreak.orient import (
    orient_bounded_degree,
    orient_complete,
    orient_half,
    orient_ktree,
    orient_subcubic,
    orient_unicyclic,
)
from firebreak.solve import (
    Engine,
    SolverLimitError,
    _twin_comparisons,
    naive_best_orientation,
    naive_solve_orientation,
    naive_start_value,
    solve_best_orientation,
    solve_orientation,
    solve_undirected,
)


def test_fixed_complete_five():
    gv = solve_orientation(orient_complete(5), 1)
    assert gv.beta == 2 and gv.exact
    assert gv.witness_trace.burned == 2


def test_fixed_directed_cycle():
    assert solve_orientation(orient_unicyclic(cycle(9)), 1).beta == 1


def test_fixed_subcubic_petersen():
    assert solve_orientation(orient_subcubic(petersen()), 1).beta == 2


def test_enough_firefighters_always_one():
    for g in (complete(5), petersen()):
        o = orient_half(g)
        assert solve_orientation(o, o.max_out_degree()).beta == 1


def _both_ways(g):
    """The undirected game as an orientation: every edge as two opposite arcs."""
    both = list(g.edges) + [(v, u) for u, v in g.edges]
    return Orientation(Graph(g.n, both), both)


def test_witness_trace_replays():
    cases = [(o, solve_orientation(o, f)) for o in (orient_complete(6), orient_subcubic(k33())) for f in (1, 2)]
    cases += [(_both_ways(g), solve_undirected(g, f)) for g in (petersen(), grid_rect(3, 4)) for f in (1, 2)]
    for o, gv in cases:
        result = replay(o, gv.witness_trace)
        assert result.valid, (gv.mode, gv.f, result)
        assert gv.witness_trace.burned == gv.beta
        assert gv.per_start[gv.witness_start] == gv.beta
    assert any(len(ev.vertices) == 2 for _, gv in cases for ev in gv.witness_trace.events if ev.kind == "protect")


def _pinned(mode, f, beta, start, nodes, per_start, events, orientation=None):
    """A solve's JSON minus wall_ms; events are (t, kind, vertices)."""
    obj = {
        "f": f, "mode": mode, "beta": beta, "exact": True, "witness_start": start, "nodes_explored": nodes,
        "per_start": {str(s): v for s, v in enumerate(per_start)},
        "trace": {"start": start, "f": f, "burned": beta, "events": [{"t": t, kind: vs} for t, kind, vs in events]},
    }
    if orientation is not None:
        obj["orientation"] = orientation
    return obj


_K5_BEST = [[0, 1], [0, 2], [3, 0], [4, 0], [1, 2], [1, 3], [4, 1], [2, 3], [2, 4], [3, 4]]

PINNED = {
    "grid3x4-undirected-f1": (
        lambda: solve_undirected(grid_rect(3, 4), 1),
        _pinned("undirected", 1, 7, 4, 76, [3, 4, 3, 6, 7, 6, 6, 7, 6, 3, 4, 3], [
            (1, "burn", [4]), (1, "protect", [7]), (2, "burn", [1, 3, 5]), (2, "protect", [6]),
            (3, "burn", [0, 2, 8]), (3, "protect", [11])]),
    ),
    "petersen-undirected-f2": (
        lambda: solve_undirected(petersen(), 2),
        _pinned("undirected", 2, 2, 0, 20, [2] * 10, [
            (1, "burn", [0]), (1, "protect", [1, 4]), (2, "burn", [5]), (2, "protect", [7, 8])]),
    ),
    "4reg-n10-random-f2": (
        lambda: solve_orientation(orientation_from_bits(random_regular(10, 4, 1), random.Random(0).getrandbits(20)), 2),
        _pinned("fixed", 2, 3, 1, 14, [1, 3, 2, 1, 1, 1, 1, 1, 1, 1], [
            (1, "burn", [1]), (1, "protect", [0, 4]), (2, "burn", [3, 8]), (2, "protect", [5, 9])]),
    ),
    "K5-best-f1": (
        lambda: solve_best_orientation(complete(5), 1),
        _pinned("best", 1, 2, 0, 3, [2] * 5, [
            (1, "burn", [0]), (1, "protect", [2]), (2, "burn", [1]), (2, "protect", [3])], _K5_BEST),
    ),
    "K5-best-f2": (
        lambda: solve_best_orientation(complete(5), 2),
        _pinned("best", 2, 1, 0, 3, [1] * 5, [(1, "burn", [0]), (1, "protect", [1, 2])], _K5_BEST),
    ),
    "K33-best-f1": (
        lambda: solve_best_orientation(k33(), 1),
        _pinned("best", 1, 2, 0, 5, [2, 2, 1, 1, 2, 2], [
            (1, "burn", [0]), (1, "protect", [4]), (2, "burn", [3])],
            [[0, 3], [0, 4], [5, 0], [1, 3], [4, 1], [1, 5], [2, 3], [4, 2], [5, 2]]),
    ),
    "K33-best-f2": (
        lambda: solve_best_orientation(k33(), 2),
        _pinned("best", 2, 1, 0, 2, [1] * 6, [(1, "burn", [0]), (1, "protect", [3, 4])],
                [[0, 3], [0, 4], [5, 0], [1, 3], [1, 4], [5, 1], [2, 3], [4, 2], [2, 5]]),
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_witness_pinned(name):
    # the witness is the first optimal play in the engine's protect-set order
    # (threatened vertices first), so a change to that order or to the states
    # searched moves a witness or a count here
    solve, expected = PINNED[name]
    obj = solve().to_json_obj()
    del obj["wall_ms"]
    assert obj == expected


def test_single_start_solve():
    o = orient_complete(6)
    gv = solve_orientation(o, 1, start=5)
    assert gv.beta == 1  # the sacrificed sink burns alone


def test_size_cap():
    g = random_ktree(25, 2, 0)
    with pytest.raises(SolverLimitError):
        solve_orientation(orient_ktree(g, 2), 1)
    with pytest.raises(SolverLimitError):
        solve_best_orientation(complete(8), 1)


def test_bad_game_arguments_raise_graph_error():
    with pytest.raises(GraphError, match="no vertices"):
        solve_best_orientation(Graph(0, []))
    with pytest.raises(GraphError, match="f must be"):
        solve_undirected(complete(4), f=0)
    for start in (-1, 4):
        with pytest.raises(GraphError, match="out of range"):
            solve_orientation(orient_complete(4), 1, start=start)
        with pytest.raises(GraphError, match="out of range"):
            solve_undirected(complete(4), start=start)
    for budget in ({"budget_ms": -1}, {"budget_ms": float("nan")}, {"budget_leaves": -1}):
        with pytest.raises(GraphError, match="must be non-negative"):
            solve_best_orientation(complete(5), **budget)


def test_undirected_star_centre():
    gv = solve_undirected(star(6), 1, start=0)
    assert gv.beta == 5
    assert star(6).n - gv.beta == 1  # exactly one leaf saved


def test_undirected_path_end():
    assert solve_undirected(path(5), 1, start=0).beta == 1


def test_undirected_c4():
    for s in range(4):
        assert solve_undirected(cycle(4), 1, start=s).beta == 2


def test_best_small_completes():
    assert solve_best_orientation(complete(4), 1).beta == 2
    assert solve_best_orientation(complete_bipartite(2, 2), 1).beta == 1


def test_best_k33():
    gv = solve_best_orientation(k33(), 1)
    assert gv.beta == 2  # between the density floor 2 and the one-way bound 3


def _first_optimum(g, f):
    """Best value and the first orientation attaining it, in the scan's
    enumeration order (bit 0 varies slowest), by solving every orientation."""
    def enum_key(word):
        return tuple((word >> i) & 1 for i in range(g.m))

    best, first = None, None
    for word in sorted(range(1 << g.m), key=enum_key):
        value = solve_orientation(orientation_from_bits(g, word), f, want_trace=False).beta
        if best is None or value < best:
            best, first = value, word
    return best, first


def test_best_witness_is_first_optimum():
    fives = list(enumerate_connected(5))
    graphs = [g for n in (2, 3, 4) for g in enumerate_connected(n)]
    graphs += random.Random(5).sample(fives, 120)
    for g in graphs:
        for f in (1, 2):
            gv = solve_best_orientation(g, f, want_trace=False)
            assert (gv.beta, gv.witness_orientation.direction_bits()) == _first_optimum(g, f), (g, f)


def test_best_multigraph_outdegree_limit_before_incumbent():
    # Until the first leaf sets an incumbent, no vertex takes an n-th out-arc.
    # Only parallel edges can reach that limit, and here it decides the witness:
    # the all-forward word 0 is never visited.
    g = Graph(2, [(0, 1)] * 3)
    for f in (1, 2):
        gv = solve_best_orientation(g, f)
        assert (gv.beta, gv.nodes_explored) == (1, 1)
        assert gv.witness_orientation.arcs == ((0, 1), (0, 1), (1, 0))


def _swapped_word(g, word, a, b):
    """The edge word of the orientation of word with vertices a and b swapped."""
    swap = {a: b, b: a}
    index = {frozenset(e): i for i, e in enumerate(g.edges)}
    out = 0
    for x, y in orientation_from_bits(g, word).arcs:
        x, y = swap.get(x, x), swap.get(y, y)
        if x > y:
            out |= 1 << index[frozenset((x, y))]
    return out


def _scan_key(word, m):
    return tuple((word >> i) & 1 for i in range(m))


def _passes(comps, word):
    for i, j, flip in comps:
        bit = (word >> i) & 1
        if bit != ((word >> j) & 1) ^ flip:
            return bit == 0
    return True


# 0, 2, 4 are true twins (a triangle, each joined to 3); 1, 5, 6 are false
# twins (leaves on 3). The classes interleave, so some swaps flip edges.
_MIXED_TWINS = Graph(7, [(0, 2), (0, 4), (2, 4), (0, 3), (2, 3), (3, 4), (1, 3), (3, 5), (3, 6)])
_K33_INTERLEAVED = Graph(6, [(a, b) for a in (0, 2, 4) for b in (1, 3, 5)])


def test_twin_classes():
    assert list(_twin_comparisons(complete(5))) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    # the edge 0-1 is its own image, flipped; 0-2 and 1-2 trade places, as do 0-3 and 1-3
    assert _twin_comparisons(complete(4))[0, 1] == ((0, 0, 1), (1, 3, 0), (2, 4, 0))
    assert list(_twin_comparisons(complete_bipartite(3, 3))) == [(0, 1), (1, 2), (3, 4), (4, 5)]
    assert list(_twin_comparisons(_MIXED_TWINS)) == [(0, 2), (2, 4), (1, 5), (5, 6)]
    assert list(_twin_comparisons(_K33_INTERLEAVED)) == [(0, 2), (2, 4), (1, 3), (3, 5)]
    # classes of two give no checks
    assert list(_twin_comparisons(complete_bipartite(2, 3))) == [(2, 3), (3, 4)]
    assert _twin_comparisons(cycle(4)) == {}
    assert _twin_comparisons(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)])) == {}


def test_twin_checks_decide_word_against_swapped_word():
    for g in (complete(4), complete_bipartite(2, 3), _MIXED_TWINS, _K33_INTERLEAVED):
        for (a, b), comps in _twin_comparisons(g).items():
            for word in range(1 << g.m):
                expected = _scan_key(word, g.m) <= _scan_key(_swapped_word(g, word, a, b), g.m)
                assert _passes(comps, word) == expected, (g, a, b, word)


def test_twin_prune_matches_unreduced_scan(monkeypatch):
    # every connected graph with 2 to 5 vertices, and a seeded share of the
    # 6-vertex ones with twin checks (on the others both scans are one path)
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    sixes = [g for g in enumerate_connected(6) if _twin_comparisons(g)]
    graphs += random.Random(8).sample(sixes, 400)

    def scan():
        out = []
        for g in graphs:
            for f in (1, 2):
                gv = solve_best_orientation(g, f, want_trace=False)
                out.append((gv.beta, gv.witness_orientation.direction_bits(), gv.nodes_explored))
        return out

    reduced = scan()
    monkeypatch.setattr(firebreak.solve, "_twin_comparisons", lambda g: {})
    unreduced = scan()
    assert [r[:2] for r in reduced] == [u[:2] for u in unreduced]
    assert sum(r[2] for r in reduced) < sum(u[2] for u in unreduced)


def test_best_witness_trace_replays():
    gv = solve_best_orientation(complete(5), 1)
    assert replay(gv.witness_orientation, gv.witness_trace).valid
    assert gv.witness_trace.burned == gv.beta


def test_best_budget_flags_inexact():
    gv = solve_best_orientation(complete(7), 1, budget_ms=0.2)
    assert not gv.exact
    assert gv.beta >= 4


def test_best_budget_holds_under_bound_prune():
    # leaves are rare once the sub-digraph bound prunes, so the clock must
    # also be polled on bound checks. K7,7 is far from done after 500 ms, and
    # its leaves then come up to seconds apart: read only every 64 leaves, the
    # clock let the scan run on for 1.5 to 5.6 s
    t0 = time.perf_counter()
    gv = solve_best_orientation(complete_bipartite(7, 7), 1, budget_ms=500, max_edges=49, want_trace=False)
    assert not gv.exact
    assert time.perf_counter() - t0 < 2.0
    assert gv.beta >= 4  # the density floor ceil(49 / 14)


def test_best_leaf_budget_flags_inexact():
    gv = solve_best_orientation(complete(7), 1, budget_leaves=5)
    assert not gv.exact
    assert gv.nodes_explored <= 6
    assert gv.beta >= 4


def test_oracle_fixed_orientations():
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    for seed in range(25):
        rng = random.Random(seed)
        g = graphs[rng.randrange(len(graphs))]
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        assert solve_orientation(o, 1, want_trace=False).beta == naive_solve_orientation(o, 1)


def test_oracle_best_small():
    for n in (2, 3, 4):
        for g in enumerate_connected(n):
            assert solve_best_orientation(g, 1, want_trace=False).beta == naive_best_orientation(g, 1)


def test_naive_best_is_relabelling_invariant():
    # the premise of keying the naive oracle by isomorphism class
    for f, top in ((1, 5), (2, 4)):
        graphs = [g for n in range(2, top + 1) for g in enumerate_connected(n)]
        for seed in range(30):
            rng = random.Random(seed)
            g = graphs[rng.randrange(len(graphs))]
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert naive_best_orientation(h, f) == naive_best_orientation(g, f), (f, seed)


def test_oracle_suite_runs_naive_once_per_class(monkeypatch):
    import firebreak.verify as verify

    calls = []

    def counted(g, f=1):
        calls.append((f, canonical_form(g)))
        return naive_best_orientation(g, f)

    monkeypatch.setattr(verify, "naive_best_orientation", counted)
    assert verify.suite_oracle().passed
    assert len(calls) == len(set(calls))
    assert sum(f == 1 for f, _ in calls) == 31 and sum(f == 2 for f, _ in calls) == 10


def test_oracle_two_firefighters():
    # the maximal-set dominance argument, held against full subset branching
    for g in enumerate_connected(4):
        for word in (0, (1 << g.m) - 1, 5 % (1 << g.m)):
            o = orientation_from_bits(g, word)
            assert solve_orientation(o, 2, want_trace=False).beta == naive_solve_orientation(o, 2)


def test_subgraph_monotonicity_spot_check():
    pairs = [
        (path(4), cycle(4)),
        (cycle(4), complete(4)),
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), complete(5)),
    ]
    for h, g in pairs:
        bh = solve_best_orientation(h, 1, want_trace=False).beta
        bg = solve_best_orientation(g, 1, want_trace=False).beta
        assert bh <= bg


def test_nodes_and_time_reported():
    gv = solve_best_orientation(complete(5), 1)
    assert gv.nodes_explored > 0
    assert gv.wall_ms >= 0


def test_degree_four_regular_bound():
    for seed in range(3):
        g = random_regular(12, 4, seed)
        o = orient_bounded_degree(g, 4)
        assert solve_orientation(o, 1, want_trace=False).beta <= 5


def test_degree_five_regular_bound():
    g = random_regular(12, 5, 1)
    o = orient_bounded_degree(g, 5)
    assert solve_orientation(o, 1, want_trace=False).beta <= 17


def test_json_shape():
    gv = solve_best_orientation(complete(4), 1)
    obj = gv.to_json_obj()
    assert obj["mode"] == "best" and obj["beta"] == 2 and obj["exact"] is True
    assert len(obj["orientation"]) == 6
    assert obj["trace"]["burned"] == 2


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence_property(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 6)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if rng.random() < 0.6]
    g = Graph(n, edges)
    o = orientation_from_bits(g, rng.randrange(1 << max(g.m, 1)))
    assert solve_orientation(o, 1, want_trace=False).beta == naive_solve_orientation(o, 1)


def _check_capped_engine(out_mask, n, f):
    # One engine per cap answers every start, ascending then descending, so
    # later starts meet memo entries that earlier ones left at the cap.
    naive = [naive_start_value(out_mask, n, f, 1 << s, 0) for s in range(n)]
    for cap in range(1, n + 2):
        eng = Engine(out_mask, n, f, cap=cap)
        for s in [*range(n), *reversed(range(n))]:
            assert eng.start_value(s) == min(naive[s], cap), (out_mask, f, cap, s)


def test_oracle_capped_engine_reused():
    rng = random.Random(7)
    for g in (g for n in range(2, 6) for g in enumerate_connected(n)):
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        for f in (1, 2):
            _check_capped_engine(o.out_mask, g.n, f)


def test_capped_engine_searches_a_marked_state_again():
    # From 0 the fire threatens {5, 6, 7}, with {8, 9, 10} behind, in the same
    # (live, threat) state along two plays: protect 1, then 3 (burnt 0, 2, 4)
    # or protect 2 (burnt 0, 1). The first is searched first, and under caps
    # 6 and 7 it leaves the state at the cap; the second must search it again.
    arcs = [(0, 1), (0, 2), (2, 3), (2, 4)]
    arcs += [(u, x) for u in (1, 3, 4) for x in (5, 6, 7)] + [(x, y) for x in (5, 6, 7) for y in (8, 9, 10)]
    o = Orientation(Graph(11, arcs), arcs)
    _check_capped_engine(o.out_mask, o.n, 1)


def test_oracle_per_start_six_vertices():
    sixes = random.Random(11).sample(list(enumerate_connected(6)), 40)
    rng = random.Random(12)
    for g in sixes:
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        for f in (1, 2, 3):
            gv = solve_orientation(o, f, want_trace=False)
            naive = {s: naive_start_value(o.out_mask, g.n, f, 1 << s, 0) for s in range(g.n)}
            assert gv.per_start == naive, (g, o.arcs, f)
