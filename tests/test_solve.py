import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firebreak.families import (
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    k33,
    path,
    petersen,
    random_ktree,
    random_regular,
    star,
)
from firebreak.game import replay
from firebreak.graphs import Graph, GraphError, canonical_form, orientation_from_bits
from firebreak.orient import (
    orient_bounded_degree,
    orient_complete,
    orient_half,
    orient_ktree,
    orient_subcubic,
    orient_unicyclic,
)
from firebreak.solve import (
    SolverLimitError,
    naive_best_orientation,
    naive_solve_orientation,
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


def test_witness_trace_replays():
    for o in (orient_complete(6), orient_subcubic(k33())):
        gv = solve_orientation(o, 1)
        result = replay(o, gv.witness_trace)
        assert result.valid
        assert gv.witness_trace.burned == gv.beta
        assert gv.per_start[gv.witness_start] == gv.beta


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
    # also be polled on bound checks
    t0 = time.perf_counter()
    gv = solve_best_orientation(complete(8), 1, budget_ms=500, max_edges=28, want_trace=False)
    assert not gv.exact
    assert time.perf_counter() - t0 < 2.0
    assert gv.beta >= 4


def test_best_leaf_budget_flags_inexact():
    gv = solve_best_orientation(complete(7), 1, budget_leaves=5)
    assert not gv.exact
    assert gv.nodes_explored <= 6
    assert gv.beta >= 4


def test_best_threads_match_single():
    for g in (complete(5), k33()):
        a = solve_best_orientation(g, 1, threads=1).beta
        b = solve_best_orientation(g, 1, threads=2).beta
        assert a == b


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
