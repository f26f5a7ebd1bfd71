import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from firebreak import bounds, structure
from firebreak.bounds import (
    BoundEntry,
    beta_d_ladder,
    bk_necessary,
    bound_report,
    check_sandwich,
    classify_b1,
    complete_upper_bound,
    lower_bounds,
    refined_colour_bound,
    upper_bounds,
    wave_total,
)
from firebreak.families import (
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    grid_rect,
    grid_tri,
    path,
    petersen,
    random_ktree,
    random_regular,
    random_tree,
)
from firebreak.graphs import Graph, GraphError, orientation_from_bits, popcount
from firebreak.orient import orient_subcubic
from firebreak.solve import solve_best_orientation, solve_orientation
from firebreak.structure import bipartition, exact_colouring, greedy_colouring


def by_name(entries):
    return {e.name: e for e in entries}


# --- ladder


def test_ladder_values():
    assert [beta_d_ladder(d) for d in (3, 4, 5, 6)] == [2, 5, 17, 70]


def test_ladder_pure_recursion_seed():
    assert beta_d_ladder(4, seed4=6) == 6
    assert beta_d_ladder(5, seed4=6) == 20


def test_ladder_monotone():
    values = [beta_d_ladder(d) for d in range(3, 12)]
    assert values == sorted(values)


def test_ladder_factorial_cap():
    # far out the factorial cap takes over
    assert beta_d_ladder(30) <= 1 * __import__("math").factorial(29)


def test_ladder_rejects_small_degree():
    with pytest.raises(GraphError):
        beta_d_ladder(2)


# --- wave recurrence


def test_recurrence_matches_closed_form_everywhere():
    for delta in range(3, 7):
        for k in range(2, 6):
            for f in range(1, delta):
                assert wave_total(delta, f, k) == refined_colour_bound(delta, f, k)


def test_refined_bound_reference_points():
    assert refined_colour_bound(3, 1, 3) == 6
    assert refined_colour_bound(4, 1, 4) == 35


# --- complete bands


@pytest.mark.parametrize("n,f,expected", [
    (3, 1, 1), (4, 1, 2), (5, 1, 2), (6, 1, 3), (7, 1, 4), (9, 2, 3),
    (6, 2, 2), (6, 3, 1), (8, 3, 2), (8, 4, 1), (13, 2, 7),
])
def test_complete_band_values(n, f, expected):
    assert complete_upper_bound(n, f) == expected


# --- lower bounds


def test_lower_bounds_k44():
    entries = by_name(lower_bounds(complete_bipartite(4, 4), 1))
    assert entries["biclique-outdegree-plus"].applicable
    assert entries["biclique-outdegree-plus"].value == 3
    assert entries["density"].value == Fraction(2)


def test_lower_bounds_k7_clique():
    entries = by_name(lower_bounds(complete(7), 1))
    assert entries["clique"].value == 4


def test_lower_bounds_path_density():
    entries = by_name(lower_bounds(path(5), 1))
    assert entries["density"].value == Fraction(4, 5)


def test_lower_bounds_biclique_min_side():
    entries = by_name(lower_bounds(complete_bipartite(6, 7), 1))
    assert entries["biclique-min-side"].applicable
    assert entries["biclique-min-side"].value == 6


def test_lower_bounds_inapplicable_entries_still_reported():
    entries = by_name(lower_bounds(path(4), 2))
    assert not entries["density"].applicable
    assert not entries["biclique-outdegree"].applicable


def _random_multigraph(rng):
    # half near-bicliques (a random split with most cross edges, now and then
    # an edge inside a side or a parallel edge), half sparse random graphs;
    # both leave vertices isolated at times
    n = rng.randint(1, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if rng.random() < 0.5:
        side = [rng.random() < 0.5 for _ in range(n)]
        edges = [(u, v) for u, v in pairs if side[u] != side[v] and rng.random() < 0.9]
        edges += [(u, v) for u, v in pairs if side[u] == side[v] and rng.random() < 0.03]
    else:
        edges = [(u, v) for u, v in pairs if rng.random() < 0.3]
    return Graph(n, edges + [e for e in edges if rng.random() < 0.05])


def test_biclique_entries_match_bipartition():
    rng = random.Random(5)
    graphs = [_random_multigraph(rng) for _ in range(3000)]
    graphs += [complete_bipartite(p, q) for p in range(1, 7) for q in range(p, 7)]
    hits = 0
    for g in graphs:
        sides = bipartition(g)
        expected = None
        if sides is not None:
            assert sides[0] & 1  # side A holds vertex 0
            p, q = popcount(sides[0]), popcount(sides[1])
            if p and q and p * q == g.m and not g.has_parallel_edges():
                expected = f"K_{{{p},{q}}}"
        entries = by_name(lower_bounds(g, 1))
        assert entries["biclique-outdegree"].applicable == (expected is not None), g.edges
        for rule in ("biclique-outdegree", "biclique-outdegree-plus", "biclique-min-side"):
            assert (entries[rule].value is not None) == (expected is not None), g.edges
            if expected is not None:
                assert expected in entries[rule].hypothesis
        hits += expected is not None
    assert hits > 300


# --- upper bounds


def test_upper_bounds_k9_two_firefighters():
    entries = by_name(upper_bounds(complete(9), 2))
    assert entries["complete"].value == 3


def test_upper_bounds_fvs_example():
    # K5 minus a feedback vertex set of 3 vertices is a forest (an edge)
    assert by_name(upper_bounds(complete(5), 1))["fvs"].value == 4
    assert by_name(upper_bounds(complete(5), 2))["fvs"].value == 3


def test_upper_bounds_ktree_half():
    g = random_ktree(9, 2, 1)
    entries = by_name(upper_bounds(g, 1, k=2))
    assert entries["ktree-half"].applicable
    assert entries["ktree-half"].value == 2


def test_upper_bounds_refined_chromatic():
    entries = by_name(upper_bounds(petersen(), 1))
    assert entries["chromatic-refined"].applicable
    assert entries["chromatic-refined"].value == 6  # degree 3, chromatic number 3


def test_upper_bounds_degree_ladder():
    entries = by_name(upper_bounds(petersen(), 1))
    assert entries["degree-ladder"].value == 2


def test_upper_bounds_orientation_rules():
    o = orient_subcubic(petersen())
    entries = by_name(BoundEntry(*rule) for rule in bounds._rules(petersen(), 1, o=o))
    assert entries["outdegree-pace"].applicable
    assert entries["outdegree-pace"].value == Fraction(1) + Fraction(9, 2)
    assert not entries["outdegree-cover"].applicable


def test_upper_bounds_tree_rule():
    entries = by_name(upper_bounds(random_tree(9, 0), 1))
    assert entries["tree"].applicable and entries["tree"].value == 1
    assert entries["one-cycle"].applicable


def test_upper_bounds_inapplicable_never_suppressed():
    names = {e.name for e in upper_bounds(path(4), 1)}
    assert {"complete", "ktree-walls", "ktree-anticipate", "radius"} <= names


# --- classes


def test_classify_b1_examples():
    assert classify_b1(path(4))
    assert classify_b1(cycle(5))
    assert not classify_b1(complete(4))


def test_classify_b1_requires_connected():
    from firebreak.graphs import Graph

    with pytest.raises(GraphError):
        classify_b1(Graph(4, [(0, 1), (2, 3)]))


def test_classify_b1_agrees_with_solver_small():
    for n in range(1, 5):
        for g in enumerate_connected(n):
            beta = solve_best_orientation(g, 1, want_trace=False).beta
            assert (beta == 1) == classify_b1(g)


def test_bk_necessary_k44():
    assert bk_necessary(complete_bipartite(4, 4), 1).verdict == "excluded"
    report = bk_necessary(complete_bipartite(4, 4), 2)
    assert report.verdict == "possible"  # necessary-only: the true value is 3


def test_bk_necessary_tree():
    assert bk_necessary(random_tree(9, 2), 1).verdict == "possible"


def test_bk_density_core_catches_dense_subgraph():
    # K5 plus a long pendant path: whole-graph density is low, the core is not
    from firebreak.graphs import Graph

    edges = list(complete(5).edges)
    edges += [(4 + i, 5 + i) for i in range(18)]
    g = Graph(23, edges)
    report = bk_necessary(g, 1)
    assert not report.density_ok and report.verdict == "excluded"


# --- sandwich


def test_ktree_half_bound_holds_for_best_orientation():
    # the half-k value is a bound on the best orientation; at k = 3 the
    # deterministic construction is not always its witness, the optimum is
    for seed in (0, 3):
        g = random_ktree(7, 3, seed)
        assert solve_best_orientation(g, 1, want_trace=False).beta <= 3


def test_ktree_report_upper_entries_hold():
    # every applicable upper rule of a report that knows k, the k-tree rules
    # among them, is at least the solved best value; K4 with k = 3 is where
    # ktree-walls once read 0 against beta 2
    cases = [(complete(4), 3)]
    cases += [(random_ktree(n, k, seed), k) for k in (1, 2, 3) for n in range(k + 1, 9) for seed in range(3)]
    for g, k in cases:
        for f in (1, 2, 3):
            beta = solve_best_orientation(g, f, want_trace=False).beta
            below = [(e.name, e.value) for e in bound_report(g, f, k=k)
                     if e.kind == "upper" and e.applicable and e.value < beta]
            assert below == [], (g.edges, k, f, beta)


def test_bound_report_pinned():
    # every entry of every report, frozen before the structure routines,
    # the colouring and the closed forms were made cheaper
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [complete(n) for n in range(1, 9)]
    graphs += [complete_bipartite(p, q) for p in range(1, 6) for q in range(p, 6)]
    graphs += [petersen(), grid_rect(3, 4), grid_tri(3, 4), random_regular(12, 3, 0),
               random_regular(10, 4, 1)]
    assert len(graphs) == 800
    doc = json.dumps(
        [[e.to_json_obj() for e in bound_report(g, f)] for g in graphs for f in (1, 2, 3)],
        sort_keys=True,
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "18b30807c599be97ec0bcc8f2e59da1e4777139fffade2709fa5c24ff234af77"
    )


def test_ktree_report_pinned():
    # every entry of every report that knows k, frozen before the report
    # and the screen came to share one rule list
    cases = [(random_ktree(n, k, seed), k) for k in (1, 2, 3) for n in range(k + 1, 11) for seed in range(3)]
    doc = json.dumps(
        [[e.to_json_obj() for e in bound_report(g, f, k=k)] for g, k in cases for f in (1, 2, 3)],
        sort_keys=True,
    )
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "7173b03c333daea293d4c5489a4db323daa39c7e82652022e930a13db8ea2e3a"
    )


def test_sandwich_on_best_values():
    for g in (complete(5), complete_bipartite(2, 2), cycle(5)):
        beta = solve_best_orientation(g, 1, want_trace=False).beta
        assert check_sandwich(g, 1, beta) == []


def test_sandwich_fixed_mode():
    o = orient_subcubic(petersen())
    beta = solve_orientation(o, 1, want_trace=False).beta
    assert check_sandwich(petersen(), 1, beta, orientation=o) == []


def test_sandwich_orientation_skips_structural_upper_bounds(monkeypatch):
    # the transitive tournament on K5 burns 4, above the best value 2: only
    # the lower bounds and this orientation's own rules bind it
    g = complete(5)
    o = orientation_from_bits(g, 0)
    assert solve_orientation(o, 1, want_trace=False).beta == 4
    assert check_sandwich(g, 1, 4) == ["upper bound complete = 2 is below beta = 4"]
    assert check_sandwich(g, 1, 4, orientation=o) == []

    def unused(*args, **kwargs):
        raise AssertionError("structural bound computed for an orientation's value")

    for name in ("min_fvs", "forest_peel", "_chromatic_number"):
        monkeypatch.setattr(bounds, name, unused)
    assert check_sandwich(g, 1, 4, orientation=o) == []


def test_chromatic_search_stops_below_greedy_count(monkeypatch):
    # the greedy colouring already proves its own count, so the exact search
    # never tries k >= that count
    calls = []

    def counted(g, k):
        calls.append(k)
        return exact_colouring(g, k)

    monkeypatch.setattr(bounds, "exact_colouring", counted)
    for g, chi in [(cycle(5), 3), (complete(4), 4), (petersen(), 3), (grid_tri(4, 4), 3)]:
        calls.clear()
        greedy = len(greedy_colouring(g))
        assert bounds._chromatic_number(g, False) == (chi, True)
        assert all(k < greedy for k in calls), (g.n, greedy, calls)


def test_sandwich_flags_contradiction():
    problems = check_sandwich(complete(7), 1, 1)
    assert problems  # the clique lower bound alone rules out beta = 1


def test_sandwich_validates_the_game():
    # the same GraphError from the report, its views and the screen, not a
    # silent list
    for g, f in [(complete(5), 0), (complete(5), -1), (Graph(0, []), 1)]:
        for view in (bound_report, lower_bounds, upper_bounds):
            with pytest.raises(GraphError):
                view(g, f)
        with pytest.raises(GraphError):
            check_sandwich(g, f, 2)


def test_sandwich_rejects_an_orientation_of_another_graph():
    with pytest.raises(GraphError):
        check_sandwich(complete(5), 1, 9, orientation_from_bits(cycle(5), 0))
    # an equal graph built separately is the same graph
    assert check_sandwich(complete(5), 1, 4, orientation_from_bits(complete(5), 0)) == []


def sandwich_reference(g, f, betas, orientation=None):
    """The screen's first body, which drew its messages from the full report,
    for each beta in ``betas``. The report is built once and split by kind;
    its lower entries come first and do not depend on the orientation."""
    if orientation is None:
        entries = bound_report(g, f)
    else:
        entries = [BoundEntry(*rule) for rule in bounds._rules(g, f, o=orientation)]
    lowers = [entry for entry in entries if entry.kind == "lower"]
    uppers = [entry for entry in entries if entry.kind == "upper"]
    out = {}
    for beta in betas:
        problems = []
        for entry in lowers:
            if entry.applicable and entry.value is not None and entry.value > beta:
                problems.append(f"lower bound {entry.name} = {entry.value} exceeds beta = {beta}")
        for entry in uppers:
            if entry.applicable and entry.value is not None and entry.value < beta:
                problems.append(f"upper bound {entry.name} = {entry.value} is below beta = {beta}")
        out[beta] = problems
    return out


def sandwich_mismatches(graphs, fs, seed=0):
    """Cases where check_sandwich and the reference disagree, for every f in
    ``fs`` and beta = 0..n+1, without an orientation and with one seeded
    orientation of each graph."""
    rng = random.Random(seed)
    bad = []
    for g in graphs:
        o = orientation_from_bits(g, rng.getrandbits(g.m))
        betas = range(g.n + 2)
        for f in fs:
            for orientation in (None, o):
                expected = sandwich_reference(g, f, betas, orientation)
                for beta in betas:
                    got = check_sandwich(g, f, beta, orientation)
                    if got != expected[beta]:
                        bad.append((g.n, g.edges, f, beta, orientation is not None, got, expected[beta]))
    return bad


def _random_graph(rng):
    n = rng.randint(2, 11)
    p = rng.uniform(0.15, 0.8)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_sandwich_computes_structure_only_when_needed(monkeypatch):
    calls = collections.Counter()
    sizes = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("forest_peel", "_chromatic_number", "exact_colouring"):
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    monkeypatch.setattr(Graph, "is_connected", counted("is_connected", Graph.is_connected))

    def tried(pool, r):
        sizes.append(r)
        return itertools.combinations(pool, r)

    monkeypatch.setattr(structure, "combinations", tried)

    # certified: best values at f = 1 of every connected graph up to n = 5,
    # and of K_n and K_{p,q}; no search tries an fvs size the rule cannot
    # violate, and no graph with more edges than vertices is walked
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [complete(6), complete(7), complete_bipartite(3, 3), complete_bipartite(4, 4)]
    f = 1
    for g in graphs:
        beta = solve_best_orientation(g, f, want_trace=False).beta
        calls.clear()
        sizes.clear()
        assert check_sandwich(g, f, beta) == []
        if g.m > g.n:
            assert not calls, (g.edges, beta, calls)
        else:
            assert set(calls) <= {"is_connected"}, (g.edges, beta, calls)
        assert all(r < beta + f - 2 for r in sizes), (g.edges, beta, sizes)

    # each certificate fails once, and its routine runs
    for g, f, beta, name in [
        (path(5), 1, 2, "is_connected"),  # (e): m <= n
        (complete(4), 2, 3, "_chromatic_number"),  # (b): truncated waves 1, 1 at chi_lo = 3
        (complete(4), 2, 3, "exact_colouring"),  # k = 3 below the greedy count 4
        (path(5), 1, 2, "forest_peel"),  # (c): a tree needs one forest, f >= 1
        (complete(5), 2, 3, "forest_peel"),  # (c): arboricity-pace may fall below 3
    ]:
        calls.clear()
        check_sandwich(g, f, beta)
        assert calls[name] >= 1, (g.edges, f, beta, name)
    sizes.clear()
    assert check_sandwich(cycle(5), 1, 3)[-1] == "upper bound fvs = 2 is below beta = 3"
    assert sizes == [0, 1]  # (d): sizes below beta + f - 2 = 2
    sizes.clear()
    calls.clear()
    check_sandwich(complete(5), 1, 1)  # (a): beta <= 1 settles every upper rule
    assert not calls and not sizes


def test_sandwich_matches_full_report():
    from test_structure import MULTIGRAPHS, WITH_ISOLATED

    rng = random.Random(11)
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [g for i, g in enumerate(enumerate_connected(6)) if i % 7 == 0]
    graphs += [_random_graph(rng) for _ in range(150)]
    graphs += [_random_multigraph(rng) for _ in range(300)]
    graphs += [g for g in MULTIGRAPHS + WITH_ISOLATED if g.n]
    graphs += [complete(n) for n in range(1, 10)]
    graphs += [complete_bipartite(p, q) for p in range(1, 8) for q in range(p, 8)]
    # above 16 vertices the chromatic number is a greedy estimate, and above
    # 18 the fvs rule is inapplicable
    graphs += [grid_rect(4, 5), grid_tri(4, 5), random_regular(20, 3, 0), random_regular(22, 4, 1)]
    assert sandwich_mismatches(graphs, (1, 2, 3)) == []


def test_bound_report_shape():
    entries = bound_report(complete(5), 1)
    kinds = {e.kind for e in entries}
    assert kinds == {"lower", "upper"}
    obj = [e.to_json_obj() for e in entries]
    assert all(set(item) >= {"name", "kind", "value", "applicable", "hypothesis"} for item in obj)
