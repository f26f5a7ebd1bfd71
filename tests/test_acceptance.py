"""Acceptance suite: every release criterion as one test, each printing its
own pass/fail line.

The n=6 class sweep (about 7 s) follows the CLI's slow gate: set
FIREBREAK_SLOW=1 to include it. All tolerances are exact integer or exact
rational comparisons.
"""

import os
import time

import pytest

from firebreak.bounds import (
    beta_d_ladder,
    check_sandwich,
    refined_colour_bound,
    wave_total,
)
from firebreak.families import (
    complete,
    complete_bipartite,
    enumerate_connected,
    k33,
    petersen,
    prism,
    cube,
    random_ktree,
    random_regular,
)
from firebreak.game import simulate
from firebreak.graphs import canonical_form, orientation_from_bits
from firebreak.orient import (
    orient_bounded_degree,
    orient_grid,
    orient_ktree,
    orient_subcubic,
)
from firebreak.solve import (
    naive_best_orientation,
    naive_solve_orientation,
    solve_best_orientation,
    solve_orientation,
)
from firebreak.strategies import GridRect, GridTri, SubcubicBlock
from firebreak.verify import run_suite

SLOW = bool(os.environ.get("FIREBREAK_SLOW"))
slow_only = pytest.mark.skipif(not SLOW, reason="set FIREBREAK_SLOW=1 to run")


def announce(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_complete_graphs_exact():
    t0 = time.perf_counter()
    values = [solve_best_orientation(complete(n), 1, want_trace=False).beta for n in (3, 4, 5, 6)]
    elapsed = time.perf_counter() - t0
    announce(
        "1 complete graphs K3..K6 solve to 1,2,2,3",
        values == [1, 2, 2, 3] and elapsed <= 60,
        f"values={values}, {elapsed:.1f}s",
    )


def test_criterion_1_slow_k7():
    t0 = time.perf_counter()
    beta = solve_best_orientation(complete(7), 1, want_trace=False).beta
    elapsed = time.perf_counter() - t0
    announce("1s K7 solves to 4", beta == 4 and elapsed <= 600,
             f"beta={beta}, {elapsed:.1f}s")


def test_criterion_1_k8_exact():
    t0 = time.perf_counter()
    gv = solve_best_orientation(complete(8), 1, max_edges=28, want_trace=False)
    elapsed = time.perf_counter() - t0
    announce("1 K8 solves exactly to 5 in under 10 s", gv.beta == 5 and gv.exact and elapsed < 10,
             f"beta={gv.beta}, exact={gv.exact}, {elapsed:.2f}s")


def test_criterion_2_complete_bipartite_exact():
    t0 = time.perf_counter()
    b22 = solve_best_orientation(complete_bipartite(2, 2), 1, want_trace=False).beta
    b44 = solve_best_orientation(complete_bipartite(4, 4), 1, want_trace=False).beta
    elapsed = time.perf_counter() - t0
    from fractions import Fraction

    formula = Fraction(4 * 4, 4 + 4) + 2 - 1
    announce(
        "2 complete bipartite: K2,2 = 1, K4,4 = 3, formula value 3",
        b22 == 1 and b44 == 3 and formula == 3 and elapsed <= 300,
        f"K22={b22}, K44={b44}, formula={formula}, {elapsed:.1f}s",
    )


def test_criterion_2_k55_exact():
    t0 = time.perf_counter()
    gv = solve_best_orientation(complete_bipartite(5, 5), 1, max_edges=28, want_trace=False)
    elapsed = time.perf_counter() - t0
    announce("2 K5,5 solves exactly to 5 in under 10 s", gv.beta == 5 and gv.exact and elapsed < 10,
             f"beta={gv.beta}, exact={gv.exact}, {elapsed:.2f}s")


def test_criterion_3_subcubic_at_most_two():
    t0 = time.perf_counter()
    named = {"K4": complete(4), "K33": k33(), "prism": prism(3), "cube": cube(),
             "petersen": petersen()}
    results = {}
    for name, g in named.items():
        o = orient_subcubic(g)
        results[name] = solve_orientation(o, 1, want_trace=False).beta
    random_ok = True
    sizes = [8, 10, 12, 14]
    for i in range(20):
        g = random_regular(sizes[i % 4], 3, i)
        beta = solve_orientation(orient_subcubic(g), 1, want_trace=False).beta
        random_ok = random_ok and beta <= 2
    elapsed = time.perf_counter() - t0
    ok = (
        all(v <= 2 for v in results.values())
        and results["K4"] == 2
        and results["petersen"] == 2
        and random_ok
        and elapsed <= 60
    )
    announce("3 subcubic orientations burn at most 2 (K4, petersen exactly 2)", ok,
             f"{results}, random<=2: {random_ok}, {elapsed:.1f}s")


def test_criterion_4_partial_two_trees():
    t0 = time.perf_counter()
    ok = True
    for i in range(20):
        n = 8 + (i % 5)
        g = random_ktree(n, 2, i)
        beta = solve_orientation(orient_ktree(g, 2), 1, want_trace=False).beta
        ok = ok and beta <= 2
    elapsed = time.perf_counter() - t0
    announce("4 twenty random 2-trees burn at most 2", ok and elapsed <= 60, f"{elapsed:.1f}s")


def test_criterion_5_degree_four():
    t0 = time.perf_counter()
    ok = True
    for i in range(10):
        g = random_regular(12, 4, i)
        beta = solve_orientation(orient_bounded_degree(g, 4), 1, want_trace=False).beta
        ok = ok and beta <= 5
    elapsed = time.perf_counter() - t0
    announce("5 ten random 4-regular graphs burn at most 5", ok and elapsed <= 300,
             f"{elapsed:.1f}s")


def test_criterion_6_b1_characterisation():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for g in enumerate_connected(n):
            beta = solve_best_orientation(g, 1, want_trace=False).beta
            ok = ok and (beta == 1) == (g.m <= g.n)
    elapsed = time.perf_counter() - t0
    announce("6 burn class 1 = at most one cycle, all connected graphs n<=5",
             ok and elapsed <= 600, f"{elapsed:.1f}s")


@slow_only
def test_criterion_6_slow_n6():
    t0 = time.perf_counter()
    ok = all(
        (solve_best_orientation(g, 1, want_trace=False).beta == 1) == (g.m <= g.n)
        for g in enumerate_connected(6)
    )
    elapsed = time.perf_counter() - t0
    announce("6s burn class 1 characterisation at n = 6", ok, f"{elapsed:.1f}s")


def test_criterion_7_formula_suite():
    t0 = time.perf_counter()
    recurrence_ok = all(
        wave_total(d, f, k) == refined_colour_bound(d, f, k)
        for d in range(3, 7)
        for k in range(2, 6)
        for f in range(1, d)
    )
    refined_ok = refined_colour_bound(3, 1, 3) == 6 and refined_colour_bound(4, 1, 4) == 35
    ladder_ok = [beta_d_ladder(d) for d in (3, 4, 5, 6)] == [2, 5, 17, 70]
    elapsed = time.perf_counter() - t0
    announce(
        "7 formula suite: recurrence = closed form, refined 6 and 35, ladder 2,5,17,70",
        recurrence_ok and refined_ok and ladder_ok and elapsed <= 1,
        f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_8_grid_strategies():
    t0 = time.perf_counter()
    w = h = 9
    rect = orient_grid("rect", w, h)
    rect_ok = all(
        simulate(rect, r * w + c, 1, GridRect()).burned == 3
        for r in range(3, h - 3)
        for c in range(3, w - 3)
    )
    tri = orient_grid("tri", w, h)
    tri_ok = all(
        simulate(tri, r * w + c, 1, GridTri()).burned <= 6
        for r in range(3, h - 3)
        for c in range(3, w - 3)
    )
    hexg = orient_grid("hex", w, h)
    hex_ok = all(simulate(hexg, v, 1, SubcubicBlock()).burned <= 2 for v in range(hexg.n))
    elapsed = time.perf_counter() - t0
    announce("8 grid strategies: rect exactly 3, tri at most 6, hex at most 2",
             rect_ok and tri_ok and hex_ok and elapsed <= 30,
             f"rect={rect_ok}, tri={tri_ok}, hex={hex_ok}, {elapsed:.1f}s")


def test_criterion_9_oracle_equivalence():
    import random

    t0 = time.perf_counter()
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    fixed_ok = True
    for seed in range(50):
        rng = random.Random(seed)
        g = graphs[rng.randrange(len(graphs))]
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        fixed_ok = fixed_ok and (
            solve_orientation(o, 1, want_trace=False).beta == naive_solve_orientation(o, 1)
        )
    # naive values keyed by isomorphism class: the game value is invariant
    # under relabelling, and equal canonical forms prove isomorphism
    naive = {}
    best_ok = True
    for n in range(1, 6):
        for g in enumerate_connected(n):
            key = canonical_form(g)
            if key not in naive:
                naive[key] = naive_best_orientation(g, 1)
            best_ok = best_ok and solve_best_orientation(g, 1, want_trace=False).beta == naive[key]
    elapsed = time.perf_counter() - t0
    announce("9 pruned solver equals the naive oracle on all graphs n<=5",
             fixed_ok and best_ok and elapsed <= 300,
             f"fixed={fixed_ok}, best={best_ok}, {elapsed:.1f}s")


def test_criterion_10_bounds_sandwich():
    t0 = time.perf_counter()
    problems = []
    for n in (3, 4, 5, 6):
        g = complete(n)
        beta = solve_best_orientation(g, 1, want_trace=False).beta
        problems += check_sandwich(g, 1, beta)
    for p, q in ((2, 2), (4, 4)):
        g = complete_bipartite(p, q)
        beta = solve_best_orientation(g, 1, want_trace=False).beta
        problems += check_sandwich(g, 1, beta)
    for name, g in (("K4", complete(4)), ("petersen", petersen()), ("K33", k33())):
        o = orient_subcubic(g)
        beta = solve_orientation(o, 1, want_trace=False).beta
        problems += check_sandwich(g, 1, beta, orientation=o)
    for i in range(5):
        g = random_ktree(8 + i, 2, i)
        o = orient_ktree(g, 2)
        beta = solve_orientation(o, 1, want_trace=False).beta
        problems += check_sandwich(g, 1, beta, orientation=o)
    for i in range(3):
        g = random_regular(12, 4, i)
        o = orient_bounded_degree(g, 4)
        beta = solve_orientation(o, 1, want_trace=False).beta
        problems += check_sandwich(g, 1, beta, orientation=o)
    for n in range(2, 6):
        for g in enumerate_connected(n):
            beta = solve_best_orientation(g, 1, want_trace=False).beta
            problems += check_sandwich(g, 1, beta)
    elapsed = time.perf_counter() - t0
    announce("10 bounds sandwich holds on every solved instance",
             not problems, f"{len(problems)} violations, {elapsed:.1f}s")


def test_verification_suites_all_pass():
    failures = []
    for name in (
        "complete-exact", "bipartite-exact", "subcubic", "two-trees", "degree4",
        "b1-characterisation", "recurrence-closed-form", "grids",
        "oracle-equivalence", "bounds-consistency",
    ):
        result = run_suite(name, slow=False, seed=0)
        print(f"[acceptance] suite {name}: {'PASS' if result.passed else 'FAIL'}")
        if not result.passed:
            failures.append(name)
    assert not failures, failures
