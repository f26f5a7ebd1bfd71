"""Named verification suites.

Each suite runs a fixed battery of checks with deterministic seeds and
reports one record per check; expensive checks are gated behind ``slow`` and
reported as capped rather than silently skipped. Every solved instance is
also screened against the bound formulas on the spot, so a bound
contradiction fails the originating check immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import families as gen
from .bounds import (
    beta_d_ladder,
    check_sandwich,
    refined_colour_bound,
    wave_total,
)
from .game import replay, simulate
from .graphs import Graph, GraphError, Orientation, canonical_form, orientation_from_bits
from .orient import (
    orient_bounded_degree,
    orient_grid,
    orient_ktree,
    orient_subcubic,
)
from .solve import (
    naive_best_orientation,
    naive_solve_orientation,
    solve_best_orientation,
    solve_orientation,
)
from .strategies import GridRect, GridTri, SubcubicBlock


@dataclass
class CheckRecord:
    name: str
    expected: str
    computed: str
    passed: bool
    capped: bool = False
    wall_ms: float = 0.0

    def line(self) -> str:
        status = "CAPPED" if self.capped else ("PASS" if self.passed else "FAIL")
        return f"{status:6} {self.name}: expected {self.expected}, computed {self.computed} ({self.wall_ms:.0f} ms)"

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "passed": self.passed,
            "capped": self.capped,
            "wall_ms": round(self.wall_ms, 3),
        }


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed or c.capped for c in self.checks)

    def summary(self) -> str:
        done = [c for c in self.checks if not c.capped]
        capped = len(self.checks) - len(done)
        good = sum(1 for c in done if c.passed)
        tail = f", {capped} capped" if capped else ""
        return f"suite {self.suite}: {good}/{len(done)} checks passed{tail}"

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json_obj() for c in self.checks],
        }


class _Suite:
    def __init__(self, name: str, seed: int):
        self.result = SuiteResult(suite=name, seed=seed)

    def check(self, name: str, expected, computed, passed: bool, wall_ms: float = 0.0):
        self.result.checks.append(
            CheckRecord(name=name, expected=str(expected), computed=str(computed),
                        passed=bool(passed), wall_ms=wall_ms)
        )

    def capped(self, name: str, reason: str):
        self.result.checks.append(
            CheckRecord(name=name, expected=reason, computed="not run", passed=True, capped=True)
        )

    def observe(self, name: str, conjectured, measured):
        """Labelled empirical observation: reported, never asserted."""
        self.result.checks.append(
            CheckRecord(name=f"observation: {name}", expected=f"conjectured {conjectured}",
                        computed=str(measured), passed=True)
        )

    def solved(self, g: Graph, f: int, beta: int, orientation: Optional[Orientation] = None):
        """Screen a solved instance against the bound formulas."""
        problems = check_sandwich(g, f, beta, orientation)
        if problems:
            self.check(f"sandwich[{g.meta.get('family', 'graph')} n={g.n}]", "no violations",
                       "; ".join(problems), False)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1000


# ---------------------------------------------------------------------------
# suites


def suite_complete_exact(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("complete-exact", seed)
    for n, expected in [(3, 1), (4, 2), (5, 2), (6, 3), (7, 4)]:
        g = gen.complete(n)
        gv, ms = _timed(solve_best_orientation, g, 1, want_trace=False)
        s.check(f"K{n}", expected, gv.beta, gv.beta == expected and gv.exact, ms)
        s.solved(g, 1, gv.beta)
    # multi-firefighter complete play: conjectured n - 3f, measured on the
    # cyclic tournament schedule (an upper bound, never asserted exact)
    from .orient import orient_complete
    from .strategies import CompleteCyclic

    o = orient_complete(9)
    measured = max(simulate(o, v, 2, CompleteCyclic()).burned for v in range(9))
    s.observe("K9 with two firefighters", "n - 3f = 3", f"schedule burns {measured}")
    return s.result


def suite_bipartite_exact(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("bipartite-exact", seed)
    for (p, q), expected in [((2, 2), 1), ((4, 4), 3)]:
        g = gen.complete_bipartite(p, q)
        gv, ms = _timed(solve_best_orientation, g, 1, want_trace=False)
        s.check(f"K{p},{q}", expected, gv.beta, gv.beta == expected and gv.exact, ms)
        s.solved(g, 1, gv.beta)
    # the outdegree lower-bound formula in exact rationals
    cases = [((4, 4), 1, Fraction(3)), ((2, 3), 1, Fraction(6, 5)), ((6, 6), 2, Fraction(3))]
    for (p, q), f, expected in cases:
        ratio = Fraction(p * q, p + q)
        value = ratio + 2 - f if f <= ratio - 1 else ratio + 1 - f
        s.check(f"lower-formula K{p},{q} f={f}", expected, value, value == expected)
    # larger-side play: conjectured 1 + min{p,q} - f; the one-way orientation
    # achieves that value as an upper bound (reported, never asserted exact)
    from .orient import orient_bipartite
    from .strategies import BipartiteBlock

    g = gen.complete_bipartite(5, 5)
    o = orient_bipartite(g)
    measured = max(simulate(o, v, 2, BipartiteBlock()).burned for v in range(g.n))
    s.observe("K5,5 with two firefighters", "1 + min{p,q} - f = 4", f"one-way burns {measured}")
    return s.result


def _cubic_instances(seed: int):
    yield "K4", gen.complete(4)
    yield "K3,3", gen.k33()
    yield "prism", gen.prism(3)
    yield "cube", gen.cube()
    yield "petersen", gen.petersen()
    sizes = [8, 10, 12, 14]
    for i in range(20):
        n = sizes[i % len(sizes)]
        yield f"cubic n={n} seed={seed + i}", gen.random_regular(n, 3, seed + i)


def suite_subcubic(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("subcubic", seed)
    for name, g in _cubic_instances(seed):
        t0 = time.perf_counter()
        o = orient_subcubic(g)
        gv = solve_orientation(o, 1, want_trace=False)
        ms = (time.perf_counter() - t0) * 1000
        tight = name in ("K4", "petersen")
        ok = gv.beta == 2 if tight else gv.beta <= 2
        s.check(name, "2" if tight else "<= 2", gv.beta, ok, ms)
        s.solved(g, 1, gv.beta, orientation=o)
    return s.result


def suite_two_trees(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("two-trees", seed)
    for i in range(20):
        n = 8 + (i % 5)
        g = gen.random_ktree(n, 2, seed + i)
        t0 = time.perf_counter()
        o = orient_ktree(g, 2)
        gv = solve_orientation(o, 1, want_trace=False)
        ms = (time.perf_counter() - t0) * 1000
        s.check(f"2-tree n={n} seed={seed + i}", "<= 2", gv.beta, gv.beta <= 2, ms)
        s.solved(g, 1, gv.beta, orientation=o)
    return s.result


def suite_degree4(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("degree4", seed)
    for i in range(10):
        g = gen.random_regular(12, 4, seed + i)
        t0 = time.perf_counter()
        o = orient_bounded_degree(g, 4)
        gv = solve_orientation(o, 1, want_trace=False)
        ms = (time.perf_counter() - t0) * 1000
        s.check(f"4-regular n=12 seed={seed + i}", "<= 5", gv.beta, gv.beta <= 5, ms)
        s.solved(g, 1, gv.beta, orientation=o)
    return s.result


def suite_b1(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("b1-characterisation", seed)
    top = 6 if slow else 5
    for n in range(1, top + 1):
        t0 = time.perf_counter()
        bad = 0
        sandwich_bad = 0
        count = 0
        for g in gen.enumerate_connected(n):
            count += 1
            beta = solve_best_orientation(g, 1, want_trace=False).beta
            if (beta == 1) != (g.m <= g.n):
                bad += 1
            if check_sandwich(g, 1, beta):
                sandwich_bad += 1
        ms = (time.perf_counter() - t0) * 1000
        s.check(
            f"all connected n={n} ({count} graphs)", "0 mismatches",
            f"{bad} mismatches, {sandwich_bad} bound violations",
            bad == 0 and sandwich_bad == 0, ms,
        )
    if not slow:
        s.capped("all connected n=6", "26704 graphs run under slow mode")
    return s.result


def suite_recurrence(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("recurrence-closed-form", seed)
    mismatches = [
        (d, k, f)
        for d in range(3, 7)
        for k in range(2, 6)
        for f in range(1, d)
        if wave_total(d, f, k) != refined_colour_bound(d, f, k)
    ]
    s.check("wave sum equals closed form (3<=D<=6, 2<=k<=5, 1<=f<D)", "0 mismatches",
            f"{len(mismatches)} mismatches", not mismatches)
    s.check("refined bound at D=3, chi=3, f=1", 6, refined_colour_bound(3, 1, 3),
            refined_colour_bound(3, 1, 3) == 6)
    s.check("refined bound at D=4, chi=4, f=1", 35, refined_colour_bound(4, 1, 4),
            refined_colour_bound(4, 1, 4) == 35)
    ladder = [beta_d_ladder(d) for d in range(3, 7)]
    s.check("degree ladder 3..6 with seed 5", [2, 5, 17, 70], ladder, ladder == [2, 5, 17, 70])
    return s.result


def suite_grids(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("grids", seed)
    w = h = 9
    o = orient_grid("rect", w, h)
    t0 = time.perf_counter()
    burned = set()
    for r in range(3, h - 3):
        for c in range(3, w - 3):
            tr = simulate(o, r * w + c, 1, GridRect())
            burned.add(tr.burned)
            if not replay(o, tr).valid:
                burned.add("invalid-trace")
    ms = (time.perf_counter() - t0) * 1000
    s.check("rect 9x9 interior starts", "{3}", sorted(burned, key=str), burned == {3}, ms)

    o = orient_grid("tri", w, h)
    t0 = time.perf_counter()
    worst = 0
    for r in range(3, h - 3):
        for c in range(3, w - 3):
            tr = simulate(o, r * w + c, 1, GridTri())
            worst = max(worst, tr.burned)
    ms = (time.perf_counter() - t0) * 1000
    s.check("tri 9x9 interior starts", "<= 6", worst, worst <= 6, ms)

    o = orient_grid("hex", w, h)
    t0 = time.perf_counter()
    worst = 0
    for v in range(o.n):
        tr = simulate(o, v, 1, SubcubicBlock())
        worst = max(worst, tr.burned)
    ms = (time.perf_counter() - t0) * 1000
    s.check("hex 9x9 all starts", "<= 2", worst, worst <= 2, ms)
    return s.result


def suite_oracle(slow: bool = False, seed: int = 0) -> SuiteResult:
    import random

    s = _Suite("oracle-equivalence", seed)
    graphs5 = [g for n in range(2, 6) for g in gen.enumerate_connected(n)]
    t0 = time.perf_counter()
    bad = 0
    for i in range(50):
        rng = random.Random(seed + i)
        g = graphs5[rng.randrange(len(graphs5))]
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        if solve_orientation(o, 1, want_trace=False).beta != naive_solve_orientation(o, 1):
            bad += 1
    ms = (time.perf_counter() - t0) * 1000
    s.check("fixed random orientations (50 seeds)", "0 mismatches", f"{bad} mismatches", bad == 0, ms)

    # The naive oracle runs once per isomorphism class, on the class's first
    # labelled graph. Sound: a relabelling maps the orientations and the
    # defence schedules of one graph one-to-one onto those of the other, so
    # the naive value is a class invariant, and equal canonical forms prove
    # the graphs isomorphic. The pruned solver still runs on every graph.
    def best_check(f: int, top: int) -> None:
        t0 = time.perf_counter()
        naive: dict[Graph, int] = {}
        bad = 0
        count = 0
        for n in range(1, top + 1):
            for g in gen.enumerate_connected(n):
                count += 1
                key = canonical_form(g)
                if key not in naive:
                    naive[key] = naive_best_orientation(g, f)
                if solve_best_orientation(g, f, want_trace=False).beta != naive[key]:
                    bad += 1
        ms = (time.perf_counter() - t0) * 1000
        at = "" if f == 1 else f" at f={f}"
        s.check(f"best orientation{at} on all {count} connected graphs up to n={top}", "0 mismatches",
                f"{bad} mismatches, {len(naive)} classes", bad == 0, ms)

    best_check(1, 5)
    best_check(2, 4)
    return s.result


def suite_bounds_consistency(slow: bool = False, seed: int = 0) -> SuiteResult:
    """Re-solve the instances of the exact suites and screen every value: best
    values against the full bound report, constructed orientations against
    the lower bounds and their own rules."""
    s = _Suite("bounds-consistency", seed)

    def screen(name, g, f, beta, orientation=None):
        t0 = time.perf_counter()
        problems = check_sandwich(g, f, beta, orientation)
        ms = (time.perf_counter() - t0) * 1000
        s.check(name, "no violations", "; ".join(problems) or "none", not problems, ms)

    for n in (3, 4, 5, 6):
        g = gen.complete(n)
        beta = solve_best_orientation(g, 1, want_trace=False).beta
        screen(f"K{n}", g, 1, beta)
    for p, q in ((2, 2), (4, 4)):
        g = gen.complete_bipartite(p, q)
        beta = solve_best_orientation(g, 1, want_trace=False).beta
        screen(f"K{p},{q}", g, 1, beta)
    for name, g in list(_cubic_instances(seed))[:10]:
        o = orient_subcubic(g)
        beta = solve_orientation(o, 1, want_trace=False).beta
        screen(f"subcubic {name}", g, 1, beta, orientation=o)
    for i in range(5):
        g = gen.random_ktree(8 + i, 2, seed + i)
        o = orient_ktree(g, 2)
        beta = solve_orientation(o, 1, want_trace=False).beta
        screen(f"2-tree n={8 + i}", g, 1, beta, orientation=o)
    for i in range(3):
        g = gen.random_regular(12, 4, seed + i)
        o = orient_bounded_degree(g, 4)
        beta = solve_orientation(o, 1, want_trace=False).beta
        screen(f"4-regular seed={seed + i}", g, 1, beta, orientation=o)
    count = 0
    worst = None
    for n in range(2, 5):
        for g in gen.enumerate_connected(n):
            beta = solve_best_orientation(g, 1, want_trace=False).beta
            problems = check_sandwich(g, 1, beta)
            count += 1
            if problems and worst is None:
                worst = (g.edges, problems)
    s.check(f"all connected graphs up to n=4 ({count})", "no violations",
            "none" if worst is None else str(worst), worst is None)
    return s.result


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "complete-exact": suite_complete_exact,
    "bipartite-exact": suite_bipartite_exact,
    "subcubic": suite_subcubic,
    "two-trees": suite_two_trees,
    "degree4": suite_degree4,
    "b1-characterisation": suite_b1,
    "recurrence-closed-form": suite_recurrence,
    "grids": suite_grids,
    "oracle-equivalence": suite_oracle,
    "bounds-consistency": suite_bounds_consistency,
}


def run_suite(name: str, slow: bool = False, seed: int = 0) -> SuiteResult:
    try:
        fn = SUITES[name]
    except KeyError:
        raise GraphError(f"unknown suite '{name}'") from None
    return fn(slow=slow, seed=seed)
