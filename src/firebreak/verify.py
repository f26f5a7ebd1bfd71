"""Named verification suites.

Each suite runs a fixed battery of checks with deterministic seeds and
reports one record per check; expensive checks are gated behind ``slow`` and
reported as capped rather than silently skipped. Every solved instance is
also screened against the bound formulas on the spot, so a bound
contradiction fails the originating check immediately.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional

from . import families as gen
from .bounds import (
    beta_d_ladder,
    check_sandwich,
    lower_bounds,
    refined_colour_bound,
    wave_total,
)
from .game import replay, simulate
from .graphs import Graph, GraphError, Orientation, orientation_from_bits
from .orient import (
    orient_bipartite,
    orient_bounded_degree,
    orient_complete,
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
from .strategies import bipartite, complete_cyclic, grid_rect, grid_tri, subcubic


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
    """Collects a suite's records. Each record is stamped with the time since
    the previous one (or since the suite began), so the check times of a
    suite add up to the suite's time."""

    def __init__(self, name: str, seed: int):
        self.result = SuiteResult(suite=name, seed=seed)
        self._last = time.perf_counter()

    def _record(self, record: CheckRecord):
        now = time.perf_counter()
        record.wall_ms = (now - self._last) * 1000
        self._last = now
        self.result.checks.append(record)

    def check(self, name: str, expected, computed, passed: bool):
        self._record(CheckRecord(name=name, expected=str(expected), computed=str(computed),
                                 passed=bool(passed)))

    def capped(self, name: str, reason: str):
        self._record(CheckRecord(name=name, expected=reason, computed="not run", passed=True, capped=True))

    def observe(self, name: str, conjectured, measured):
        """Labelled empirical observation: reported, never asserted."""
        self._record(CheckRecord(name=f"observation: {name}", expected=f"conjectured {conjectured}",
                                 computed=str(measured), passed=True))

    def best(self, name: str, g: Graph, expected: int):
        """Check the exact best value at f = 1 and screen it against the bound
        formulas."""
        gv = solve_best_orientation(g, 1, want_trace=False)
        self._screened(name, g, gv.beta, expected, gv.beta == expected and gv.exact)

    def construction(self, name: str, g: Graph, o: Orientation, bound: int, tight: bool = False):
        """Check the value of a constructed orientation at f = 1 against its
        bound (equal to it when tight, at most it otherwise) and screen it
        against the bound formulas and the orientation's own rules."""
        beta = solve_orientation(o, 1, want_trace=False).beta
        expected, passed = (bound, beta == bound) if tight else (f"<= {bound}", beta <= bound)
        self._screened(name, g, beta, expected, passed, o)

    def _screened(self, name: str, g: Graph, beta: int, expected, passed: bool,
                  o: Optional[Orientation] = None):
        """Record the check, then any bound contradiction as a failed check
        of its own."""
        problems = check_sandwich(g, 1, beta, o)
        self.check(name, expected, beta, passed)
        if problems:
            self.check(f"sandwich[{name}]", "no violations", "; ".join(problems), False)


# ---------------------------------------------------------------------------
# suites


def suite_complete_exact(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("complete-exact", seed)
    for n, expected in [(3, 1), (4, 2), (5, 2), (6, 3), (7, 4)]:
        s.best(f"K{n}", gen.complete(n), expected)
    # multi-firefighter complete play: conjectured n - 3f, measured on the
    # cyclic tournament schedule (an upper bound, never asserted exact)
    o = orient_complete(9)
    measured = max(simulate(o, v, 2, complete_cyclic).burned for v in range(9))
    s.observe("K9 with two firefighters", "n - 3f = 3", f"schedule burns {measured}")
    return s.result


def suite_bipartite_exact(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("bipartite-exact", seed)
    for (p, q), expected in [((2, 2), 1), ((4, 4), 3)]:
        s.best(f"K{p},{q}", gen.complete_bipartite(p, q), expected)
    # the biclique outdegree lower bounds of the bound report, in exact rationals
    cases = [((4, 4), 1, Fraction(3)), ((2, 3), 1, Fraction(6, 5)), ((6, 6), 2, Fraction(3))]
    for (p, q), f, expected in cases:
        value = max(e.value for e in lower_bounds(gen.complete_bipartite(p, q), f)
                    if e.applicable and e.name in ("biclique-outdegree", "biclique-outdegree-plus"))
        s.check(f"lower-formula K{p},{q} f={f}", expected, value, value == expected)
    # larger-side play: conjectured 1 + min{p,q} - f; the one-way orientation
    # achieves that value as an upper bound (reported, never asserted exact)
    g = gen.complete_bipartite(5, 5)
    o = orient_bipartite(g)
    measured = max(simulate(o, v, 2, bipartite).burned for v in range(g.n))
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


def _two_tree_instances(seed: int):
    """(n, seed, random 2-tree) for the 20 instances of ``two-trees``."""
    for i in range(20):
        n = 8 + i % 5
        yield n, seed + i, gen.random_ktree(n, 2, seed + i)


def _degree4_instances(seed: int):
    """(seed, random 4-regular graph on 12 vertices) for the 10 instances of
    ``degree4``."""
    for i in range(10):
        yield seed + i, gen.random_regular(12, 4, seed + i)


def suite_subcubic(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("subcubic", seed)
    for name, g in _cubic_instances(seed):
        s.construction(name, g, orient_subcubic(g), 2, tight=name in ("K4", "petersen"))
    return s.result


def suite_two_trees(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("two-trees", seed)
    for n, graph_seed, g in _two_tree_instances(seed):
        s.construction(f"2-tree n={n} seed={graph_seed}", g, orient_ktree(g, 2), 2)
    return s.result


def suite_degree4(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("degree4", seed)
    for graph_seed, g in _degree4_instances(seed):
        s.construction(f"4-regular n=12 seed={graph_seed}", g, orient_bounded_degree(g, 4), 5)
    return s.result


def _best_by_class(n: int):
    """Yield (graph, beta at f = 1) for every connected graph on n vertices,
    in enumeration order, solving the best orientation once per isomorphism
    class, on the class's first labelled graph.

    Sound: a relabelling maps the orientations and the defence schedules of
    one graph one-to-one onto those of the other, so beta is a class
    invariant, and a class holds exactly the relabellings of its first graph
    (``families.connected_by_class``). The betas live for one call only."""
    betas: list[int] = []
    for g, cls in gen.connected_by_class(n):
        if cls == len(betas):
            betas.append(solve_best_orientation(g, 1, want_trace=False).beta)
        yield g, betas[cls]


def suite_b1(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("b1-characterisation", seed)
    top = 6 if slow else 5
    for n in range(1, top + 1):
        bad = 0
        sandwich_bad = 0
        count = 0
        for g, beta in _best_by_class(n):
            count += 1
            if (beta == 1) != (g.m <= g.n):
                bad += 1
            if check_sandwich(g, 1, beta):
                sandwich_bad += 1
        s.check(
            f"all connected n={n} ({count} graphs)", "0 mismatches",
            f"{bad} mismatches, {sandwich_bad} bound violations",
            bad == 0 and sandwich_bad == 0,
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
    burned = set()
    for r in range(3, h - 3):
        for c in range(3, w - 3):
            tr = simulate(o, r * w + c, 1, grid_rect)
            burned.add(tr.burned)
            if not replay(o, tr).valid:
                burned.add("invalid-trace")
    s.check("rect 9x9 interior starts", "{3}", sorted(burned, key=str), burned == {3})

    o = orient_grid("tri", w, h)
    worst = 0
    for r in range(3, h - 3):
        for c in range(3, w - 3):
            tr = simulate(o, r * w + c, 1, grid_tri)
            worst = max(worst, tr.burned)
    s.check("tri 9x9 interior starts", "<= 6", worst, worst <= 6)

    o = orient_grid("hex", w, h)
    worst = 0
    for v in range(o.n):
        tr = simulate(o, v, 1, subcubic)
        worst = max(worst, tr.burned)
    s.check("hex 9x9 all starts", "<= 2", worst, worst <= 2)
    return s.result


def suite_oracle(slow: bool = False, seed: int = 0) -> SuiteResult:
    s = _Suite("oracle-equivalence", seed)
    # every connected graph up to n = 5, in enumeration order, with its
    # isomorphism class as (n, class index)
    indexed = [(g, (n, cls)) for n in range(1, 6) for g, cls in gen.connected_by_class(n)]
    graphs5 = [g for g, _ in indexed if g.n >= 2]
    bad = 0
    for i in range(50):
        rng = random.Random(seed + i)
        g = graphs5[rng.randrange(len(graphs5))]
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        if solve_orientation(o, 1, want_trace=False).beta != naive_solve_orientation(o, 1):
            bad += 1
    s.check("fixed random orientations (50 seeds)", "0 mismatches", f"{bad} mismatches", bad == 0)

    # The naive oracle runs once per isomorphism class, on the class's first
    # labelled graph. Sound: a relabelling maps the orientations and the
    # defence schedules of one graph one-to-one onto those of the other, so
    # the naive value is a class invariant, and a class holds exactly the
    # relabellings of its first graph. The pruned solver still runs on every
    # graph.
    def best_check(f: int, top: int) -> None:
        naive: dict[tuple[int, int], int] = {}
        bad = 0
        count = 0
        for g, cls in indexed:
            if g.n > top:
                break
            count += 1
            if cls not in naive:
                naive[cls] = naive_best_orientation(g, f)
            if solve_best_orientation(g, f, want_trace=False).beta != naive[cls]:
                bad += 1
        at = "" if f == 1 else f" at f={f}"
        s.check(f"best orientation{at} on all {count} connected graphs up to n={top}", "0 mismatches",
                f"{bad} mismatches, {len(naive)} classes", bad == 0)

    best_check(1, 5)
    best_check(2, 4)
    return s.result


def suite_bounds_consistency(slow: bool = False, seed: int = 0) -> SuiteResult:
    """Re-solve the instances of the exact suites and screen every value: best
    values against the full bound report, constructed orientations against
    the lower bounds and their own rules."""
    s = _Suite("bounds-consistency", seed)

    def screen(name, g, f, beta, orientation=None):
        problems = check_sandwich(g, f, beta, orientation)
        s.check(name, "no violations", "; ".join(problems) or "none", not problems)

    for n in (3, 4, 5, 6):
        g = gen.complete(n)
        beta = solve_best_orientation(g, 1, want_trace=False).beta
        screen(f"K{n}", g, 1, beta)
    for p, q in ((2, 2), (4, 4)):
        g = gen.complete_bipartite(p, q)
        beta = solve_best_orientation(g, 1, want_trace=False).beta
        screen(f"K{p},{q}", g, 1, beta)
    for name, g in islice(_cubic_instances(seed), 10):
        o = orient_subcubic(g)
        beta = solve_orientation(o, 1, want_trace=False).beta
        screen(f"subcubic {name}", g, 1, beta, orientation=o)
    for n, _, g in islice(_two_tree_instances(seed), 5):
        o = orient_ktree(g, 2)
        beta = solve_orientation(o, 1, want_trace=False).beta
        screen(f"2-tree n={n}", g, 1, beta, orientation=o)
    for graph_seed, g in islice(_degree4_instances(seed), 3):
        o = orient_bounded_degree(g, 4)
        beta = solve_orientation(o, 1, want_trace=False).beta
        screen(f"4-regular seed={graph_seed}", g, 1, beta, orientation=o)
    count = 0
    worst = None
    for n in range(2, 5):
        for g, beta in _best_by_class(n):
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
