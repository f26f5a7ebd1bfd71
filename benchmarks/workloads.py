"""The benchmark's five workloads and their output checks.

A builder takes the freshly imported ``firebreak`` package, the workload seed
and the ``tiny`` flag, and returns a function that yields one pass of jobs.
``Job.run`` is the timed call into the package's public API; ``Job.check``
runs outside the timed region and returns the problems it found, empty when
the output is right. Builders look every firebreak function up through its
module at call time, so the traced run's rebinding reaches them, and this
module imports nothing from firebreak, so set-up can time the import.

Random graphs come from a fixed instance seed. In ``fixed`` the workload seed
permutes their vertex ids and edge order: across structural seeds the engine's
state count for one job varies with a coefficient of variation of 0.2 to 0.9,
which would make a run's wall time a property of the seed, while across
relabellings it varies by 0.03 or less for the undirected jobs and about 0.1
for the orientation jobs. The solvers branch in vertex and edge order, so a
relabelled instance is still a different input to them. See NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

INSTANCE_SEED = 0

# Exact best-orientation values. K7 f=1 = 4 and K4,4 = 3 are asserted by the
# verify suites; the others are what the exhaustive scan returned when this
# benchmark was written. Any change to them is a wrong answer.
EXPECTED = {
    "K7-f1": 4, "K7-f2": 2, "K4_4-f1": 3, "K3_6-f1": 3,
    "grid4x4": 2, "grid3x5": 2, "tri3x4": 2, "ktree2-n12": 2, "cubic-n16": 2,
}
BEST_DENSE = ("K7-f1", "K7-f2", "K4_4-f1", "K3_6-f1")
BEST_SPARSE = ("grid4x4", "grid3x5", "tri3x4", "ktree2-n12", "cubic-n16")
FIXED = ("cubic-n18-f1", "cubic-n20-f1", "grid4x5-f1", "grid4x5-f2", "4reg-n16-f2",
         "5reg-n24-f2-random", "4reg-n20-f1-half")
SUITES = ("complete-exact", "bipartite-exact", "subcubic", "two-trees", "degree4",
          "b1-characterisation", "recurrence-closed-form", "grids", "oracle-equivalence",
          "bounds-consistency")
TINY_SUITES = ("complete-exact", "two-trees", "recurrence-closed-form", "grids")

SWEEP6_GRAPHS = 26704  # labelled connected graphs on 6 vertices
SWEEP6_SAMPLE = 4000
SWEEP6_TINY = 20


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    per_graph: bool = False
    orientation: Optional[tuple] = None  # (orientation, f) of a fixed-orientation job


def relabel(fb, obj, rng: random.Random):
    """Copy of a graph or orientation with permuted vertex ids and edge order."""
    g = getattr(obj, "graph", obj)
    perm = rng.sample(range(g.n), g.n)
    order = rng.sample(range(g.m), g.m)
    out = fb.graphs.Graph(g.n, [(perm[g.edges[i][0]], perm[g.edges[i][1]]) for i in order])
    if obj is g:
        return out
    return fb.graphs.Orientation(out, [(perm[obj.arcs[i][0]], perm[obj.arcs[i][1]]) for i in order])


def trace_problems(fb, gv, o) -> list:
    """The witness trace replays on ``o`` and burns beta = max(per_start)."""
    tr = gv.witness_trace
    if tr is None:
        return ["no witness trace"]
    problems = []
    replayed = fb.game.replay(o, tr)
    if not replayed.valid:
        problems.append(f"witness trace does not replay: {replayed.reason}")
    worst = max(gv.per_start.values())
    if not tr.burned == gv.beta == worst:
        problems.append(f"trace burns {tr.burned}, beta is {gv.beta}, worst start burns {worst}")
    return problems


def best_problems(fb, gv, f: int, expected: Optional[int]) -> list:
    problems = []
    if expected is not None and gv.beta != expected:
        problems.append(f"beta is {gv.beta}, expected {expected}")
    if not gv.exact:
        problems.append("result is not exact")
    again = fb.solve.solve_orientation(gv.witness_orientation, f, want_trace=False).beta
    if again != gv.beta:
        problems.append(f"witness orientation re-solves to {again}, not {gv.beta}")
    return problems + trace_problems(fb, gv, gv.witness_orientation)


def best_job(fb, name: str, g, f: int, max_edges: int = 21) -> Job:
    return Job(
        name,
        lambda: fb.solve.solve_best_orientation(g, f, max_edges=max_edges),
        lambda gv: best_problems(fb, gv, f, EXPECTED[name]),
    )


def best_dense(fb, seed: int, tiny: bool):
    """Complete and complete bipartite graphs: most leaves die on the
    outdegree prune or the density-floor stop."""
    fam = fb.families
    specs = [("K7-f1", fam.complete(7), 1), ("K7-f2", fam.complete(7), 2),
             ("K4_4-f1", fam.complete_bipartite(4, 4), 1), ("K3_6-f1", fam.complete_bipartite(3, 6), 1)]
    jobs = [best_job(fb, name, g, f) for name, g, f in specs if not tiny or name == "K7-f2"]
    return lambda: jobs


def best_sparse(fb, seed: int, tiny: bool):
    """Bounded-degree graphs: the outdegree prune is weak, so surviving leaves
    pay for a full fixed-orientation evaluation. The seed changes nothing
    here: the scan stops at the first orientation that meets the density
    floor, so its cost swings with the edge order (a relabelled cubic graph
    took 5 ms under one seed and 247 ms under another)."""
    fam = fb.families
    specs = [
        ("grid4x4", fam.grid_rect(4, 4)),
        ("grid3x5", fam.grid_rect(3, 5)),
        ("tri3x4", fam.grid_tri(3, 4)),
        ("ktree2-n12", fam.random_ktree(12, 2, INSTANCE_SEED)),
        ("cubic-n16", fam.random_regular(16, 3, INSTANCE_SEED)),
    ]
    jobs = [best_job(fb, name, g, 1, max_edges=24) for name, g in specs
            if not tiny or not name.startswith(("grid", "tri"))]
    return lambda: jobs


def sweep_job(fb, index: int, g) -> Job:
    def run():
        gv = fb.solve.solve_best_orientation(g, 1)
        return gv, fb.bounds.check_sandwich(g, 1, gv.beta), fb.bounds.classify_b1(g)

    def check(out):
        gv, sandwich, b1 = out
        problems = best_problems(fb, gv, 1, None) + sandwich
        if b1 != (gv.beta == 1):
            problems.append(f"classify_b1 is {b1} but beta is {gv.beta}")
        return problems

    return Job(f"g{index}", run, check, per_graph=True)


def sweep6(fb, seed: int, tiny: bool):
    """A seeded sample of the labelled connected 6-vertex graphs, taken in
    enumeration order so that isomorphic graphs recur as in the full sweep."""
    size = SWEEP6_TINY if tiny else SWEEP6_SAMPLE
    chosen = frozenset(random.Random(seed).sample(range(SWEEP6_GRAPHS), size))

    def jobs():
        count = 0
        for index, g in enumerate(fb.families.enumerate_connected(6)):
            count += 1
            if index in chosen:
                yield sweep_job(fb, index, g)
        yield Job("enumeration-count", lambda: count,
                  lambda c: [] if c == SWEEP6_GRAPHS else [f"enumerated {c} graphs, expected {SWEEP6_GRAPHS}"])

    return jobs


def undirected_job(fb, name: str, g, f: int) -> Job:
    both = list(g.edges) + [(v, u) for u, v in g.edges]
    doubled = fb.graphs.Orientation(fb.graphs.Graph(g.n, both), both)
    return Job(name, lambda: fb.solve.solve_undirected(g, f), lambda gv: trace_problems(fb, gv, doubled))


def orientation_job(fb, name: str, o, f: int) -> Job:
    return Job(name, lambda: fb.solve.solve_orientation(o, f), lambda gv: trace_problems(fb, gv, o),
               orientation=(o, f))


def fixed(fb, seed: int, tiny: bool):
    """The fixed-orientation engine alone, with memo tables up to about 65k
    states, through both the f = 1 and the f >= 2 branch."""
    fam = fb.families
    rng = random.Random(seed)
    five = fam.random_regular(24, 5, INSTANCE_SEED)
    random_o = fb.graphs.orientation_from_bits(five, random.Random(INSTANCE_SEED).getrandbits(five.m))
    half_o = fb.orient.orient_half(fam.random_regular(20, 4, INSTANCE_SEED))
    jobs = [
        undirected_job(fb, "cubic-n18-f1", relabel(fb, fam.random_regular(18, 3, INSTANCE_SEED), rng), 1),
        undirected_job(fb, "cubic-n20-f1", relabel(fb, fam.random_regular(20, 3, INSTANCE_SEED), rng), 1),
        undirected_job(fb, "grid4x5-f1", fam.grid_rect(4, 5), 1),
        undirected_job(fb, "grid4x5-f2", fam.grid_rect(4, 5), 2),
        undirected_job(fb, "4reg-n16-f2", relabel(fb, fam.random_regular(16, 4, INSTANCE_SEED), rng), 2),
        orientation_job(fb, "5reg-n24-f2-random", relabel(fb, random_o, rng), 2),
        orientation_job(fb, "4reg-n20-f1-half", relabel(fb, half_o, rng), 1),
    ]
    if tiny:
        jobs = [j for j in jobs if j.name in ("4reg-n16-f2", "4reg-n20-f1-half")]
    return lambda: jobs


def suite_job(fb, name: str, seed: int) -> Job:
    def check(result):
        bad = [c.name for c in result.checks if not (c.passed or c.capped)]
        return [] if result.passed else [f"suite {name} failed: {', '.join(bad)}"]

    return Job(name, lambda: fb.verify.run_suite(name, seed=seed), check)


def verify(fb, seed: int, tiny: bool):
    """Every verify suite at default settings: the naive oracle, the game
    simulator and the scripted strategies run nowhere else."""
    jobs = [suite_job(fb, name, seed) for name in (TINY_SUITES if tiny else SUITES)]
    return lambda: jobs


WORKLOADS = {
    "best-dense": best_dense,
    "best-sparse": best_sparse,
    "sweep6": sweep6,
    "fixed": fixed,
    "verify": verify,
}
