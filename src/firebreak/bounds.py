"""Closed-form bound evaluation and burn-class checks.

All arithmetic is exact: values are int, or fractions.Fraction where a ratio
arises; floors and ceilings appear exactly where the source formulas place
them. Every rule is emitted whether or not it applies to the instance, with
an explicit applicability flag and hypothesis, so a bound can never be
misused silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .game import check_game
from .graphs import Graph, GraphError, Orientation, bits, metrics, popcount
from .structure import (
    _oneway_side,
    bipartition,
    exact_colouring,
    forest_peel,
    greedy_colouring,
    is_complete,
    ktree_structure,
    min_fvs,
)


@dataclass
class BoundEntry:
    name: str
    kind: str  # "lower" or "upper"
    value: Optional[int | Fraction]
    applicable: bool
    hypothesis: str
    note: str = ""

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name,
            "kind": self.kind,
            "value": None if self.value is None else str(self.value),
            "applicable": self.applicable,
            "hypothesis": self.hypothesis,
        }
        if self.note:
            obj["note"] = self.note
        return obj


# ---------------------------------------------------------------------------
# wave recurrence and its closed form


def burn_waves(delta: int, f: int, k: int) -> list[int]:
    """Worst-case burn counts per time unit on the layered orientation:
    1, delta - f, then each wave multiplies by delta - 1 and loses f. The
    recurrence never leaves the integers."""
    waves = [1]
    if k >= 2:
        waves.append(delta - f)
    for _ in range(3, k + 1):
        waves.append((delta - 1) * waves[-1] - f)
    return waves


def wave_total(delta: int, f: int, k: int) -> int:
    return sum(burn_waves(delta, f, k))


def refined_colour_bound(delta: int, f: int, k: int) -> Fraction:
    """Closed form of the wave total for delta > 2 and k >= 1:

        (d (d-1)^(k-1) - 2) / (d-2) - f ((d-1)^k - d k + 2k - 1) / (d-2)^2,

    evaluated over the common denominator (d-2)^2 with an integer numerator.
    """
    if delta <= 2:
        raise GraphError("closed form needs maximum degree above 2")
    if k < 1:
        raise GraphError("closed form needs k >= 1")
    d = delta
    num = (d * (d - 1) ** (k - 1) - 2) * (d - 2) - f * ((d - 1) ** k - d * k + 2 * k - 1)
    return Fraction(num, (d - 2) ** 2)


def beta_d_ladder(d: int, seed4: int = 5) -> int:
    """Worst-case burn bound for maximum degree d with one firefighter:
    the degree recursion max(d, prev*(d-2) + 2) capped by (d-1)!.

    seed4 = 5 uses the dedicated degree-4 bound; seed4 = 6 reproduces the
    pure recursion from the subcubic base.
    """
    if d < 3:
        raise GraphError("ladder starts at degree 3")
    if seed4 not in (5, 6):
        raise GraphError("degree-4 seed must be 5 or 6")
    if d == 3:
        return 2
    value = min(seed4, math.factorial(3))
    for i in range(5, d + 1):
        value = min(max(i, value * (i - 2) + 2), math.factorial(i - 1))
    return value


# ---------------------------------------------------------------------------
# instance recognition helpers


def _complete_bipartite_sides(g: Graph) -> Optional[tuple[int, int]]:
    """(p, q) when g is K_{p,q}, with p counting the side of vertex 0: every
    vertex is joined to exactly the side it is not on, and m == pq rules out
    parallel edges."""
    am = g.adj_mask
    b = am[0] if am else 0
    a = ((1 << g.n) - 1) & ~b
    if not b or any(am[v] != (b if (a >> v) & 1 else a) for v in range(g.n)):
        return None
    p, q = popcount(a), popcount(b)
    return (p, q) if g.m == p * q else None


def greedy_clique(g: Graph) -> int:
    """Size of a clique found greedily; a valid lower-bound witness, exact on
    complete graphs.

    From each start v, the vertices are scanned in ascending order and each
    one that is adjacent to everything taken so far joins. ``common`` is the
    mask of vertices adjacent to everything taken, so the next vertex to join
    is its lowest member: a lower member would have been in ``common`` when
    the scan passed it (``common`` only shrinks) and so would have joined.
    """
    best = 1 if g.n else 0
    am = g.adj_mask
    for v in range(g.n):
        size, common = 1, am[v]
        while common:
            size += 1
            common &= am[(common & -common).bit_length() - 1]
        best = max(best, size)
    return best


def _chromatic_number(g: Graph, bipartite: bool) -> tuple[int, bool]:
    """(chromatic number or greedy part count, exact flag).

    Exact for 1 to 16 vertices. A 1-colouring exists exactly when there is no
    edge (loops are forbidden) and a 2-colouring exactly when the graph is
    bipartite, so those answers need no search. Any other graph searches
    k = 3 up to one below the greedy count and stops there: the greedy
    colouring is itself proper, so when no smaller k colours the graph, the
    greedy count is the chromatic number. Above 16 vertices the greedy count
    is returned as an estimate.
    """
    if 1 <= g.n <= 16 and bipartite:
        return (2 if g.m else 1), True
    greedy = len(greedy_colouring(g))
    if g.n > 16:
        return greedy, False
    for k in range(3, greedy):
        if exact_colouring(g, k) is not None:
            return k, True
    return greedy, g.n >= 1


# ---------------------------------------------------------------------------
# lower bounds


def lower_bounds(g: Graph, f: int = 1) -> list[BoundEntry]:
    entries = [
        BoundEntry("trivial", "lower", 1, True, "the start vertex always burns")
    ]
    n, m = g.n, g.m
    density = Fraction(m, n) if n else 0
    entries.append(
        BoundEntry(
            "density", "lower", density, f == 1,
            "one firefighter; some vertex has outdegree at least m/n in every orientation",
        )
    )
    delta_min = g.min_degree()
    entries.append(
        BoundEntry(
            "min-degree-half", "lower", Fraction(delta_min, 2), f == 1,
            "one firefighter; m >= n*delta_min/2 feeds the density bound",
        )
    )
    omega = greedy_clique(g)
    clique_value = omega - 3 if omega >= 5 else 2 if omega == 4 else 1
    entries.append(
        BoundEntry(
            "clique", "lower", clique_value, f == 1,
            f"one firefighter; contains a clique on {omega} vertices (subgraph monotonicity)",
            note="" if is_complete(g) else "greedy clique, so possibly undersized",
        )
    )
    sides = _complete_bipartite_sides(g)
    if sides is not None:
        p, q = sides
        ratio = Fraction(p * q, p + q)
        entries.append(
            BoundEntry(
                "biclique-outdegree", "lower", ratio + 1 - f, True,
                f"complete bipartite K_{{{p},{q}}}",
            )
        )
        entries.append(
            BoundEntry(
                "biclique-outdegree-plus", "lower", ratio + 2 - f, f <= ratio - 1,
                f"complete bipartite K_{{{p},{q}}} with f <= pq/(p+q) - 1",
            )
        )
        entries.append(
            BoundEntry(
                "biclique-min-side", "lower", min(p, q),
                f == 1 and min(p, q) >= 6,
                f"complete bipartite K_{{{p},{q}}} with both sides at least 6, one firefighter",
            )
        )
    else:
        for rule in ("biclique-outdegree", "biclique-outdegree-plus", "biclique-min-side"):
            entries.append(BoundEntry(rule, "lower", None, False, "graph is not complete bipartite"))
    return entries


# ---------------------------------------------------------------------------
# upper bounds


def upper_bounds(g: Graph, f: int = 1, *, k: Optional[int] = None) -> list[BoundEntry]:
    """Every upper-bound rule. ``k`` enables the k-tree rules when ``g`` is a
    k-tree; the per-orientation rules close the list, inapplicable."""
    entries: list[BoundEntry] = []
    n, m = g.n, g.m
    delta = g.max_degree()

    # trees and near-trees
    connected = g.is_connected()
    # a connected multigraph with n - 1 edges is a tree
    entries.append(BoundEntry("tree", "upper", 1, connected and m == n - 1, "graph is a tree"))
    at_most_one_cycle = connected and m <= n
    entries.append(
        BoundEntry(
            "one-cycle", "upper", 1, at_most_one_cycle and f >= 1,
            "connected with at most one cycle; a 1-outregular orientation exists",
        )
    )

    # complete graphs
    if is_complete(g):
        value = complete_upper_bound(n, f)
        entries.append(BoundEntry("complete", "upper", value, True, f"complete graph on {n} vertices"))
    else:
        entries.append(BoundEntry("complete", "upper", None, False, "graph is not complete"))

    # bipartite one-way orientation
    sides = bipartition(g)
    if sides is not None and m > 0:
        _, small = _oneway_side(g, sides)
        entries.append(
            BoundEntry(
                "bipartite-oneway", "upper", max(1, 1 + small - f), True,
                f"bipartite; all arcs leave the side with maximum degree {small}",
            )
        )
    else:
        entries.append(BoundEntry("bipartite-oneway", "upper", None, False, "graph is not bipartite"))

    # chromatic bounds
    chromatic, chi_exact = _chromatic_number(g, sides is not None)
    chi_note = "" if chi_exact else "greedy colouring estimate"
    coarse_ok = 1 <= f < delta
    coarse = delta**chromatic if delta >= 1 else None
    entries.append(
        BoundEntry(
            "chromatic-coarse", "upper", coarse, coarse_ok,
            f"f below maximum degree {delta}; colour classes give an acyclic orientation "
            f"of depth {chromatic}",
            note=chi_note,
        )
    )
    if delta > 2 and 1 <= f < delta:
        waves = burn_waves(delta, f, chromatic)
        if all(w > 0 for w in waves):
            refined = refined_colour_bound(delta, f, chromatic)
            trunc_note = ""
        else:
            cut = next(i for i, w in enumerate(waves) if w <= 0)
            refined = sum(waves[:cut])
            trunc_note = "wave sum truncated where the fire is contained"
        entries.append(
            BoundEntry(
                "chromatic-refined", "upper", refined, True,
                f"maximum degree {delta} > 2 and f < maximum degree",
                note=(chi_note + "; " + trunc_note).strip("; "),
            )
        )
    else:
        entries.append(
            BoundEntry("chromatic-refined", "upper", None, False, "needs maximum degree above 2 and f below it")
        )

    # arboricity estimate
    a_est = len(forest_peel(g))
    entries.append(
        BoundEntry(
            "arboricity-cover", "upper", 1, f >= a_est,
            f"f at least the forest partition size {a_est}",
            note="estimate-based: partition size bounds the arboricity from above",
        )
    )
    rational = 1 + Fraction(n - 1, a_est) if a_est else None
    entries.append(
        BoundEntry(
            "arboricity-pace", "upper", rational, a_est > 0 and f >= a_est - 1,
            f"f at least {a_est - 1}: one new burn per unit while each unit retires "
            f"{a_est} vertices",
            note="estimate-based",
        )
    )

    # feedback vertex set
    if n <= 18:
        fvs_mask = min_fvs(g)
        size = popcount(fvs_mask)
        entries.append(
            BoundEntry(
                "fvs", "upper", max(1, size - f + 2), True,
                f"removing the {size} set vertices leaves a forest",
            )
        )
    else:
        entries.append(
            BoundEntry(
                "fvs", "upper", None, False,
                "more than 18 vertices: no exact feedback vertex set computed",
            )
        )

    # k-tree bounds
    structure = ktree_structure(g, k) if k is not None else None
    if structure is not None:
        diam = metrics(g).diam
        if diam and f * diam <= 2 * k:
            v1 = 1 + (diam // 2) * (k - f) - f
            entries.append(
                BoundEntry(
                    "ktree-walls", "upper", v1, True,
                    f"{k}-tree, f <= 2k/diam: protect while the fire walks to the centre",
                )
            )
        else:
            entries.append(
                BoundEntry("ktree-walls", "upper", None, False, "needs a k-tree and f <= 2k/diam")
            )
        if diam and f * diam > 2 * k:
            v2 = 1 + k * (k // f - 1)
            entries.append(
                BoundEntry(
                    "ktree-anticipate", "upper", v2, True,
                    f"{k}-tree, f > 2k/diam: protect a full wave ahead of the fire",
                )
            )
        else:
            entries.append(
                BoundEntry("ktree-anticipate", "upper", None, False, "needs a k-tree and f > 2k/diam")
            )
        entries.append(
            BoundEntry(
                "ktree-half", "upper", 1 + -(-k // 2), f >= k // 2,
                f"{k}-tree with f >= floor(k/2)",
            )
        )
    else:
        for rule in ("ktree-walls", "ktree-anticipate", "ktree-half"):
            entries.append(BoundEntry(rule, "upper", None, False, "not recognised as a k-tree (supply k)"))

    # degree ladder
    if f == 1 and delta >= 1:
        if delta <= 2:
            entries.append(
                BoundEntry("degree-ladder", "upper", None, False, "maximum degree below 3: covered by one-cycle")
            )
        else:
            entries.append(
                BoundEntry(
                    "degree-ladder", "upper", beta_d_ladder(delta), True,
                    f"one firefighter, maximum degree {delta}",
                )
            )
    else:
        entries.append(BoundEntry("degree-ladder", "upper", None, False, "one-firefighter bound"))

    entries += _orientation_bounds(g, f, None)
    return entries


def _orientation_bounds(g: Graph, f: int, o: Optional[Orientation]) -> list[BoundEntry]:
    """Upper bounds on the value of the one orientation ``o`` of ``g``; unlike
    the other rules they hold for that orientation, not only for the best."""
    if o is None or o.graph != g:
        return [
            BoundEntry(rule, "upper", None, False, "no orientation supplied")
            for rule in ("outdegree-cover", "outdegree-pace", "radius")
        ]
    dplus = o.max_out_degree()
    rad = metrics(o).rad
    return [
        BoundEntry(
            "outdegree-cover", "upper", 1, f >= dplus,
            f"f at least the orientation's maximum outdegree {dplus}",
        ),
        BoundEntry(
            "outdegree-pace", "upper",
            1 + Fraction(g.n - 1, dplus) if dplus else None,
            dplus >= 1 and f >= dplus - 1,
            f"f at least {dplus - 1} on an orientation with maximum outdegree {dplus}",
        ),
        BoundEntry(
            "radius", "upper",
            None if rad == math.inf else g.n - int(rad),
            f == 1 and rad != math.inf,
            "one firefighter; protect one vertex per distance layer of this orientation",
        ),
    ]


def complete_upper_bound(n: int, f: int) -> int:
    if n % 2 == 1:
        if 4 * f < n - 1:
            return n - 3 * f
        if 2 * f < n - 1:
            return (n - 1) // 2 - f + 1
        return 1
    if 4 * f < n - 2:
        return n - 3 * f
    if 2 * f < n - 2:
        return n // 2 - f + 1
    if 2 * f < n:
        return 2
    return 1


# ---------------------------------------------------------------------------
# burn classes


def classify_b1(g: Graph) -> bool:
    """Connected graphs where a single vertex burns under best play: exactly
    those with at most one cycle."""
    if not g.is_connected():
        raise GraphError("classification needs a connected graph")
    return g.m <= g.n


@dataclass
class BkReport:
    density_ok: bool
    degenerate_ok: bool
    verdict: str  # "possible" or "excluded"


def bk_necessary(g: Graph, k: int) -> BkReport:
    """Necessary conditions for burn class k: every peeled core must keep
    m' <= k*n', and the graph must be 2k-degenerate. Failing either excludes
    the graph; passing proves nothing."""
    if k < 1:
        raise GraphError("class index must be at least 1")
    deg = g.degrees()
    alive = (1 << g.n) - 1
    edges_left = g.m
    density_ok = True
    degeneracy = 0
    vertices_left = g.n
    while vertices_left:
        if edges_left > k * vertices_left:
            density_ok = False
        v = min(bits(alive), key=lambda x: (deg[x], x))
        degeneracy = max(degeneracy, deg[v])
        alive &= ~(1 << v)
        vertices_left -= 1
        for w, _ in g.adj[v]:
            if (alive >> w) & 1:
                deg[w] -= 1
                edges_left -= 1
    degenerate_ok = degeneracy <= 2 * k
    verdict = "possible" if (density_ok and degenerate_ok) else "excluded"
    return BkReport(density_ok=density_ok, degenerate_ok=degenerate_ok, verdict=verdict)


# ---------------------------------------------------------------------------
# report assembly


def bound_report(g: Graph, f: int = 1, *, k: Optional[int] = None) -> list[BoundEntry]:
    check_game(g.n, f)
    return lower_bounds(g, f) + upper_bounds(g, f, k=k)


def check_sandwich(g: Graph, f: int, beta: int, orientation: Optional[Orientation] = None) -> list[str]:
    """Violation messages for any applicable bound that contradicts beta.

    Without an orientation, beta is a best-orientation value and meets every
    rule. With one, beta is that orientation's value: it meets the lower
    bounds, which hold for every orientation, and the rules for that
    orientation; the structural upper bounds speak about the best orientation
    only, and the suites assert them separately.
    """
    problems = []
    for entry in lower_bounds(g, f):
        if entry.applicable and entry.value is not None and entry.value > beta:
            problems.append(f"lower bound {entry.name} = {entry.value} exceeds beta = {beta}")
    uppers = upper_bounds(g, f) if orientation is None else _orientation_bounds(g, f, orientation)
    for entry in uppers:
        if entry.applicable and entry.value is not None and entry.value < beta:
            problems.append(f"upper bound {entry.name} = {entry.value} is below beta = {beta}")
    return problems
