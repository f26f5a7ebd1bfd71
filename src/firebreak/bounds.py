"""Closed-form bound evaluation and burn-class checks.

All arithmetic is exact: values are int, or fractions.Fraction where a ratio
arises; floors and ceilings appear exactly where the source formulas place
them. The report emits every rule whether or not it applies to the
instance, with an explicit applicability flag and hypothesis, so a bound can
never be misused silently. Each rule is stated once, in ``_rules``, which
feeds both the report and the screen ``check_sandwich``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import takewhile
from typing import Optional

from .game import check_game
from .graphs import Graph, GraphError, Orientation, popcount, radius
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
            "value": None if self.value is None else _exact_str(self.value),
            "applicable": self.applicable,
            "hypothesis": self.hypothesis,
        }
        if self.note:
            obj["note"] = self.note
        return obj


def _exact_str(value: int | Fraction) -> str:
    """``str(value)``, also past Python's limit on the digits an int may turn
    into (4,300 by default): Decimal formats an int without that limit. The
    degree ladder passes it from maximum degree 1,561 up."""
    parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
    return "/".join(format(Decimal(part), "f") for part in parts)


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


def _wave_value(delta: int, f: int, k: int) -> tuple[int, bool]:
    """The chromatic-refined value at chromatic number k (delta > 2, k >= 1):
    the sum of the waves before the first one that is not positive, and
    whether that cut dropped a wave. Uncut, it is the whole wave total, which
    ``refined_colour_bound``'s closed form equals.

    Non-decreasing in k: one more colour appends one wave, which either adds
    a positive term to the sum or is cut off with everything after it.
    """
    waves = burn_waves(delta, f, k)
    cut = next((i for i, w in enumerate(waves) if w <= 0), len(waves))
    return sum(waves[:cut]), cut < len(waves)


def beta_d_ladder(d: int) -> int:
    """Worst-case burn bound for maximum degree d with one firefighter: 2 at
    d = 3, 5 at d = 4 (the dedicated degree-4 bound), and from there the
    degree recursion L(d) = L(d-1) (d-2) + 2.

    The recursion never falls below d or rises above (d-1)!, so neither
    clamp, max(d, .) or min(., (d-1)!), would change a value: L(4) = 5 <=
    3!, and if L(d-1) <= (d-2)! then L(d) <= (d-1)! - (d-2)! + 2 <= (d-1)!;
    and L(d) >= 5 (d-2) + 2 > d for d >= 5.
    """
    if d < 3:
        raise GraphError("ladder starts at degree 3")
    if d == 3:
        return 2
    value = 5
    for i in range(5, d + 1):
        value = value * (i - 2) + 2
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


def _clique_value(omega: int) -> int:
    """The clique rule's value for a clique on omega vertices; non-decreasing
    in omega."""
    return omega - 3 if omega >= 5 else 2 if omega == 4 else 1


def _pace_value(n: int, parts: int) -> Fraction:
    """One new burn per unit while each unit retires ``parts`` vertices: the
    arboricity-pace and outdegree-pace value."""
    return 1 + Fraction(n - 1, parts)


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
# the rules


def _rules(g: Graph, f: int, k: Optional[int] = None, o: Optional[Orientation] = None,
           beta: Optional[int] = None):
    """Every bound rule, each stated once, in report order: the lower rules,
    the structural upper rules, then the rules of the one orientation ``o``.
    Yields (name, kind, value, applicable, hypothesis, note) tuples, the
    fields of a ``BoundEntry``. ``k`` enables the k-tree rules when ``g`` is a
    k-tree. The caller checks the game.

    Without ``o`` the orientation rules are reported inapplicable. With it the
    structural upper rules are left out: they hold for the best orientation,
    and ``o``'s value meets only the lower rules and ``o``'s own.

    Without ``beta`` every rule is evaluated for the report. With ``beta`` the
    tuples feed the screen, which reads only applicable values: a rule is
    skipped, its value never computed, wherever a cheap certificate shows it
    cannot contradict beta, so a costly structural routine runs only when a
    rule is left open. Where the graph lacks a rule's structure (it is not
    complete, bipartite or complete bipartite, not a k-tree for the given k,
    or above 18 vertices for fvs) or no orientation is given, the rule's
    valueless entry is yielded for the report only: the screen would pay for
    the yield and read nothing. The density and min-degree values exceed
    beta exactly when m > beta n and delta_min > 2 beta; the other
    certificates are these:

    (a) beta <= 1 violates no upper rule, since every upper value is at
        least 1: tree, one-cycle, arboricity-cover and outdegree-cover are 1,
        the complete bands, bipartite-oneway and fvs are at least 1, the
        coarse value is delta^chi with delta > f >= 1, the wave sum starts
        with the wave 1, the pace values are 1 + (n - 1)/parts, ktree-half
        is 1 + ceil(k/2) with k >= 1, degree-ladder is at least 2, and radius
        is n - rad >= 1.
    (b) The chromatic rules apply only when 1 <= f < delta, so the graph has
        an edge and chi >= chi_lo, with chi_lo = 2 when it is bipartite and
        3 otherwise; an estimate above 16 vertices is a proper colouring's
        count, never below chi. delta^k and the wave value are
        non-decreasing in k, so the chromatic number is computed only when a
        rule's value at chi_lo is below beta. Likewise the clique value is
        non-decreasing in omega and omega <= delta + 1, so the clique is
        grown only when the value at delta + 1 exceeds beta.
    (c) Each part of a forest partition holds at most n - 1 edges, so it has
        at least a_lo = ceil(m / (n - 1)) parts: arboricity-cover needs
        f >= a_lo. Where arboricity-pace applies, the part count is at most
        f + 1, so its value is at least 1 + (n - 1)/(f + 1); it also needs an
        edge and a_lo <= f + 1. The forests are peeled only when these facts
        leave a rule open.
    (d) For beta >= 2, max(1, size - f + 2) < beta exactly when the minimum
        feedback vertex set has fewer than beta + f - 2 vertices, so only
        those sizes are searched, in ``min_fvs``'s own order.
    (e) A graph with more edges than vertices is neither a tree nor
        unicyclic, so connectivity is tested only when m <= n, and the screen
        meets neither rule on a graph that is not connected.
    """
    if k is not None and k < 1:
        raise GraphError("k must be at least 1")
    report = beta is None
    n, m = g.n, g.m
    deg = g.degrees()
    delta, delta_min = max(deg), min(deg)

    yield "trivial", "lower", 1, True, "the start vertex always burns", ""
    if report or f == 1 and m > beta * n:
        yield (
            "density", "lower", Fraction(m, n), f == 1,
            "one firefighter; some vertex has outdegree at least m/n in every orientation", "",
        )
    if report or f == 1 and delta_min > 2 * beta:
        yield (
            "min-degree-half", "lower", Fraction(delta_min, 2), f == 1,
            "one firefighter; m >= n*delta_min/2 feeds the density bound", "",
        )
    if report or f == 1 and _clique_value(delta + 1) > beta:  # (b)
        omega = greedy_clique(g)
        yield (
            "clique", "lower", _clique_value(omega), f == 1,
            f"one firefighter; contains a clique on {omega} vertices (subgraph monotonicity)",
            "" if is_complete(g) else "greedy clique, so possibly undersized",
        )
    sides = _complete_bipartite_sides(g)
    if sides is not None:
        p, q = sides
        ratio = Fraction(p * q, p + q)
        biclique = f"complete bipartite K_{{{p},{q}}}"
        yield "biclique-outdegree", "lower", ratio + 1 - f, True, biclique, ""
        yield (
            "biclique-outdegree-plus", "lower", ratio + 2 - f, f <= ratio - 1,
            f"{biclique} with f <= pq/(p+q) - 1", "",
        )
        yield (
            "biclique-min-side", "lower", min(p, q), f == 1 and min(p, q) >= 6,
            f"{biclique} with both sides at least 6, one firefighter", "",
        )
    elif report:
        for rule in ("biclique-outdegree", "biclique-outdegree-plus", "biclique-min-side"):
            yield rule, "lower", None, False, "graph is not complete bipartite", ""

    if not report and beta <= 1:  # (a)
        return
    if o is not None:
        dplus = o.max_out_degree()
        rad = radius(o) if f == 1 else math.inf
        yield (
            "outdegree-cover", "upper", 1, f >= dplus,
            f"f at least the orientation's maximum outdegree {dplus}", "",
        )
        yield (
            "outdegree-pace", "upper", _pace_value(n, dplus) if dplus else None,
            dplus >= 1 and f >= dplus - 1,
            f"f at least {dplus - 1} on an orientation with maximum outdegree {dplus}", "",
        )
        yield (
            "radius", "upper", None if rad == math.inf else n - int(rad), f == 1 and rad != math.inf,
            "one firefighter; protect one vertex per distance layer of this orientation", "",
        )
        return

    # a connected multigraph with n - 1 edges is a tree
    connected = m <= n and g.is_connected()  # (e)
    if report or connected:
        yield "tree", "upper", 1, connected and m == n - 1, "graph is a tree", ""
        yield (
            "one-cycle", "upper", 1, connected,
            "connected with at most one cycle; a 1-outregular orientation exists", "",
        )

    if is_complete(g):
        yield "complete", "upper", complete_upper_bound(n, f), True, f"complete graph on {n} vertices", ""
    elif report:
        yield "complete", "upper", None, False, "graph is not complete", ""

    halves = bipartition(g)
    if halves is not None and m > 0:
        small = _oneway_side(g, halves)[1]
        yield (
            "bipartite-oneway", "upper", max(1, 1 + small - f), True,
            f"bipartite; all arcs leave the side with maximum degree {small}", "",
        )
    elif report:
        yield "bipartite-oneway", "upper", None, False, "graph is not bipartite", ""

    chi_lo = 2 if halves is not None else 3
    if report or f < delta and (
        delta**chi_lo < beta or delta > 2 and _wave_value(delta, f, chi_lo)[0] < beta
    ):  # (b)
        chromatic, chi_exact = _chromatic_number(g, halves is not None)
        chi_note = "" if chi_exact else "greedy colouring estimate"
        yield (
            "chromatic-coarse", "upper", delta**chromatic if delta >= 1 else None, f < delta,
            f"f below maximum degree {delta}; colour classes give an acyclic orientation "
            f"of depth {chromatic}",
            chi_note,
        )
        if delta > 2 and f < delta:
            refined, truncated = _wave_value(delta, f, chromatic)
            trunc_note = "wave sum truncated where the fire is contained" if truncated else ""
            yield (
                "chromatic-refined", "upper", refined, True,
                f"maximum degree {delta} > 2 and f < maximum degree",
                (chi_note + "; " + trunc_note).strip("; "),
            )
        else:
            yield "chromatic-refined", "upper", None, False, "needs maximum degree above 2 and f below it", ""

    a_lo = -(-m // (n - 1)) if n > 1 else 0
    if report or f >= a_lo or m and a_lo <= f + 1 and n - 1 < (beta - 1) * (f + 1):  # (c)
        parts = len(forest_peel(g))
        yield (
            "arboricity-cover", "upper", 1, f >= parts,
            f"f at least the forest partition size {parts}",
            "estimate-based: partition size bounds the arboricity from above",
        )
        yield (
            "arboricity-pace", "upper", _pace_value(n, parts) if parts else None,
            parts > 0 and f >= parts - 1,
            f"f at least {parts - 1}: one new burn per unit while each unit retires {parts} vertices",
            "estimate-based",
        )

    if n <= 18:
        fvs = min_fvs(g, below=None if report else beta + f - 2)  # (d)
        if fvs is not None:
            size = popcount(fvs)
            yield (
                "fvs", "upper", max(1, size - f + 2), True,
                f"removing the {size} set vertices leaves a forest", "",
            )
    elif report:
        yield "fvs", "upper", None, False, "more than 18 vertices: no exact feedback vertex set computed", ""

    # The walls and anticipate rules, 1 + floor(diam/2)(k - f) - f and
    # 1 + k(floor(k/f) - 1), fall below solved values (K4 with k = 3 and f = 1
    # gets 0 against beta 2), so both are withheld until they are re-derived
    # from the paper's treewidth section.
    if k is not None and ktree_structure(g, k) is not None:
        for rule in ("ktree-walls", "ktree-anticipate"):
            yield (
                rule, "upper", None, False,
                "withheld until re-derived: falls below solved best values on k-trees", "",
            )
        yield "ktree-half", "upper", 1 + -(-k // 2), f >= k // 2, f"{k}-tree with f >= floor(k/2)", ""
    elif report:
        why = "not recognised as a k-tree (supply k)" if k is None else f"not a {k}-tree"
        for rule in ("ktree-walls", "ktree-anticipate", "ktree-half"):
            yield rule, "upper", None, False, why, ""

    if f == 1 and delta >= 3:
        yield (
            "degree-ladder", "upper", beta_d_ladder(delta), True,
            f"one firefighter, maximum degree {delta}", "",
        )
    elif f == 1 and delta >= 1:
        yield "degree-ladder", "upper", None, False, "maximum degree below 3: covered by one-cycle", ""
    else:
        yield "degree-ladder", "upper", None, False, "one-firefighter bound", ""

    if report:
        for rule in ("outdegree-cover", "outdegree-pace", "radius"):
            yield rule, "upper", None, False, "no orientation supplied", ""


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


# ---------------------------------------------------------------------------
# report assembly


def bound_report(g: Graph, f: int = 1, *, k: Optional[int] = None) -> list[BoundEntry]:
    """Every rule's entry, in report order; raises GraphError on a game that
    is not defined and on k < 1."""
    check_game(g.n, f)
    return [BoundEntry(*rule) for rule in _rules(g, f, k)]


def lower_bounds(g: Graph, f: int = 1) -> list[BoundEntry]:
    """The report's lower entries. They come first, so no upper rule past the
    first is evaluated."""
    check_game(g.n, f)
    return [BoundEntry(*rule) for rule in takewhile(lambda rule: rule[1] == "lower", _rules(g, f))]


def upper_bounds(g: Graph, f: int = 1, *, k: Optional[int] = None) -> list[BoundEntry]:
    """The report's upper entries; the orientation rules close the list,
    inapplicable."""
    check_game(g.n, f)
    return [BoundEntry(*rule) for rule in _rules(g, f, k) if rule[1] == "upper"]


def check_sandwich(g: Graph, f: int, beta: int, orientation: Optional[Orientation] = None) -> list[str]:
    """Violation messages, in report order, for any applicable rule that
    contradicts beta. Beta is a best-orientation value, or the value of
    ``orientation``, which meets only the lower rules and its own; the suites
    assert the structural upper rules separately. ``_rules`` states the rules
    and the certificates that spare those beta cannot contradict.

    Raises GraphError on a game that is not defined (no vertices, f < 1) and
    on an orientation of another graph.
    """
    check_game(g.n, f)
    if orientation is not None and orientation.graph is not g and orientation.graph != g:
        raise GraphError("the orientation is of another graph")
    problems: list[str] = []
    for name, kind, value, applicable, _, _ in _rules(g, f, o=orientation, beta=beta):
        if not applicable:
            continue
        if kind == "lower" and value > beta:
            problems.append(f"lower bound {name} = {value} exceeds beta = {beta}")
        elif kind == "upper" and value < beta:
            problems.append(f"upper bound {name} = {value} is below beta = {beta}")
    return problems
