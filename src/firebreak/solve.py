"""Exact optimal-play solving.

The engine minimises the burned count over all defence schedules for a fixed
digraph by depth-first search over (live, threat) states, where live is the
region still reachable from the fire through unprotected vertices and threat
the part of it the fire reaches next. The pair fixes the rest of the game
whatever has burnt so far, so the memo maps it to the burn still to come.
Protections are only branched inside the live region (protecting elsewhere
can never change a future spread), plus passing when nothing useful remains.
A branch is dropped once its burnt count, plus its threat minus the f
protections of the next round, reaches the best value found.

Finding the best orientation enumerates edge directions depth-first in edge
order (bit 0 = lower id to higher id first) with four sound prunes:

- outdegree: a partial assignment dies once some outdegree forces
  1 + d+ - f >= incumbent (the fire's start burns that vertex, and at most f
  of its out-neighbours are protected before they burn). This is checked at
  internal nodes too: after the incumbent drops, arcs fixed under the old
  limit can already break the new one;
- twin symmetry (lex-leader): for twins u < v (N(u) - v = N(v) - u) swapping
  u and v is an automorphism sigma, and a partial word dies once it can no
  longer satisfy word <= sigma(word) in the scan's order. Relabelling keeps
  the value, so sigma maps optima to optima; the first optimum in enumeration
  order is the least word of its orbit, satisfies every such check, and is
  found as before;
- sub-digraph bound: a partial assignment dies once the digraph of the arcs
  fixed so far already has a value of at least the incumbent. Adding an arc
  never lowers the value (the larger digraph's optimal defence, played in the
  smaller one, keeps the fire a subset of the larger one's at every step), so
  every completion is at least as bad;
- density floor: the scan stops when the incumbent reaches the proven floor.

Only a strict improvement replaces the incumbent. The outdegree, sub-digraph
and floor prunes drop only orientations that cannot improve on it, and the
twin prune never drops the first optimum, so every leaf before that optimum
is worse than it and the scan still returns it as the witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .game import FireTrace, TraceEvent, check_game
from .graphs import Graph, GraphError, Orientation, bits, orientation_from_bits, popcount


class SolverLimitError(GraphError):
    """Instance exceeds the configured size cap."""


@dataclass
class GameValue:
    """Exact result of optimal play. nodes_explored counts leaves (complete
    orientations) in mode "best", engine states in "fixed" and "undirected"."""

    beta: int
    f: int
    mode: str  # "fixed", "best", or "undirected"
    exact: bool
    witness_start: Optional[int]
    witness_trace: Optional[FireTrace]
    witness_orientation: Optional[Orientation] = None
    per_start: Optional[dict[int, int]] = None
    nodes_explored: int = 0
    wall_ms: float = 0.0

    def to_json_obj(self) -> dict:
        obj = {
            "f": self.f,
            "mode": self.mode,
            "beta": self.beta,
            "exact": self.exact,
            "witness_start": self.witness_start,
            "nodes_explored": self.nodes_explored,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.witness_orientation is not None:
            obj["orientation"] = [list(a) for a in self.witness_orientation.arcs]
        if self.witness_trace is not None:
            obj["trace"] = self.witness_trace.to_json_obj()
        if self.per_start is not None:
            obj["per_start"] = {str(k): v for k, v in self.per_start.items()}
        return obj


def _protect_masks(live: int, threat: int, f: int):
    """Every protect set the engine tries, as masks of f live vertices: the
    threatened ones first, then the rest, each by ascending id, and for f >= 2
    their combinations in that order. A saving move is met early, and the
    witness is the first optimal set in this order."""
    order = []
    for part in (threat, live & ~threat):
        while part:
            low = part & -part
            order.append(low)
            part ^= low
    return order if f == 1 else map(sum, combinations(order, f))


class Engine:
    """Memoised optimal-defence search over a fixed digraph.

    With a cap, every value at or above it is reported as the cap, which lets
    the search skip any play that already burns that many. The orientation
    scan only asks whether a value reaches its incumbent, so it uses a capped
    engine; trace extraction needs an uncapped one.
    """

    def __init__(self, out_mask: list[int], n: int, f: int, cap: Optional[int] = None):
        self.out_mask = out_mask
        self.n = n
        self.f = f
        self.cap = n if cap is None else cap
        self.full = (1 << n) - 1
        self.memo: dict[tuple[int, int], int] = {}
        self.nodes = 0

    def start_value(self, start: int) -> int:
        live, threat = self._burn(self.full, 0, 1 << start)
        return self._value(live, threat, 1)

    def _burn(self, live: int, pm: int, spread: int) -> tuple[int, int]:
        """One transition: protect pm, burn spread, then return the region
        the fire can still reach through unprotected vertices and the part of
        it under threat next."""
        om = self.out_mask
        ou = 0
        part = spread
        while part:
            low = part & -part
            ou |= om[low.bit_length() - 1]
            part ^= low
        allowed = live & ~pm & ~spread
        reached = 0
        frontier = ou & allowed
        while frontier:
            reached |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= om[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & allowed & ~reached
        return reached, ou & reached

    def _value(self, live: int, threat: int, count: int) -> int:
        """Burned count under optimal defence of a state where count vertices
        have burnt; a value at or above the cap comes back as some number at
        least the cap, and start_value gets the cap itself.

        The memo maps (live, threat) to the burn still to come. That is sound
        because every out-neighbour of a burnt vertex is burnt, protected or
        in threat, so threat is out(burnt) & live. The protect sets, the
        spread and the next (live, threat) are all functions of the pair, so
        the rest of the game does not depend on which vertices burnt, and
        count only adds to it. A result at the cap only bounds the burn to
        come from below; such an entry is stored complemented (~rest), gives
        the cap to any later count that reaches the cap with it, and is
        searched again otherwise.

        A child is skipped once it cannot beat the best value so far: its
        count alone reaches it, or so does its count plus its threat minus f,
        since the next round can protect at most f threatened vertices.
        """
        if not threat:
            return count
        key = (live, threat)
        rest = self.memo.get(key)
        if rest is not None:
            if rest >= 0:
                return count + rest
            if count + ~rest >= self.cap:
                return self.cap
        self.nodes += 1
        f = self.f
        if live.bit_count() <= f:
            self.memo[key] = 0
            return count
        best = count + live.bit_count()
        if best > self.cap:
            best = self.cap
        for pm in _protect_masks(live, threat, f):
            spread = threat & ~pm
            if not spread:
                best = count
                break
            newcount = count + spread.bit_count()
            if newcount >= best:
                continue
            newlive, newthreat = self._burn(live, pm, spread)
            if newcount + newthreat.bit_count() - f >= best:
                continue
            v = self._value(newlive, newthreat, newcount)
            if v < best:
                best = v
                if best == count:
                    break
        self.memo[key] = ~(best - count) if best >= self.cap else best - count
        return best

    def extract_trace(self, start: int) -> FireTrace:
        """Walk one optimal play out of the solved memo table."""
        live, threat = self._burn(self.full, 0, 1 << start)
        count = 1
        events = [TraceEvent(1, "burn", (start,))]
        t = 1
        while threat:
            pm = self._optimal_choice(live, threat, count)
            if pm:
                events.append(TraceEvent(t, "protect", tuple(bits(pm))))
            spread = threat & ~pm
            if not spread:
                break
            count += popcount(spread)
            live, threat = self._burn(live, pm, spread)
            t += 1
            events.append(TraceEvent(t, "burn", tuple(bits(spread))))
        return FireTrace(start=start, f=self.f, events=events, burned=count)

    def _optimal_choice(self, live: int, threat: int, count: int) -> int:
        """The first protect set, in _value's order, that keeps the memoised
        value of the state."""
        if popcount(live) <= self.f:
            return live
        target = self._value(live, threat, count)
        for pm in _protect_masks(live, threat, self.f):
            spread = threat & ~pm
            if not spread:
                if target == count:
                    return pm
                continue
            newcount = count + popcount(spread)
            if newcount > target:
                continue
            newlive, newthreat = self._burn(live, pm, spread)
            if self._value(newlive, newthreat, newcount) == target:
                return pm
        raise AssertionError("memoised value has no matching play")


def solve_orientation(
    o: Orientation,
    f: int = 1,
    start: Optional[int] = None,
    max_vertices: int = 24,
    want_trace: bool = True,
) -> GameValue:
    """Optimal burned count for a fixed orientation: the exact minimum over
    all defence schedules, maximised over fire starts unless one is given."""
    return _solve_fixed(o.out_mask, o.n, f, start, max_vertices, want_trace, "fixed")


def solve_undirected(
    g: Graph,
    f: int = 1,
    start: Optional[int] = None,
    max_vertices: int = 24,
) -> GameValue:
    """Classic firefighting on an undirected graph: every edge carries both
    arcs. The number saved is |V| minus the result."""
    return _solve_fixed(list(g.adj_mask), g.n, f, start, max_vertices, True, "undirected")


def _solve_fixed(out_mask, n, f, start, max_vertices, want_trace, mode) -> GameValue:
    # The public solvers share this body rather than call each other, so a
    # wrapper around either name (benchmarks/tracing.py) counts each engine once.
    if n > max_vertices:
        raise SolverLimitError(f"instance has {n} vertices, cap is {max_vertices}")
    check_game(n, f, start)
    t0 = time.perf_counter()
    eng = Engine(out_mask, n, f)
    starts = [start] if start is not None else list(range(n))
    per_start = {s: eng.start_value(s) for s in starts}
    beta = max(per_start.values())
    witness = next(s for s in starts if per_start[s] == beta)
    trace = eng.extract_trace(witness) if want_trace else None
    return GameValue(
        beta=beta, f=f, mode=mode, exact=True,
        witness_start=witness, witness_trace=trace,
        per_start=per_start, nodes_explored=eng.nodes,
        wall_ms=(time.perf_counter() - t0) * 1000,
    )


def _beta_with_cutoff(out_mask, n, f, cutoff, starts) -> tuple[int, Optional[int]]:
    """Worst value over the given starts and the start attaining it, giving up
    once the value reaches cutoff; the value is exact when below cutoff."""
    eng = Engine(out_mask, n, f, cap=cutoff)
    worst, worst_start = 0, None
    for s in starts:
        v = eng.start_value(s)
        if v > worst:
            worst, worst_start = v, s
            if cutoff is not None and worst >= cutoff:
                break
    return worst, worst_start


@dataclass
class _BestState:
    # An arc may leave a vertex only while its outdegree is below this: n
    # with no incumbent (never binding on simple graphs), then incumbent + f - 2,
    # the outdegree prune, so it is recomputed only when the incumbent changes.
    max_outdeg: int
    incumbent: Optional[int] = None
    witness_word: Optional[int] = None
    leaves: int = 0
    hint: int = 0  # the start that last reached the incumbent
    stopped: bool = False
    budget_hit: bool = False


# The sub-digraph bound is only checked with at least this many edges still
# open: below that the subtree holds at most 2^3 leaves, mostly cut by the
# outdegree prune anyway. Measured: 3 made K7 (f = 1) about 60% slower, 6 let
# two to six times as many leaves through on grids.
_MIN_OPEN_EDGES = 4


# Twin classes smaller than this give no lex-leader checks. A class of two
# gives a group of order 2, which can at most halve the leaves. Measured on the
# benchmark's 4,000-graph sample of 6-vertex graphs (f = 1): with 2 the checks
# cut the leaves only 10,996 -> 10,837, and the solves took about 10% longer
# (0.49 against 0.45 s median, slower in 7 of 8 interleaved runs).
_MIN_TWIN_CLASS = 3


def _twin_comparisons(g: Graph) -> dict[tuple[int, int], tuple[tuple[int, int, int], ...]]:
    """Lex-leader checks of the twin swaps of a simple graph.

    Vertices with one open neighbourhood (false twins) or one closed
    neighbourhood (true twins) form a class, and swapping two of them is an
    automorphism. Each pair (a, b) of consecutive vertices of a class of at
    least _MIN_TWIN_CLASS maps to the comparisons (i, j, flip) of its swap
    sigma, in scan order: word <= sigma(word) holds iff, at the first of them
    with bit i of word != bit j of word ^ flip, bit i is 0. Edge i = {x, y}
    goes to edge j = {sigma(x), sigma(y)}, its bit flipped when sigma reverses
    the order of its ends, so bit j of sigma(word) is bit i of word ^ flip.
    Only edges at a or b move: {a, w} and {b, w} trade places, flipped iff
    a < w < b, and the edge between two true twins is its own image, flipped:
    i = j, flip = 1. A swap is an involution, so a pair (i, j) compares equal
    at j once it did at i and gives one comparison. Swaps of isolated
    vertices, and graphs with parallel edges, get no checks.
    """
    am = g.adj_mask
    if sum(map(int.bit_count, am)) != 2 * g.m:  # parallel edges
        return {}
    classes: dict[int, list[int]] = {}
    for u, nbrs in enumerate(am):
        # an open neighbourhood never contains its vertex, a closed one always
        # does, so one table holds both kinds without a clash
        classes.setdefault(nbrs, []).append(u)
        classes.setdefault(nbrs | 1 << u, []).append(u)
    big = [cls for cls in classes.values() if len(cls) >= _MIN_TWIN_CLASS]
    if not big:
        return {}
    index = {(min(u, v), max(u, v)): i for i, (u, v) in enumerate(g.edges)}
    checks = {}
    for cls in big:
        for a, b in zip(cls, cls[1:]):
            comps = []
            for w, i in g.adj[a]:
                if w == b:
                    comps.append((i, i, 1))
                else:
                    j = index[min(b, w), max(b, w)]
                    comps.append((min(i, j), max(i, j), int(a < w < b)))
            if comps:
                checks[a, b] = tuple(sorted(comps))
    return checks


def _lex_step(lex: list, word: int, last: int) -> Optional[list]:
    """The twin checks still open once bits 0..last of word are set, or None
    when one fails. lex holds (comparisons, index of the first one not yet
    decided) per open check; a check is dropped once word <= sigma(word) is
    certain."""
    out = []
    for comps, k in lex:
        for i, j, flip in comps[k:]:
            if j > last:
                out.append((comps, k))
                break
            bit = word >> i & 1
            if bit != (word >> j & 1) ^ flip:
                if bit:
                    return None
                break
            k += 1
    return out


def density_floor(g: Graph, f: int) -> int:
    """Proven lower bound used for early stopping: ceil(m/n) when f = 1."""
    if f == 1 and g.n > 0:
        return max(1, -(-g.m // g.n))
    return 1


def solve_best_orientation(
    g: Graph,
    f: int = 1,
    budget_ms: Optional[float] = None,
    budget_leaves: Optional[int] = None,
    max_edges: int = 21,
    want_trace: bool = True,
) -> GameValue:
    """Exact minimum of the fixed-orientation value over all 2^m orientations.

    An exhausted time or leaf budget turns the result into a flagged upper
    bound instead of an exact value. budget_leaves counts visited leaves
    (complete orientations), not the internal nodes the bounds cut. A
    negative (or NaN) budget raises GraphError.
    """
    if g.m > max_edges:
        raise SolverLimitError(f"instance has {g.m} edges, cap is {max_edges}")
    check_game(g.n, f)
    for name, budget in (("budget_ms", budget_ms), ("budget_leaves", budget_leaves)):
        if budget is not None and not budget >= 0:
            raise GraphError(f"{name} must be non-negative, got {budget}")
    t0 = time.perf_counter()
    floor = density_floor(g, f)
    beta, word, exact, leaves = _scan_orientations(g, f, floor, budget_ms, budget_leaves)
    witness = orientation_from_bits(g, word)
    fixed = solve_orientation(witness, f=f, want_trace=want_trace)
    return GameValue(
        beta=beta, f=f, mode="best", exact=exact,
        witness_start=fixed.witness_start, witness_trace=fixed.witness_trace,
        witness_orientation=witness, per_start=fixed.per_start,
        nodes_explored=leaves, wall_ms=(time.perf_counter() - t0) * 1000,
    )


def _scan_orientations(g: Graph, f: int, floor: int, budget_ms, budget_leaves):
    """Depth-first scan of orientation space.

    Returns (value, witness word, exact, leaves visited). The witness is the
    first optimum in enumeration order.

    The sub-digraph bound is sound at any node: by monotonicity every
    completion of a partial digraph whose value reaches the incumbent is no
    strict improvement. What it costs is a fixed-orientation solve per check,
    so it is checked only where it is likely to pay:

    - right after an edge that was the last one of one of its endpoints, so
      that vertex's out-arcs are final, and only with at least
      _MIN_OPEN_EDGES edges still open, so the subtree it can cut is large;
    - from at most two starts: the one that last reached the incumbent (at a
      check or a leaf), then the one of largest outdegree so far. A start
      that burns the incumbent in one orientation usually does so in its
      neighbours, and a failed check then costs one or two starts, not n.
      Leaves try every start, from the same one on.

    Every solve is capped at the incumbent, since the scan only asks whether
    a value reaches it. Checking from every start cut the most leaves but
    made K7 (f = 1) slower than no check at all, and checking at every depth
    slower still.

    The outdegree limit is checked on each new arc, and over all arcs only
    when a node moves to its second child after the incumbent dropped below
    its value at that node: every arc fixed since then obeyed the new limit,
    so no leaf is ever reached that breaks it. The twin checks (see
    _twin_comparisons) are stepped as each bit is set, at no cost on graphs
    without a twin class of _MIN_TWIN_CLASS vertices.

    The clock for budget_ms is read on every bound check as well as every 64
    leaves, because under the bound leaves become rare; budget_leaves counts
    leaves only.
    """
    n, m = g.n, g.m
    lo_hi = [(min(u, v), max(u, v)) for u, v in g.edges]
    outdeg = [0] * n
    out_mask = [0] * n
    state = _BestState(max_outdeg=n)
    start_clock = time.perf_counter()

    last_edge = {}
    for i, (u, v) in enumerate(lo_hi):
        last_edge[u] = last_edge[v] = i
    closing = {i + 1 for i in last_edge.values()}  # depths just after a vertex's last edge
    check_at = [i <= m - _MIN_OPEN_EDGES and i in closing for i in range(m + 1)]

    def over_budget() -> bool:
        return budget_ms is not None and (time.perf_counter() - start_clock) * 1000 > budget_ms

    def visit(word: int) -> None:
        state.leaves += 1
        starts = [(state.hint + k) % n for k in range(n)]
        value, start = _beta_with_cutoff(out_mask, n, f, state.incumbent, starts)
        if state.incumbent is not None and value >= state.incumbent:
            state.hint = start
        else:
            state.incumbent = value
            state.max_outdeg = value + f - 2
            state.witness_word = word
            if state.incumbent <= floor:
                state.stopped = True

    def rec(i: int, word: int, lex: list) -> None:
        if state.stopped:
            return
        if state.incumbent is not None:
            if (budget_leaves is not None and state.leaves >= budget_leaves) or (
                (check_at[i] or state.leaves % 64 == 63) and over_budget()
            ):
                state.stopped = True
                state.budget_hit = True
                return
            if check_at[i]:
                top = max(range(n), key=outdeg.__getitem__)
                starts = [state.hint] if top == state.hint else [state.hint, top]
                value, start = _beta_with_cutoff(out_mask, n, f, state.incumbent, starts)
                if value >= state.incumbent:
                    state.hint = start
                    return
        if i == m:
            visit(word)
            return
        u, v = lo_hi[i]
        incumbent = state.incumbent
        for bit, tail, head in ((0, u, v), (1, v, u)):
            if state.incumbent != incumbent and max(outdeg) > state.max_outdeg:
                return
            if outdeg[tail] >= state.max_outdeg:
                continue
            child = word | (bit << i)
            child_lex = _lex_step(lex, child, i) if lex else lex
            if child_lex is None:
                continue
            outdeg[tail] += 1
            out_mask[tail] |= 1 << head
            rec(i + 1, child, child_lex)
            outdeg[tail] -= 1
            out_mask[tail] &= ~(1 << head)

    rec(0, 0, [(comps, 0) for comps in _twin_comparisons(g).values()])
    exact = not state.budget_hit
    return state.incumbent, state.witness_word, exact, state.leaves


# ---------------------------------------------------------------------------
# naive reference (oracle)


def naive_start_value(out_mask: list[int], n: int, f: int, burnt: int, protected: int) -> int:
    """Plain minimax with no memo, no pruning, and protect sets drawn from all
    of V including passing. The oracle the fast engine is checked against."""
    full = (1 << n) - 1
    threat = 0
    for v in bits(burnt):
        threat |= out_mask[v]
    threat &= ~(burnt | protected) & full
    if not threat:
        return popcount(burnt)
    free = ~(burnt | protected) & full
    best = None
    options = [()]
    for size in range(1, f + 1):
        options.extend(combinations(bits(free), size))
    for chosen in options:
        pm = 0
        for p in chosen:
            pm |= 1 << p
        spread = threat & ~pm
        if spread:
            value = naive_start_value(out_mask, n, f, burnt | spread, protected | pm)
        else:
            value = popcount(burnt)
        if best is None or value < best:
            best = value
    return best


def naive_solve_orientation(o: Orientation, f: int = 1, start: Optional[int] = None) -> int:
    starts = [start] if start is not None else range(o.n)
    return max(naive_start_value(o.out_mask, o.n, f, 1 << s, 0) for s in starts)


def naive_best_orientation(g: Graph, f: int = 1) -> int:
    best = None
    for word in range(1 << g.m):
        o = orientation_from_bits(g, word)
        value = naive_solve_orientation(o, f)
        if best is None or value < best:
            best = value
    return best
