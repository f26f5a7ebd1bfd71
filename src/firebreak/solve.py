"""Exact optimal-play solving.

The engine minimises the burned count over all defence schedules for a fixed
digraph by depth-first search over (live, threat) states, where live is the
region still reachable from the fire through unprotected vertices and threat
the part of it the fire reaches next. The pair fixes the rest of the game
whatever has burnt so far, so the memo maps it to the burn still to come and
to the first optimal move, which trace extraction follows. Protections are
only branched inside the live region (protecting elsewhere can never change a
future spread), and all of it is protected once it has at most f vertices.
A branch is dropped once its burnt count, plus its threat minus the f
protections of the next round, reaches the best value found. The threat is
the first layer of the branch's live region, so it is checked against that
bound before the region is searched.

Finding the best orientation enumerates edge directions depth-first in edge
order (bit 0 = lower id to higher id first), in passes with a target t. The
first pass has t = density_floor, the proven lower bound, and each pass that
comes back empty raises t by one. A pass keeps t + 1 as its incumbent from the
root and stops at its first leaf of value at most t, with three sound prunes:

- outdegree: a partial assignment dies once some outdegree forces
  1 + d+ - f > t (the fire's start burns that vertex, and at most f of its
  out-neighbours are protected before they burn), so no vertex takes more
  than t + f - 1 out-arcs;
- twin symmetry (lex-leader): for twins u < v (N(u) - v = N(v) - u) swapping
  u and v is an automorphism sigma, and a partial word dies once it can no
  longer satisfy word <= sigma(word) in the scan's order. Relabelling keeps
  the value, so the orbit of the first optimum in enumeration order holds
  only optima, and that word is the least of its orbit: it satisfies every
  such check;
- sub-digraph bound: a partial assignment dies once the digraph of the arcs
  fixed so far already has a value above t. Adding an arc never lowers the
  value (the larger digraph's optimal defence, played in the smaller one,
  keeps the fire a subset of the larger one's at every step), so every
  completion is at least as bad.

The outdegree and sub-digraph prunes drop only orientations of value above t,
and the twin prune never drops the first optimum. The floor, or the passes
that came back empty, prove that no orientation has a value below t. So a
pass that reaches a leaf of value at most t has found the first orientation of
value exactly t in enumeration order, which is the first optimum, and a pass
that comes back empty proves that the value is at least t + 1. This is
iterative deepening on the value (Korf, "Depth-first iterative-deepening: an
optimal admissible tree search", AI 1985). The leaf's engine is capped at
t + 1, so its values below the cap, every start's among them, are exact: the
per-start values and the witness trace come from it without a second solve.

On the small graphs that sweeps and the oracle check solve by the thousand,
the scan's cost is its per-call overhead, so it runs in one flat frame: a
single pass over the edges sets up the arcs, the check depths and the
parallel-edge test, a recursion hands the leaf it finds straight back up,
and the leaf's arcs become the witness orientation as they are.
"""

from __future__ import annotations

import math
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
    orientations) in mode "best", summed over the scan's passes, and in
    "fixed" and "undirected" the engine states searched, none of them added
    by trace extraction."""

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
    the search skip any play that already burns that many; values below the
    cap are exact. The orientation scan only asks whether a value exceeds its
    target, so it caps at target + 1, and trace extraction works on any
    engine whose traced value lies below its cap.

    out maps each vertex's bit 1 << v to its out-mask. The engine keeps a
    copy of it, outs, and stores there every union out(S) of out-masks it
    computes, keyed by the vertex mask S: a spread or a layer of the region
    search usually comes up again in the same engine. The copy is the
    engine's own, so its out-masks never change once it is built, and out(S)
    is a function of S: a stored union is what the loop would compute again.
    So the states searched, values, moves and traces are those of the loop,
    and the caller is free to change its map once the engine is built, as
    the orientation scan does. The unions go with the engine.
    """

    def __init__(self, out: dict[int, int], n: int, f: int, cap: Optional[int] = None):
        self.outs = out.copy()
        self.n = n
        self.f = f
        self.cap = n if cap is None else cap
        self.full = (1 << n) - 1
        self.memo: dict[tuple[int, int], tuple[int, int]] = {}
        self.nodes = 0

    def start_value(self, start: int) -> int:
        live, threat = self._burn(self.full, 0, 1 << start)
        return self._value(live, threat, 1)

    def _burn(self, live: int, pm: int, spread: int, limit: float = math.inf) -> tuple[int, int]:
        """One transition: protect pm, burn spread, then return the region
        the fire can still reach through unprotected vertices and the part of
        it under threat next. out(spread) and out of each layer of the region
        search are read from outs; on a miss the loop ORs the single-vertex
        entries and stores the union. The loop is written out at both
        lookups: scan engines live for a few transitions and miss often, and
        a helper call per miss made best-dense 2-6% slower.

        The threat is the region's first layer, out(spread) & live & ~pm &
        ~spread, so it is found before the region. When it has at least limit
        vertices the region is not searched and comes back as 0: _value drops
        such a child on its threat alone and would never read the region. A
        threat is never empty when the region is not, so (0, threat) with a
        non-empty threat marks the cut."""
        outs = self.outs
        ou = outs.get(spread)
        if ou is None:
            ou = 0
            part = spread
            while part:
                low = part & -part
                ou |= outs[low]
                part ^= low
            outs[spread] = ou
        allowed = live & ~pm & ~spread
        threat = frontier = ou & allowed
        if threat.bit_count() >= limit:
            return 0, threat
        reached = 0
        while frontier:
            reached |= frontier
            nxt = outs.get(frontier)
            if nxt is None:
                nxt = 0
                part = frontier
                while part:
                    low = part & -part
                    nxt |= outs[low]
                    part ^= low
                outs[frontier] = nxt
            frontier = nxt & allowed & ~reached
        return reached, threat

    def _value(self, live: int, threat: int, count: int) -> int:
        """Burned count under optimal defence of a state where count vertices
        have burnt; a value at or above the cap comes back as some number at
        least the cap, and start_value gets the cap itself.

        The memo maps (live, threat) to the burn still to come and the
        state's move. That is sound because every out-neighbour of a burnt
        vertex is burnt, protected or in threat, so threat is out(burnt) &
        live. The protect sets, the spread and the next (live, threat) are
        all functions of the pair, so the rest of the game does not depend on
        which vertices burnt, and count only adds to it. A result at the cap
        only bounds the burn to come from below, so it is not stored, and the
        state is searched again when it comes up again.

        A child is skipped once it cannot beat the best value so far: its
        count alone reaches it, or so does its count plus its threat minus f,
        since the next round can protect at most f threatened vertices. The
        second bound is decided in _burn as soon as the threat is known:
        newcount + |newthreat| - f >= best is |newthreat| >= best - newcount
        + f, the limit _burn gets, and a child cut there is skipped.

        A protect set that misses the threat spreads all of it, so its child
        burns out(threat), and its next threat is out(threat) & live &
        ~threat less at most the f protected vertices. Its count plus threat
        minus f is then at least tail = count + |threat| + |out(threat) &
        live & ~threat| - 2f. out(threat) is always in outs: the threat was
        the first layer of the region search in the _burn that made the
        state (a _burn cut on its threat makes no state). These
        sets come last in _protect_masks order (their lowest vertex lies past
        every threatened one), and best never rises, so once tail reaches
        best the second bound drops every child left and the loop stops.
        Neither cut drops a child the second bound would search, so the
        states searched, the values and the moves stay as they were.

        The move is the first protect set, in _protect_masks order, whose
        child reaches the state's value (live itself when at most f vertices
        are live): the set at best's last change. Children are tried in that
        order and best moves only on a strict improvement. A child skipped by
        either bound has a value at least the best so far, and so has a
        searched child that did not improve it, so every child before the
        move is above the final value. Count only adds to the value, so one
        move serves every count. A stored value lies below the cap, so the
        move's child was stored too (or has no threat), and extract_trace
        follows the moves to the end of the play.
        """
        if not threat:
            return count
        key = (live, threat)
        entry = self.memo.get(key)
        if entry is not None:
            return count + entry[0]
        self.nodes += 1
        f = self.f
        if live.bit_count() <= f:
            self.memo[key] = (0, live)
            return count
        best = count + live.bit_count()
        if best > self.cap:
            best = self.cap
        move = 0
        tail = None
        for pm in _protect_masks(live, threat, f):
            spread = threat & ~pm
            if not spread:
                best, move = count, pm
                break
            newcount = count + spread.bit_count()
            if newcount >= best:
                continue
            if spread == threat:
                if tail is None:
                    tail = newcount + (self.outs[threat] & live & ~threat).bit_count() - 2 * f
                if tail >= best:
                    break
            newlive, newthreat = self._burn(live, pm, spread, best - newcount + f)
            if newthreat and not newlive:
                continue
            v = self._value(newlive, newthreat, newcount)
            if v < best:
                best, move = v, pm
        if best < self.cap:
            self.memo[key] = (best - count, move)
        return best

    def extract_trace(self, start: int) -> FireTrace:
        """The first optimal play from start in protect-set order, read off
        the moves in the memo; start's value must have been solved below the
        cap."""
        live, threat = self._burn(self.full, 0, 1 << start)
        count = 1
        events = [TraceEvent(1, "burn", (start,))]
        t = 1
        while threat:
            pm = self.memo[live, threat][1]
            events.append(TraceEvent(t, "protect", tuple(bits(pm))))
            spread = threat & ~pm
            if not spread:
                break
            count += popcount(spread)
            live, threat = self._burn(live, pm, spread)
            t += 1
            events.append(TraceEvent(t, "burn", tuple(bits(spread))))
        return FireTrace(start=start, f=self.f, events=events, burned=count)


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
) -> GameValue:
    """Classic firefighting on an undirected graph of at most 24 vertices:
    every edge carries both arcs. The number saved is |V| minus the result."""
    return _solve_fixed(list(g.adj_mask), g.n, f, start, 24, True, "undirected")


def _solve_fixed(out_mask, n, f, start, max_vertices, want_trace, mode) -> GameValue:
    # The public solvers share this body rather than call each other, so a
    # wrapper around either name (benchmarks/tracing.py) counts each engine once.
    if n > max_vertices:
        raise SolverLimitError(f"instance has {n} vertices, cap is {max_vertices}")
    check_game(n, f, start)
    t0 = time.perf_counter()
    eng = Engine(_out_map(out_mask), n, f)
    starts = [start] if start is not None else range(n)
    per_start = {s: eng.start_value(s) for s in starts}
    beta, witness, trace = _optimal_play(eng, per_start, want_trace)
    return GameValue(
        beta=beta, f=f, mode=mode, exact=True,
        witness_start=witness, witness_trace=trace,
        per_start=per_start, nodes_explored=eng.nodes,
        wall_ms=(time.perf_counter() - t0) * 1000,
    )


def _out_map(out_mask: list[int]) -> dict[int, int]:
    """An engine's per-vertex map, {1 << v: out_mask[v]}."""
    return {1 << v: om for v, om in enumerate(out_mask)}


def _optimal_play(eng: Engine, per_start: dict[int, int], want_trace: bool):
    """The worst of the engine's per-start values (each below its cap), the
    first start in per_start's order attaining it, and that start's optimal
    play when want_trace is set."""
    beta = max(per_start.values())
    witness = next(s for s, v in per_start.items() if v == beta)
    trace = eng.extract_trace(witness) if want_trace else None
    return beta, witness, trace


def _capped_values(out, n, f, cap, starts) -> tuple[Optional[int], Engine, dict[int, int]]:
    """Solve the starts in order on one engine capped at cap, until one
    reaches the cap: that start (None when none does), the engine, and the
    values found. Every value below the cap is exact."""
    eng = Engine(out, n, f, cap=cap)
    values = {}
    for s in starts:
        v = values[s] = eng.start_value(s)
        if v >= cap:
            return s, eng, values
    return None, eng, values


# The sub-digraph bound is only checked with at least this many edges still
# open: below that the subtree holds at most 2^3 leaves, mostly cut by the
# outdegree prune anyway. Measured: 3 made K7 (f = 1) about 60% slower, 6 let
# two to six times as many leaves through on grids.
#
# The checks stay eager although on small graphs they seldom prune: on the
# benchmark's 4,000-graph sample of 6-vertex graphs (f = 1) only 7 of 6,079
# checks cut a subtree. Each lazier gate tried kept every value and witness
# but let leaves through on larger graphs: a gate of 6 gives grid 4x4 59
# leaves instead of 19, K4,4 228 instead of 138, K3,6 133 instead of 82 and
# tri 3x4 16 instead of 9; checking only after a pass's first failing leaf
# gives grid 3x5 38 leaves instead of 10 and grid 4x4 35 instead of 19.
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
    vertices get no checks.

    Most graphs have no such class, and that is seen before any table is
    built: a class of k vertices repeats one neighbourhood k - 1 times, so
    the n neighbourhoods of its kind take at most n - k + 1 distinct values.
    When both the open and the closed ones take more than n -
    _MIN_TWIN_CLASS + 1, no class is large enough and there are no checks.
    """
    am = g.adj_mask
    most = g.n - _MIN_TWIN_CLASS + 1
    if len(set(am)) > most and len({nbrs | 1 << u for u, nbrs in enumerate(am)}) > most:
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
    """Proven lower bound on the best value, where the scan's first pass
    starts: max(1, 1 + ceil(m/n) - f).

    The outdegrees of any orientation sum to m, so some vertex has outdegree
    at least ceil(m/n). A fire started there burns it, and at most f of its
    out-neighbours are protected before the fire spreads to the rest.
    """
    return max(1, 1 + -(-g.m // g.n) - f) if g.n else 1


def solve_best_orientation(
    g: Graph,
    f: int = 1,
    budget_ms: Optional[float] = None,
    max_edges: int = 21,
    want_trace: bool = True,
) -> GameValue:
    """Exact minimum of the fixed-orientation value over all 2^m orientations,
    with the first orientation attaining it in enumeration order as witness.

    budget_ms holds over all passes of the scan together. When it runs out
    before a pass finds its leaf, the result is orientation 0, the one with
    every edge from its lower end to its higher end, with its own value as a
    flagged upper bound (exact false); its solve counts as one more leaf. A
    negative (or NaN) budget, or a graph with parallel edges, raises
    GraphError: the prunes count arcs as distinct out-neighbours.
    """
    if g.m > max_edges:
        raise SolverLimitError(f"instance has {g.m} edges, cap is {max_edges}")
    check_game(g.n, f)
    if budget_ms is not None and not budget_ms >= 0:
        raise GraphError(f"budget_ms must be non-negative, got {budget_ms}")
    t0 = time.perf_counter()
    arcs, eng, values, leaves = _scan_orientations(g, f, density_floor(g, f), budget_ms)
    exact = eng is not None
    if exact:
        witness = Orientation._from_valid(g, arcs)
        # the leaf solved every start below its cap: reorder, do not re-solve
        per_start = {s: values[s] for s in range(g.n)}
    else:
        witness = orientation_from_bits(g, 0)
        eng = Engine(_out_map(witness.out_mask), g.n, f)
        leaves += 1
        per_start = {s: eng.start_value(s) for s in range(g.n)}
    beta, start, trace = _optimal_play(eng, per_start, want_trace)
    return GameValue(
        beta=beta, f=f, mode="best", exact=exact,
        witness_start=start, witness_trace=trace,
        witness_orientation=witness, per_start=per_start,
        nodes_explored=leaves, wall_ms=(time.perf_counter() - t0) * 1000,
    )


def _scan_orientations(g: Graph, f: int, floor: int, budget_ms) -> tuple:
    """Depth-first scan of orientation space in passes with targets floor,
    floor + 1, and so on (see the module docstring).

    Returns (arcs, engine, values, leaves): the witness's arcs, one (tail,
    head) per edge, its leaf's capped engine and every start's exact value
    once a pass reaches a leaf of value at most its target, or three Nones
    when the budget ran out first, and the leaves visited over all passes.

    The frame is flat. One pass over the edges, last to first, sets it up:
    each edge's two arcs, the depths just after an edge that is the last of
    one of its ends (the pass meets that end there first), and the
    parallel-edge test, which raises GraphError. The recursion rec(i, word,
    lex) returns the pass's leaf below depth i once it has found it, three
    Nones once the budget has run out, and None when its subtree holds no
    leaf within the target, so a found leaf unwinds the recursion at once.
    The start hint and the leaf count are locals of the scan, kept across
    passes, and path holds the arcs chosen above the current depth.

    The sub-digraph bound is sound at any node: by monotonicity every
    completion of a partial digraph whose value exceeds the target is above
    the target too. What it costs is a fixed-orientation solve per check, so
    it is checked only where it is likely to pay:

    - right after an edge that was the last one of one of its endpoints, so
      that vertex's out-arcs are final, and only with at least
      _MIN_OPEN_EDGES edges still open, so the subtree it can cut is large;
    - from at most two starts, a 1- or 2-tuple: the one that last burnt more
      than the target (at a check or a leaf), then the first one of largest
      outdegree so far. A start that does so in one orientation usually does
      so in its neighbours, and a failed check then costs one or two starts,
      not n. Leaves try every start, from the same one on: a slice of a
      doubled range(n).

    Every solve is capped at target + 1, since the scan only asks whether a
    value exceeds the target. Checking from every start cut the most leaves
    but made K7 (f = 1) slower than no check at all, and checking at every
    depth slower still.

    The outdegree limit is checked on each new arc; it is fixed for the whole
    pass. The twin checks (see _twin_comparisons) are stepped as each bit is
    set, at no cost on graphs without a twin class of _MIN_TWIN_CLASS
    vertices.

    The clock for budget_ms is read on every bound check and every leaf:
    under the bound, leaves become rare.
    """
    n, m = g.n, g.m
    edges = g.edges
    # each edge's two arcs as (its bit in the word, tail, tail's bit, head's
    # bit, (tail, head))
    arcs = [None] * m
    check_at = [False] * (m + 1)
    closed = 0  # the ends of the edges met so far, last edge first
    pairs = 0  # bit lo * n + hi for each edge {lo, hi} met so far
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        lo, hi = (u, v) if u < v else (v, u)
        pair = 1 << (lo * n + hi)
        if pairs & pair:
            raise GraphError("the best-orientation scan needs a graph without parallel edges")
        pairs |= pair
        lo_bit, hi_bit = 1 << lo, 1 << hi
        arcs[i] = ((0, lo, lo_bit, hi_bit, (lo, hi)), (1 << i, hi, hi_bit, lo_bit, (hi, lo)))
        ends = lo_bit | hi_bit
        if ends & ~closed:  # edge i is the last edge of lo or of hi
            closed |= ends
            check_at[i + 1] = i < m - _MIN_OPEN_EDGES

    path = [None] * m  # the arcs chosen above the current depth
    outdeg = [0] * n
    out = {1 << v: 0 for v in range(n)}  # the partial orientation, in the engine's form
    doubled = tuple(range(n)) * 2
    hint = leaves = 0  # hint: the start that last reached the cap, at a check or a leaf
    deadline = None if budget_ms is None else time.perf_counter() + budget_ms / 1000

    def rec(i: int, word: int, lex: list):
        nonlocal hint, leaves
        if i == m:
            if deadline is not None and time.perf_counter() > deadline:
                return None, None, None
            leaves += 1
            blocker, eng, values = _capped_values(out, n, f, cap, doubled[hint:hint + n])
            if blocker is None:
                return tuple(path), eng, values
            hint = blocker
            return None
        if check_at[i]:
            if deadline is not None and time.perf_counter() > deadline:
                return None, None, None
            top = outdeg.index(max(outdeg))
            blocker = _capped_values(out, n, f, cap, (hint,) if top == hint else (hint, top))[0]
            if blocker is not None:
                hint = blocker
                return None
        for bit, tail, tail_bit, head_bit, arc in arcs[i]:
            if outdeg[tail] >= max_outdeg:
                continue
            child = word | bit
            child_lex = _lex_step(lex, child, i) if lex else lex
            if child_lex is None:
                continue
            outdeg[tail] += 1
            out[tail_bit] |= head_bit
            path[i] = arc
            leaf = rec(i + 1, child, child_lex)
            if leaf:
                return leaf
            outdeg[tail] -= 1
            out[tail_bit] ^= head_bit
        return None

    lex = [(comps, 0) for comps in _twin_comparisons(g).values()]
    target = floor
    while True:
        # a value above target fails: every solve's cap, and the outdegree at
        # which a vertex takes no more out-arcs (1 + d+ - f > target beyond it)
        cap, max_outdeg = target + 1, target + f - 1
        leaf = rec(0, 0, lex)
        if leaf:
            return (*leaf, leaves)
        target += 1


# ---------------------------------------------------------------------------
# naive reference (oracle)


def naive_start_value(out_mask: list[int], n: int, f: int, burnt: int, protected: int) -> int:
    """Plain minimax with no memo, no pruning, and protect sets drawn from all
    of V including passing. The oracle the fast engine is checked against.

    Every protect set of size 0..f among the vertices neither burnt nor
    protected is tried at every node, and the game ends only when the fire has
    nothing left to threaten. Only the loop mechanics are tuned: bits are
    iterated inline, and each node passes the out-neighbourhood of its burnt
    set down, so a child ORs in the out-masks of its new spread alone."""
    out = 0
    part = burnt
    while part:
        low = part & -part
        out |= out_mask[low.bit_length() - 1]
        part ^= low
    return _naive_value(out_mask, f, (1 << n) - 1, burnt, protected, out)


def _naive_value(out_mask: list[int], f: int, full: int, burnt: int, protected: int, out: int) -> int:
    """naive_start_value's recursion; out is the union of the burnt vertices'
    out-masks."""
    free = full & ~(burnt | protected)
    threat = out & free
    if not threat:
        return burnt.bit_count()
    singles = []
    while free:
        low = free & -free
        singles.append(low)
        free ^= low
    best = full.bit_length() + 1
    for size in range(f + 1):
        for pm in map(sum, combinations(singles, size)):
            spread = threat & ~pm
            if not spread:
                value = burnt.bit_count()
            else:
                grown = out
                part = spread
                while part:
                    low = part & -part
                    grown |= out_mask[low.bit_length() - 1]
                    part ^= low
                value = _naive_value(out_mask, f, full, burnt | spread, protected | pm, grown)
            if value < best:
                best = value
    return best


def naive_solve_orientation(o: Orientation, f: int = 1, start: Optional[int] = None) -> int:
    """The naive value of a fixed orientation: the worst start's
    naive_start_value, or the given start's. Raises GraphError on a game that
    solve_orientation rejects."""
    check_game(o.n, f, start)
    starts = [start] if start is not None else range(o.n)
    return max(naive_start_value(o.out_mask, o.n, f, 1 << s, 0) for s in starts)


def naive_best_orientation(g: Graph, f: int = 1) -> int:
    """The naive best value: the minimum over all 2^m edge words, in order, of
    the maximum over starts of naive_start_value. Raises GraphError on a game
    that solve_best_orientation rejects.

    A word's out-masks are built from its bits directly (bit i = 0 orients
    edge i from its lower end to its higher end). Its starts are tried from
    the one that last reached the best value so far, and the word is dropped
    once its running maximum reaches that value: its maximum can then only
    be at least the best, so it cannot lower the minimum. This is the
    alpha-beta cut-off at the root's min-max level alone (Knuth and Moore,
    "An analysis of alpha-beta pruning", AI 1975); each start's game below
    it stays an exhaustive minimax. Nothing else ends the scan early: no
    density floor, no bound from the paper and no stop at value 1, so the
    oracle leans on none of what it checks."""
    check_game(g.n, f)
    n = g.n
    full = (1 << n) - 1
    lo_hi = [(min(u, v), max(u, v)) for u, v in g.edges]
    best = n + 1  # above every value, so the first word sets it
    hint = 0
    for word in range(1 << g.m):
        out_mask = [0] * n
        for i, (lo, hi) in enumerate(lo_hi):
            if word >> i & 1:
                out_mask[hi] |= 1 << lo
            else:
                out_mask[lo] |= 1 << hi
        worst, first = 0, hint
        for k in range(n):
            s = (first + k) % n
            value = _naive_value(out_mask, f, full, 1 << s, 0, out_mask[s])
            if value > worst:
                worst, hint = value, s
                if worst >= best:
                    break
        else:
            best = worst
    return best
