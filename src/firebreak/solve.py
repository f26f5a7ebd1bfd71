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
bound before the region is searched. A branch that passes is bounded two
rounds ahead once the search has found the region's second layer L2: the
next round protects k <= f threatened vertices, the rest of the threat
burns, and the round after burns all but f of the next threat, which keeps
every vertex of L2 but the f - k protected ones and those whose
in-neighbours in the threat were all protected. A branch whose count plus
that bound reaches the best value cannot beat it, so it is dropped; its
value is at least the best found, so it is never the stored move, and
values, moves and traces stay those of the search without the bound.
Every child is searched under a limit, the best value its parent has found
so far, and a search that cannot get below its limit returns the limit and
stores nothing: the fail-hard bound of alpha-beta search (Knuth and Moore,
"An analysis of alpha-beta pruning", AI 1975), with one side. A solve's cap
is the root's limit. Protect sets come in blocks: a threatened part P and
f - |P| vertices outside the threat. Every set of a block spreads the same
vertices, so one bound on the block's children, from their count and the
least size of their threat, covers the block, and it is skipped, or cut
short, when that bound reaches the best value found.

Finding the best orientation enumerates edge directions depth-first in edge
order (bit 0 = lower id to higher id first), in passes with a target t. The
first pass has t = density_floor, the proven lower bound, and each pass that
comes back empty raises t by one. A pass keeps t + 1 as its incumbent from the
root and stops at its first leaf of value at most t, with four sound prunes:

- outdegree: a partial assignment dies once some outdegree forces
  1 + d+ - f > t (the fire's start burns that vertex, and at most f of its
  out-neighbours are protected before they burn), so no vertex takes more
  than t + f - 1 out-arcs;
- outdegree feasibility, the same limit looked ahead: vertex v can still
  take at most min(t + f - 1 - d+(v), r_v) out-arcs, r_v its open edges, and
  each open edge adds exactly one out-arc. A partial assignment dies once
  the slack, the sum of these minima less the open edges, is negative:
  every completion then puts more than t + f - 1 out-arcs on some vertex,
  so the outdegree prune would drop all of its leaves. This is the
  single-set form of Hakimi's condition for orienting a graph under
  outdegree bounds (Hakimi, "On the degrees of the vertices of a directed
  graph", J. Franklin Inst. 1965);
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

The outdegree, feasibility and sub-digraph prunes drop only orientations of
value above t, and the twin prune never drops the first optimum. The floor, or
the passes that came back empty, prove that no orientation has a value below
t. So a pass that reaches a leaf of value at most t has found the first
orientation of value exactly t in enumeration order, which is the first
optimum, and a pass that comes back empty proves that the value is at
least t + 1. This is iterative deepening on the value (Korf, "Depth-first
iterative-deepening: an optimal admissible tree search", AI 1985). The leaf's
engine is capped at t + 1, so its values below the cap, every start's among
them, are exact: the per-start values and the witness trace come from it
without a second solve.

On the small graphs that sweeps and the oracle check solve by the thousand,
the scan's cost is its per-call overhead, so it runs in one flat frame: a
single pass over the edges sets up the arcs, the check depths and the
parallel-edge test, and a recursion hands the leaf it finds straight back
up with its edge word, from which orientation_from_bits builds the witness.
A budget that runs out ends the scan with an exception that carries the
leaves visited, and orientation 0 stands in for the witness.

Every start of every solve, at a bound check, a leaf, a fixed orientation
or the stand-in for a spent budget, is solved by _capped_values, and every
result is built by _game_value.
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


# The default size caps: the vertices of a fixed-orientation solve and the
# edges of a best-orientation scan. The CLI's --max-vertices and --max-edges
# default to them.
_MAX_VERTICES = 24
_MAX_EDGES = 21


class _BudgetSpent(Exception):
    """Raised out of the orientation scan when budget_ms runs out before a
    pass finds its leaf. Its one argument is the leaves visited over all
    passes."""


@dataclass
class GameValue:
    """Exact result of optimal play. nodes_explored counts leaves (complete
    orientations) in mode "best", summed over the scan's passes, and in
    "fixed" and "undirected" the searches of engine states: a state whose
    search failed its limit is searched, and counted, again when it comes up
    again. Trace extraction adds none."""

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


def _low_bits(mask: int) -> list[int]:
    """The single-bit masks of mask, by ascending id."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _blocks(threatened: list[int], k: int, part: int = 0):
    """The blocks of protect sets of a state, in protect-set order, as pairs
    (P, j): the block is every set made of the threatened vertices P and j
    live vertices outside the threat. threatened holds the single-bit masks
    of the threat by ascending id; at the top, part is 0 and k is f.

    A set lists its threatened vertices first, so the sets with the same
    threatened part P are consecutive in protect-set order, and the blocks
    that extend P by a later threatened vertex come before P's own block,
    whose sets go on with vertices outside the threat. k is at least 2: the
    recursion ends at k = 2, written out, so an f = 2 state makes one
    generator, not one per threatened vertex: a recursion that ended at
    k = 1 ran the f = 2 jobs of the fixed-orientation benchmark 6-9% slower
    in-process (Python 3.11, 2 cores). f = 1 walks its blocks without
    _blocks."""
    if k == 2:
        for i, t in enumerate(threatened):
            pt = part | t
            for u in threatened[i + 1:]:
                yield pt | u, 0
            yield pt, 1
        yield part, 2
        return
    for i, t in enumerate(threatened):
        yield from _blocks(threatened[i + 1:], k - 1, part | t)
    yield part, k


def _union(outs: dict[int, int], mask: int) -> int:
    """out(mask), the OR of the out-masks of mask's vertices, stored in outs
    under mask."""
    ou = 0
    part = mask
    while part:
        low = part & -part
        ou |= outs[low]
        part ^= low
    outs[mask] = ou
    return ou


def _two_round_bound(outs: dict[int, int], threat: int, second: int, f: int) -> int:
    """A lower bound on the burn still to come in a state with a non-empty
    threat T and second layer L2 = out(T) & live & ~T, out read from outs.

    The next round protects some k <= min(f, |T|) threatened vertices and at
    most f - k others, and the other |T| - k threatened vertices burn. An L2
    vertex stays out of the threat after that only if it is protected or all
    its in-neighbours in T are. With P the k protected threatened vertices,
    those are at most lost_k vertices: the k largest private counts |out(t)
    & L2 - out(T - t)| summed, plus the L2 vertices with 2..k in-neighbours
    in T (a vertex whose in-neighbours in T all lie in P has at most k of
    them, and one with a single one is private to it). So the next threat
    holds at least |L2| - (f - k) - lost_k vertices, and the round after
    that burns all of them but f: the burn to come is at least
    (|T| - k) + max(0, |L2| - (f - k) - lost_k - f), which is max(|T| - k,
    |T| + |L2| - 2f - lost_k). Neither rises as k grows, since lost_k never
    falls, so the least over k is at k = min(f, |T|), the bound returned.
    For f = 1, lost_1 is the largest private count, found without the
    counters: the engine bounds children at f = 1 by the hundred per solve.
    """
    hits = []  # out(t) & L2 for each t in T
    if f == 1:
        once = twice = 0  # the L2 vertices with at least one, two in-neighbours in T so far
        part = threat
        while part:
            low = part & -part
            o = outs[low] & second
            hits.append(o)
            twice |= once & o
            once |= o
            part ^= low
        lost = 0
        for o in hits:
            private = (o & ~twice).bit_count()
            if private > lost:
                lost = private
        rest = second.bit_count() - lost - 1  # the next threat's least size, less f
        return len(hits) - 1 + (rest if rest > 0 else 0)
    more = [0] * (f + 1)  # more[j]: the L2 vertices with more than j in-neighbours in T so far
    part = threat
    while part:
        low = part & -part
        carry = o = outs[low] & second
        hits.append(o)
        j = 0
        while carry and j <= f:
            more[j], carry = more[j] | carry, more[j] & carry
            j += 1
        part ^= low
    shared = more[1]
    private = sorted([(o & ~shared).bit_count() for o in hits], reverse=True)
    k = min(f, len(hits))
    lost = sum(private[:k]) + (shared & ~more[k]).bit_count()
    return len(hits) - k + max(0, second.bit_count() - (f - k) - lost - f)


class Engine:
    """Memoised optimal-defence search over a fixed digraph.

    The cap is the root's limit (see _value): a start's value at or above it
    comes back as the cap, which lets the search skip any play that already
    burns that many, and values below it are exact. Without a cap it is n,
    which no value exceeds. The orientation scan only asks whether a value
    exceeds its target, so it caps at target + 1, and trace extraction works
    on any engine whose traced value lies below its cap.

    out maps each vertex's bit 1 << v to its out-mask. The engine keeps a
    copy of it, outs, and stores there every union out(S) of out-masks it
    computes, keyed by the vertex mask S: a spread or a layer of the region
    search usually comes up again in the same engine. The copy is the
    engine's own, so its out-masks never change once it is built, and out(S)
    is a function of S: a stored union is what the loop would compute again.
    So the states searched, values, moves and traces are those of the loop,
    and the caller is free to change its map once the engine is built, as
    the orientation scan does. The unions go with the engine.

    A state's protect sets are the f-subsets of its live region, or all of
    it when at most f vertices are live. Protect-set order lists the live
    vertices threatened ones first, then the rest, each by ascending id, and
    takes the f-combinations of that list in lexicographic order. A saving
    move is met early, and the stored move, so the witness, is the first
    optimal set in this order. In that order a set is a threatened part P
    followed by f - |P| vertices outside the threat, and the sets with the
    same P, P's block, come one after another. _value walks the blocks and
    bounds each block once, on the count and the least threat its children
    share, before it tries any of its sets.
    """

    def __init__(self, out: dict[int, int], n: int, f: int, cap: Optional[int] = None):
        self.outs = out.copy()
        self.f = f
        self.cap = n if cap is None else cap
        self.full = (1 << n) - 1
        self.memo: dict[tuple[int, int], tuple[int, int]] = {}
        self.nodes = 0

    def start_value(self, start: int) -> int:
        live, threat = self._burn(self.full, 0, 1 << start)
        return self._value(live, threat, 1, self.cap)

    def _burn(self, live: int, pm: int, spread: int, limit: float = math.inf) -> tuple[int, int]:
        """One transition: protect pm, burn spread, then return the region
        the fire can still reach through unprotected vertices and the part of
        it under threat next. out(spread) and out of each layer of the region
        search are read from outs; on a miss the loop ORs the single-vertex
        entries and stores the union. The loop is written out at each
        lookup: scan engines live for a few transitions and miss often, and
        a helper call per miss made best-dense 2-6% slower. The search takes
        each layer out of allowed as it goes, so the region is what it took.

        The threat is the region's first layer, out(spread) & live & ~pm &
        ~spread, so it is found before the region. When it has at least limit
        vertices the region is not searched and comes back as 0: _value drops
        such a child on its threat alone and would never read the region.
        Otherwise the search's next layer is the child's second layer L2, and
        the child is cut there as well, again as (0, threat), once
        _two_round_bound reaches limit - f, the burn to come that takes its
        count to the best value (see _value). That bound is at most |T| +
        |L2| - 2f, and 0 when |T| <= f, so it is only computed when |T| > f
        and |T| + |L2| >= limit + f: other children pay a compare or two and
        a popcount, and with no limit, as in start_value and extract_trace,
        nothing is cut. A threat is never empty when the region is not, so
        (0, threat) with a non-empty threat marks a cut."""
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
        region = allowed = live & ~(pm | spread)
        threat = ou & allowed
        nthreat = threat.bit_count()
        if nthreat >= limit:
            return 0, threat
        nxt = outs.get(threat)
        if nxt is None:
            nxt = 0
            part = threat
            while part:
                low = part & -part
                nxt |= outs[low]
                part ^= low
            outs[threat] = nxt
        allowed ^= threat
        frontier = nxt & allowed
        f = self.f
        if (nthreat > f and nthreat + frontier.bit_count() >= limit + f
                and _two_round_bound(outs, threat, frontier, f) >= limit - f):
            return 0, threat
        while frontier:
            allowed ^= frontier
            nxt = outs.get(frontier)
            if nxt is None:
                nxt = 0
                part = frontier
                while part:
                    low = part & -part
                    nxt |= outs[low]
                    part ^= low
                outs[frontier] = nxt
            frontier = nxt & allowed
        return region ^ allowed, threat

    def _value(self, live: int, threat: int, count: int, limit: float) -> int:
        """Burned count under optimal defence of a state where count vertices
        have burnt, given the total burn limit > count the caller has to
        beat: the value when it lies below limit, and otherwise limit itself
        (or the value, when the state was read from the memo). start_value
        passes the cap, so the cap is the root's limit and a start gets the
        cap itself.

        The search starts from best = min(count + |live|, limit) and
        searches each child under the limit best: the
        value the child has to beat to improve best. By induction a child
        returns its value when that lies below best, and at least best
        otherwise, so best stays the least of the limit, count + |live| and
        the values of the children searched, and the search returns
        min(value, limit).

        The memo maps (live, threat) to the burn still to come and the
        state's move. That is sound because every out-neighbour of a burnt
        vertex is burnt, protected or in threat, so threat is out(burnt) &
        live. The protect sets, the spread and the next (live, threat) are
        all functions of the pair, so the rest of the game does not depend on
        which vertices burnt, and count only adds to it. A search that ends
        at its limit only bounds the burn to come from below, so it is not
        stored, and the state is searched again when it comes up again; a
        value below the limit is exact and is stored with its move.

        A child is skipped once it cannot beat the best value so far: its
        count alone reaches it, or so does its count plus its threat minus f,
        since the next round can protect at most f threatened vertices, or so
        does its count plus the two-round bound of _two_round_bound. The last
        two are decided in _burn: newcount + |newthreat| - f >= best is
        |newthreat| >= best - newcount + f, the limit _burn gets, checked as
        soon as the threat is known, and newcount + bound >= best is bound >=
        limit - f, checked once the region search has found the second layer.
        A child cut there is skipped.

        The protect sets are bounded a block at a time. With rest = live &
        ~threat, a set in protect-set order is a threatened part P followed
        by j = f - |P| vertices R of rest, and the sets with the same P come
        one after another: P's block (_blocks lists the blocks in order).
        Every set of the block spreads threat - P, so its child has newcount
        = count + |threat| - |P|, and its next threat is B_P & ~R, with B_P =
        out(threat - P) & rest, so it holds at least |B_P| - j vertices. So
        once tail = max(newcount, newcount + |B_P| - j - f) reaches best,
        every child left in the block is dropped by the bounds above, by its
        count or by its threat in _burn: the block is skipped when tail
        reaches best before it, and stops when an improvement brings best
        down to tail. A block of one set (j = 0) has tail = newcount, and
        _burn bounds its threat. No set has newcount below floor = count +
        |threat| - f, so the walk ends once an improvement brings best down
        to floor. A set that covers the threat gives best = count, which no
        child can beat, so the walk ends there too; it is the first set of
        the block P = threat. None of these cuts drops a child that the
        bounds above would search, and none calls _value: a child whose next
        threat is empty has value newcount, so it is cut only when newcount
        reaches best. So the states searched, the calls to _value, their
        limits, the values and the moves are those of trying every set in
        protect-set order, each bounded on its own.

        At f = 1 the blocks are the threatened vertices one at a time, and
        then the rest as one block with j = 1, whose tail is newcount +
        max(0, |out(threat) & rest| - 2). They are walked as two loops,
        because the block walk made the f = 1 jobs of the fixed-orientation
        benchmark 14-34% slower in-process (Python 3.11, 2 cores): those
        states try a handful of sets, and the walk's generator and tuples
        cost more than it saves.

        out(threat) is always in outs: the threat was the first layer of the
        region search in the _burn that made the state (a child that _burn
        cuts makes no state). out(threat - P) for a non-empty P is computed
        on a miss. The rest's bits are only listed once a block with j > 0
        passes its bound, which at f = 1 it does at about one state in
        forty on 16- to 24-vertex graphs.

        The move is the first protect set, in protect-set order, whose
        child reaches the state's value (live itself when at most f vertices
        are live): the set at best's last change. Children are tried in that
        order and best moves only on a strict improvement. A child skipped by
        any of the bounds has a value at least the best so far, and so has a
        searched child that did not improve it (it returned at least its
        limit, the best so far), so every child before the move is above the
        final value, and the move's own child, whose value lies below the
        best before it, is never skipped: a bound that drops more children
        moves neither values nor moves, only the states searched. Count only
        adds to the value, so one move serves every count. The move's child
        improved best, so its value lay below the limit it was searched
        under: it was stored (or read from the memo, or has no threat), and
        extract_trace follows the moves to the end of the play.
        """
        if not threat:
            return count
        key = (live, threat)
        entry = self.memo.get(key)
        if entry is not None:
            return count + entry[0]
        self.nodes += 1
        f = self.f
        nlive = live.bit_count()
        if nlive <= f:
            self.memo[key] = (0, live)
            return count
        best = count + nlive
        if best > limit:
            best = limit
        move = 0
        rest = live & ~threat
        if f == 1:
            for pm in _low_bits(threat):
                spread = threat & ~pm
                if not spread:
                    best, move = count, pm
                    break
                newcount = count + spread.bit_count()
                if newcount >= best:
                    continue
                newlive, newthreat = self._burn(live, pm, spread, best - newcount + 1)
                if newthreat and not newlive:
                    continue
                v = self._value(newlive, newthreat, newcount, best)
                if v < best:
                    best, move = v, pm
            newcount = count + threat.bit_count()
            tail = newcount + (self.outs[threat] & rest).bit_count() - 2
            if tail < newcount:
                tail = newcount
            if tail < best:
                for pm in _low_bits(rest):
                    newlive, newthreat = self._burn(live, pm, threat, best - newcount + 1)
                    if newthreat and not newlive:
                        continue
                    v = self._value(newlive, newthreat, newcount, best)
                    if v < best:
                        best, move = v, pm
                        if tail >= best:
                            break
        else:
            outs = self.outs
            others = None  # the rest's bits, once a block needs them
            floor = count + threat.bit_count() - f
            for part, j in _blocks(_low_bits(threat), f):
                spread = threat & ~part
                if not spread:
                    best, move = count, part | sum(_low_bits(rest)[:j])
                    break
                newcount = count + spread.bit_count()
                tail = newcount
                if j:
                    ou = outs.get(spread)
                    if ou is None:
                        ou = _union(outs, spread)
                    bound = newcount + (ou & rest).bit_count() - j - f
                    if bound > tail:
                        tail = bound
                if tail >= best:
                    continue
                if not j:
                    sets = (0,)
                else:
                    if others is None:
                        others = _low_bits(rest)
                    sets = others if j == 1 else map(sum, combinations(others, j))
                for r in sets:
                    pm = part | r
                    newlive, newthreat = self._burn(live, pm, spread, best - newcount + f)
                    if newthreat and not newlive:
                        continue
                    v = self._value(newlive, newthreat, newcount, best)
                    if v < best:
                        best, move = v, pm
                        if tail >= best:
                            break
                if floor >= best:
                    break
        if best < limit:
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
    max_vertices: int = _MAX_VERTICES,
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
    """Classic firefighting on an undirected graph of at most _MAX_VERTICES
    vertices: every edge carries both arcs. The number saved is |V| minus the
    result."""
    return _solve_fixed(list(g.adj_mask), g.n, f, start, _MAX_VERTICES, True, "undirected")


def _solve_fixed(out_mask, n, f, start, max_vertices, want_trace, mode) -> GameValue:
    # The public solvers share this body rather than call each other, so a
    # wrapper around either name (benchmarks/tracing.py) counts each engine once.
    if n > max_vertices:
        raise SolverLimitError(f"instance has {n} vertices, cap is {max_vertices}")
    check_game(n, f, start)
    t0 = time.perf_counter()
    starts = [start] if start is not None else range(n)
    try:
        _, eng, per_start = _capped_values(_out_map(out_mask), n, f, n, starts)
    except RecursionError:
        raise SolverLimitError(f"the search on {n} vertices ran past Python's recursion limit") from None
    return _game_value(eng, per_start, want_trace, t0, mode, exact=True, nodes=eng.nodes)


def _out_map(out_mask: list[int]) -> dict[int, int]:
    """An engine's per-vertex map, {1 << v: out_mask[v]}."""
    return {1 << v: om for v, om in enumerate(out_mask)}


def _game_value(eng: Engine, per_start: dict[int, int], want_trace: bool, t0: float,
                mode: str, exact: bool, nodes: int, witness: Optional[Orientation] = None) -> GameValue:
    """The result of a solve begun at time t0: the worst of the engine's
    per-start values (each below its cap), the first start in per_start's
    order attaining it, and that start's optimal play when want_trace is set."""
    beta = max(per_start.values())
    start = next(s for s, v in per_start.items() if v == beta)
    return GameValue(
        beta=beta, f=eng.f, mode=mode, exact=exact,
        witness_start=start, witness_trace=eng.extract_trace(start) if want_trace else None,
        witness_orientation=witness, per_start=per_start,
        nodes_explored=nodes, wall_ms=(time.perf_counter() - t0) * 1000,
    )


def _capped_values(out, n, f, cap, starts) -> tuple[Optional[int], Engine, dict[int, int]]:
    """Solve the starts in order on one engine capped at cap, until one
    reaches the cap: that start (None when none does), the engine, and the
    values found. Every value below the cap is exact.

    This is the only loop that solves starts. The scan's bound checks and
    leaves cap at target + 1. Fixed solves and the stand-in for a spent
    budget cap at n, which solves every start: on two or more vertices the
    first protection saves a vertex, or the fire has nowhere to go, so no
    value reaches n."""
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


def _root_slack(degree: list[int], m: int, max_outdeg: int) -> int:
    """The feasibility slack of a pass's root: the sum over v of
    min(max_outdeg, deg v), the most out-arcs the vertices can take in all,
    less the m arcs every orientation places. Below 0 no orientation keeps
    every outdegree within max_outdeg (see _scan_orientations)."""
    slack = -m
    for d in degree:
        slack += d if d < max_outdeg else max_outdeg
    return slack


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
    max_edges: int = _MAX_EDGES,
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
    exact = True
    try:
        try:
            word, eng, values, leaves = _scan_orientations(g, f, density_floor(g, f), budget_ms)
        except _BudgetSpent as spent:
            exact, word, leaves = False, 0, spent.args[0] + 1
        witness = orientation_from_bits(g, word)
        if not exact:
            # orientation 0's own solve counts as one more leaf
            _, eng, values = _capped_values(_out_map(witness.out_mask), g.n, f, g.n, range(g.n))
    except RecursionError:
        raise SolverLimitError(f"the scan over {g.m} edges ran past Python's recursion limit") from None
    # the leaf solved every start below its cap: reorder, do not re-solve
    per_start = {s: values[s] for s in range(g.n)}
    return _game_value(eng, per_start, want_trace, t0, "best", exact=exact, nodes=leaves, witness=witness)


def _scan_orientations(g: Graph, f: int, floor: int, budget_ms) -> tuple:
    """Depth-first scan of orientation space in passes with targets floor,
    floor + 1, and so on (see the module docstring).

    Returns (word, engine, values, leaves) once a pass reaches a leaf of
    value at most its target: the witness's edge word, its leaf's capped
    engine, every start's exact value and the leaves visited over all
    passes. When the budget runs out first it raises _BudgetSpent, which
    carries the leaves visited.

    The frame is flat. One pass over the edges, last to first, sets it up:
    each edge's two arcs, the depths just after an edge that is the last of
    one of its ends (the pass meets that end there first, and the count of
    that end's edges met so far is 1), the degrees, and the parallel-edge
    test, which raises GraphError. The recursion rec(i, word,
    lex, slack) returns the pass's leaf below depth i, (word, engine,
    values), once it has found it, and None when its subtree holds no leaf
    within the target, so a found leaf unwinds the recursion at once, and so
    does the exception of a spent budget. The start hint and the leaf count
    are locals of the scan, kept across passes.

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

    The outdegree limit is fixed for the whole pass, so the scan keeps, for
    each vertex v, its room t + f - 1 - d+(v), the out-arcs it can still
    take, and checks the tail's room on each new arc. The feasibility
    prune's slack (see the module docstring) is rec's fourth argument. A
    pass starts from _root_slack, and a negative start proves the pass empty
    without visiting a node. Placing arc u -> v lowers u's term by one (its
    room and its open edges both fall by one) and the open edges by one,
    which cancel, and lowers v's term by one exactly when v's open edges,
    this one included, were at most its room: then v needed every one of
    them as an out-arc. So the slack falls by one exactly then, and an arc
    that would take it below 0 is skipped like an arc over the limit. v's
    open edges at edge i do not depend on the orientation, so the set-up
    stores them in each arc, and only the room is updated and restored per
    vertex. The prune drops only subtrees in which every leaf breaks the
    outdegree limit, so no leaf the scan would solve: the witness has value
    at most t, so all its outdegrees are at most t + f - 1, and values and
    witnesses are those of the scan without it. A dropped subtree takes its
    bound checks with it, though, so the start hint can differ afterwards,
    and with it the leaves visited on large graphs (K8 at f = 1 visits 489
    leaves against 486 without the prune).

    The twin checks (see _twin_comparisons) are stepped as each bit is set,
    at no cost on graphs without a twin class of _MIN_TWIN_CLASS vertices.

    The clock for budget_ms is read on every bound check and every leaf:
    under the bound, leaves become rare.
    """
    n, m = g.n, g.m
    edges = g.edges
    # each edge's two arcs as (its bit in the word, tail, tail's bit, head,
    # head's bit, the edges from this one on at the head)
    arcs = [None] * m
    check_at = [False] * (m + 1)
    pairs = 0  # bit lo * n + hi for each edge {lo, hi} met so far
    degree = [0] * n  # the edges met so far at each vertex, at the end its degree
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        lo, hi = (u, v) if u < v else (v, u)
        pair = 1 << (lo * n + hi)
        if pairs & pair:
            raise GraphError("the best-orientation scan needs a graph without parallel edges")
        pairs |= pair
        lo_open = degree[lo] = degree[lo] + 1
        hi_open = degree[hi] = degree[hi] + 1
        lo_bit, hi_bit = 1 << lo, 1 << hi
        arcs[i] = ((0, lo, lo_bit, hi, hi_bit, hi_open), (1 << i, hi, hi_bit, lo, lo_bit, lo_open))
        if lo_open == 1 or hi_open == 1:  # edge i is the last edge of lo or of hi
            check_at[i + 1] = i < m - _MIN_OPEN_EDGES

    room = [0] * n  # the out-arcs each vertex can still take in the pass
    out = {1 << v: 0 for v in range(n)}  # the partial orientation, in the engine's form
    doubled = tuple(range(n)) * 2
    hint = leaves = 0  # hint: the start that last reached the cap, at a check or a leaf
    deadline = None if budget_ms is None else time.perf_counter() + budget_ms / 1000

    def rec(i: int, word: int, lex: list, slack: int):
        nonlocal hint, leaves
        if i == m:
            if deadline is not None and time.perf_counter() > deadline:
                raise _BudgetSpent(leaves)
            leaves += 1
            blocker, eng, values = _capped_values(out, n, f, cap, doubled[hint:hint + n])
            if blocker is None:
                return word, eng, values
            hint = blocker
            return None
        if check_at[i]:
            if deadline is not None and time.perf_counter() > deadline:
                raise _BudgetSpent(leaves)
            top = room.index(min(room))
            blocker = _capped_values(out, n, f, cap, (hint,) if top == hint else (hint, top))[0]
            if blocker is not None:
                hint = blocker
                return None
        for bit, tail, tail_bit, head, head_bit, head_open in arcs[i]:
            if not room[tail]:
                continue
            child_slack = slack
            if room[head] >= head_open:
                # the head has room for all its open edges, this one included
                if not slack:
                    continue
                child_slack -= 1
            child = word | bit
            child_lex = _lex_step(lex, child, i) if lex else lex
            if child_lex is None:
                continue
            room[tail] -= 1
            out[tail_bit] |= head_bit
            leaf = rec(i + 1, child, child_lex, child_slack)
            if leaf:
                return leaf
            room[tail] += 1
            out[tail_bit] ^= head_bit
        return None

    lex = [(comps, 0) for comps in _twin_comparisons(g).values()]
    target = floor
    while True:
        # a value above target fails: every solve's cap, and the outdegree at
        # which a vertex takes no more out-arcs (1 + d+ - f > target beyond it)
        cap, max_outdeg = target + 1, target + f - 1
        slack = _root_slack(degree, m, max_outdeg)
        room[:] = [max_outdeg] * n
        leaf = rec(0, 0, lex, slack) if slack >= 0 else None
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
    iterated inline, only the sets of size 2 and more are built by
    combinations, and each node passes the out-neighbourhood of its burnt set
    down, so a child ORs in the out-masks of its new spread alone."""
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
    # every protect set by size, as combinations gives them; the sets of
    # size 0 and 1 are 0 and singles themselves
    sets = [0, *singles]
    for size in range(2, f + 1):
        sets.extend(map(sum, combinations(singles, size)))
    for pm in sets:
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
