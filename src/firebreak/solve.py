"""Exact optimal-play solving.

The engine minimises the burned count over all defence schedules for a fixed
digraph by depth-first search over (burnt, live) states, where live is the
region still reachable from the fire through unprotected vertices. Two states
with the same pair behave identically, so the pair is the memo key;
protections are only branched inside the live region (protecting elsewhere
can never change a future spread), plus passing when nothing useful remains.

Finding the best orientation enumerates edge directions depth-first in edge
order (bit 0 = lower id to higher id first) with three sound prunes:

- outdegree: a partial assignment dies once some outdegree forces
  1 + d+ - f >= incumbent;
- sub-digraph bound: a partial assignment dies once the digraph of the arcs
  fixed so far already has a value of at least the incumbent. Adding an arc
  never lowers the value (the larger digraph's optimal defence, played in the
  smaller one, keeps the fire a subset of the larger one's at every step), so
  every completion is at least as bad;
- density floor: the scan stops when the incumbent reaches the proven floor.

Only a strict improvement replaces the incumbent, and each prune drops only
orientations that cannot improve on it, so none can skip the first optimum
in enumeration order.
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
        return self._value(1 << start, live, threat, 1)

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

    def _value(self, burnt: int, live: int, threat: int, count: int) -> int:
        if not threat:
            return count
        key = (burnt, live)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.nodes += 1
        if popcount(live) <= self.f:
            self.memo[key] = count
            return count
        best = count + popcount(live)
        if best > self.cap:
            best = self.cap
        for pm in _protect_masks(live, threat, self.f):
            spread = threat & ~pm
            if not spread:
                best = count
                break
            newcount = count + popcount(spread)
            if newcount >= best:
                continue
            newlive, newthreat = self._burn(live, pm, spread)
            v = self._value(burnt | spread, newlive, newthreat, newcount)
            if v < best:
                best = v
                if best == count:
                    break
        self.memo[key] = best
        return best

    def extract_trace(self, start: int) -> FireTrace:
        """Walk one optimal play out of the solved memo table."""
        burnt = 1 << start
        live, threat = self._burn(self.full, 0, burnt)
        count = 1
        events = [TraceEvent(1, "burn", (start,))]
        t = 1
        while threat:
            pm = self._optimal_choice(burnt, live, threat, count)
            if pm:
                events.append(TraceEvent(t, "protect", tuple(bits(pm))))
            spread = threat & ~pm
            if not spread:
                break
            burnt |= spread
            count += popcount(spread)
            live, threat = self._burn(live, pm, spread)
            t += 1
            events.append(TraceEvent(t, "burn", tuple(bits(spread))))
        return FireTrace(start=start, f=self.f, events=events, burned=count)

    def _optimal_choice(self, burnt: int, live: int, threat: int, count: int) -> int:
        """The first protect set, in _value's order, that keeps the memoised
        value of the state."""
        if popcount(live) <= self.f:
            return live
        target = self._value(burnt, live, threat, count)
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
            if self._value(burnt | spread, newlive, newthreat, newcount) == target:
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
    (complete orientations), not the internal nodes the bounds cut.
    """
    if g.m > max_edges:
        raise SolverLimitError(f"instance has {g.m} edges, cap is {max_edges}")
    check_game(g.n, f)
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

    The clock for budget_ms is read on every bound check as well as every 64
    leaves, because under the bound leaves become rare; budget_leaves counts
    leaves only.
    """
    n, m = g.n, g.m
    lo_hi = [(min(u, v), max(u, v)) for u, v in g.edges]
    outdeg = [0] * n
    out_mask = [0] * n
    state = _BestState()
    start_clock = time.perf_counter()

    last_edge = {}
    for i, (u, v) in enumerate(lo_hi):
        last_edge[u] = last_edge[v] = i
    closing = {i + 1 for i in last_edge.values()}  # depths just after a vertex's last edge
    check_at = [i <= m - _MIN_OPEN_EDGES and i in closing for i in range(m + 1)]

    def over_budget() -> bool:
        return budget_ms is not None and (time.perf_counter() - start_clock) * 1000 > budget_ms

    def allowed_outdeg() -> int:
        if state.incumbent is None:
            return n
        return state.incumbent + f - 2

    def visit(word: int) -> None:
        state.leaves += 1
        if state.incumbent is not None and 1 + max(outdeg) - f >= state.incumbent:
            return
        starts = [(state.hint + k) % n for k in range(n)]
        value, start = _beta_with_cutoff(out_mask, n, f, state.incumbent, starts)
        if state.incumbent is not None and value >= state.incumbent:
            state.hint = start
        else:
            state.incumbent = value
            state.witness_word = word
            if state.incumbent <= floor:
                state.stopped = True

    def rec(i: int, word: int) -> None:
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
        for bit, tail, head in ((0, u, v), (1, v, u)):
            if outdeg[tail] + 1 > allowed_outdeg():
                continue
            outdeg[tail] += 1
            out_mask[tail] |= 1 << head
            rec(i + 1, word | (bit << i))
            outdeg[tail] -= 1
            out_mask[tail] &= ~(1 << head)

    rec(0, 0)
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
