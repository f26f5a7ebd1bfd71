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
    """Exact result of optimal play."""

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
        burnt = 1 << start
        live = self._reach(self.out_mask[start] & ~burnt, ~burnt & self.full)
        threat = self.out_mask[start] & live
        return self._value(burnt, live, threat, 1)

    def _reach(self, seed: int, allowed: int) -> int:
        reached = 0
        frontier = seed & allowed
        om = self.out_mask
        while frontier:
            reached |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= om[v]
            frontier = nxt & allowed & ~reached
        return reached

    def _value(self, burnt: int, live: int, threat: int, count: int) -> int:
        if not threat:
            return count
        key = (burnt, live)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.nodes += 1
        f = self.f
        if popcount(live) <= f:
            self.memo[key] = count
            return count
        om = self.out_mask
        rest = live & ~threat
        order = list(bits(threat)) + list(bits(rest))
        best = count + popcount(live)
        if best > self.cap:
            best = self.cap
        if f == 1:
            for p in order:
                pb = 1 << p
                spread = threat & ~pb
                if not spread:
                    best = count
                    break
                newcount = count + popcount(spread)
                if newcount >= best:
                    continue
                ou = 0
                for x in bits(spread):
                    ou |= om[x]
                allowed = live & ~pb & ~spread
                newlive = self._reach(ou, allowed)
                v = self._value(burnt | spread, newlive, ou & newlive, newcount)
                if v < best:
                    best = v
                    if best == count:
                        break
        else:
            for chosen in combinations(order, f):
                pm = 0
                for p in chosen:
                    pm |= 1 << p
                spread = threat & ~pm
                if not spread:
                    best = count
                    break
                newcount = count + popcount(spread)
                if newcount >= best:
                    continue
                ou = 0
                for x in bits(spread):
                    ou |= om[x]
                allowed = live & ~pm & ~spread
                newlive = self._reach(ou, allowed)
                v = self._value(burnt | spread, newlive, ou & newlive, newcount)
                if v < best:
                    best = v
                    if best == count:
                        break
        self.memo[key] = best
        return best

    def extract_trace(self, start: int) -> FireTrace:
        """Walk one optimal play out of the solved memo table."""
        burnt = 1 << start
        live = self._reach(self.out_mask[start] & ~burnt, ~burnt & self.full)
        threat = self.out_mask[start] & live
        count = 1
        events = [TraceEvent(1, "burn", (start,))]
        t = 1
        om = self.out_mask
        f = self.f
        while threat:
            target = self._value(burnt, live, threat, count)
            if popcount(live) <= f:
                chosen = tuple(sorted(bits(live)))
            else:
                chosen = self._optimal_choice(burnt, live, threat, count, target)
            if chosen:
                events.append(TraceEvent(t, "protect", chosen))
            pm = 0
            for p in chosen:
                pm |= 1 << p
            spread = threat & ~pm
            if not spread:
                break
            burnt |= spread
            count += popcount(spread)
            ou = 0
            for x in bits(spread):
                ou |= om[x]
            live = self._reach(ou, live & ~pm & ~spread)
            threat = ou & live
            t += 1
            events.append(TraceEvent(t, "burn", tuple(sorted(bits(spread)))))
        return FireTrace(start=start, f=f, events=events, burned=count)

    def _optimal_choice(self, burnt, live, threat, count, target) -> tuple[int, ...]:
        om = self.out_mask
        order = list(bits(threat)) + list(bits(live & ~threat))
        groups = [(p,) for p in order] if self.f == 1 else combinations(order, self.f)
        for chosen in groups:
            pm = 0
            for p in chosen:
                pm |= 1 << p
            spread = threat & ~pm
            if not spread:
                if target == count:
                    return tuple(sorted(chosen))
                continue
            newcount = count + popcount(spread)
            if newcount > target:
                continue
            ou = 0
            for x in bits(spread):
                ou |= om[x]
            allowed = live & ~pm & ~spread
            newlive = self._reach(ou, allowed)
            if self._value(burnt | spread, newlive, ou & newlive, newcount) == target:
                return tuple(sorted(chosen))
        raise AssertionError("memoised value has no matching play")


def _check_cap(n: int, max_vertices: int) -> None:
    if n > max_vertices:
        raise SolverLimitError(f"instance has {n} vertices, cap is {max_vertices}")


def solve_orientation(
    o: Orientation,
    f: int = 1,
    start: Optional[int] = None,
    max_vertices: int = 24,
    want_trace: bool = True,
) -> GameValue:
    """Optimal burned count for a fixed orientation: the exact minimum over
    all defence schedules, maximised over fire starts unless one is given."""
    _check_cap(o.n, max_vertices)
    check_game(o.n, f, start)
    t0 = time.perf_counter()
    eng = Engine(o.out_mask, o.n, f)
    starts = [start] if start is not None else list(range(o.n))
    per_start = {s: eng.start_value(s) for s in starts}
    beta = max(per_start.values())
    witness = next(s for s in starts if per_start[s] == beta)
    trace = eng.extract_trace(witness) if want_trace else None
    return GameValue(
        beta=beta, f=f, mode="fixed", exact=True,
        witness_start=witness, witness_trace=trace,
        per_start=per_start, nodes_explored=eng.nodes,
        wall_ms=(time.perf_counter() - t0) * 1000,
    )


def solve_undirected(
    g: Graph,
    f: int = 1,
    start: Optional[int] = None,
    max_vertices: int = 24,
) -> GameValue:
    """Classic firefighting on an undirected graph: every edge carries both
    arcs. The number saved is |V| minus the result."""
    _check_cap(g.n, max_vertices)
    check_game(g.n, f, start)
    t0 = time.perf_counter()
    eng = Engine(list(g.adj_mask), g.n, f)
    starts = [start] if start is not None else list(range(g.n))
    per_start = {s: eng.start_value(s) for s in starts}
    beta = max(per_start.values())
    witness = next(s for s in starts if per_start[s] == beta)
    return GameValue(
        beta=beta, f=f, mode="undirected", exact=True,
        witness_start=witness, witness_trace=eng.extract_trace(witness),
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
    threads: int = 1,
    want_trace: bool = True,
) -> GameValue:
    """Exact minimum of the fixed-orientation value over all 2^m orientations.

    An exhausted time or leaf budget turns the result into a flagged upper
    bound instead of an exact value. budget_leaves counts visited leaves
    (complete orientations), not the internal nodes the bounds cut. With
    threads > 1 the orientation space is split by edge prefix across worker
    processes; the value is identical, only the witness may differ.
    """
    if g.m > max_edges:
        raise SolverLimitError(f"instance has {g.m} edges, cap is {max_edges}")
    check_game(g.n, f)
    t0 = time.perf_counter()
    floor = density_floor(g, f)
    if threads > 1:
        result = _parallel_best(g, f, floor, threads, budget_ms, budget_leaves)
    else:
        result = _scan_orientations(g, f, floor, 0, 0, budget_ms, budget_leaves)
    beta, word, exact, leaves = result
    witness = orientation_from_bits(g, word)
    fixed = solve_orientation(witness, f=f, want_trace=want_trace)
    return GameValue(
        beta=beta, f=f, mode="best", exact=exact,
        witness_start=fixed.witness_start, witness_trace=fixed.witness_trace,
        witness_orientation=witness, per_start=fixed.per_start,
        nodes_explored=leaves, wall_ms=(time.perf_counter() - t0) * 1000,
    )


def _scan_orientations(
    g: Graph, f: int, floor: int, prefix_word: int, prefix_len: int, budget_ms, budget_leaves=None
):
    """Depth-first scan of (a prefix-restricted slice of) orientation space.

    Returns (value, witness word, exact, leaves visited). The witness is the
    first optimum in enumeration order within the slice.

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

    for i in range(prefix_len):
        u, v = lo_hi[i]
        tail, head = (v, u) if (prefix_word >> i) & 1 else (u, v)
        outdeg[tail] += 1
        out_mask[tail] |= 1 << head

    last_edge = {}
    for i, (u, v) in enumerate(lo_hi):
        last_edge[u] = last_edge[v] = i
    closing = {i + 1 for i in last_edge.values()}  # depths just after a vertex's last edge
    check_at = [prefix_len < i <= m - _MIN_OPEN_EDGES and i in closing for i in range(m + 1)]

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

    rec(prefix_len, prefix_word)
    exact = not state.budget_hit
    return state.incumbent, state.witness_word, exact, state.leaves


def _scan_worker(args):
    n, edges, f, floor, prefix_word, prefix_len, budget_ms, budget_leaves = args
    g = Graph(n, edges)
    return _scan_orientations(g, f, floor, prefix_word, prefix_len, budget_ms, budget_leaves)


def _parallel_best(g: Graph, f: int, floor: int, threads: int, budget_ms, budget_leaves=None):
    import multiprocessing

    t_bits = 1
    while (1 << t_bits) < 2 * threads and t_bits < g.m:
        t_bits += 1
    t_bits = min(t_bits, g.m)
    # chunk order must match the depth-first enumeration: bit 0 varies slowest
    chunk_words = sorted(range(1 << t_bits), key=lambda w: tuple((w >> i) & 1 for i in range(t_bits)))
    jobs = [(g.n, g.edges, f, floor, w, t_bits, budget_ms, budget_leaves) for w in chunk_words]
    with multiprocessing.Pool(processes=threads) as pool:
        results = pool.map(_scan_worker, jobs)
    best = None
    for value, word, exact, leaves in results:
        if value is None:
            continue
        if best is None or value < best[0]:
            best = [value, word, exact, 0]
    leaves_total = sum(r[3] for r in results)
    exact_all = all(r[2] for r in results)
    return best[0], best[1], exact_all, leaves_total


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
