import hashlib
import itertools
import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firebreak.solve
from firebreak.families import (
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected,
    grid_rect,
    grid_tri,
    k33,
    path,
    petersen,
    random_ktree,
    random_regular,
    star,
)
from firebreak.game import replay
from firebreak.graphs import (
    Graph,
    GraphError,
    Orientation,
    bits,
    canonical_form,
    orientation_from_bits,
    popcount,
)
from firebreak.orient import (
    orient_bounded_degree,
    orient_complete,
    orient_half,
    orient_ktree,
    orient_subcubic,
    orient_unicyclic,
)
from firebreak.solve import (
    Engine,
    SolverLimitError,
    _out_map,
    _protect_masks,
    _twin_comparisons,
    density_floor,
    naive_best_orientation,
    naive_solve_orientation,
    naive_start_value,
    solve_best_orientation,
    solve_orientation,
    solve_undirected,
)


def test_fixed_complete_five():
    gv = solve_orientation(orient_complete(5), 1)
    assert gv.beta == 2 and gv.exact
    assert gv.witness_trace.burned == 2


def test_fixed_directed_cycle():
    assert solve_orientation(orient_unicyclic(cycle(9)), 1).beta == 1


def test_fixed_subcubic_petersen():
    assert solve_orientation(orient_subcubic(petersen()), 1).beta == 2


def test_enough_firefighters_always_one():
    for g in (complete(5), petersen()):
        o = orient_half(g)
        assert solve_orientation(o, o.max_out_degree()).beta == 1


def _both_ways(g):
    """The undirected game as an orientation: every edge as two opposite arcs."""
    both = list(g.edges) + [(v, u) for u, v in g.edges]
    return Orientation(Graph(g.n, both), both)


def test_witness_trace_replays():
    cases = [(o, solve_orientation(o, f)) for o in (orient_complete(6), orient_subcubic(k33())) for f in (1, 2)]
    cases += [(_both_ways(g), solve_undirected(g, f)) for g in (petersen(), grid_rect(3, 4)) for f in (1, 2)]
    for o, gv in cases:
        result = replay(o, gv.witness_trace)
        assert result.valid, (gv.mode, gv.f, result)
        assert gv.witness_trace.burned == gv.beta
        assert gv.per_start[gv.witness_start] == gv.beta
    assert any(len(ev.vertices) == 2 for _, gv in cases for ev in gv.witness_trace.events if ev.kind == "protect")


# The benchmark's best-dense and best-sparse instances, as (graph, f, max_edges)
_BEST_INSTANCES = [
    (complete(7), 1, 21), (complete(7), 2, 21), (complete_bipartite(4, 4), 1, 21),
    (complete_bipartite(3, 6), 1, 21), (grid_rect(4, 4), 1, 24), (grid_rect(3, 5), 1, 24),
    (grid_tri(3, 4), 1, 24), (random_ktree(12, 2, 0), 1, 24), (random_regular(16, 3, 0), 1, 24),
]


def _hash_result(digest, gv):
    """Add a result's JSON object, all of it but wall_ms, to digest."""
    obj = gv.to_json_obj()
    del obj["wall_ms"]
    digest.update(json.dumps(obj, sort_keys=True).encode())


def test_every_solver_witness_replays_up_to_n5():
    # every connected graph with n <= 5 under each solver: 5,404 solves. The
    # best-mode results, with those of the benchmark's best instances, are
    # pinned whole (value, witness orientation and trace, per-start values
    # and leaves) by one digest, taken before the scan was last rewritten
    rng = random.Random(0)
    solves = 0
    digest = hashlib.sha256()
    for n in range(1, 6):
        for g in enumerate_connected(n):
            best = [solve_best_orientation(g, f) for f in (1, 2)]
            for gv in best:
                _hash_result(digest, gv)
            cases = [(gv.witness_orientation, gv) for gv in best]
            cases += [(_both_ways(g), solve_undirected(g, f)) for f in (1, 2)]
            o = orientation_from_bits(g, rng.getrandbits(g.m))
            cases += [(o, solve_orientation(o, f)) for f in (1, 2, 3)]
            for o, gv in cases:
                assert replay(o, gv.witness_trace).valid, (g.edges, gv.mode, gv.f)
                assert gv.witness_trace.burned == gv.beta
                assert gv.beta == gv.per_start[gv.witness_start] == max(gv.per_start.values())
            solves += len(cases)
    assert solves == 5404
    for g, f, max_edges in _BEST_INSTANCES:
        _hash_result(digest, solve_best_orientation(g, f, max_edges=max_edges))
    assert digest.hexdigest() == "5c05f1a0ef93ffc30aa61e2e39034884d7af470fbd3b7e9fb9aa4decc97d8caf"


def test_trace_extraction_adds_no_state():
    # the benchmark's random 5-regular orientation at f = 2, where a trace
    # walk that re-solves children would search 3 more states for the
    # witness start and 48 for all starts
    g = random_regular(24, 5, 0)
    o = orientation_from_bits(g, random.Random(0).getrandbits(g.m))
    eng = Engine(_out_map(o.out_mask), o.n, 2)
    values = [eng.start_value(s) for s in range(o.n)]
    nodes = eng.nodes
    for s in range(o.n):
        trace = eng.extract_trace(s)
        assert trace.burned == values[s] and replay(o, trace).valid
    assert eng.nodes == nodes


@pytest.mark.parametrize("g, f, beta, nodes, per_start", [
    (grid_rect(4, 5), 1, 14, 1696, [4, 6, 6, 4, 8, 10, 10, 8, 9, 14, 14, 9, 8, 10, 10, 8, 4, 6, 6, 4]),
    (grid_rect(4, 5), 2, 5, 72, [1, 2, 2, 1, 2, 4, 4, 2, 2, 5, 5, 2, 2, 4, 4, 2, 1, 2, 2, 1]),
    (random_regular(18, 3, 0), 1, 10, 843, [9, 9, 9, 7, 8, 8, 10, 8, 8, 8, 8, 8, 5, 8, 7, 5, 5, 8]),
    (random_regular(20, 3, 0), 1, 9, 909, [8, 5, 8, 5, 5, 8, 7, 5, 8, 7, 8, 5, 9, 5, 8, 6, 8, 5, 7, 5]),
    (random_regular(16, 4, 0), 2, 7, 127, [4, 4, 5, 4, 4, 4, 4, 7, 5, 3, 5, 3, 3, 5, 7, 5]),
], ids=["grid4x5-f1", "grid4x5-f2", "cubic-n18-f1", "cubic-n20-f1", "4reg-n16-f2"])
def test_fixed_benchmark_instances_pinned(g, f, beta, nodes, per_start):
    # the undirected instances of the benchmark's fixed workload, unrelabelled:
    # a change to the engine's bounds or child order moves a count here
    gv = solve_undirected(g, f)
    assert (gv.beta, gv.nodes_explored, [gv.per_start[s] for s in range(g.n)]) == (beta, nodes, per_start)


def test_burn_limit_skips_only_the_region():
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randrange(1, 11)
        out_mask = [rng.getrandbits(n) & ~(1 << u) for u in range(n)]
        eng = Engine(_out_map(out_mask), n, 1)
        live = rng.getrandbits(n)
        pm = rng.getrandbits(n) & live
        spread = rng.getrandbits(n) & live & ~pm
        region, threat = eng._burn(live, pm, spread)
        for limit in range(n + 2):
            expected = (region if threat.bit_count() < limit else 0, threat)
            assert eng._burn(live, pm, spread, limit) == expected


class _ReferenceEngine(Engine):
    """The engine before the threat was bounded ahead of the region search:
    _burn always searches the region, and _value bounds a child only once
    _burn has returned. Nor does it store unions: it reads only the
    single-vertex entries of outs."""

    def _burn(self, live, pm, spread):
        outs = self.outs
        ou = 0
        part = spread
        while part:
            low = part & -part
            ou |= outs[low]
            part ^= low
        allowed = live & ~pm & ~spread
        reached = 0
        frontier = ou & allowed
        while frontier:
            reached |= frontier
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= outs[low]
                frontier ^= low
            frontier = nxt & allowed & ~reached
        return reached, ou & reached

    def _value(self, live, threat, count):
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
        for pm in _protect_masks(live, threat, f):
            spread = threat & ~pm
            if not spread:
                best, move = count, pm
                break
            newcount = count + spread.bit_count()
            if newcount >= best:
                continue
            newlive, newthreat = self._burn(live, pm, spread)
            if newcount + newthreat.bit_count() - f >= best:
                continue
            v = self._value(newlive, newthreat, newcount)
            if v < best:
                best, move = v, pm
        if best < self.cap:
            self.memo[key] = (best - count, move)
        return best


def _assert_matches_reference(out_mask, n, f):
    # values, states searched and memo tables, under every cap and with
    # starts revisited, so capped states are searched again
    for cap in range(1, n + 2):
        eng, ref = Engine(_out_map(out_mask), n, f, cap), _ReferenceEngine(_out_map(out_mask), n, f, cap)
        for s in [*range(n), *reversed(range(n))]:
            assert eng.start_value(s) == ref.start_value(s), (out_mask, f, cap, s)
        assert (eng.nodes, eng.memo) == (ref.nodes, ref.memo), (out_mask, f, cap)


def test_engine_matches_reference():
    rng = random.Random(5)
    for g in (g for n in range(1, 6) for g in enumerate_connected(n)):
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        for f in (1, 2, 3):
            _assert_matches_reference(o.out_mask, g.n, f)
    # the stop on protect sets that miss the threat needs a second layer of
    # more than f vertices behind a threat the defence cannot hold, which
    # these larger digraphs have
    for _ in range(60):
        n = rng.randrange(6, 11)
        out_mask = [sum(1 << v for v in range(n) if v != u and rng.random() < 0.35) for u in range(n)]
        for f in (1, 2):
            _assert_matches_reference(out_mask, n, f)


def test_engine_unions_are_out_neighbourhoods():
    # every union the engine stored, at any cap, is the OR of its vertices'
    # out-masks in the digraph it was built on
    rng = random.Random(8)
    stored = 0
    for _ in range(150):
        n = rng.randrange(1, 11)
        out_mask = [sum(1 << v for v in range(n) if v != u and rng.random() < 0.35) for u in range(n)]
        for f in (1, 2):
            for cap in (None, rng.randrange(1, n + 1)):
                eng = Engine(_out_map(out_mask), n, f, cap)
                for s in range(n):
                    eng.start_value(s)
                for mask, union in eng.outs.items():
                    assert union == sum(1 << w for w in range(n) if any(out_mask[u] >> w & 1 for u in bits(mask)))
                stored += len(eng.outs) - n
    assert stored > 1000


def test_engine_keeps_its_own_out_map():
    # the orientation scan changes its map in place between engines: an
    # engine built on it must answer for the map as it was when built
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randrange(2, 10)
        out_mask = [sum(1 << v for v in range(n) if v != u and rng.random() < 0.4) for u in range(n)]
        for f in (1, 2):
            fresh = Engine(_out_map(out_mask), n, f)
            expected = [fresh.start_value(s) for s in range(n)]
            out = _out_map(out_mask)
            eng = Engine(out, n, f)
            for bit in out:
                out[bit] = rng.getrandbits(n) & ~bit
            assert [eng.start_value(s) for s in range(n)] == expected
            assert [eng.extract_trace(s) for s in range(n)] == [fresh.extract_trace(s) for s in range(n)]


def _first_optimal_moves(out_mask, n, f, trace):
    """Mismatches between the trace's protect sets and the first move, in
    _protect_masks order, whose successor keeps the state's value (live when
    at most f vertices are live), by a fresh uncapped engine."""
    ref = Engine(_out_map(out_mask), n, f)
    protects = [sum(1 << v for v in ev.vertices) for ev in trace.events if ev.kind == "protect"]
    live, threat = ref._burn(ref.full, 0, 1 << trace.start)
    count, mismatches = 1, []
    for t, pm in enumerate(protects, 1):
        value = ref._value(live, threat, count)
        if live.bit_count() <= f:
            first = live
        else:
            for first in _protect_masks(live, threat, f):
                spread = threat & ~first
                if not spread:
                    if value == count:
                        break
                    continue
                newlive, newthreat = ref._burn(live, first, spread)
                if ref._value(newlive, newthreat, count + spread.bit_count()) == value:
                    break
        if pm != first:
            mismatches.append((t, pm, first))
        spread = threat & ~pm
        count += spread.bit_count()
        live, threat = ref._burn(live, pm, spread)
    return mismatches


def test_witness_trace_takes_first_optimal_moves():
    graphs = [random_regular(18, 3, 0), random_regular(20, 3, 0), grid_rect(4, 5), random_regular(16, 4, 0)]
    for g in graphs:
        for f in (1, 2):
            gv = solve_undirected(g, f)
            assert _first_optimal_moves(list(g.adj_mask), g.n, f, gv.witness_trace) == [], (g.n, g.m, f)


def _pinned(mode, f, beta, start, nodes, per_start, events, orientation=None):
    """A solve's JSON minus wall_ms; events are (t, kind, vertices)."""
    obj = {
        "f": f, "mode": mode, "beta": beta, "exact": True, "witness_start": start, "nodes_explored": nodes,
        "per_start": {str(s): v for s, v in enumerate(per_start)},
        "trace": {"start": start, "f": f, "burned": beta, "events": [{"t": t, kind: vs} for t, kind, vs in events]},
    }
    if orientation is not None:
        obj["orientation"] = orientation
    return obj


_K5_BEST = [[0, 1], [0, 2], [3, 0], [4, 0], [1, 2], [1, 3], [4, 1], [2, 3], [2, 4], [3, 4]]

PINNED = {
    "grid3x4-undirected-f1": (
        lambda: solve_undirected(grid_rect(3, 4), 1),
        _pinned("undirected", 1, 7, 4, 76, [3, 4, 3, 6, 7, 6, 6, 7, 6, 3, 4, 3], [
            (1, "burn", [4]), (1, "protect", [7]), (2, "burn", [1, 3, 5]), (2, "protect", [6]),
            (3, "burn", [0, 2, 8]), (3, "protect", [11])]),
    ),
    "petersen-undirected-f2": (
        lambda: solve_undirected(petersen(), 2),
        _pinned("undirected", 2, 2, 0, 20, [2] * 10, [
            (1, "burn", [0]), (1, "protect", [1, 4]), (2, "burn", [5]), (2, "protect", [7, 8])]),
    ),
    "4reg-n10-random-f2": (
        lambda: solve_orientation(orientation_from_bits(random_regular(10, 4, 1), random.Random(0).getrandbits(20)), 2),
        _pinned("fixed", 2, 3, 1, 14, [1, 3, 2, 1, 1, 1, 1, 1, 1, 1], [
            (1, "burn", [1]), (1, "protect", [0, 4]), (2, "burn", [3, 8]), (2, "protect", [5, 9])]),
    ),
    "K5-best-f1": (
        lambda: solve_best_orientation(complete(5), 1),
        _pinned("best", 1, 2, 0, 1, [2] * 5, [
            (1, "burn", [0]), (1, "protect", [2]), (2, "burn", [1]), (2, "protect", [3])], _K5_BEST),
    ),
    "K5-best-f2": (
        lambda: solve_best_orientation(complete(5), 2),
        _pinned("best", 2, 1, 0, 1, [1] * 5, [(1, "burn", [0]), (1, "protect", [1, 2])], _K5_BEST),
    ),
    "K33-best-f1": (
        lambda: solve_best_orientation(k33(), 1),
        _pinned("best", 1, 2, 0, 4, [2, 2, 1, 1, 2, 2], [
            (1, "burn", [0]), (1, "protect", [4]), (2, "burn", [3])],
            [[0, 3], [0, 4], [5, 0], [1, 3], [4, 1], [1, 5], [2, 3], [4, 2], [5, 2]]),
    ),
    "K33-best-f2": (
        lambda: solve_best_orientation(k33(), 2),
        _pinned("best", 2, 1, 0, 1, [1] * 6, [(1, "burn", [0]), (1, "protect", [3, 4])],
                [[0, 3], [0, 4], [5, 0], [1, 3], [1, 4], [5, 1], [2, 3], [4, 2], [2, 5]]),
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_witness_pinned(name):
    # the witness is the first optimal play in the engine's protect-set order
    # (threatened vertices first), so a change to that order or to the states
    # searched moves a witness or a count here
    solve, expected = PINNED[name]
    obj = solve().to_json_obj()
    del obj["wall_ms"]
    assert obj == expected


def test_single_start_solve():
    o = orient_complete(6)
    gv = solve_orientation(o, 1, start=5)
    assert gv.beta == 1  # the sacrificed sink burns alone


def test_size_cap():
    g = random_ktree(25, 2, 0)
    with pytest.raises(SolverLimitError):
        solve_orientation(orient_ktree(g, 2), 1)
    with pytest.raises(SolverLimitError):
        solve_best_orientation(complete(8), 1)


def test_bad_game_arguments_raise_graph_error():
    with pytest.raises(GraphError, match="no vertices"):
        solve_best_orientation(Graph(0, []))
    with pytest.raises(GraphError, match="f must be"):
        solve_undirected(complete(4), f=0)
    for start in (-1, 4):
        with pytest.raises(GraphError, match="out of range"):
            solve_orientation(orient_complete(4), 1, start=start)
        with pytest.raises(GraphError, match="out of range"):
            solve_undirected(complete(4), start=start)
    for budget_ms in (-1, float("nan")):
        with pytest.raises(GraphError, match="must be non-negative"):
            solve_best_orientation(complete(5), budget_ms=budget_ms)


def test_undirected_star_centre():
    gv = solve_undirected(star(6), 1, start=0)
    assert gv.beta == 5
    assert star(6).n - gv.beta == 1  # exactly one leaf saved


def test_undirected_path_end():
    assert solve_undirected(path(5), 1, start=0).beta == 1


def test_undirected_c4():
    for s in range(4):
        assert solve_undirected(cycle(4), 1, start=s).beta == 2


def test_best_small_completes():
    assert solve_best_orientation(complete(4), 1).beta == 2
    assert solve_best_orientation(complete_bipartite(2, 2), 1).beta == 1


def test_best_k33():
    gv = solve_best_orientation(k33(), 1)
    assert gv.beta == 2  # between the density floor 2 and the one-way bound 3


def _first_optimum(g, f):
    """Best value and the first orientation attaining it, in the scan's
    enumeration order (bit 0 varies slowest), by solving every orientation."""
    def enum_key(word):
        return tuple((word >> i) & 1 for i in range(g.m))

    best, first = None, None
    for word in sorted(range(1 << g.m), key=enum_key):
        value = solve_orientation(orientation_from_bits(g, word), f, want_trace=False).beta
        if best is None or value < best:
            best, first = value, word
    return best, first


def test_best_witness_is_first_optimum():
    # the scan's passes stop at their first leaf at the target, so this is
    # what shows that no earlier orientation meets it
    fives = list(enumerate_connected(5))
    graphs = [g for n in (1, 2, 3, 4) for g in enumerate_connected(n)]
    graphs += random.Random(5).sample(fives, 120)
    for g in graphs:
        for f in (1, 2):
            gv = solve_best_orientation(g, f, want_trace=False)
            assert (gv.beta, gv.witness_orientation.direction_bits()) == _first_optimum(g, f), (g, f)


def test_best_per_start_comes_from_the_witness_leaf(monkeypatch):
    # the leaf that found the witness solved every start below its cap, so
    # no start is solved again after the scan, and the values are those of a
    # fresh solve of the witness orientation
    scanning = [False]
    start_value = Engine.start_value
    scan_orientations = firebreak.solve._scan_orientations

    def guarded(self, s):
        assert scanning[0], "a start was solved again after the scan"
        return start_value(self, s)

    def scan(*args):
        scanning[0] = True
        state = scan_orientations(*args)
        scanning[0] = False
        return state

    monkeypatch.setattr(Engine, "start_value", guarded)
    monkeypatch.setattr(firebreak.solve, "_scan_orientations", scan)
    graphs = [g for n in (1, 2, 3, 4) for g in enumerate_connected(n)]
    graphs += random.Random(6).sample(list(enumerate_connected(5)), 60) + [complete(6), k33()]
    for g in graphs:
        for f in (1, 2):
            gv = solve_best_orientation(g, f)
            scanning[0] = True
            fixed = solve_orientation(gv.witness_orientation, f)
            scanning[0] = False
            assert (gv.beta, gv.witness_start, gv.per_start, gv.witness_trace) == (
                fixed.beta, fixed.witness_start, fixed.per_start, fixed.witness_trace), (g, f)


def test_best_rejects_multigraph():
    # the prunes count arcs as distinct out-neighbours, so parallel edges
    # break them: the second graph's value at f = 1 is 1, where a scan gave 2
    for g in (Graph(2, [(0, 1)] * 3), Graph(3, [(0, 1), (1, 2), (0, 2), (0, 2), (1, 2)])):
        for f in (1, 2):
            with pytest.raises(GraphError, match="parallel edges"):
                solve_best_orientation(g, f)


def _swapped_word(g, word, a, b):
    """The edge word of the orientation of word with vertices a and b swapped."""
    swap = {a: b, b: a}
    index = {frozenset(e): i for i, e in enumerate(g.edges)}
    out = 0
    for x, y in orientation_from_bits(g, word).arcs:
        x, y = swap.get(x, x), swap.get(y, y)
        if x > y:
            out |= 1 << index[frozenset((x, y))]
    return out


def _scan_key(word, m):
    return tuple((word >> i) & 1 for i in range(m))


def _passes(comps, word):
    for i, j, flip in comps:
        bit = (word >> i) & 1
        if bit != ((word >> j) & 1) ^ flip:
            return bit == 0
    return True


# 0, 2, 4 are true twins (a triangle, each joined to 3); 1, 5, 6 are false
# twins (leaves on 3). The classes interleave, so some swaps flip edges.
_MIXED_TWINS = Graph(7, [(0, 2), (0, 4), (2, 4), (0, 3), (2, 3), (3, 4), (1, 3), (3, 5), (3, 6)])
_K33_INTERLEAVED = Graph(6, [(a, b) for a in (0, 2, 4) for b in (1, 3, 5)])


def test_twin_classes():
    assert list(_twin_comparisons(complete(5))) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    # the edge 0-1 is its own image, flipped; 0-2 and 1-2 trade places, as do 0-3 and 1-3
    assert _twin_comparisons(complete(4))[0, 1] == ((0, 0, 1), (1, 3, 0), (2, 4, 0))
    assert list(_twin_comparisons(complete_bipartite(3, 3))) == [(0, 1), (1, 2), (3, 4), (4, 5)]
    assert list(_twin_comparisons(_MIXED_TWINS)) == [(0, 2), (2, 4), (1, 5), (5, 6)]
    assert list(_twin_comparisons(_K33_INTERLEAVED)) == [(0, 2), (2, 4), (1, 3), (3, 5)]
    # classes of two give no checks
    assert list(_twin_comparisons(complete_bipartite(2, 3))) == [(2, 3), (3, 4)]
    assert _twin_comparisons(cycle(4)) == {}


def _twin_comparisons_unshortened(g):
    """_twin_comparisons as it was before it returned early: the class table
    is built for every graph."""
    classes = {}
    for u, nbrs in enumerate(g.adj_mask):
        classes.setdefault(nbrs, []).append(u)
        classes.setdefault(nbrs | 1 << u, []).append(u)
    index = {(min(u, v), max(u, v)): i for i, (u, v) in enumerate(g.edges)}
    checks = {}
    for cls in (cls for cls in classes.values() if len(cls) >= 3):
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


def test_twin_shortcut_matches_class_table():
    with_checks = 0
    for g in (g for n in range(1, 7) for g in enumerate_connected(n)):
        checks = _twin_comparisons(g)
        assert checks == _twin_comparisons_unshortened(g), g.edges
        with_checks += bool(checks)
    assert with_checks > 1000


def test_twin_checks_decide_word_against_swapped_word():
    for g in (complete(4), complete_bipartite(2, 3), _MIXED_TWINS, _K33_INTERLEAVED):
        for (a, b), comps in _twin_comparisons(g).items():
            for word in range(1 << g.m):
                expected = _scan_key(word, g.m) <= _scan_key(_swapped_word(g, word, a, b), g.m)
                assert _passes(comps, word) == expected, (g, a, b, word)


def test_twin_prune_matches_unreduced_scan(monkeypatch):
    # every connected graph with 2 to 5 vertices, and a seeded share of the
    # 6-vertex ones with twin checks (on the others both scans are one path)
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    sixes = [g for g in enumerate_connected(6) if _twin_comparisons(g)]
    graphs += random.Random(8).sample(sixes, 400)

    def scan():
        out = []
        for g in graphs:
            for f in (1, 2):
                gv = solve_best_orientation(g, f, want_trace=False)
                out.append((gv.beta, gv.witness_orientation.direction_bits(), gv.nodes_explored))
        return out

    reduced = scan()
    monkeypatch.setattr(firebreak.solve, "_twin_comparisons", lambda g: {})
    unreduced = scan()
    assert [r[:2] for r in reduced] == [u[:2] for u in unreduced]
    assert sum(r[2] for r in reduced) < sum(u[2] for u in unreduced)


def test_best_witness_trace_replays():
    gv = solve_best_orientation(complete(5), 1)
    assert replay(gv.witness_orientation, gv.witness_trace).valid
    assert gv.witness_trace.burned == gv.beta


def test_best_budget_flags_inexact():
    gv = solve_best_orientation(complete(7), 1, budget_ms=0.2)
    assert not gv.exact
    assert gv.beta >= 4


def test_best_budget_holds_under_bound_prune():
    # leaves are rare once the sub-digraph bound prunes, so the clock must
    # also be polled on bound checks. K7,7 is far from done after 500 ms, and
    # its leaves then come up to seconds apart: read only every 64 leaves, the
    # clock let the scan run on for 1.5 to 5.6 s
    t0 = time.perf_counter()
    gv = solve_best_orientation(complete_bipartite(7, 7), 1, budget_ms=500, max_edges=49, want_trace=False)
    assert not gv.exact
    assert time.perf_counter() - t0 < 2.0
    assert gv.beta >= 4  # the density floor ceil(49 / 14)


def test_best_budget_clock_read_on_bound_checks(monkeypatch, ticking_clock):
    # the test above without its dependence on machine speed: each clock read
    # advances 10 ms, so a scan that reads the clock on its bound checks stops
    # after 14 leaf and bound solves, while one that reads it only at leaves
    # runs on past the cap of 200
    solves = itertools.count(1)
    capped_values = firebreak.solve._capped_values

    def capped(*args):
        if next(solves) > 200:
            raise AssertionError("the scan ran on past its time budget")
        return capped_values(*args)

    monkeypatch.setattr(firebreak.solve, "_capped_values", capped)
    gv = solve_best_orientation(complete_bipartite(7, 7), 1, budget_ms=100, max_edges=49, want_trace=False)
    assert not gv.exact


@pytest.mark.parametrize("budget", [(0, "ticking"), (30, "ticking"), (5, "real")])
def test_best_budget_inside_empty_pass(budget, request):
    # K7,7 lies above its density floor 4, and its first pass runs for
    # seconds before it comes back empty. A budget that runs out inside it
    # leaves no witness, so the result is orientation 0 with its own value.
    # Every leaf reads the clock, so under the ticking clock a budget of
    # 10k ms allows at most k leaves
    budget_ms, clock = budget
    if clock == "ticking":
        request.getfixturevalue("ticking_clock")
    gv = solve_best_orientation(complete_bipartite(7, 7), 1, budget_ms=budget_ms, max_edges=49)
    assert not gv.exact
    assert gv.witness_orientation.direction_bits() == 0
    assert replay(gv.witness_orientation, gv.witness_trace).valid
    assert gv.witness_trace.burned == gv.beta == max(gv.per_start.values())
    if clock == "ticking":
        assert gv.nodes_explored <= budget_ms // 10 + 1


def test_density_floor_at_most_best_value(monkeypatch):
    # for f >= 2 the floor is the outdegree prune's argument. Scanned from 1
    # instead, every graph with up to 6 vertices whose floor is above 1 at
    # f = 2 or 3 keeps its value, which is at least the floor
    graphs = [g for n in range(2, 7) for g in enumerate_connected(n)]
    cases = [(g, f) for g in graphs for f in (2, 3) if density_floor(g, f) > 1]
    assert len(cases) == 121
    values = [solve_best_orientation(g, f, want_trace=False).beta for g, f in cases]
    monkeypatch.setattr(firebreak.solve, "density_floor", lambda g, f: 1)
    for (g, f), value in zip(cases, values):
        assert density_floor(g, f) <= solve_best_orientation(g, f, want_trace=False).beta == value, (g, f)


def test_best_leaf_budget_flags_inexact(ticking_clock):
    # every leaf reads the ticking clock, so 50 ms allow at most five leaves
    gv = solve_best_orientation(complete(7), 1, budget_ms=50)
    assert not gv.exact
    assert gv.nodes_explored <= 6
    assert gv.beta >= 4


def test_oracle_fixed_orientations():
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    for seed in range(25):
        rng = random.Random(seed)
        g = graphs[rng.randrange(len(graphs))]
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        assert solve_orientation(o, 1, want_trace=False).beta == naive_solve_orientation(o, 1)


def test_oracle_best_small():
    for n in (2, 3, 4):
        for g in enumerate_connected(n):
            assert solve_best_orientation(g, 1, want_trace=False).beta == naive_best_orientation(g, 1)


def test_naive_best_is_relabelling_invariant():
    # the premise of keying the naive oracle by isomorphism class
    for f, top in ((1, 5), (2, 4)):
        graphs = [g for n in range(2, top + 1) for g in enumerate_connected(n)]
        for seed in range(30):
            rng = random.Random(seed)
            g = graphs[rng.randrange(len(graphs))]
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert naive_best_orientation(h, f) == naive_best_orientation(g, f), (f, seed)


def test_oracle_suite_runs_naive_once_per_class(monkeypatch):
    import firebreak.verify as verify

    calls = []

    def counted(g, f=1):
        calls.append((f, canonical_form(g)))
        return naive_best_orientation(g, f)

    monkeypatch.setattr(verify, "naive_best_orientation", counted)
    assert verify.suite_oracle().passed
    assert len(calls) == len(set(calls))
    assert sum(f == 1 for f, _ in calls) == 31 and sum(f == 2 for f, _ in calls) == 10


def test_naive_oracle_validates_the_game():
    o = orient_complete(4)
    for f in (0, -1):
        with pytest.raises(GraphError, match="f must be"):
            naive_solve_orientation(o, f)
        with pytest.raises(GraphError, match="f must be"):
            naive_best_orientation(complete(4), f)
    for start in (7, -1):
        with pytest.raises(GraphError, match="out of range"):
            naive_solve_orientation(o, 1, start=start)
    with pytest.raises(GraphError, match="no vertices"):
        naive_best_orientation(Graph(0, []))


# The oracle as it was before its loops were tuned and its scan learnt the
# cut-off across starts, kept verbatim as the reference for the tuned one.


def reference_start_value(out_mask, n, f, burnt, protected):
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
            value = reference_start_value(out_mask, n, f, burnt | spread, protected | pm)
        else:
            value = popcount(burnt)
        if best is None or value < best:
            best = value
    return best


def reference_solve_orientation(o, f=1, start=None):
    starts = [start] if start is not None else range(o.n)
    return max(reference_start_value(o.out_mask, o.n, f, 1 << s, 0) for s in starts)


def reference_best_orientation(g, f=1):
    best = None
    for word in range(1 << g.m):
        o = orientation_from_bits(g, word)
        value = reference_solve_orientation(o, f)
        if best is None or value < best:
            best = value
    return best


def test_naive_oracle_matches_reference():
    for g in (g for n in range(1, 5) for g in enumerate_connected(n)):
        for f in (1, 2, 3):
            assert naive_best_orientation(g, f) == reference_best_orientation(g, f), (g, f)
    # random digraphs of three densities, one or two vertices burnt and a few
    # protected
    rng = random.Random(15)
    for _ in range(3000):
        n = rng.randrange(2, 8)
        density = rng.choice((0.25, 0.5, 0.75))
        out_mask = [sum(1 << w for w in range(n) if w != v and rng.random() < density) for v in range(n)]
        f = rng.randrange(1, 4)
        burnt = 1 << rng.randrange(n) | 1 << rng.randrange(n) if rng.random() < 0.3 else 1 << rng.randrange(n)
        protected = sum(1 << v for v in range(n) if not burnt >> v & 1 and rng.random() < 0.15)
        state = (out_mask, n, f, burnt, protected)
        assert naive_start_value(*state) == reference_start_value(*state), state
    # a rare state where the best first move protects a vertex the fire does
    # not yet threaten: 4 burn, against 5 when only threatened ones are tried
    state = ([112, 188, 11, 224, 162, 130, 32, 79], 8, 1, 1, 0)
    assert naive_start_value(*state) == reference_start_value(*state) == 4
    # the smallest graph where the cut-off's start order matters: a scan that
    # skips starts while it rotates them finds 2 here
    g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (4, 5)])
    assert naive_best_orientation(g, 1) == 3


def test_oracle_best_two_firefighters_up_to_n5():
    # the naive oracle once per isomorphism class, as in suite_oracle
    naive = {}
    count = 0
    for g in (g for n in range(1, 6) for g in enumerate_connected(n)):
        count += 1
        key = canonical_form(g)
        if key not in naive:
            naive[key] = naive_best_orientation(g, 2)
        assert solve_best_orientation(g, 2, want_trace=False).beta == naive[key], g
    assert (count, len(naive)) == (772, 31)


def test_oracle_two_firefighters():
    # the maximal-set dominance argument, held against full subset branching
    for g in enumerate_connected(4):
        for word in (0, (1 << g.m) - 1, 5 % (1 << g.m)):
            o = orientation_from_bits(g, word)
            assert solve_orientation(o, 2, want_trace=False).beta == naive_solve_orientation(o, 2)


def test_subgraph_monotonicity_spot_check():
    pairs = [
        (path(4), cycle(4)),
        (cycle(4), complete(4)),
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), complete(5)),
    ]
    for h, g in pairs:
        bh = solve_best_orientation(h, 1, want_trace=False).beta
        bg = solve_best_orientation(g, 1, want_trace=False).beta
        assert bh <= bg


def test_nodes_and_time_reported():
    gv = solve_best_orientation(complete(5), 1)
    assert gv.nodes_explored > 0
    assert gv.wall_ms >= 0


def test_degree_four_regular_bound():
    for seed in range(3):
        g = random_regular(12, 4, seed)
        o = orient_bounded_degree(g, 4)
        assert solve_orientation(o, 1, want_trace=False).beta <= 5


def test_degree_five_regular_bound():
    g = random_regular(12, 5, 1)
    o = orient_bounded_degree(g, 5)
    assert solve_orientation(o, 1, want_trace=False).beta <= 17


def test_json_shape():
    gv = solve_best_orientation(complete(4), 1)
    obj = gv.to_json_obj()
    assert obj["mode"] == "best" and obj["beta"] == 2 and obj["exact"] is True
    assert len(obj["orientation"]) == 6
    assert obj["trace"]["burned"] == 2


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence_property(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 6)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if rng.random() < 0.6]
    g = Graph(n, edges)
    o = orientation_from_bits(g, rng.randrange(1 << max(g.m, 1)))
    assert solve_orientation(o, 1, want_trace=False).beta == naive_solve_orientation(o, 1)


def _check_capped_engine(out_mask, n, f):
    # One engine per cap answers every start, ascending then descending, so
    # later starts meet states that earlier ones searched up to the cap and
    # left unstored.
    naive = [naive_start_value(out_mask, n, f, 1 << s, 0) for s in range(n)]
    for cap in range(1, n + 2):
        eng = Engine(_out_map(out_mask), n, f, cap=cap)
        for s in [*range(n), *reversed(range(n))]:
            assert eng.start_value(s) == min(naive[s], cap), (out_mask, f, cap, s)


def test_oracle_capped_engine_reused():
    rng = random.Random(7)
    for g in (g for n in range(2, 6) for g in enumerate_connected(n)):
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        for f in (1, 2):
            _check_capped_engine(o.out_mask, g.n, f)


def test_capped_engine_searches_a_marked_state_again():
    # From 0 the fire threatens {5, 6, 7}, with {8, 9, 10} behind, in the same
    # (live, threat) state along two plays: protect 1, then 3 (burnt 0, 2, 4)
    # or protect 2 (burnt 0, 1). The first is searched first, and under caps
    # 6 and 7 it leaves the state at the cap; the second must search it again.
    arcs = [(0, 1), (0, 2), (2, 3), (2, 4)]
    arcs += [(u, x) for u in (1, 3, 4) for x in (5, 6, 7)] + [(x, y) for x in (5, 6, 7) for y in (8, 9, 10)]
    o = Orientation(Graph(11, arcs), arcs)
    _check_capped_engine(o.out_mask, o.n, 1)


def test_oracle_per_start_six_vertices():
    sixes = random.Random(11).sample(list(enumerate_connected(6)), 40)
    rng = random.Random(12)
    for g in sixes:
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        for f in (1, 2, 3):
            gv = solve_orientation(o, f, want_trace=False)
            naive = {s: naive_start_value(o.out_mask, g.n, f, 1 << s, 0) for s in range(g.n)}
            assert gv.per_start == naive, (g, o.arcs, f)
