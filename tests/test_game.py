import hashlib
import json

import pytest

from firebreak.families import (
    complete,
    complete_bipartite,
    cycle,
    path_power,
    petersen,
    random_regular,
    random_tree,
)
from firebreak.game import FireTrace, StrategyFault, TraceEvent, replay, simulate
from firebreak.graphs import Graph, GraphError, Orientation, radius
from firebreak.orient import (
    orient_bipartite,
    orient_complete,
    orient_grid,
    orient_half,
    orient_ktree,
    orient_subcubic,
    orient_tree,
    orient_unicyclic,
)
from firebreak.solve import solve_orientation
from firebreak.strategies import STRATEGIES, make_strategy


def test_directed_cycle_greedy_one_burn():
    o = orient_unicyclic(cycle(5))
    trace = simulate(o, 0, 1, make_strategy("greedy-outdeg"))
    assert trace.burned == 1
    assert replay(o, trace).valid


def test_complete_five_scripted_two_burn():
    o = orient_complete(5)
    trace = simulate(o, 0, 1, make_strategy("complete-cyclic"))
    assert trace.burned == 2


def test_tree_any_strategy_one_burn():
    o = orient_tree(random_tree(20, 7), root=0)
    for name in ("greedy-outdeg", "layer", "subcubic"):
        for start in (0, 5, 13):
            assert simulate(o, start, 1, make_strategy(name)).burned == 1


@pytest.mark.parametrize(
    "n,f,expected",
    [(5, 1, 2), (7, 1, 4), (9, 1, 6), (9, 2, 3), (13, 2, 7), (11, 5, 1),
     (6, 1, 3), (8, 1, 5), (10, 2, 4), (8, 3, 2), (8, 4, 1)],
)
def test_complete_cyclic_piecewise_values(n, f, expected):
    o = orient_complete(n)
    worst = max(simulate(o, s, f, make_strategy("complete-cyclic")).burned for s in range(n))
    assert worst == expected


def test_layer_strategy_radius_guarantee():
    for o in (orient_complete(7), orient_unicyclic(cycle(8)), orient_half(petersen())):
        rad = radius(o)
        if rad == float("inf"):
            continue
        for s in range(o.n):
            trace = simulate(o, s, 1, make_strategy("layer"))
            assert trace.burned <= o.n - rad


def test_greedy_with_enough_firefighters_one_burn():
    for g in (complete(6), petersen()):
        o = orient_half(g)
        f = o.max_out_degree()
        for s in range(g.n):
            assert simulate(o, s, f, make_strategy("greedy-outdeg")).burned == 1


def test_strategies_never_beat_solver():
    o = orient_subcubic(petersen())
    best = solve_orientation(o, 1).per_start
    for name in ("greedy-outdeg", "layer", "subcubic"):
        for s in range(o.n):
            assert simulate(o, s, 1, make_strategy(name)).burned >= best[s]


def _registry_strategy(name):
    return make_strategy(name, script={}) if name == "scripted" else make_strategy(name)


def _scheme_orientations():
    return [
        orient_complete(6),
        orient_subcubic(petersen()),
        orient_bipartite(complete_bipartite(3, 4)),
        orient_ktree(path_power(10, 2), 2),
        orient_grid("rect", 5, 5),
        orient_grid("tri", 5, 5),
    ]


def test_replay_round_trip_all_registry_strategies():
    for o in _scheme_orientations():
        for name in STRATEGIES:
            for start in range(0, o.n, 3):
                trace = simulate(o, start, 1, _registry_strategy(name))
                assert replay(o, trace).valid, (name, start)


# sha256 of the JSON list of every play below, in loop order
PLAYS_PIN = "5a8acb21ae23b53ffc9e5d76f14729445766bb1c03658221a4da8b69690cde0e"


def test_plays_match_pinned_digest():
    # every registry strategy from every start of the scheme orientations
    # plus K9 and the 9 x 9 grid, at f = 1..3: a change that alters any one
    # play moves the digest, and so would state kept from one game to the
    # next, since each registry function plays every start in turn
    plays = [
        simulate(o, start, f, _registry_strategy(name)).to_json_obj()
        for o in _scheme_orientations() + [orient_complete(9), orient_grid("rect", 9, 9)]
        for name in STRATEGIES
        for f in (1, 2, 3)
        for start in range(o.n)
    ]
    assert len(plays) == 4671
    digest = hashlib.sha256(json.dumps(plays, sort_keys=True).encode()).hexdigest()
    assert digest == PLAYS_PIN


def test_strategies_on_parallel_arcs():
    # out-neighbourhoods are sets: a head reached by two parallel arcs is
    # protected once, while the degree counts keep both arcs
    doubled = Orientation(Graph(3, [(0, 1), (0, 1), (1, 2)]), [(0, 1), (0, 1), (1, 2)])
    subcubic = orient_subcubic(Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)]))
    for o in (doubled, subcubic):
        for name in STRATEGIES:
            for f in (1, 2, 3):
                for start in range(o.n):
                    trace = simulate(o, start, f, _registry_strategy(name))
                    assert replay(o, trace).valid, (name, f, start)
    assert [doubled.out_degree(v) for v in range(3)] == [2, 1, 0]
    assert [doubled.in_degree(v) for v in range(3)] == [0, 2, 1]
    assert doubled.max_out_degree() == 2
    assert sum(subcubic.out_degree(v) for v in range(4)) == 5
    assert subcubic.max_out_degree() == max(subcubic.out_degree(v) for v in range(4))


def test_monotone_burning():
    o = orient_complete(7)
    trace = simulate(o, 0, 1, make_strategy("greedy-outdeg"))
    seen = set()
    for ev in trace.events:
        if ev.kind == "burn":
            assert not (seen & set(ev.vertices))
            seen.update(ev.vertices)
    assert len(seen) == trace.burned


def test_ktree_anticipate_on_path_power():
    g = path_power(15, 2)
    o = orient_ktree(g, 2)
    worst = max(simulate(o, s, 1, make_strategy("ktree-anticipate")).burned for s in range(g.n))
    assert worst <= 1 + 2 * (2 - 1)


def test_bipartite_strategy_guarantee():
    for p, q in ((2, 3), (4, 4), (3, 5)):
        g = complete_bipartite(p, q)
        o = orient_bipartite(g)
        for f in (1, 2):
            worst = max(simulate(o, s, f, make_strategy("bipartite")).burned for s in range(g.n))
            assert worst <= max(1, 1 + min(p, q) - f)


def test_subcubic_strategy_bound():
    for seed in range(5):
        g = random_regular(12, 3, seed)
        o = orient_subcubic(g)
        for s in range(g.n):
            assert simulate(o, s, 1, make_strategy("subcubic")).burned <= 2


def test_grid_strategies():
    o = orient_grid("rect", 9, 9)
    for r in range(3, 6):
        for c in range(3, 6):
            assert simulate(o, r * 9 + c, 1, make_strategy("grid-rect")).burned == 3
    o = orient_grid("tri", 9, 9)
    for r in range(3, 6):
        for c in range(3, 6):
            assert simulate(o, r * 9 + c, 1, make_strategy("grid-tri")).burned <= 6


def test_scripted_figure_replay():
    # the worked 8-vertex example: two protections steer the fire into three burns
    g = Graph(8, [(0, 1), (1, 2), (2, 4), (3, 4), (2, 3), (3, 1), (0, 5), (5, 7), (5, 6), (6, 7)])
    arcs = tuple(g.edges)
    o = Orientation(g, arcs)
    trace = simulate(o, 0, 1, make_strategy("scripted", script={1: [1], 2: [6]}))
    assert trace.burned == 3
    burns = [(ev.t, ev.vertices) for ev in trace.events if ev.kind == "burn"]
    assert burns == [(1, (0,)), (2, (5,)), (3, (7,))]
    assert replay(o, trace).valid


def test_tree_figure_trace_valid():
    # star of stars, all arcs towards the root; protecting the root saves everything
    edges = [(i, 0) for i in (1, 2, 3)]
    edges += [(3 * i + j, i) for i in (1, 2, 3) for j in (1, 2, 3)]
    g = Graph(13, [tuple(sorted(e)) for e in edges])
    o = orient_tree(g, root=0)
    trace = FireTrace(
        start=1, f=1,
        events=[TraceEvent(1, "burn", (1,)), TraceEvent(1, "protect", (0,))],
        burned=1,
    )
    assert replay(o, trace).valid


def test_replay_rejects_protecting_burnt():
    o = orient_complete(5)
    bad = FireTrace(
        start=0, f=1,
        events=[TraceEvent(1, "burn", (0,)), TraceEvent(1, "protect", (0,))],
        burned=1,
    )
    result = replay(o, bad)
    assert not result.valid and result.time == 1


def test_replay_rejects_wrong_spread():
    o = orient_complete(5)
    bad = FireTrace(
        start=0, f=1,
        events=[TraceEvent(1, "burn", (0,)), TraceEvent(2, "burn", (3,))],
        burned=2,
    )
    result = replay(o, bad)
    assert not result.valid and result.time == 2


def test_replay_rejects_more_than_f_protections():
    o = orient_complete(5)
    trace = simulate(o, 0, 2, make_strategy("greedy-outdeg"))
    assert replay(o, trace).valid
    assert [ev.vertices for ev in trace.events if ev.kind == "protect"] == [(1, 2)]
    trace.f = 1
    result = replay(o, trace)
    assert not result.valid and result.time == 1
    assert "more protections than firefighters" in result.reason


def test_replay_rejects_burn_after_the_end():
    # the game ends at time 1, so no burn event may follow, however late
    o = orient_complete(5)
    trace = simulate(o, 0, 2, make_strategy("greedy-outdeg"))
    trace.events.append(TraceEvent(3, "burn", (4,)))
    result = replay(o, trace)
    assert not result.valid and result.time == 3


def test_replay_time_is_first_departure():
    # a protection that comes a step late lets the fire through first
    o = orient_complete(5)
    trace = simulate(o, 0, 1, make_strategy("scripted", script={1: [1]}))
    late = FireTrace(
        start=0, f=1,
        events=[ev if ev.kind == "burn" else TraceEvent(ev.t + 1, "protect", ev.vertices)
                for ev in trace.events],
        burned=trace.burned,
    )
    result = replay(o, late)
    assert not result.valid and result.time == 2
    assert result.reason == "burn event departs from the play"


def test_make_strategy_returns_the_registry_function():
    assert all(make_strategy(name) is fn for name, fn in STRATEGIES.items() if name != "scripted")
    with pytest.raises(GraphError, match="unknown strategy 'nope'"):
        make_strategy("nope")


def test_strategy_fault_on_illegal_protection():
    o = orient_complete(5)
    with pytest.raises(StrategyFault):
        simulate(o, 0, 1, lambda state: [state.start])


def test_trace_json_round_trip():
    o = orient_complete(5)
    trace = simulate(o, 0, 1, make_strategy("complete-cyclic"))
    obj = trace.to_json_obj()
    assert obj["events"][0] == {"t": 1, "burn": [0]}
    text = json.dumps(obj)
    back = FireTrace.from_json_obj(json.loads(text))
    assert back == trace


def _reference_simulate(o, start, f, protect_plan):
    """Independent re-derivation of the game loop with plain sets: burn at
    unit 1, then protect up to f legal requests, then spread to unprotected
    arc heads, until a spread adds nothing. Returns the burned count and the
    requests it accepted per unit."""
    burnt = {start}
    protected = set()
    accepted = {}
    t = 1
    while True:
        for p in protect_plan.get(t, []):
            if p not in burnt and p not in protected and len(accepted.get(t, [])) < f:
                protected.add(p)
                accepted.setdefault(t, []).append(p)
        spread = set()
        for tail, head in o.arcs:
            if tail in burnt and head not in burnt and head not in protected:
                spread.add(head)
        if not spread:
            return len(burnt), accepted
        burnt |= spread
        t += 1


def test_simulate_matches_independent_reference():
    import random

    from firebreak.graphs import orientation_from_bits

    for trial in range(200):
        rng = random.Random(trial)
        n = rng.randrange(3, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = Graph(n, sorted(pairs[: rng.randrange(1, len(pairs) + 1)]))
        o = orientation_from_bits(g, rng.randrange(1 << g.m))
        start = rng.randrange(n)
        f = rng.choice((1, 2))
        wishes = {t: rng.sample(range(n), rng.randrange(0, f + 1)) for t in range(1, n + 2)}
        burned_ref, accepted = _reference_simulate(o, start, f, wishes)
        trace = simulate(o, start, f, make_strategy("scripted", script=accepted))
        assert trace.burned == burned_ref, (g.edges, o.arcs, start, f, accepted)
