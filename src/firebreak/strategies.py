"""Named defence strategies.

Each defence is a function from a ``FireState`` to its protections. Each
scripted one is tied to the orientation family it was designed for and reads
the construction details from ``Orientation.meta``; on any other orientation
it degrades to the greedy baseline.
"""

from __future__ import annotations

from functools import wraps
from itertools import islice

from .graphs import GraphError, Orientation, bits, layers, mask_of, popcount
from .game import FireState, Strategy, scripted


def _meta_field(o: Orientation, field: str, kind: type):
    """``o.meta[field]`` as read by the strategy built for the orientation's
    scheme: a positive int of at most the vertex count when ``kind`` is
    int, otherwise a list. Meta read from a file may lack the field or hold
    another type or a larger int; that raises GraphError naming the scheme
    and the field. No scheme's int exceeds the vertex count, and a larger
    one would fail deeper down with a message that names neither."""
    value = o.meta.get(field)
    above = ""
    if kind is int:
        ok, noun = type(value) is int and value >= 1, "a positive integer"
        if ok and value > o.n:
            ok, above = False, f" of at most {o.n}"
    else:
        ok, noun = isinstance(value, (list, tuple)), "a list"
    if not ok:
        raise GraphError(f"orientation meta of scheme {o.meta.get('scheme')!r} needs {noun} {field!r}{above}")
    return value


def greedy_outdeg(state: FireState) -> list[int]:
    """Protect the f frontier vertices with the largest unprotected
    out-reach, lowest id first among ties."""
    om = state.orientation.out_mask
    free = state.free()
    ranked = sorted(bits(state.frontier()), key=lambda v: (-popcount(om[v] & free), v))
    return ranked[: state.f]


def _layer(o: Orientation, source: int, d: int) -> list[int]:
    """The vertices at distance exactly d from ``source`` along the arcs, in
    ascending id; the search of ``layers`` stops at depth d."""
    return list(bits(next(islice(layers(o.out_mask, 1 << source), d, None), 0)))


def _from_script(build) -> Strategy:
    """The defence that plays the script ``build`` returns, which the
    orientation, the start and f fix for a whole game: ``build`` returns the
    script, or at least its entry for ``state.time``, or None where the
    script does not apply, and the greedy rule plays instead. The script is
    built again on each call, so no state outlives a call."""

    @wraps(build)
    def play(state: FireState) -> list[int]:
        script = build(state)
        if script is None:
            return greedy_outdeg(state)
        chosen = [
            v for v in script.get(state.time, [])
            if not ((state.burnt | state.protected) >> v) & 1
        ]
        return chosen[: state.f]

    return play


@_from_script
def layer(state):
    """Protect one vertex at distance t from the start at each time t, which
    saves at least ecc(start) vertices overall."""
    return {state.time: _layer(state.orientation, state.start, state.time)}


@_from_script
def complete_cyclic(state):
    """The three-wave blocking schedule for the cyclic tournament on K_n.

    With h = (n-1)/2 outgoing arcs per vertex, protect the top f consecutive
    out-neighbours, then the top f of the second wave, then the f vertices
    that close the ring; 1, 1 + (h-f), or n - 3f vertices burn depending on
    how f compares with h/2 and h.
    """
    o = state.orientation
    if o.meta.get("scheme") != "complete":
        return None
    order = list(_meta_field(o, "order", list))
    if not (all(type(v) is int for v in order) and sorted(order) == list(range(o.n))):
        raise GraphError("orientation meta of scheme 'complete' needs each vertex once in 'order'")
    sink = o.meta.get("sink")
    if sink is not None and (type(sink) is not int or sink not in order):
        raise GraphError("orientation meta of scheme 'complete' needs a vertex or null as 'sink'")
    f = state.f
    start = state.start
    if sink is not None:
        if start == sink:
            return {}
        ring = [v for v in order if v != sink]
        if f >= len(order) // 2:
            # f covers the cyclic outs and the sink: stop at once
            h = (len(ring) - 1) // 2
            pos = ring.index(start)
            first = [ring[(pos + j) % len(ring)] for j in range(1, h + 1)]
            return {1: sorted(first + [sink])}
        return _odd_script(ring, ring.index(start), f)
    return _odd_script(order, order.index(start), f)


def _odd_script(ring: list[int], pos: int, f: int) -> dict[int, list[int]]:
    """The three waves on the cyclic tournament of the odd ``ring``, for the
    fire starting at ``ring[pos]``."""
    n = len(ring)
    h = (n - 1) // 2
    rel = lambda lo, hi: [ring[(pos + j) % n] for j in range(lo, hi + 1)]
    if f >= h:
        return {1: rel(1, h)}
    if 2 * f >= h:
        return {1: rel(h - f + 1, h), 2: rel(h + 1, 2 * h - f)}
    return {
        1: rel(h - f + 1, h),
        2: rel(2 * h - 2 * f + 1, 2 * h - f),
        3: rel(2 * h - f + 1, 2 * h),
    }


@_from_script
def ktree_anticipate(state):
    """Protect the burn wave that is ceil(k/f) units away instead of the
    vertices next to the fire; by the time that wave is reached it is fully
    protected and the fire dies against it."""
    if state.orientation.meta.get("scheme") != "ktree":
        return None
    k = _meta_field(state.orientation, "k", int)
    arrival = -(-k // state.f)  # ceil(k/f)
    wave = _layer(state.orientation, state.start, arrival)
    # each time protects at least one vertex of the wave until none is free
    return {t: wave for t in range(1, len(wave) + 1)}


def subcubic(state: FireState) -> list[int]:
    """Block the outgoing cycle arc first; the path or bridge arc then leads
    to a vertex of outdegree at most one, which is blocked next."""
    o = state.orientation
    if o.meta.get("labels") is None:
        return greedy_outdeg(state)
    free = state.free()
    if state.time == 1:
        labels = _meta_field(o, "labels", list)
        if len(labels) != len(o.arcs) or not set(map(type, labels)) <= {str}:
            raise GraphError(
                f"orientation meta of scheme {o.meta.get('scheme')!r} needs one string per arc in 'labels'"
            )
        outs = o.out_mask[state.start] & free
        if popcount(outs) <= state.f:
            return list(bits(outs))
        cycle_heads = mask_of(
            h for (t, h), label in zip(o.arcs, labels) if t == state.start and label == "cycle"
        )
        return list(bits(cycle_heads & free))[: state.f] or list(bits(outs))[: state.f]
    targets = 0
    for v in bits(state.last_burned):
        targets |= o.out_mask[v]
    return list(bits(targets & free))[: state.f]


def bipartite(state: FireState) -> list[int]:
    """Protect f out-neighbours of the start; on the one-way orientation the
    remaining out-neighbours are sinks."""
    if state.time == 1:
        outs = state.orientation.out_mask[state.start] & state.free()
        return list(bits(outs))[: state.f]
    return greedy_outdeg(state)


@_from_script
def grid_rect(state):
    """Steer the fire of a rectangular grid into the first protected vertex:
    block the row arc, then the column arc two ahead, then the row arc of the
    third burning vertex, whose column arc points at the first block."""
    o = state.orientation
    if o.meta.get("scheme") != "grid-rect":
        return None
    w = _meta_field(o, "w", int)
    start = state.start

    def row_out(v):
        return next((x for x in bits(o.out_mask[v]) if x // w == v // w), None)

    def col_out(v):
        return next((x for x in bits(o.out_mask[v]) if x % w == v % w), None)

    h1 = row_out(start)
    v1 = col_out(start)
    if h1 is None or v1 is None:
        return None
    v2 = col_out(v1)
    x = row_out(v1)
    if v2 is None or x is None:
        return None
    x2 = row_out(x)
    if x2 is None:
        return None
    return {1: [h1], 2: [v2], 3: [x2]}


@_from_script
def grid_tri(state):
    """Triangular grid schedule: block the row arc, then outrun the burning
    pairs in the two sink rows one step ahead of their spread."""
    o = state.orientation
    if o.meta.get("scheme") != "grid-tri":
        return None
    w, h = _meta_field(o, "w", int), _meta_field(o, "h", int)
    start = state.start
    r, c = divmod(start, w)
    if r % 2 == 0:
        # sink row: single out-neighbour along the row
        return {1: [start + 1]} if c + 1 < w else {}
    if not (0 < r < h - 1 and c + 3 < w):
        return None
    up_right = (r - 1) * w + (c + 2)
    down_right = (r + 1) * w + (c + 3)
    return {1: [start + 1], 2: [up_right], 3: [down_right]}


STRATEGIES = {
    "greedy-outdeg": greedy_outdeg,
    "layer": layer,
    "complete-cyclic": complete_cyclic,
    "ktree-anticipate": ktree_anticipate,
    "subcubic": subcubic,
    "bipartite": bipartite,
    "grid-rect": grid_rect,
    "grid-tri": grid_tri,
    "scripted": scripted,
}


def make_strategy(name: str, **params) -> Strategy:
    """The registered defence of that name; ``scripted`` is built from
    ``params``."""
    try:
        fn = STRATEGIES[name]
    except KeyError:
        raise GraphError(f"unknown strategy '{name}'") from None
    return scripted(**params) if fn is scripted else fn
