"""Fire spread simulation under a defence strategy.

A strategy is a plain function from the ``FireState`` it is handed to the
vertices it protects; ``scripted`` builds one from explicit protect sets.

Time starts at 1 when the fire breaks out. Within each time unit the burn
happens first, then up to f protections; the next unit's spread sends fire
along arcs from every burning vertex to each unprotected head. The game ends
as soon as a spread step adds nothing.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Optional

from .graphs import GraphError, Orientation, bits, popcount


class StrategyFault(ValueError):
    """A strategy returned an illegal protection."""

    def __init__(self, message: str, vertex: int, time: int):
        super().__init__(f"time {time}: {message} (vertex {vertex})")
        self.vertex = vertex
        self.time = time


@dataclass
class TraceEvent:
    t: int
    kind: str  # "burn" or "protect"
    vertices: tuple[int, ...]


@dataclass
class FireTrace:
    """Timestamped record of one play-through."""

    start: int
    f: int
    events: list[TraceEvent]
    burned: int

    def burned_vertices(self) -> tuple[int, ...]:
        out = []
        for ev in self.events:
            if ev.kind == "burn":
                out.extend(ev.vertices)
        return tuple(out)

    def to_json_obj(self) -> dict:
        events = [{"t": ev.t, ev.kind: list(ev.vertices)} for ev in self.events]
        return {"start": self.start, "f": self.f, "events": events, "burned": self.burned}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FireTrace":
        events = []
        for item in obj["events"]:
            kind = "burn" if "burn" in item else "protect"
            events.append(TraceEvent(t=item["t"], kind=kind, vertices=tuple(item[kind])))
        return cls(start=obj["start"], f=obj["f"], events=events, burned=obj["burned"])


@dataclass
class FireState:
    """Game state handed to strategies: full information, bitmask sets."""

    orientation: Orientation
    f: int
    time: int
    start: int
    burnt: int
    protected: int
    last_burned: int
    threat: int  # out-neighbours of the burnt set

    def free(self) -> int:
        """Vertices that may still be protected."""
        return ~(self.burnt | self.protected) & ((1 << self.orientation.n) - 1)

    def frontier(self) -> int:
        """Unprotected unburnt out-neighbours of the burning set."""
        return self.threat & self.free()


# a defence: a pure function from a state to at most f protections
Strategy = Callable[[FireState], list[int]]


def scripted(script: dict[int, list[int]]) -> Strategy:
    """The defence that plays explicit per-time protect sets. Times may be
    ints or the decimal strings JSON gives as keys; vertices must be ints,
    not bools. A key too long for int() (Python caps the digits it
    converts) is not an integer either, and messages shorten long keys."""
    if not isinstance(script, dict):
        raise GraphError("a script maps times to lists of vertices")
    plan = {}
    for t, vs in script.items():
        shown = f"{t[:20]}..." if isinstance(t, str) and len(t) > 20 else t
        time = t if type(t) is int else None
        if isinstance(t, str) and t.removeprefix("-").isdecimal():
            with suppress(ValueError):  # more digits than int() converts
                time = int(t)
        if time is None:
            raise GraphError(f"script time {shown!r} is not an integer")
        if not isinstance(vs, list) or not all(type(v) is int for v in vs):
            raise GraphError(f"script time {shown!r} must map to a list of vertices")
        plan[time] = list(vs)
    return lambda state: plan.get(state.time, [])


def check_game(n: int, f: int, start: Optional[int] = None) -> None:
    """Raise GraphError unless a game on n vertices with f protections per
    step (and the given fire start, if any) is well defined."""
    if n < 1:
        raise GraphError("the graph has no vertices")
    if f < 1:
        raise GraphError("f must be at least 1")
    if start is not None and not 0 <= start < n:
        raise GraphError(f"start {start} is out of range 0..{n - 1}")


def simulate(o: Orientation, start: int, f: int, strategy: Strategy) -> FireTrace:
    """Play one game; raises StrategyFault on an illegal protection."""
    n = o.n
    check_game(n, f, start)
    om = o.out_mask
    burnt = 1 << start
    protected = 0
    events = [TraceEvent(1, "burn", (start,))]
    threat = om[start]
    spread = burnt
    t = 1
    while True:
        state = FireState(
            orientation=o, f=f, time=t, start=start,
            burnt=burnt, protected=protected, last_burned=spread, threat=threat,
        )
        chosen = list(strategy(state))
        if len(chosen) > f:
            raise StrategyFault("more protections than firefighters", chosen[f], t)
        pm = 0
        for p in chosen:
            if not 0 <= p < n:
                raise StrategyFault("protection out of range", p, t)
            if (burnt >> p) & 1:
                raise StrategyFault("protecting a burning vertex", p, t)
            if ((protected | pm) >> p) & 1:
                raise StrategyFault("protecting an already protected vertex", p, t)
            pm |= 1 << p
        if pm:
            protected |= pm
            events.append(TraceEvent(t, "protect", tuple(sorted(bits(pm)))))
        spread = threat & ~(burnt | protected)
        if not spread:
            break
        t += 1
        events.append(TraceEvent(t, "burn", tuple(sorted(bits(spread)))))
        burnt |= spread
        for v in bits(spread):
            threat |= om[v]
    return FireTrace(start=start, f=f, events=events, burned=popcount(burnt))


@dataclass
class ReplayResult:
    valid: bool
    time: Optional[int] = None
    reason: str = ""


def replay(o: Orientation, trace: FireTrace) -> ReplayResult:
    """Check a trace against the game's rules: play its protect events
    through simulate and compare the play with the trace, event by event and
    in the burned total. Every rule simulate enforces holds, the at-most-f
    limit among them; time is the first time at which the trace departs from
    the play."""
    n = o.n
    recorded: dict[tuple[str, int], tuple[int, ...]] = {}
    for ev in trace.events:
        if any(not 0 <= v < n for v in ev.vertices):
            return ReplayResult(False, ev.t, "vertex out of range")
        if (ev.kind, ev.t) in recorded:
            return ReplayResult(False, ev.t, f"duplicate {ev.kind} event")
        recorded[ev.kind, ev.t] = tuple(sorted(ev.vertices))
    if recorded.get(("burn", 1)) != (trace.start,):
        return ReplayResult(False, 1, "first burn event must be the start vertex")
    script = {t: list(vs) for (kind, t), vs in recorded.items() if kind == "protect"}
    fault = None
    try:
        play = simulate(o, trace.start, trace.f, scripted(script))
    except StrategyFault as exc:
        # the play is legal up to the faulty protection: play that much
        fault = exc
        early = {t: vs for t, vs in script.items() if t < exc.time}
        play = simulate(o, trace.start, trace.f, scripted(early))
    except GraphError as exc:
        return ReplayResult(False, 1, str(exc))
    played = {(ev.kind, ev.t): ev.vertices for ev in play.events}
    departs = [(t, kind) for kind, t in recorded.keys() | played.keys()
               if recorded.get((kind, t), ()) != played.get((kind, t), ())]
    if departs:
        t, kind = min(departs)
        if fault is not None and (t, kind) == (fault.time, "protect"):
            return ReplayResult(False, t, str(fault))
        return ReplayResult(False, t, f"{kind} event departs from the play")
    if play.burned != trace.burned:
        return ReplayResult(False, max(t for _, t in recorded), "burned total does not match")
    return ReplayResult(True)
