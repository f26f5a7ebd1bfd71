"""Fire spread simulation under a defence strategy.

Time starts at 1 when the fire breaks out. Within each time unit the burn
happens first, then up to f protections; the next unit's spread sends fire
along arcs from every burning vertex to each unprotected head. The game ends
as soon as a spread step adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import GraphError, Orientation, bits, mask_of, popcount


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

    def free(self) -> int:
        """Vertices that may still be protected."""
        return ~(self.burnt | self.protected) & ((1 << self.orientation.n) - 1)

    def frontier(self) -> int:
        """Unprotected unburnt out-neighbours of the burning set."""
        om = self.orientation.out_mask
        reach = 0
        for v in bits(self.burnt):
            reach |= om[v]
        return reach & self.free()


class Strategy:
    """Decision rule mapping a state to at most f protections.

    Instances are single-use per simulation: subclasses may cache layerings
    or scripts derived from the first state they see.
    """

    name = "strategy"

    def decide(self, state: FireState) -> list[int]:
        raise NotImplementedError


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
    t = 1
    while True:
        state = FireState(
            orientation=o, f=f, time=t, start=start,
            burnt=burnt, protected=protected,
            last_burned=mask_of(events[-1].vertices) if events[-1].kind == "burn" else 0,
        )
        chosen = list(strategy.decide(state))
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
    """Recompute the spread from a trace's protect events and check that the
    recorded burn events match exactly."""
    n = o.n
    burns: dict[int, tuple[int, ...]] = {}
    protects: dict[int, tuple[int, ...]] = {}
    for ev in trace.events:
        if any(not 0 <= v < n for v in ev.vertices):
            return ReplayResult(False, ev.t, "vertex out of range")
        store = burns if ev.kind == "burn" else protects
        if ev.t in store:
            return ReplayResult(False, ev.t, f"duplicate {ev.kind} event")
        store[ev.t] = ev.vertices
    if burns.get(1) != (trace.start,):
        return ReplayResult(False, 1, "first burn event must be the start vertex")
    om = o.out_mask
    burnt = 1 << trace.start
    protected = 0
    threat = om[trace.start]
    t = 1
    last_t = max(list(burns) + list(protects))
    while True:
        for p in protects.get(t, ()):
            if (burnt >> p) & 1:
                return ReplayResult(False, t, "protecting a burning vertex")
            if (protected >> p) & 1:
                return ReplayResult(False, t, "protecting twice")
            protected |= 1 << p
        spread = threat & ~(burnt | protected)
        expected = tuple(sorted(burns.get(t + 1, ())))
        if not spread:
            if expected:
                return ReplayResult(False, t + 1, "trace burns where fire cannot spread")
            break
        if expected != tuple(sorted(bits(spread))):
            return ReplayResult(False, t + 1, "burn event does not match the spread")
        burnt |= spread
        for v in bits(spread):
            threat |= om[v]
        t += 1
    if popcount(burnt) != trace.burned:
        return ReplayResult(False, last_t, "burned total does not match")
    if any(tt > t for tt in protects):
        return ReplayResult(False, min(tt for tt in protects if tt > t), "protect event after the game ended")
    return ReplayResult(True)
