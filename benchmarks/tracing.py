"""Spans around the public functions of firebreak's layers, for the traced run.

``traced(tracer)`` rebinds a fixed list of public functions of
``firebreak.families``, ``solve``, ``bounds``, ``structure`` and ``game`` to
wrappers that record one span per call, in the defining module and in every
firebreak module that imported the same function object. Leaving the block
restores the originals, so an untraced pass runs unwrapped code. Nothing under
``src/`` changes.

A span is (name, start, end, parent, job, count). ``count`` holds
``nodes_explored`` for solver calls and 1 for each graph the enumeration
yields. Spans stay in memory in flat arrays and are written out once, when the
run ends. ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

# The layer entry points that get spans. The naive oracle is left out on
# purpose: it recurses through its own module-level name, so a span per call
# would swamp it. verify.oracle-equivalence_ms stands in for it.
TRACED = {
    "families": ("enumerate_connected",),
    "solve": ("solve_best_orientation", "solve_orientation", "solve_undirected"),
    "bounds": ("check_sandwich", "lower_bounds", "upper_bounds", "classify_b1"),
    "structure": ("greedy_colouring", "exact_colouring", "forest_peel", "min_fvs", "ktree_structure"),
    "game": ("replay", "simulate"),
}
GENERATORS = {"families.enumerate_connected"}
COUNTED = {"solve.solve_best_orientation", "solve.solve_orientation", "solve.solve_undirected"}

# Benchmark-level spans: one per job run and one per output check.
JOB = "bench.job"
CHECK = "bench.check"


class Tracer:
    """In-memory span store. Not thread-safe; the benchmark is serial."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.count = array("q")
        self.stack: list[int] = []
        self.current_job = -1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.count.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        self.end[idx] = self.clock()
        self.count[idx] = count
        self.stack.pop()

    def write(self, path, job_names: list[str]) -> None:
        """Write every span as columns, times in microseconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "jobs": job_names,
            "columns": ["name", "start_us", "end_us", "parent", "job", "count"],
            "name": list(self.name),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
            "parent": list(self.parent),
            "job": list(self.job),
            "count": list(self.count),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def _wrap(tracer: Tracer, name: str, fn):
    if name in GENERATORS:
        def spanned(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(idx)
                    return
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx, 1)
                yield item
    elif name in COUNTED:
        def spanned(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, out.nodes_explored)
            return out
    else:
        def spanned(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
    return spanned


@contextmanager
def traced(tracer: Tracer):
    """Rebind the TRACED functions to span-recording wrappers for the block."""
    modules = [m for key, m in list(sys.modules.items()) if key == "firebreak" or key.startswith("firebreak.")]
    patches = []
    for layer, fnames in TRACED.items():
        home = sys.modules[f"firebreak.{layer}"]
        for fname in fnames:
            original = getattr(home, fname)
            wrapper = _wrap(tracer, f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original and not attr.startswith("_"):
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, original in patches:
            setattr(mod, attr, original)


def layer_metrics(tracer: Tracer, job_names: list[str], passes: int,
                  best_jobs, fixed_jobs, suites) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, from the recorded spans.

    Spans under a ``bench.check`` span belong to the output checks and count
    only towards ``game.replay_ms``. A ``solve_orientation`` span inside a
    ``solve_best_orientation`` span is the witness solve. ``structure_ms``
    counts the outermost structure spans that run inside a bounds span, and
    the bounds self time is the outermost bounds spans minus that.
    """
    names = [tracer.names[i] for i in tracer.name]
    parent, job, count = tracer.parent, tracer.job, tracer.count
    n = len(names)
    in_check = [False] * n
    under_best = [False] * n
    under_bounds = [False] * n
    under_structure = [False] * n
    t = dict.fromkeys(
        ["enum", "best", "witness", "fixed", "undirected", "sandwich", "lower", "upper",
         "classify", "bounds_outer", "structure", "replay", "simulate"], 0.0)
    graphs = leaves = states = 0
    job_ms: dict[int, float] = {}
    best_ms: dict[int, float] = {}
    best_leaves: dict[int, int] = {}
    fixed_ms: dict[int, float] = {}
    fixed_states: dict[int, int] = {}
    for i in range(n):
        nm = names[i]
        p = parent[i]
        if p >= 0:
            pn = names[p]
            in_check[i] = in_check[p]
            under_best[i] = under_best[p] or pn == "solve.solve_best_orientation"
            under_bounds[i] = under_bounds[p] or pn.startswith("bounds.")
            under_structure[i] = under_structure[p] or pn.startswith("structure.")
        if nm == CHECK:
            in_check[i] = True
        dur = tracer.end[i] - tracer.start[i]
        if nm == "game.replay":
            t["replay"] += dur
        if in_check[i]:
            continue
        j = job[i]
        if nm == JOB:
            job_ms[j] = job_ms.get(j, 0.0) + dur
        elif nm == "families.enumerate_connected":
            t["enum"] += dur
            graphs += count[i]
        elif nm == "solve.solve_best_orientation":
            t["best"] += dur
            leaves += count[i]
            best_ms[j] = best_ms.get(j, 0.0) + dur
            best_leaves[j] = best_leaves.get(j, 0) + count[i]
        elif nm in ("solve.solve_orientation", "solve.solve_undirected"):
            if under_best[i]:
                t["witness"] += dur
            else:
                t["fixed" if nm == "solve.solve_orientation" else "undirected"] += dur
                states += count[i]
                fixed_ms[j] = fixed_ms.get(j, 0.0) + dur
                fixed_states[j] = fixed_states.get(j, 0) + count[i]
        elif nm == "bounds.check_sandwich":
            t["sandwich"] += dur
        elif nm == "bounds.lower_bounds":
            t["lower"] += dur
        elif nm == "bounds.upper_bounds":
            t["upper"] += dur
        elif nm == "bounds.classify_b1":
            t["classify"] += dur
        elif nm == "game.simulate":
            t["simulate"] += dur
        if nm.startswith("bounds.") and not under_bounds[i]:
            t["bounds_outer"] += dur
        if nm.startswith("structure.") and under_bounds[i] and not under_structure[i]:
            t["structure"] += dur

    k = max(passes, 1)

    def ms(seconds: float) -> float:
        return seconds * 1000.0 / k

    def by_name(table: dict[int, float]) -> dict[str, float]:
        out: dict[str, float] = {}
        for j, v in table.items():
            if j >= 0:
                out[job_names[j]] = out.get(job_names[j], 0) + v
        return out

    engine_ms = ms(t["fixed"] + t["undirected"])
    m: dict[str, tuple[float, str]] = {
        "families.enumerate_ms": (ms(t["enum"]), "ms"),
        "families.graphs": (graphs / k, "count"),
        "solve.best_ms": (ms(t["best"]), "ms"),
        "solve.best.leaves": (leaves / k, "count"),
        "solve.best.us_per_leaf": (ms(t["best"]) * 1000 * k / leaves if leaves else 0.0, "us"),
        "solve.witness_ms": (ms(t["witness"]), "ms"),
        "solve.scan_ms": (ms(t["best"] - t["witness"]), "ms"),
        "solve.fixed_ms": (ms(t["fixed"]), "ms"),
        "solve.undirected_ms": (ms(t["undirected"]), "ms"),
        "solve.fixed.states": (states / k, "count"),
        "solve.fixed.us_per_state": (engine_ms * 1000 * k / states if states else 0.0, "us"),
        "bounds.sandwich_ms": (ms(t["sandwich"]), "ms"),
        "bounds.lower_ms": (ms(t["lower"]), "ms"),
        "bounds.upper_ms": (ms(t["upper"]), "ms"),
        "bounds.classify_b1_ms": (ms(t["classify"]), "ms"),
        "bounds.self_ms": (ms(t["bounds_outer"] - t["structure"]), "ms"),
        "structure_ms": (ms(t["structure"]), "ms"),
        "game.replay_ms": (ms(t["replay"]), "ms"),
        "game.simulate_ms": (ms(t["simulate"]), "ms"),
    }
    best_by, leaves_by = by_name(best_ms), by_name(best_leaves)
    for name in best_jobs:
        m[f"solve.best.{name}_ms"] = (ms(best_by.get(name, 0.0)), "ms")
        m[f"solve.best.{name}.leaves"] = (leaves_by.get(name, 0) / k, "count")
    fixed_by, states_by = by_name(fixed_ms), by_name(fixed_states)
    for name in fixed_jobs:
        m[f"solve.fixed.{name}_ms"] = (ms(fixed_by.get(name, 0.0)), "ms")
        m[f"solve.fixed.{name}.states"] = (states_by.get(name, 0) / k, "count")
    jobs_by = by_name(job_ms)
    for suite in suites:
        m[f"verify.{suite}_ms"] = (ms(jobs_by.get(suite, 0.0)), "ms")
    return m
