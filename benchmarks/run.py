"""firebreak benchmark driver.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Imports ``firebreak`` from ``src/`` of this checkout, builds the workload's
inputs from the seed, then runs passes over the workload's jobs in one serial
process, each job starting after the previous one ends, until ``--seconds``
have gone by. Every output is checked outside the timed region. The last line
of standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Each metric is also printed on its own
line with its unit, and a result file goes to ``benchmarks/results/``.

With ``--trace 1`` untraced and traced passes alternate; spans are recorded
only in the traced ones. ``--workload all`` runs every workload in turn, each
in its own process. ``--tiny`` selects a few cheap jobs, for the self-test.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPS = 5
TRACE_COST_REPS = 5
PROBE_EVERY_S = 0.1

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one firebreak benchmark workload.")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def fresh_import():
    """Drop any loaded firebreak modules and import the package from src/."""
    for name in [n for n in sys.modules if n == "firebreak" or n.startswith("firebreak.")]:
        del sys.modules[name]
    fb = importlib.import_module("firebreak")
    if Path(fb.__file__).resolve().parent != (SRC / "firebreak").resolve():
        raise RuntimeError(f"imported firebreak from {fb.__file__}, not from {SRC}")
    return fb


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


class Run:
    """Timings and check results of one benchmark run. A pass's times are
    measured on the sampler's clock, which leaves the speed probes out, and
    scaled by the sampler's calibration for that pass."""

    def __init__(self, sampler: calibrate.Sampler):
        self.sampler = sampler
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.scales: list[float] = []
        self.traced_walls: list[float] = []
        self.traced_scales: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.graph_samples: list[float] = []
        self.job_names: list[str] = []
        self.orientations: dict[str, tuple] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, jobs, tracer=None) -> None:
        """Run one pass over the jobs; its time leaves out the output checks."""
        clock = self.sampler.clock
        first_probe = len(self.sampler.probes)
        wall = 0.0
        times = []
        it = iter(jobs())
        while True:
            if tracer:
                tracer.current_job = -1
            t0 = clock()
            job = next(it, None)
            t1 = clock()
            wall += t1 - t0
            if job is None:
                break
            if tracer:
                tracer.current_job = len(self.job_names)
                self.job_names.append(job.name)
                span = tracer.open(tracing.JOB)
            t1 = clock()
            try:
                out, error = job.run(), None
            except Exception as exc:  # a crashing job is a failed check, not a crashed run
                out, error = None, exc
            t2 = clock()
            if tracer:
                tracer.close(span)
            wall += t2 - t1
            times.append((job.name, job.per_graph, job.orientation, t2 - t1))
            if tracer:
                span = tracer.open(tracing.CHECK)
            try:
                problems = [f"raised {error!r}"] if error else job.check(out)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            if tracer:
                tracer.close(span)
            self.attempted += 1
            if problems:
                self.failures.append(f"{job.name}: {'; '.join(problems)}")

        scale = self.sampler.scale(first_probe)
        if tracer:
            self.traced_walls.append(wall * scale)
            self.traced_scales.append(scale)
            return
        self.walls.append(wall * scale)
        self.raw_walls.append(wall)
        self.scales.append(scale)
        for name, per_graph, orientation, t in times:
            if per_graph:
                self.graph_samples.append(t * scale)
            else:
                self.samples.setdefault(name, []).append(t * scale)
            if orientation is not None:
                self.orientations[name] = orientation


def trace_cost_ms(fb, orientations: dict, clock) -> float:
    """solve_orientation with want_trace=True minus the same call without,
    median of TRACE_COST_REPS pairs, summed over the fixed-orientation jobs.
    Both calls are restricted to the witness start, whose memo table the
    trace walk reads, so that the shared solve, and its noise, is small."""
    total = 0.0
    for o, f in orientations.values():
        start = fb.solve.solve_orientation(o, f, want_trace=False).witness_start
        diffs = []
        for _ in range(TRACE_COST_REPS):
            t0 = clock()
            fb.solve.solve_orientation(o, f, start=start, want_trace=True)
            t1 = clock()
            fb.solve.solve_orientation(o, f, start=start, want_trace=False)
            t2 = clock()
            diffs.append((t1 - t0) - (t2 - t1))
        total += statistics.median(diffs)
    return total * 1000


def percentiles(samples: list[float]) -> dict:
    if len(samples) < 2:
        return {}
    ms = [s * 1000 for s in samples]
    return {
        "job_p50_ms": {"value": statistics.median(ms), "unit": "ms", "samples": len(ms)},
        "job_p99_ms": {"value": statistics.quantiles(ms, n=100)[98], "unit": "ms", "samples": len(ms)},
    }


def run_all(args) -> int:
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "firebreak" / "__init__.py").is_file():
        print(f"no firebreak package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    build = workloads.WORKLOADS[args.workload]

    sampler = calibrate.Sampler(PROBE_EVERY_S)
    with sampler:
        raw_setups = []
        for _ in range(SETUP_REPS):
            t0 = sampler.clock()
            fb = fresh_import()
            jobs = build(fb, args.seed, args.tiny)
            raw_setups.append(sampler.clock() - t0)
        setup_scale = sampler.scale(0)

        run = Run(sampler)
        tracer = tracing.Tracer(sampler.clock) if args.trace else None
        began = time.perf_counter()
        while True:
            if tracer and len(run.traced_walls) < len(run.walls):
                with tracing.traced(tracer):
                    run.one_pass(jobs, tracer)
            else:
                run.one_pass(jobs)
            if time.perf_counter() - began >= args.seconds and (not tracer or run.traced_walls):
                break
        trace_ms = trace_cost_ms(fb, run.orientations, sampler.clock) if tracer else 0.0

    failed = len(run.failures)
    wall = statistics.median(run.walls)
    report = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(raw_setups) * setup_scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        "failed_frac": {"value": failed / run.attempted, "unit": "ratio"},
        **percentiles(run.graph_samples),
    }
    notes = {
        "wall_s": f"median of {len(run.walls)} passes, calibrated; raw median {statistics.median(run.raw_walls):.4g} s",
        "setup_s": f"median of {SETUP_REPS} set-ups, calibrated; raw median {statistics.median(raw_setups):.4g} s",
        "failed_frac": f"{failed} of {run.attempted} checks failed",
        "job_p50_ms": f"{len(run.graph_samples)} graphs",
        "job_p99_ms": f"{len(run.graph_samples)} graphs",
    }

    if tracer:
        scale = statistics.median(run.traced_scales)
        layer = tracing.layer_metrics(tracer, run.job_names, len(run.traced_walls), workloads.BEST_DENSE
                                      + workloads.BEST_SPARSE, workloads.FIXED, workloads.SUITES)
        layer["solve.trace_ms"] = (trace_ms, "ms")
        layer["trace.overhead_frac"] = (statistics.median(run.traced_walls) / wall - 1, "ratio")
        reported = {name: {"value": value * (scale if unit in ("ms", "us") else 1), "unit": unit}
                    for name, (value, unit) in layer.items()}
    else:
        reported = {name: report[name] for name in END_TO_END}

    for name, m in report.items():
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    if tracer:
        for name, m in reported.items():
            print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    for line in run.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    doc = {
        "environment": environment(args),
        "end_to_end": report,
        "per_layer": reported if tracer else None,
        "calibration": {"reference_s": calibrate.REFERENCE_S, "probes_s": sampler.probes,
                        "pass_scales": run.scales, "traced_pass_scales": run.traced_scales},
        "passes_s": run.walls,
        "raw_passes_s": run.raw_walls,
        "traced_passes_s": run.traced_walls,
        "raw_setups_s": raw_setups,
        "setup_scale": setup_scale,
        "jobs_median_ms": {name: {"value": statistics.median(v) * 1000, "samples": len(v)}
                           for name, v in run.samples.items()},
        "attempted": run.attempted,
        "failures": run.failures[:100],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.json.gz", run.job_names)

    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
