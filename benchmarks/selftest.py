"""Self-test of the benchmark at a tiny size.

    python3 benchmarks/selftest.py

Runs every workload with ``--tiny`` in both modes and checks that:
- the last line is the result object, with every metric BENCHMARK.json names
  and the unit it gives, and nothing else;
- every metric is also printed on its own line with that unit;
- the tiny runs pass their output checks;
- a deliberately wrong expected value shows up as a failed check and a
  non-zero ``failed_frac``, not as an exception.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    """Printed metric lines (name -> (value, unit)) and the result object."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.05",
                         "--trace", str(trace), "--tiny"])
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {code}")
    lines = out.getvalue().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split()[:3]
        printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            printed, result = run_tiny(workload, trace)
            where = f"{workload} trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {set(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: {result['failed']} of {result['attempted']} checks failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == wanted[trace],
                   f"{where}: metrics differ from BENCHMARK.json: {sorted(set(units.items()) ^ set(wanted[trace].items()))}")
            for name, unit in wanted[trace].items():
                expect(printed.get(name, (None, None))[1] == unit, f"{where}: no printed line for {name} in {unit}")
            expect(printed.get("failed_frac") == (0.0, "ratio"), f"{where}: failed_frac line {printed.get('failed_frac')}")

    saved = workloads.EXPECTED["K7-f2"]
    workloads.EXPECTED["K7-f2"] = saved + 1
    try:
        printed, result = run_tiny("best-dense", 0)
    finally:
        workloads.EXPECTED["K7-f2"] = saved
    expect(not result["correct"] and result["failed"] == result["attempted"] >= 1,
           f"wrong expected value: {result['failed']} of {result['attempted']} checks failed")
    expect(printed["failed_frac"][0] == 1.0, f"wrong expected value: failed_frac {printed['failed_frac']}")

    for message in errors:
        print(f"FAIL {message}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
