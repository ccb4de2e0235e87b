#!/usr/bin/env python3
"""Tiny-size self-check of the DPGW serving benchmark.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs perfbench/run.py at --size
tiny and asserts that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, and with no failed frame;
  * --trace 0 emits exactly the end-to-end metrics and --trace 1 exactly
    the per-layer metrics, each with its declared unit, and that no
    end-to-end metric reads 0;
  * mean_rel_error and snapshot_bytes repeat bit for bit for one seed;
  * a deliberately corrupted answer (--corrupt-frame) is counted as a
    failed frame and makes the run incorrect.
Exits non-zero on the first violation.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    return result


def expect(cond, message):
    if not cond:
        sys.exit(f"FAIL {message}")


def check_metrics(workload, result, declared, nonzero):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    expect(set(got) == set(want),
           f"{workload}: metrics {sorted(set(got) ^ set(want))} missing or extra")
    for name, unit in want.items():
        expect(got[name]["unit"] == unit,
               f"{workload}: {name} unit {got[name]['unit']} != {unit}")
        expect(isinstance(got[name]["value"], (int, float)),
               f"{workload}: {name} is not a number")
        if nonzero:
            expect(got[name]["value"] != 0, f"{workload}: {name} reads 0")


def main():
    # ag-serve and nd-refresh are runnable but not in BENCHMARK.json (see
    # perfbench/README.md); check them too so that their code paths stay
    # sound.
    workloads = [w["name"] for w in SPEC["workloads"]]
    workloads += [w for w in ("ag-serve", "nd-refresh") if w not in workloads]
    for workload in workloads:
        plain = run(workload, 7, 0)
        expect(plain["correct"] and plain["failed"] == 0 and
               plain["attempted"] >= 1, f"{workload}: untraced run {plain}")
        check_metrics(workload, plain, SPEC["end_to_end"], nonzero=True)

        again = run(workload, 7, 0)
        for name in ("mean_rel_error", "snapshot_bytes"):
            a = plain["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} {a!r} != {b!r} for one seed")

        traced = run(workload, 7, 1)
        expect(traced["correct"] and traced["failed"] == 0,
               f"{workload}: traced run {traced['correct']} "
               f"failed={traced['failed']}")
        check_metrics(workload, traced, SPEC["per_layer"], nonzero=False)

        # Position 5 is answered by the set-up version; position 110 comes
        # late in the pass, when a refreshing workload's frames name
        # versions its writer published (checked as they arrive, or when
        # the writer registers the version).
        for position in ("5", "110"):
            corrupt = run(workload, 7, 0, "--corrupt-frame", position)
            expect(not corrupt["correct"] and corrupt["failed"] == 1,
                   f"{workload}: corrupted answer at {position} not caught: "
                   f"correct={corrupt['correct']} failed={corrupt['failed']}")
        print(f"ok {workload}: {plain['attempted']} frames checked, "
              f"{len(traced['metrics'])} per-layer metrics, corruption caught")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
