#!/usr/bin/env python3
"""DPGW serving benchmark entry point.

Builds perfbench/ (the dpgrid library from this source tree plus the
dpgw_bench program) into .bench_build/ with CMake, then runs one workload:

    python3 perfbench/run.py --workload ug-wire --seed 1 --seconds 10 --trace 0

Workloads: ug-wire, ug-refresh, ag-serve, nd-refresh (see
perfbench/src/main.cc).
The last line of stdout is the result object. With --trace 1 the spans go
to .bench_build/traces/<workload>-seed<seed>.json. Extra options, used by
perfbench/selfcheck.py: --size tiny, --corrupt-frame K.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "cmake"
BINARY = BUILD_DIR / "dpgw_bench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log(f"no dpgrid source tree at {ROOT}")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            return False
    result = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "dpgw_bench",
         "-j", jobs], stdout=sys.stderr, check=False)
    return result.returncode == 0 and BINARY.is_file()


def source_id():
    """Git SHA when the tree is a git checkout, plus a hash of the sources."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = "none"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if git.returncode == 0:
            sha = git.stdout.strip()
    return f"git={sha} src_sha256={digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ug-wire", "ug-refresh", "ag-serve",
                                 "nd-refresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--corrupt-frame", type=int, default=None)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1

    scratch = BUILD_ROOT / f"run-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--scratch", str(scratch),
           "--source-id", source_id()]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_frame is not None:
        cmd += ["--corrupt-frame", str(args.corrupt_frame)]
    # The library reads DPGRID_* knobs from the environment (engine choice,
    # slow-frame threshold, ...); the benchmark serves with the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPGRID_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if scratch.exists():
            subprocess.run(["rm", "-rf", str(scratch)], check=False)
    if proc.returncode != 0:
        log(f"dpgw_bench exited with {proc.returncode}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
