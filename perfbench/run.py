#!/usr/bin/env python3
"""Co-simulation benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             --trace 0|1 [--smoke]

Builds the benchmark program, cosim_bench, from the repository sources
(perfbench/CMakeLists.txt, Release, into .bench_build/ at the repository
root) and runs one workload in a fresh process, so peak RSS is that workload's
alone, with address-space layout randomisation turned off so that it reads
the same from process to process. Its report goes to stdout; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
Traced runs (--trace 1) also write their spans to .bench_out/. See
perfbench/NOTES.md for the workloads and metrics. `--workload all` runs
every workload in turn and ends with a summary of all their metrics and
failure shares.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "cosim_bench")
# A run measures for --seconds and then finishes the operation in
# flight; this caps a hung run well inside the 180 s contract.
RUN_TIMEOUT_S = 170
# personality(2) flag that turns off address-space layout randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd: list[str], log: str, timeout: float) -> None:
    """Runs a build step, keeping its output out of stdout and the
    compiler's temporary files inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "a", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=timeout,
                                  check=False, env=env)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)} (see {log})")
    if proc.returncode != 0:
        with open(log, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "fleet", "engine.hpp")):
        fail("repository sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log, 300)
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", BUILD, "-j", jobs], log, 840)


def fixed_layout() -> None:
    """Runs in the child before exec: turns off address-space layout
    randomisation, whose page alignment otherwise moves the peak RSS of
    the small han_packet process by ~3% from one process to the next.
    Left as it is where the kernel refuses."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """Runs one workload in its own cosim_bench process, echoes its report and
    returns its result object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, f"spans_{workload}_seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"cosim_bench exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("cosim_bench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result


def run_all(args: argparse.Namespace) -> dict:
    """Every workload of BENCHMARK.json in turn, each in a fresh process;
    prints a summary with each workload's failure share and returns one
    result whose metrics are named <workload>.<metric>."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for name in names:
        r = run_workload(args, name)
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for metric, m in r["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        summary.append(f"{name}: failed {r['failed']} of {r['attempted']} "
                       f"({r['failed'] / max(r['attempted'], 1):.1%})")
        summary += [f"  {metric:40s} {m['value']:>16.6g} {m['unit']}"
                    for metric, m in r["metrics"].items()]
    print("summary:\n" + "\n".join(summary))
    return combined


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or all")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    result = (run_all(args) if args.workload == "all"
              else run_workload(args, args.workload))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
