#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark from
source into $CARGO_TARGET_DIR (default .bench_build), runs the
benchmark's self-test, then the workload. The benchmark prints one line
per metric; the last line of this script's output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each checked for its name and unit.
Exits non-zero when the build, the self-test, the oracle check or the
result check fails.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
# Lines of the benchmark's own output repeated on stderr when a run fails.
FAILURE_TAIL_LINES = 40


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env(build_dir):
    """The environment of every step: temporary files stay in build_dir."""
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_dir, env):
    """Configures and builds into build_dir; output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", build_dir, "-j", jobs,
              "--target", "perfbench", "perfbench_selftest"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", "perfbench", "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def report_failure(out):
    """Repeats the end of a failed run's output on stderr, where the
    caller's log keeps it: the oracle's violations, the feed's state, the
    request outcomes."""
    tail = (out or "").rstrip("\n").split("\n")[-FAILURE_TAIL_LINES:]
    for line in tail:
        if not line.startswith("{"):
            log("perfbench| " + line)


def expected_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """The result line parsed, or None when its shape is wrong."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    got = result["metrics"]
    if set(got) != set(expected):
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(got) ^ set(expected)))
        return None
    for name, unit in expected.items():
        if got[name].get("unit") != unit:
            log("perfbench: unit of", name, "is", got[name].get("unit"),
                "not", unit)
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = child_env(build_dir)
    if not build(build_dir, env):
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
    if selftest.returncode != 0:
        log("perfbench: self-test failed")
        return 1

    expected = expected_metrics(args.trace == 1)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload=" + args.workload,
               "--seed=" + str(args.seed),
               "--seconds=" + repr(args.seconds),
               "--trace=" + str(args.trace),
               "--out_dir=" + os.path.join(build_dir, "perfbench-out")]
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                          text=True) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            out, _ = child.communicate()
            log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
            report_failure(out)
            return 1
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    result = check_result(lines[-1], expected) if lines else None
    if result is None:
        log("perfbench: no valid result line; exit status", child.returncode)
        report_failure(out)
        return 1
    if child.returncode != 0 or not result["correct"]:
        log("perfbench: run failed; exit status", child.returncode)
        report_failure(out)
    print(json.dumps(result), flush=True)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
