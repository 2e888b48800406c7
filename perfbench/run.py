#!/usr/bin/env python3
"""EdgeSlice benchmark entry point.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first form builds perfbench/ (which compiles the repository's src/)
into .bench_build/ at the repository root, then runs the benchmark binary and
passes its output on. Its standard output ends with one JSON result line;
with --trace 1, the per-layer metrics of BENCHMARK.json that the workload
does not produce are reported as 0 there. BENCHMARK.json is the one list of
metric names and units.

--self-test builds, runs every workload briefly in both modes, checks that
each declared metric appears with its unit, checks that a wrong pinned
digest fails the run, and runs the GEMM workloads under the scalar backend
(EDGESLICE_GEMM=scalar) so its pinned digests are checked on any CPU.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the EdgeSlice sources (src/) are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def run_binary(args, spec, env=None):
    """Run the benchmark binary; return (exit code, stdout lines, result or None).

    The result is the parsed last line, with --trace 1's missing per-layer
    metrics filled in as 0 in BENCHMARK.json's order.
    """
    done = subprocess.run([BINARY, *args], stdout=subprocess.PIPE, text=True, env=env)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
        traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
        if traced:
            zeros = {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in spec["per_layer"]}
            result["metrics"] = {**zeros, **result["metrics"]}
    else:
        result = None
    return done.returncode, lines, result


def self_test():
    build()
    spec = load_spec()
    failures = []

    def brief(workload, trace, extra=(), env=None):
        args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), *extra]
        return run_binary(args, spec, env)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for workload in spec["workloads"]:
            name = workload["name"]
            code, _, result = brief(name, trace)
            if code != 0 or result is None:
                failures.append(f"{name} trace {trace}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name} trace {trace}: wrong result keys")
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{name} trace {trace}: not correct")
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            if reported != declared:
                failures.append(f"{name} trace {trace}: metrics differ from {section}")
    # Workloads with pinned digests must fail when a pin is wrong.
    for name in ("city_actor", "city_taro_pool", "train_ddpg"):
        code, _, result = brief(name, 0, ["--corrupt-pins"])
        if code == 0 or (result is not None and result.get("correct") is not False):
            failures.append(f"{name}: a wrong pinned digest did not fail the run")
    # The scalar pins, whichever backend the CPU would pick.
    scalar = {**os.environ, "EDGESLICE_GEMM": "scalar"}
    for name in ("city_actor", "train_ddpg"):
        code, lines, result = brief(name, 0, env=scalar)
        if not any("gemm_backend=scalar" in line for line in lines):
            failures.append(f"{name}: EDGESLICE_GEMM=scalar did not pin the scalar backend")
        if code != 0 or result is None or result["correct"] is not True:
            failures.append(f"{name}: failed under the scalar backend")
    for failure in failures:
        print("FAIL", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    build()
    code, lines, result = run_binary(sys.argv[1:], load_spec())
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is not None:
        print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
