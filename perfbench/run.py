#!/usr/bin/env python3
"""The mcmcpar benchmark: one command for the paper's architectures and the
serving stack.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the library, the
mcmcpar_serve front-end and the benchmark runner from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The runner's result is checked against
BENCHMARK.json (every metric named there, with its unit) and printed as the
last line of standard output. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chain", "shard-socket", "serve-mix")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure, then build the runner and the server (stdout of the
    build goes to stderr so the result stays the last stdout line)."""
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench_runner", "mcmcpar_serve"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(out, "perfbench_runner"),
            os.path.join(out, "mcmcpar", "tools", "mcmcpar_serve"))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binaries, workload, seed, seconds, trace, corrupt=False):
    """Run one workload; returns the parsed result line."""
    runner, serve = binaries
    out = os.path.join(build_dir(), "out",
                       f"{workload}-{seed}-{int(trace)}{'-c' if corrupt else ''}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    command = [runner, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--serve-bin", serve, "--out-dir", out]
    if corrupt:
        command.append("--corrupt")
    # Its own process group, so a timeout also stops the servers it started.
    runner = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = runner.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        raise RuntimeError(f"{workload}: runner timed out") from None
    lines = stdout.strip().splitlines()
    if runner.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: runner exited {runner.returncode}")
    return json.loads(lines[-1])


def check_metrics(result, trace):
    """The result names exactly BENCHMARK.json's metrics, with their units."""
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    problems = [f"missing {n}" for n in expected if n not in metrics]
    problems += [f"{n}: unit {metrics[n]['unit']}, expected {u}"
                 for n, u in expected.items()
                 if n in metrics and metrics[n]["unit"] != u]
    problems += [f"bad name {n}" for n in metrics if not NAME.match(n)]
    extra = sorted(set(metrics) - set(expected))
    if extra:
        log(f"dropping metrics not in BENCHMARK.json: {', '.join(extra)}")
        for name in extra:
            del metrics[name]
    return problems


def self_test(binaries):
    """Every workload, short: all metrics emitted with units and valid
    names, the traced run writes a loadable Chrome trace with nothing
    dropped, and a corrupted answer is caught by the output checks."""
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(binaries, workload, 1, 2, trace)
            failures += [f"{workload} trace={int(trace)}: {p}"
                         for p in check_metrics(result, trace)]
            if not result["correct"]:
                failures.append(f"{workload} trace={int(trace)}: incorrect")
            if trace:
                path = os.path.join(build_dir(), "out", f"{workload}-1-1",
                                    f"trace-{workload}.json")
                with open(path) as f:
                    if not json.load(f).get("traceEvents"):
                        failures.append(f"{workload}: empty Chrome trace")
                if result["metrics"]["obs.trace_dropped"]["value"] != 0:
                    failures.append(f"{workload}: trace events dropped")
        corrupt = run_workload(binaries, workload, 1, 2, False, corrupt=True)
        if corrupt["correct"] or corrupt["failed"] < 1:
            failures.append(f"{workload}: corrupted answer not caught")
        log(f"self-test: {workload} done")
    for failure in failures:
        log(f"self-test FAILED: {failure}")
    if failures:
        return 1
    print(json.dumps({"self_test": "passed", "workloads": list(WORKLOADS)}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log(f"no mcmcpar source tree at {ROOT}")
        return 2
    try:
        binaries = build()
        if args.self_test:
            return self_test(binaries)
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(binaries, args.workload, args.seed,
                              args.seconds, args.trace == 1)
        problems = check_metrics(result, args.trace == 1)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as error:
        log(str(error))
        return 1
    for problem in problems:
        log(problem)
    if problems:
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
