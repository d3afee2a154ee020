#!/usr/bin/env python3
"""Record the benchmark's medians and quartiles on this host.

    python3 perfbench/record.py --runs 10 --out perfbench/SEED_RECORD.json

Takes two sets of runs of perfbench/run.py, each --runs runs per workload
with a seed of its own, then one traced run per workload. Writes, per set,
workload and end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, the
traced runs' layer metrics, and the host: nproc, CPU model and cache sizes.
Exits 1, after writing the record, when the sets break BENCHMARK.json's
bounds: a spread (setup_s excepted) above its metric's bound in either set,
or a second-set median worse than the first by more than the bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host():
    model = platform.processor()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        path = os.path.join(base, index)
        if not os.path.exists(os.path.join(path, "size")):
            continue
        with open(os.path.join(path, "level")) as f:
            level = f.read().strip()
        with open(os.path.join(path, "type")) as f:
            kind = f.read().strip()
        with open(os.path.join(path, "size")) as f:
            size = f.read().strip()
        name = f"L{level}" + ("" if kind == "Unified" else kind[0].lower())
        caches[name] = size
    return {"nproc": os.cpu_count(), "cpu": model, "caches": caches,
            "kernel": platform.release()}


def findings(layers):
    """The seed-time findings, as numbers from one traced run (each layer
    metric has one source, whichever workload is traced): parallel
    architectures against the serial baseline on the same budget, the
    measured cost per iteration against the committed calibration, and how
    late a serve::Client WAIT returns after a tiny job ends."""
    serial = layers["engine.run_s.serial"]
    found = {f"chain.{name}_over_serial_run_s":
             layers[f"engine.run_s.{name}"] / serial
             for name in ("periodic", "speculative", "mc3")}
    for name in ("core.cost_ratio", "serve.client_wait_stall_ms",
                 "serve.unattributed_frac"):
        found[name] = layers[name]
    return found


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_set(workloads, seeds, spec):
    """One run per seed and workload; per metric, the summary of its values."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {}
    for workload in workloads:
        values = {}
        failed = 0
        for seed in seeds:
            outcome = run(workload, seed, spec["run_seconds"], 0)
            failed += outcome["failed"] + (0 if outcome["correct"] else 1)
            for name, metric in outcome["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            summary[name] = {"median": q2, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name],
                             "values": series}
            print(f"{workload:13s} {name:16s} median {q2:<12.6g} "
                  f"spread {spread:6.3f} bound {bounds[name]}",
                  file=sys.stderr)
        result[workload] = {"failed": failed, "end_to_end": summary}
    return result


def problems(sets, spec):
    """Every way the two sets break the bounds of BENCHMARK.json."""
    found = []
    first, second = sets
    for workload in first:
        for index, one in enumerate(sets):
            if one[workload]["failed"]:
                found.append(f"set {index + 1} {workload}: "
                             f"{one[workload]['failed']} failed")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for index, one in enumerate(sets):
                spread = one[workload]["end_to_end"][name]["spread"]
                if name != "setup_s" and spread > bound:
                    found.append(f"set {index + 1} {workload} {name}: "
                                 f"spread {spread:.3f} > {bound}")
            a = first[workload]["end_to_end"][name]["median"]
            b = second[workload]["end_to_end"][name]["median"]
            worse = (b - a) / a * (1 if metric["better"] == "lower" else -1)
            if worse > bound:
                found.append(f"{workload} {name}: second median worse by "
                             f"{worse:.3f} > {bound}")
    return found


def worst(one, spec):
    """The largest spread / bound of a set, setup_s excepted."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return max(entry["spread"] / bounds[name]
               for workload in one.values()
               for name, entry in workload["end_to_end"].items()
               if name != "setup_s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    record = {"host": host(), "runs": args.runs,
              "seconds": spec["run_seconds"], "sets": []}
    for index in range(2):
        first = args.first_seed + index * args.runs
        seeds = list(range(first, first + args.runs))
        one = measure_set(workloads, seeds, spec)
        record["sets"].append({"seeds": seeds, "workloads": one,
                               "worst_spread_over_bound": worst(one, spec)})
    layers = {}
    for workload in workloads:
        traced = run(workload, args.first_seed, spec["run_seconds"], 1)
        layers[workload] = {n: m["value"]
                            for n, m in traced["metrics"].items()}
    record["per_layer"] = layers
    record["findings"] = findings(layers[workloads[0]])
    record["problems"] = problems(
        [s["workloads"] for s in record["sets"]], spec)
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    for problem in record["problems"]:
        print(f"record: {problem}", file=sys.stderr)
    print("worst spread / bound per set (setup_s excepted): " +
          ", ".join(f"{s['worst_spread_over_bound']:.3f}"
                    for s in record["sets"]), file=sys.stderr)
    return 1 if record["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
