#!/usr/bin/env python3
"""The us3d benchmark: three workloads through ImagingService.

Benchmark contract (one workload per call; the last stdout line is the result):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
Run from the repository root: the script builds the library and the
load generator into .bench_build/ first (the first build takes about a minute).

Other modes:
  --report              every workload, untraced and traced, every metric
                        by name with its unit
  --steadiness N        each workload N times (seeds 1..N): median,
                        quartiles and spread per end-to-end metric, flagged
                        when the spread exceeds the metric's bound
  --self-test           the arithmetic tests in test_benchmath.py
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchmath  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TYPE = "Release"
GENERATOR = os.path.join(BUILD_DIR, "us3d_perfbench")
WORKLOADS = ("tablefree-stream", "fulltable-stream", "service-mix")
RUN_TIMEOUT_S = 120
# Set-up is timed as the first set-up of a fresh process, once per process
# (each pays its own page faults and thread spawns); setup_s is the median.
# Half the processes run before the timed run and half after it, so the
# median spans two periods of the host's speed, not one.
SETUP_PROCESSES = 200


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds (a no-op when nothing changed)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def program_env():
    """The environment minus every US3D_* knob (US3D_SIMD, US3D_PRECISION,
    US3D_TRACE, US3D_EVENTS, US3D_PROFILE, US3D_POSTMORTEM_DIR, ...), so an
    inherited variable cannot change the program under test."""
    return {k: v for k, v in os.environ.items() if not k.startswith("US3D_")}


def read_records(path, raw):
    """Adds the generator's streamed per-frame records to its summary."""
    raw["records"], raw["async_records"], raw["deliveries"] = [], [], []
    lists = {"s": raw["records"], "a": raw["async_records"],
             "d": raw["deliveries"]}
    with open(path) as f:
        for line in f:
            tag, *fields = line.split()
            lists[tag].append([int(x) for x in fields])
    return raw


def setup_times(workload, count):
    """One set-up time per fresh generator process, run one after another."""
    times = []
    for _ in range(count):
        done = subprocess.run([GENERATOR, "--workload", workload, "--setup", "1"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=program_env(), timeout=30)
        if done.returncode != 0:
            log(done.stderr[-4000:])
            raise RuntimeError(f"us3d_perfbench --setup exited with "
                               f"{done.returncode}")
        times.append(json.loads(done.stdout)["setup_s"])
    return times


def run_generator(workload, seed, seconds, trace):
    setup_s = setup_times(workload, SETUP_PROCESSES // 2)
    records = os.path.join(BUILD_DIR, f"records-{os.getpid()}.txt")
    cmd = [GENERATOR, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--records", records]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=program_env(), timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stderr[-4000:])
            raise RuntimeError(f"us3d_perfbench exited with {done.returncode}")
        raw = read_records(records, json.loads(done.stdout))
        raw["setup_s"] = setup_s + setup_times(workload, SETUP_PROCESSES // 2)
        return raw
    finally:
        if os.path.exists(records):
            os.remove(records)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(raw):
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "build_type": BUILD_TYPE, "workload": raw["workload"],
            "seed": raw["seed"], "seconds": raw["seconds"],
            "trace": raw["trace"], "simd_backend": raw["simd_backend"],
            "precision": raw["precision"]}


def measure(workload, seed, seconds, trace):
    """One run: (result dict for the final line, stamp line)."""
    raw = run_generator(workload, seed, seconds, trace)
    correct, attempted, failed = benchmath.correctness(raw)
    try:
        metrics = (benchmath.per_layer(raw) if trace
                   else benchmath.end_to_end(raw))
    except ValueError:
        if correct:
            raise
        metrics = {}  # no frame came back right: nothing to time
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, "stamp " + json.dumps(stamp(raw))


def bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def report(seconds):
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, stamp_line = measure(workload, 1, seconds, trace)
            print(f"== {workload} (trace {trace}) correct={result['correct']}"
                  f" attempted={result['attempted']}"
                  f" failed={result['failed']}")
            print("  " + stamp_line)
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")


def steadiness(repeats, seconds, workloads):
    limit = bounds()
    worst = 0
    for workload in workloads:
        runs = []
        for seed in range(1, repeats + 1):
            result, _ = measure(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']}"
                      f" failed={result['failed']}")
                worst = 1
            runs.append(result["metrics"])
        print(f"== {workload}: {repeats} runs of {seconds} s")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = benchmath.spread(values)
            bound = limit.get(name)
            flag = ""
            if bound is not None and share > bound:
                flag = "  OUTSIDE BOUND"
                worst = 1
            print(f"  {name:30s} median {statistics.median(values):12.6g}"
                  f"  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:7.2%}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1

    try:
        build()
        if args.report:
            report(args.seconds)
            return 0
        if args.steadiness:
            workloads = [args.workload] if args.workload else WORKLOADS
            return steadiness(args.steadiness, args.seconds, workloads)
        if not args.workload:
            parser.error("--workload is required")
        result, stamp_line = measure(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"benchmark failed: {e}")
        return 1
    print(stamp_line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
