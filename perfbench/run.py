#!/usr/bin/env python3
"""Builds and runs mobisim's benchmark.  See perfbench/README.md.

Run from the root of a mobisim checkout:

  python3 perfbench/run.py --workload paper|grid|replicas --seed N \\
      --seconds S --trace 0|1      one run; the last stdout line is its JSON
  python3 perfbench/run.py --report [--seed N] [--seconds S]
                                   every workload, untraced and traced, as a
                                   table of every metric with its unit
  python3 perfbench/run.py --selftest
                                   smoke-sized check of the harness itself
  python3 perfbench/run.py --pin SEEDS
                                   rewrite perfbench/digests.txt for the
                                   given seeds (e.g. 0-31,7919)

The harness (perfbench/harness) is built with CMake into .bench_build
together with the mobisim libraries of the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mobisim_perfbench")
DIGESTS = os.path.join(HERE, "digests.txt")
WORKLOADS = ("paper", "grid", "replicas")


def log(message):
    print(message, file=sys.stderr, flush=True)


def check_call(cmd):
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: failed: " + " ".join(cmd))
        sys.exit(2)


def build():
    for required in ("src/CMakeLists.txt", "bench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            log(f"perfbench: {required} not found; run from a mobisim checkout")
            sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", BUILD, "-j", jobs, "--target", "mobisim_perfbench"])


def harness_cmd(workload, seed, seconds, trace, extra=(), digests=DIGESTS):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--digests", digests,
            "--work", os.path.join(BUILD, "perfbench-work"),
            "--out", os.path.join(BUILD, "perfbench-out"), *extra]


def run_json(workload, seed, seconds, trace, extra=(), digests=DIGESTS):
    """Runs the harness; returns (exit code, parsed last stdout line or None).

    The harness's stderr is shown only when the run fails or is incorrect.
    """
    proc = subprocess.run(harness_cmd(workload, seed, seconds, trace, extra, digests),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def report(seed, seconds):
    ok = True
    print(f"{'workload':<9} {'metric':<40} {'value':>18} unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_json(workload, seed, seconds, trace)
            if result is None:
                print(f"{workload:<9} run failed (exit {code})")
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload:<9} {name:<40} {metric['value']:>18.6f} {metric['unit']}")
            if trace == 0:
                frac = result["failed"] / result["attempted"]
                print(f"{workload:<9} {'failed_frac':<40} {frac:>18.6f} "
                      f"ratio ({result['failed']}/{result['attempted']}, "
                      f"correct={str(result['correct']).lower()})")
    out = os.path.join(BUILD, "perfbench-out")
    print(f"\nmetrics and Chrome trace-event JSON of the traced runs: {out}")
    return 0 if ok else 1


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_json(workload["name"], 1, 1, trace, ["--smoke"])
            where = f"{workload['name']} smoke trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{where}: metrics differ; missing {missing}, extra {extra}")

    # A corrupted pinned digest must fail the run.
    corrupt = os.path.join(BUILD, "perfbench-corrupt-digests.txt")
    with open(DIGESTS) as f:
        lines = f.read().splitlines()
    flipped = 0
    with open(corrupt, "w") as f:
        for line in lines:
            if line.startswith("grid-smoke 1 "):
                line = line[:-1] + ("0" if line[-1] != "0" else "1")
                flipped += 1
            f.write(line + "\n")
    code, result = run_json("grid", 1, 1, 0, ["--smoke"], digests=corrupt)
    if flipped != 1 or code == 0 or result is None or result["correct"] or result["failed"] == 0:
        problems.append(f"corrupted digest did not fail the run: exit {code}, result {result}")

    for problem in problems:
        log("selftest: " + problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin(spec):
    seeds = parse_seeds(spec)
    lines = ["# Output digests: <workload>[-smoke] <seed|bench> <FNV-1a 64 of the outputs>.",
             "# Regenerate with: python3 perfbench/run.py --pin " + spec]
    # paper runs at the benches' smoke scale and ignores the seed: one run.
    runs = [("paper", 1, [])]
    runs += [(w, 1, ["--smoke"]) for w in ("grid", "replicas")]
    runs += [(w, s, []) for w in ("grid", "replicas") for s in seeds]
    for workload, seed, extra in runs:
        proc = subprocess.run(harness_cmd(workload, seed, 1, 0, ["--pin", *extra], os.devnull),
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            log(f"perfbench: pinning {workload} seed {seed} failed")
            return 1
        lines += proc.stdout.strip().splitlines()
        log(f"pinned {workload} seed {seed} {' '.join(extra)}")
    with open(DIGESTS, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin", metavar="SEEDS")
    args = parser.parse_args()
    if not (args.workload or args.report or args.selftest or args.pin):
        parser.error("--workload, --report, --selftest or --pin is required")

    build()
    # Work space of runs that were killed before they could clean up.
    shutil.rmtree(os.path.join(BUILD, "perfbench-work"), ignore_errors=True)
    if args.report:
        return report(args.seed, args.seconds)
    if args.selftest:
        return selftest()
    if args.pin:
        return pin(args.pin)
    return subprocess.run(harness_cmd(args.workload, args.seed, args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
