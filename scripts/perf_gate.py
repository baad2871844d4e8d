#!/usr/bin/env python3
"""A/B performance gate: perfbench on two checkouts, interleaved.

Usage: python3 scripts/perf_gate.py BASE_DIR CHANGE_DIR

BASE_DIR holds a checkout of the merge base, CHANGE_DIR one of the change.
For every workload that BASE_DIR's BENCHMARK.json names, the gate runs

  python3 perfbench/run.py --workload W --seed 1 --trace 0

in both trees, PAIRS times each, alternating which tree goes first, and then
one `--trace 1` run in each tree.  Both trees run on the same host in the
same minutes, so the comparison follows the program, not the host.  The gate
fails (exit 1) when

  - any run of either tree reports "correct": false or "failed" > 0 (the
    workload's remaining runs are then skipped: the speed of wrong output
    is not worth measuring);
  - the change's median of an end_to_end metric is worse than the base's by
    more than that metric's bound, and either the base's runs spread less
    than the bound (quartile distance over the base's median) or every
    change run is worse than every base run by more than the bound; a
    worse median over a base that spreads wider is "unresolved", which the
    gate reports and lets pass;
    each metric's line also counts the pairs the change won ("wins 9/10";
    a tie counts for neither tree), which no verdict reads;
  - a per_layer metric with unit count or ratio differs between the traced
    runs while both trees pin the same output digests
    (perfbench/digests.txt); when the digests differ, the outputs were
    meant to change and moved counts are only reported.

Each failure names its workload and metric.  Bounds come from the base's
BENCHMARK.json, so a change cannot loosen its own gate.  Exit 2: bad usage.
"""

import json
import os
import statistics
import subprocess
import sys

# Untraced runs per tree and workload, in base/change pairs.  With five, an
# A/A run of one tree against itself failed on `replicas` `peak_rss_mb`
# (+10.1% against a 10% bound; its runs read 59.5-70.5 MB, as 4 threads
# interleave differently): the median of ten moves about a third less.
PAIRS = 10
SEED = "1"
EXACT_UNITS = ("count", "ratio")


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_perfbench(tree, workload, trace):
    """Runs perfbench in `tree`; returns (exit code, JSON result or None, stderr)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", SEED, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result, proc.stderr


def check_run(label, code, result, stderr, failures):
    """Adds a failure for a run that crashed, was incorrect or failed items.

    Returns whether the run was good.
    """
    if result is None:
        failures.append(f"{label}: no result (exit {code})")
        lines = stderr.strip().splitlines()[-20:]
    elif code != 0 or not result["correct"] or result["failed"] > 0:
        failures.append(f"{label}: correct={str(result['correct']).lower()}, "
                        f"failed={result['failed']} of {result['attempted']}")
        lines = [line for line in stderr.splitlines()
                 if line.startswith("perfbench: digest mismatch")]
    else:
        return True
    for line in lines:
        log(f"  {line}")
    return False


def worse_by(metric, base, change):
    """How much worse `change` is than `base`, as a fraction of `base`."""
    delta = change - base if metric["better"] == "lower" else base - change
    if base == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base)


def spread(values):
    """Distance between the quartiles of `values`, as a fraction of their median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(median)


def wins(metric, base, change):
    """Pairs in which the change did better than the base; ties count for neither."""
    sign = 1 if metric["better"] == "lower" else -1
    return sum(sign * (b - c) > 0 for b, c in zip(base, change))


def compare_end_to_end(workload, spec, values, failures, unresolved):
    print(f"\n{workload}: medians of {PAIRS} untraced runs per tree")
    print(f"  {'metric':<16} {'base':>12} {'change':>12} {'worse by':>9} {'bound':>6} "
          f"{'base spread':>11} {'wins':>10}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = values["base"].get(name)
        change = values["change"].get(name)
        if not base or not change:
            failures.append(f"{workload}: {name}: missing from "
                            + ("the base" if not base else "the change") + "'s runs")
            continue
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        worse = worse_by(metric, base_median, change_median)
        base_spread = spread(base)
        # The base's worst run against the change's best.
        pick = (max, min) if metric["better"] == "lower" else (min, max)
        separated = worse_by(metric, pick[0](base), pick[1](change)) > metric["bound"]
        verdict = "ok"
        if worse > metric["bound"]:
            verdict = "FAIL" if base_spread <= metric["bound"] or separated else "unresolved"
        won = f"wins {wins(metric, base, change)}/{min(len(base), len(change))}"
        print(f"  {name:<16} {base_median:>12.6g} {change_median:>12.6g} "
              f"{worse:>+8.1%} {metric['bound']:>6.0%} {base_spread:>11.1%} "
              f"{won:>10} {verdict}")
        if verdict != "ok":
            runs = "; ".join(side + " " + " ".join(f"{v:.6g}" for v in values[side][name])
                             for side in ("base", "change"))
            finding = (f"{workload}: {name} median {change_median:.6g} {metric['unit']} "
                       f"against {base_median:.6g}: worse by {worse:.1%}, "
                       f"bound {metric['bound']:.0%}, base spread {base_spread:.1%} "
                       f"(runs: {runs})")
            (failures if verdict == "FAIL" else unresolved).append(finding)


def gate_workload(workload, trees, spec, same_outputs, failures, unresolved):
    values = {side: {} for side in trees}
    for pair in range(PAIRS):
        order = list(trees) if pair % 2 == 0 else list(reversed(trees))
        good = True
        for side in order:
            label = f"{workload}: {side} run {pair + 1}"
            log(f"perf_gate: {label}")
            code, result, stderr = run_perfbench(trees[side], workload, 0)
            good = check_run(label, code, result, stderr, failures) and good
            for name, metric in (result or {}).get("metrics", {}).items():
                values[side].setdefault(name, []).append(metric["value"])
        if not good:
            return
    compare_end_to_end(workload, spec, values, failures, unresolved)

    traced = {}
    for side in trees:
        label = f"{workload}: {side} traced run"
        log(f"perf_gate: {label}")
        code, result, stderr = run_perfbench(trees[side], workload, 1)
        if check_run(label, code, result, stderr, failures):
            traced[side] = result["metrics"]
    if len(traced) < len(trees):
        return
    for metric in spec["per_layer"]:
        if metric["unit"] not in EXACT_UNITS:
            continue
        name = metric["name"]
        base = traced["base"].get(name, {}).get("value")
        change = traced["change"].get(name, {}).get("value")
        if base != change:
            moved = f"{workload}: {name} ({metric['unit']}) is {change} against {base} at the base"
            if same_outputs:
                failures.append(moved)
            else:
                log(f"perf_gate: {moved} (output digests differ, not gated)")


def main(argv):
    if len(argv) != 3:
        log(__doc__.strip())
        return 2
    trees = {"base": os.path.abspath(argv[1]), "change": os.path.abspath(argv[2])}
    for side, tree in trees.items():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            log(f"perf_gate: {side} tree {tree} has no perfbench/run.py")
            return 2
    with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    digests = []
    for tree in trees.values():
        with open(os.path.join(tree, "perfbench", "digests.txt")) as f:
            digests.append(f.read())
    same_outputs = digests[0] == digests[1]
    if not same_outputs:
        log("perf_gate: perfbench/digests.txt differs; moved counts are reported, not gated")

    failures = []
    unresolved = []
    for workload in spec["workloads"]:
        gate_workload(workload["name"], trees, spec, same_outputs, failures, unresolved)

    if unresolved:
        log(f"\nperf_gate: {len(unresolved)} unresolved, base spread wider than the bound:")
        for finding in unresolved:
            log(f"  {finding}")
    if failures:
        log(f"\nperf_gate: FAIL, {len(failures)} finding(s):")
        for failure in failures:
            log(f"  {failure}")
        return 1
    log("\nperf_gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
