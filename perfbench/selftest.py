#!/usr/bin/env python3
"""Self-test of the benchmark, at small scale (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py at
workload scale 0.05 once untraced and once traced, and checks that

  - the last line is the result object, with every end-to-end (untraced)
    or per-layer (traced) metric of BENCHMARK.json, in its unit, also
    printed by name in the report, and no failed answer (the digest and
    countersEqual checks passed);
  - the traced run's Chrome trace nests: every span lies inside its
    parent, siblings do not overlap, self times are non-negative and
    add up to the traced wall;

and that, from a directory holding only BENCHMARK.json and perfbench/,
the benchmark exits non-zero without printing a result.
Exits 1 on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SCALE = "0.05"
# Trace timestamps are printed in microseconds with three decimals.
TOL_US = 0.01


def check(cond, msg):
    if not cond:
        print("selftest FAILED: " + msg)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", trace, "--scale", SCALE]
    out = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=600)
    check(out.returncode == 0, "%s trace=%s exited %d:\n%s"
          % (workload, trace, out.returncode, out.stdout[-2000:]))
    lines = out.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def check_result(workload, report, result, expected):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (workload, sorted(result)))
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          "%s: %d of %d answers failed" % (workload, result["failed"],
                                           result["attempted"]))
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected],
          "%s: metrics %s" % (workload, list(metrics)))
    printed = {}
    for line in report:
        parts = line[1:].split()
        if line.startswith("#") and len(parts) == 3:
            printed[parts[0]] = parts[2]
    for m in expected:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], "%s: %s in %s, expected %s"
              % (workload, m["name"], got["unit"], m["unit"]))
        check(isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]),
              "%s: %s = %r" % (workload, m["name"], got["value"]))
        check(printed.get(m["name"]) == m["unit"],
              "%s: %s not printed with its unit" % (workload, m["name"]))


def check_trace(workload, report):
    path = None
    for line in report:
        if line.startswith("# trace written to "):
            path = line[len("# trace written to "):]
    check(path and os.path.isfile(path), "%s: no trace file" % workload)
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    check(events, "%s: empty trace" % workload)
    children = {i: [] for i in range(len(events))}
    self_us = []
    for i, e in enumerate(events):
        check(e["args"]["span"] == i, "%s: span ids out of order" % workload)
        p = e["args"]["parent"]
        if i == 0:
            check(p == -1, "%s: first span is not the root" % workload)
        else:
            check(0 <= p < i, "%s: span %d has parent %d" % (workload, i, p))
            parent = events[p]
            check(e["ts"] >= parent["ts"] - TOL_US
                  and e["ts"] + e["dur"]
                  <= parent["ts"] + parent["dur"] + TOL_US,
                  "%s: span %d (%s) outside its parent" % (workload, i, e["name"]))
            children[p].append(i)
    for i, e in enumerate(events):
        kids = sorted(children[i], key=lambda k: events[k]["ts"])
        for a, b in zip(kids, kids[1:]):
            check(events[a]["ts"] + events[a]["dur"]
                  <= events[b]["ts"] + TOL_US,
                  "%s: spans %d and %d overlap" % (workload, a, b))
        s = e["dur"] - sum(events[k]["dur"] for k in kids)
        check(s >= -TOL_US * (1 + len(kids)),
              "%s: span %d (%s) self time %.3f us" % (workload, i, e["name"], s))
        self_us.append(s)
    total = sum(self_us)
    check(abs(total - events[0]["dur"]) <= TOL_US * len(events),
          "%s: self times add to %.3f us, wall %.3f us"
          % (workload, total, events[0]["dur"]))
    return len(events)


def check_refuses_without_sources():
    bare = os.path.join(REPO, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=170)
        check(out.returncode != 0 and "{" not in out.stdout,
              "without sources: exit %d, stdout %r"
              % (out.returncode, out.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        report, result = run(name, "0")
        check_result(name, report, result, bench["end_to_end"])
        report, result = run(name, "1")
        check_result(name, report, result, bench["per_layer"])
        spans = check_trace(name, report)
        print("selftest %-14s ok: %d end-to-end + %d per-layer metrics, "
              "%d spans nest" % (name, len(bench["end_to_end"]),
                                 len(bench["per_layer"]), spans))
    check_refuses_without_sources()
    print("selftest ok: a bare benchmark directory exits non-zero")


if __name__ == "__main__":
    main()
