#!/usr/bin/env python3
"""Build the benchmark of record and run one workload of it.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the result object. See perfbench/README.md.

    python3 perfbench/run.py --write-reference

rebuilds the digest references in perfbench/reference/ (only after a
change that is meant to alter simulated counters).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "org_sweep", "service_mixed")
# Reference digests exist for these workload scales.
REFERENCE_SCALES = ("1", "0.05")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """Git revision when there is one, plus a hash of src/ either way."""
    rev = "nogit"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "%s src-sha1:%s" % (rev, h.hexdigest()[:12])


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s/src; run from a full checkout"
             % REPO)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(REPO, target, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DPERFBENCH_SOURCE_REV=" + source_revision()],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def run_binary(cmd):
    """Run to completion (killing it on timeout); return (code, stdout)."""
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return out.returncode, out.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--scale", default="1", choices=REFERENCE_SCALES,
                    help="workload size (digest references exist for these)")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not args.write_reference and not args.workload:
        ap.error("--workload is required")

    build_dir = build()
    binary = os.path.join(build_dir, "nbl_perfbench")
    ref_dir = os.path.join(HERE, "reference")
    work_dir = os.path.join(build_dir, "work")

    if args.write_reference:
        for scale in REFERENCE_SCALES:
            code, out = run_binary([binary, "--write-reference", "--scale", scale,
                                    "--reference-dir", ref_dir])
            sys.stdout.write(out)
            if code:
                sys.exit(code)
        return

    code, out = run_binary([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--scale", args.scale, "--reference-dir", ref_dir, "--work-dir", work_dir])
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if code == 0 and not ok:
        fail("the run printed no result line")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
