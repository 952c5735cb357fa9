#!/usr/bin/env python3
"""VaultBench runner.

Builds the benchmark harness from this checkout (vaultbench/CMakeLists.txt,
Release, into .bench_build/vaultbench) and runs one workload:

    python3 vaultbench/run.py --workload cora-hot --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Workload constants (nominal
rate, latency limit, max-rate ladder, training epochs) come from
vaultbench/workloads.json.

    python3 vaultbench/run.py --smoke

runs every workload of workloads.json at a small scale, traced and untraced,
and checks that every metric BENCHMARK.json names is printed with its unit
and that no operation failed or answered wrongly.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "vaultbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
RUN_TIMEOUT_S = 170

# Smoke scale: tiny twins, short phases, few epochs.
SMOKE = {"scale": 0.1, "seconds": 2, "epochs": 5}


def fail(msg):
    print("vaultbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """Digest of the library and benchmark sources (the checkout is not
    necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "vaultbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".json")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "vault_server.hpp")):
        fail("library sources (src/) not found next to vaultbench/")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "vaultbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "vaultbench")


def harness_cmd(binary, workload, seed, seconds, trace, smoke):
    with open(os.path.join(HERE, "workloads.json")) as f:
        constants = json.load(f)
    if workload not in constants:
        fail("unknown workload " + workload)
    c = dict(constants[workload])
    if smoke:
        c.update(SMOKE)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(c.get("seconds", seconds)), "--trace", str(trace),
           "--rate", str(c["rate_rps"]), "--limit-ms", str(c["limit_ms"]),
           "--ladder", ",".join(str(r) for r in c["ladder_rps"]),
           "--epochs", str(c["epochs"]),
           "--out-dir", OUT_DIR, "--source-id", source_id()]
    if "scale" in c:
        cmd += ["--scale", str(c["scale"])]
    return cmd


def run_harness(cmd, capture):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = list(json.load(f))
    problems = []
    for w in workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s trace=%d" % (w, trace)
            proc = run_harness(harness_cmd(binary, w, 1, 2, trace, True), True)
            if proc.returncode != 0:
                problems.append("%s: exit code %d" % (name, proc.returncode))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (name, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d" %
                                (name, result["correct"], result["failed"]))
            if not any("error_rate 0" in ln for ln in lines):
                problems.append("%s: error_rate is not 0" % name)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for k in sorted(set(want) - set(got)):
                problems.append("%s: metric %s missing" % (name, k))
            for k in sorted(set(got) - set(want)):
                problems.append("%s: metric %s not in BENCHMARK.json" % (name, k))
            for k in sorted(set(want) & set(got)):
                if want[k] != got[k]:
                    problems.append("%s: %s unit %s, expected %s" % (name, k, got[k], want[k]))
            print("smoke %-24s %d metrics, %d operations" %
                  (name, len(got), result["attempted"]))
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload or --smoke is required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    cmd = harness_cmd(binary, args.workload, args.seed, args.seconds, args.trace, False)
    return run_harness(cmd, False).returncode


if __name__ == "__main__":
    sys.exit(main())
