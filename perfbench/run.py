#!/usr/bin/env python3
"""Build and run the Session-level benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload ledger_disk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The benchmark is compiled from the checkout's own src/ into the build
directory ($CARGO_TARGET_DIR if set, else .bench_build). The store files
and span files of a run live there too. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero when the build fails, a run fails, or any output or
plausibility check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["trigger_dense_mm", "commit_mm", "commit_disk", "ledger_disk"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the program and benchmark sources, for provenance."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    """HEAD of the checkout, or 'unknown' when the checkout is not itself
    a git work tree (an enclosing repository does not count)."""
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return "unknown"
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(root, trace):
    """{name: unit} that BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, build_dir, workload, args, env):
    store_dir = os.path.join(build_dir, "store")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(store_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--store-dir", store_dir,
           "--spans-out", os.path.join(spans_dir, f"{workload}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: no result within {RUN_TIMEOUT_S}s")
        return None, 1
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1], flush=True)
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"{workload}: exited {proc.returncode} without a result line")
        return None, proc.returncode or 1
    return result, proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "odepp", "session.h")):
        log(f"no Ode sources under {root}/src: run from a full checkout")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        log("build failed")
        return 2

    declared = declared_metrics(root, args.trace)
    env = dict(os.environ)
    env["PERFBENCH_GIT_COMMIT"] = git_commit(root)
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(root)

    def checked(workload):
        result, code = run_one(binary, build_dir, workload, args, env)
        if result is not None:
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != declared:
                log(f"{workload}: metrics differ from BENCHMARK.json: "
                    f"{sorted(set(got.items()) ^ set(declared.items()))}")
                result["correct"] = False
                code = code or 1
        return result, code

    if args.workload != "all":
        result, code = checked(args.workload)
        if result is None:
            return code
        print(json.dumps(result), flush=True)
        return code

    # One command for every workload: each result line, a table on
    # stderr, and a combined last line with workload-prefixed metrics.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        result, code = checked(workload)
        if result is None:
            return code
        print(json.dumps({"workload": workload, **result}), flush=True)
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            log(f"{workload:18s} {name:36s} {metric['value']:>14.6g} {metric['unit']}")
        log(f"{workload:18s} {'correct':36s} {str(result['correct']):>14s}")
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
