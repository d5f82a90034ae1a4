#!/usr/bin/env python3
"""End-to-end ECA pipeline benchmark: one run of one workload.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the driver and the
library from source (CMake, Release) under $CARGO_TARGET_DIR (default
.bench_build); later runs reuse the build. The driver runs the workload and
checks its outputs; this script prints a short report and, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
BENCHMARK.json's end_to_end metrics with --trace 0, its per_layer metrics
with --trace 1. The driver reports a per-layer metric of a layer the
workload never calls (the network on the inventory workloads, storage on the
in-memory ones, rules on ged_loopback) as 0; a declared metric it does not
report fails the run. Each run's full record, with the seed, the CPU
count, build type and compiler, goes to <build>/results/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("inventory_mem", "inventory_durable", "ged_loopback")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(out, "e2e_driver")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-test hooks (see selftest.py).
    parser.add_argument("--expect-offset", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    out = build_dir()
    metrics_spec = declared_metrics(args.trace)
    driver = build(out)

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run_dir = os.path.join(out, "run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--expect-offset", str(args.expect_offset)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(results, name + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        # Settle the deletion (and, on file systems mounted with `discard`,
        # its trims) now rather than inside the next run's timing.
        os.sync()
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver exited with %d and printed no result" % proc.returncode)

    metrics = {}
    for m in metrics_spec:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("driver did not report " + m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, declared %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(report["correct"]) and proc.returncode == 0

    record = dict(report)
    record["command"] = cmd
    record["exit_code"] = proc.returncode
    with open(os.path.join(results, name + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    info = report["info"]
    print("# %s seed=%d trace=%d nproc=%s cpus=%s %s %s" % (
        args.workload, args.seed, args.trace, info.get("nproc"),
        info.get("cpus_used"), info.get("build_type"), info.get("compiler")))
    for check in report["checks"]:
        print("# check " + check)
    for key in sorted(info):
        if key.endswith(("_samples", "_per_window")) or key.startswith(
                ("gen_lag", "trace.", "oodb.", "storage.", "ged.")):
            print("# %s = %s" % (key, info[key]))
    # Tail percentiles: in the record and here, not gated (see README.md).
    for name in sorted(report["metrics"]):
        if name.endswith(("_p90_us", "_p99_us")):
            print("# %s = %s" % (name, report["metrics"][name]["value"]))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
