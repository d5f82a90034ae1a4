#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py [--seconds 2]

Runs from the root of a checkout and fails (exit 1) unless:
  - every workload completes a short untraced and traced run with correct
    outputs, no failed op and every declared metric reported;
  - the traced ledger closes within 10% on both inventory workloads;
  - a deliberately wrong expectation (off by one) makes the run fail, on an
    inventory workload and on ged_loopback, so the output checks cannot rot
    into always passing;
  - in a directory holding only BENCHMARK.json and e2ebench/, the benchmark
    exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, seconds, trace, extra=(), cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            code, result = run(name, args.seconds, trace)
            label = "%s trace=%d" % (name, trace)
            expect(code == 0 and result is not None and result["correct"],
                   label + ": correct outputs")
            if result is None:
                continue
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   label + ": %d attempted, %d failed" %
                   (result["attempted"], result["failed"]))
            expect(set(result["metrics"]) == {m["name"] for m in declared},
                   label + ": every declared metric reported")
            if not trace:
                zero = [m for m, v in result["metrics"].items()
                        if v["value"] <= 0]
                expect(not zero, label + ": no end-to-end metric is 0 %s" %
                       (zero or ""))
            elif name.startswith("inventory"):
                pct = result["metrics"]["ledger.unaccounted_pct"]["value"]
                expect(abs(pct) < 10,
                       label + ": ledger closes (%.2f%% unaccounted)" % pct)

    for name in ("inventory_mem", "ged_loopback"):
        code, result = run(name, args.seconds, 0, ["--expect-offset", "1"])
        expect(code != 0 and result is not None and not result["correct"],
               name + ": an expectation off by one fails the run")

    isolated = os.path.join(ROOT, ".bench_build", "selftest-isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
    shutil.copytree(HERE, os.path.join(isolated, "e2ebench"))
    code, result = run("inventory_mem", 1, 0, cwd=isolated,
                       script=os.path.join(isolated, "e2ebench", "run.py"))
    shutil.rmtree(isolated, ignore_errors=True)
    expect(code != 0 and result is None,
           "without the library sources the benchmark fails without a result")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
