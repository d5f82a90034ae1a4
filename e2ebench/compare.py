#!/usr/bin/env python3
"""Compares two sets of benchmark run records.

    python3 e2ebench/compare.py BASE CHANGE

BASE and CHANGE are directories of the records run.py writes to
<build>/results/ (copy them aside between commits). For each workload and
metric it prints both medians, the change and each side's quartile spread.
It refuses to compare records taken with different CPU counts, or with a
different build type or compiler: their figures do not measure the same
thing.
"""

import glob
import json
import os
import statistics
import sys

MACHINE_KEYS = ("nproc", "cpus_used", "build_type", "compiler")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare: no records in " + directory)
    return records


def machine(records, label):
    seen = {tuple(r["info"].get(k) for k in MACHINE_KEYS) for r in records}
    if len(seen) != 1:
        sys.exit("compare: %s mixes machines/builds: %s" % (label, sorted(seen)))
    return seen.pop()


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def group(records):
    out = {}
    for r in records:
        key = (r["info"]["workload"], int(r["info"]["trace"]))
        for name, m in r["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    mb, mc = machine(base, "BASE"), machine(change, "CHANGE")
    if mb != mc:
        sys.exit("compare: refusing to compare different machines/builds:\n"
                 "  BASE   %s\n  CHANGE %s" % (dict(zip(MACHINE_KEYS, mb)),
                                               dict(zip(MACHINE_KEYS, mc))))
    gb, gc = group(base), group(change)
    print("%-36s %14s %14s %8s %7s %7s" %
          ("workload / metric", "base median", "change median", "change",
           "iqr_b", "iqr_c"))
    for key in sorted(set(gb) & set(gc)):
        print("%s (trace=%d)" % key)
        for name in sorted(set(gb[key]) & set(gc[key])):
            b = statistics.median(gb[key][name])
            c = statistics.median(gc[key][name])
            delta = (c - b) / b * 100 if b else float("nan")
            print("  %-34s %14.6g %14.6g %7.1f%% %7.3f %7.3f" %
                  (name, b, c, delta, spread(gb[key][name]),
                   spread(gc[key][name])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
