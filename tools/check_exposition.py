#!/usr/bin/env python3
"""Validates Prometheus text exposition (format 0.0.4) scraped from
/metrics. Checks the properties a real Prometheus server enforces on
ingest, so CI catches a malformed exposition before an operator's scraper
does:

  - every sample line parses as  name{labels} value ;
  - every sampled family has exactly one # HELP and one # TYPE line,
    emitted before its first sample;
  - every family is one contiguous group: once another family's lines
    start, the family's lines do not resume;
  - histogram _bucket series have numerically increasing le labels per
    labelset, cumulative non-decreasing values, a closing le="+Inf" bucket,
    and _count == the +Inf bucket;
  - counter/histogram values are non-negative finite numbers (gauges may
    be negative: clock offsets are signed).

Usage: check_exposition.py [--require PREFIX]... [<file>]
       (or pipe the body on stdin)
Each --require asserts that at least one sampled family starts with
PREFIX — CI uses it to pin down families that must be present.
Exits non-zero with a description of the first violation.
"""

import argparse
import math
import re
import sys
from collections import defaultdict

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def fail(msg: str) -> None:
    print(f"exposition check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("path", nargs="?", help="exposition body (default stdin)")
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="PREFIX",
        help="fail unless some sampled family starts with PREFIX",
    )
    args = ap.parse_args()
    text = open(args.path).read() if args.path else sys.stdin.read()
    helps: dict[str, int] = defaultdict(int)
    types: dict[str, str] = {}
    type_counts: dict[str, int] = defaultdict(int)
    samples = []  # (name, labels dict, raw labels str, value)
    line_names = []  # (lineno, metric or family name) of every line

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            helps[name] += 1
            line_names.append((lineno, name))
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            name, kind = parts[2], parts[3]
            type_counts[name] += 1
            types[name] = kind
            line_names.append((lineno, name))
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"line {lineno}: unparseable sample: {line!r}")
        name, _, labels_raw, value_raw = m.groups()
        labels = dict(LABEL_RE.findall(labels_raw or ""))
        if value_raw != "+Inf":
            try:
                value = float(value_raw)
            except ValueError:
                fail(f"line {lineno}: bad value {value_raw!r}")
            if math.isnan(value):
                fail(f"line {lineno}: NaN value in {line!r}")
        samples.append((name, labels, labels_raw or "", float(value)))
        line_names.append((lineno, name))

    if not samples:
        fail("no samples found")

    # Family bookkeeping: strip histogram suffixes back to the family name.
    def family_of(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                return name[: -len(suffix)]
        return name

    # One group per family (exposition format 0.0.4).
    finished = set()
    current = None
    for lineno, name in line_names:
        family = family_of(name)
        if family == current:
            continue
        if family in finished:
            fail(f"line {lineno}: family {family} resumes after family "
                 f"{current}; each family must be one contiguous group")
        if current is not None:
            finished.add(current)
        current = family

    seen_families = set()
    for name, labels, _, value in samples:
        family = family_of(name)
        seen_families.add(family)
        if family not in types:
            fail(f"family {family} sampled without a # TYPE line")
        if helps[family] != 1:
            fail(f"family {family}: {helps[family]} HELP lines (want 1)")
        if type_counts[family] != 1:
            fail(f"family {family}: {type_counts[family]} TYPE lines")
        # Only gauges may go negative (signed clock offsets); a negative
        # counter or histogram series is a bug a scraper would reject.
        if value < 0 and types[family] != "gauge":
            fail(f"family {family}: negative {types[family]} value {value}")

    for prefix in args.require:
        if not any(f.startswith(prefix) for f in seen_families):
            fail(f"no sampled family starts with required prefix {prefix!r}")

    # Histogram shape per (family, labelset-without-le).
    buckets: dict[tuple, list] = defaultdict(list)
    counts: dict[tuple, float] = {}
    for name, labels, _, value in samples:
        family = family_of(name)
        if types.get(family) != "histogram":
            continue
        key_labels = tuple(
            sorted((k, v) for k, v in labels.items() if k != "le")
        )
        if name.endswith("_bucket"):
            buckets[(family, key_labels)].append((labels.get("le"), value))
        elif name.endswith("_count"):
            counts[(family, key_labels)] = value

    for (family, key_labels), series in buckets.items():
        prev_le = -1.0
        prev_value = -1.0
        if series[-1][0] != "+Inf":
            fail(f"{family}{dict(key_labels)}: last bucket is not +Inf")
        for le_raw, value in series:
            le = math.inf if le_raw == "+Inf" else float(le_raw)
            if le <= prev_le:
                fail(f"{family}{dict(key_labels)}: le not increasing "
                     f"({le_raw} after {prev_le})")
            if value < prev_value:
                fail(f"{family}{dict(key_labels)}: buckets not cumulative "
                     f"({value} after {prev_value})")
            prev_le, prev_value = le, value
        count = counts.get((family, key_labels))
        if count is not None and count != series[-1][1]:
            fail(f"{family}{dict(key_labels)}: _count {count} != "
                 f"+Inf bucket {series[-1][1]}")

    print(
        f"exposition OK: {len(samples)} samples across "
        f"{len(seen_families)} families, "
        f"{len(buckets)} histogram series validated"
    )


if __name__ == "__main__":
    main()
