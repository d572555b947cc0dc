#!/usr/bin/env python3
"""Diff committed BENCH_*.json artifacts against a freshly generated set.

The repo commits one JSON artifact per bench (BENCH_scalability.json,
BENCH_wcmp.json, BENCH_workload.json, ...). After rerunning a bench into
some output
directory, this script lines the two trees up and reports every metric that
moved, so a PR review can separate "the code got faster" from "the artifact
was regenerated on different hardware".

Usage:
    scripts/bench_diff.py --fresh build/ [--committed .] [--threshold 0.05]
    scripts/bench_diff.py old.json new.json

Exit status: 0 when every compared metric moved less than the threshold,
1 when something exceeded it, 2 when no artifact pair could be compared.

Rules:
  * Numeric leaves are compared by relative delta (absolute when the
    committed value is 0). Wall-clock / rate metrics are reported but never
    counted as regressions by themselves (they depend on the host).
  * Non-numeric leaves (topology names, protocol labels) must match
    exactly; a mismatch means the bench matrix itself changed.
  * Keys present on one side only are listed as added/removed — an expected
    outcome when a bench gains new telemetry.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Host-dependent metrics: report deltas, but never fail the diff on them.
HOST_DEPENDENT = {
    "events_per_sec",
    "events_per_wall_sec",  # BENCH_buffer_occupancy.json throughput telemetry
    "wall_seconds",
    "speedup_vs_1",
    "hardware_concurrency",
    "ns_per_event",
}


def walk(node, prefix=""):
    """Yields (path, leaf) for every scalar in a nested JSON value."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            yield from walk(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from walk(value, f"{prefix}[{index}]")
    else:
        yield prefix, node


def leaf_name(path):
    """The final key of a dotted/indexed path ('points[3].events_per_sec')."""
    tail = path.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def diff_pair(name, committed, fresh, threshold):
    """Compares two parsed artifacts; returns (lines, regression_count)."""
    old = dict(walk(committed))
    new = dict(walk(fresh))
    lines = []
    regressions = 0

    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"  - {path}: removed (was {old[path]!r})")
            continue
        if path not in old:
            lines.append(f"  + {path}: added = {new[path]!r}")
            continue
        a, b = old[path], new[path]
        if a == b:
            continue
        numeric = isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool)
        if not numeric:
            lines.append(f"  ! {path}: {a!r} -> {b!r} (bench matrix changed)")
            regressions += 1
            continue
        rel = abs(b - a) / abs(a) if a != 0 else float("inf")
        moved = f"{a:g} -> {b:g} ({'+' if b >= a else '-'}{rel * 100:.1f}%)"
        if leaf_name(path) in HOST_DEPENDENT:
            lines.append(f"  ~ {path}: {moved} [host-dependent, ignored]")
        elif rel >= threshold:
            lines.append(f"  ! {path}: {moved}")
            regressions += 1
        else:
            lines.append(f"  ~ {path}: {moved}")

    if not lines:
        lines.append("  (identical)")
    return [f"{name}:"] + lines, regressions


def main():
    parser = argparse.ArgumentParser(
        description="Diff committed BENCH_*.json against a fresh run")
    parser.add_argument("files", nargs="*",
                        help="explicit pair: OLD.json NEW.json")
    parser.add_argument("--committed", default=".",
                        help="directory holding the committed artifacts")
    parser.add_argument("--fresh", default="build",
                        help="directory holding the freshly generated ones")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative delta that counts as a regression")
    args = parser.parse_args()

    if args.files and len(args.files) != 2:
        parser.error("explicit mode takes exactly two files")

    pairs = []
    if args.files:
        pairs.append((Path(args.files[0]), Path(args.files[1])))
    else:
        committed_dir = Path(args.committed)
        fresh_dir = Path(args.fresh)
        for committed in sorted(committed_dir.glob("BENCH_*.json")):
            fresh = fresh_dir / committed.name
            if fresh.exists():
                pairs.append((committed, fresh))
            else:
                print(f"{committed.name}: no fresh counterpart under "
                      f"{fresh_dir}/ (skipped)")

    if not pairs:
        print("nothing to compare", file=sys.stderr)
        return 2

    total_regressions = 0
    for committed, fresh in pairs:
        try:
            old = json.loads(committed.read_text())
            new = json.loads(fresh.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"{committed.name}: unreadable pair ({err})", file=sys.stderr)
            total_regressions += 1
            continue
        lines, regressions = diff_pair(committed.name, old, new,
                                       args.threshold)
        print("\n".join(lines))
        total_regressions += regressions

    if total_regressions:
        print(f"\n{total_regressions} metric(s) exceeded the "
              f"{args.threshold * 100:g}% threshold")
        return 1
    print("\nall compared metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
