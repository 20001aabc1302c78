#!/usr/bin/env python3
"""Reduce a perfbench Chrome trace to per-span self times on the wall axis.

    python3 perfbench/reduce_trace.py trace.json

A span's self time is its duration minus the part of it that its child
spans cover, where a child is a span on the same thread that starts inside
it (spans on one thread nest; work handed to another thread shows up as
waiting in the parent).  Prints, per span name, the count, total and median
self time, and the median self time per operation for spans that carry an
"ops" argument.  tools/trace_report.py covers the simulated axis of the same
file; this script covers the wall axis, which it does not read.
"""

import json
import statistics
import sys
from collections import defaultdict

WALL_PID = 1


def self_times(events):
    """Yield (name, self_us, args) for every wall-axis complete span."""
    by_thread = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X" and ev.get("pid") == WALL_PID:
            by_thread[ev.get("tid")].append(ev)
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
        covered = [0.0] * len(spans)
        stack = []  # indices of open ancestors
        for i, ev in enumerate(spans):
            while stack and spans[stack[-1]]["ts"] + spans[stack[-1]].get("dur", 0.0) <= ev["ts"]:
                stack.pop()
            if stack:
                covered[stack[-1]] += ev.get("dur", 0.0)
            stack.append(i)
        for ev, cov in zip(spans, covered):
            yield ev.get("name", ""), max(0.0, ev.get("dur", 0.0) - cov), ev.get("args", {})


def summarize(events):
    """Per span name: count, total/median self us, median self us per op."""
    selfs = defaultdict(list)
    per_op = defaultdict(list)
    for name, self_us, args in self_times(events):
        selfs[name].append(self_us)
        ops = args.get("ops", 0)
        if ops:
            per_op[name].append(self_us / ops)
    return {
        name: {
            "count": len(v),
            "total_self_us": sum(v),
            "median_self_us": statistics.median(v),
            "median_self_us_per_op": statistics.median(per_op[name]) if per_op[name] else 0.0,
        }
        for name, v in selfs.items()
    }


def load(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        table = summarize(load(sys.argv[1]))
    except (OSError, KeyError, ValueError) as e:
        print(f"{sys.argv[1]}: cannot reduce: {e}", file=sys.stderr)
        return 1
    width = max((len(n) for n in table), default=4)
    print(f"{'span':<{width}}  {'count':>7}  {'total ms':>11}  {'median us':>11}  {'us/op':>9}")
    for name, s in sorted(table.items(), key=lambda kv: -kv[1]["total_self_us"]):
        print(f"{name:<{width}}  {s['count']:>7}  {s['total_self_us'] / 1e3:>11.3f}  "
              f"{s['median_self_us']:>11.3f}  {s['median_self_us_per_op']:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
