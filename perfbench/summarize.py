#!/usr/bin/env python3
"""Summarize results files across runs (seeds) of the benchmark.

    python3 perfbench/summarize.py .perfbench/results/*-trace0.json

For every workload and every metric of the given untraced runs it prints
the median over runs and the spread, the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  Traced runs contribute their per-layer metrics.  ``baseline.json``
holds this summary for the runs made when the benchmark was added.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def spread_stats(values):
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def summarize(records):
    """{workload: {"end_to_end", "op_metrics", "per_layer", "runs", ...}}."""
    by_workload = {}
    for rec in records:
        w = by_workload.setdefault(rec["workload"], {"untraced": [], "traced": []})
        w["traced" if rec["trace"] else "untraced"].append(rec)
    out = {}
    for name, group in sorted(by_workload.items()):
        runs = sorted(group["untraced"], key=lambda r: r["seed"])
        entry = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "outputs_sha256": {str(r["seed"]): r["outputs_sha256"] for r in runs},
            "end_to_end": {}, "op_metrics": {},
        }
        for rec in runs:
            for metric, v in rec["result"]["metrics"].items():
                entry["end_to_end"].setdefault(metric, []).append(v["value"])
            for metric, v in rec["op_metrics"].items():
                entry["op_metrics"].setdefault(metric, []).append(v["median"])
        for key in ("end_to_end", "op_metrics"):
            entry[key] = {m: spread_stats(v) for m, v in entry[key].items()}
        if group["traced"]:
            traced = sorted(group["traced"], key=lambda r: r["seed"])
            entry["per_layer"] = {
                "seeds": [r["seed"] for r in traced],
                "metrics": {m: statistics.median(r["per_layer"][m] for r in traced)
                            for m in traced[0]["per_layer"]},
            }
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", help="results files written by run.py")
    args = parser.parse_args(argv)
    records = []
    for path in args.results:
        with open(path) as fh:
            records.append(json.load(fh))
    for workload, entry in summarize(records).items():
        print(f"== {workload}: {len(entry['seeds'])} runs, "
              f"{entry['failed']} of {entry['attempted']} operations failed")
        for key in ("end_to_end", "op_metrics"):
            for metric, s in entry[key].items():
                spread = f"{s['spread']:.4f}" if s.get("spread") is not None else "n/a"
                print(f"   {metric:<30} median {s['median']:.6g}  spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
