#!/usr/bin/env python3
"""Median, quartiles and spread of benchmark results, per workload and metric.

Usage, from the repository root, after runs with several seeds:

    python3 benchmarks/summarize.py                 # all of .bench_results/
    python3 benchmarks/summarize.py --baseline benchmarks/BASELINE.json

Spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median; an end-to-end metric
is steady when its spread stays below a third of its bound in
BENCHMARK.json. ``--baseline`` also writes the summary, with the host facts
of the first result, to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths) -> dict:
    groups = defaultdict(list)  # (workload, trace) -> results
    for path in paths:
        result = json.loads(path.read_text())
        groups[(result["host"]["workload"], result["host"]["trace"])].append(result)
    summary = {}
    for (workload, trace), results in sorted(groups.items()):
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"],
                             "spread": (q3 - q1) / median if median else 0.0}
        summary[f"{workload} trace {trace}"] = {
            "runs": len(results),
            "seeds": sorted(r["host"]["seed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", nargs="*", type=Path)
    p.add_argument("--baseline", type=Path)
    args = p.parse_args()
    paths = args.results or sorted((ROOT / ".bench_results").glob("*.json"))
    if not paths:
        p.error("no result files")
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = summarize(paths)
    for group, s in summary.items():
        print(f"{group}: {s['runs']} runs, correct {s['correct']}, "
              f"{s['failed']} of {s['attempted']} frames failed")
        for name, m in s["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] < bound / 3 else "  above a third of its bound"
            print(f"  {name:<32} {m['median']:14.6f} {m['unit']:<12} spread {m['spread']:.3f}{flag}")
    if args.baseline:
        host = json.loads(paths[0].read_text())["host"]
        host = {k: v for k, v in host.items() if k not in ("workload", "seed", "trace")}
        args.baseline.write_text(json.dumps({"host": host, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
