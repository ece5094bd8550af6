#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit and a change: writes BENCH_<n>.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_12.json \\
        --what "one line on the change" --claim cube_q40_23:frame_ms_p50

Each side is checked out on its own (``src/`` and ``benchmarks/``: the
parent from ``git archive``, the change from the working tree) and runs the
benchmark command of BENCHMARK.json, unchanged, once per workload and seed:
``benchmarks/run.py --workload <w> --seed <seed> --seconds <s> --trace 0``.
Pair k uses one seed on both sides, and the side that runs first alternates
from pair to pair; pairs cycle over the workloads so slow spells of the
host spread across them. The report keeps, per workload and end-to-end
metric of BENCHMARK.json, each side's median and quartiles, the pairs the
change wins, the relative median gain, whether the change stays within
the metric's bound and whether that verdict is unresolved, plus every
run's metrics; its notes start empty.  A metric is unresolved when the
parent's own spread (its IQR) is wider than the bound, relative to the
parent's median, unless every change run is better than every parent
run: then a median inside the bound does not show that nothing changed.
A claim (``--claim``) is met when the change is better in nine pairs of
ten, by more than the parent's IQR in the median, every run on the
workload passed its checks, and the change failed no more operations
there than the parent.

After the pairs, each side runs once more per workload with ``--trace 1``
on the first pair's seed, one run at a time; the report keeps those runs'
per-layer metrics of BENCHMARK.json under ``traced``, so it shows which
layer a change moved.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKOUT_PATHS = ("src", "benchmarks")
SIDES = ("parent", "change")
# Sequence seeds whose synth_ico frame digests benchmarks/synth_digests.json
# holds, so every synth_ico run also checks its frames byte for byte.
DIGEST_SEEDS = tuple(range(10))
HOST_KEYS = ("seconds", "nproc", "usable_cpus", "cpu_model", "python", "numpy", "threads")


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True, timeout=120)
    return done.stdout


def checkout(rev: str | None, dest: Path) -> Path:
    """src/ and benchmarks/ of rev, or of the working tree when rev is None."""
    dest.mkdir(parents=True)
    if rev is None:
        files = git("ls-files", "-co", "--exclude-standard", "--", *CHECKOUT_PATHS).split("\n")
        for name in filter(None, files):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *CHECKOUT_PATHS],
                                 capture_output=True, check=True, timeout=120).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True, timeout=120)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run: its result line, host facts and exit code."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed no result:\n{done.stderr[-2000:]}")
    host = next((json.loads(line[len("host: "):]) for line in lines if line.startswith("host: ")), {})
    return {"result": json.loads(lines[-1]), "host": host, "exit": done.returncode}


def quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(spec: dict, parent: list, change: list) -> dict:
    """One metric's summary over paired runs, in BENCH_11.json's layout."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (c["median"] - p["median"])
    base = abs(p["median"])
    every_run_better = all(sign * (b - a) > 0 for a in parent for b in change)
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c,
        "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_gain_rel": gain / base if base else 0.0,
        "median_gap_exceeds_parent_iqr": gain > p["iqr"],
        "within_bound": gain >= -spec["bound"] * base,
        "unresolved": p["iqr"] > spec["bound"] * base and not every_run_better,
    }


def summarize(runs: dict, specs: dict) -> dict:
    """One workload's runs, {side: [run_once result]}, as the report holds
    them: whether every run passed its checks, each side's failed
    operations, compare() of every end-to-end metric, and every run's
    metrics."""
    return {
        "all_checks_passed": all(r["result"]["correct"] and r["exit"] == 0
                                 for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["result"]["failed"] for r in runs[side]) for side in SIDES},
        "metrics": {m: compare(spec, *([r["result"]["metrics"][m]["value"] for r in runs[side]]
                                       for side in SIDES))
                    for m, spec in specs.items()},
        "runs": {side: [{m: r["result"]["metrics"][m]["value"] for m in specs}
                        for r in runs[side]] for side in SIDES},
    }


def claim_verdict(entry: dict, metric: str) -> dict:
    """Whether the change improves the metric on one summarized workload.

    Met when the change is better in at least nine pairs of ten and its
    median beats the parent's by more than the parent's IQR, and only if
    every run on the workload passed its checks and the change failed no
    more operations there than the parent: a gain does not count when more
    operations fail."""
    s = entry["metrics"][metric]
    met = (s["change_better_pairs"] >= 0.9 * s["pairs"] and s["median_gap_exceeds_parent_iqr"]
           and entry["all_checks_passed"] and entry["failed"]["change"] <= entry["failed"]["parent"])
    return {"metric": metric,
            **{k: s[k] for k in ("change_better_pairs", "pairs", "median_gain_rel",
                                 "median_gap_exceeds_parent_iqr")},
            "all_checks_passed": entry["all_checks_passed"], "failed": entry["failed"], "met": met}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--out", required=True, type=Path, help="report path, BENCH_<n>.json")
    p.add_argument("--what", required=True, help="one line on what the change does")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--workloads", nargs="+", default=None, help="default: every BENCHMARK.json workload")
    p.add_argument("--seed-base", type=int, default=411,
                   help="pair k runs the cube workloads on seed base + k; synth_ico on seed k")
    p.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    p.add_argument("--workdir", type=Path, default=None, help="where the checkouts go (default: a temp dir)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2: quartiles need two runs a side")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or float(bench["run_seconds"])
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    layers = [m["name"] for m in bench["per_layer"]]
    if "synth_ico" in workloads and args.pairs > len(DIGEST_SEEDS):
        raise SystemExit(f"synth_ico has frame digests for {len(DIGEST_SEEDS)} seeds only")
    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    parent = git("rev-parse", args.parent).strip()
    trees = {"parent": checkout(parent, work / "parent"), "change": checkout(None, work / "change")}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    traced = {w: {} for w in workloads}
    seeds = {w: [k if w == "synth_ico" else args.seed_base + k for k in range(args.pairs)]
             for w in workloads}
    try:
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    run = run_once(trees[side], w, seeds[w][k], seconds)
                    runs[w][side].append(run)
                    ms = run["result"]["metrics"]
                    print(f"pair {k} {w} {side}: " + ", ".join(
                        f"{m} {ms[m]['value']:.4g}" for m in specs if m in ms), flush=True)
        for w in workloads:
            for side in SIDES:
                traced[w][side] = run_once(trees[side], w, seeds[w][0], seconds, trace=1)
                print(f"traced {w} {side}: done", flush=True)
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)

    first = runs[workloads[0]]["parent"][0]["host"]
    report = {
        "what": args.what,
        "command": f"python3 benchmarks/run.py --workload <w> --seed <seed> --seconds {seconds:g} --trace 0",
        "protocol": (
            "parent and change run from separate checkouts on the same host, one run at a time; "
            "each pair uses one seed, the side that runs first alternates from pair to pair, and "
            "pairs cycle over the workloads; medians and quartiles by statistics.median and "
            "statistics.quantiles(n=4, exclusive); change_better_pairs counts pairs where the "
            "change is better in the metric's direction; median_gap_exceeds_parent_iqr asks "
            "whether the change's median is better than the parent's by more than the parent's "
            "IQR; within_bound asks whether it is no worse by more than the BENCHMARK.json bound, "
            "relative to the parent's median; unresolved marks a metric whose parent IQR exceeds "
            "that bound unless every change run is better than every parent run; synth_ico uses seeds 0-9, whose frame digests "
            f"benchmarks/synth_digests.json holds; cube seeds start at {args.seed_base}"),
        "parent_commit": parent,
        "src_sha256": {side: sorted({r["host"].get("src_sha256") for w in workloads
                                     for r in runs[w][side]}) for side in SIDES},
        "host": {key: first.get(key) for key in HOST_KEYS},
        "claim": None,
        "every_metric_within_bound": True,
        "unresolved": [],
        "notes": [],
        "workloads": {},
    }
    for w in workloads:
        entry = {"seeds": seeds[w], "first": [SIDES[k % 2] for k in range(args.pairs)],
                 **summarize(runs[w], specs)}
        for m, summary in entry["metrics"].items():
            report["every_metric_within_bound"] &= summary["within_bound"]
            if summary["unresolved"]:
                report["unresolved"].append(f"{w}:{m}")
        report["workloads"][w] = entry
    if args.claim:
        w, m = args.claim.split(":")
        report["claim"] = {"workload": w, **claim_verdict(report["workloads"][w], m)}
    report["traced"] = {
        "command": (f"python3 benchmarks/run.py --workload <w> --seed <first pair's seed> "
                    f"--seconds {seconds:g} --trace 1"),
        "protocol": ("one traced run per side and workload, from the same checkouts as the "
                     "paired runs, run one at a time after them, parent first"),
        "runs": {w: {side: {"correct": r["result"]["correct"] and r["exit"] == 0,
                            "attempted": r["result"]["attempted"],
                            "failed": r["result"]["failed"],
                            **{m: r["result"]["metrics"][m]["value"] for m in layers
                               if m in r["result"]["metrics"]}}
                     for side, r in traced[w].items()} for w in workloads},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    passed = all(e["all_checks_passed"] for e in report["workloads"].values())
    passed &= all(r["correct"] for w in workloads for r in report["traced"]["runs"][w].values())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
