"""The paired-run report of tools/bench_pairs.py: its per-metric summary
and its claim rule, on hand-made run lists."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
LOWER = {"unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "ratio", "better": "higher", "bound": 0.02}
PARENT = [10.0, 10.5, 11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_summarizes_one_metric(bench_pairs):
    compare = bench_pairs.compare
    # Every change run 4 ms faster: ten better pairs, a median gap above the
    # parent's IQR (10.875 to 13.625) and within the bound.
    s = compare(LOWER, PARENT, [v - 4.0 for v in PARENT])
    assert s["parent"] == {"median": 12.25, "q1": 10.875, "q3": 13.625, "iqr": 2.75}
    assert s["change"]["median"] == 8.25
    assert (s["change_better_pairs"], s["pairs"]) == (10, 10)
    assert s["median_gain_rel"] == pytest.approx(4.0 / 12.25)
    assert s["median_gap_exceeds_parent_iqr"] and s["within_bound"] and not s["unresolved"]
    # 2 ms faster: better in every pair, but by less than the parent's IQR.
    s = compare(LOWER, PARENT, [v - 2.0 for v in PARENT])
    assert s["change_better_pairs"] == 10 and not s["median_gap_exceeds_parent_iqr"]
    # 30% slower breaks the 25% bound; 20% slower does not.
    assert not compare(LOWER, PARENT, [v * 1.3 for v in PARENT])["within_bound"]
    assert compare(LOWER, PARENT, [v * 1.2 for v in PARENT])["within_bound"]
    # A higher-is-better metric 3% lower breaks its 2% bound.
    ok = [0.9 + 0.01 * k for k in range(10)]
    s = compare(HIGHER, ok, [v * 0.97 for v in ok])
    assert s["change_better_pairs"] == 0 and s["median_gain_rel"] < 0 and not s["within_bound"]


def test_compare_marks_a_spread_wider_than_the_bound_unresolved(bench_pairs):
    compare = bench_pairs.compare
    wide = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0]  # IQR 5.5 > 0.25 * 9.5
    s = compare(LOWER, wide, list(reversed(wide)))
    assert s["within_bound"] and s["unresolved"]
    # Unless every change run beats every parent run.
    s = compare(LOWER, wide, [v - 10.0 for v in wide])
    assert not s["unresolved"] and s["within_bound"]


def run(value, failed=0, correct=True, exit_code=0):
    """One run_once result with one metric."""
    return {"result": {"metrics": {"frame_ms_p50": {"value": value}}, "correct": correct,
                       "failed": failed},
            "exit": exit_code, "host": {}}


def runs(parent, change):
    return {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}


def verdict(bench_pairs, workload_runs):
    entry = bench_pairs.summarize(workload_runs, {"frame_ms_p50": LOWER})
    return entry, bench_pairs.claim_verdict(entry, "frame_ms_p50")


def test_claim_is_met_only_by_a_clear_gain_with_no_more_failures(bench_pairs):
    faster = [v - 4.0 for v in PARENT]
    entry, claim = verdict(bench_pairs, runs(PARENT, faster))
    assert entry["all_checks_passed"] and entry["failed"] == {"parent": 0, "change": 0}
    assert entry["runs"]["change"] == [{"frame_ms_p50": v} for v in faster]
    assert claim["met"] and claim["change_better_pairs"] == 10

    # Nine better pairs of ten are enough; eight are not.
    nine = faster[:9] + [PARENT[9] + 1.0]
    assert verdict(bench_pairs, runs(PARENT, nine))[1]["met"]
    eight = faster[:8] + [PARENT[8] + 1.0, PARENT[9] + 1.0]
    assert not verdict(bench_pairs, runs(PARENT, eight))[1]["met"]
    # A gap inside the parent's IQR is not a gain.
    assert not verdict(bench_pairs, runs(PARENT, [v - 2.0 for v in PARENT]))[1]["met"]

    # The same times with more failed operations on the change do not count.
    more_failed = runs(PARENT, faster)
    more_failed["change"][3] = run(faster[3], failed=2)
    entry, claim = verdict(bench_pairs, more_failed)
    assert entry["failed"] == {"parent": 0, "change": 2} and not claim["met"]
    # Failures the parent has too leave the claim met, while every run
    # still passes its checks.
    both_failed = runs(PARENT, faster)
    both_failed["parent"][0] = run(PARENT[0], failed=2)
    both_failed["change"][5] = run(faster[5], failed=1)
    entry, claim = verdict(bench_pairs, both_failed)
    assert entry["failed"] == {"parent": 2, "change": 1} and claim["met"]

    # A run that failed its checks, on either side, voids the claim.
    for side, fault in (("change", {"correct": False}), ("parent", {"exit_code": 1})):
        broken = runs(PARENT, faster)
        broken[side][0] = run(broken[side][0]["result"]["metrics"]["frame_ms_p50"]["value"], **fault)
        entry, claim = verdict(bench_pairs, broken)
        assert not entry["all_checks_passed"] and not claim["met"], side
