"""The summary of tools/bench_pairs.py on synthetic runs (no perfbench process)."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"answers_per_s": "higher", "peak_rss_mb": "lower"}


def runs_of(workload, seed, pairs, digest="checked"):
    """Two runs per pair: the change 10% faster than the parent but the
    first, and 1 MB larger in every pair; odd pairs parent first."""
    runs = []
    for pair, (rate, rss) in enumerate(pairs, start=1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            faster = side == "change"
            runs.append(
                {
                    "workload": workload, "seed": seed, "seconds": 35, "pair": pair,
                    "order": "-".join(order), "side": side, "exit": 0, "failed": 0,
                    "attempted": 1000, "digest": digest,
                    "metrics": {
                        "answers_per_s": rate * (1.1 if faster and pair > 1 else 0.9 if faster else 1),
                        "peak_rss_mb": rss + faster,
                    },
                }
            )
    return runs


def test_a_summary_pairs_the_runs_and_counts_the_wins():
    pairs = [(100, 20), (110, 21), (90, 22), (120, 23), (105, 24)]
    doc = bench_pairs.summarize(runs_of("local", 1, pairs), METRICS)
    s = doc["summary"]["local seed 1"]["answers_per_s"]
    assert s["parent_runs"] == [100, 110, 90, 120, 105]
    assert s["change_runs"] == pytest.approx([90, 121, 99, 132, 115.5])
    assert s["parent_median"] == 105 and s["change_median"] == pytest.approx(115.5)
    # inclusive quartiles of 90, 100, 105, 110, 120: the second and fourth points
    assert s["parent_quartiles"] == [100, 110] and s["parent_iqr"] == 10
    assert s["median_gap"] == pytest.approx(10.5)
    assert s["change_over_parent"] == pytest.approx(1.1)
    assert s["per_pair_ratio"] == pytest.approx([0.9, 1.1, 1.1, 1.1, 1.1])
    assert s["change_better_pairs"] == 4 and s["pairs"] == 5
    rss = doc["summary"]["local seed 1"]["peak_rss_mb"]
    # lower is better: the larger change loses every pair
    assert rss["change_better_pairs"] == 0 and rss["median_gap"] == 1
    assert doc["notes"][-1] == "Every run: exit 0, failed 0, digest checked."
    assert "claim" not in doc


def test_a_claim_pools_the_pairs_of_every_seed_and_flags_unchecked_runs():
    runs = runs_of("local", 1, [(100, 20), (110, 20)]) + runs_of("local", 7, [(90, 20), (120, 20)], "not-recorded")
    runs += runs_of("chain", 1, [(50, 30)])
    doc = bench_pairs.summarize(runs, METRICS, "local:answers_per_s")
    assert set(doc["summary"]) == {"chain seed 1", "local seed 1", "local seed 7"}
    claim = doc["claim"]
    assert claim["pairs"] == 4 and claim["change_better_pairs"] == 2
    assert claim["per_pair_ratio"] == pytest.approx([0.9, 1.1, 0.9, 1.1])
    assert "parent_runs" not in claim
    assert doc["notes"][0].startswith("Claim: local answers_per_s")
    assert doc["notes"][-1].startswith("4 runs")
    # one pair has no spread, and a pair with one side missing is left out
    one = doc["summary"]["chain seed 1"]["answers_per_s"]
    assert one["parent_quartiles"] == [50, 50] and one["pairs"] == 1
    del runs[4]["metrics"]["answers_per_s"]  # local seed 7, pair 1
    assert bench_pairs.summarize(runs, METRICS)["summary"]["local seed 7"]["answers_per_s"]["pairs"] == 1
    # a metric with no whole pair is refused
    del runs[-1]["metrics"]["answers_per_s"]
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs, METRICS)
