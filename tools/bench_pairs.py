"""Alternating parent/change pairs of perfbench runs, summarised as a BENCH file.

    python3 tools/bench_pairs.py --parent PATH --change PATH \
        --workloads local --seeds 1 7 --pairs 5 --seconds 35 \
        --out BENCH_N.json [--claim local:answers_per_s] [--append]

PATH is the root of a source checkout with ``perfbench/run.py`` and
``src/credalcones``, usually an archive of the parent commit and a copy of
the change.  For every workload and seed, pair i runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in both trees, the parent first in odd pairs and the change first in even
ones, one process at a time, with ``PYTHONDONTWRITEBYTECODE=1``.  A tree
with a ``__pycache__`` directory under ``src/`` or ``perfbench/`` is
refused before any run: ``peak_rss_mb`` reads about 1 MB lower from
compiled files.  Nothing in either tree is written but perfbench's own
work directories.

The output keeps every run (its exit code, failed count, digest status and
end-to-end metrics) and, per workload and seed and per metric of
``BENCHMARK.json``'s ``end_to_end`` list: the medians of both sides, the
parent's inclusive quartiles (``statistics.quantiles(n=4,
method="inclusive")``, the first and the third) and their distance, the
median gap, the per-pair ratios change / parent and the number of pairs
the change won in the metric's better direction.  ``--claim W:METRIC``
pools the pairs of every seed of W into one such entry.  ``--append``
adds the runs to those already in ``--out`` (pairs numbered on from the
last) and summarises them all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The summary of one metric over paired runs: parent[i] and change[i]
    are the two sides of pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("a summary needs one parent and one change run per pair")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    # quantiles needs two points; one pair has no spread
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
    wins = [c > p if better == "higher" else c < p for p, c in zip(parent, change)]
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_over_parent": c_med / p_med,
        "parent_quartiles": [q1, q3],
        "parent_iqr": q3 - q1,
        "median_gap": abs(c_med - p_med),
        "change_better_pairs": sum(wins),
        "pairs": len(parent),
        "per_pair_ratio": [c / p for p, c in zip(parent, change)],
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def _sides(runs: list[dict], metric: str) -> tuple[list[float], list[float]]:
    """The parent's and the change's values of metric, pair by pair, over
    runs of one group; a pair missing a side is left out."""
    by_pair: dict[tuple, dict] = {}
    for r in runs:
        if metric in r["metrics"]:
            by_pair.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r["metrics"][metric]
    pairs = [by_pair[k] for k in sorted(by_pair) if len(by_pair[k]) == 2]
    return [p["parent"] for p in pairs], [p["change"] for p in pairs]


def summarize(runs: list[dict], metrics: dict[str, str], claim: str | None = None) -> dict:
    """summary, claim and notes of a BENCH file from its runs.  metrics maps
    each end-to-end metric to its better direction ("higher" or "lower");
    claim is "WORKLOAD:METRIC", pooled over every seed of the workload."""
    groups: dict[str, list[dict]] = {}
    for r in sorted(runs, key=lambda r: (r["workload"], r["seed"])):
        groups.setdefault(f"{r['workload']} seed {r['seed']}", []).append(r)
    summary = {
        name: {m: compare(*_sides(group, m), better) for m, better in metrics.items()}
        for name, group in groups.items()
    }
    notes = []
    if claim is not None:
        workload, metric = claim.split(":")
        pooled = compare(*_sides([r for r in runs if r["workload"] == workload], metric), metrics[metric])
        pooled = {k: v for k, v in pooled.items() if not k.endswith("_runs")}
        claim_entry = {"metric": f"{workload} {metric} over every {workload} pair", **pooled}
        notes.append(
            f"Claim: {workload} {metric} {pooled['parent_median']:.4g} -> "
            f"{pooled['change_median']:.4g} in the median ({pooled['change_over_parent']:.3f}x), "
            f"the change better in {pooled['change_better_pairs']} of {pooled['pairs']} pairs; "
            f"median gap {pooled['median_gap']:.4g} against a parent IQR of {pooled['parent_iqr']:.4g}."
        )
    for name, entry in summary.items():
        for m, s in entry.items():
            notes.append(
                f"{name}: {m} {s['parent_median']:.4g} -> {s['change_median']:.4g} "
                f"({s['change_over_parent']:.3f}x), change better in {s['change_better_pairs']} "
                f"of {s['pairs']} pairs, parent IQR {s['parent_iqr']:.3g}."
            )
    bad = [r for r in runs if r["exit"] != 0 or r["failed"] != 0 or r["digest"] != "checked"]
    notes.append(
        "Every run: exit 0, failed 0, digest checked."
        if not bad
        else f"{len(bad)} runs exited nonzero, failed operations or did not read digest checked."
    )
    out = {"summary": summary, "notes": notes}
    if claim is not None:
        out["claim"] = claim_entry
    return out


def _compiled(tree: Path) -> list[str]:
    return [str(p) for d in ("src", "perfbench") for p in (tree / d).rglob("__pycache__")]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: exit code, failed count, digest status
    and end-to-end metric values."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "failed": None, "attempted": None, "digest": None, "metrics": {}}
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "exit": proc.returncode,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "digest": info.get("digest"),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC, pooled over the workload's seeds")
    parser.add_argument("--append", action="store_true", help="add to the runs already in --out")
    args = parser.parse_args(argv)

    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under {tree}", file=sys.stderr)
            return 2
        if _compiled(tree):
            print(f"error: remove the __pycache__ directories first: {_compiled(tree)}", file=sys.stderr)
            return 2
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.append and args.out.exists() else {}
    runs = doc.get("runs", [])
    for workload in args.workloads:
        for seed in args.seeds:
            done = max((r["pair"] for r in runs if (r["workload"], r["seed"]) == (workload, seed)), default=0)
            for pair in range(done + 1, done + args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    tree = args.parent if side == "parent" else args.change
                    run = {"workload": workload, "seed": seed, "seconds": args.seconds, "pair": pair,
                           "order": "-".join(order), "side": side, **run_once(tree, workload, seed, args.seconds)}
                    runs.append(run)
                    print(json.dumps(run), file=sys.stderr)
    doc.update(
        command=f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0, "
        "one process at a time, PYTHONDONTWRITEBYTECODE=1 and no __pycache__ in either tree, "
        "odd pairs parent first (tools/bench_pairs.py)",
        parent=doc.get("parent", str(args.parent)),
        change=doc.get("change", str(args.change)),
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        quartiles="statistics.quantiles(n=4, method='inclusive') over the parent's runs",
    )
    doc.update(summarize(runs, metrics, args.claim or doc.get("claim_spec")))
    if args.claim:
        doc["claim_spec"] = args.claim
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
