"""Chain scale: joint build time, warm lower previsions and peak RSS on
seeded chains.

    python3 tools/chain_scale.py [--root PATH] [--repeat R]

Each case is a chain drawn by ``sample_chain`` of ``tests/test_net.py``
(imported, not copied) from ``random.Random(SEED)``: n nodes of k values, 0-2
assessments per slot.  The cases are binary n = 8, 10, 12, 14 and ternary
n = 8, each run in a subprocess of its own, so that its peak RSS is its own.
A case times, in process CPU seconds:

  * ``build_s``: ``CredalNet.build_joint``;
  * ``first_leaf_s``: one lower prevision of a gamble on the leaf, the first
    chain query, which also builds the joint model's levels for the leaf's
    scope;
  * ``leaf_s`` and ``root_s``: R warm one-node lower previsions each, of
    fresh gambles on the leaf and on the root, drawn from
    ``random.Random(SEED + 1)`` after the first query's gamble;
  * ``pair_s``: R warm lower previsions of fresh gambles on the root and
    the leaf together, drawn after those: a scope that spans the path,
    whose levels the first of them builds.

The values of every timed prevision are printed too, so two trees can be
compared answer by answer.  PATH is the root of the checkout whose
``src/`` and ``tests/`` are used (this one by default), so the same script
measures another commit.  The script prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ((8, 2), (10, 2), (12, 2), (14, 2), (8, 3))
SEED = 1
NAMES = {2: "binary", 3: "ternary"}


def run_case(root: Path, n: int, k: int, repeat: int) -> dict:
    """One case in this process; see the module docstring."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from credalcones.core import Space
    from credalcones.net import sample_gamble
    from test_net import sample_chain

    net = sample_chain(random.Random(SEED), n, k)
    order = net.dag.path()
    leaf, top = net.node_space(order[-1]), net.node_space(order[0])
    pair = Space(net.variables[x] for x in (order[0], order[-1]))
    rng = random.Random(SEED + 1)

    def timed(f):
        start = time.process_time()
        value = joint.lower_prevision(f)
        return time.process_time() - start, value

    start = time.process_time()
    joint = net.build_joint()
    build_s = time.process_time() - start
    first_leaf_s, _ = timed(sample_gamble(rng, leaf))
    leaf_runs = [timed(sample_gamble(rng, leaf)) for _ in range(repeat)]
    root_runs = [timed(sample_gamble(rng, top)) for _ in range(repeat)]
    pair_runs = [timed(sample_gamble(rng, pair)) for _ in range(repeat)]
    return {
        "chain": f"{NAMES[k]} n={n}",
        "configurations": net.joint_space.size,
        "generators": len(joint.generators),
        "build_s": build_s,
        "first_leaf_s": first_leaf_s,
        "leaf_s": [t for t, _ in leaf_runs],
        "root_s": [t for t, _ in root_runs],
        "pair_s": [t for t, _ in pair_runs],
        "leaf_values": [str(v) for _, v in leaf_runs],
        "root_values": [str(v) for _, v in root_runs],
        "pair_values": [str(v) for _, v in pair_runs],
        # ru_maxrss is in kilobytes on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--case", help=argparse.SUPPRESS)  # "n,k": one case, in this process
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    root = args.root.resolve()
    if args.case:
        n, k = map(int, args.case.split(","))
        print(json.dumps(run_case(root, n, k, args.repeat)))
        return 0
    cases = []
    for n, k in CASES:
        out = subprocess.run(
            [
                sys.executable,
                __file__,
                "--root", str(root),
                "--repeat", str(args.repeat),
                "--case", f"{n},{k}",
            ],
            check=True,
            capture_output=True,
            text=True,
        )
        cases.append(json.loads(out.stdout))
    report = {
        "root": str(root),
        "seed": SEED,
        "repeat": args.repeat,
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "cases": cases,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
