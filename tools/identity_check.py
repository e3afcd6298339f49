"""Compare the CLI's stdout, stderr and exit codes with another source tree's.

    python3 tools/identity_check.py --parent PATH

PATH is the root of another checkout (one with ``src/credalcones``), usually
the parent commit.  The inputs of 292 CLI runs are written to a temporary
directory:

  * ``query`` on the 24 chain query files of perfbench seeds 1-3;
  * ``query`` on 8 mixed-width chains (``mixed_chain``, seeds 1-8): 3-6
    nodes of 2-4 values each, at most 144 joint configurations, names
    shuffled, each asked the lower and upper prevision and the membership
    of a gamble on one node and of a gamble on all of them;
  * ``query`` on the mixed chain of seed 1 with gamble entries written in
    every literal form the parser accepts (LITERALS: JSON integers,
    ``n`` and ``n/d``, and what only ``fractions.Fraction``'s own parser
    reads, such as ``+3``, ``1_000``, ``1.5``, ``1E3``, surrounding
    whitespace, Unicode digits and a 700-digit integer), in one run, and
    in each of REFUSED, one run each, which exits 3;
  * ``verify --seed 3`` on the networks ``net.sample_credal_net`` draws from
    ``random.Random(seed)`` for the seeds 1000-1039;
  * ``query`` on the same 40 networks (``net_queries``, drawn from a
    generator of their own): coherence, the membership of a nonnegative
    joint gamble (route positive-span), the ``marginal-member`` of a
    node's first assessment at its parent values (local-assembly), and
    the membership of a joint gamble with one negative entry (exact-lp
    off a path), so that every witness form is printed;
  * ``verify --seed 3 --budget 45`` on the same 40 networks: 15 of these
    sweeps stop inside the observations of one slot gamble, 10 stop
    between two slot gambles and 15 end within the budget;
  * ``verify --seed 3 --budget 60 --mutate-flip NODE:P:K`` on the same 40
    networks, the slot drawn from the same generator after the network;
  * the same on the 8 mixed chains, the slot drawn from the chain's
    generator after its queries: there the chain recursion checks a
    flipped slot's local certificate on its own, far more often than on
    the 40 networks;
  * ``validate`` on the same 40 networks, and on each with one local model
    replaced by an incoherent assessment of the node's width (the slot
    drawn from the network's generator after the flip), taken in order
    from the coherence sets of the local workload's seeds 1-3 that are
    incoherent: each exits 2 and prints its vanishing combination, the
    one local certificate a run prints (the coherence quick route's when
    the set has an assessment with no positive entry, the LP's
    otherwise).

They are built by this checkout's package and ``perfbench/workloads.py``,
which is only read.  Every run is ``python -m credalcones.cli`` with the
``src/`` of PATH, then of this checkout, on ``PYTHONPATH``.  The script
prints how many runs gave byte-identical stdout, stderr and exit codes,
then the command of each run that differs.  A ``query`` run whose exit
codes and stderr agree is marked "certificates only" when its reports are
equal once every answer's CERTIFICATES are dropped, and "answers differ"
when a member flag, a value or anything else moved; a ``validate`` run,
"certificates only" when its reports are equal without their
``vanishing_combination``, and "answers differ" otherwise.  The script
exits 1 if any exit code, any query or validate answer or any stderr (a
parse error's message) differs.  Runs go WORKERS at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHAIN_SEEDS = (1, 2, 3)
MIXED_SEEDS = range(1, 9)
MIXED_MAX_SIZE = 144
NET_SEEDS = range(1000, 1040)
LOCAL_SEEDS = (1, 2, 3)
VERIFY_SEED = "3"
CLEAN_BUDGET = "45"
FLIP_BUDGET = "60"
WORKERS = 2
# the parts of a query answer that may move while the answer stays
CERTIFICATES = ("route", "witness", "separator", "vanishing_combination")
# gamble entries the parser accepts, and ones it refuses (exit 3)
LITERALS = (
    3, "-3/2", "7", "\u0663", -2, " 4 ", "6/4", "+3", "-0", "1_000", "\t-5/3\n", "1.5",
    "00", "-2.5e-1", "0/5", "1E3", "3/\u0664", "12345678901234567890/7", "9" * 700,
)
REFUSED = ("3/0", "3/00", "3/-2", "0x1", "", "1/2/3", "--3", "1" * 5000, 1.5, True, None)


def mixed_chain(rng: random.Random):
    """A path of 3-6 nodes of 2-4 values each with at most MIXED_MAX_SIZE
    joint configurations, the node names shuffled against the path order,
    and 0-2 assessments per slot, each kept only if the slot stays
    coherent."""
    from credalcones import cone, core, dag, net

    while True:
        widths = [rng.randint(2, 4) for _ in range(rng.randint(3, 6))]
        if prod(widths) <= MIXED_MAX_SIZE:
            break
    names = [f"m{i}" for i in range(len(widths))]
    rng.shuffle(names)
    variables = [
        core.VariableSpace(x, tuple(f"v{d}" for d in range(k))) for x, k in zip(names, widths)
    ]
    assessments = {}
    for i, var in enumerate(variables):
        space = core.Space([var])
        assessments[var.node] = []
        for _ in range(1 if i == 0 else widths[i - 1]):
            chosen = []
            for _ in range(rng.randint(0, 2)):
                candidate = chosen + [net.sample_gamble(rng, space)]
                if cone.AssessmentCone(space, candidate).is_coherent():
                    chosen = candidate
            assessments[var.node].append(chosen)
    return net.CredalNet(dag.Dag(names, list(zip(names, names[1:]))), variables, assessments)


def mixed_queries(rng: random.Random, chain) -> list[dict]:
    """Lower and upper previsions and membership of a gamble on one node,
    then of a gamble on every node."""
    from credalcones import core, net

    queries = []
    for scope in ([rng.choice(chain.dag.nodes)], list(chain.dag.nodes)):
        space = core.Space(chain.variables[n] for n in scope)
        gamble = {"scope": scope, "table": [str(v) for v in net.sample_gamble(rng, space).table]}
        for kind in ("lower-prevision", "upper-prevision", "member"):
            queries.append({"kind": kind, "gamble": gamble})
    return queries


def literal_runs(workdir: Path, chain, network: str) -> list[list[str]]:
    """Query files on the chain (written to the file `network`): one whose
    gamble entries cycle through LITERALS, each form at every position of
    the root's table and then over all nodes, and one per form of
    REFUSED; the CLI arguments of their runs."""
    root = chain.dag.path()[0]
    width = len(chain.variables[root].values)
    size = prod(len(chain.variables[n].values) for n in chain.dag.nodes)
    cycled = [LITERALS[j % len(LITERALS)] for j in range(len(LITERALS) + size)]
    queries = [
        {"kind": kind, "gamble": {"scope": [root], "table": cycled[i : i + width]}}
        for i in range(len(LITERALS))
        for kind in ("lower-prevision", "member")
    ]
    every_node = {"scope": list(chain.dag.nodes), "table": cycled[:size]}
    queries.append({"kind": "upper-prevision", "gamble": every_node})
    files = {"literals.json": queries}
    for k, literal in enumerate(REFUSED):
        gamble = {"scope": [root], "table": [literal] + ["1"] * (width - 1)}
        files[f"refused-{k}.json"] = [{"kind": "lower-prevision", "gamble": gamble}]
    for name, content in files.items():
        (workdir / name).write_text(json.dumps(content), encoding="utf-8")
    return [["query", network, name] for name in files]


def net_queries(rng: random.Random, network) -> list[dict]:
    """Coherence, then the membership of a nonnegative joint gamble, the
    marginal-member of the first assessment of a slot that has one (when
    some slot has), and the membership of a joint gamble whose entries are
    nonnegative but one."""
    nodes, size = list(network.dag.nodes), network.joint_space.size
    nonnegative = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(size)]
    nonnegative[rng.randrange(size)] += 1
    mixed = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(size)]
    mixed[rng.randrange(size)] = Fraction(-rng.randint(1, 3), rng.randint(1, 4))
    queries = [{"kind": "coherence"}]
    queries.append({"kind": "member", "gamble": {"scope": nodes, "table": [str(v) for v in nonnegative]}})
    slots = [(s, p) for (s, p), gambles in sorted(network.assessments.items()) if gambles]
    if slots:
        s, p = rng.choice(slots)
        queries.append({
            "kind": "marginal-member",
            "node": s,
            "parent": network.parent_space(s).config_at(p).as_dict(),
            "gamble": [str(v) for v in network.assessments[(s, p)][0].table],
        })
    queries.append({"kind": "member", "gamble": {"scope": nodes, "table": [str(v) for v in mixed]}})
    return queries


def flip_run(rng: random.Random, network, path: Path) -> list[str]:
    """The budgeted ``verify --mutate-flip`` run on the network written to
    path, its slot drawn from rng."""
    node = rng.choice(network.dag.nodes)
    p = rng.randrange(network.parent_space(node).size)
    k = rng.randrange(len(network.local_cone(node, p).generators))
    return ["verify", path.name, "--seed", VERIFY_SEED, "--budget", FLIP_BUDGET,
            "--mutate-flip", f"{node}:{p}:{k}"]


def incoherent_sets(run, workdir: Path) -> list[tuple[int, list[list[str]]]]:
    """The coherence sets of the local workload's LOCAL_SEEDS that are
    incoherent, in order, each as (number of values, gamble rows)."""
    from credalcones import cone, core

    workload = run.import_package()["local"]()
    found = []
    for seed in LOCAL_SEEDS:
        for unit in run.make_inputs(workload, seed, workdir / f"local-{seed}"):
            for entry in json.loads(unit.path.read_text(encoding="utf-8"))["coherence"]:
                space = core.Space([core.VariableSpace("x", tuple(range(entry["values"])))])
                rows = [core.Gamble(space, tuple(map(Fraction, r))) for r in entry["gambles"]]
                if not cone.AssessmentCone(space, rows).is_coherent():
                    found.append((entry["values"], entry["gambles"]))
    return found


def incoherent_run(rng: random.Random, network, path: Path, sets: list) -> list[str]:
    """The ``validate`` run on the network written to path with one local
    model, drawn from rng among those whose node's width an incoherent set
    of `sets` has, replaced by the first such set, which leaves `sets`."""
    from credalcones import cli

    data = cli.serialize_network(network)
    widths = {n for n, _ in sets}
    models = data["local_models"]
    width_of = [len(network.variables[m["node"]].values) for m in models]
    k = rng.choice([k for k, width in enumerate(width_of) if width in widths])
    width = width_of[k]
    at = next(i for i, (n, _) in enumerate(sets) if n == width)
    models[k]["gambles"] = sets.pop(at)[1]
    changed = path.with_name(f"{path.stem}-incoherent.json")
    changed.write_text(json.dumps(data), encoding="utf-8")
    return ["validate", changed.name]


def write_inputs(workdir: Path) -> list[list[str]]:
    """The CLI arguments of every run, with their input files written under
    workdir; file names are relative to it."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run  # perfbench/run.py: make_inputs holds the seeding convention
    from credalcones import cli, net

    workloads = run.import_package()
    commands, flips = [], []
    for seed in CHAIN_SEEDS:
        units = run.make_inputs(workloads["chain"](), seed, workdir / f"chain-{seed}")
        for unit in units:
            paths = [str(p.relative_to(workdir)) for p in (unit.path, unit.query_path)]
            commands.append(["query", *paths])
    for seed in MIXED_SEEDS:
        rng = random.Random(seed)
        chain = mixed_chain(rng)
        paths = [workdir / f"mixed-{seed}.json", workdir / f"mixed-{seed}-queries.json"]
        paths[0].write_text(json.dumps(cli.serialize_network(chain)), encoding="utf-8")
        paths[1].write_text(json.dumps(mixed_queries(rng, chain)), encoding="utf-8")
        commands.append(["query", *(p.name for p in paths)])
        if seed == MIXED_SEEDS[0]:
            commands += literal_runs(workdir, chain, paths[0].name)
        flips.append(flip_run(rng, chain, paths[0]))
    budgeted, validated, queried, sets = [], [], [], incoherent_sets(run, workdir)
    for seed in NET_SEEDS:
        rng = random.Random(seed)
        network = net.sample_credal_net(rng)
        path = workdir / f"net-{seed}.json"
        path.write_text(json.dumps(cli.serialize_network(network)), encoding="utf-8")
        flip = flip_run(rng, network, path)
        validated += [["validate", path.name], incoherent_run(rng, network, path, sets)]
        queries = path.with_name(f"{path.stem}-queries.json")
        queries.write_text(
            json.dumps(net_queries(random.Random(f"queries-{seed}"), network)), encoding="utf-8"
        )
        queried.append(["query", path.name, queries.name])
        commands.append(["verify", path.name, "--seed", VERIFY_SEED])
        budgeted.append(["verify", path.name, "--seed", VERIFY_SEED, "--budget", CLEAN_BUDGET])
        flips.append(flip)
    return commands + budgeted + flips + validated + queried


def run_cli(tree: Path, args: list[str], workdir: Path) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "credalcones.cli", *args],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return done.returncode, done.stdout, done.stderr


def answers(stdout: bytes):
    """A query report with the certificates of every answer dropped, or a
    validate report without its vanishing combination; None if stdout is
    neither."""
    try:
        report = json.loads(stdout)
        if report["command"] == "validate":
            report.pop("vanishing_combination", None)
            return report
        for query in report["queries"]:
            for key in CERTIFICATES:
                query["result"].pop(key, None)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    return report


def describe(command: list[str], before: tuple, after: tuple) -> str:
    """How a run's (exit code, stdout, stderr) moved from before to after."""
    if before[0] != after[0]:
        return f"exit {before[0]} -> {after[0]}"
    if before[2] != after[2]:
        return "stderr differs"
    if command[0] not in ("query", "validate"):
        return "stdout differs"
    report = answers(before[1])
    if report is not None and report == answers(after[1]):
        return "certificates only"
    return "answers differ"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the other tree")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "credalcones").is_dir():
        parser.error(f"{parent} holds no src/credalcones")
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        workdir = Path(tmp)
        commands = write_inputs(workdir)
        with ThreadPoolExecutor(WORKERS) as pool:
            before = list(pool.map(lambda c: run_cli(parent, c, workdir), commands))
            after = list(pool.map(lambda c: run_cli(ROOT, c, workdir), commands))
    differ = [(c, describe(c, b, a)) for c, b, a in zip(commands, before, after) if b != a]
    print(f"{len(commands) - len(differ)} of {len(commands)} runs byte-identical")
    for command, note in differ:
        print(f"  credalcones {' '.join(command)}  ({note})")
    moved = [
        note for _, note in differ
        if note.startswith("exit") or note in ("answers differ", "stderr differs")
    ]
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
