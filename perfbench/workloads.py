"""The four benchmark workloads: seeded inputs, set-up, timed calls, checks.

Every workload turns the run's --seed into input files (networks, query
files, local instances) before anything is timed.  A *unit* is what one CLI
invocation gets: its files on disk plus the calls made against one cold
model.  ``setup`` goes from the files to a ready model the way ``cmd_verify``
and ``cmd_query`` do; ``call`` is one timed top-level call; ``check`` tests
every answer; ``outcome`` is the canonical text of an answer (member flags,
prevision values, verify outcomes) that the recorded digests cover.
Certificates and routes are left out of it on purpose: they may change as
long as they verify.

The package is always reached through module attributes (``cli.load_network``,
``oracle.fm_membership``) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path
from typing import Optional

from credalcones import cli, cone, core, dag, net, oracle


@dataclass
class Unit:
    name: str
    path: Path
    calls: list
    query_path: Optional[Path] = None


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return path


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _table(rng: random.Random, size: int, magnitude: int, denominator: int) -> tuple:
    while True:
        row = tuple(
            Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, denominator))
            for _ in range(size)
        )
        if any(row):
            return row


def _strings(row) -> list[str]:
    return [str(v) for v in row]


def _coherent_assessment(rng: random.Random, space: core.Space, want: int) -> list:
    """Up to `want` gambles, each redrawn until the set stays coherent (the
    rejection loop of net.sample_credal_net)."""
    chosen: list = []
    for _ in range(want):
        for _ in range(10):
            candidate = chosen + [net.sample_gamble(rng, space)]
            if cone.AssessmentCone(space, candidate).is_coherent():
                chosen = candidate
                break
    return chosen


def _interleave(groups: dict) -> list:
    """Spread every group evenly over one list, so that any prefix of it
    (a run cut by its deadline) has about the same mix as the whole."""
    keyed = []
    for g, (key, items) in enumerate(groups.items()):
        n = len(items)
        keyed.extend(((i + 0.5) / n, g, item) for i, item in enumerate(items))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


class _Workload:
    """What the workloads share: units traced by default."""

    trace_units = 1


# -- verify: clean sweep and sign-flip mutation ------------------------------


class _Verify(_Workload):
    """cmd_verify on corpus networks: verify_requirements plus positivity_audit.

    Corpus networks are drawn by net.sample_credal_net and kept per stratum
    (joint-space size by default) up to a fixed quota, so every seed yields
    the same mix and a run's cost depends little on which networks the seed
    happens to draw.
    """

    name = ""
    strata: dict = {}  # stratum key -> networks per corpus
    gambles_per_slot = 10
    subset_cap = 8
    audit_samples = 50
    budget: Optional[int] = None

    def generate(self, rng: random.Random, workdir: Path, scale: float) -> list[Unit]:
        quota = {key: _scaled(n, scale) for key, n in self.strata.items()}
        drawn: dict = {key: [] for key in quota}
        while any(len(drawn[k]) < quota[k] for k in quota):
            # every stratum's joint size needs at most 3 nodes; the sampler
            # draws the node count first, so the networks of one size are
            # distributed as under its default of 4, without the cost of
            # drawing 4-node networks only to drop them
            candidate = net.sample_credal_net(rng, max_nodes=3)
            key = self.stratum(candidate)
            if key in drawn and len(drawn[key]) < quota[key]:
                spec = self.spec(candidate, rng)
                if spec is not None:
                    drawn[key].append((candidate, spec))
        units = []
        for i, (network, spec) in enumerate(_interleave(drawn)):
            path = _write_json(workdir / f"net{i:03d}.json", cli.serialize_network(network))
            units.append(Unit(f"net{i:03d}", path, [spec]))
        return units

    def stratum(self, network):
        return network.joint_space.size

    def spec(self, network, rng: random.Random) -> Optional[dict]:
        return {"seed": rng.randrange(2**31)}

    def setup(self, unit: Unit):
        network = cli.load_network(str(unit.path))
        flip = unit.calls[0].get("flip")
        joint = network.build_joint(
            cap=net.DEFAULT_GENERATOR_CAP, mutate_flip=tuple(flip) if flip else None
        )
        return network, joint

    def call(self, unit: Unit, state, spec: dict):
        network, joint = state
        sweep = joint.verify_requirements(
            random.Random(spec["seed"]),
            gambles_per_slot=self.gambles_per_slot,
            subset_cap=self.subset_cap,
            max_checks=self.budget,
        )
        audit = oracle.positivity_audit(
            oracle.PreciseNet.from_witnesses(network),
            joint,
            random.Random(spec["seed"] + 1_000_003),
            samples=self.audit_samples,
        )
        return sweep, audit

    @staticmethod
    def answers(result) -> int:
        sweep, audit = result
        return (
            sweep.atoms_checked
            + sweep.negatives_checked
            + sweep.irrelevance_checked
            + audit.checked
        )

    @staticmethod
    def outcome(spec: dict, result) -> str:
        sweep, audit = result
        exit_code = 1 if sweep.violations or not audit.ok else 0
        violations = [
            [
                v.kind,
                v.node,
                list(v.parent_values),
                list(v.irrelevant),
                list(v.given_values),
                _strings(v.gamble),
                v.local_member,
                v.joint_member,
            ]
            for v in sweep.violations
        ]
        counts = [
            sweep.atoms_checked,
            sweep.negatives_checked,
            sweep.irrelevance_checked,
            audit.checked,
        ]
        return json.dumps([exit_code, violations, audit.ok, counts])


class Sweep(_Verify):
    """Clean verify: quick routes, local LPs and indicators; no joint LP."""

    name = "sweep"
    strata = {3: 10, 6: 15, 9: 10, 12: 25, 18: 25}
    trace_units = 30

    def check(self, unit: Unit, spec: dict, result) -> Optional[str]:
        sweep, audit = result
        if not sweep.ok or not audit.ok:
            kinds = sorted({v.kind for v in sweep.violations})
            return f"clean network failed verify: violations {kinds}, audit ok {audit.ok}"
        return None


def _sweep_slots(network, gambles_per_slot: int):
    """(node, parent index, checks swept before the slot, checks per gamble,
    local generators) for each slot in the order verify_requirements visits
    them; a corpus node has at most 3 non-parent-non-descendants, so all
    their subsets are swept."""
    before = 0
    for s in network.dag.nodes:
        nnd = network.dag.non_parent_non_descendants(s)
        per_gamble = sum(
            prod(len(network.variables[n].values) for n in subset)
            for k in range(len(nnd) + 1)
            for subset in combinations(nnd, k)
        )
        n_values = len(network.variables[s].values)
        for p in range(network.parent_space(s).size):
            n_local = len(network.assessments[(s, p)]) + n_values
            yield s, p, before, per_gamble, n_local
            before += (2 * n_local + gambles_per_slot) * per_gamble


class Mutated(_Verify):
    """verify --mutate-flip: the flipped joint has no canonical witness, so
    most checks fall through to the exact joint LP, about twenty 12-row LPs
    per network over one constraint matrix.

    The flipped generator is the first assessment of the first slot the
    sweep visits that has one (as in the acceptance gate).  A deterministic
    --budget caps every sweep, so that a run sees some eighty networks: the
    cost of one network varies about twofold with its numbers, and fewer
    networks per run let the seed move the result.  A network is kept only
    when the checks of that slot's gambles up to the flipped generator's
    negation, which must expose the flip, fall within the budget.

    BENCHMARK.json leaves this workload out: in 20-second runs its figures
    still moved by more than a fifth from seed to seed, and a full pass of
    the benchmark has no time for longer runs of four workloads.  Run it by
    name with run.py; the self-test covers it.
    """

    name = "mutated"
    # networks with many generators have wider joint LPs and hold much of
    # the LP time; a fixed share of them keeps that time steady per seed
    strata = {(12, "light"): 60, (12, "heavy"): 15}
    heavy_generators = 40
    gambles_per_slot = 2
    audit_samples = 2
    budget = 40
    trace_units = 12

    def stratum(self, network):
        heavy = network.generator_count() >= self.heavy_generators
        return network.joint_space.size, "heavy" if heavy else "light"

    def spec(self, network, rng: random.Random) -> Optional[dict]:
        for s, p, before, per_gamble, n_local in _sweep_slots(network, self.gambles_per_slot):
            if network.assessments[(s, p)]:
                if before + (n_local + 1) * per_gamble > self.budget:
                    return None
                return {
                    "seed": rng.randrange(2**31),
                    "flip": [s, p, 0],
                    "parent": list(network.parent_space(s).config_at(p).values),
                }
        return None

    def check(self, unit: Unit, spec: dict, result) -> Optional[str]:
        sweep, audit = result
        node, _, _ = spec["flip"]
        named = any(
            v.kind == "irrelevance-mismatch"
            and v.node == node
            and list(v.parent_values) == spec["parent"]
            for v in sweep.violations
        )
        if not named:
            return f"no irrelevance-mismatch names the flipped slot {spec['flip']}"
        if not audit.failures:
            return "positivity audit missed the flip"
        return None


# -- query on binary chains ----------------------------------------------------


class Chain(_Workload):
    """cmd_query on seeded binary chains c0 -> ... -> c5 with one assessment
    per slot: 64 joint configurations, so every joint LP has 64 rows.

    One unit is one chain with its query file of 7 queries: lower and upper
    previsions of a gamble on one node; member on that gamble (drawn with a
    negative entry and a positive witness expectation, so only the exact LP
    can decide it), on a constructed member (a positive combination of
    joint generators with a negative entry, so again the LP) and on a
    non-member that the canonical separator misses (again the LP);
    marginal-member plus condition-member on the same
    observation of a scaled local assessment with a negative entry, which
    the structured route settles locally and the generic one by the LP.
    Files are short so that a run covers several chains: the cost of a
    joint LP depends on the chain's numbers.

    One call answers the whole query file, as one ``query`` run does, so
    that a call's latency sums seven queries: a median over the few calls
    a run makes then moves less with the seed than one over single
    queries, whose times spread from nothing to seconds.
    """

    name = "chain"
    nodes = 6
    units = 8
    trace_units = 1

    def generate(self, rng: random.Random, workdir: Path, scale: float) -> list[Unit]:
        units = []
        for i in range(_scaled(self.units, scale)):
            chain = self._chain(rng)
            queries, specs = self._queries(rng, chain)
            path = _write_json(workdir / f"chain{i}.json", cli.serialize_network(chain))
            qpath = _write_json(workdir / f"chain{i}-queries.json", queries)
            units.append(Unit(f"chain{i}", path, [{"queries": specs}], qpath))
        return units

    def _chain(self, rng: random.Random):
        names = [f"c{i}" for i in range(self.nodes)]
        variables = [core.VariableSpace(x, ("0", "1")) for x in names]
        assessments = {
            x: [_coherent_assessment(rng, core.Space([v]), 1) for _ in range(1 if i == 0 else 2)]
            for i, (x, v) in enumerate(zip(names, variables))
        }
        return net.CredalNet(dag.Dag(names, list(zip(names, names[1:]))), variables, assessments)

    def _queries(self, rng: random.Random, chain):
        names = list(chain.dag.nodes)
        joint = chain.joint_space
        precise = oracle.PreciseNet.from_witnesses(chain)

        def expectation(scope, row):
            space = core.Space(chain.variables[n] for n in scope)
            return precise.expectation(core.Gamble(space, row))

        queries, specs = [], []

        def add(query, role, value=None):
            specs.append({"index": len(queries), "role": role, "value": value})
            queries.append(query)

        def gamble(scope, row):
            return {"scope": list(scope), "table": _strings(row)}

        scope = [rng.choice(names)]
        row = _table(rng, 2, 3, 2)
        while min(row) >= 0 or expectation(scope, row) <= 0:
            row = _table(rng, 2, 3, 2)
        e = str(expectation(scope, row))
        add({"kind": "lower-prevision", "gamble": gamble(scope, row)}, "f-lower", e)
        add({"kind": "upper-prevision", "gamble": gamble(scope, row)}, "f-upper", e)
        add({"kind": "member", "gamble": gamble(scope, row)}, "f-member")

        for _ in range(50):
            member = core.Gamble.zero(joint)
            for _ in range(3):
                k = rng.randrange(len(names))
                observed = {names[j]: rng.choice("01") for j in range(k)}
                local = chain.local_cone(names[k], 0 if k == 0 else int(observed[names[k - 1]]))
                g = rng.choice(local.generators)
                config = core.Space(chain.variables[n] for n in observed).configuration(observed)
                member = member + core.indicator(config, joint) * g.extend(joint) * rng.randint(1, 3)
            if min(member.table) < 0:
                break
        add({"kind": "member", "gamble": gamble(names, member.table)}, "member")

        # swapping the root's witness for an extreme point of its local
        # credal set gives a mass function that still scores every joint
        # generator nonnegative: a gamble it scores negative is no member,
        # and a positive witness expectation keeps the canonical separator
        # from saying so
        kernels = {
            (x, p): chain.local_witness(x, p)
            for x in names
            for p in range(chain.parent_space(x).size)
        }
        root = chain.local_cone(names[0], 0).assessments
        q = Fraction(1)
        if root and (root[0].table[0] < 0) != (root[0].table[1] < 0):
            a0, a1 = root[0].table
            q = a1 / (a1 - a0)
        kernels[(names[0], 0)] = (q, 1 - q)
        extreme = oracle.PreciseNet(chain, kernels)
        for _ in range(1000):
            row = _table(rng, joint.size, 3, 2)
            if extreme.expectation(core.Gamble(joint, row)) < 0 < expectation(names, row):
                break
        else:
            while expectation(names, row) >= 0:
                row = _table(rng, joint.size, 3, 2)
        add({"kind": "member", "gamble": gamble(names, row)}, "non-member")

        for _ in range(50):
            k = rng.randint(2, len(names) - 1)
            parent = {names[k - 1]: rng.choice("01")}
            assessed = chain.local_cone(names[k], int(parent[names[k - 1]])).assessments
            if assessed and min(assessed[0].table) < 0:
                break
        given = {names[rng.randint(0, k - 2)]: rng.choice("01")}
        row = _strings((assessed[0] * rng.randint(1, 3)).table if assessed else _table(rng, 2, 3, 2))
        add(
            {"kind": "marginal-member", "node": names[k], "parent": parent, "given": given, "gamble": row},
            "marginal",
        )
        add(
            {
                "kind": "condition-member",
                "gamble": {"scope": [names[k]], "table": row},
                "given": {**parent, **given},
            },
            "condition",
        )
        return queries, specs

    def setup(self, unit: Unit):
        chain = cli.load_network(str(unit.path))
        joint = chain.build_joint(cap=net.DEFAULT_GENERATOR_CAP)
        queries = json.loads(unit.query_path.read_text(encoding="utf-8"))
        return chain, joint, queries

    def call(self, unit: Unit, state, spec: dict):
        chain, joint, queries = state
        return [
            cli.run_query(chain, joint, queries[i], 0, f"{unit.query_path.name}[{i}]")
            for i in (q["index"] for q in spec["queries"])
        ]

    @staticmethod
    def answers(result) -> int:
        return len(result)

    @staticmethod
    def outcome(spec: dict, result) -> str:
        return "\n".join(
            f"{r['kind']}:{r['result']['value'] if 'value' in r['result'] else r['result']['member']}"
            for r in result
        )

    def check(self, unit: Unit, spec: dict, result) -> Optional[str]:
        """Each answer against what its query was built to be; then
        member(f) holds exactly when the lower prevision of f is
        nonnegative, and marginal-member agrees with condition-member on the
        same observation and gamble."""
        problems = []
        answers = {}
        for query, r in zip(spec["queries"], result):
            answer, role = r["result"], query["role"]
            answers[role] = answer
            if role.endswith("-lower") and Fraction(answer["value"]) > Fraction(query["value"]):
                problems.append(f"{role}: lower prevision {answer['value']} exceeds the witness expectation {query['value']}")
            if role.endswith("-upper") and Fraction(answer["value"]) < Fraction(query["value"]):
                problems.append(f"{role}: upper prevision {answer['value']} is below the witness expectation {query['value']}")
            if role == "member" and answer["member"] is not True:
                problems.append("a positive combination of joint generators was rejected")
            if role == "non-member" and answer["member"] is not False:
                problems.append("a gamble scored negative by a mass function of the credal set was accepted")
        lower = Fraction(answers["f-lower"]["value"])
        if answers["f-member"]["member"] != (lower >= 0):
            problems.append(f"member {answers['f-member']['member']} but lower prevision {lower}")
        if answers["condition"]["member"] != answers["marginal"]["member"]:
            problems.append("condition-member disagrees with marginal-member")
        return "; ".join(problems) or None


# -- standalone local models ---------------------------------------------------


class Local(_Workload):
    """Local coherence of random assessment sets and conic membership of
    random targets in coherent local cones, each decision cross-checked by
    oracle.fm_membership inside the timed call.

    One unit is one instance file: set-up parses it and checks the
    coherence of its membership cones, as load_network does for local
    models.  Calls alternate between the two kinds of decision.
    """

    name = "local"
    units = 10
    coherence_sets = 100
    cones = 10
    targets = 10
    trace_units = 3

    def generate(self, rng: random.Random, workdir: Path, scale: float) -> list[Unit]:
        units = []
        for i in range(_scaled(self.units, scale)):
            data = {"coherence": [], "membership": []}
            for _ in range(self.coherence_sets):
                n = rng.randint(1, 4)
                rows = [_table(rng, n, 3, 4) for _ in range(rng.randint(1, 4))]
                data["coherence"].append({"values": n, "gambles": [_strings(r) for r in rows]})
            for _ in range(self.cones):
                n = rng.randint(2, 4)
                space = _space(n)
                gambles = _coherent_assessment(rng, space, rng.randint(1, 3))
                data["membership"].append(
                    {
                        "values": n,
                        "gambles": [_strings(g.table) for g in gambles],
                        "targets": [_strings(_table(rng, n, 2, 2)) for _ in range(self.targets)],
                    }
                )
            calls = _interleave(
                {
                    "coherence": [{"coherence": j} for j in range(self.coherence_sets)],
                    "member": [
                        {"cone": c, "target": t}
                        for c in range(self.cones)
                        for t in range(self.targets)
                    ],
                }
            )
            path = _write_json(workdir / f"local{i:02d}.json", data)
            units.append(Unit(f"local{i:02d}", path, calls))
        return units

    def setup(self, unit: Unit):
        data = json.loads(unit.path.read_text(encoding="utf-8"))
        sets = []
        for entry in data["coherence"]:
            space = _space(entry["values"])
            sets.append((space, [_gamble(space, row) for row in entry["gambles"]]))
        cones = []
        for entry in data["membership"]:
            space = _space(entry["values"])
            local = cone.AssessmentCone(space, [_gamble(space, row) for row in entry["gambles"]])
            if not local.is_coherent():
                raise ValueError(f"{unit.name}: membership cone {len(cones)} is incoherent")
            cones.append((local, [_gamble(space, row) for row in entry["targets"]]))
        return sets, cones

    def call(self, unit: Unit, state, spec: dict):
        sets, cones = state
        if "coherence" in spec:
            space, gambles = sets[spec["coherence"]]
            local = cone.AssessmentCone(space, gambles)
            coherent = local.is_coherent().coherent
            origin = (Fraction(0),) * space.size + (Fraction(1),)
            vanishing = oracle.fm_membership(origin, [g.table + (Fraction(1),) for g in local.generators])
            return "coherent", coherent, not vanishing
        local, targets = cones[spec["cone"]]
        target = targets[spec["target"]]
        member = local.member_with_certificate(target).member
        return "member", member, oracle.fm_membership(target.table, [g.table for g in local.generators])

    @staticmethod
    def answers(result) -> int:
        return 1

    @staticmethod
    def outcome(spec: dict, result) -> str:
        return f"{result[0]}:{result[1]}"

    def check(self, unit: Unit, spec: dict, result) -> Optional[str]:
        kind, lp_says, fm_says = result
        if lp_says != fm_says:
            return f"{kind}: simplex says {lp_says}, Fourier-Motzkin says {fm_says} ({spec})"
        return None


def _space(n_values: int) -> core.Space:
    return core.Space([core.VariableSpace("x", tuple(f"v{i}" for i in range(n_values)))])


def _gamble(space: core.Space, row: list) -> core.Gamble:
    return core.Gamble(space, tuple(Fraction(v) for v in row))


WORKLOADS = {w.name: w for w in (Sweep, Mutated, Chain, Local)}
