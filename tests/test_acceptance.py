"""Acceptance gate: one test per primary requirement, all exact.

Every criterion prints one [PRIMARY n] PASS/FAIL line (visible under
pytest -s; the test name carries the criterion number either way) and
asserts with zero numeric tolerance: all arithmetic is rational.

The shared corpus of random networks is sampled once with a fixed seed,
so the whole gate is reproducible run to run.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from credalcones import cli
from credalcones.cone import AssessmentCone
from credalcones.core import Gamble, Space, VariableSpace, indicator
from credalcones.lp import _over_lcm, conic_membership
from dense import int_columns
from credalcones.net import DEFAULT_GENERATOR_CAP, sample_credal_net
from credalcones.oracle import PreciseNet, fm_membership, positivity_audit

F = Fraction

CORPUS_SIZE = 100


def report_line(n: int, ok: bool, detail: str) -> str:
    text = f"[PRIMARY {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(text)
    return text


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260819)
    nets = []
    while len(nets) < CORPUS_SIZE:
        net = sample_credal_net(rng, max_nodes=4, max_values=3, max_assessments=2)
        nets.append((net, net.build_joint()))
    return nets


def sample_signed_table(rng, size, sign):
    """A nonzero table that is <= 0 (sign=-1) or >= 0 (sign=+1) everywhere."""
    while True:
        row = [sign * F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(size)]
        if any(v != 0 for v in row):
            return tuple(row)


def test_primary_1_coherence_iff_strictly_positive_witness():
    rng = random.Random(101)
    start = time.time()
    coherent_count = incoherent_count = 0
    failures = []
    for trial in range(500):
        n_values = rng.randint(1, 4)
        space = Space([VariableSpace("x", tuple(f"v{i}" for i in range(n_values)))])
        wanted = rng.randint(1, 4)
        gambles = []
        while len(gambles) < wanted:
            row = tuple(
                F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n_values)
            )
            if any(v != 0 for v in row):
                gambles.append(Gamble(space, row))
        cone = AssessmentCone(space, gambles)
        rep = cone.is_coherent()
        gens = [tuple(g.table) for g in cone.generators]

        # independent route, no simplex: a nontrivial vanishing nonnegative
        # combination of the generators exists iff no strictly positive
        # witness does; decided by Fourier-Motzkin on the normalized system
        augmented = [g + (F(1),) for g in gens]
        vanishing = fm_membership(tuple([F(0)] * n_values) + (F(1),), augmented)
        if rep.coherent == vanishing:
            failures.append(f"trial {trial}: coherent={rep.coherent} but fm says {vanishing}")
            continue

        if rep.coherent:
            coherent_count += 1
            y = rep.witness
            if y is None or len(y) != n_values:
                failures.append(f"trial {trial}: missing witness")
                continue
            if any(v <= 0 for v in y) or sum(y) != 1:
                failures.append(f"trial {trial}: witness not a strictly positive pmf")
            for g in gens:
                if sum(a * b for a, b in zip(y, g)) <= 0:
                    failures.append(f"trial {trial}: witness fails a generator")
                    break
        else:
            incoherent_count += 1
            lam = rep.certificate
            if lam is None or all(v == 0 for v in lam) or any(v < 0 for v in lam):
                failures.append(f"trial {trial}: bad incoherence certificate")
                continue
            combo = [F(0)] * n_values
            for coeff, g in zip(lam, gens):
                for j in range(n_values):
                    combo[j] += coeff * g[j]
            if any(v != 0 for v in combo):
                failures.append(f"trial {trial}: certificate does not vanish")
    elapsed = time.time() - start
    ok = not failures and coherent_count >= 20 and incoherent_count >= 20 and elapsed < 60
    line = report_line(
        1,
        ok,
        f"coherence <-> witness on 500 assessments "
        f"({coherent_count} coherent, {incoherent_count} incoherent, "
        f"{len(failures)} mismatches, {elapsed:.1f}s)",
    )
    assert ok, line + "; first failures: " + "; ".join(failures[:3])


def test_primary_2_joint_rejects_zero_and_nonpositive_gambles(corpus):
    rng = random.Random(202)
    start = time.time()
    failures = []
    for i, (net, joint) in enumerate(corpus):
        if net.generator_count() > DEFAULT_GENERATOR_CAP:
            failures.append(f"net {i}: generator cap violated")
            continue
        if joint.contains_zero().exists:
            failures.append(f"net {i}: zero in the joint cone")
        size = net.joint_space.size
        for k in range(20):
            f = Gamble(net.joint_space, sample_signed_table(rng, size, -1))
            res = joint.member_with_certificate(f)
            if res.member:
                failures.append(f"net {i}: nonpositive gamble {k} accepted")
                break
    elapsed = time.time() - start
    ok = not failures and elapsed < 300
    line = report_line(
        2,
        ok,
        f"no vanishing combination and 20 nonpositive gambles rejected on "
        f"{len(corpus)} nets ({elapsed:.1f}s)",
    )
    assert ok, line + "; " + "; ".join(failures[:3])


def test_primary_3_joint_contains_all_positive_gambles(corpus):
    rng = random.Random(303)
    start = time.time()
    failures = []
    atoms = 0
    for i, (net, joint) in enumerate(corpus):
        for config in net.joint_space.configurations():
            atom = indicator(config, net.joint_space)
            if not joint.member_with_certificate(atom).member:
                failures.append(f"net {i}: atom {config.values} rejected")
                break
            atoms += 1
        size = net.joint_space.size
        for k in range(20):
            f = Gamble(net.joint_space, sample_signed_table(rng, size, 1))
            if not joint.member_with_certificate(f).member:
                failures.append(f"net {i}: positive gamble {k} rejected")
                break
    elapsed = time.time() - start
    ok = not failures and elapsed < 300
    line = report_line(
        3,
        ok,
        f"{atoms} configuration indicators and 20 positive gambles per net "
        f"accepted on {len(corpus)} nets ({elapsed:.1f}s)",
    )
    assert ok, line + "; " + "; ".join(failures[:3])


def test_primary_4_irrelevance_biconditional_sweep(corpus):
    start = time.time()
    checks = 0
    violations = []
    for i, (net, joint) in enumerate(corpus):
        rep = joint.verify_requirements(
            random.Random(4000 + i), gambles_per_slot=10, subset_cap=8
        )
        checks += rep.irrelevance_checked
        if not rep.ok:
            violations.extend(f"net {i}: {v}" for v in rep.violations)
    elapsed = time.time() - start
    ok = not violations and elapsed < 600
    line = report_line(
        4,
        ok,
        f"local <-> joint membership agreed on {checks} structured checks "
        f"across {len(corpus)} nets ({elapsed:.1f}s)",
    )
    assert ok, line + "; " + "; ".join(violations[:2])


def test_primary_5_fourier_motzkin_agrees_with_simplex():
    rng = random.Random(505)
    start = time.time()
    members = non_members = 0
    mismatches = []
    for trial in range(1000):
        dim = rng.randint(1, 6)
        n_rays = rng.randint(1, 16)
        rays = [
            tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim))
            for _ in range(n_rays)
        ]
        # both deciders refuse the zero target, so keep drawing until the
        # instance is a real membership question
        target = None
        if rng.random() < 0.5 and any(any(v != 0 for v in r) for r in rays):
            for _ in range(20):
                cand = [F(0)] * dim
                for p in rng.sample(range(n_rays), rng.randint(1, min(3, n_rays))):
                    lam = F(rng.randint(0, 3), rng.randint(1, 2))
                    for j in range(dim):
                        cand[j] += lam * rays[p][j]
                if any(v != 0 for v in cand):
                    target = tuple(cand)
                    break
        while target is None or all(v == 0 for v in target):
            target = tuple(
                F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)
            )
        fm = fm_membership(target, rays)
        lp = conic_membership(_over_lcm(target), int_columns(rays))
        if fm != lp.member:
            mismatches.append(f"trial {trial}: fm={fm} lp={lp.member}")
        elif fm:
            members += 1
        else:
            non_members += 1
    elapsed = time.time() - start
    ok = (
        not mismatches
        and members >= 100
        and non_members >= 100
        and elapsed < 60
    )
    line = report_line(
        5,
        ok,
        f"projection vs simplex agreed on 1000 instances "
        f"({members} members, {non_members} non-members, {elapsed:.1f}s)",
    )
    assert ok, line + "; " + "; ".join(mismatches[:3])


def test_primary_6_positivity_audit_on_witness_networks(corpus):
    start = time.time()
    failures = []
    audited = 0
    for i, (net, joint) in enumerate(corpus[:50]):
        report = positivity_audit(
            PreciseNet.from_witnesses(net), joint, random.Random(6000 + i), samples=50
        )
        audited += 1
        if not report.ok or report.checked != 50:
            failures.append(f"net {i}: {report.failures[:2]}")
    elapsed = time.time() - start
    ok = not failures and audited >= 50 and elapsed < 120
    line = report_line(
        6,
        ok,
        f"50 conic combinations scored strictly positive on {audited} witness "
        f"networks ({elapsed:.1f}s)",
    )
    assert ok, line + "; " + "; ".join(failures[:3])


def test_primary_7_mutated_networks_fail_verification(corpus, tmp_path, capsys):
    start = time.time()
    failures = []
    mutated = 0
    for i, (net, _) in enumerate(corpus[:20]):
        path = tmp_path / f"net{i}.json"
        path.write_text(json.dumps(cli.serialize_network(net)))
        slots = [(s, p) for (s, p), gs in net.assessments.items() if gs]
        s, p = slots[0] if slots else (net.dag.nodes[0], 0)
        code = cli.main(
            [
                "verify",
                str(path),
                "--seed",
                "7",
                "--gambles-per-slot",
                "2",
                "--audit-samples",
                "2",
                "--mutate-flip",
                f"{s}:{p}:0",
            ]
        )
        out = capsys.readouterr().out
        mutated += 1
        if code != 1:
            failures.append(f"net {i}: exit {code} instead of 1")
            continue
        report = json.loads(out)
        hits = [
            h
            for h in report["sweep"]["violations"]
            if h["kind"] == "irrelevance-mismatch"
        ]
        if not hits:
            failures.append(f"net {i}: exit 1 without an irrelevance mismatch")
            continue
        named = any(
            h["node"] == s
            and isinstance(h["parent"], list)
            and isinstance(h["irrelevant"], list)
            and h["gamble"]
            for h in hits
        )
        if not named:
            failures.append(f"net {i}: no mismatch names the flipped slot {s!r}")
        if not report["positivity_audit"]["failures"]:
            failures.append(f"net {i}: expectation audit missed the flip")
    elapsed = time.time() - start
    ok = not failures and mutated >= 20 and elapsed < 120
    line = report_line(
        7,
        ok,
        f"{mutated} sign-flip mutations all exited 1 naming the violated "
        f"slot ({elapsed:.1f}s)",
    )
    assert ok, line + "; " + "; ".join(failures[:3])


def test_primary_8_verify_reports_are_deterministic(corpus, tmp_path, capsys):
    net = corpus[0][0]
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cli.serialize_network(net)))
    args = ["verify", str(path), "--seed", "21", "--gambles-per-slot", "3"]
    code1 = cli.main(args)
    out1 = capsys.readouterr().out
    code2 = cli.main(args)
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    line = report_line(
        8, ok, "identical inputs and seed produced byte-identical verify reports"
    )
    assert ok, line
