"""Precise-network expectations and the Fourier-Motzkin cross-check."""

import inspect
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from credalcones import oracle
from credalcones.core import Gamble, Space, VariableSpace, indicator
from credalcones.dag import Dag
from credalcones.lp import _over_lcm, conic_membership
from dense import fm_membership as dense_fm_membership
from dense import int_columns, positivity_audit as dense_positivity_audit
from credalcones.net import CredalNet, sample_credal_net, sample_gamble
from credalcones.oracle import (
    FM_MAX_DIM,
    FM_MAX_GENERATORS,
    PreciseNet,
    WitnessMismatchError,
    fm_membership,
    positivity_audit,
)

F = Fraction


def binary_chain():
    a = VariableSpace("a", ("a0", "a1"))
    b = VariableSpace("b", ("b0", "b1"))
    return CredalNet(Dag(["a", "b"], [("a", "b")]), [a, b])


def chain_precise():
    net = binary_chain()
    kernels = {
        ("a", 0): (F(3, 4), F(1, 4)),
        ("b", 0): (F(1, 2), F(1, 2)),
        ("b", 1): (F(1, 3), F(2, 3)),
    }
    return PreciseNet(net, kernels)


def test_chain_global_mass():
    p = chain_precise()
    sp = p.net.joint_space
    cfg = sp.configuration({"a": "a0", "b": "b0"})
    assert p.global_mass(cfg) == F(3, 8)
    assert p.global_mass(sp.configuration({"a": "a1", "b": "b1"})) == F(1, 6)
    total = sum(p.global_mass(c) for c in sp.configurations())
    assert total == 1


def test_expectation_is_linear():
    p = chain_precise()
    sp = p.net.joint_space
    rng = random.Random(9)
    f = sample_gamble(rng, sp)
    g = sample_gamble(rng, sp)
    assert p.expectation(f + g) == p.expectation(f) + p.expectation(g)
    assert p.expectation(f * F(5, 3)) == F(5, 3) * p.expectation(f)


def test_invalid_kernels_rejected():
    net = binary_chain()
    with pytest.raises(ValueError):
        PreciseNet(net, {("a", 0): (F(1), F(1)), ("b", 0): (1, 0), ("b", 1): (1, 0)})
    with pytest.raises(ValueError):
        PreciseNet(
            net,
            {
                ("a", 0): (F(3, 2), F(-1, 2)),
                ("b", 0): (F(1), F(0)),
                ("b", 1): (F(1), F(0)),
            },
        )


def test_factorization_identity():
    # expectation of indicator(parent and nnd config) * f splits into the
    # marginal mass of the configuration times the local expectation
    rng = random.Random(414)
    for _ in range(6):
        net = sample_credal_net(rng, max_nodes=3)
        precise = PreciseNet.from_witnesses(net)
        sp = net.joint_space
        for s in net.dag.nodes:
            p_space = net.parent_space(s)
            n_space = net.nnd_space(s)
            p_idx = rng.randrange(p_space.size)
            observed = p_space.config_at(p_idx).combine(
                n_space.config_at(rng.randrange(n_space.size))
            )
            f = sample_gamble(rng, net.node_space(s))
            ind = indicator(observed, sp)
            left = precise.expectation(ind * f.extend(sp))
            right = precise.expectation(ind) * precise.local_expectation(s, p_idx, f)
            assert left == right


def test_witness_network_matches_canonical_witness():
    rng = random.Random(515)
    for _ in range(5):
        net = sample_credal_net(rng, max_nodes=3)
        precise = PreciseNet.from_witnesses(net)
        joint = net.build_joint()
        masses = tuple(
            precise.global_mass(c) for c in net.joint_space.configurations()
        )
        ints, mass_den = joint._canonical
        assert tuple(F(n, mass_den) for n in ints) == masses
        # and every generator really has strictly positive expectation
        for entries, den in joint.generators:
            table = [F(0)] * net.joint_space.size
            for j, n in entries:
                table[j] = F(n, den)
            assert precise.expectation(Gamble(net.joint_space, table)) > 0


def test_positivity_audit_scores_witness_networks_positive():
    rng = random.Random(616)
    for _ in range(5):
        net = sample_credal_net(rng, max_nodes=3)
        joint = net.build_joint()
        report = positivity_audit(
            PreciseNet.from_witnesses(net), joint, rng, samples=20
        )
        assert report.ok
        assert report.checked == 20
        assert report.generators_checked == len(joint.generators)
        assert report.total_mass_one
        assert report.failures == ()


def test_positivity_audit_rejects_non_witness_kernels():
    net = binary_chain()
    kernels = {
        ("a", 0): (F(1), F(0)),  # value a1 impossible: atom indicator scores 0
        ("b", 0): (F(1, 2), F(1, 2)),
        ("b", 1): (F(1, 2), F(1, 2)),
    }
    with pytest.raises(WitnessMismatchError):
        positivity_audit(PreciseNet(net, kernels), net.build_joint(), random.Random(1))


def test_positivity_audit_catches_sign_flip_mutations():
    net = binary_chain()
    flipped = net.build_joint(mutate_flip=("b", 0, 0))
    report = positivity_audit(
        PreciseNet.from_witnesses(net), flipped, random.Random(2), samples=10
    )
    assert not report.all_positive
    assert report.failures
    assert any("generator" in f for f in report.failures)


def random_flip(net, rng):
    """A random (node, parent index, local generator index) of the net."""
    node = rng.choice(net.dag.nodes)
    p_idx = rng.randrange(net.parent_space(node).size)
    return node, p_idx, rng.randrange(len(net.local_cone(node, p_idx).generators))


def test_positivity_audit_equals_the_dense_reference():
    # the integer scores and the linear combination scores give the same
    # report, failure strings included, as dense Fraction tables
    # (a flipped generator scores negative under every positive mass)
    for seed in range(1000, 1040):
        net = sample_credal_net(random.Random(seed))
        precise = PreciseNet.from_witnesses(net)
        for flip in (None, random_flip(net, random.Random(seed + 1))):
            joint = net.build_joint(mutate_flip=flip)
            report = positivity_audit(precise, joint, random.Random(seed + 2))
            assert report == dense_positivity_audit(precise, joint, random.Random(seed + 2))
            assert report.ok == (flip is None)


# -- Fourier-Motzkin ------------------------------------------------------------


def test_fm_hand_cases():
    gens = [(F(1), F(0)), (F(1), F(1))]
    assert fm_membership((F(3), F(1)), gens)
    assert not fm_membership((F(0), F(1)), gens)
    assert not fm_membership((F(1), F(2)), [(F(1), F(1))])
    assert fm_membership((F(2), F(0)), [(F(1), F(-1)), (F(0), F(1))])
    # ints and anything else Fraction() takes are read as rationals
    assert fm_membership((0.5, "1"), [(1, 2), (F(0), 1)])
    assert not fm_membership((-1, 0), [(1, 2), (0, 1)])


def test_fm_guards():
    with pytest.raises(ValueError, match="contains_zero"):
        fm_membership((F(0), F(0)), [(F(1), F(2))])
    with pytest.raises(ValueError):
        fm_membership((F(1),) * (FM_MAX_DIM + 1), [(F(1),) * (FM_MAX_DIM + 1)])
    too_many = [(F(1), F(0))] * (FM_MAX_GENERATORS + 1)
    with pytest.raises(ValueError):
        fm_membership((F(1), F(0)), too_many)
    with pytest.raises(ValueError):
        fm_membership((F(1),), [(F(1),), (F(1), F(2))])


def test_fm_agrees_with_lp():
    rng = random.Random(20240818)
    agree_member = agree_nonmember = 0
    for _ in range(120):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 8)
        gens = []
        for _ in range(n):
            g = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            if any(v != 0 for v in g):
                gens.append(g)
        if not gens:
            gens = [tuple(F(1) for _ in range(dim))]
        target = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        while all(v == 0 for v in target):
            target = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        lp_says = conic_membership(_over_lcm(target), int_columns(gens)).member
        fm_says = fm_membership(target, gens)
        assert lp_says == fm_says
        if lp_says:
            agree_member += 1
        else:
            agree_nonmember += 1
    assert agree_member > 20 and agree_nonmember > 20


def random_entry(rng, denominators=(1, 2, 3, 5)):
    """A small rational, as a plain int one time in four."""
    if rng.random() < 0.25:
        return rng.randint(-3, 3)
    return F(rng.randint(-3, 3), rng.choice(denominators))


def fm_instance(rng, kind):
    """A (target, generators) pair of one of four kinds: random small
    ones, ones with a zero generator and a duplicate, ones whose last
    equality row depends on the others (consistently or not), and wide
    ones of up to FM_MAX_DIM dimensions with few generators."""
    dim = rng.randint(1, 4) if kind < 3 else rng.randint(5, FM_MAX_DIM)
    n = rng.randint(0, 8) if kind < 3 else rng.randint(1, 4)
    gens = [[random_entry(rng) for _ in range(dim)] for _ in range(n)]
    target = [random_entry(rng, (1, 7)) for _ in range(dim)]
    if kind == 1:
        gens.insert(rng.randint(0, n), [F(0)] * dim)
        gens.insert(rng.randint(0, n + 1), list(rng.choice(gens)))
    if kind == 2 and dim >= 2:
        # the last row is a combination of the first two, on the
        # generators always and on the target up to an offset
        a, b = random_entry(rng), random_entry(rng)
        for v in gens + [target]:
            v[-1] = a * v[0] + b * v[min(1, dim - 2)]
        target[-1] += rng.choice((0, 0, 1, F(-1, 2)))
    if all(v == 0 for v in target):
        target[rng.randrange(dim)] = F(1, 3)
    return tuple(target), [tuple(g) for g in gens]


def test_fm_decides_as_the_fraction_reference():
    # the integer substitution decides as the Fraction one on every kind
    # of instance, its rows only ever scaled by positive numbers
    rng = random.Random(20261019)
    answers = {True: 0, False: 0}
    negative_pivots = dependent = wide = 0
    for i in range(3200):
        kind = i % 4
        target, gens = fm_instance(rng, kind)
        expected = dense_fm_membership(target, gens)
        assert fm_membership(target, gens) == expected, (target, gens)
        answers[expected] += 1
        negative_pivots += next((g[0] for g in gens if g[0] != 0), 0) < 0
        dependent += kind == 2 and len(target) >= 2
        wide += len(target) > 4
    assert min(answers.values()) > 500
    assert negative_pivots > 500 and dependent > 500 and wide > 500


def rank(vectors):
    """The rank of a list of rational vectors, by Gaussian elimination in
    Fractions."""
    rows, found = [[F(v) for v in vec] for vec in vectors], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for i in range(found + 1, len(rows)):
            f = rows[i][col] / rows[found][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[found])]
        found += 1
    return found


def gauss_jordan_instance(rng):
    """A (target, generators) pair whose generators span a random subspace
    of rank at most 1-4 in 1-6 dimensions (so that equality rows depend on
    each other when it is below the dimension), as 0-3 more combinations
    of a basis than its size, then a zero, a duplicate and an opposite
    generator, each one time in three; the target a combination of the
    generators, or one time in three off their span, so that elimination
    ends on a row 0 = c != 0."""
    dim = rng.randint(1, 6)
    basis = [[random_entry(rng) for _ in range(dim)] for _ in range(rng.randint(1, min(dim, 4)))]

    def combination(vectors, coefficients):
        return [sum((c * v[i] for c, v in zip(coefficients, vectors)), F(0)) for i in range(dim)]

    gens = [
        combination(basis, [random_entry(rng) for _ in basis])
        for _ in range(len(basis) + rng.randint(0, 3))
    ]
    extras = {"zero": [F(0)] * dim}
    if gens:
        extras["duplicate"] = list(rng.choice(gens))
        extras["opposite"] = [-v for v in rng.choice(gens)]
    added = [kind for kind in extras if rng.random() < 1 / 3]
    for kind in added:
        gens.insert(rng.randint(0, len(gens)), extras[kind])
    target = combination(gens, [rng.choice((0, 1, 2, -1, F(1, 2))) for _ in gens])
    if rng.random() < 1 / 3:
        target[rng.randrange(dim)] += random_entry(rng, (1, 7))
    if not any(target):
        target[rng.randrange(dim)] = F(1, 3)
    return tuple(target), [tuple(g) for g in gens], added


def test_fm_gauss_jordan_decides_as_the_fraction_reference_in_every_corner():
    # dependent and inconsistent equality rows, zero, duplicate and
    # opposite generators, and 0-3 free variables (generators beyond the
    # rank) after elimination: the integer Gauss-Jordan route decides as
    # the Fraction substitution of every bound row
    rng = random.Random(20261021)
    corners, widths, answers = Counter(), Counter(), Counter()
    for _ in range(2500):
        target, gens, added = gauss_jordan_instance(rng)
        expected = dense_fm_membership(target, gens)
        assert fm_membership(target, gens) == expected, (target, gens)
        answers[expected] += 1
        corners.update(added)
        r = rank(gens)
        widths[len(gens) - r] += 1
        corners["dependent"] += r < len(target)
        corners["inconsistent"] += rank([*gens, target]) > r
    assert min(answers.values()) > 400, answers
    for corner in ("zero", "duplicate", "opposite", "dependent", "inconsistent"):
        assert corners[corner] > 200, corners
    assert all(widths[w] > 100 for w in range(4)), widths


def test_fm_row_blow_up_raises(monkeypatch):
    target = (F(1), F(1))
    gens = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(1)), (F(1), F(-1))]
    # every row a slack row (the units), and no slack row
    cases = [gens, [(F(1), F(1)), (F(1), F(2)), (F(-1), F(1)), (F(1), F(-1)), (F(2), F(1))]]
    assert all(fm_membership(target, gens) for gens in cases)
    monkeypatch.setattr(oracle, "_FM_MAX_ROWS", 0)
    for gens in cases:
        with pytest.raises(RuntimeError, match="Fourier-Motzkin row blow-up"):
            fm_membership(target, gens)


def slack_instance(rng):
    """A (target, generators) pair in 1-6 dimensions whose rows are slack
    rows (a positive unit column of their own) at random: 0-6 random
    generators, one positive unit column for each slack row and, one time
    in three each, a second one in some slack row, a negative unit column,
    and a zero, a duplicate and an opposite generator, in shuffled order;
    the target's entry in a slack row is drawn nonpositive half the time."""
    dim = rng.randint(1, 6)
    share = rng.choice((0, 0.5, 1))
    slacks = [i for i in range(dim) if rng.random() < share]

    def unit(i, v):
        return [F(0)] * i + [F(v)] + [F(0)] * (dim - i - 1)

    gens = [[random_entry(rng) for _ in range(dim)] for _ in range(rng.randint(0, 6))]
    gens += [unit(i, rng.choice((1, 2, F(1, 3)))) for i in slacks]
    if slacks and rng.random() < 1 / 3:
        gens.append(unit(rng.choice(slacks), rng.choice((1, F(5, 2)))))
    if rng.random() < 1 / 3:
        gens.append(unit(rng.randrange(dim), rng.choice((-1, F(-1, 2)))))
    for extra in ("zero", "duplicate", "opposite"):
        if gens and rng.random() < 1 / 3:
            g = rng.choice(gens)
            gens.append([F(0)] * dim if extra == "zero" else g[:] if extra == "duplicate" else [-v for v in g])
    rng.shuffle(gens)
    target = [random_entry(rng, (1, 7)) for _ in range(dim)]
    for i in slacks:
        if rng.random() < 0.5:
            target[i] = rng.choice((F(0), F(-1), F(-2, 3)))
    if not any(target):
        target[rng.randrange(dim)] = F(1, 3)
    return tuple(target), [tuple(g) for g in gens]


def imbert_drops(target, gens):
    """fm_membership's answer, and how many combined rows Imbert's history
    bound dropped, counted by tracing the line that drops them."""
    lines, first = inspect.getsourcelines(fm_membership)
    at = next(first + k for k, line in enumerate(lines) if "if size > steps + 1:" in line) + 1
    drops = 0

    def trace(frame, event, arg):
        nonlocal drops
        if frame.f_code is fm_membership.__code__:
            drops += event == "line" and frame.f_lineno == at
            return trace
        return None

    sys.settrace(trace)
    try:
        answer = fm_membership(target, gens)
    finally:
        sys.settrace(None)
    return answer, drops


def test_fm_slack_rows_decide_as_the_fraction_reference_in_every_corner():
    # slack rows of either sign of target entry, a second positive unit
    # column in a slack row, negative unit columns (no slack), every or no
    # row a slack row, zero, duplicate and opposite generators, and 0-4
    # free coefficients left after the slack rows and elimination, with
    # Imbert's bound dropping rows: the integer route decides as the
    # Fraction substitution of every bound row, which has no slack rows
    rng = random.Random(20261022)
    corners, widths, answers = Counter(), Counter(), Counter()
    for _ in range(2000):
        target, gens = slack_instance(rng)
        dim = len(target)
        units = [(i, g[i]) for g in gens for i in range(dim) if sum(1 for v in g if v) == 1 and g[i]]
        slack_rows = {i for i, v in units if v > 0}
        equalities = [[g[i] for g in gens] for i in range(dim) if i not in slack_rows]
        width = len(gens) - len(slack_rows) - (rank(equalities) if gens and equalities else 0)
        widths[width] += 1
        expected = dense_fm_membership(target, gens)
        # drops are traced at widths 3 and 4 (from step 2 on, a combined
        # row can draw on more than steps + 1 starting rows)
        answer, drops = imbert_drops(target, gens) if width in (3, 4) else (fm_membership(target, gens), 0)
        assert answer == expected, (target, gens)
        answers[expected] += 1
        corners["Imbert drops"] += drops > 0
        corners["negative unit"] += any(v < 0 for _, v in units)
        corners["two units in a row"] += len([i for i, v in units if v > 0]) > len(slack_rows)
        corners["slack row, target <= 0"] += any(target[i] <= 0 for i in slack_rows)
        corners["every row a slack row"] += len(slack_rows) == dim
        corners["no slack row"] += not slack_rows
        corners["zero"] += any(not any(g) for g in gens)
        corners["duplicate"] += len(set(gens)) < len(gens)
        corners["opposite"] += any(tuple(-v for v in g) in gens for g in gens if any(g))
    assert min(answers.values()) > 400, answers
    for corner in (
        "negative unit", "two units in a row", "slack row, target <= 0",
        "every row a slack row", "no slack row", "zero", "duplicate", "opposite",
    ):
        assert corners[corner] > 100, corners
    assert all(widths[w] > 50 for w in range(5)), widths
    assert corners["Imbert drops"] > 10, corners

