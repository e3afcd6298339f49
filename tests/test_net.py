"""Joint model construction, certificate routes, and irrelevance checks."""

import random
import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations, islice
from math import gcd, lcm, prod

import pytest

from credalcones import lp
from credalcones.cone import _BASIS_LIMIT, AssessmentCone
from credalcones.core import Gamble, ScopeError, Space, VariableSpace, indicator
from credalcones.dag import Dag
from credalcones.lp import (
    InfinitePrevisionError,
    LpError,
    _answer_at,
    _atoms_basis,
    _certified_mass,
    _checked_prevision,
    _combines,
    _int_vector,
    _over_lcm,
    _prevision_at_basis,
    _primitive,
    _score,
    conic_membership,
    contains_zero as lp_contains_zero,
)
from credalcones.net import (
    _SEPARATOR_CACHE_LIMIT,
    CredalNet,
    GeneratorCapError,
    IncoherentLocalModel,
    JointModel,
    NetworkError,
    Violation,
    ZeroGambleError,
    sample_credal_net,
    sample_gamble,
)
from dense import fractions, int_columns, is_separator, is_witness, masses, product_mass

F = Fraction


def dot(u, v):
    return sum((x * y for x, y in zip(u, v)), F(0))


def generator_tables(joint):
    """Each joint generator as a dense table over the joint space."""
    tables = []
    for entries, den in joint.generators:
        table = [F(0)] * joint.space.size
        for j, n in entries:
            table[j] = F(n, den)
        tables.append(tuple(table))
    return tables


def generator_origins(joint):
    """(node, parent index) of each joint generator, from the slot table:
    slot (p, n, first) of node s holds the local columns of (s, p) at the
    generators first, first + 1, ..."""
    origins = [None] * len(joint.generators)
    for s, slots in joint._slots.items():
        for p, _, first in slots:
            for k in range(len(joint.net.local_cone(s, p).columns)):
                origins[first + k] = (s, p)
    return origins


def lp_lower_prevision(target, columns):
    return _checked_prevision(target, columns)[0]


def binary(name):
    return VariableSpace(name, (f"{name}0", f"{name}1"))


def single_node_net(assessed=True):
    var = binary("a")
    sp = Space([var])
    gambles = {"a": [[Gamble(sp, (1, -1))]]} if assessed else None
    return CredalNet(Dag(["a"]), [var], gambles)


def chain_net(assess_a=False):
    a, b = binary("a"), binary("b")
    sp_a = Space([a])
    assessments = {"a": [[Gamble(sp_a, (1, -1))]]} if assess_a else None
    net = CredalNet(Dag(["a", "b"], [("a", "b")]), [a, b], assessments)
    return net


def test_single_node_generators_mirror_local_cone():
    net = single_node_net()
    joint = net.build_joint()
    assert len(joint.generators) == 3  # one assessment + two atoms
    local = net.local_cone("a", 0)
    for table, g in zip(generator_tables(joint), local.generators):
        assert table == g.table
    f = Gamble(net.joint_space, (3, -1))
    assert joint.member_with_certificate(f).member == local.member_with_certificate(f).member


def test_chain_generator_count_and_order():
    net = chain_net(assess_a=False)
    joint = net.build_joint()
    # a: one empty parent cfg, no assessments, two atoms -> 2
    # b: two parent cfgs, two atoms each -> 4
    assert net.generator_count() == 6
    assert len(joint.generators) == 6
    assert [s for s, _ in generator_origins(joint)] == ["a", "a", "b", "b", "b", "b"]
    assert [p for _, p in generator_origins(joint)] == [0, 0, 0, 0, 1, 1]
    # b's generators are indicator(a=...) * atom
    sp = net.joint_space
    a_space = sp.restrict(["a"])
    expected = indicator(a_space.configuration({"a": "a0"}), sp) * indicator(
        sp.restrict(["b"]).configuration({"b": "b0"}), sp
    )
    assert generator_tables(joint)[2] == expected.table

    richer = chain_net(assess_a=True)
    assert richer.generator_count() == 7  # the assessment adds one product


def test_generator_count_matches_construction_on_random_nets():
    rng = random.Random(31)
    for _ in range(10):
        net = sample_credal_net(rng, max_nodes=3)
        assert net.generator_count() == len(net.build_joint().generators)


def test_joint_integer_columns_equal_their_definition():
    # every generator column is the integer form of the dense product
    # indicator(parent config and nnd config) * local generator, built here
    # through core, and negated at the flipped slot of a mutated model
    rng = random.Random(73)
    flips = 0
    for trial in range(12):
        net = sample_credal_net(rng, max_nodes=4, max_values=3)
        flip = random_mutation(rng, net) if trial % 2 else None
        joint = net.build_joint(mutate_flip=flip)
        space = net.joint_space
        expected = []
        for s in net.dag.nodes:
            p_space, nnd_space = net.parent_space(s), net.nnd_space(s)
            for p_idx in range(p_space.size):
                for n_idx in range(nnd_space.size):
                    observed = p_space.config_at(p_idx).combine(nnd_space.config_at(n_idx))
                    for k, g in enumerate(net.local_cone(s, p_idx).generators):
                        product = indicator(observed, space) * g.extend(space)
                        if flip == (s, p_idx, k):
                            product = -product
                            flips += 1
                        expected.append((s, p_idx, _int_vector(enumerate(product.table))))
        origins = generator_origins(joint)
        assert [(s, p, c) for (s, p), c in zip(origins, joint.generators)] == expected
        assert len(joint.generators) == len(expected)
    assert flips >= 6


def test_generator_cap():
    net = chain_net()
    with pytest.raises(GeneratorCapError):
        net.build_joint(cap=5)


def test_incoherent_local_model_rejected_at_ingestion():
    var = binary("a")
    sp = Space([var])
    bad = {"a": [[Gamble(sp, (0, -1))]]}
    with pytest.raises(IncoherentLocalModel) as err:
        CredalNet(Dag(["a"]), [var], bad)
    assert err.value.node == "a"


def test_cyclic_graph_rejected():
    a, b = binary("a"), binary("b")
    with pytest.raises(NetworkError):
        CredalNet(Dag(["a", "b"], [("a", "b"), ("b", "a")]), [a, b])


def test_canonical_witness_certifies_zero_freeness():
    rng = random.Random(97)
    for _ in range(8):
        net = sample_credal_net(rng, max_nodes=3)
        joint = net.build_joint()
        assert joint._canonical is not None
        report = joint.contains_zero()
        assert not report.exists
        assert report.route == "canonical-witness"
        # independent route: the LP primitive over the raw columns
        assert not lp_contains_zero(int_columns(generator_tables(joint)), joint.space.size).exists


def test_joint_lp_columns_are_the_distinct_generators_in_first_occurrence_order(monkeypatch):
    seen = []

    def spy(target, columns):
        seen.append(list(columns))
        return conic_membership(target, columns)

    monkeypatch.setattr("credalcones.net.conic_membership", spy)
    # two unconnected nodes: both contribute every full-configuration atom
    a, b = binary("a"), binary("b")
    twin = CredalNet(Dag(["a", "b"]), [a, b])
    rng = random.Random(41)
    for net in [twin] + [sample_credal_net(rng, max_nodes=3) for _ in range(6)]:
        joint = net.build_joint()
        tables = generator_tables(joint)
        distinct = list(dict.fromkeys(tables))
        columns, owners = joint._dedup_columns()
        assert columns == int_columns(distinct)
        assert owners == [tables.index(t) for t in distinct]
    joint = twin.build_joint()
    assert len(joint.generators) == 8 and len(joint._dedup_columns()[0]) == 4
    # scored 0 by the canonical witness and not positive: only the LP decides
    res = joint.member_with_certificate(Gamble(twin.joint_space, (1, -1, 0, 0)))
    assert res.route == "exact-lp" and not res.member
    assert seen == [int_columns(dict.fromkeys(generator_tables(joint)))]


def test_positive_gambles_are_members_and_nonpositive_are_not():
    net = chain_net(assess_a=True)
    joint = net.build_joint()
    size = net.joint_space.size
    for j in range(size):
        table = [F(0)] * size
        table[j] = F(2)
        res = joint.member_with_certificate(Gamble(net.joint_space, tuple(table)))
        assert res.member and res.route == "positive-span"
    res = joint.member_with_certificate(Gamble.constant(net.joint_space, -1))
    assert not res.member and res.route == "cached-separator"


def test_structured_member_routes_and_certificates():
    net = chain_net(assess_a=True)
    joint = net.build_joint()
    sp_a = net.node_space("a")
    empty_parent = net.parent_space("a").config_at(0)
    empty_given = net.nnd_space("a").config_at(0)
    f = Gamble(sp_a, (1, -1))  # the assessed gamble on a
    res = joint.member_with_certificate(f, given=empty_parent.combine(empty_given))
    assert res.member and res.route == "local-assembly"
    res = joint.member_with_certificate(-f, given=empty_parent.combine(empty_given))
    assert not res.member and res.route in ("product-separator", "cached-separator")

    # b's local cone is vacuous: a mixed gamble on b is not desirable,
    # conditionally on either value of a
    sp_b = net.node_space("b")
    g = Gamble(sp_b, (1, -1))
    for p_idx in range(2):
        p_cfg = net.parent_space("b").config_at(p_idx)
        res = joint.member_with_certificate(
            g, given=p_cfg.combine(net.nnd_space("b").config_at(0))
        )
        assert not res.member


def abc_chain():
    # chain a -> b -> c with c assessed per parent value; N(c) = {a}
    a, b, c = binary("a"), binary("b"), binary("c")
    sp_c = Space([c])
    assessments = {"c": [[Gamble(sp_c, (2, -1))], [Gamble(sp_c, (-1, 2))]]}
    return CredalNet(Dag("abc", [("a", "b"), ("b", "c")]), [a, b, c], assessments)


def test_structured_member_with_irrelevant_observation():
    net = abc_chain()
    sp_c = net.node_space("c")
    joint = net.build_joint()
    f = Gamble(sp_c, (2, -1))
    p_space = net.parent_space("c")
    for p_idx in range(p_space.size):
        p_cfg = p_space.config_at(p_idx)
        expected = p_idx == 0  # assessed under b0, not under b1
        for a_value in ("a0", "a1"):
            given = Space([binary("a")]).configuration({"a": a_value})
            res = joint.member_with_certificate(f, given=p_cfg.combine(given))
            assert res.member == expected
            check = joint.check_irrelevance("c", p_cfg, given, f)
            assert check.agree


def test_structured_member_agrees_with_raw_lp():
    rng = random.Random(555)
    for _ in range(5):
        net = sample_credal_net(rng, max_nodes=3, max_values=2)
        joint = net.build_joint()
        columns = int_columns(generator_tables(joint))
        for s in net.dag.nodes:
            p_space = net.parent_space(s)
            nnd = net.dag.non_parent_non_descendants(s)
            p_cfg = p_space.config_at(rng.randrange(p_space.size))
            irrelevant = tuple(n for n in nnd if rng.random() < 0.5)
            i_space = Space(net.variables[n] for n in irrelevant)
            given = i_space.config_at(rng.randrange(i_space.size))
            f = sample_gamble(rng, net.node_space(s))
            res = joint.member_with_certificate(f, given=p_cfg.combine(given))
            target = indicator(
                p_cfg.combine(given), net.joint_space
            ) * f.extend(net.joint_space)
            direct = conic_membership(_over_lcm(target.table), columns)
            assert res.member == direct.member


def test_a_joint_target_equals_its_dense_build():
    # _target builds f, times the indicator of an observation, in integer
    # form from f's own table and the index maps; it must equal the dense
    # product indicator(given) * f on the joint space, made integer
    rng = random.Random(1011)
    for _ in range(30):
        net = sample_credal_net(rng, max_nodes=4, max_values=3)
        joint = net.build_joint()
        nodes = net.dag.nodes
        for _ in range(5):
            scope = [n for n in nodes if rng.random() < 0.5] or [rng.choice(nodes)]
            observed = [n for n in nodes if n not in scope and rng.random() < 0.5]
            f = sample_gamble(rng, Space(net.variables[n] for n in scope))
            o_space = Space(net.variables[n] for n in observed)
            given = o_space.config_at(rng.randrange(o_space.size))
            dense = f.extend(net.joint_space)
            assert joint._target(f) == _int_vector(enumerate(dense.table))
            product = indicator(given, net.joint_space) * dense
            assert joint._target(f, given) == _int_vector(enumerate(product.table))
    # a gamble on one node reads that node's own map only when its variable
    # is the network's; a same-named variable with other values is refused
    net = CredalNet(Dag(["a", "b"], [("a", "b")]), [binary("a"), binary("b")])
    joint = net.build_joint()
    for other in (("a0", "a2"), ("a1", "a0"), ("a0", "a1", "a2")):
        f = Gamble(Space([VariableSpace("a", other)]), tuple(range(1, len(other) + 1)))
        for ask in (joint._target, joint.lower_prevision):
            with pytest.raises(ScopeError):
                ask(f)


def random_mutation(rng, net):
    """A random (node, parent index, local generator index) to flip."""
    s = rng.choice(net.dag.nodes)
    p_idx = rng.randrange(net.parent_space(s).size)
    return s, p_idx, rng.randrange(len(net.local_cone(s, p_idx).generators))


def test_structured_target_is_the_dense_target():
    # the structured route builds its target sparsely from the joint index
    # maps; its answers must be those of the dense product
    # indicator(parent and given) * f, on tampered models too, where the
    # route falls through to the exact LP
    rng = random.Random(1010)
    routes = set()
    for trial in range(16):
        net = sample_credal_net(rng, max_nodes=4, max_values=3)
        flip = random_mutation(rng, net) if trial % 2 else None
        with_parents, without = (net.build_joint(mutate_flip=flip) for _ in range(2))
        tables = generator_tables(with_parents)
        columns = int_columns(tables)
        for _ in range(6):
            s = rng.choice(net.dag.nodes)
            p_space = net.parent_space(s)
            p_idx = rng.randrange(p_space.size)
            p_cfg = p_space.config_at(p_idx)
            irrelevant = tuple(n for n in net.nnd_space(s).nodes if rng.random() < 0.5)
            i_space = Space(net.variables[n] for n in irrelevant)
            given = i_space.config_at(rng.randrange(i_space.size))
            f = sample_gamble(rng, net.node_space(s))
            res = with_parents.structured_member(s, p_idx, p_cfg.combine(given), f)
            # both models have answered the same queries so far, so their
            # separator caches agree and so must route and certificate
            assert without.structured_member(s, p_idx, given, f) == res
            target = indicator(p_cfg.combine(given), net.joint_space) * f.extend(net.joint_space)
            assert res.member == conic_membership(_over_lcm(target.table), columns).member
            if res.member:
                assert is_witness(tables, target.table, res.witness)
            else:
                assert is_separator(tables, target.table, res.separator)
            routes.add(res.route)
    assert {"local-assembly", "product-separator"} <= routes, routes
    assert routes & {"exact-lp", "chain-recursion"}, routes


def test_untampered_sweep_builds_no_indicator(monkeypatch):
    rng = random.Random(2020)
    nets = [sample_credal_net(rng) for _ in range(6)]

    def sweeps():
        return [
            net.build_joint().verify_requirements(random.Random(i), gambles_per_slot=2)
            for i, net in enumerate(nets)
        ]

    reports = sweeps()
    joint_spaces = {net.joint_space for net in nets}
    extend = Gamble.extend

    # no gamble of a smaller scope is laid out densely on the joint space
    def no_dense_joint(f, target):
        if target in joint_spaces and target != f.space:
            raise AssertionError("a dense joint gamble built during an untampered sweep")
        return extend(f, target)

    monkeypatch.setattr(Gamble, "extend", no_dense_joint)
    assert sweeps() == reports
    assert all(report.ok for report in reports)


def test_joint_member_is_strict_about_zero():
    net = chain_net(assess_a=True)
    joint = net.build_joint()
    a0 = net.node_space("a").config_at(0)
    with pytest.raises(ZeroGambleError):
        joint.member_with_certificate(Gamble.zero(net.joint_space))
    with pytest.raises(ZeroGambleError):
        joint.member_with_certificate(Gamble.zero(net.node_space("b")), given=a0)
    with pytest.raises(ZeroGambleError):
        joint.member_with_certificate(
            Gamble.zero(net.node_space("b")), given=a0.combine(net.nnd_space("b").config_at(0))
        )
    assert joint.member_with_certificate(Gamble.constant(net.joint_space, 1)).member


def test_condition_on_empty_configuration_is_identity(monkeypatch):
    net = chain_net(assess_a=True)
    joint = net.build_joint()
    empty = Space([]).configuration({})
    rng = random.Random(14)
    gambles = [sample_gamble(rng, net.joint_space) for _ in range(6)]
    gambles += [sample_gamble(rng, net.node_space("b")) for _ in range(3)]
    expected = [joint.member_with_certificate(f).member for f in gambles]
    post_init = Gamble.__post_init__

    # observing nothing builds no indicator and no other joint gamble: the
    # target is made in integer form from f's own table
    def no_joint_gamble(g):
        post_init(g)
        if g.space == net.joint_space:
            raise AssertionError("a joint gamble built for an empty observation")

    monkeypatch.setattr(Gamble, "__post_init__", no_joint_gamble)
    for f, member in zip(gambles, expected):
        assert joint.member_with_certificate(f, given=empty).member == member


def test_condition_answers_follow_the_local_model():
    net = abc_chain()
    joint = net.build_joint()
    sp_c = net.node_space("c")
    f = Gamble(sp_c, (2, -1))
    b_space = Space([binary("b")])
    b0 = b_space.configuration({"b": "b0"})
    b1 = b_space.configuration({"b": "b1"})
    assert joint.member_with_certificate(f, given=b0).member  # assessed under b0
    assert not joint.member_with_certificate(f, given=b1).member
    assert joint.member_with_certificate(Gamble(sp_c, (-1, 2)), given=b1).member
    with pytest.raises(ZeroGambleError):
        joint.member_with_certificate(Gamble.zero(sp_c), given=b0)
    with pytest.raises(NetworkError):
        # scope overlaps the observation
        joint.member_with_certificate(Gamble(b_space, (1, 1)), given=b0)
    with pytest.raises(NetworkError):
        joint.member_with_certificate(
            f, given=Space([binary("z")]).configuration({"z": "z0"})
        )


def test_membership_given_an_observation_dispatch_and_errors():
    net = abc_chain()
    joint = net.build_joint()
    sp_c = net.node_space("c")
    f = Gamble(sp_c, (2, -1))
    columns = int_columns(generator_tables(joint))
    ab_space = Space([binary("a"), binary("b")])
    # parent (b) plus a non-parent-non-descendant (a) observed, in one
    # configuration or combined from the two parts: the same structured
    # certificate either way
    for a_val in ("a0", "a1"):
        observed = ab_space.configuration({"a": a_val, "b": "b0"})
        structured = joint.member_with_certificate(
            f,
            given=Space([binary("b")])
            .configuration({"b": "b0"})
            .combine(Space([binary("a")]).configuration({"a": a_val})),
        )
        assert joint.member_with_certificate(f, given=observed) == structured
        assert structured.member and structured.route == "local-assembly"
    # observing only the non-parent leaves the parent free: generic route,
    # and the mixed gamble is out of reach there
    only_a = Space([binary("a")]).configuration({"a": "a0"})
    assert not joint.member_with_certificate(f, given=only_a).member
    target = indicator(only_a, net.joint_space) * f.extend(net.joint_space)
    assert not conic_membership(_over_lcm(target.table), columns).member
    # gambles on several nodes take the generic route too
    bc = sample_gamble(random.Random(9), Space([binary("b"), binary("c")]))
    wide = indicator(only_a, net.joint_space) * bc.extend(net.joint_space)
    assert (
        joint.member_with_certificate(bc, given=only_a).member
        == conic_membership(_over_lcm(wide.table), columns).member
    )
    # scope overlap and zero gambles are refused
    with pytest.raises(NetworkError):
        joint.member_with_certificate(Gamble(Space([binary("a")]), (1, 0)), given=only_a)
    with pytest.raises(ZeroGambleError):
        joint.member_with_certificate(Gamble.zero(sp_c), given=only_a)
    # a gamble on a root with nothing observed is structured as well
    root = chain_net(assess_a=True).build_joint()
    res = root.member_with_certificate(Gamble(Space([binary("a")]), (1, -1)))
    assert res.member and res.route == "local-assembly"


def test_verify_requirements_clean_network():
    net = chain_net(assess_a=True)
    joint = net.build_joint()
    report = joint.verify_requirements(random.Random(3), gambles_per_slot=4)
    assert report.ok
    assert report.zero_free
    assert report.atoms_checked == 4
    assert report.negatives_checked == 4 + 4  # negated atoms + random draws
    assert report.minimal_by_construction
    assert report.irrelevance_checked > 0


def test_verify_requirements_is_deterministic():
    net = chain_net(assess_a=True)
    r1 = net.build_joint().verify_requirements(random.Random(11), gambles_per_slot=4)
    r2 = net.build_joint().verify_requirements(random.Random(11), gambles_per_slot=4)
    assert r1 == r2


def test_verify_requirements_budget_boundary():
    net = chain_net(assess_a=True)
    full = net.build_joint().verify_requirements(random.Random(3), gambles_per_slot=2)
    n = full.irrelevance_checked
    exact = net.build_joint().verify_requirements(
        random.Random(3), gambles_per_slot=2, max_checks=n
    )
    assert exact == full and not exact.budget_exhausted
    short = net.build_joint().verify_requirements(
        random.Random(3), gambles_per_slot=2, max_checks=n - 1
    )
    assert short.budget_exhausted and short.irrelevance_checked == n - 1


def test_subset_cap_beyond_all_subsets_terminates():
    # every node of five unconnected ones has four non-parent-non-
    # descendants: 16 subsets, fewer than the cap asks for
    names = "abcde"
    net = CredalNet(Dag(names), [binary(n) for n in names])
    report = net.build_joint().verify_requirements(
        random.Random(1), gambles_per_slot=0, subset_cap=100, max_checks=1
    )
    assert report.irrelevance_checked == 1 and report.budget_exhausted


def test_budget_bounds_the_sweep_draws(monkeypatch):
    # the first check of two unconnected binary nodes uses a local
    # generator, so no random gamble of the slot is drawn before it
    net = CredalNet(Dag("ab"), [binary("a"), binary("b")])
    draws = []

    def counted(rng, space):
        draws.append(space)
        return sample_gamble(rng, space)

    monkeypatch.setattr("credalcones.net.sample_gamble", counted)
    report = net.build_joint().verify_requirements(
        random.Random(1), gambles_per_slot=5000, max_checks=1
    )
    assert report.irrelevance_checked == 1 and report.budget_exhausted
    assert draws == []


def _reference_sweep(joint, seed, gambles_per_slot, max_checks):
    """verify_requirements' report, and the rng's next random() after it,
    with one check_irrelevance per flattened (node, parent configuration,
    observation, gamble) in sweep order and the budget taken by islice."""
    head = joint.verify_requirements(random.Random(seed), gambles_per_slot, max_checks=0)
    rng = random.Random(seed)
    for _ in joint._negatives(rng, gambles_per_slot):
        pass
    net = joint.net
    checks = (
        (s, net.parent_space(s).config_at(p_idx), given, f)
        for s, p_idx, f, observations in joint._irrelevance_slots(rng, gambles_per_slot, 8)
        for given in observations
    )
    violations = [v for v in head.violations if v.kind != "irrelevance-mismatch"]
    checked = 0
    for s, p_cfg, given, f in islice(checks, max_checks):
        check = joint.check_irrelevance(s, p_cfg, given, f)
        checked += 1
        if not check.agree:
            violations.append(
                Violation(
                    kind="irrelevance-mismatch",
                    node=s,
                    parent_values=p_cfg.values,
                    irrelevant=given.nodes,
                    given_values=given.values,
                    gamble=f.table,
                    local_member=check.local_member,
                    joint_member=check.joint_member,
                )
            )
    exhausted = max_checks is not None and next(checks, None) is not None
    report = replace(
        head,
        irrelevance_checked=checked,
        violations=tuple(violations),
        budget_exhausted=exhausted,
    )
    return report, rng.random()


def _opposed_slots_net():
    """b's two parent configurations assess opposite gambles, so a gamble
    that is desirable given a0 is not given a1; c has no edge."""
    a, b, c = binary("a"), binary("b"), binary("c")
    g = Gamble(Space([b]), (1, -1))
    dag = Dag(["a", "b", "c"], [("a", "b")])
    return CredalNet(dag, [a, b, c], {"b": [[g], [-g]]})


# a flipped model answers most checks by the joint LP, so its networks are
# those whose sweeps are short
@pytest.mark.parametrize(
    "flipped, seeds", [(False, range(7)), (True, (0, 1, 2, 3, 4, 7, 9))], ids=["clean", "flipped"]
)
def test_grouped_sweep_matches_one_check_per_observation(flipped, seeds):
    # every budget from none at all to one past the whole sweep, so some
    # stop inside a slot gamble's observations and some between two
    sampled = [sample_credal_net(random.Random(s), max_nodes=3) for s in seeds]
    nets = [_opposed_slots_net(), *sampled]
    inside = mismatches = 0
    for seed, net in enumerate(nets):
        flip = None
        if flipped:
            rng = random.Random(seed)
            node = rng.choice(net.dag.nodes)
            p = rng.randrange(net.parent_space(node).size)
            flip = (node, p, rng.randrange(len(net.local_cone(node, p).generators)))
        joint = net.build_joint(mutate_flip=flip)
        full, _ = _reference_sweep(joint, seed, 2, None)
        total = full.irrelevance_checked
        mismatches += sum(v.kind == "irrelevance-mismatch" for v in full.violations)
        for budget in [None, *range(total + 2)]:
            rng = random.Random(seed)
            report = joint.verify_requirements(rng, gambles_per_slot=2, max_checks=budget)
            assert (report, rng.random()) == _reference_sweep(joint, seed, 2, budget)
        # with at most 3 nodes every subset is swept, whatever the rng
        sizes = [len(obs) for *_, obs in joint._irrelevance_slots(random.Random(seed), 2, 8)]
        inside += len(set(range(total)) - set(accumulate(sizes, initial=0)))
    assert inside > 0
    assert (mismatches > 0) == flipped


def test_sweep_decides_each_slot_gamble_locally_once(monkeypatch):
    # three unconnected binary nodes: each gamble of a slot is checked
    # under 9 observations of the other two nodes
    net = CredalNet(Dag("abc"), [binary(n) for n in "abc"])
    joint = net.build_joint()
    calls = []
    member = AssessmentCone.member_with_certificate

    def counted(cone, f):
        calls.append(f)
        return member(cone, f)

    monkeypatch.setattr(AssessmentCone, "member_with_certificate", counted)
    report = joint.verify_requirements(random.Random(2), gambles_per_slot=2)
    assert report.ok
    assert len(calls) < report.irrelevance_checked


@pytest.mark.parametrize("name", ["gambles_per_slot", "subset_cap", "max_checks"])
@pytest.mark.parametrize("value", [-1, 1.5, "3", True])
def test_verify_requirements_rejects_bad_counts_before_any_work(monkeypatch, name, value):
    joint = chain_net(assess_a=True).build_joint()

    def no_work():
        raise AssertionError("the sweep started")

    monkeypatch.setattr(joint, "contains_zero", no_work)
    with pytest.raises(ValueError, match=name):
        joint.verify_requirements(random.Random(1), **{name: value})


def test_mutated_joint_is_detected():
    net = chain_net(assess_a=True)
    # flip the products of a's assessed gamble (node a, parent cfg 0, local 0)
    joint = net.build_joint(mutate_flip=("a", 0, 0))
    report = joint.verify_requirements(random.Random(5), gambles_per_slot=2)
    assert not report.ok
    mismatches = [v for v in report.violations if v.kind == "irrelevance-mismatch"]
    assert mismatches
    assert any(v.node == "a" for v in mismatches)


def test_mutating_an_atom_is_detected_too():
    net = chain_net(assess_a=False)
    # node b, parent cfg 1, atom 0
    joint = net.build_joint(mutate_flip=("b", 1, 0))
    report = joint.verify_requirements(random.Random(6), gambles_per_slot=2)
    assert not report.ok


def test_mutation_validation():
    net = chain_net()
    with pytest.raises(NetworkError):
        net.build_joint(mutate_flip=("z", 0, 0))
    with pytest.raises(NetworkError):
        net.build_joint(mutate_flip=("a", 5, 0))
    with pytest.raises(NetworkError):
        net.build_joint(mutate_flip=("a", 0, 9))


def test_joint_previsions_on_chain():
    net = chain_net(assess_a=True)
    joint = net.build_joint()
    f = Gamble(net.node_space("a"), (1, -1))
    low = joint.lower_prevision(f)
    up = joint.upper_prevision(f)
    assert low == 0  # assessed, so desirable at level 0
    assert up == 1
    assert joint.lower_prevision(Gamble.constant(net.joint_space, F(5, 2))) == F(5, 2)


def test_sampler_reproducibility():
    n1 = sample_credal_net(random.Random(123))
    n2 = sample_credal_net(random.Random(123))
    assert n1.dag.edges == n2.dag.edges
    assert [v.values for v in n1.variables.values()] == [
        v.values for v in n2.variables.values()
    ]
    k1 = {k: tuple(g.table for g in v) for k, v in n1.assessments.items()}
    k2 = {k: tuple(g.table for g in v) for k, v in n2.assessments.items()}
    assert k1 == k2
    j1, j2 = n1.build_joint(), n2.build_joint()
    assert generator_tables(j1) == generator_tables(j2)


def test_product_separator_scoring_one_generator_negative_is_refused():
    a, b = binary("a"), binary("b")
    sp_b = Space([b])
    assessments = {"b": [[Gamble(sp_b, (1, -1))], []]}
    net = CredalNet(Dag(["a", "b"], [("a", "b")]), [a, b], assessments)
    p_cfg = net.parent_space("b").config_at(0)
    given = net.nnd_space("b").config_at(0)
    # not in b's local cone at a = a0, yet of positive canonical expectation
    f = Gamble(net.node_space("b"), (-1, 3))
    clean = net.build_joint().member_with_certificate(f, given=p_cfg.combine(given))
    assert not clean.member and clean.route == "product-separator"
    y = clean.separator
    # flipping a's atom at a0 leaves the product mass as it was, and that
    # mass now scores exactly one joint generator negative
    joint = net.build_joint(mutate_flip=("a", 0, 0))
    scores = [dot(y, t) for t in generator_tables(joint)]
    assert sum(s < 0 for s in scores) == 1
    res = joint.member_with_certificate(f, given=p_cfg.combine(given))
    assert res.route == "exact-lp"
    # -indicator(a0) is now a generator, so the target is a member
    tables = generator_tables(joint)
    total = [sum((c * tables[k][j] for k, c in fractions(res.witness)), F(0)) for j in range(4)]
    assert res.member and total == [F(-1), F(3), F(0), F(0)]


def test_a_separator_scoring_a_duplicated_column_negative_is_refused():
    # the assessment (1, 0) on b at a0 is b's first atom again, so each of
    # its joint generators has a twin; only one of the two is scored
    a, b = binary("a"), binary("b")
    sp_b = Space([b])
    net = CredalNet(Dag(["a", "b"], [("a", "b")]), [a, b], {"b": [[Gamble(sp_b, (1, 0))], []]})
    joint = net.build_joint()
    columns, owners = joint.generators, joint._owners()
    twin = next(k for k in range(len(columns)) if k not in owners)
    assert columns.count(columns[twin]) == 2
    # y scores that column, at (a0, b0), -1 and every other column >= 0
    (j, _), = columns[twin][0]
    y = [1] * joint.space.size
    y[j] = -1
    assert [_score(y, c) < 0 for c in columns].count(True) == 2
    assert not joint._separates_all_generators(y)
    y[j] = 1
    assert joint._separates_all_generators(y)


def test_mutated_joint_lp_path_is_caught():
    net = single_node_net()
    # negate the assessed gamble (1, -1): the joint cone no longer holds it
    joint = net.build_joint(mutate_flip=("a", 0, 0))
    f = Gamble(net.node_space("a"), (1, -1))
    empty = net.parent_space("a").config_at(0)
    res = joint.member_with_certificate(f, given=empty.combine(empty))
    # the lifted local witness fails against the flipped generator, and the
    # LP's separator verifies against the generators as they are
    assert not res.member and res.route == "exact-lp"
    tables = generator_tables(joint)
    assert all(dot(res.separator, t) >= 0 for t in tables)
    assert dot(res.separator, f.table) < 0
    report = joint.verify_requirements(random.Random(3), gambles_per_slot=2)
    assert any(
        v.kind == "irrelevance-mismatch" and v.node == "a" and v.local_member
        for v in report.violations
    )


# -- chain recursion ------------------------------------------------------------


def coherent_gambles(rng, space, want):
    """Up to `want` random gambles, each redrawn until the set stays coherent."""
    chosen = []
    for _ in range(want):
        for _ in range(10):
            candidate = chosen + [sample_gamble(rng, space)]
            if AssessmentCone(space, candidate).is_coherent():
                chosen = candidate
                break
    return chosen


def sample_chain(rng, n, k):
    """A chain of n k-valued nodes with 0-2 assessments per slot; the node
    names are shuffled so that the path order is not the sorted order."""
    return sample_mixed_chain(rng, [k] * n)


def sample_mixed_chain(rng, widths):
    """A chain whose i-th node along the path has widths[i] values, drawn
    as sample_chain draws its nodes."""
    names = [f"x{i}" for i in range(len(widths))]
    rng.shuffle(names)
    variables = [VariableSpace(x, tuple(f"v{d}" for d in range(k))) for x, k in zip(names, widths)]
    assessments = {
        x: [
            coherent_gambles(rng, Space([var]), rng.randint(0, 2))
            for _ in range(1 if i == 0 else widths[i - 1])
        ]
        for i, (x, var) in enumerate(zip(names, variables))
    }
    return CredalNet(Dag(names, list(zip(names, names[1:]))), variables, assessments)


def local_cones(net):
    return [net.local_cone(s, p) for s in net.dag.nodes for p in range(net.parent_space(s).size)]


def same_net(net):
    """A new network with net's graph, variables and assessments: the same
    answers, and local cones of its own."""
    assessments = {
        s: [net.assessments[(s, p)] for p in range(net.parent_space(s).size)]
        for s in net.dag.nodes
    }
    return CredalNet(net.dag, net.variables.values(), assessments)


def chain_gambles(rng, net, count):
    """Alternately a gamble on one node and one on the whole joint space."""
    for i in range(count):
        if i % 2:
            yield sample_gamble(rng, net.joint_space)
        else:
            yield sample_gamble(rng, net.node_space(rng.choice(net.dag.nodes)))


def slot_generator(joint, s, p_idx, n, k):
    """The joint generator of local generator k in slot (p_idx, n) of node
    s, read off the generator list: the generators of (s, p_idx) come
    non-parent-non-descendant index by index, one per local generator."""
    own = [g for g, origin in enumerate(generator_origins(joint)) if origin == (s, p_idx)]
    return own[n * len(joint.net.local_cone(s, p_idx).generators) + k]


def refuse(*args):
    raise AssertionError("the chain recursion fell back to the joint LP")


def test_dag_path_order():
    assert Dag("cab", [("c", "a"), ("a", "b")]).path() == ("c", "a", "b")
    assert Dag(["a"]).path() == ("a",)
    assert Dag("ab").path() is None  # two nodes, not connected
    assert Dag("abc", [("a", "b"), ("a", "c")]).path() is None
    assert Dag("abc", [("a", "c"), ("b", "c")]).path() is None
    assert Dag("abc", [("a", "b"), ("b", "c"), ("a", "c")]).path() is None


def test_chain_recursion_equals_the_joint_lp_and_never_falls_back(monkeypatch):
    rng = random.Random(2017)
    shapes = [(2,) * n for n in range(1, 7)] + [(3,) * n for n in range(1, 5)]
    # nodes of 2, 3 and 4 values on one path come last, so that the
    # uniform chains keep their draws
    shapes += [(2, 3, 4), (4, 3, 2), (3, 2, 4, 2), (2, 4, 2, 3)]
    for widths in shapes:
        net = sample_mixed_chain(rng, widths)
        joint = net.build_joint()
        columns, _ = joint._dedup_columns()
        tables = generator_tables(joint)
        for f in chain_gambles(rng, net, 3):
            table = f.extend(net.joint_space).table
            lower = lp_lower_prevision(table, columns)
            upper = -lp_lower_prevision([-v for v in table], columns)
            member = conic_membership(_over_lcm(table), columns).member

            with monkeypatch.context() as patch:
                patch.setattr("credalcones.net.JointModel._dedup_columns", refuse)
                patch.setattr("credalcones.net.conic_membership", refuse)
                m, primal, kernels = joint._chain_certificates(_int_vector(enumerate(table)))
                assert (joint.lower_prevision(f), joint.upper_prevision(f)) == (lower, upper)
                res = joint._chain_membership(_int_vector(enumerate(table)))
                generic = joint.member_with_certificate(f)
            assert m == lower
            # the lifted primal combines to f - m, the chained dual is a mass
            # function of expectation m scoring every generator nonnegative
            assert is_witness(tables, [v - m for v in table], primal)
            mass, den = joint._product_mass(lambda s, p, n: kernels[(s, p, n)])
            assert sum(mass) == den and dot(mass, table) == m * den
            assert all(dot(mass, t) >= 0 for t in tables)
            assert res.route == "chain-recursion" and res.member == member
            assert generic.member == member
            if member:
                assert is_witness(tables, table, res.witness)
            else:
                assert is_separator(tables, table, res.separator)


def test_chain_recursion_on_mutated_chains_answers_as_the_lp():
    rng = random.Random(4242)
    picks = random.Random(4243)  # structured queries; rng's draws stay as they were
    verified = []
    tails = set()
    shapes = [(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (3, 3, 3)]
    for widths in shapes + [(2, 3, 4), (3, 2, 4, 2), (4, 3, 2)]:
        net = sample_mixed_chain(rng, widths)
        s = rng.choice(net.dag.nodes)
        p_idx = rng.randrange(net.parent_space(s).size)
        k_idx = rng.randrange(len(net.local_cone(s, p_idx).generators))
        joint = net.build_joint(mutate_flip=(s, p_idx, k_idx))
        columns, _ = joint._dedup_columns()
        tables = generator_tables(joint)
        for f in chain_gambles(rng, net, 4):
            table = f.extend(net.joint_space).table
            verified.append(joint._chain_certificates(_int_vector(enumerate(table))) is not None)
            try:
                lower = lp_lower_prevision(table, columns)
            except LpError as err:
                # a flipped atom can leave the tampered cone incoherent
                with pytest.raises(LpError, match=re.escape(str(err))):
                    joint.lower_prevision(f)
            else:
                assert joint.lower_prevision(f) == lower
            res = joint.member_with_certificate(f)
            assert res.member == conic_membership(_over_lcm(table), columns).member
            if res.member:
                assert is_witness(tables, table, res.witness)
            else:
                assert is_separator(tables, table, res.separator)
            tails.add(res.route)
        # structured queries share the tail: the joint LP
        for s in net.dag.nodes * 3:
            p_space = net.parent_space(s)
            p_cfg = p_space.config_at(picks.randrange(p_space.size))
            nnd = net.dag.non_parent_non_descendants(s)
            irrelevant = tuple(x for x in nnd if picks.random() < 0.5)
            i_space = Space(net.variables[x] for x in irrelevant)
            given = i_space.config_at(picks.randrange(i_space.size))
            f = sample_gamble(picks, net.node_space(s))
            target = indicator(p_cfg.combine(given), net.joint_space) * f.extend(net.joint_space)
            res = joint.member_with_certificate(f, given=p_cfg.combine(given))
            assert res.member == conic_membership(_over_lcm(target.table), columns).member
            if res.member:
                assert is_witness(tables, target.table, res.witness)
            else:
                assert is_separator(tables, target.table, res.separator)
            tails.add(res.route)
    # a tampered model takes no chain route: the joint LP answers what the
    # quick and structured routes leave
    assert verified and not any(verified)
    assert "exact-lp" in tails and "chain-recursion" not in tails, tails


def joint_checks(joint, table, m, primal, kernels):
    """The joint checks of a chain answer, kept as the reference for the
    local ones: the lifted primal combines the generators to table - m,
    and the chained mass (dense.product_mass of the kernels) sums to 1,
    gives the table the expectation m and scores every generator
    nonnegative."""
    columns = joint.generators
    shifted = _int_vector((j, v - m) for j, v in enumerate(table))
    mass, den = _over_lcm(product_mass(joint, lambda s, p, n: kernels[(s, p, n)]))
    return (
        _combines(columns, primal, shifted)
        and sum(mass) == den
        and sum(y * v for y, v in zip(mass, table)) == m * den
        and all(_score(mass, column) >= 0 for column in columns)
    )


CHECKED_SHAPES = (
    [(2,) * n for n in range(1, 7)]
    + [(3,) * n for n in range(1, 5)]
    + [(2, 3, 4), (4, 3, 2), (3, 2, 4, 2), (2, 4, 2, 3)]
)


def test_local_chain_checks_accept_only_what_the_joint_checks_accept():
    # the certificates of the recursion on the reference cones are checked
    # in the local spaces and by the joint checks: a clean model accepts
    # every answer, and the joint checks accept it too; a flipped model
    # has no chain route, so it refuses every answer, those the joint
    # checks would accept on its generators among them
    rng = random.Random(2121)
    seen = Counter()
    for widths in CHECKED_SHAPES:
        for _ in range(8):
            net = sample_mixed_chain(rng, widths)
            clean = net.build_joint()
            flipped = net.build_joint(mutate_flip=random_mutation(rng, net))
            for f in chain_gambles(rng, net, 4):
                for g in (f, -f):
                    table = g.extend(net.joint_space).table
                    target = _int_vector(enumerate(table))
                    chained = clean._chain_certificates(target)
                    assert chained is not None and joint_checks(clean, table, *chained)
                    assert flipped._chain_certificates(target) is None
                    seen[("flipped", joint_checks(flipped, table, *chained))] += 1
    assert seen[("flipped", True)] and seen[("flipped", False)], seen


def test_a_chain_prevision_does_no_joint_size_work(monkeypatch):
    rng = random.Random(2122)
    cases = []
    for widths in CHECKED_SHAPES:
        net = sample_mixed_chain(rng, widths)
        joint = net.build_joint()
        columns, _ = joint._dedup_columns()
        for f in chain_gambles(rng, net, 4):
            table = f.extend(net.joint_space).table
            lower = lp_lower_prevision(table, columns)
            upper = -lp_lower_prevision([-v for v in table], columns)
            cases.append((joint, f, lower, upper))

    def joint_size(*args):
        raise AssertionError("a chain prevision did joint-size work")

    for name in ("_separates_all_generators", "_witness_matches", "_product_mass", "_owners"):
        monkeypatch.setattr(JointModel, name, joint_size)
    for joint, f, lower, upper in cases:
        assert (joint.lower_prevision(f), joint.upper_prevision(f)) == (lower, upper)
    monkeypatch.undo()

    # a one-node prevision on s_k of a 10-node binary chain reads one row
    # per parent value at each level from s_k up, at most 2k + 1 local
    # previsions, and touches no joint-size map
    net = sample_chain(rng, 10, 2)
    order = net.dag.path()
    joint = net.build_joint()
    gambles = [sample_gamble(rng, net.node_space(s)) for s in order]
    # the recursion over the whole joint space, as the reference
    expected = [joint._chain_certificates(joint._target(f))[0] for f in gambles]
    reads = []
    read, index_map = AssessmentCone.lower_prevision, Space.index_map

    def counted(cone, ints, den=1):
        reads.append(ints)
        return read(cone, ints, den)

    def small_only(space, sub):
        if space == joint.space:
            raise AssertionError("a one-node prevision built a joint index map")
        return index_map(space, sub)

    class Untouchable(dict):
        def __getitem__(self, key):
            raise AssertionError("a one-node prevision read a joint-size map")

    monkeypatch.setattr(AssessmentCone, "lower_prevision", counted)
    monkeypatch.setattr(Space, "index_map", small_only)
    monkeypatch.setattr(JointModel, "_target", joint_size)
    for name in ("_value_at", "_slot_at"):
        monkeypatch.setattr(joint, name, Untouchable())
    for k, (f, m) in enumerate(zip(gambles, expected)):
        reads.clear()
        assert joint.lower_prevision(f) == m
        assert 0 < len(reads) <= 2 * k + 1


def scoped_gambles(rng, net):
    """A gamble on one node, one on two nodes and one on every node."""
    nodes = net.dag.nodes
    for scope in ([rng.choice(nodes)], rng.sample(nodes, min(2, len(nodes))), nodes):
        yield sample_gamble(rng, Space(net.variables[x] for x in scope))


def test_scoped_chain_previsions_equal_the_joint_lp():
    # the recursion on a gamble's own scope, with the tail levels below it
    # skipped, gives the joint LP's value; a flipped model, its flip inside
    # the gamble's scope, outside it above its deepest node or in the tail
    # below it, has no chain route and gives the LP's value of the flipped
    # model, or raises the LP's own error when that value is infinite
    rng = random.Random(2124)
    seen = Counter()
    for widths in CHECKED_SHAPES:
        net = sample_mixed_chain(rng, widths)
        order = net.dag.path()
        clean = net.build_joint()
        columns, _ = clean._dedup_columns()
        for f in scoped_gambles(rng, net):
            table = f.extend(net.joint_space).table
            lower = lp_lower_prevision(table, columns)
            assert clean.lower_prevision(f) == lower
            assert clean._chain_recursion(f.space, *_over_lcm(f.table))[0] == lower
            # a membership on the same scope chains the coherence witness of
            # each skipped level into its separator, checked on every generator
            for g in (f, -f):
                g_table = g.extend(net.joint_space).table
                res = clean._chain_membership(_int_vector(enumerate(g_table)), g.space)
                assert res.member == (lp_lower_prevision(g_table, columns) >= 0)
                seen[("membership", res.member)] += 1
            deepest = max(order.index(x) for x in f.space.nodes)
            places = {
                "inside": list(f.space.nodes),
                "above": [x for x in order[:deepest] if x not in f.space.nodes],
                "tail": list(order[deepest + 1 :]),
            }
            for where, nodes in places.items():
                if not nodes:
                    continue
                s = rng.choice(nodes)
                p_idx = rng.randrange(net.parent_space(s).size)
                flip = s, p_idx, rng.randrange(len(net.local_cone(s, p_idx).generators))
                flipped = net.build_joint(mutate_flip=flip)
                assert flipped._chain_recursion(f.space, *_over_lcm(f.table)) is None
                try:
                    expected = lp_lower_prevision(table, flipped._dedup_columns()[0])
                except InfinitePrevisionError as err:
                    # a flipped atom can leave the tampered cone incoherent
                    with pytest.raises(InfinitePrevisionError, match=re.escape(str(err))):
                        flipped.lower_prevision(f)
                    seen[(where, "infinite")] += 1
                    continue
                assert flipped.lower_prevision(f) == expected
                seen[(where, "joint LP")] += 1
    for where in ("inside", "above", "tail"):
        assert seen[(where, "joint LP")], seen
    assert seen[("membership", True)] and seen[("membership", False)], seen


def flips_by_kind(net):
    """Every (node, parent index, local generator index) of a chain, by
    what it flips: an assessment, an atom of a node above the leaf, or an
    atom of the leaf."""
    leaf = net.dag.path()[-1]
    kinds = {"assessment": [], "non-leaf atom": [], "leaf atom": []}
    for s in net.dag.nodes:
        for p in range(net.parent_space(s).size):
            assessed = len(net.assessments[(s, p)])
            for k in range(len(net.local_cone(s, p).columns)):
                if k < assessed:
                    kinds["assessment"].append((s, p, k))
                else:
                    kinds["leaf atom" if s == leaf else "non-leaf atom"].append((s, p, k))
    return kinds


def test_a_flipped_chain_takes_no_chain_route():
    # a tampered chain, whatever it flips, has no chain levels: its
    # previsions are the joint LP's on its own generators, infinite ones
    # included, and its memberships are the LP's flags with certificates
    # that hold on those generators, none from the chain recursion
    rng = random.Random(2127)
    seen = Counter()
    # every joint LP is solved twice, by the model and as the reference,
    # so the chains stay at 48 joint configurations or fewer
    for widths in [w for w in CHECKED_SHAPES if prod(w) <= 48]:
        net = sample_mixed_chain(rng, widths)
        for kind, flips in flips_by_kind(net).items():
            if not flips:
                continue
            joint = net.build_joint(mutate_flip=rng.choice(flips))
            columns, _ = joint._dedup_columns()
            tables = generator_tables(joint)
            queries = []
            for f in scoped_gambles(rng, net):
                assert joint._levels(f.space) is None
                table = f.extend(net.joint_space).table
                assert joint._chain_certificates(_int_vector(enumerate(table))) is None
                try:
                    lower = lp_lower_prevision(table, columns)
                except InfinitePrevisionError as err:
                    with pytest.raises(InfinitePrevisionError, match=re.escape(str(err))):
                        joint.lower_prevision(f)
                    seen[(kind, "infinite")] += 1
                else:
                    assert joint.lower_prevision(f) == lower
                    seen[(kind, "finite")] += 1
                queries.append((f, None))
            # structured memberships: a gamble on one node, given its parent
            # value and values of some of its non-parent-non-descendants
            for s in net.dag.nodes:
                p_space = net.parent_space(s)
                nnd = net.dag.non_parent_non_descendants(s)
                i_space = Space(net.variables[x] for x in nnd if rng.random() < 0.5)
                given = p_space.config_at(rng.randrange(p_space.size)).combine(
                    i_space.config_at(rng.randrange(i_space.size))
                )
                queries.append((sample_gamble(rng, net.node_space(s)), given))
            for f, given in queries:
                target = f.extend(net.joint_space)
                if given is not None:
                    target = indicator(given, net.joint_space) * target
                res = joint.member_with_certificate(f, given=given)
                assert res.member == conic_membership(_over_lcm(target.table), columns).member
                if res.member:
                    assert is_witness(tables, target.table, res.witness)
                else:
                    assert is_separator(tables, target.table, res.separator)
                assert res.route != "chain-recursion"
                seen[res.route] += 1
    for kind in ("assessment", "non-leaf atom", "leaf atom"):
        assert seen[(kind, "finite")], seen
    # a flipped atom can leave the tampered cone incoherent
    assert seen[("non-leaf atom", "infinite")] and seen[("leaf atom", "infinite")], seen
    assert seen["exact-lp"], seen


def test_a_tableau_prevision_keeps_a_dual_with_a_negative_mass():
    # flipping the atom b0 under a0 puts -I(a0, b0) among the joint
    # generators, and the joint LP's optimal dual then has a negative
    # mass; both certificates still hold (a prevision's dual need only sum
    # to 1, give f the expectation m and score every generator
    # nonnegative), so the answer stands.  Only the chain's kernels must be
    # nonnegative: each is a local cone's dual, checked against the cone's
    # columns, its atoms among them, and a tampered model such as this one
    # takes no chain route
    a, b = binary("a"), binary("b")
    sp_b = Space([b])
    assessed = [[Gamble(sp_b, (3, 2))], [Gamble(sp_b, (1, 0)), Gamble(sp_b, (2, F(-3, 2)))]]
    net = CredalNet(Dag(["a", "b"], [("a", "b")]), [a, b], {"b": assessed})
    joint = net.build_joint(mutate_flip=("b", 0, 1))
    f = Gamble(net.joint_space, (1, -3, 0, -2))
    columns, _ = joint._dedup_columns()
    m, _, mass = _checked_prevision(f.table, columns)
    assert m == -11 and masses(mass) == (-2, 3, 0, 0)
    assert joint.lower_prevision(f) == -11


def test_slot_order_is_the_first_occurrence_order_over_the_joint_index():
    # a node's slot index is its non-descendant configuration; the
    # non-descendant space is sorted by name, as the joint space is, so
    # slot order is the order in which (parent index, non-parent-non-
    # descendant index) first occurs over the joint index, the order in
    # which product masses ask their kernels and chain levels list their
    # slots: certificates depend on it
    rng = random.Random(2626)
    nets = [sample_credal_net(rng) for _ in range(30)]
    nets += [sample_mixed_chain(rng, rng.choice(CHECKED_SHAPES)) for _ in range(10)]
    checked = 0
    for net in nets:
        for flip in (None, random_mutation(rng, net)):
            joint = net.build_joint(mutate_flip=flip)
            for s in net.dag.nodes:
                spaces = net.parent_space(s), net.nnd_space(s)
                number: dict = {}
                at = [
                    number.setdefault(key, len(number))
                    for key in zip(*[joint.space.index_map(sp) for sp in spaces])
                ]
                assert [(p, n) for p, n, _ in joint._slots[s]] == list(number)
                assert joint._slot_at[s] == at
                for p, n, first in joint._slots[s]:
                    assert first == slot_generator(joint, s, p, n, 0)
                checked += 1
    assert checked > 100


def chain_cells(levels):
    """The number of cells one recursion over these levels reads."""
    return sum(len(pos) for _, _, rows in levels for *_, pos in rows)


def test_chain_levels_hold_each_function_on_its_scope():
    # a level of s_i leaves the function on (S - {s_i}) | {s_{i-1}} for the
    # scope S it reads, one row per configuration of the scope left; each
    # row's positions are where its entries sit in the function read, so a
    # recursion over the whole joint space reads every cell of every level
    # once, and one on a smaller scope starts at the scope's deepest node
    rng = random.Random(2020)
    cases = [((2,) * 6, 64 + 32 + 16 + 8 + 4 + 2), ((2, 3, 4), 24 + 6 + 2), ((4, 2, 3, 2), 48 + 24 + 8 + 4)]
    for widths, cells in cases:
        net = sample_mixed_chain(rng, widths)
        order = net.dag.path()
        joint = net.build_joint()
        assert joint._plans == {}  # built on the first chain query
        assert chain_cells(joint._levels(net.joint_space)) == cells
        scopes = [net.joint_space, net.node_space(order[0]), net.node_space(order[-1])]
        scopes += [Space(net.variables[x] for x in rng.sample(order, 2)) for _ in range(3)]
        for scope in scopes:
            levels = joint._levels(scope)
            assert joint._levels(scope) is levels
            deepest = max(order.index(x) for x in scope.nodes)
            assert [s for s, _, _ in levels] == list(reversed(order[: deepest + 1]))
            read, held = scope, set(scope.nodes)
            for s, left, rows in levels:
                i = order.index(s)
                held = (held - {s}) | set(order[i - 1 : i])
                assert set(left.nodes) == held and len(rows) == left.size
                for r, (cone, positions) in enumerate(rows):
                    above = left.config_at(r)
                    p = net.parent_space(s).index_of(above.restrict(order[i - 1 : i]))
                    assert cone is net.local_cone(s, p)
                    assert len(positions) == widths[i]
                    for v, q in enumerate(positions):
                        here = above.as_dict() | {s: net.variables[s].values[v]}
                        assert read.config_at(q).as_dict() == {x: here[x] for x in read.nodes}
                read = left
            assert read.size == 1  # the root leaves the empty scope
    # a one-node scope reads one row per parent value at each level
    net = sample_chain(rng, 10, 2)
    order = net.dag.path()
    joint = net.build_joint()
    for k, s in enumerate(order):
        levels = joint._levels(net.node_space(s))
        assert [len(rows) for _, _, rows in levels] == [2] * k + [1]
        assert chain_cells(levels) == 2 * (2 * k + 1)
    # a flipped model has no levels, whichever scope it is asked on
    flipped = net.build_joint(mutate_flip=(order[7], 1, 0))
    for scope in (net.node_space(order[2]), net.node_space(order[7]), net.joint_space):
        assert flipped._levels(scope) is None
    assert flipped._plans == {}
    fork = CredalNet(Dag("abc", [("a", "b"), ("a", "c")]), [binary(x) for x in "abc"])
    assert fork.build_joint()._levels(fork.joint_space) is None


def test_fork_recursion_is_only_a_lower_bound_and_the_joint_lp_answers(monkeypatch):
    # a -> b, a -> c: eliminating the children one after the other, in
    # either order, can fall strictly below the joint lower prevision
    rng = random.Random(2)
    a, b, c = binary("a"), binary("b"), binary("c")

    def iterated(net, table, first, second):
        def low(node, p_idx, row):
            gens = [g.table for g in net.local_cone(node, p_idx).generators]
            return lp_lower_prevision(row, int_columns(gens))

        def at(x, y, z):  # the table at a = x, first = y, second = z
            where = {"a": x, first: y, second: z}
            return table[4 * where["a"] + 2 * where["b"] + where["c"]]

        inner = [
            low(first, x, [low(second, x, [at(x, y, z) for z in (0, 1)]) for y in (0, 1)])
            for x in (0, 1)
        ]
        return low("a", 0, inner)

    for _ in range(200):
        assessments = {
            "a": [coherent_gambles(rng, Space([a]), rng.randint(0, 2))],
            "b": [coherent_gambles(rng, Space([b]), rng.randint(0, 2)) for _ in range(2)],
            "c": [coherent_gambles(rng, Space([c]), rng.randint(0, 2)) for _ in range(2)],
        }
        net = CredalNet(Dag("abc", [("a", "b"), ("a", "c")]), [a, b, c], assessments)
        joint = net.build_joint()
        columns, _ = joint._dedup_columns()
        f = sample_gamble(rng, net.joint_space)
        exact = lp_lower_prevision(f.table, columns)
        if max(iterated(net, f.table, "b", "c"), iterated(net, f.table, "c", "b")) < exact:
            break
    else:
        pytest.fail("no fork gamble separates the iterated values from the joint LP")

    calls = []

    def spy(target, cols):
        calls.append(len(cols))
        return _checked_prevision(target, cols)

    def local_lp(*args):
        raise AssertionError("the chain recursion ran on a fork")

    monkeypatch.setattr("credalcones.net._checked_prevision", spy)
    monkeypatch.setattr(AssessmentCone, "lower_prevision", local_lp)
    assert net.dag.path() is None
    assert joint.lower_prevision(f) == exact
    assert calls == [len(columns)]


# -- local previsions from cached bases ---------------------------------------


def assert_local_prevision(cone, table, answer):
    """answer is the lower prevision of table in the cone, as a cold solve
    finds it, with a primal that combines the generators to table - m and a
    mass function of expectation m that scores every generator
    nonnegative."""
    m, primal, dual = answer
    tables, mass = [g.table for g in cone.generators], masses(dual)
    assert m == lp_lower_prevision(table, cone.columns)
    assert is_witness(tables, [v - m for v in table], primal)
    assert sum(mass) == 1 and dot(mass, table) == m
    assert all(dot(mass, t) >= 0 for t in tables)


def random_local_cone(rng):
    """A coherent cone on 2-4 values with 0-3 assessments."""
    k = rng.randint(2, 4)
    space = Space([VariableSpace("a", tuple(f"v{i}" for i in range(k)))])
    return AssessmentCone(space, coherent_gambles(rng, space, rng.randint(0, 3)))


def walk_from_atoms(cone, table):
    """The answer and final basis of the walk from the cone's atoms basis."""
    target = _over_lcm(table)
    start = _atoms_basis(target[0], len(cone.assessments))
    return _prevision_at_basis(start, target, cone.columns)


def test_local_prevision_at_a_cached_basis_equals_a_cold_solve():
    # a basis walked to from the atoms basis answers a new table without a
    # pivot when B^-1 table is nonnegative on its generators; otherwise
    # dual pivots from it reach the table's optimal basis
    rng = random.Random(1729)
    answered = refused = 0
    for _ in range(60):
        cone = random_local_cone(rng)
        columns = cone.columns
        first = sample_gamble(rng, cone.space).table
        answer, basis = walk_from_atoms(cone, first)
        # the atoms are generators, so the walk always ends at an optimum
        assert answer[0] == _checked_prevision(first, columns)[0]
        assert _prevision_at_basis(basis, _over_lcm(first), columns) == (answer, basis)
        mass = _certified_mass(basis, columns)
        for _ in range(8):
            table = sample_gamble(rng, cone.space).table
            found = _answer_at(basis, mass, _over_lcm(table))
            if found is None:
                refused += 1
                found = _prevision_at_basis(basis, _over_lcm(table), columns)[0]
            else:
                answered += 1
                # the walk from an optimal basis takes no pivot
                walked = _prevision_at_basis(basis, _over_lcm(table), columns)
                assert walked[1] is basis and walked[0] == found
            assert_local_prevision(cone, table, found)
    assert answered > 100 and refused > 100, (answered, refused)


def dense_table(rng, size):
    return tuple(F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in range(size))


def test_a_corrupted_basis_never_answers():
    # changing any entry of B^-1 breaks B^-1 B = den I, so the basis check
    # refuses it, and a walk from it gives up or raises at the basis it
    # ends at, whose inverse carries the corruption; it never answers
    rng = random.Random(1730)
    corrupted = 0
    walked = Counter()
    for _ in range(30):
        cone = random_local_cone(rng)
        columns = cone.columns
        table = dense_table(rng, cone.space.size)
        target = _over_lcm(table)
        (m, _, _), basis = walk_from_atoms(cone, table)
        assert _prevision_at_basis(basis, target, columns)[0][0] == m
        for i, row in enumerate(basis.inverse):
            for j in range(len(row)):
                inverse = [list(r) for r in basis.inverse]
                inverse[i][j] += 1
                bad = replace(basis, inverse=tuple(map(tuple, inverse)))
                with pytest.raises(LpError):
                    _certified_mass(bad, columns)
                corrupted += 1
                other = dense_table(rng, cone.space.size)
                try:
                    found = _prevision_at_basis(bad, _over_lcm(other), columns)
                except LpError:
                    walked["raised"] += 1
                    continue
                if found is None:
                    walked["gave up"] += 1
                else:
                    walked["answered"] += 1
    assert corrupted > 200
    assert walked["answered"] == 0 and walked["raised"] and walked["gave up"], walked


def test_a_certified_basis_answers_without_a_fresh_check(monkeypatch):
    # a cone certifies each basis it walks to once, against its own
    # columns; every later read at that basis runs no per-answer check
    # (no _combines or _prevision_fault)
    rng = random.Random(1734)
    seen, certified = Counter(), Counter()
    certify = lp._certified_mass

    def counted(name, check):
        def spy(*args):
            seen[name] += 1
            return check(*args)

        return spy

    def certify_spy(basis, columns):
        certified[basis] += 1
        return certify(basis, columns)

    def walk_spy(basis, target, columns):
        found = _prevision_at_basis(basis, target, columns)
        seen["walked"] += found is not None
        return found

    def read_spy(basis, mass, target):
        answer = _answer_at(basis, mass, target)
        seen["read at a certified basis"] += answer is not None
        return answer

    cones = [random_local_cone(rng) for _ in range(40)]
    cones += [c for n, k in ((4, 2), (3, 3)) for c in local_cones(sample_chain(rng, n, k))]
    checks = ("_combines", "_prevision_fault")
    for name in checks:
        monkeypatch.setattr(f"credalcones.lp.{name}", counted(name, getattr(lp, name)))
    monkeypatch.setattr("credalcones.lp._certified_mass", certify_spy)
    monkeypatch.setattr("credalcones.cone._answer_at", read_spy)
    monkeypatch.setattr("credalcones.cone._prevision_at_basis", walk_spy)
    for cone in cones:
        for _ in range(12):
            table = sample_gamble(rng, cone.space).table
            answer = cone.lower_prevision(*_over_lcm(table))
            assert all(seen[name] == 0 for name in checks), seen
            assert_local_prevision(cone, table, answer)
            for name in checks:
                del seen[name]
    # one certification per basis walked to, none per read at a cached one
    # (the rest of the questions are memo hits)
    assert sum(certified.values()) == seen["walked"] < seen["read at a certified basis"] / 2, seen



def test_the_basis_cache_holds_only_certified_bases(monkeypatch):
    # a cone's cache of bases is its record of trust: after seeded
    # questions, every cached basis passes the basis check against the
    # cone's own columns and is stored with exactly the dual that check
    # returns, the cache holds at most _BASIS_LIMIT bases, and each basis
    # that joined it was certified exactly once, on joining
    rng = random.Random(1735)
    certify, calls, joined, left = lp._certified_mass, [], Counter(), 0

    def certify_spy(basis, columns):
        calls.append(basis)
        return certify(basis, columns)

    cones = [random_local_cone(rng) for _ in range(40)]
    cones += [c for n, k in ((4, 2), (3, 3)) for c in local_cones(sample_chain(rng, n, k))]
    monkeypatch.setattr("credalcones.lp._certified_mass", certify_spy)
    for cone in cones:
        for _ in range(12):
            before = set(cone._bases)
            calls.clear()
            cone.lower_prevision(*_over_lcm(sample_gamble(rng, cone.space).table))
            new = [basis for basis in cone._bases if basis not in before]
            assert calls == new and len(cone._bases) <= _BASIS_LIMIT
            joined[len(new)] += 1
            left += len(before.difference(cone._bases))
    monkeypatch.undo()
    for cone in cones:
        for basis, mass in cone._bases.items():
            assert certify(basis, cone.columns) == mass
    # both kinds of question occur, ones a basis joined at and the rest,
    # and some full caches let their least recently used basis go
    assert joined[1] > 100 and joined[0] > 100 and set(joined) == {0, 1}, joined
    assert left > 0


def test_the_prevision_walk_equals_a_cold_solve(monkeypatch):
    # random local cones on 2-6 values with 0-5 assessments, some of them
    # repeated or scaled, asked tables that tie at their minimum as well as
    # random ones: the cone's answer (a cached basis or a walk) has the cold
    # solve's m and verified certificates, and only an unbounded walk (an
    # incoherent cone) reaches the tableau, to raise as the cold solve does
    rng = random.Random(1733)
    cold = []

    def spy(target, columns):
        cold.append(target)
        return _checked_prevision(target, columns)

    monkeypatch.setattr("credalcones.cone._checked_prevision", spy)
    seen = Counter()
    for _ in range(300):
        k = rng.randint(2, 6)
        space = Space([VariableSpace("a", tuple(f"v{i}" for i in range(k)))])
        gambles = [sample_gamble(rng, space) for _ in range(rng.randint(0, 5))]
        if gambles and rng.random() < 0.5:
            g = rng.choice(gambles)
            gambles.insert(rng.randrange(len(gambles) + 1), rng.choice([g, g * F(3, 2)]))
        cone = AssessmentCone(space, gambles[:5])
        for _ in range(6):
            table = list(sample_gamble(rng, space).table)
            if rng.random() < 0.5:
                low = min(table)
                for j in rng.sample(range(k), rng.randint(2, k)):
                    table[j] = low
            try:
                expected = _checked_prevision(table, cone.columns)
            except InfinitePrevisionError as err:
                cold.clear()
                with pytest.raises(InfinitePrevisionError) as raised:
                    cone.lower_prevision(*_over_lcm(table))
                assert str(raised.value) == str(err) and cold == [table]
                seen["infinite"] += 1
                continue
            cold.clear()
            answer = cone.lower_prevision(*_over_lcm(table))
            assert cold == [] and answer[0] == expected[0]
            assert_local_prevision(cone, table, answer)
            seen["coherent" if cone.is_coherent() else "incoherent, finite"] += 1
    assert min(seen.values()) > 30, seen


def test_chain_local_previsions_from_cached_bases_equal_a_cold_solve(monkeypatch):
    rng = random.Random(1732)
    seen = Counter()

    def basis_spy(basis, target, columns):
        found = _prevision_at_basis(basis, target, columns)
        if basis in cones[id(columns)]._bases:
            # no cached basis was optimal: dual pivots from the front one,
            # at least one per generator that entered
            seen["dual walks"] += 1
            seen["dual pivots"] += len(set(found[1].basic) - set(basis.basic))
        else:
            seen["atoms walks"] += 1
        return found

    def certified_spy(basis, mass, target):
        # a read at a basis the cone has already certified
        answer = _answer_at(basis, mass, target)
        seen["reused"] += answer is not None
        return answer

    def cold_spy(target, columns):
        raise AssertionError("a coherent local cone solved a prevision LP on the tableau")

    monkeypatch.setattr("credalcones.cone._prevision_at_basis", basis_spy)
    monkeypatch.setattr("credalcones.cone._answer_at", certified_spy)
    monkeypatch.setattr("credalcones.cone._checked_prevision", cold_spy)
    shapes = [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 5)]
    for n, k in shapes:
        # two clean chains per shape, so that the floors below hold on
        # clean draws alone
        for _ in range(2):
            net = sample_chain(rng, n, k)
            cones = {id(cone.columns): cone for cone in local_cones(net)}
            joint = net.build_joint()
            for f in chain_gambles(rng, net, 4):
                table = f.extend(net.joint_space).table
                joint._chain_certificates(_int_vector(enumerate(table)))
                joint._chain_certificates(_int_vector((j, -v) for j, v in enumerate(table)))
            for cone in cones.values():
                for (*ints, den), answer in cone._previsions.items():
                    assert_local_prevision(cone, [F(n, den) for n in ints], answer)
        # a flipped model, on a net of its own, takes no chain route, so it
        # asks its cones for no local prevision
        flipped = same_net(net).build_joint(mutate_flip=random_mutation(rng, net))
        for f in chain_gambles(rng, net, 4):
            assert flipped._chain_certificates(flipped._target(f)) is None
        assert not any(cone._previsions for cone in local_cones(flipped.net))
    assert seen["reused"] > 1000 and seen["dual walks"] > 100, seen
    assert seen["dual pivots"] >= seen["dual walks"], seen


def test_joint_models_sharing_a_net_answer_as_on_nets_of_their_own():
    # local memos and bases live on the net's cones, so a clean and a
    # flipped joint model built on one net, in either order, share them;
    # each must answer as a model built on a net of its own
    rng = random.Random(1616)
    for trial in range(12):
        if trial % 2:
            net = sample_chain(rng, rng.randint(2, 4), rng.randint(2, 3))
        else:
            net = sample_credal_net(rng, max_nodes=3)
        flip = random_mutation(rng, net)
        checks, joint_gambles = [], []
        for _ in range(6):
            s = rng.choice(net.dag.nodes)
            p_cfg = net.parent_space(s).config_at(rng.randrange(net.parent_space(s).size))
            nnd = net.nnd_space(s)
            given = nnd.config_at(rng.randrange(nnd.size))
            checks.append((s, p_cfg, given, sample_gamble(rng, net.node_space(s))))
            joint_gambles.append(sample_gamble(rng, net.joint_space))

        def answers(joint):
            out = [joint.check_irrelevance(*check) for check in checks]
            out = [(check.local_member, check.joint_member) for check in out]
            for f in joint_gambles[:3]:
                out.append(joint.member_with_certificate(f).member)
                try:
                    out.append(joint.lower_prevision(f))
                except LpError as err:  # a flipped model may be incoherent
                    out.append(str(err))
            return out

        alone = {m: answers(same_net(net).build_joint(mutate_flip=m)) for m in (None, flip)}
        assert all(local == joint for local, joint in alone[None][:len(checks)])
        for order in ((None, flip), (flip, None)):
            shared = same_net(net)
            for m in order:
                assert answers(shared.build_joint(mutate_flip=m)) == alone[m]


def test_a_local_cached_separator_lifts_to_the_canonical_witness():
    # a local non-member that the cone's coherence witness separates (route
    # cached-separator) makes that witness the kernel of its product
    # separator, which is then the canonical witness: a clean model's quick
    # routes answer with it first, and a flipped model's flipped generator
    # scores it negative, so the structured route never builds it
    rng = random.Random(1717)
    seen = {"clean": 0, "flipped": 0}
    for _ in range(20):
        net = sample_credal_net(rng)
        for flip in (None, random_mutation(rng, net)):
            joint = net.build_joint(mutate_flip=flip)
            for s in net.dag.nodes:
                for p_idx in range(net.parent_space(s).size):
                    cone = net.local_cone(s, p_idx)
                    for _ in range(4):
                        f = sample_gamble(rng, cone.space)
                        local = cone.member_with_certificate(f)
                        if local.route != "cached-separator":
                            continue
                        lifted = joint._product_separator(s, p_idx, local.separator)
                        if flip is None:
                            assert lifted == _primitive(joint._canonical[0])
                            res = joint.structured_member(s, p_idx, None, f)
                            assert res.route == "cached-separator"
                            assert res.separator == _primitive(joint._canonical[0])
                            seen["clean"] += 1
                        else:
                            assert lifted is None and joint._canonical is None
                            seen["flipped"] += 1
    assert seen["clean"] > 50 and seen["flipped"] > 50, seen


def test_observed_indices_match_the_uncached_computation():
    # the structured route's joint indices of (node, parent index,
    # observation), cached per model, against a scan of every joint
    # configuration; observations on every subset of non-parent-non-
    # descendants, alone and merged with the parents as
    # member_with_certificate passes them, on clean and flipped models
    rng = random.Random(1515)
    checked = 0
    for trial in range(20):
        net = sample_credal_net(rng)
        flip = None
        if trial % 2:
            node = rng.choice(net.dag.nodes)
            p_idx = rng.randrange(net.parent_space(node).size)
            flip = (node, p_idx, rng.randrange(len(net.local_cone(node, p_idx).generators)))
        joint = net.build_joint(mutate_flip=flip)
        space = net.joint_space
        for s in net.dag.nodes:
            nnd = net.nnd_space(s).nodes
            p_at = space.index_map(net.parent_space(s))
            for p_idx in range(net.parent_space(s).size):
                parent = net.parent_space(s).config_at(p_idx)
                for k in range(len(nnd) + 1):
                    for subset in combinations(nnd, k):
                        sub_space = Space(net.variables[n] for n in subset)
                        for given in sub_space.configurations():
                            fixed = parent.combine(given)
                            scan = [
                                j
                                for j in range(space.size)
                                if all(
                                    space.config_at(j).value_of(n) == v
                                    for n, v in zip(fixed.nodes, fixed.values)
                                )
                            ]
                            for observed in (given, fixed):
                                cached = joint._observed_indices(s, p_idx, observed)
                                assert cached == scan
                                assert joint._observed_indices(s, p_idx, observed) is cached
                                checked += 1
                none = joint._observed_indices(s, p_idx, None)
                assert none == [j for j in range(space.size) if p_at[j] == p_idx]
    assert checked > 500


def test_integer_product_mass_equals_the_fraction_product(monkeypatch):
    # every product mass the package builds (the canonical witness, the
    # product separators of the structured route, the chain separators of
    # non-members) against
    # the Fraction product of dense.py; some nodes carry kernels of
    # different denominators in different slots, which the one
    # denominator per node must cover
    rng = random.Random(1818)
    original = JointModel._product_mass
    checked, mixed = Counter(), Counter()

    def spy(joint, kernel):
        ints, den = original(joint, kernel)
        caller = sys._getframe(1).f_code.co_name
        assert [F(n, den) for n in ints] == product_mass(joint, kernel), caller
        checked[caller] += 1
        for s in joint.net.dag.nodes:
            spaces = joint.net.parent_space(s), joint.net.nnd_space(s)
            slots = set(zip(*[joint.space.index_map(sp) for sp in spaces]))
            rows = [kernel(s, *key) for key in slots]
            if len({lcm(*[F(v, d).denominator for v in row]) for row, d in rows}) > 1:
                mixed[caller] += 1
                break
        return ints, den

    monkeypatch.setattr(JointModel, "_product_mass", spy)
    for trial in range(16):
        if trial % 2:
            net = sample_chain(rng, rng.randint(2, 4), rng.randint(2, 3))
        else:
            net = sample_credal_net(rng, max_nodes=3)
        for flip in (None, random_mutation(rng, net)):
            joint = net.build_joint(mutate_flip=flip)
            for s in net.dag.nodes:
                nnd = net.nnd_space(s)
                for p_idx in range(net.parent_space(s).size):
                    for _ in range(4):
                        given = nnd.config_at(rng.randrange(nnd.size))
                        joint.structured_member(
                            s, p_idx, given, sample_gamble(rng, net.node_space(s))
                        )
            for f in chain_gambles(rng, net, 4):
                joint._chain_membership(_int_vector(enumerate(f.extend(net.joint_space).table)))
    kinds = ("__init__", "_product_separator", "_chain_membership")
    assert set(checked) == set(kinds) and all(mixed[k] for k in kinds), (checked, mixed)


def primitive_ints(y):
    """y is the one separator form: a tuple of int (no bool, no Fraction)
    with gcd 1."""
    return type(y) is tuple and all(type(v) is int for v in y) and gcd(*y) == 1


def test_every_separator_is_a_primitive_integer_tuple():
    rng = random.Random(1919)
    routes = Counter()

    def check(where, res):
        if not res.member and res.route != "zero-convention":
            assert primitive_ints(res.separator), (where, res)
            routes[where, res.route] += 1

    for _ in range(40):
        dim = rng.randint(1, 4)
        tables = [dense_table(rng, dim) for _ in range(rng.randint(0, 4))]
        check("lp", conic_membership(_over_lcm(dense_table(rng, dim)), int_columns(tables)))
    canonical = 0
    for trial in range(16):
        if trial % 2:
            net = sample_chain(rng, rng.randint(2, 4), rng.randint(2, 3))
        else:
            net = sample_credal_net(rng, max_nodes=3)
        for flip in (None, random_mutation(rng, net)):
            joint = net.build_joint(mutate_flip=flip)
            for s in net.dag.nodes:
                nnd = net.nnd_space(s)
                for p_idx in range(net.parent_space(s).size):
                    for _ in range(4):
                        f = sample_gamble(rng, net.node_space(s))
                        check("cone", net.local_cone(s, p_idx).member_with_certificate(f))
                        given = nnd.config_at(rng.randrange(nnd.size))
                        res = joint.structured_member(s, p_idx, given, f)
                        check("joint", res)
                        if joint._canonical is not None and not res.member:
                            canonical += res.separator == _primitive(joint._canonical[0])
            for f in chain_gambles(rng, net, 6):
                check("joint", joint.member_with_certificate(f))
            assert all(primitive_ints(y) for y in joint._separators)
    assert canonical > 0
    expected = {
        ("lp", "exact-lp"),
        ("cone", "cached-separator"),
        ("cone", "exact-lp"),
        ("joint", "cached-separator"),
        ("joint", "product-separator"),
        ("joint", "chain-recursion"),
        ("joint", "exact-lp"),
    }
    assert expected <= set(routes), routes


def test_separator_cache_evicts_the_oldest_entry_but_a_verified_canonical_witness():
    # a flipped model of this net has no canonical witness, so no entry is
    # kept: the cache holds the last _SEPARATOR_CACHE_LIMIT separators; a
    # clean model keeps its canonical witness in front of the last ones
    net = sample_credal_net(random.Random(1000))
    size = net.joint_space.size
    fakes = [(i + 2,) + (1,) * (size - 1) for i in range(40)]
    flipped = net.build_joint(mutate_flip=(net.dag.nodes[0], 0, 0))
    assert flipped._canonical is None and flipped._separators == []
    for y in fakes:
        flipped._cache_separator(y)
    assert flipped._separators == fakes[-_SEPARATOR_CACHE_LIMIT:]
    clean = net.build_joint()
    canonical = _primitive(clean._canonical[0])
    for y in fakes:
        clean._cache_separator(y)
    assert clean._separators == [canonical] + fakes[1 - _SEPARATOR_CACHE_LIMIT:]


@pytest.mark.parametrize(
    "seed, flip, message",
    [
        (1002, ("n0", 0, 0), "unbounded lower prevision: the cone is incoherent"),
        (1000, ("n3", 1, 2), "lower prevision LP is infeasible"),
    ],
)
def test_an_infinite_lower_prevision_raises_its_own_error(seed, flip, message):
    # a tampered model's lower prevision of (0, 1, ...) on the flipped node
    # is +infinity (an unbounded LP) or -infinity (an infeasible one): an
    # LpError subclass of its own, not a solver fault
    net = sample_credal_net(random.Random(seed))
    space = net.node_space(flip[0])
    f = Gamble(space, (0, 1) + (0,) * (space.size - 2))
    joint = net.build_joint(mutate_flip=flip)
    with pytest.raises(InfinitePrevisionError, match=re.escape(message)):
        joint.lower_prevision(f)
    assert issubclass(InfinitePrevisionError, LpError)


def assert_integer_witness(witness, tables, target):
    """witness is the one witness form: integer (index, n) pairs sorted by
    index, with no repeated index and every n > 0, over an integer den > 0,
    combining the dense tables to the target (dense.is_witness)."""
    pairs, den = witness
    indices = [k for k, _ in pairs]
    assert indices == sorted(set(indices)) and pairs
    assert type(den) is int and den > 0
    assert all(type(n) is int and n > 0 for _, n in pairs)
    assert is_witness(tables, target, witness)


def test_every_route_returns_an_integer_witness():
    # networks and mixed chains, clean and flipped: every member answer of
    # the joint model, by whichever route, and every vanishing combination
    # of a flipped model, is an integer witness that holds on the dense
    # generator tables
    rng = random.Random(3030)
    routes = Counter()
    nets = [sample_credal_net(rng, max_nodes=3) for _ in range(10)]
    nets += [sample_mixed_chain(rng, widths) for widths in ((2, 3), (3, 2, 2), (2, 2, 2))]
    for net in nets:
        for flip in (None, random_mutation(rng, net), random_mutation(rng, net)):
            joint = net.build_joint(mutate_flip=flip)
            tables, size = generator_tables(joint), net.joint_space.size
            zero = joint.contains_zero()
            if zero.exists:
                routes["vanishing " + zero.route] += 1
                assert_integer_witness(zero.combination, tables, (F(0),) * size)
                continue
            queries = []
            # a nonnegative gamble, and positive combinations of generators
            nonnegative = [F(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(size)]
            nonnegative[rng.randrange(size)] += 1
            queries.append((Gamble(net.joint_space, nonnegative), None))
            for _ in range(3):
                picks = rng.sample(range(len(tables)), min(3, len(tables)))
                combined = [F(0)] * size
                for k in picks:
                    lam = F(rng.randint(1, 3), rng.randint(1, 2))
                    combined = [c + lam * v for c, v in zip(combined, tables[k])]
                if any(combined):
                    queries.append((Gamble(net.joint_space, combined), None))
            # each node's assessments given each parent configuration
            for s in net.dag.nodes:
                p_space = net.parent_space(s)
                for p_idx in range(p_space.size):
                    for g in net.assessments[(s, p_idx)]:
                        queries.append((g, p_space.config_at(p_idx)))
            for f, given in queries:
                res = joint.member_with_certificate(f, given=given)
                if not res.member:
                    continue
                routes[res.route] += 1
                target = f.extend(net.joint_space)
                if given is not None:
                    target = indicator(given, net.joint_space) * target
                assert_integer_witness(res.witness, tables, target.table)
    expected = ("positive-span", "local-assembly", "chain-recursion", "exact-lp", "vanishing exact-lp")
    assert all(routes[route] for route in expected), routes
