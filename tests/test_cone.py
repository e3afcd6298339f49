"""Cone coherence, membership, previsions, and the witness equivalence."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from credalcones import cone as cone_module, core, lp
from credalcones.cone import AssessmentCone
from credalcones.core import Gamble, Space, VariableSpace, indicator
from credalcones.lp import LpError, _over_lcm
from credalcones.oracle import fm_membership
from dense import (
    DenseCone,
    dense_membership,
    fractions,
    int_columns,
    is_positive_pmf,
    is_separator,
    is_witness,
    masses,
)

F = Fraction


def coin():
    return Space([VariableSpace("a", ("heads", "tails"))])


def pair_space():
    return Space([VariableSpace("a", ("a0", "a1")), VariableSpace("b", ("b0", "b1"))])


def test_single_assessment_margin_and_witness():
    # one assessed gamble (1, -1): the coherence LP's separator, normalised,
    # is the pmf (2/3, 1/3), which gives the generators 1/3, 2/3 and 1/3
    cone = AssessmentCone(coin(), [Gamble(coin(), (1, -1))])
    report = cone.is_coherent()
    assert report.coherent
    assert report.witness == (F(2, 3), F(1, 3))


def test_hand_checked_witness_also_works():
    # (3/4, 1/4) gives expectations 1/2, 3/4, 1/4: all strictly positive
    cone = AssessmentCone(coin(), [Gamble(coin(), (1, -1))])
    y = (F(3, 4), F(1, 4))
    assert sum(y) == 1
    for g in cone.generators:
        assert sum(a * b for a, b in zip(y, g.table)) > 0


def test_contradictory_assessment_is_incoherent():
    sp = coin()
    f = Gamble(sp, (1, -1))
    cone = AssessmentCone(sp, [f, -f])
    report = cone.is_coherent()
    assert not report.coherent
    assert report.certificate is not None
    combo = report.certificate
    tables = [g.table for g in cone.generators]
    assert is_witness(tables, (F(0),) * sp.size, lp._int_vector(enumerate(combo)))
    assert any(c > 0 for c in combo)


def test_nonpositive_assessment_is_incoherent():
    sp = coin()
    cone = AssessmentCone(sp, [Gamble(sp, (0, -1))])
    assert not cone.is_coherent()


def test_vacuous_cone_membership():
    sp = coin()
    cone = AssessmentCone(sp)
    assert cone.is_coherent()
    assert cone.member_with_certificate(Gamble(sp, (1, 0))).member
    assert cone.member_with_certificate(Gamble(sp, (2, 3))).member
    assert not cone.member_with_certificate(Gamble(sp, (1, -1))).member
    assert not cone.member_with_certificate(Gamble(sp, (-1, 0))).member


def test_zero_gamble_is_never_a_member():
    sp = coin()
    cone = AssessmentCone(sp, [Gamble(sp, (1, -1))])
    cert = cone.member_with_certificate(Gamble.zero(sp))
    assert not cert.member and cert.witness is None and cert.separator is None


def test_membership_certificates_verify():
    sp = coin()
    f = Gamble(sp, (1, -1))
    cone = AssessmentCone(sp, [f])
    inside = cone.member_with_certificate(Gamble(sp, (3, -1)))  # 2f + 2*atom0 + 1*... check
    assert inside.member
    tables = [g.table for g in cone.generators]
    assert is_witness(tables, (F(3), F(-1)), inside.witness)
    outside = cone.member_with_certificate(Gamble(sp, (1, -2)))
    assert not outside.member
    sep = outside.separator
    assert all(sum(a * b for a, b in zip(sep, g.table)) >= 0 for g in cone.generators)
    assert sum(a * b for a, b in zip(sep, (F(1), F(-2)))) < 0


def test_generator_order_is_assessments_then_atoms():
    sp = coin()
    f = Gamble(sp, (1, -1))
    cone = AssessmentCone(sp, [f])
    assert cone.generators[0] == f
    assert cone.generators[1].table == (1, 0)
    assert cone.generators[2].table == (0, 1)


def test_zero_assessment_rejected():
    sp = coin()
    with pytest.raises(ValueError):
        AssessmentCone(sp, [Gamble.zero(sp)])


def lower(cone, f):
    columns = int_columns(g.table for g in cone.generators)
    return lp._checked_prevision(f.extend(cone.space).table, columns)[0]


def upper(cone, f):
    return -lower(cone, -f)


def test_vacuous_previsions_are_min_and_max():
    sp = coin()
    cone = AssessmentCone(sp)
    f = Gamble(sp, (1, -1))
    assert lower(cone, f) == -1
    assert upper(cone, f) == 1


def test_assessed_gamble_has_nonnegative_lower_prevision():
    sp = coin()
    f = Gamble(sp, (1, -1))
    cone = AssessmentCone(sp, [f])
    assert lower(cone, f) == 0
    assert upper(cone, f) == 1


def test_equal_tables_share_one_membership_lp_and_one_prevision_walk(monkeypatch):
    # the cone's memos are keyed by integer forms, not by Gamble objects; a
    # membership that no quick route decides reads the prevision LP, whose
    # memo and bases the lower previsions share
    sp = coin()
    cone = AssessmentCone(sp, [Gamble(sp, (1, -1))])
    walks, at_basis = [], lp._prevision_at_basis

    def basis_spy(basis, target, columns):
        walks.append(target)
        return at_basis(basis, target, columns)

    def never(*args):
        raise AssertionError("a coherent cone solved an LP on the tableau")

    monkeypatch.setattr("credalcones.cone.conic_membership", never)
    monkeypatch.setattr("credalcones.cone._prevision_at_basis", basis_spy)
    monkeypatch.setattr("credalcones.cone._checked_prevision", never)
    # the witness (2/3, 1/3) scores (1, -2) zero, and no atom mass separates
    # it (the assessment is negative at 1): only the prevision walk decides it
    first, again = Gamble(sp, (F(1), F(-2))), Gamble(sp, (2, -4)) * F(1, 2)
    assert first is not again and first.table == again.table
    answer = cone.member_with_certificate(first)
    assert answer.route == "exact-lp" and not answer.member
    assert cone.member_with_certificate(again) == answer
    tables = [g.table for g in cone.generators]
    assert answer.separator == (1, 1) and is_separator(tables, first.table, answer.separator)
    # the walk starts at the atoms basis {shift, atom 0} and ends at {shift,
    # the assessment}, m = -1/2, which the lower prevision reads from the memo
    assert len(walks) == 1 and [b.basic for b in reversed(cone._bases)] == [(0,)]
    assert cone.lower_prevision(*_over_lcm(first.table))[0] == F(-1, 2)
    assert len(walks) == 1
    # (-1, 3) is not answered there: dual pivots bring in atom 1, and the new
    # basis joins the front
    low = cone.lower_prevision((-1, 3))
    assert low[0] == -1 and cone.lower_prevision((-2, 6), 2) == low
    assert len(walks) == 2 and [b.basic for b in reversed(cone._bases)] == [(2,), (0,)]
    # a new table is answered at a cached basis, without a walk
    assert cone.lower_prevision((-2, 6))[0] == -2
    assert cone.lower_prevision((-1, 3), 2)[0] == F(-1, 2)
    m, primal, dual = cone.lower_prevision((3, -1))
    assert (m, fractions(primal), masses(dual)) == (1, ((0, 2),), (F(1, 2), F(1, 2)))
    assert len(walks) == 2 and [b.basic for b in reversed(cone._bases)] == [(0,), (2,)]
    # its membership reads that memo entry: the primal plus m on every atom
    inside = cone.member_with_certificate(Gamble(sp, (3, -1)))
    assert inside.route == "exact-lp" and inside.member and len(walks) == 2
    assert fractions(inside.witness) == ((0, 2), (1, 1), (2, 1))
    whole = cone.member_with_certificate(Gamble(sp, (1, 2)))
    half = cone.member_with_certificate(Gamble(sp, (F(1, 2), F(1))))
    assert fractions(whole.witness) == ((1, 1), (2, 2))
    assert fractions(half.witness) == ((1, F(1, 2)), (2, 1))


def test_a_row_with_a_common_factor_shares_one_prevision_entry_and_one_walk(monkeypatch):
    # the memo key is the row in lowest terms: (2, 4) over 2 and (1, 2)
    # over 1 are one table, asked and walked to once
    sp = coin()
    cone = AssessmentCone(sp, [Gamble(sp, (1, -1))])
    at_basis, calls = lp._prevision_at_basis, []

    def basis_spy(basis, target, columns):
        calls.append(target)
        return at_basis(basis, target, columns)

    monkeypatch.setattr("credalcones.cone._prevision_at_basis", basis_spy)
    first = cone.lower_prevision((2, 4), 2)
    assert cone.lower_prevision((1, 2)) is first
    assert cone.lower_prevision((6, 12), 6) is first
    assert list(cone._previsions) == [(1, 2, 1)] and calls == [((1, 2), 1)]
    assert (first[0], fractions(first[1]), masses(first[2])) == (1, ((2, 1),), (1, 0))


def test_a_table_of_the_wrong_length_is_refused_before_the_memo_and_the_bases():
    # a 4-entry table once walked an atoms basis of dimension 4 and cached
    # it; the right-length table after it then read m = 0 with the dual
    # (0, 0, 0, 1), all its mass on a coordinate the cone does not have
    sp = Space([VariableSpace("a", ("v0", "v1", "v2"))])
    cone = AssessmentCone(sp, [Gamble(sp, (1, -1, 0))])
    for table in ((1, 2, 3, -5), (1, 2)):
        with pytest.raises(ValueError, match=f"a table of {len(table)} entries on a space of 3"):
            cone.lower_prevision(table)
    # a nonpositive denominator: over -1 the table once read the upper
    # prevision of its negation, with a primal of negative coefficients,
    # and over 0 it raised ZeroDivisionError from inside Fraction
    for den in (-1, 0):
        with pytest.raises(ValueError, match=f"a table over the denominator {den}"):
            cone.lower_prevision((1, 2, 3), den)
    assert cone._previsions == {} and cone._bases == {}
    m, primal, dual = cone.lower_prevision((1, 2, 3))
    tables, mass = [g.table for g in cone.generators], masses(dual)
    assert m == 1 and mass == (1, 0, 0)
    assert is_witness(tables, (0, 1, 2), primal)
    assert all(sum(p * v for p, v in zip(mass, t)) >= 0 for t in tables)


def test_a_dual_with_a_coordinate_the_target_lacks_fails_verification():
    # (0, 0, 0, 1) sums to 1, gives (1, 2, 3) the expectation 0 and scores
    # every 3-entry column 0: only its length gives it away
    sp = Space([VariableSpace("a", ("v0", "v1", "v2"))])
    cone = AssessmentCone(sp, [Gamble(sp, (1, -1, 0))])
    target, atoms = ((1, 2, 3), 1), (((1, 1), (2, 2), (3, 3)), 1)
    assert lp._prevision_fault(cone.columns, target, F(0), atoms, ((0, 0, 0, 1), 1)) == "dual"
    # the right-length dual of m = 1, with the primal of (0, 1, 2), passes
    shifted = (((2, 1), (3, 2)), 1)
    assert lp._prevision_fault(cone.columns, target, F(1), shifted, ((1, 0, 0), 1)) is None


def random_cone(rng, max_values=3, max_assessments=3):
    k = rng.randint(2, max_values)
    sp = Space([VariableSpace("a", tuple(f"v{i}" for i in range(k)))])
    gambles = []
    for _ in range(rng.randint(0, max_assessments)):
        table = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k))
        if any(v != 0 for v in table):
            gambles.append(Gamble(sp, table))
    return AssessmentCone(sp, gambles)


def test_incoherence_certificate_comes_from_the_coherence_lp(monkeypatch):
    calls = []
    solve = lp._solve_standard

    def counting(rows, rhs, cost):
        calls.append(len(rows))
        return solve(rows, rhs, cost)

    monkeypatch.setattr(lp, "_solve_standard", counting)
    rng = random.Random(812)
    incoherent = 0
    while incoherent < 20:
        cone = random_cone(rng)
        calls.clear()
        report = cone.is_coherent()
        # a cone with an assessment g <= 0 takes the quick route, and a
        # vacuous one the uniform mass: no LP
        if any(all(v <= 0 for v in g.table) for g in cone.assessments):
            assert calls == [] and not report.coherent
            continue
        if not cone.assessments:
            size = cone.space.size
            assert calls == [] and report.witness == (F(1, size),) * size
            continue
        assert len(calls) == 1
        if report.coherent:
            continue
        incoherent += 1
        combo = report.certificate
        assert all(c >= 0 for c in combo) and any(combo)
        tables = [g.table for g in cone.generators]
        assert is_witness(tables, (F(0),) * cone.space.size, lp._int_vector(enumerate(combo)))


def test_a_vacuous_cone_is_coherent_with_the_uniform_mass_and_no_lp(monkeypatch):
    # the uniform mass is the separator the coherence LP finds on the atoms
    # alone, at every width up to 64
    def never(*args):
        raise AssertionError("an LP was solved")

    widths = (*range(1, 65), 400)
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_solve_standard", never)
        cones = [AssessmentCone(Space([VariableSpace("x", tuple(range(n)))])) for n in widths]
        reports = [cone.is_coherent() for cone in cones]
    for n, cone, report in zip(widths, cones, reports):
        assert cone.witness_mass == ((1,) * n, n)
        if n <= 64:
            y = lp.contains_zero(cone.columns, n).separator[:-1]
            assert report == cone_module.CoherenceReport(True, tuple(F(v, sum(y)) for v in y))


def test_a_nonpositive_assessment_is_decided_without_an_lp(monkeypatch):
    # the first assessment g <= 0, g != 0, vanishes with -g(x) times each
    # atom x: coefficient 1 on g, whatever else is assessed, and no LP
    def never(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(lp, "_solve_standard", never)
    rng = random.Random(3232)
    decided = 0
    while decided < 40:
        cone = random_cone(rng, max_values=4, max_assessments=4)
        loss = next(
            (k for k, g in enumerate(cone.assessments) if all(v <= 0 for v in g.table)), None
        )
        if loss is None:
            continue
        decided += 1
        report = cone.is_coherent()
        assert not report.coherent and report.witness is None
        first_atom, g = len(cone.assessments), cone.assessments[loss]
        assert report.certificate == tuple(
            1 if k == loss else -g.table[k - first_atom] if k >= first_atom else 0
            for k in range(len(cone.generators))
        )
        tables = [h.table for h in cone.generators]
        combination = lp._int_vector(enumerate(report.certificate))
        assert is_witness(tables, (F(0),) * cone.space.size, combination)
    # a 1,500-value model under the default cap: its coherence LP would run
    # for minutes
    space = Space([VariableSpace("x", tuple(f"v{x}" for x in range(1500)))])
    wide = AssessmentCone(space, [Gamble(space, tuple(F(-(x % 3)) for x in range(1500)))])
    report = wide.is_coherent()
    assert not report.coherent and report.certificate[0] == 1
    combination = lp._int_vector(enumerate(report.certificate))
    assert is_witness([g.table for g in wide.generators], (F(0),) * 1500, combination)


@pytest.mark.parametrize(
    "tables, coherent",
    [
        ([[399] + [-1] * 399], True),
        # g and -g: incoherent with no assessment <= 0, so the LP decides
        ([[399] + [-1] * 399, [-399] + [1] * 399], False),
    ],
    ids=["coherent", "incoherent"],
)
def test_a_wide_local_model_is_decided_by_one_lp(monkeypatch, tables, coherent):
    space = Space([VariableSpace("x", tuple(f"v{x}" for x in range(400)))])
    gambles = [Gamble(space, tuple(F(v) for v in table)) for table in tables]
    # the coherence LP: 400 + 1 rows, one column per assessment and 400
    # atom columns, sized when it is about to run
    cells = (400 + 1) * (len(gambles) + 400 + 400 + 1 + 1)
    monkeypatch.setattr(lp, "_MAX_CELLS", cells - 1)
    with pytest.raises(lp.WorkCapError) as err:
        AssessmentCone(space, gambles).is_coherent()
    assert err.value.cells == cells
    monkeypatch.setattr(lp, "_MAX_CELLS", cells)
    cone = AssessmentCone(space, gambles)
    calls = []
    solve = lp._solve_standard

    def counting(rows, rhs, cost):
        calls.append(len(rows))
        return solve(rows, rhs, cost)

    monkeypatch.setattr(lp, "_solve_standard", counting)
    report = cone.is_coherent()
    assert calls == [401]
    assert report.coherent is coherent
    tables = [g.table for g in cone.generators]
    if coherent:
        assert report.certificate is None and is_positive_pmf(tables, report.witness)
    else:
        combo = report.certificate
        assert report.witness is None and any(combo)
        assert is_witness(tables, (F(0),) * 400, lp._int_vector(enumerate(combo)))


def random_local_cone(rng):
    """1-5 values and 0-4 assessments, each drawn anew or as a repeat or the
    negation of an earlier one."""
    sp = Space([VariableSpace("a", tuple(f"v{i}" for i in range(rng.randint(1, 5))))])
    gambles, count = [], rng.randint(0, 4)
    while len(gambles) < count:
        roll = rng.random()
        if gambles and roll < 0.25:
            gambles.append(rng.choice(gambles))
        elif gambles and roll < 0.5:
            gambles.append(-rng.choice(gambles))
        else:
            table = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(sp.size))
            if any(table):
                gambles.append(Gamble(sp, table))
    return sp, gambles


def test_local_cones_answer_as_with_dense_atoms_and_fraction_rows():
    # the integer columns and rows, and the kernel's integer duals, give the
    # coherence reports and member flags of dense indicator atoms and a
    # kernel on Fraction rows; a membership certificate may differ from the
    # dense one (the atom masses and the prevision walk have none there),
    # and each is checked on the dense generators
    rng = random.Random(2828)
    coherent, answers = Counter(), Counter()
    for _ in range(300):
        sp, gambles = random_local_cone(rng)
        cone, dense = AssessmentCone(sp, gambles), DenseCone(sp, gambles)
        report = cone.is_coherent()
        assert report == dense.is_coherent()
        coherent[report.coherent] += 1
        tables = [g.table for g in dense.generators]
        for _ in range(6):
            table = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(sp.size))
            res = cone.member_with_certificate(Gamble(sp, table))
            assert res.member == dense.member_with_certificate(Gamble(sp, table)).member
            if res.member:
                assert is_witness(tables, table, res.witness)
            elif any(table):
                assert is_separator(tables, table, res.separator)
            answers[res.route, res.member] += 1
    assert coherent[True] > 50 and coherent[False] > 50
    for route, member in [("positive-span", True), ("cached-separator", False)]:
        assert answers[route, member]
    assert answers["atom-mass", False]
    assert answers["exact-lp", True] and answers["exact-lp", False]


def test_a_coherent_cone_decides_every_membership_without_the_membership_lp(monkeypatch):
    # past positive-span and the coherence witness, a coherent cone answers
    # from an atom mass or its prevision walk, an incoherent one by the
    # membership LP; every flag agrees with the projection oracle and the
    # dense LP, and every certificate is checked on the dense generators
    lps, solve = [], cone_module.conic_membership

    def spy(target, columns):
        lps.append(target)
        return solve(target, columns)

    monkeypatch.setattr(cone_module, "conic_membership", spy)
    rng = random.Random(3535)
    answers = Counter()
    for _ in range(300):
        sp, gambles = random_local_cone(rng)
        cone, dense = AssessmentCone(sp, gambles), DenseCone(sp, gambles)
        coherent = cone.is_coherent().coherent
        tables = [g.table for g in dense.generators]
        lps.clear()
        for _ in range(6):
            table = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(sp.size))
            if not any(table):
                continue
            res = cone.member_with_certificate(Gamble(sp, table))
            assert res.member == fm_membership(table, tables)
            assert res.member == dense_membership(table, dense.columns).member
            if res.member:
                assert is_witness(tables, table, res.witness)
            else:
                assert is_separator(tables, table, res.separator)
            answers[res.route, res.member, coherent] += 1
        assert not (coherent and lps)
    assert answers["atom-mass", False, True] and answers["atom-mass", False, False]
    assert answers["exact-lp", True, True] and answers["exact-lp", False, True]
    assert answers["exact-lp", True, False] and answers["exact-lp", False, False]


def test_a_wide_cone_lays_out_its_atoms_without_a_dense_atom(monkeypatch):
    space = Space([VariableSpace("x", tuple(f"v{x}" for x in range(3000)))])
    gamble = Gamble(space, tuple(F(2999) if x == 0 else F(-1) for x in range(3000)))
    atoms = (indicator(space.config_at(i), space) for i in range(space.size))
    dense = int_columns(g.table for g in (gamble, *atoms))

    def never(*args, **kwargs):
        raise AssertionError("a dense atom was built")

    with monkeypatch.context() as patch:
        patch.setattr(core, "indicator", never)
        patch.setattr(cone_module, "Gamble", never)
        wide = AssessmentCone(space, [gamble])
        assert list(wide.columns) == dense
    # read afterwards, the generators are the assessment and the atoms as
    # unit tables, each the table of its indicator
    assert wide.generators[0] == gamble
    assert all(g.space == space for g in wide.generators)
    assert int_columns(g.table for g in wide.generators) == dense


def random_target(rng, cone):
    size = cone.space.size
    table = (F(0),) * size
    while not any(table):
        table = tuple(F(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(size))
    return Gamble(cone.space, table)


def test_local_quick_routes_agree_with_the_lp():
    # cones on 2-4 values with 0-3 assessments, coherent or not: every route
    # answers as the membership LP on the cone's columns, with a certificate
    # checked on its generators
    rng = random.Random(1313)
    routes = Counter()
    for _ in range(150):
        cone = random_cone(rng, max_values=4, max_assessments=3)
        coherent = cone.is_coherent().coherent
        tables = [g.table for g in cone.generators]
        for _ in range(8):
            f = random_target(rng, cone)
            res = cone.member_with_certificate(f)
            routes[res.route, coherent] += 1
            assert res.member == lp.conic_membership(_over_lcm(f.table), cone.columns).member
            if res.member:
                assert res.route in ("positive-span", "exact-lp")
                assert is_witness(tables, f.table, res.witness)
            else:
                assert res.route != "cached-separator" or coherent
                assert is_separator(tables, f.table, res.separator)
    assert routes["cached-separator", False] == 0
    for route in ("positive-span", "atom-mass", "exact-lp"):
        assert routes[route, True] > 20 and routes[route, False] > 20, routes
    assert routes["cached-separator", True] > 20, routes


def test_a_tampered_coherence_witness_never_separates():
    # a stored witness that scores some generator <= 0 raises or leaves the
    # question to the LP; it is never returned as a separator
    rng = random.Random(1414)
    tampered = raised = 0
    while tampered < 30:
        cone = random_cone(rng, max_values=4, max_assessments=3)
        report = cone.is_coherent()
        if not report.coherent:
            continue
        size = cone.space.size
        bad = [0] * size
        bad[rng.randrange(size)] = 1  # scores the other atoms 0
        cone._witness_mass = tuple(bad), 1
        tampered += 1
        for _ in range(6):
            f = random_target(rng, cone)
            try:
                res = cone.member_with_certificate(f)
            except LpError:
                raised += 1
                continue
            assert res.route in ("positive-span", "exact-lp")
            assert res.member == lp.conic_membership(_over_lcm(f.table), cone.columns).member
    assert raised > 30


def nonpositive_probes(cone, rng, samples=20):
    """Every negated atom, then `samples` random nonzero f <= 0."""
    size = cone.space.size
    probes = [-a for a in cone.generators[len(cone.assessments):]]
    for _ in range(samples):
        table = [F(0)] * size
        while all(v == 0 for v in table):
            table = [F(-rng.randint(0, 2), rng.randint(1, 2)) for _ in range(size)]
        probes.append(Gamble(cone.space, tuple(table)))
    return probes


def test_sign_diagnostics_clean_on_coherent_cone():
    sp = coin()
    cone = AssessmentCone(sp, [Gamble(sp, (1, -1))])
    probes = nonpositive_probes(cone, random.Random(5), samples=25)
    assert len(probes) == sp.size + 25
    assert not any(cone.member_with_certificate(f).member for f in probes)
    vacuous = AssessmentCone(sp)
    probes = nonpositive_probes(vacuous, random.Random(5))
    assert not any(vacuous.member_with_certificate(f).member for f in probes)


def test_sign_diagnostics_flags_incoherent_cone():
    # (0, -1) is assessed, nonpositive, and trivially a member of its own span
    sp = coin()
    cone = AssessmentCone(sp, [Gamble(sp, (0, -1))])
    violations = [
        f
        for f in nonpositive_probes(cone, random.Random(5))
        if cone.member_with_certificate(f).member
    ]
    assert violations
    assert all(v <= 0 for v in violations[0].table)
    assert cone.member_with_certificate(Gamble(sp, (0, -1))).member


def test_no_partial_loss_when_coherent():
    rng = random.Random(812)
    checked = 0
    while checked < 40:
        cone = random_cone(rng)
        if not cone.is_coherent():
            continue
        size = cone.space.size
        table = [F(-rng.randint(0, 2)) for _ in range(size)]
        if all(v == 0 for v in table):
            table[rng.randrange(size)] = F(-1)
        assert not cone.member_with_certificate(Gamble(cone.space, tuple(table))).member
        checked += 1


@st.composite
def coherent_cone_and_members(draw):
    k = draw(st.integers(2, 3))
    sp = Space([VariableSpace("a", tuple(f"v{i}" for i in range(k)))])
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    tables = draw(
        st.lists(
            st.lists(coeff, min_size=k, max_size=k).filter(
                lambda t: any(v != 0 for v in t)
            ),
            min_size=1,
            max_size=2,
        )
    )
    cone = AssessmentCone(sp, [Gamble(sp, tuple(t)) for t in tables])
    if not cone.is_coherent():
        # fall back to the always-coherent vacuous cone
        cone = AssessmentCone(sp)
    f = draw(st.sampled_from(cone.generators))
    g = draw(st.sampled_from(cone.generators))
    return cone, f, g


@settings(max_examples=40, deadline=None)
@given(coherent_cone_and_members())
def test_members_closed_under_addition_and_scaling(data):
    cone, f, g = data
    assert cone.member_with_certificate(f).member and cone.member_with_certificate(g).member
    assert cone.member_with_certificate(f + g).member
    assert cone.member_with_certificate(F(7, 3) * f).member


@settings(max_examples=30, deadline=None)
@given(
    coherent_cone_and_members(),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
def test_prevision_shift_and_order(data, c):
    cone, f, _ = data
    low = lower(cone, f)
    assert upper(cone, f) >= low
    const = Gamble.constant(cone.space, c)
    assert lower(cone, f + const) == low + c


def test_multi_node_cone_accepts_subscope_gambles():
    sp = pair_space()
    f_a = Gamble(sp.restrict(["a"]), (1, -1))
    cone = AssessmentCone(sp, [f_a])
    assert cone.is_coherent()
    assert cone.member_with_certificate(f_a).member  # auto-extended
    assert lower(cone, f_a) == 0
