"""Exact simplex and conic certificates, cross-checked against brute force."""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from credalcones import lp
from credalcones.lp import (
    LinearSystem,
    LpError,
    LpStatus,
    conic_membership,
    contains_zero,
)
from dense import fractions, int_columns, is_separator, is_witness

F = Fraction


def lower_prevision(target, tables):
    return lp._checked_prevision(target, int_columns(tables))[0]


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


# -- LinearSystem -------------------------------------------------------------


def test_simple_maximization():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> (8/5, 6/5), value 14/5
    lp = LinearSystem(2).maximize([1, 1])
    lp.add_constraint([1, 2], "<=", 4)
    lp.add_constraint([3, 1], "<=", 6)
    lp.add_constraint([1, 0], ">=", 0)
    lp.add_constraint([0, 1], ">=", 0)
    out = lp.solve()
    assert out.status is LpStatus.OPTIMAL
    assert out.objective == F(14, 5)
    assert out.solution == (F(8, 5), F(6, 5))


def test_free_variables_by_default():
    # min x s.t. x >= -7 is -7; without the row the LP is unbounded
    lp = LinearSystem(1).minimize([1])
    lp.add_constraint([1], ">=", -7)
    out = lp.solve()
    assert out.status is LpStatus.OPTIMAL and out.objective == -7

    out = LinearSystem(1).minimize([1]).solve()
    assert out.status is LpStatus.UNBOUNDED


def test_equality_and_infeasibility():
    lp = LinearSystem(2)
    lp.add_constraint([1, 1], "==", 1)
    lp.add_constraint([1, 1], ">=", 2)
    out = lp.solve()
    assert out.status is LpStatus.INFEASIBLE
    assert out.farkas is not None
    # the multipliers really do combine the rows into 0 >= positive
    y = out.farkas
    # the split columns x+ and x- of each variable: y.(1, 1) <= 0 and
    # y.(-1, -1) <= 0, so the structural part vanishes
    assert y[0] + y[1] == 0
    # the surplus column (0, -1) of the >= row needs -y[1] <= 0; with
    # y.b = y[0] + 2 y[1] > 0 below, the multiplier is strictly positive
    assert y[1] > 0
    assert y[0] * 1 + y[1] * 2 > 0


def test_unbounded_ray_is_verified():
    # max x + y s.t. x - y <= 1, x,y >= 0: grow along (1,1)
    lp = LinearSystem(2).maximize([1, 1])
    lp.add_constraint([1, -1], "<=", 1)
    lp.add_constraint([1, 0], ">=", 0)
    lp.add_constraint([0, 1], ">=", 0)
    out = lp.solve()
    assert out.status is LpStatus.UNBOUNDED
    assert out.ray is not None


def test_duality_on_clean_system():
    # min 2x + 3y s.t. x + y >= 2, x + 3y >= 3 (x, y free via no bound rows)
    lp = LinearSystem(2).minimize([2, 3])
    lp.add_constraint([1, 1], ">=", 2)
    lp.add_constraint([1, 3], ">=", 3)
    out = lp.solve()
    assert out.status is LpStatus.OPTIMAL
    assert out.dual is not None
    assert dot(out.dual, (2, 3)) == out.objective
    assert all(y >= 0 for y in out.dual)


def test_degenerate_problem_terminates():
    # Beale's cycling example; the stall guard must still reach -1/20
    lp = LinearSystem(4).minimize([F(-3, 4), 150, F(-1, 50), 6])
    lp.add_constraint([F(1, 4), -60, F(-1, 25), 9], "<=", 0)
    lp.add_constraint([F(1, 2), -90, F(-1, 50), 3], "<=", 0)
    lp.add_constraint([0, 0, 1, 0], "<=", 1)
    for j in range(4):
        coeffs = [0] * 4
        coeffs[j] = 1
        lp.add_constraint(coeffs, ">=", 0)
    out = lp.solve()
    assert out.status is LpStatus.OPTIMAL
    assert out.objective == F(-1, 20)


def test_fixed_variable_row_gives_a_dual():
    # singleton rows are ordinary rows: duals exist for every row as entered
    system = LinearSystem(2).minimize([1, 1])
    system.add_constraint([2, 0], "==", 3)  # x = 3/2
    system.add_constraint([0, 1], ">=", 5)
    out = system.solve()
    assert out.solution == (F(3, 2), F(5))
    assert out.objective == F(13, 2)
    assert out.dual == (F(1, 2), F(1))
    assert dot(out.dual, (3, 5)) == out.objective


def test_conflicting_singleton_rows_are_infeasible():
    lp = LinearSystem(1)
    lp.add_constraint([1], "==", 1)
    lp.add_constraint([1], ">=", 2)
    assert lp.solve().status is LpStatus.INFEASIBLE


# -- conic primitives ---------------------------------------------------------


def test_membership_inside_2d_cone():
    gens = [(F(1), F(0)), (F(1), F(1))]
    res = conic_membership(lp._over_lcm((F(3), F(1))), int_columns(gens))
    assert res.member and res.route == "exact-lp"
    assert fractions(res.witness) == ((0, F(2)), (1, F(1)))


def test_membership_outside_2d_cone():
    gens = [(F(1), F(0)), (F(1), F(1))]
    res = conic_membership(lp._over_lcm((F(0), F(1))), int_columns(gens))
    assert not res.member
    assert res.separator is not None
    assert is_separator(gens, (F(0), F(1)), res.separator)


def test_zero_target_is_rejected():
    # pointedness is a property of the cone, not a membership question
    with pytest.raises(LpError, match="contains_zero"):
        conic_membership(lp._over_lcm((F(0), F(0))), int_columns([(F(1), F(2))]))


def test_empty_generator_list():
    res = conic_membership(lp._over_lcm((F(1), F(-2))), [])
    assert not res.member
    assert is_separator([], (F(1), F(-2)), res.separator)
    assert not contains_zero([], 2).exists


def test_contains_zero_detects_opposite_rays():
    rays = [(F(1), F(-1)), (F(-1), F(1))]
    res = contains_zero(int_columns(rays), 2)
    assert res.exists and res.route == "exact-lp"
    assert fractions(res.combination) == ((0, F(1, 2)), (1, F(1, 2)))
    assert is_witness(rays, (F(0), F(0)), res.combination)


def test_contains_zero_negative_for_pointed_cone():
    gens = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    res = contains_zero(int_columns(gens), 2)
    assert not res.exists and res.combination is None
    # the separator of (0, 0, 1) from the lifted columns; without its last
    # entry it scores every column strictly positive
    lifted = [g + (F(1),) for g in gens]
    assert is_separator(lifted, (F(0), F(0), F(1)), res.separator)
    assert all(sum(a * b for a, b in zip(res.separator, g)) > 0 for g in gens)


def test_dimension_mismatch_rejected():
    # a column index outside the target's dimension
    gens = int_columns([(F(1), F(0)), (F(0), F(0), F(1))])
    with pytest.raises(ValueError, match="one dimension"):
        conic_membership(lp._over_lcm((F(1), F(0))), gens)
    with pytest.raises(ValueError, match="one dimension"):
        contains_zero([(((-1, 1),), 1)], 2)
    with pytest.raises(ValueError, match="at least 1"):
        conic_membership(lp._over_lcm(()), [])


def test_lower_prevision_is_the_largest_constant_shift():
    atoms = [(F(1), F(0)), (F(0), F(1))]
    assert lower_prevision((F(2), F(3)), atoms) == 2
    assert lower_prevision((F(1), F(-1)), atoms + [(F(1), F(-1))]) == 0
    # a cone holding -1 lets every constant through
    with pytest.raises(LpError, match="unbounded"):
        lower_prevision((F(1), F(0)), atoms + [(F(-1), F(-1))])


def test_lower_prevision_rejects_a_wrong_optimum(monkeypatch):
    atoms = [(F(1), F(0)), (F(0), F(1))]
    target = (F(2), F(3))  # lower prevision 2
    solve = lp._solve_standard

    def answer(x_values):
        def fake(rows, rhs, cost):
            status, _, y, ray = solve(rows, rhs, cost)
            return status, [lp._Q(v) for v in x_values], y, ray

        return fake

    # feasible but not optimal: m = 1 with f - 1 = (1, 2); the duals expose it
    monkeypatch.setattr(lp, "_solve_standard", answer([1, 2, 1, 0]))
    with pytest.raises(LpError, match="dual"):
        lower_prevision(target, atoms)
    # too large: m = 3 with no coefficients does not reproduce f - 3
    monkeypatch.setattr(lp, "_solve_standard", answer([0, 0, 3, 0]))
    with pytest.raises(LpError, match="primal"):
        lower_prevision(target, atoms)


def test_an_infinite_prevision_needs_a_verified_ray_or_farkas_vector(monkeypatch):
    atoms = [(F(1), F(0)), (F(0), F(1))]
    sink = [(F(-1), F(-1))]
    # -1 in the cone: +infinity; only -1 in the cone and f = (1, 0): -infinity
    with pytest.raises(lp.InfinitePrevisionError, match="unbounded"):
        lower_prevision((F(1), F(0)), atoms + sink)
    with pytest.raises(lp.InfinitePrevisionError, match="infeasible"):
        lower_prevision((F(1), F(0)), sink)
    solve = lp._solve_standard

    def answer(change_y=None, ray=None, status=None):
        # tampers with the prevision LP only, the one with a cost
        def fake(rows, rhs, cost):
            s, x, y, r = solve(rows, rhs, cost)
            if not any(cost):
                return s, x, y, r
            if change_y is not None:
                y = change_y(y)
            return status or s, x, y, ray if ray is not None else r

        return fake

    def solver_fault(target, tables):
        with pytest.raises(LpError) as raised:
            lower_prevision(target, tables)
        assert type(raised.value) is LpError
        assert "failed verification" in str(raised.value)

    # a Farkas vector (integers over a denominator) negated, or shifted off
    # the zero sum of m+ and m-
    monkeypatch.setattr(lp, "_solve_standard", answer(lambda y: ([-v for v in y[0]], y[1])))
    solver_fault((F(1), F(0)), sink)
    monkeypatch.setattr(
        lp, "_solve_standard", answer(lambda y: ([y[0][0] + y[1], y[0][1]], y[1]))
    )
    solver_fault((F(1), F(0)), sink)
    # rays that lower m, leave the cone's combination nonzero, or go negative
    for ray in ([0, 0, 1, 0, 1], [0, 0, 0, 1, 0], [1, 0, 1, 1, 0], [-1, 0, 1, 1, 0]):
        monkeypatch.setattr(lp, "_solve_standard", answer(ray=[F(v) for v in ray]))
        solver_fault((F(1), F(0)), atoms + sink)
    # a true ray of -1 in the cone, claimed where no shift is feasible
    ray = [F(1), F(1), F(0)]
    monkeypatch.setattr(lp, "_solve_standard", answer(ray=ray, status=LpStatus.UNBOUNDED))
    solver_fault((F(1), F(0)), sink)


# -- brute-force cross-check --------------------------------------------------


def solve_exact(columns, target):
    """Solve sum l_k columns[k] = target exactly; None if inconsistent or
    underdetermined on the chosen columns."""
    dim = len(target)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(dim)]
    row = 0
    pivots = []
    for col in range(k):
        pr = next((r for r in range(row, dim) if aug[r][col] != 0), None)
        if pr is None:
            return None  # dependent column: a smaller subset covers this case
        aug[row], aug[pr] = aug[pr], aug[row]
        piv = aug[row][col]
        aug[row] = [v / piv for v in aug[row]]
        for r in range(dim):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == dim:
            break
    if any(any(aug[r][c] != 0 for c in range(k)) == False and aug[r][k] != 0 for r in range(row, dim)):
        return None
    for r in range(row, dim):
        if aug[r][k] != 0:
            return None
    sol = [F(0)] * k
    for r, c in enumerate(pivots):
        sol[c] = aug[r][k]
    return sol


def brute_force_member(gens, target):
    """Caratheodory: check subsets of size <= dim for an exact nonneg solve."""
    dim = len(target)
    for size in range(1, min(len(gens), dim) + 1):
        for subset in combinations(range(len(gens)), size):
            sol = solve_exact([gens[j] for j in subset], target)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def _nonzero_vector(rng, dim):
    vec = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
    while all(v == 0 for v in vec):
        vec = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
    return vec


def test_membership_agrees_with_brute_force():
    rng = random.Random(20240817)
    for _ in range(150):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 6)
        gens = [
            tuple(F(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(n)
        ]
        gens = [g for g in gens if any(v != 0 for v in g)] or [
            tuple(F(1) for _ in range(dim))
        ]
        target = _nonzero_vector(rng, dim)
        res = conic_membership(lp._over_lcm(target), int_columns(gens))
        assert res.member == brute_force_member(gens, target)
        if res.member:
            assert is_witness(gens, target, res.witness)
        else:
            assert is_separator(gens, target, res.separator)


def test_two_sided_membership_forces_a_vanishing_combination():
    # if t and -t are both nonneg combinations, their sum certifies 0
    rng = random.Random(424242)
    hits = 0
    for _ in range(200):
        dim = rng.randint(1, 3)
        n = rng.randint(2, 5)
        gens = [_nonzero_vector(rng, dim) for _ in range(n)]
        target = _nonzero_vector(rng, dim)
        forward = conic_membership(lp._over_lcm(target), int_columns(gens))
        if not forward.member:
            continue
        backward = conic_membership(lp._over_lcm(tuple(-v for v in target)), int_columns(gens))
        if not backward.member:
            continue
        hits += 1
        assert contains_zero(int_columns(gens), dim).exists
    assert hits >= 10


def test_solver_is_deterministic():
    rng = random.Random(7)
    gens = [tuple(F(rng.randint(-3, 3)) for _ in range(4)) for _ in range(8)]
    target = _nonzero_vector(rng, 4)
    first = conic_membership(lp._over_lcm(target), int_columns(gens))
    for _ in range(3):
        again = conic_membership(lp._over_lcm(target), int_columns(gens))
        assert again == first


# -- pinned pivot sequence ----------------------------------------------------

# Status, pivot count, final basis and every returned value of the kernel on
# fixed LPs, recorded from the rational (Fraction) tableau the integer kernel
# replaced.  The integer kernel must take exactly the same pivots.
PINNED = Path(__file__).with_name("pinned_pivots.json")
PINNED_RANDOM_SEED = 30_011_968


def random_standard_lp(rng):
    """A small standard-form LP with entries p/q, |p| <= 3, 1 <= q <= 3."""

    def value():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    m, n = rng.randint(1, 5), rng.randint(1, 7)
    rows = [[value() for _ in range(n)] for _ in range(m)]
    rhs = [value() for _ in range(m)]
    cost = [value() if rng.random() < 0.7 else F(0) for _ in range(n)]
    return rows, rhs, cost


def pinned_random_lps():
    rng = random.Random(PINNED_RANDOM_SEED)
    return [random_standard_lp(rng) for _ in range(200)]


def parse_matrix(rows):
    return [[F(v) for v in row.split()] for row in rows]


def kernel_record(rows, rhs, cost):
    # the pinned rational rows and right-hand side, each as integers over
    # its lcm, which is what the kernel reads
    tableau = lp._Tableau([lp._over_lcm(row) for row in rows], lp._over_lcm(rhs), cost)
    status, x, y, ray = tableau.solve()

    def text(vec):
        return None if vec is None else [str(v) for v in vec]

    return {
        "status": status.value,
        "pivots": tableau.pivots,
        "basis": list(tableau.basis),
        "x": text(x),
        "y": text(None if y is None else [F(v, y[1]) for v in y[0]]),
        "ray": text(ray),
    }


RECORD_KEYS = ("status", "pivots", "basis", "x", "y", "ray")


def test_kernel_reproduces_the_pinned_pivots_on_named_lps():
    # beale: the standard form LinearSystem builds for Beale's example;
    # bland-switch: a degenerate vanishing-combination LP on which the
    # stall counter switches to Bland's rule; redundant-equality: the
    # drive-out pivots on a negative entry and an artificial stays basic;
    # mixed-denominators: rows over different denominators, one flipped;
    # chain-*: the 64-row joint member LPs of a 6-node binary chain
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert [case["name"] for case in pinned["named"]] == [
        "beale",
        "bland-switch",
        "redundant-equality",
        "mixed-denominators",
        "chain-member",
        "chain-non-member",
    ]
    for case in pinned["named"]:
        rows = parse_matrix(case["rows"])
        got = kernel_record(rows, [F(v) for v in case["rhs"]], [F(v) for v in case["cost"]])
        assert got == {k: case[k] for k in RECORD_KEYS}, case["name"]


def test_kernel_reproduces_the_pinned_pivots_on_random_lps():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["random"]
    assert pinned["seed"] == PINNED_RANDOM_SEED
    lps = pinned_random_lps()
    assert len(pinned["records"]) == len(lps)
    for k, (lp_k, expected) in enumerate(zip(lps, pinned["records"])):
        assert kernel_record(*lp_k) == expected, k
    statuses = {r["status"] for r in pinned["records"]}
    assert statuses == {"optimal", "infeasible", "unbounded"}


# -- integer certificate checks -----------------------------------------------

EPS = F(1, 10**12)


def sign(v):
    return (v > 0) - (v < 0)


def test_integer_sign_of_a_dot_product_is_the_rational_sign():
    rng = random.Random(2026)
    dens = [1, 2, 3, 7, 12, 10**6, 10**12, 10**12 + 39]

    def vector(n):
        return [F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)]

    margins = 0
    for trial in range(600):
        n = rng.randint(1, 9)
        y, g = vector(n), vector(n)
        nonzero = [j for j, v in enumerate(y) if v]
        if nonzero and trial % 2:
            # move one entry of g so that y.g lands exactly on -eps, 0 or +eps
            j = rng.choice(nonzero)
            g[j] += (rng.choice([-EPS, F(0), EPS]) - dot(y, g)) / y[j]
            margins += 1
        ints, _ = lp._over_lcm(y)
        assert sign(lp._score(ints, lp._int_vector(enumerate(g)))) == sign(dot(y, g))
    assert margins > 250


def test_separator_scoring_one_generator_at_minus_eps_is_rejected():
    target = (F(-1), F(-1))
    y = (F(1), F(1))
    gens = [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(-1, 2))]
    assert is_separator(gens, target, y)  # the third scores exactly 0
    gens[2] = (F(1, 2), F(-1, 2) - EPS)  # and now exactly -1/10^12
    assert dot(y, gens[2]) == -EPS
    assert not is_separator(gens, target, y)


def test_witness_missing_the_target_by_eps_is_rejected():
    # lp._combines, the one witness check, and the dense Fraction sum agree
    gens = [(F(1), F(0)), (F(0), F(1))]
    cases = [
        ((F(2), F(3)), lp._int_vector(((0, F(2)), (1, F(3)))), True),
        ((F(2), F(3)), lp._int_vector(((0, F(2)), (1, F(3) - EPS))), False),
        ((F(2), F(3)), lp._int_vector(((0, F(2)), (1, F(3)), (1, EPS))), False),
        ((F(2), F(3) + EPS), lp._int_vector(((0, F(2)), (1, F(3)))), False),
        # the right rationals over a denominator that is not positive
        ((F(2), F(3)), (((0, -2), (1, -3)), -1), False),
        ((F(0), F(0)), ((), 0), False),
    ]
    for target, witness, holds in cases:
        goal = lp._int_vector(enumerate(target))
        assert lp._combines(int_columns(gens), witness, goal) is holds
        assert is_witness(gens, target, witness) is holds


def test_lower_prevision_rejects_a_dual_that_misses_by_one_over_den(monkeypatch):
    atoms = [(F(1), F(0)), (F(0), F(1))]
    target = (F(2), F(3))  # lower prevision 2, dual mass (1, 0)
    den = 10**12
    solve = lp._solve_standard
    seen = []

    def fake(rows, rhs, cost):
        status, x, y, ray = solve(rows, rhs, cost)
        seen.append([F(-v, y[1]) for v in y[0]])
        # sums to 1, nonnegative on both atoms, expectation 2 + 1/den
        return status, x, ([-(den - 1), -1], den), ray

    assert lower_prevision(target, atoms) == 2
    monkeypatch.setattr(lp, "_solve_standard", fake)
    with pytest.raises(LpError, match="dual"):
        lower_prevision(target, atoms)
    assert seen == [[F(1), F(0)]]


def test_work_cap_refuses_before_building_anything(monkeypatch):
    monkeypatch.setattr(lp, "_MAX_CELLS", 3 * (4 + 3 + 1))
    lp._check_work(3, 4)
    with pytest.raises(lp.WorkCapError) as err:
        lp._check_work(3, 5)
    assert (err.value.cells, err.value.cap) == (27, 24)
    assert isinstance(err.value, LpError)
