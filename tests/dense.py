"""Dense generator tables in the integer column form the LP primitives take.

The package holds every generator as an integer column (lp.IntVector) from
the local cone to the LP; tests that state their generators as dense tables
convert them here, and check certificates against them with the same exact
integer checks the primitives run, except is_witness, which sums an integer
witness in Fractions on the dense tables.  positivity_audit is the dense Fraction
reference for oracle.positivity_audit, and product_mass for
net.JointModel._product_mass, and fm_membership the Fraction reference for
oracle.fm_membership.  DenseCone is the reference for the coherence and
membership answers of cone.AssessmentCone: dense indicator atoms, the
coherence quick route on dense tables, and LPs laid out as Fraction rows
for a kernel that reads rational rows and returns Fractions
(fraction_rows, FractionTableau).
"""

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from credalcones import lp
from credalcones.cone import CoherenceReport
from credalcones.core import indicator
from credalcones.lp import (
    EXACT_LP,
    LpError,
    LpStatus,
    Membership,
    _combines,
    _int_vector,
    _over_lcm,
    _primitive,
    _score,
    _separates,
)
from credalcones.oracle import (
    _FM_MAX_ROWS,
    FM_MAX_DIM,
    FM_MAX_GENERATORS,
    AuditReport,
    WitnessMismatchError,
)


def primitive(vec):
    """lp._primitive of a rational vector, put over its lcm first."""
    return _primitive(_over_lcm(vec)[0])


def int_columns(tables):
    """Each dense table as an integer column (lp.IntVector)."""
    return [_int_vector(enumerate(t)) for t in tables]


def is_witness(tables, target, witness):
    """The witness, an lp.IntVector ((index, n), ...), den over the tables'
    indices, has den > 0 and every n >= 0, and combines the tables to the
    target, summed as Fractions on the dense tables (not by lp._combines)."""
    tables, (pairs, den) = list(tables), witness
    if den <= 0 or any(n < 0 or not 0 <= k < len(tables) for k, n in pairs):
        return False
    total = [Fraction(0)] * len(target)
    for k, n in pairs:
        coefficient = Fraction(n, den)
        for j, v in enumerate(tables[k]):
            if v:
                total[j] += coefficient * v
    return total == list(target)


def fractions(vector):
    """An lp.IntVector's (index, coefficient) pairs, as Fractions."""
    pairs, den = vector
    return tuple((k, Fraction(n, den)) for k, n in pairs)


def masses(dual):
    """A dual mass function, an integer row over its denominator, as Fractions."""
    row, den = dual
    return tuple(Fraction(v, den) for v in row)


def is_separator(tables, target, y):
    """y scores every table nonnegative and the target negative."""
    return _separates(int_columns(tables), _int_vector(enumerate(target)), y)


def is_positive_pmf(tables, y):
    """y is a pmf with every entry positive that gives every table a
    positive expectation, summed as Fractions."""
    return (
        sum(y) == 1
        and all(v > 0 for v in y)
        and all(sum((a * b for a, b in zip(y, t)), Fraction(0)) > 0 for t in tables)
    )


def product_mass(joint, kernel):
    """JointModel._product_mass by brute force, as Fractions: one Fraction
    per node per joint configuration, each configuration decoded by its
    values rather than the joint index maps.  A kernel is an integer row
    over its denominator, as there."""
    net = joint.net
    mass = []
    for config in joint.space.configurations():
        value = dict(zip(config.nodes, config.values))
        y = Fraction(1)
        for s in net.dag.nodes:
            p_space, n_space = net.parent_space(s), net.nnd_space(s)
            p = p_space.index_of(p_space.configuration({x: value[x] for x in p_space.nodes}))
            n = n_space.index_of(n_space.configuration({x: value[x] for x in n_space.nodes}))
            row, den = kernel(s, p, n)
            y *= Fraction(row[net.variables[s].index_of(value[s])], den)
        mass.append(y)
    return mass


def positivity_audit(precise, joint, rng=None, samples=50):
    """oracle.positivity_audit by brute force: every generator and every
    random combination laid out as a dense Fraction table and summed
    against the global masses, drawing from rng exactly as the oracle does."""
    rng = rng if rng is not None else random.Random(0)
    net = precise.net
    if joint.net is not net:
        raise ValueError("joint model and precise network disagree on the net")
    for s in net.dag.nodes:
        for p_idx in range(net.parent_space(s).size):
            for g in net.local_cone(s, p_idx).generators:
                if precise.local_expectation(s, p_idx, g) <= 0:
                    raise WitnessMismatchError(
                        f"kernel for ({s!r}, {p_idx}) gives a local generator "
                        f"nonpositive expectation"
                    )

    space = net.joint_space
    masses = [precise.global_mass(c) for c in space.configurations()]
    total = sum(masses, Fraction(0))

    failures = []
    for k, (entries, den) in enumerate(joint.generators):
        score = sum((masses[j] * v for j, v in entries), Fraction(0)) / den
        if score <= 0:
            failures.append(f"generator {k} scored {score}")

    n = len(joint.generators)
    checked = 0
    for _ in range(samples):
        picks = rng.sample(range(n), rng.randint(1, min(4, n)))
        coeffs = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in picks]
        table = [Fraction(0)] * space.size
        for k, lam in zip(picks, coeffs):
            entries, den = joint.generators[k]
            for j, v in entries:
                table[j] += lam * v / den
        score = sum((m * v for m, v in zip(masses, table)), Fraction(0))
        checked += 1
        if score <= 0:
            failures.append(
                f"combination of generators {sorted(picks)} scored {score}"
            )
    return AuditReport(
        checked=checked,
        generators_checked=n,
        all_positive=not failures,
        total_mass_one=total == 1,
        failures=tuple(failures),
    )


def fm_membership(
    target: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]
) -> bool:
    """oracle.fm_membership with its elimination in Fractions, each pivot
    row divided by its pivot, and every bound row l_k >= 0 carried through
    every pivot.  Is target a nonnegative combination of the generators?

    Same semantics as the LP primitive (zero targets rejected alike),
    decided by projection: the equalities are removed by exact Gaussian
    substitution, then the remaining coefficient variables are eliminated
    one by one, combining each lower bound with each upper bound.
    Feasible iff no contradictory constant row survives.

    Guards: at most FM_MAX_DIM dimensions and FM_MAX_GENERATORS generators;
    projection can blow up combinatorially beyond desk scale.
    """
    dim = len(target)
    n = len(generators)
    if dim == 0:
        raise ValueError("dimension must be at least 1")
    if all(v == 0 for v in target):
        raise ValueError("zero target is not a membership query; use contains_zero")
    if dim > FM_MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the FM guard ({FM_MAX_DIM})")
    if n > FM_MAX_GENERATORS:
        raise ValueError(f"{n} generators exceed the FM guard ({FM_MAX_GENERATORS})")
    if any(len(g) != dim for g in generators):
        raise ValueError("generators and target must share one dimension")

    # equalities sum_k a_k l_k = c; inequalities sum_k a_k l_k >= c
    equalities = [
        [Fraction(generators[k][i]) for k in range(n)] + [Fraction(target[i])]
        for i in range(dim)
    ]
    inequalities: list[list[Fraction]] = []
    for k in range(n):
        row = [Fraction(0)] * (n + 1)
        row[k] = Fraction(1)
        inequalities.append(row)

    # Gaussian substitution of one variable per equality row
    eliminated: set[int] = set()
    for eq in range(len(equalities)):
        row = equalities[eq]
        pivot = next(
            (k for k in range(n) if k not in eliminated and row[k] != 0), None
        )
        if pivot is None:
            if row[n] != 0:
                return False  # 0 = nonzero
            continue
        piv = row[pivot]
        row = [v / piv for v in row]
        equalities[eq] = row
        for other in range(len(equalities)):
            if other != eq and equalities[other][pivot] != 0:
                f = equalities[other][pivot]
                equalities[other] = [
                    a - f * b for a, b in zip(equalities[other], row)
                ]
        for i in range(len(inequalities)):
            if inequalities[i][pivot] != 0:
                f = inequalities[i][pivot]
                inequalities[i] = [a - f * b for a, b in zip(inequalities[i], row)]
        eliminated.add(pivot)

    free = [k for k in range(n) if k not in eliminated]

    # prune and normalize; constant rows must already hold
    def sift(rows: Iterable[Sequence[Fraction]]) -> Optional[set]:
        kept = set()
        for r in rows:
            if all(r[k] == 0 for k in free):
                if r[n] > 0:
                    return None  # 0 >= positive: contradiction
                continue
            kept.add(primitive(tuple(r[k] for k in free) + (r[n],)))
        return kept

    rows = sift(inequalities)
    if rows is None:
        return False
    width = len(free)

    # Imbert's acceleration: every irredundant row of the k-th projection
    # is a combination of at most k + 1 rows of the starting system, so a
    # combined row drawing on more originals than that is redundant and is
    # dropped.  Histories are sets of starting-row indices.
    table: dict[tuple, frozenset] = {
        r: frozenset([i]) for i, r in enumerate(sorted(rows))
    }

    steps = 0
    for _ in range(width):
        live = [v for v in range(width) if any(r[v] != 0 for r in table)]
        if not live:
            break
        # eliminate the variable producing the fewest combined rows
        def cost(v):
            pos = sum(1 for r in table if r[v] > 0)
            neg = sum(1 for r in table if r[v] < 0)
            return (pos * neg, v)

        var = min(live, key=cost)
        pos = [(r, h) for r, h in table.items() if r[var] > 0]
        neg = [(r, h) for r, h in table.items() if r[var] < 0]
        keep = {r: h for r, h in table.items() if r[var] == 0}
        steps += 1
        for p, hist_p in pos:
            for q, hist_q in neg:
                history = hist_p | hist_q
                if len(history) > steps + 1:
                    continue
                # p[var] * q - q[var] * p has a zero var coefficient; signs
                # keep the >= direction because p[var] > 0 > q[var]
                combined = tuple(
                    p[var] * qv - q[var] * pv for pv, qv in zip(p, q)
                )
                if all(combined[k] == 0 for k in range(width)):
                    if combined[width] > 0:
                        return False
                    continue
                norm = primitive(combined)
                known = keep.get(norm)
                if known is None or len(history) < len(known):
                    keep[norm] = history
                if len(keep) > _FM_MAX_ROWS:
                    raise RuntimeError("Fourier-Motzkin row blow-up")
        table = keep

    return all(r[width] <= 0 for r in table if all(r[k] == 0 for k in range(width)))


# -- local cones from dense atoms and Fraction rows ---------------------------


def fraction_rows(columns, dim):
    """Row i holds coordinate i of every integer column, as a Fraction."""
    rows = [[0] * len(columns) for _ in range(dim)]
    for k, (entries, den) in enumerate(columns):
        for j, n in entries:
            rows[j][k] = Fraction(n, den)
    return rows


class FractionTableau(lp._Tableau):
    """The pivot kernel on rational rows: each row with its right-hand side
    put over the lcm of its Fractions' denominators, and every result, the
    duals too, returned as Fractions."""

    def __init__(self, rows, rhs, cost):
        self.m = m = len(rows)
        self.n = n = len(cost)
        self.cost = cost
        self.flip, self.rows, self.dens = [], [], []
        for i in range(m):
            ints, den = _over_lcm([*rows[i], rhs[i]])
            flip = ints[-1] < 0
            if flip:
                ints = [-v for v in ints]
            self.flip.append(flip)
            row = ints[:n] + [0] * m + ints[n:]
            row[n + i] = den
            self.rows.append(row)
            self.dens.append(den)
        self.basis = [n + i for i in range(m)]
        self.obj, self.obj_den, self.pivots = [], 1, 0

    def solve(self):
        m, n = self.m, self.n
        rows, dens, basis = self.rows, self.dens, self.basis
        self._set_objective([0] * n + [1] * m)
        if self._run(n + m) is not None:
            raise LpError("phase 1 cannot be unbounded")
        if self.obj[-1] < 0:
            d = self.obj_den
            y = [Fraction(d - self.obj[n + i], d) for i in range(m)]
            return LpStatus.INFEASIBLE, None, self._unflip(y), None
        for i in range(m):
            if basis[i] >= n:
                j = next((j for j in range(n) if rows[i][j]), None)
                if j is not None:
                    self._pivot(i, j)
        self._set_objective(self.cost)
        if self._run(n) is not None:
            raise LpError("a cone LP has no cost to be unbounded in")
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(rows[i][-1], dens[i])
        d = self.obj_den
        y = [Fraction(-self.obj[n + i], d) for i in range(m)]
        return LpStatus.OPTIMAL, x, self._unflip(y), None


def dense_membership(target, columns):
    """lp.conic_membership of a dense Fraction target, on Fraction rows."""
    goal = _int_vector(enumerate(target))
    if columns:
        rows = fraction_rows(columns, len(target))
        status, x, y, _ = FractionTableau(rows, target, [0] * len(columns)).solve()
    else:
        status, y = LpStatus.INFEASIBLE, target
    if status is LpStatus.OPTIMAL:
        witness = _int_vector(enumerate(x))
        assert _combines(columns, witness, goal)
        return Membership(member=True, route=EXACT_LP, witness=witness)
    separator = primitive([-v for v in y])
    assert _separates(columns, goal, separator)
    return Membership(member=False, route=EXACT_LP, separator=separator)


class DenseCone:
    """An assessment cone with its atoms built as dense indicators: the
    coherence quick route and LP and the membership routes of
    cone.AssessmentCone, each LP on Fraction rows (dense_membership)."""

    def __init__(self, space, assessments=()):
        self.space = space
        self.assessments = tuple(f.extend(space) for f in assessments)
        atoms = tuple(indicator(space.config_at(i), space) for i in range(space.size))
        self.generators = self.assessments + atoms
        self.columns = int_columns(g.table for g in self.generators)
        self.report = None

    def is_coherent(self):
        if self.report is None:
            self.report = self._decide_coherence()
        return self.report

    def _decide_coherence(self):
        # the quick route: the first assessment g <= 0 vanishes with -g(x)
        # times each atom x
        first_atom, dim = len(self.assessments), self.space.size
        for k, g in enumerate(self.assessments):
            if all(v <= 0 for v in g.table):
                certificate = [Fraction(0)] * len(self.generators)
                certificate[k] = Fraction(1)
                certificate[first_atom:] = [-v for v in g.table]
                return CoherenceReport(coherent=False, certificate=tuple(certificate))
        lifted = [((*entries, (dim, den)), den) for entries, den in self.columns]
        res = dense_membership((Fraction(0),) * dim + (Fraction(1),), lifted)
        if res.member:
            pairs, den = res.witness
            combination = dict(pairs)
            certificate = tuple(Fraction(combination.get(k, 0), den) for k in range(len(lifted)))
            return CoherenceReport(coherent=False, certificate=certificate)
        y = res.separator[:-1]
        return CoherenceReport(coherent=True, witness=tuple(Fraction(v, sum(y)) for v in y))

    def member_with_certificate(self, f):
        f = f.extend(self.space)
        if f.is_zero:
            return Membership(member=False, route="zero-convention")
        target = _int_vector(enumerate(f.table))
        entries, den = target
        if all(n > 0 for _, n in entries):
            first_atom = len(self.assessments)
            witness = tuple((first_atom + j, n) for j, n in entries), den
            if _combines(self.columns, witness, target):
                return Membership(member=True, route="positive-span", witness=witness)
        report = self.is_coherent()
        if report.coherent:
            separator = primitive(report.witness)
            if _score(separator, target) < 0:
                return Membership(member=False, route="cached-separator", separator=separator)
        return dense_membership(f.table, self.columns)
