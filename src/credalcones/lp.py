"""Exact rational linear programming.

A dense two-phase primal simplex in exact arithmetic; LinearSystem, an
inequality-form front end whose optimum comes with its row duals (a
public export that no module of the package solves with); and the
three conic primitives the rest of the package is built on: membership of a
vector in the nonnegative span of finitely many generators (with a
witness or a separating functional), detection of a vanishing
nonnegative combination, and the lower prevision of a vector (the
largest constant it exceeds within the closed cone), which
_checked_prevision returns with its verified primal combination and dual
mass function for callers that lift them, or raises InfinitePrevisionError
once the ray or Farkas vector of an infinite one is verified.

A prevision LP over fixed columns keeps its matrix and cost from call to
call; only the target, its right-hand side, moves.  So an optimal basis B
of one solve stays dual feasible for every target, and is optimal for a
new target t exactly when B^-1 t is nonnegative on B's generators (the
shift is free; Chvatal, Linear Programming, 1983, ch. 10).
_prevision_at_basis walks from such a B to t's optimal basis by dual
simplex pivots; with no basis yet, it starts at _atoms_basis, which is
primal feasible for every target, and takes primal pivots.  Both walks
pivot on B^-1 itself, integer rows over one denominator, under Bland's
rule, and no tableau is built.  At a fixed B both certificates are
functions of B: the dual is the first row of B^-1 and the primal is
B^-1 t.  So the basis a walk ends at is checked once before it answers
(_certified_mass: B^-1 B = den I, and a dual that scores every column
nonnegative), and every answer read at it needs no check beyond primal
feasibility (_answer_at).  Every other prevision answer, a tableau
solve's, is checked on its own by _prevision_fault.

The primitives take each generator as an integer column (IntVector),
built once by cone or net, and conic_membership a dense target as integers
over one denominator; only _coordinate_rows lays the columns out densely,
as integer rows for the tableau.  Every answer returned by this
module is checked by exact substitution against those columns before it
leaves, on its own or, when read at a prevision basis, by that basis's
one check; an unverifiable certificate is a solver bug and raises, never
a wrong answer.  The checks run in exact integer arithmetic over the nonzero
entries only (_combines, _score): a sign test scales each vector by the lcm
of its denominators, which is positive and so keeps the sign, and an
equality is cross-multiplied by the denominators.  They decide exactly what
the rational substitution decides.  Every certificate is integers from the
LP to the caller: a separator is coprime integers (_primitive), a witness
or primal an IntVector over generator indices, a dual mass an IntRow; only
a value, the lower prevision m, is a Fraction.

The pivot kernel works on Python ints: every tableau row is a list of
integers over one positive row denominator, divided by their gcd after
each update.  Every cell equals the cell of the rational tableau, so the
pivots, bases and certificates are exactly those of the rational simplex
(see _Tableau).  It reads integer rows and returns the row duals as
integers over one denominator, which a separator or a dual mass is read
from as they are; only the primal solution and ray come out as Fractions,
each turned into an IntVector once (_int_vector).  LinearSystem, the one
holder of rational rows, converts them once with _over_lcm.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .core import RationalLike, _over_lcm, as_rational

# the number type of the kernel's primal results, reported as the
# arithmetic backend by perfbench/run.py
_Q = Fraction

# After this many consecutive pivots without objective progress the solver
# abandons the steepest-descent rule for Bland's rule, which cannot cycle.
_STALL_LIMIT = 40

_MAX_PIVOTS = 2_000_000

# The largest tableau an LP may ask for, in cells: rows x (columns + rows +
# 1), the constraint matrix with one artificial column per row and the
# right-hand side.  A cell is a Python int of 30 bytes or more, so this
# bounds a tableau near 1 GB; the 7-node ternary chain (1.4e7 cells) fits.
_MAX_CELLS = 20_000_000


class LpError(RuntimeError):
    """Internal solver failure (certificate did not verify, pivot overrun)."""


class PivotLimitError(LpError):
    """The simplex took more than _MAX_PIVOTS pivots."""


class InfinitePrevisionError(LpError):
    """A lower prevision is +infinity (unbounded LP) or -infinity (infeasible),
    raised only once the LP's ray or Farkas vector has been verified."""


class WorkCapError(LpError):
    """An LP's tableau would have more than _MAX_CELLS cells."""

    def __init__(self, cells: int, cap: int):
        super().__init__(f"LP tableau would have {cells} cells, cap is {cap}")
        self.cells = cells
        self.cap = cap


def _check_work(rows: int, columns: int) -> None:
    """Refuse an LP of this many rows and columns before anything of its
    size is allocated."""
    cells = rows * (columns + rows + 1)
    if cells > _MAX_CELLS:
        raise WorkCapError(cells, _MAX_CELLS)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _primitive(ints) -> tuple[int, ...]:
    """An integer vector over the gcd of its entries, preserving sign: the
    one form of a separator; zero stays zero.  Built from a list: a tuple
    grown from a generator leaves dead tuples on CPython's free lists."""
    g = gcd(*ints)
    return tuple(ints) if g < 2 else tuple([n // g for n in ints])


class _Tableau:
    """Simplex on min c.x s.t. A x = b, x >= 0, in exact integer arithmetic.

    A comes as integer rows, each over its positive denominator, and b as
    integers over one positive denominator (_coordinate_rows, _over_lcm);
    row i and b_i are put over the lcm of the two.  The cost is rational.

    Row i of the tableau is a list of Python ints `rows[i]` over one positive
    row denominator `dens[i]`: its cell j is rows[i][j] / dens[i].  The
    reduced-cost row is stored the same way (`obj` over `obj_den`).  A pivot
    on (r, c) makes the pivot row's denominator its (positive) pivot entry
    p and updates every row i with f = rows[i][c] != 0 as
    rows[i] <- p rows[i] - f rows[r], dens[i] <- dens[i] p; every updated
    row is divided by the gcd of its entries and denominator.  Rows with a
    zero in the pivot column are left alone.

    Every cell therefore equals the cell of the rational tableau, so the
    pivots are the rational simplex's: Dantzig pricing compares integers
    over one denominator, the ratio rows[i][-1] / rows[i][c] is compared by
    cross-multiplication (the row denominator cancels), ties go to the
    lowest basic column, and the stall counter cross-multiplies objective
    values.  No row of the LP itself is ever rescaled, which would change
    the phase-1 objective and the pricing.

    Artificial columns are kept through phase 2 (banned from entering) so
    that they hold the basis inverse; duals and Farkas vectors are read off
    their reduced costs.
    """

    def __init__(self, rows, rhs, cost):
        self.m = m = len(rows)
        self.n = n = len(cost)
        self.cost = cost
        self.flip = []
        self.rows = []
        self.dens = []
        b, b_den = rhs
        for i, (ints, den) in enumerate(rows):
            common = lcm(den, b_den)
            row = [v * (common // den) for v in ints] + [0] * m + [b[i] * (common // b_den)]
            flip = row[-1] < 0
            if flip:
                row = [-v for v in row]
            self.flip.append(flip)
            row[n + i] = common
            self.rows.append(row)
            self.dens.append(common)
        self.basis = [n + i for i in range(m)]
        self.obj: list[int] = []
        self.obj_den = 1
        self.pivots = 0

    def _pivot(self, pr: int, pc: int) -> None:
        rows, dens = self.rows, self.dens
        prow = rows[pr]
        if prow[pc] < 0:
            prow = [-v for v in prow]
        prow, p = _reduced(prow, prow[pc])
        rows[pr], dens[pr] = prow, p
        for i in range(self.m):
            f = rows[i][pc]
            if f and i != pr:
                new = [p * a - f * b for a, b in zip(rows[i], prow)]
                rows[i], dens[i] = _reduced(new, dens[i] * p)
        f = self.obj[pc]
        if f:
            new = [p * a - f * b for a, b in zip(self.obj, prow)]
            self.obj, self.obj_den = _reduced(new, self.obj_den * p)
        self.basis[pr] = pc
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise PivotLimitError(f"pivot limit of {_MAX_PIVOTS} exceeded")

    def _set_objective(self, coeffs) -> None:
        """The reduced-cost row c - sum_i c[basis[i]] row_i for the current
        basis; its last cell is -(objective value)."""
        nums, cden = _over_lcm(coeffs)
        width = self.n + self.m + 1
        obj, den = nums + [0] * (width - len(nums)), cden
        for b, row, d in zip(self.basis, self.rows, self.dens):
            cb = nums[b] if b < len(nums) else 0
            if cb:
                # obj / den - (cb / cden) (row / d), over their lcm
                common = lcm(den, cden * d)
                s, t = common // den, cb * (common // (cden * d))
                obj = [s * a - t * v for a, v in zip(obj, row)]
                den = common
        self.obj, self.obj_den = _reduced(obj, den)

    def _run(self, ncols: int) -> Optional[int]:
        """Pivot to optimality over columns [0, ncols); None, or an entering
        column proving unboundedness."""
        bland = False
        stall = 0
        last, last_den = self.obj[-1], self.obj_den
        rows, basis = self.rows, self.basis
        columns = range(ncols)
        while True:
            obj = self.obj
            if bland:
                pc = next((j for j in columns if obj[j] < 0), -1)
            else:
                pc = min(columns, key=obj.__getitem__, default=-1)
                if pc >= 0 and obj[pc] >= 0:
                    pc = -1
            if pc < 0:
                return None
            pr = -1
            for i, row in enumerate(rows):
                a = row[pc]
                if a > 0:
                    if pr < 0:
                        pr, num, den = i, row[-1], a
                        continue
                    # ratio row[-1] / a against the best ratio num / den
                    lhs, rhs = row[-1] * den, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[pr]):
                        pr, num, den = i, row[-1], a
            if pr < 0:
                return pc
            self._pivot(pr, pc)
            if self.obj[-1] * last_den == last * self.obj_den:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                last, last_den = self.obj[-1], self.obj_den

    def solve(self):
        """Returns (status, x, y, ray): x and ray lists of Fractions, y the
        row duals as integers over one positive denominator, (ints, den).

        OPTIMAL: x primal solution, y row duals.
        INFEASIBLE: y is a Farkas vector (y.A <= 0 componentwise, y.b > 0).
        UNBOUNDED: ray r >= 0 with A r = 0 and c.r < 0.
        Duals refer to the rows as given (sign flips are undone).
        """
        m, n = self.m, self.n
        rows, dens, basis = self.rows, self.dens, self.basis
        self._set_objective([0] * n + [1] * m)
        if self._run(n + m) is not None:
            raise LpError("phase 1 cannot be unbounded")
        if self.obj[-1] < 0:
            # y_i = 1 - (reduced cost of artificial i)
            d = self.obj_den
            y = [d - self.obj[n + i] for i in range(m)]
            return LpStatus.INFEASIBLE, None, (self._unflip(y), d), None
        # drive lingering artificials out of the (degenerate) basis
        for i in range(m):
            if basis[i] >= n:
                j = next((j for j in range(n) if rows[i][j]), None)
                if j is not None:
                    self._pivot(i, j)
                # else: the row is redundant; its artificial stays basic at 0
        self._set_objective(self.cost)
        pc = self._run(n)
        if pc is not None:
            ray = [Fraction(0)] * n
            ray[pc] = Fraction(1)
            for i in range(m):
                if basis[i] < n:
                    ray[basis[i]] = Fraction(-rows[i][pc], dens[i])
            return LpStatus.UNBOUNDED, None, None, ray
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(rows[i][-1], dens[i])
        # artificials cost 0 in phase 2: y_i = -(reduced cost of artificial i)
        y = [-self.obj[n + i] for i in range(m)]
        return LpStatus.OPTIMAL, x, (self._unflip(y), self.obj_den), None

    def _unflip(self, y: list) -> list:
        return [-v if f else v for v, f in zip(y, self.flip)]


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide a row and its positive denominator by their gcd."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _solve_standard(rows, rhs, cost):
    return _Tableau(rows, rhs, cost).solve()


# -- general-form interface ---------------------------------------------------


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "=="

    @classmethod
    def parse(cls, text: str) -> "Relation":
        norm = {"<=": cls.LE, ">=": cls.GE, "==": cls.EQ, "=": cls.EQ}
        try:
            return norm[text]
        except KeyError:
            raise ValueError(f"unknown relation {text!r}") from None


@dataclass(frozen=True)
class LpOutcome:
    """Result of LinearSystem.solve, everything exact.

    `dual` and `farkas` are reported over the constraint rows as entered.
    """

    status: LpStatus
    objective: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    farkas: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None


class LinearSystem:
    """A rational LP in inequality form over free variables.

    The standard form splits every variable into a nonnegative pair
    x = x+ - x- (columns 2j and 2j + 1) and gives every inequality row a
    slack or surplus column, in row order; bounds such as `x >= 0` are
    ordinary rows.
    """

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise ValueError("negative variable count")
        self.num_vars = num_vars
        self._rows: list[tuple[tuple[Fraction, ...], Relation, Fraction]] = []
        self._cost: tuple[Fraction, ...] = tuple(Fraction(0) for _ in range(num_vars))
        self._sense = 1  # +1 minimize, -1 maximize

    def _vector(self, coeffs: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        vec = tuple(as_rational(c) for c in coeffs)
        if len(vec) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(vec)}")
        return vec

    def minimize(self, coeffs: Sequence[RationalLike]) -> "LinearSystem":
        self._cost = self._vector(coeffs)
        self._sense = 1
        return self

    def maximize(self, coeffs: Sequence[RationalLike]) -> "LinearSystem":
        self._cost = self._vector(coeffs)
        self._sense = -1
        return self

    def add_constraint(
        self, coeffs: Sequence[RationalLike], relation: str, rhs: RationalLike
    ) -> "LinearSystem":
        self._rows.append((self._vector(coeffs), Relation.parse(relation), as_rational(rhs)))
        return self

    def solve(self) -> LpOutcome:
        n = self.num_vars
        width = 2 * n + sum(1 for _, rel, _ in self._rows if rel is not Relation.EQ)
        std_rows: list[list] = []
        std_rhs: list = []
        s = 2 * n
        for coeffs, rel, rhs in self._rows:
            row: list = [0] * width
            for j, c in enumerate(coeffs):
                if c != 0:
                    row[2 * j] = c
                    row[2 * j + 1] = -c
            if rel is not Relation.EQ:
                row[s] = 1 if rel is Relation.LE else -1
                s += 1
            std_rows.append(row)
            std_rhs.append(rhs)

        cost_std: list = [0] * width
        for j, c in enumerate(self._cost):
            if c != 0:
                cost_std[2 * j] = c * self._sense
                cost_std[2 * j + 1] = -cost_std[2 * j]

        rows = [_over_lcm(row) for row in std_rows]
        status, x_std, y_std, ray_std = _solve_standard(rows, _over_lcm(std_rhs), cost_std)

        def restore(vec) -> tuple[Fraction, ...]:
            return tuple(vec[2 * j] - vec[2 * j + 1] for j in range(n))

        if status is LpStatus.UNBOUNDED:
            return LpOutcome(status=status, ray=restore(ray_std))
        y = [Fraction(v, y_std[1]) for v in y_std[0]]
        if status is LpStatus.INFEASIBLE:
            return LpOutcome(status=status, farkas=tuple(y))
        solution = restore(x_std)
        objective = sum((c * v for c, v in zip(self._cost, solution)), Fraction(0))
        dual = tuple(v * self._sense for v in y)
        return LpOutcome(status=status, objective=objective, solution=solution, dual=dual)


# -- conic primitives ---------------------------------------------------------

EXACT_LP = "exact-lp"

# the nonzero entries of a rational vector (a column, target, witness or
# primal), (index, n) sorted by index, over one positive den: n / den each
IntVector = tuple[tuple[tuple[int, int], ...], int]
# a dense rational row (a dual mass function, a kernel) over one positive den
IntRow = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class Membership:
    """Membership of a target in the cone spanned by a generator list.

    `route` names what decided it.  A member may carry `witness`: an
    IntVector over generator indices, every coefficient positive, whose
    combination is the target.  A non-member may carry `separator`: a
    vector y with y.g >= 0 for every generator and y.target < 0, as
    primitive integers (_primitive).
    """

    member: bool
    route: str
    witness: Optional[IntVector] = None
    separator: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class Vanishing:
    """Existence of a nonzero nonnegative combination of the generators
    summing to zero; `combination` is in the form of a witness, and
    `separator`, if none exists, the verified one of contains_zero's LP."""

    exists: bool
    route: str
    combination: Optional[IntVector] = None
    separator: Optional[tuple[int, ...]] = None


def _int_vector(items) -> IntVector:
    """(index, rational) items, zeros dropped, as (index, integer) pairs over
    their least common denominator den > 0: each value is n / den."""
    items = [(j, v) for j, v in items if v]
    den = lcm(*[v.denominator for _, v in items])
    return tuple((j, v.numerator * (den // v.denominator)) for j, v in items), den


def _check_columns(columns: Sequence[IntVector], dim: int) -> None:
    """Every column index lies in range(dim), and dim is at least 1."""
    if dim == 0:
        raise ValueError("dimension must be at least 1")
    if any(not 0 <= j < dim for entries, _ in columns for j, _ in entries):
        raise ValueError("generators and target must share one dimension")


def _score(y: Sequence[int], vec: IntVector) -> int:
    """y . vec times vec's (positive) denominator, over vec's nonzero
    entries; y is a list of integers."""
    return sum([y[j] * n for j, n in vec[0]])


def _combines(columns: Sequence[IntVector], witness: IntVector, target: IntVector) -> bool:
    """den > 0, every n_k >= 0 and sum(n_k / den columns[k]) == target, for
    the witness ((k, n_k), ...), den: both sides cross-multiplied to integers
    by den, the target's denominator and the lcm of the columns' ones."""
    pairs, den = witness
    if den <= 0 or any(n < 0 or not 0 <= k < len(columns) for k, n in pairs):
        return False
    entries, tden = target
    common = lcm(*[columns[k][1] for k, _ in pairs])
    scale = den * common
    total = {j: -n * scale for j, n in entries}
    for k, n in pairs:
        col, col_den = columns[k]
        s = n * tden * (common // col_den)
        if s:
            for j, v in col:
                total[j] = total.get(j, 0) + s * v
    return not any(total.values())


def _separates(columns: Sequence[IntVector], target: IntVector, y: Sequence[int]) -> bool:
    """The integer separator y scores every column g nonnegative and the
    target negative."""
    return all(_score(y, g) >= 0 for g in columns) and _score(y, target) < 0


def _coordinate_rows(columns: Sequence[IntVector], dim: int) -> list[tuple[list[int], int]]:
    """Row i holds coordinate i of every column as integers over the lcm
    of the denominators of the columns with an entry there: the only dense
    form of the generators, built for the tableau.  Every cell is the
    rational its column holds."""
    dens = [1] * dim
    for entries, den in columns:
        for j, _ in entries:
            dens[j] = lcm(dens[j], den)
    rows = [[0] * len(columns) for _ in range(dim)]
    for k, (entries, den) in enumerate(columns):
        for j, n in entries:
            rows[j][k] = n * (dens[j] // den)
    return list(zip(rows, dens))


def conic_membership(target: tuple[list[int], int], columns: Sequence[IntVector]) -> Membership:
    """Decide target in { sum l_k g_k : l >= 0 }, with certificate; the
    target is dense integers over a positive denominator (_over_lcm), the
    generators g_k are integer columns (IntVector).

    The zero target is rejected: whether the cone is pointed is a
    different question, answered by contains_zero below.
    """
    ints, den = target
    dim = len(ints)
    _check_columns(columns, dim)
    if not any(ints):
        raise LpError("zero target is not a membership query; use contains_zero")
    goal = tuple((j, n) for j, n in enumerate(ints) if n), den
    if columns:
        rows = _coordinate_rows(columns, dim)
        status, x, y, _ = _solve_standard(rows, target, [0] * len(columns))
    else:
        # no generator: the target itself is a Farkas vector
        status, y = LpStatus.INFEASIBLE, target
    if status is LpStatus.OPTIMAL:
        witness = _int_vector(enumerate(x))
        if not _combines(columns, witness, goal):
            raise LpError("witness failed verification")
        return Membership(member=True, route=EXACT_LP, witness=witness)
    if status is LpStatus.INFEASIBLE:
        separator = _primitive([-v for v in y[0]])
        if not _separates(columns, goal, separator):
            raise LpError("separator failed verification")
        return Membership(member=False, route=EXACT_LP, separator=separator)
    raise LpError("conic membership cannot be unbounded")  # pragma: no cover


def contains_zero(columns: Sequence[IntVector], dim: int) -> Vanishing:
    """Is there l >= 0, l != 0, with sum l_k g_k = 0, the g_k integer
    columns of dimension dim?

    Normalized as sum(l) = 1, which loses no generality for a cone: the
    membership of (0, ..., 0, 1) in the cone of the columns with a
    coordinate 1 appended, whose witness is the combination.  Otherwise
    its verified separator y scores every lifted column nonnegative and
    the target negative, so y_last < 0 and the first dim entries of y
    score every column at least -y_last > 0 (Gordan's alternative).
    """
    if not columns:
        return Vanishing(exists=False, route=EXACT_LP)
    _check_columns(columns, dim)
    lifted = [((*entries, (dim, den)), den) for entries, den in columns]
    res = conic_membership(([0] * dim + [1], 1), lifted)
    return Vanishing(res.member, EXACT_LP, res.witness, res.separator)


# a lower prevision m with its primal combination and dual mass function
Prevision = tuple[Fraction, IntVector, IntRow]


def _checked_prevision(target: Sequence[Fraction], columns: Sequence[IntVector]) -> Prevision:
    """The lower prevision m of the target, with both of its certificates,
    each verified before it is returned.

    One LP in standard form: columns are the generators, then m+ and m-
    (m = m+ - m- is free), rows sum(l_k g_k) + m = target, minimizing -m.
    The primal certificate is the coefficients l_k, every l_k >= 0, whose
    combination is target - m; the dual one is the mass function p, the
    negated row duals: p sums to 1, p.g >= 0 for every generator and
    p.target = m, so no larger m is feasible.  Callers that combine local
    previsions into a larger one (the chain recursion of net) lift both.
    """
    dim = len(target)
    _check_columns(columns, dim)
    n = len(columns)
    shifted = [*columns, *[(tuple((j, s) for j in range(dim)), 1) for s in (1, -1)]]
    cost = [0] * n + [-1, 1]
    form = _over_lcm(target)
    status, x, y, ray = _solve_standard(_coordinate_rows(shifted, dim), form, cost)
    if status is LpStatus.UNBOUNDED:
        # the ray raises m at no cost, so -1 is in the cone; and some m is feasible
        if not (
            ray[n] > ray[n + 1]
            and _combines(shifted, _int_vector(enumerate(ray)), _int_vector(()))
            and (not any(target) or conic_membership(form, shifted).member)
        ):
            raise LpError("unbounded lower prevision failed verification")
        raise InfinitePrevisionError("unbounded lower prevision: the cone is incoherent")
    mass = tuple([-v for v in y[0]]), y[1]
    if status is not LpStatus.OPTIMAL:
        # the Farkas vector, negated, separates the target from the shifted cone
        if not _separates(shifted, _int_vector(enumerate(target)), _primitive(mass[0])):
            raise LpError("infeasible lower prevision failed verification")
        raise InfinitePrevisionError(
            "lower prevision LP is infeasible: no constant shift reaches the cone"
        )
    primal = _int_vector(enumerate(x[:n]))
    m = x[n] - x[n + 1]
    fault = _prevision_fault(columns, form, m, primal, mass)
    if fault is not None:
        raise LpError(f"lower prevision failed {fault} verification")
    return m, primal, mass


def _prevision_fault(
    columns: Sequence[IntVector],
    target: tuple[Sequence[int], int],
    m: Fraction,
    primal: IntVector,
    dual: IntRow,
) -> Optional[str]:
    """None when both certificates of the lower prevision m of the target
    (dense integers over den, _over_lcm) hold on the columns.  Otherwise
    "primal" unless the primal combines them to target - m, built over den
    times m's denominator without a Fraction per entry, and then "dual"
    unless the mass function mass / mass_den, over mass_den > 0, has one
    mass per coordinate of the target, sums to 1, gives the target the
    expectation m and scores every column nonnegative."""
    ints, den = target
    mass, mass_den = dual
    a, b = m.numerator, m.denominator
    shifted = tuple((j, n * b - a * den) for j, n in enumerate(ints) if n * b != a * den)
    if not _combines(columns, primal, (shifted, den * b)):
        return "primal"
    if not (
        mass_den > 0
        and len(mass) == len(ints)
        and sum(mass) == mass_den
        and sum(p * n for p, n in zip(mass, ints)) * b == a * mass_den * den
        and all(_score(mass, g) >= 0 for g in columns)
    ):
        return "dual"
    return None


@dataclass(frozen=True)
class PrevisionBasis:
    """A basis B of the prevision LP over one column list: the free shift
    and one generator per other coordinate.

    `inverse` is B^-1 as integer rows over the positive `den`.  Its first
    row belongs to the shift m; row i + 1 belongs to the generator
    `basic[i]`.  The first row is the dual, a mass function that sums to
    1; B is optimal for a target t when B^-1 t is nonnegative on the
    generators (primal feasible) and the dual scores every column
    nonnegative (dual feasible), which does not depend on t.  A value
    carries no trust of its own: _certified_mass checks it against a
    column list, and its owner (AssessmentCone) keeps only bases so
    checked against its own columns, each with its dual.
    """

    basic: tuple[int, ...]
    inverse: tuple[tuple[int, ...], ...]
    den: int


def _certified_mass(basis: PrevisionBasis, columns: Sequence[IntVector]) -> IntRow:
    """The basis's dual, the first row of B^-1 over den, once exact
    integer substitution shows that B^-1 B = den I over the shift column
    (all ones) and the basic generators, and that the first row is
    nonnegative and scores every column nonnegative; raises LpError
    otherwise.  Neither check reads a target, so a basis is certified
    once for every answer read at it (_answer_at)."""
    inverse, den, size = basis.inverse, basis.den, len(basis.inverse)
    if not (
        den > 0
        and len(basis.basic) == size - 1
        and all(len(row) == size for row in inverse)
        and all(0 <= k < len(columns) for k in basis.basic)
        # the shift column is all ones: each row's product with it is its sum
        and sum(inverse[0]) == den
        and not any(sum(row) for row in inverse[1:])
    ):
        raise LpError("prevision basis failed verification")
    for c, k in enumerate(basis.basic, 1):
        g = columns[k]
        if any(_score(row, g) != (den * g[1] if i == c else 0) for i, row in enumerate(inverse)):
            raise LpError("prevision basis failed verification")
    mass = inverse[0]
    if min(mass) < 0 or any(_score(mass, g) < 0 for g in columns):
        raise LpError("prevision basis failed dual verification")
    return mass, den


def _answer_at(
    basis: PrevisionBasis, mass: IntRow, target: tuple[Sequence[int], int]
) -> Optional[Prevision]:
    """What _checked_prevision returns for the target (dense integers over
    tden), read at a basis whose dual `mass` _certified_mass returned for
    the columns; None unless x = B^-1 target is nonnegative on the
    generators.  m = x[0] / (den tden), the primal is the generator
    entries of x over den tden and the dual is `mass`, certified with no
    further check (see _prevision_at_basis).  A target of another
    dimension than B's raises LpError."""
    ints, tden = target
    inverse = basis.inverse
    if len(ints) != len(inverse):
        raise LpError("a target of another dimension than its basis")
    x = [sum(map(mul, row, ints)) for row in inverse[1:]]
    if x and min(x) < 0:
        return None
    scale = basis.den * tden
    primal = tuple(sorted([(k, v) for k, v in zip(basis.basic, x) if v])), scale
    return Fraction(sum(map(mul, inverse[0], ints)), scale), primal, mass


def _atoms_basis(ints: Sequence[int], first_atom: int) -> PrevisionBasis:
    """The shift and every atom (columns[first_atom + i] the indicator of
    value i) but the one at the first minimum j of the target's integers:
    m = t_j and atom i takes t_i - t_j >= 0, so the basis is primal
    feasible for the target.  B^-1 has the rows e_j, then e_i - e_j, over 1
    (Quaeghebeur, The CONEstrip algorithm, 2012: the atoms as slacks)."""
    low = ints.index(min(ints))
    others = [i for i in range(len(ints)) if i != low]
    inverse = [tuple(int(c == low) for c in range(len(ints)))]
    inverse += [tuple((c == i) - (c == low) for c in range(len(ints))) for i in others]
    return PrevisionBasis(tuple(first_atom + i for i in others), tuple(inverse), 1)


def _prevision_at_basis(
    basis: PrevisionBasis,
    target: tuple[Sequence[int], int],
    columns: Sequence[IntVector],
) -> Optional[tuple[Prevision, PrevisionBasis]]:
    """What _checked_prevision returns for the target (dense integers over
    tden), with the optimal basis it is read at, reached from `basis` by
    simplex pivots under Bland's rule.  While B^-1 target is nonnegative
    on the generators the pivots are primal (from the atoms basis),
    otherwise dual: a basis whose dual row scores every column nonnegative
    stays so when only the target moves (Chvatal, ch. 10).  None if the
    walk is not possible (neither feasibility holds), or finds the LP
    unbounded or infeasible.

    The basis it ends at answers only once _certified_mass has checked it
    against the columns (a basis that fails raises LpError, never
    answers), and the answer is read as at any checked basis
    (_answer_at): with x = B^-1 target, m = x[0] / (den tden), the primal
    is the generator entries of x and the dual the first row of B^-1.
    Both certificates then hold with no check of their own.  B is square,
    so B^-1 B = I gives B x = target: the primal combines the columns to
    target - m.  The dual sums to 1, because its product with the shift
    column is den; it gives the target the expectation m, by the
    definition of x[0]; and it scores every column nonnegative, because
    the basis check tested exactly that.

    Each pivot builds the entering candidates, the nonbasic columns, once.
    A primal pivot scores them only up to the first that the dual scores
    negative, which is the column Bland's rule enters; a dual pivot scores
    every column, to test dual feasibility.  Every score is an integer dot
    product over the column's nonzero entries (_score).

    A pivot on (r, k) with d = B^-1 g_k is fraction free: with
    B^-1 = R / den and D = den * den_k * d, row r becomes R_r den den_k
    and row i D_r R_i - D_i R_r, all over den D_r, made positive and
    divided by the gcd of every entry; walk pivots count against
    _MAX_PIVOTS."""
    ints = target[0]
    basic, inverse, den = list(basis.basic), basis.inverse, basis.den
    pivots = 0
    while True:
        x = [sum(map(mul, row, ints)) for row in inverse]
        dual, in_basis = inverse[0], set(basic)
        entering = [k for k in range(len(columns)) if k not in in_basis]
        r = k = None
        if min(x[1:], default=0) >= 0:
            k = next((k for k in entering if _score(dual, columns[k]) < 0), None)
            if k is None:
                break
            d = [_score(row, columns[k]) for row in inverse]
            # the least ratio x_i / d_i over d_i > 0, ties to the lowest basic column
            for i in range(1, len(x)):
                if d[i] > 0:
                    if r is not None:
                        lhs, rhs = x[i] * d[r], x[r] * d[i]
                        if lhs > rhs or (lhs == rhs and basic[i - 1] >= basic[r - 1]):
                            continue
                    r = i
        else:
            scores = [_score(dual, g) for g in columns]
            if min(scores, default=0) < 0:
                return None
            r = min((i for i in range(1, len(x)) if x[i] < 0), key=lambda i: basic[i - 1])
            alpha = [_score(inverse[r], g) for g in columns]
            # the least ratio scores_j / -alpha_j over alpha_j < 0, ties to the lowest column
            for j in entering:
                if alpha[j] < 0 and (k is None or scores[j] * alpha[k] > scores[k] * alpha[j]):
                    k = j
            d = None if k is None else [_score(row, columns[k]) for row in inverse]
        if r is None or k is None:
            return None
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise PivotLimitError(f"pivot limit of {_MAX_PIVOTS} exceeded")
        sign = 1 if d[r] > 0 else -1
        p, old, scale = sign * d[r], inverse[r], sign * den * columns[k][1]
        inverse = [
            [scale * v for v in old] if i == r else [p * a - f * b for a, b in zip(row, old)]
            for i, (row, f) in enumerate(zip(inverse, [sign * v for v in d]))
        ]
        g = gcd(den * p, *[v for row in inverse for v in row])
        inverse = tuple(tuple(v // g for v in row) for row in inverse)
        den = den * p // g
        basic[r - 1] = k
    if pivots:
        basis = PrevisionBasis(tuple(basic), inverse, den)
    return _answer_at(basis, _certified_mass(basis, columns), target), basis
