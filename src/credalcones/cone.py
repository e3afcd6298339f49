"""Finitely generated cones of desirable gambles.

An assessment is a finite set of nonzero gambles on one space.  Its natural
extension is the smallest coherent superset candidate: the strictly positive
span of the assessment together with all strictly positive gambles.  Since
the indicator atoms of the space generate every strictly positive gamble,
that extension is the finitely generated cone spanned by

    assessments (in given order), then one atom per value (value order),

and this generator order is fixed, so reports are reproducible.  A cone
owns all of its state, which every joint model of a network shares: the
generators as integer columns (AssessmentCone.columns, built on first use,
an atom as its one entry, read by its LPs and checks and lifted by net;
no dense atom is built unless AssessmentCone.generators is read), the
coherence report, the memoized memberships (keyed by the target's integer
form) and lower previsions (keyed by the table's integer row in lowest
terms, so that a hit costs one gcd and no Fraction), and the optimal
bases of its prevision LP, at which each lower prevision is read or from
which it is walked to (lower_prevision), each checked against its columns
before it joins them.

Two quick routes settle most memberships before the LP, each with a
certificate checked against the columns:

  * positive-span: a target whose nonzero entries are all positive is the
    combination of the atoms with its own entries as coefficients, a
    witness checked by exact substitution;
  * cached-separator: a coherent cone's witness pmf scores every generator
    strictly positive, so any target it scores negative lies outside the
    cone, and the witness as primitive integers (lp._primitive, the one
    form of every separator) separates it.  Its scores on the generators
    are checked once per cone; an incoherent cone has no such witness and
    never takes this route.

Coherence needs no LP when an assessment g has no positive entry: g plus
-g(x) times each atom x is zero, a partial loss (Walley 1991), and that
combination, checked against the columns, is the certificate.  Otherwise
it is one exact LP, lp.contains_zero on the columns.  By Gordan's
theorem of the alternative, either a nonzero nonnegative combination of
the generators vanishes, and the natural extension is incoherent with
that checked combination as certificate, or some y scores every generator
strictly positive.  The LP's verified separator, its appended coordinate
dropped, is such a y.  The atoms are generators, so y is strictly
positive; normalised, it is a probability mass function with all-positive
mass giving every generator strictly positive expectation, the coherence
witness.  The LP reads the columns as integers and returns y as primitive
integers, kept over their sum as the cone's integer witness (witness_mass);
only the report's witness and certificate, read outside the package, are
Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from .core import Gamble, Space
from .lp import (
    IntRow,
    IntVector,
    LpError,
    Membership,
    Prevision,
    PrevisionBasis,
    _answer_at,
    _atoms_basis,
    _check_work,
    _checked_prevision,
    _combines,
    _int_vector,
    _prevision_at_basis,
    _primitive,
    _score,
    conic_membership,
    contains_zero,
)

# optimal bases kept per cone for its prevision LPs
_BASIS_LIMIT = 4


@dataclass(frozen=True)
class CoherenceReport:
    """Outcome of the coherence decision: its quick route or the LP,
    lp.contains_zero on the generators.

    witness, present only when coherent, is a strictly positive pmf giving
    every generator strictly positive expectation: the LP's verified
    separator without its appended coordinate, normalised to sum 1.
    certificate, present only when incoherent, is the checked vanishing
    combination of the quick route or the LP, one nonnegative coefficient
    per generator, not all zero, summing the generators to the zero gamble.
    """

    coherent: bool
    witness: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[tuple[Fraction, ...]] = None

    def __bool__(self) -> bool:
        return self.coherent


class AssessmentCone:
    """The natural-extension cone of finitely many assessed gambles."""

    def __init__(self, space: Space, assessments: Iterable[Gamble] = ()):
        if space.size < 1:
            raise ValueError("space must have at least one configuration")
        assessments = tuple(assessments)
        # the coherence LP (see _decide_coherence: size + 1 rows, one column
        # per generator) is the largest LP a cone runs, so sizing it first
        # bounds every local LP before any atom or row is built
        size, k = space.size, len(assessments)
        _check_work(size + 1, size + k)
        self.space = space
        fitted = []
        for f in assessments:
            f = f.extend(space)
            if f.is_zero:
                raise ValueError("assessed gambles must be nonzero")
            fitted.append(f)
        self.assessments: tuple[Gamble, ...] = tuple(fitted)
        self._coherence: Optional[CoherenceReport] = None
        self._witness_mass: Optional[IntRow] = None
        self._members: dict[IntVector, Membership] = {}
        self._previsions: dict[tuple[int, ...], tuple] = {}
        # each basis certified against self.columns, with its dual, least
        # recently used first
        self._bases: dict[PrevisionBasis, IntRow] = {}

    @cached_property
    def columns(self) -> tuple[IntVector, ...]:
        """The generators as integer columns (lp.IntVector), which its LPs
        and certificate checks read; built on first use, an atom as its one
        entry."""
        atoms = [(((v, 1),), 1) for v in range(self.space.size)]
        return (*[_int_vector(enumerate(g.table)) for g in self.assessments], *atoms)

    @cached_property
    def generators(self) -> tuple[Gamble, ...]:
        """The generators as Gambles, the atoms as dense unit tables, built
        only for a caller that reads Gambles: the cone reads columns."""
        space, size, zero, one = self.space, self.space.size, (Fraction(0),), (Fraction(1),)
        atoms = [Gamble(space, zero * i + one + zero * (size - i - 1)) for i in range(size)]
        return (*self.assessments, *atoms)

    def __repr__(self) -> str:
        return f"AssessmentCone({self.space!r}, {len(self.assessments)} assessments)"

    # -- coherence ------------------------------------------------------------

    def is_coherent(self) -> CoherenceReport:
        """Coherence decision with witness or certificate; truthy iff coherent."""
        if self._coherence is None:
            self._coherence = self._decide_coherence()
        return self._coherence

    @property
    def witness_mass(self) -> Optional[IntRow]:
        """The coherence witness as integers over one positive denominator,
        (y, sum(y)) for the LP's separator y, recorded when coherence is
        decided; None for an incoherent cone."""
        self.is_coherent()
        return self._witness_mass

    def _decide_coherence(self) -> CoherenceReport:
        columns, first_atom = self.columns, len(self.assessments)
        # quick route: the first assessment g with no positive entry incurs
        # a partial loss alone, g plus -g(x) times each atom x vanishing
        loss = next((k for k in range(first_atom) if all(n < 0 for _, n in columns[k][0])), None)
        if loss is not None:
            entries, den = columns[loss]
            combination = ((loss, den), *[(first_atom + j, -n) for j, n in entries]), den
            if not _combines(columns, combination, ((), 1)):
                raise LpError("vanishing combination failed verification")
        else:
            res = contains_zero(columns, self.space.size)
            if not res.exists:
                y = res.separator[:-1]
                total = sum(y)
                self._witness_mass = y, total
                return CoherenceReport(coherent=True, witness=tuple(Fraction(v, total) for v in y))
            combination = res.combination
        pairs, den = combination
        combo = dict(pairs)
        certificate = tuple(Fraction(combo.get(k, 0), den) for k in range(len(columns)))
        return CoherenceReport(coherent=False, certificate=certificate)

    # -- membership -----------------------------------------------------------

    def member_with_certificate(self, f: Gamble) -> Membership:
        """Is f in the strictly positive span of the generators?

        The zero gamble never is: the span needs a strictly positive
        coefficient, and a coherent cone has no vanishing combination (an
        incoherent one keeps the convention member(0) == False; coherence
        is reported separately).

        A nonzero f >= 0 is answered "positive-span", with the atoms
        weighted by f's entries as witness; an f that the coherence
        witness scores negative, "cached-separator", with that witness as
        separator (see _witness_separator).  Both certificates are checked
        against the columns; anything else is one exact LP.  Answers are
        memoized, keyed by the target's integer form, its nonzero entries
        read from f's own (Gamble.integer_form).
        """
        f = f.extend(self.space)
        if f.is_zero:
            return Membership(member=False, route="zero-convention")
        ints, den = f.integer_form
        target = tuple((j, n) for j, n in enumerate(ints) if n), den
        if target not in self._members:
            self._members[target] = self._membership(target)
        return self._members[target]

    def _membership(self, target: IntVector) -> Membership:
        entries, den = target
        if all(n > 0 for _, n in entries):
            first_atom = len(self.assessments)
            witness = tuple((first_atom + j, n) for j, n in entries), den
            if _combines(self.columns, witness, target):
                return Membership(member=True, route="positive-span", witness=witness)
        separator = self._witness_separator
        if separator is not None and _score(separator, target) < 0:
            return Membership(member=False, route="cached-separator", separator=separator)
        ints = [0] * self.space.size
        for j, n in entries:
            ints[j] = n
        return conic_membership((ints, den), self.columns)

    @cached_property
    def _witness_separator(self) -> Optional[tuple[int, ...]]:
        """The coherence witness as primitive integers, once it is checked
        to score every column strictly positive (LpError otherwise); None
        for an incoherent cone.

        Scoring every generator nonnegative, it separates every target it
        scores negative: a nonnegative combination of the generators
        scores nonnegative."""
        mass = self.witness_mass
        if mass is None:
            return None
        y = _primitive(mass[0])
        if not all(_score(y, column) > 0 for column in self.columns):
            raise LpError("coherence witness failed verification")
        return y

    # -- lower previsions -----------------------------------------------------

    def lower_prevision(
        self, ints: Sequence[int], den: int = 1
    ) -> Prevision:
        """lp._checked_prevision of the table ints / den, one integer per
        value of the space over a positive den (ValueError otherwise,
        before the memo or a basis is read), memoized by the table in
        lowest terms: the row and den divided by gcd(den, *ints), which is
        the row over the least common denominator of its entries.  It is
        read at an optimal basis of the cone's prevision LP: the most
        recently used of its cached bases (at most _BASIS_LIMIT) at which
        it is primal feasible (lp._answer_at), else the one that
        lp._prevision_at_basis walks to by dual pivots from the most recent
        basis, or by primal pivots from the atoms basis when none is
        cached.  Only a walk that finds the LP unbounded (an incoherent
        cone) or infeasible leaves the table, as Fractions, to
        _checked_prevision, which raises InfinitePrevisionError once its
        ray or Farkas vector is verified.  m is the LP's optimum at any
        basis; the certificates depend on the basis.

        The cache is the cone's record of trust: a basis joins it, as the
        most recently used, only once lp._prevision_at_basis has checked it
        against the cone's own columns (lp._certified_mass) and answered at
        it, and it is kept with the dual that check returned, so a read at
        a cached basis needs no check of its own.  Past _BASIS_LIMIT the
        least recently used basis leaves."""
        if len(ints) != self.space.size:
            raise ValueError(
                f"a table of {len(ints)} entries on a space of {self.space.size} values"
            )
        if den <= 0:
            raise ValueError(f"a table over the denominator {den}, which is not positive")
        g = gcd(den, *ints)
        key = (*ints, den) if g == 1 else (*[n // g for n in ints], den // g)
        found = self._previsions.get(key)
        if found is None:
            found = self._previsions[key] = self._prevision(key[:-1], key[-1])
        return found

    def _prevision(self, ints: Sequence[int], den: int):
        bases, target = self._bases, (ints, den)
        for age, (basis, mass) in enumerate(reversed(bases.items())):
            answer = _answer_at(basis, mass, target)
            if answer is not None:
                if age:
                    bases[basis] = bases.pop(basis)
                return answer
        start = next(reversed(bases)) if bases else _atoms_basis(ints, len(self.assessments))
        found = _prevision_at_basis(start, target, self.columns)
        if found is None:
            return _checked_prevision([Fraction(n, den) for n in ints], self.columns)
        answer, basis = found
        bases[basis] = answer[2]
        if len(bases) > _BASIS_LIMIT:
            del bases[next(iter(bases))]
        return answer
