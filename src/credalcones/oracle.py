"""Independent oracles for cross-checking the cone machinery.

Two deliberately different computation routes live here:

  * PreciseNet: a precise Bayesian network over the same DAG, with one
    exact probability mass function per (node, parent configuration).
    Expectations are computed by brute-force summation over the whole
    joint space, nothing shared with the LP code paths.  positivity_audit
    scores the joint generators under it exactly in integers (the global
    masses over one denominator) and random combinations of them by
    linearity, without any certificate check of lp or net.

  * fm_membership: conic membership decided by fraction-free Gauss-Jordan
    elimination of the equality rows, in integers, followed by
    Fourier-Motzkin elimination of the free coefficients.  It shares
    only lp's integer-row helpers, no simplex and no pivoting rules; it
    exists to disagree loudly if the LP route were ever wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .core import Configuration, Gamble
from .lp import _over_lcm
from .net import CredalNet, JointModel

FM_MAX_DIM = 8
FM_MAX_GENERATORS = 64
_FM_MAX_ROWS = 200_000


class WitnessMismatchError(ValueError):
    """The precise network is not a witness family for the local cones."""


class PreciseNet:
    """A precise Bayesian network sharing a CredalNet's graph and spaces."""

    def __init__(
        self,
        net: CredalNet,
        kernels: Mapping[tuple[str, int], Sequence[Fraction]],
    ):
        self.net = net
        self.kernels: dict[tuple[str, int], tuple[Fraction, ...]] = {}
        for s in net.dag.nodes:
            n_values = len(net.variables[s].values)
            for p_idx in range(net.parent_space(s).size):
                pmf = tuple(kernels[(s, p_idx)])
                if len(pmf) != n_values:
                    raise ValueError(f"kernel for ({s!r}, {p_idx}) has wrong length")
                if any(v < 0 for v in pmf) or sum(pmf) != 1:
                    raise ValueError(f"kernel for ({s!r}, {p_idx}) is not a pmf")
                self.kernels[(s, p_idx)] = pmf

    @classmethod
    def from_witnesses(cls, net: CredalNet) -> "PreciseNet":
        """The product network of the local coherence witnesses."""
        kernels = {
            (s, p_idx): net.local_witness(s, p_idx)
            for s in net.dag.nodes
            for p_idx in range(net.parent_space(s).size)
        }
        return cls(net, kernels)

    def global_mass(self, config: Configuration) -> Fraction:
        """Product of the kernel values along the configuration."""
        net = self.net
        if config.space != net.joint_space:
            config = net.joint_space.configuration(config.as_dict())
        mass = Fraction(1)
        for s in net.dag.nodes:
            p_space = net.parent_space(s)
            p_idx = (
                p_space.index_of(config.restrict(p_space.nodes))
                if len(p_space)
                else 0
            )
            value_idx = net.variables[s].index_of(config.value_of(s))
            mass *= self.kernels[(s, p_idx)][value_idx]
        return mass

    def expectation(self, f: Gamble) -> Fraction:
        """Brute-force sum of mass times payoff over the joint space."""
        f = f.extend(self.net.joint_space)
        total = Fraction(0)
        for j, config in enumerate(self.net.joint_space.configurations()):
            total += self.global_mass(config) * f.table[j]
        return total

    def local_expectation(self, node: str, parent_index: int, f: Gamble) -> Fraction:
        f = f.extend(self.net.node_space(node))
        pmf = self.kernels[(node, parent_index)]
        return sum((p * v for p, v in zip(pmf, f.table)), Fraction(0))


@dataclass(frozen=True)
class AuditReport:
    checked: int
    generators_checked: int
    all_positive: bool
    total_mass_one: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.all_positive and self.total_mass_one and not self.failures


def positivity_audit(
    precise: PreciseNet,
    joint: JointModel,
    rng: Optional[random.Random] = None,
    samples: int = 50,
) -> AuditReport:
    """Score members of the joint cone under the precise network.

    First gate: every local generator (assessments and value indicators
    alike) must have strictly positive local expectation under its kernel,
    otherwise the kernels are not witnesses for the local cones and
    WitnessMismatchError is raised.

    Then every joint generator, and `samples` random conic combinations of
    them, get an exact expectation that must be positive.  A generator is
    scored in integers, its column against the global masses over their
    common denominator; a combination, by linearity, as the combination of
    its generators' scores.  A failure means the generator list does not
    span a cone the witness network can certify, e.g. after a sign-flip
    mutation.
    """
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

    # the global masses as integers over one denominator (mass j is
    # ints[j] / den); each generator's exact score as (numerator,
    # denominator), its column (entries, col_den) scored in integers
    ints, den = _over_lcm([precise.global_mass(c) for c in net.joint_space.configurations()])
    scores = [(sum(ints[j] * v for j, v in col), den * col_den) for col, col_den in joint.generators]
    failures = [f"generator {k} scored {Fraction(*sc)}" for k, sc in enumerate(scores) if sc[0] <= 0]

    # the expectation is linear, so a combination scores the combination
    # of its generators' scores: pick k with coefficient a / b adds
    # (a num_k, b den_k), and the terms are summed over their lcm
    n = len(joint.generators)
    checked = 0
    for _ in range(samples):
        picks = rng.sample(range(n), rng.randint(1, min(4, n)))
        terms = [(rng.randint(1, 3) * scores[k][0], rng.randint(1, 2) * scores[k][1]) for k in picks]
        common = lcm(*(d for _, d in terms))
        score = sum(num * (common // d) for num, d in terms)
        checked += 1
        if score <= 0:
            failures.append(
                f"combination of generators {sorted(picks)} scored {Fraction(score, common)}"
            )
    return AuditReport(
        checked=checked,
        generators_checked=n,
        all_positive=not failures,
        total_mass_one=sum(ints) == den,
        failures=tuple(failures),
    )


# -- Fourier-Motzkin membership oracle -----------------------------------------


def _coprime(ints) -> tuple[int, ...]:
    """lp._primitive of an integer vector: divided by its gcd, if any.
    Built from a list: CPython draws a tuple grown from a generator from
    another size's free list than the one it frees it into, which then
    fills with thousands of dead tuples."""
    g = gcd(*ints) or 1
    return tuple([v // g for v in ints])


def fm_membership(
    target: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]
) -> bool:
    """Is target a nonnegative combination of the generators?

    Same semantics as the LP primitive (zero targets rejected alike),
    decided by projection: Gauss-Jordan elimination of the equalities in
    integers writes each pivot coefficient as an affine function of the
    free ones, whose nonnegativity, with that of the free coefficients, is
    the system left; its variables are eliminated one by one, combining
    each lower bound with each upper bound.  Feasible iff no contradictory
    constant row survives.  Each row is a positive multiple of the row that
    elimination in rationals would give, so every decision is the rational
    one.

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

    # equalities sum_k a_k l_k = c (an entry that is not an int or a
    # Fraction goes through Fraction), each read once as integers over its
    # lcm, by Gauss-Jordan elimination: the row is reduced by the pivot rows
    # before it, p[k] * row - row[k] * p for the pivot k of p, p[k] > 0,
    # then put over its gcd, positive at its own pivot, which is eliminated
    # from them alike
    pivots: dict[int, Sequence[int]] = {}
    for values in zip(*generators, target):
        row = _over_lcm([v if type(v) in (int, Fraction) else Fraction(v) for v in values])[0]
        for k, p in pivots.items():
            if row[k]:
                e, f = p[k], row[k]
                row = [e * a - f * b for a, b in zip(row, p)]
        pivot = next((k for k in range(n) if row[k]), None)
        if pivot is None:
            if row[n] != 0:
                return False  # 0 = nonzero
            continue
        g = gcd(*row) if row[pivot] > 0 else -gcd(*row)
        row = [v // g for v in row]
        e = row[pivot]
        for k, p in pivots.items():
            if p[pivot]:
                pivots[k] = _coprime([e * a - p[pivot] * b for a, b in zip(p, row)])
        pivots[pivot] = row

    # each pivot variable is now an affine function of the free ones, so
    # the inequalities sum_k a_k l_k >= c are built once over the free
    # variables: l_k >= 0 for each free k, and -a . l >= -c for the row
    # a . l + piv l_piv = c of each pivot, a positive multiple of the
    # rational row; constant rows must already hold
    free = [k for k in range(n) if k not in pivots]
    width = len(free)
    rows = {tuple([int(j == k) for j in range(width + 1)]) for k in range(width)}
    for r in pivots.values():
        if not any(r[k] for k in free):
            if r[n] < 0:
                return False  # 0 >= positive: contradiction
            continue
        rows.add(_coprime([-r[k] for k in free] + [-r[n]]))

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
                combined = [p[var] * qv - q[var] * pv for pv, qv in zip(p, q)]
                if all(combined[k] == 0 for k in range(width)):
                    if combined[width] > 0:
                        return False
                    continue
                norm = _coprime(combined)
                known = keep.get(norm)
                if known is None or len(history) < len(known):
                    keep[norm] = history
                if len(keep) > _FM_MAX_ROWS:
                    raise RuntimeError("Fourier-Motzkin row blow-up")
        table = keep

    return all(r[width] <= 0 for r in table if all(r[k] == 0 for k in range(width)))
