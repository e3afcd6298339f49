"""Dense generator tables in the integer column form the LP primitives take.

The package holds every generator as an integer column (lp.IntVector) from
the local cone to the LP; tests that state their generators as dense tables
convert them here, and check certificates against them with the same exact
integer checks the primitives run.  positivity_audit is the dense Fraction
reference for oracle.positivity_audit, and product_mass for
net.JointModel._product_mass.
"""

import random
from fractions import Fraction

from credalcones.lp import _combines, _int_vector, _separates
from credalcones.oracle import AuditReport, WitnessMismatchError


def int_columns(tables):
    """Each dense table as an integer column (lp.IntVector)."""
    return [_int_vector(enumerate(t)) for t in tables]


def is_witness(tables, target, pairs):
    """The (index, coefficient) pairs, all nonnegative, combine the tables
    to the target."""
    return _combines(int_columns(tables), tuple(pairs), _int_vector(enumerate(target)))


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
    values rather than the joint index maps."""
    net = joint.net
    mass = []
    for config in joint.space.configurations():
        value = dict(zip(config.nodes, config.values))
        y = Fraction(1)
        for s in net.dag.nodes:
            p_space, n_space = net.parent_space(s), net.nnd_space(s)
            p = p_space.index_of(p_space.configuration({x: value[x] for x in p_space.nodes}))
            n = n_space.index_of(n_space.configuration({x: value[x] for x in n_space.nodes}))
            y *= kernel(s, p, n)[net.variables[s].index_of(value[s])]
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
    for gen in joint.generators:
        entries, den = gen.column
        score = sum((masses[j] * v for j, v in entries), Fraction(0)) / den
        if score <= 0:
            failures.append(f"generator {gen.index} scored {score}")

    n = len(joint.generators)
    checked = 0
    for _ in range(samples):
        picks = rng.sample(range(n), rng.randint(1, min(4, n)))
        coeffs = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in picks]
        table = [Fraction(0)] * space.size
        for k, lam in zip(picks, coeffs):
            entries, den = joint.generators[k].column
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
