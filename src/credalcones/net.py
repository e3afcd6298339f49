"""Credal networks under epistemic irrelevance.

A network attaches to every node s and every configuration of its parents a
local cone of desirable gambles on the node's values.  The global model is
the cone on the joint space spanned by all products

    indicator(configuration of the non-descendants of s) * gamble,

one per local generator per slot of s, its non-descendant configuration,
numbered by that configuration's index (_slots).  They are enumerated in a
fixed order: nodes sorted, parent configurations lexicographic, then
non-parent-non-descendant configurations lexicographic, then the local
generator list (assessments first, atoms last).

A generator is its integer column (lp.IntVector), lifted from its local
cone's column; JointModel.generators is the list of them, and where each
came from (node, parent index, slot) is recorded once per slot.  A
gamble's integer form (Gamble.integer_form) is built once, on the gamble,
and read by every route.  All local state (witnesses, memoized
memberships and previsions, optimal bases) lives on the cones, so every
joint model of a network, flipped or not, shares it.  Queries on the joint cone are
answered by certificates always re-verified by exact substitution, in
integers over the nonzero entries (see lp), against these columns or, for
a chain prevision, against the local columns they are lifted from:

  * nonnegative nonzero targets are combined from full-configuration atom
    generators contributed by a leaf node;
  * a canonical strictly positive product mass function, built from the
    local coherence witnesses, rejects every target it scores negative
    (and proves no nonnegative combination of generators vanishes);
  * targets of the form indicator(x) * f with f local to one node are
    settled by f's membership in the local cone, whose witness or
    separating functional lifts exactly to the joint space;
  * when the graph is one directed path (a single node counts), the
    chain recursion (route "chain-recursion") takes the lower prevision m
    of any other target backwards from the deepest node of its scope,
    each level's function held only on the scope it still depends on as
    integers over one denominator (_levels), one small local LP per
    (node, parent value, local table), which the local cone memoizes by
    the table in lowest terms and reads at an optimal basis of its own,
    reached by simplex pivots on B^-1 (AssessmentCone.lower_prevision);
    the local primals lift onto the joint generators and telescope to
    target - m, the local duals chain into a joint mass function of
    expectation m.  Both are checked in the local spaces, a clean slot's
    by its cone and a flipped slot's against the joint model's own
    columns of that slot, so a prevision, which reads only m from the
    gamble's own table, does no work of the joint's size; the target is
    a member exactly when m >= 0 (witness: the lifted primal plus m on
    every leaf atom), and otherwise the chained mass function separates
    it, each printed certificate checked against every joint generator.
    Joint lower and upper previsions on a path come from the same
    recursion;
  * anything else falls back to one exact LP over the generator columns.

A product mass function (the canonical witness, a product separator, a
chain separator) is built as integers over one denominator (_product_mass)
from integer kernels, a separator is a primitive integer tuple
(lp._primitive) and a witness an lp.IntVector, each from where it is made,
through the separator cache, to the answer.

Because every shortcut certificate is verified before use, the fallback is
also the safety net: if the generator list was tampered with, verification
fails and the LP answers from the ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .cone import AssessmentCone, CoherenceReport
from .core import Configuration, Gamble, ScopeError, Space, VariableSpace
from .dag import Dag
from .lp import (
    EXACT_LP,
    IntRow,
    IntVector,
    LpError,
    Membership,
    Prevision,
    Vanishing,
    _check_work,
    _checked_prevision,
    _combines,
    _int_vector,
    _over_lcm,
    _prevision_fault,
    _primitive,
    _score,
    conic_membership,
    contains_zero as _lp_contains_zero,
)

DEFAULT_GENERATOR_CAP = 100_000

_EDGE_PROBABILITY = 0.5
_GAMBLE_MAGNITUDE = 3
_GAMBLE_DENOMINATOR = 2

_SEPARATOR_CACHE_LIMIT = 32
# chain recursion levels kept per joint model, one per scope, each up to
# twice the joint's size
_LEVELS_CACHE_LIMIT = 16

CHAIN_RECURSION = "chain-recursion"


class NetworkError(ValueError):
    pass


class ZeroGambleError(NetworkError):
    """The zero gamble has no desirability status in joint-level queries."""


class GeneratorCapError(NetworkError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"network would produce {count} generators, cap is {cap}")
        self.count = count
        self.cap = cap


class IncoherentLocalModel(NetworkError):
    def __init__(self, node: str, parent_config: Configuration, report: CoherenceReport):
        super().__init__(
            f"local model for node {node!r} given {parent_config!r} is incoherent"
        )
        self.node = node
        self.parent_config = parent_config
        self.report = report


@dataclass(frozen=True)
class IrrelevanceCheck:
    node: str
    parent_config: Configuration
    irrelevant: tuple[str, ...]
    given: Configuration
    gamble: Gamble
    local_member: bool
    joint_member: bool

    @property
    def agree(self) -> bool:
        return self.local_member == self.joint_member


@dataclass(frozen=True)
class Violation:
    kind: str
    node: Optional[str] = None
    parent_values: tuple[str, ...] = ()
    irrelevant: tuple[str, ...] = ()
    given_values: tuple[str, ...] = ()
    gamble: tuple[Fraction, ...] = ()
    local_member: Optional[bool] = None
    joint_member: Optional[bool] = None
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    zero_free: bool
    atoms_checked: int
    negatives_checked: int
    irrelevance_checked: int
    violations: tuple[Violation, ...]
    budget_exhausted: bool = False
    # the positive span of the generator list is minimal by construction:
    # each generator is an observed-configuration indicator times a locally
    # desirable gamble, so any joint model honoring the local models and the
    # irrelevance requirements must contain every one of them
    minimal_by_construction: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations and not self.budget_exhausted


class CredalNet:
    """A DAG plus one coherent local cone per (node, parent configuration).

    Local coherence is checked at construction; an incoherent slot raises
    IncoherentLocalModel immediately, so every built network carries a
    strictly positive coherence witness for each local model.
    """

    def __init__(
        self,
        dag: Dag,
        variables: Iterable[VariableSpace],
        assessments: Optional[Mapping[str, Sequence[Sequence[Gamble]]]] = None,
    ):
        report = dag.validate()
        if not report.acyclic:
            raise NetworkError(f"graph has a cycle: {' -> '.join(report.cycle)}")
        if not dag.nodes:
            raise NetworkError("a network needs at least one node")
        self.dag = dag
        by_node = {v.node: v for v in variables}
        if set(by_node) != set(dag.nodes):
            raise NetworkError("variables must cover exactly the graph's nodes")
        self.variables = {n: by_node[n] for n in dag.nodes}
        self.joint_space = Space(self.variables.values())

        self._node_space = {n: Space([self.variables[n]]) for n in dag.nodes}
        self._parent_space = {
            n: Space(self.variables[p] for p in dag.parents(n)) for n in dag.nodes
        }
        self._nnd_space = {
            n: Space(self.variables[m] for m in dag.non_parent_non_descendants(n))
            for n in dag.nodes
        }

        self.assessments: dict[tuple[str, int], tuple[Gamble, ...]] = {}
        given = dict(assessments) if assessments else {}
        unknown = set(given) - set(dag.nodes)
        if unknown:
            raise NetworkError(f"assessments for unknown nodes {sorted(unknown)}")
        for s in dag.nodes:
            per_parent = given.get(s)
            n_cfg = self._parent_space[s].size
            if per_parent is None:
                per_parent = [[] for _ in range(n_cfg)]
            if len(per_parent) != n_cfg:
                raise NetworkError(
                    f"node {s!r} needs one assessment list per parent "
                    f"configuration ({n_cfg}), got {len(per_parent)}"
                )
            for p_idx, gambles in enumerate(per_parent):
                self.assessments[(s, p_idx)] = tuple(
                    g.extend(self._node_space[s]) for g in gambles
                )

        self._cones: dict[tuple[str, int], AssessmentCone] = {}
        for (s, p_idx), gambles in self.assessments.items():
            cone = self._cones[(s, p_idx)] = AssessmentCone(self._node_space[s], gambles)
            rep = cone.is_coherent()
            if not rep.coherent:
                raise IncoherentLocalModel(s, self._parent_space[s].config_at(p_idx), rep)

    def node_space(self, node: str) -> Space:
        return self._node_space[node]

    def parent_space(self, node: str) -> Space:
        return self._parent_space[node]

    def nnd_space(self, node: str) -> Space:
        return self._nnd_space[node]

    def local_cone(self, node: str, parent_index: int) -> AssessmentCone:
        return self._cones[(node, parent_index)]

    def local_witness(self, node: str, parent_index: int) -> tuple[Fraction, ...]:
        """A strictly positive pmf on the node's values giving every local
        generator strictly positive expectation (the cone's own)."""
        return self._cones[(node, parent_index)].is_coherent().witness

    def generator_count(self) -> int:
        return sum(
            self._nnd_space[s].size
            * (len(self.assessments[(s, p)]) + len(self.variables[s].values))
            for s in self.dag.nodes
            for p in range(self._parent_space[s].size)
        )

    def build_joint(
        self,
        cap: int = DEFAULT_GENERATOR_CAP,
        mutate_flip: Optional[tuple[str, int, int]] = None,
    ) -> "JointModel":
        count = self.generator_count()
        if count > cap:
            raise GeneratorCapError(count, cap)
        return JointModel(self, mutate_flip=mutate_flip)


class JointModel:
    """The joint cone of a credal network, with certified query routes.

    mutate_flip=(node, parent_index, local_index) negates every joint
    product built from that local generator, leaving the reference local
    models untouched.  It exists so verification sweeps can prove they
    detect a corrupted joint model; see verify_requirements.
    """

    def __init__(self, net: CredalNet, mutate_flip: Optional[tuple[str, int, int]] = None):
        self.net = net
        self.space = net.joint_space

        if mutate_flip is not None:
            m_node, m_pidx, m_lidx = mutate_flip
            if m_node not in net.dag.nodes:
                raise NetworkError(f"mutation names unknown node {m_node!r}")
            if not 0 <= m_pidx < net.parent_space(m_node).size:
                raise NetworkError("mutation parent index out of range")
            if not 0 <= m_lidx < len(net.local_cone(m_node, m_pidx).columns):
                raise NetworkError("mutation generator index out of range")
        self.mutate_flip = mutate_flip

        # by node: the value and the slot (non-descendant configuration)
        # index of every joint configuration, and by slot (parent index,
        # non-parent-non-descendant index, the slot's first generator)
        self._value_at: dict[str, list[int]] = {}
        self._slot_at: dict[str, list[int]] = {}
        # by node, the space of its non-descendants, one slot per configuration
        self._nd_space: dict[str, Space] = {}
        self._slots: dict[str, list[tuple[int, int, int]]] = {}

        leaves = net.dag.leaves()
        self._leaf = leaves[0]
        self._atom_gen_at: dict[int, int] = {}

        # each generator's integer column (lp.IntVector: its nonzero entries
        # as (joint configuration index, integer) pairs over one denominator)
        self.generators: list[IntVector] = []
        # each slot's local columns, which its generators are lifted from:
        # the local cone's own, or a copy with the flipped column negated
        self._local_columns: dict[tuple[str, int], tuple[IntVector, ...]] = {}
        for s in net.dag.nodes:
            nd = self._nd_space[s] = net.parent_space(s).union(net.nnd_space(s))
            v_at = self._value_at[s] = self.space.index_map(net.node_space(s))
            slot_at = self._slot_at[s] = self.space.index_map(nd)
            cells: list[list[tuple[int, int]]] = [[] for _ in range(nd.size)]
            for j, w in enumerate(slot_at):
                cells[w].append((j, v_at[j]))
            # each parent index's local columns by value
            local_cols = []
            for p_idx in range(net.parent_space(s).size):
                columns = net.local_cone(s, p_idx).columns
                if mutate_flip is not None and mutate_flip[:2] == (s, p_idx):
                    k = mutate_flip[2]
                    entries, den = columns[k]
                    flipped = tuple((v, -n) for v, n in entries), den
                    columns = (*columns[:k], flipped, *columns[k + 1:])
                self._local_columns[(s, p_idx)] = columns
                local_cols.append([(dict(entries), den) for entries, den in columns])
            keys = list(zip(nd.index_map(net.parent_space(s)), nd.index_map(net.nnd_space(s))))
            first = [0] * nd.size
            # generators by parent index, then nnd index, then local generator
            for w in sorted(range(nd.size), key=keys.__getitem__):
                p_idx = keys[w][0]
                n_assessed = len(net.assessments[(s, p_idx)])
                first[w] = len(self.generators)
                for k, (by_value, den) in enumerate(local_cols[p_idx]):
                    entries = tuple((j, by_value[v]) for j, v in cells[w] if v in by_value)
                    if s == self._leaf and k >= n_assessed:
                        self._atom_gen_at[entries[0][0]] = len(self.generators)
                    self.generators.append((entries, den))
            self._slots[s] = [(p, n, g) for (p, n), g in zip(keys, first)]

        # verified separators as primitive integers, the canonical witness
        # first when it verifies
        self._separators: list[tuple[int, ...]] = []
        self._canonical: Optional[tuple[list[int], int]] = None
        ints, den = self._product_mass(lambda s, p, _: net.local_cone(s, p).witness_mass)
        # the product of the local coherence witnesses is strictly positive
        # by construction; it is kept only if it scores every generator
        # strictly positive, which certifies at once that no nonnegative
        # combination of the generators vanishes
        if all(_score(ints, column) > 0 for column in self.generators):
            self._canonical = ints, den
            self._cache_separator(_primitive(ints))
        self._dedup: Optional[list[int]] = None
        self._observed: dict[tuple[str, int, tuple], list[int]] = {}
        # the chain recursion's levels by the scope they start from, oldest
        # first (_levels)
        self._plans: dict[Space, list] = {}

    # -- product mass functions --------------------------------------------

    def _product_mass(
        self, kernel: Callable[[str, int, int], IntRow]
    ) -> tuple[list[int], int]:
        """The joint mass function whose factor for node s, at a joint
        configuration with parent index p and non-parent-non-descendant
        index n, is kernel(s, p, n) at the node's value there, as integers
        over one positive denominator: mass j is ints[j] / den.  Each
        node's kernels (lp.IntRow), one per slot in slot order (_slots), are
        put over the lcm of all their denominators, and den is the product
        of these lcms."""
        ints, den = [1] * self.space.size, 1
        for s in self.net.dag.nodes:
            kernels = [kernel(s, p, n) for p, n, _ in self._slots[s]]
            node_den = lcm(*[d for _, d in kernels])
            scaled = [[v * (node_den // d) for v in row] for row, d in kernels]
            ints = [a * scaled[w][v] for a, w, v in zip(ints, self._slot_at[s], self._value_at[s])]
            den *= node_den
        return ints, den

    # -- verified certificate helpers -------------------------------------

    def _owners(self) -> list[int]:
        """The generator each distinct column first occurs at, in order;
        built on first use."""
        if self._dedup is None:
            first: dict[IntVector, int] = {}
            for k, column in enumerate(self.generators):
                first.setdefault(column, k)
            self._dedup = list(first.values())
        return self._dedup

    def _witness_matches(self, witness: IntVector, target: IntVector) -> bool:
        return _combines(self.generators, witness, target)

    def _separates_all_generators(self, y: Sequence[int]) -> bool:
        """y (integers) scores every generator nonnegative; each distinct
        column is scored once."""
        columns = self.generators
        return all(_score(y, columns[k]) >= 0 for k in self._owners())

    def _cache_separator(self, y: tuple[int, ...]) -> tuple[int, ...]:
        """Cache a verified separator y (primitive integers) and return it.
        Past _SEPARATOR_CACHE_LIMIT entries the oldest is evicted, except a
        verified canonical witness, which stays in front."""
        if y not in self._separators:
            self._separators.append(y)
            if len(self._separators) > _SEPARATOR_CACHE_LIMIT:
                del self._separators[self._canonical is not None]
        return y

    # -- query routes ------------------------------------------------------

    def member_with_certificate(
        self, f: Gamble, given: Optional[Configuration] = None
    ) -> Membership:
        """Is f desirable once `given` is observed (nothing, by default)?

        The question is membership of indicator(given) * f in the joint
        cone, answered with a verified certificate.  f must not mention an
        observed node, and the zero gamble, which has no desirability
        status, is refused.  When f concerns a single node, its parents are
        all observed and every other observed node is a non-parent-non-
        descendant, the structured route with its lifted local certificates
        applies; anything else goes through the quick routes, then one
        exact LP, the chain recursion first when the graph is one directed
        path.
        """
        observed = given.nodes if given is not None else ()
        unknown = [n for n in observed if n not in self.net.variables]
        if unknown:
            raise NetworkError(f"observed nodes {unknown} are not in the network")
        overlap = set(f.space.nodes) & set(observed)
        if overlap:
            raise NetworkError(
                f"gamble scope overlaps observed nodes {sorted(overlap)}"
            )
        if f.is_zero:
            raise ZeroGambleError("the zero gamble has no desirability status")
        net = self.net
        if len(f.space.nodes) == 1 and f.space.nodes[0] in net.variables:
            s = f.space.nodes[0]
            parents = set(net.dag.parents(s))
            if parents <= set(observed) and set(observed) - parents <= set(
                net.nnd_space(s).nodes
            ):
                p_space = net.parent_space(s)
                p_cfg = p_space.configuration({n: given.value_of(n) for n in parents})
                return self.structured_member(s, p_space.index_of(p_cfg), given, f)
        target = self._target(f, given)
        quick = self._quick_routes(target)
        if quick is not None:
            return quick
        scope = f.space.union(given.space) if given is not None else f.space
        return self._exact_membership(target, scope)

    def _target(self, f: Gamble, given: Optional[Configuration] = None) -> IntVector:
        """f on the joint space, zero off the joint configurations that
        agree with `given` (all of them for None), in integer form
        (lp.IntVector), built from f's own table and the joint index maps
        of its scope (the node's own for a gamble on one node of the
        network) and of the observation, with no dense joint gamble.  The
        observation shares no node with f's scope, so every entry of f is
        kept somewhere and the denominator is that of f's table."""
        ints, den = f.integer_form
        node = f.space.nodes[0] if len(f.space) == 1 else None
        own = node in self._value_at and f.space == self.net.node_space(node)
        at = self._value_at[node] if own else self.space.index_map(f.space)
        joint = range(self.space.size)
        if given is not None:
            observed, wanted = self.space.index_map(given.space), given.space.index_of(given)
            joint = [j for j in joint if observed[j] == wanted]
        return tuple((j, ints[at[j]]) for j in joint if ints[at[j]]), den

    def _quick_routes(self, target: IntVector) -> Optional[Membership]:
        entries, den = target
        if all(n > 0 for _, n in entries):
            witness = tuple(sorted([(self._atom_gen_at[j], n) for j, n in entries])), den
            if self._witness_matches(witness, target):
                return Membership(member=True, route="positive-span", witness=witness)
        for y in self._separators:
            if _score(y, target) < 0:
                return Membership(member=False, route="cached-separator", separator=y)
        return None

    def _dedup_columns(self) -> tuple[list[IntVector], list[int]]:
        """The distinct generator columns, in order of first occurrence, and
        the index of the generator each column stands for.  The joint LP is
        sized here, and refused with WorkCapError before anything of its
        size is built."""
        columns, owners = self.generators, self._owners()
        _check_work(self.space.size, len(owners))
        return [columns[k] for k in owners], owners

    def _exact_membership(
        self, target: IntVector, scope: Optional[Space] = None
    ) -> Membership:
        """The tail of every membership route, for a target in integer
        form that depends only on the nodes of `scope` (all of them by
        default): the chain recursion when the graph is one directed path,
        else, or when one of its certificates fails, one exact LP over the
        joint generators."""
        chained = self._chain_membership(target, scope)
        return chained if chained is not None else self._lp_membership(target)

    def _lp_membership(self, target: IntVector) -> Membership:
        columns, owners = self._dedup_columns()
        ints = [0] * self.space.size
        for j, n in target[0]:
            ints[j] = n
        res = conic_membership((ints, target[1]), columns)
        if res.member:
            # owners is increasing, so the witness stays sorted
            pairs, den = res.witness
            witness = tuple([(owners[k], n) for k, n in pairs]), den
            if not self._witness_matches(witness, target):
                raise LpError("LP witness failed joint verification")
            return Membership(member=True, route=EXACT_LP, witness=witness)
        y = res.separator
        if not self._separates_all_generators(y) or _score(y, target) >= 0:
            raise LpError("LP separator failed joint verification")
        self._cache_separator(y)
        return res

    def contains_zero(self) -> Vanishing:
        """Does any nonzero nonnegative combination of generators vanish?

        The canonical product witness settles this without an LP whenever
        it verifies (always, for an untampered network of coherent locals).
        """
        if self._canonical is not None:
            # every generator has strictly positive score, so a vanishing
            # combination would need all-zero coefficients
            return Vanishing(exists=False, route="canonical-witness")
        columns, owners = self._dedup_columns()
        res = _lp_contains_zero(columns, self.space.size)
        if not res.exists:
            return res
        pairs, den = res.combination
        combo = tuple([(owners[k], n) for k, n in pairs]), den
        if not self._witness_matches(combo, _int_vector(())):
            raise LpError("vanishing combination failed joint verification")
        return Vanishing(exists=True, route=EXACT_LP, combination=combo)

    # -- structured queries --------------------------------------------------

    def structured_member(
        self, node: str, parent_index: int, given: Optional[Configuration], f: Gamble
    ) -> Membership:
        """The one structured entry, which member_with_certificate,
        check_irrelevance and the sweep (once per observation) dispatch to:
        membership of indicator(parent configuration, given) * f in the
        joint cone, where f is a nonzero gamble on `node`, the parent
        configuration is the one at `parent_index`, and the observation
        `given` (None for nothing) is of non-parent-non-descendants, and of
        the parents too if the caller has them at hand.

        The target is built in integer form straight from the joint index
        maps: the joint configurations with this parent index and the
        observed values (found once per model for each observation,
        _observed_indices), each carrying the entry of f's integer form
        (Gamble.integer_form, built once per gamble) at the node's value
        there.  Certificates are assembled from the local cone when
        possible (a local witness replicates over the unobserved
        non-parent-non-descendants; a local separating functional extends
        to a product mass function).  Both are verified against the actual
        generator list, so a tampered joint model falls through to the
        chain recursion (on a path) and then the exact LP.
        """
        f = f.extend(self.net.node_space(node))
        observed = self._observed_indices(node, parent_index, given)
        ints, den = f.integer_form
        v_at = self._value_at[node]
        target = tuple((j, ints[v_at[j]]) for j in observed if ints[v_at[j]]), den

        quick = self._quick_routes(target)
        if quick is not None:
            return quick

        cert = self.net.local_cone(node, parent_index).member_with_certificate(f)
        if cert.member:
            assembled = self._assemble_local_witness(node, observed, cert.witness)
            if self._witness_matches(assembled, target):
                return Membership(member=True, route="local-assembly", witness=assembled)
        elif cert.route != "cached-separator":
            # not the coherence witness, whose product is the canonical one:
            # the quick routes tried it, or the flipped generator refutes it
            sep = self._product_separator(node, parent_index, cert.separator)
            if sep is not None and _score(sep, target) < 0:
                return Membership(member=False, route="product-separator", separator=sep)
        return self._exact_membership(target)

    def _observed_indices(
        self, node: str, parent_index: int, given: Optional[Configuration]
    ) -> list[int]:
        """The joint configuration indices with this parent index of the
        node and the observed values of `given` (None for nothing), in
        index order; computed once per (node, parent index, observation)."""
        pairs = tuple(zip(given.nodes, given.values)) if given is not None else ()
        key = (node, parent_index, pairs)
        if key not in self._observed:
            fixed = [
                (self._value_at[n], self.net.variables[n].index_of(v)) for n, v in pairs
            ]
            slots = self._slots[node]
            self._observed[key] = [
                j
                for j, w in enumerate(self._slot_at[node])
                if slots[w][0] == parent_index and all(at[j] == k for at, k in fixed)
            ]
        return self._observed[key]

    def _assemble_local_witness(
        self, node: str, observed: Sequence[int], local_witness: IntVector
    ) -> IntVector:
        """Replicate a local cone witness over every slot of the node holding
        one of the joint configurations `observed` (all of one parent index):
        local generator k of slot w is joint generator _slots[node][w][2] + k,
        so the witness is sorted when the slots are, by first generator."""
        slots, slot_at = self._slots[node], self._slot_at[node]
        pairs, den = local_witness
        firsts = sorted({slots[slot_at[j]][2] for j in observed})
        return tuple([(first + k, n) for first in firsts for k, n in pairs]), den

    def _product_separator(
        self, node: str, parent_index: int, local_separator: Sequence[int]
    ) -> Optional[tuple[int, ...]]:
        """A mass function scoring every generator nonnegative and the
        structured target negative: the network of local witnesses with the
        node's kernel at this parent slot replaced by the (normalized)
        local separating functional; cached, as primitive integers, or
        None."""
        total = sum(local_separator)
        if total <= 0 or any(v < 0 for v in local_separator):
            # a local separator is nonnegative (atoms are generators); a
            # tampered certificate is useless here
            return None
        kernel, cone = (local_separator, total), self.net.local_cone
        ints, _ = self._product_mass(
            lambda s, p, _: kernel if (s, p) == (node, parent_index) else cone(s, p).witness_mass
        )
        y = _primitive(ints)
        return self._cache_separator(y) if self._separates_all_generators(y) else None

    # -- chain recursion -----------------------------------------------------

    def _levels(
        self, scope: Space
    ) -> Optional[list[tuple[str, Space, list[tuple[int, AssessmentCone, tuple[int, ...]]]]]]:
        """The chain recursion's levels for a function on `scope` (a space
        of the network's variables), deepest first, when the graph is one
        directed path s_0 -> ... -> s_{n-1}, else None; built once per
        scope.  A level is (s_i, the space of the scope it leaves, rows):
        the nodes of the scope S it reads (scope itself at the first level
        read) but s_i, and the parent s_{i-1}, the root's the empty space.
        Row r, one per configuration of the scope left, is (parent index,
        local cone, positions): positions[v] is the place of (r, v) in the
        function read.

        The first level read is the deepest node of the scope, or of the
        flipped slot (mutate_flip) if that is deeper: every level below it
        reads a function that does not depend on its node, so its rows are
        constant and are skipped.  Past _LEVELS_CACHE_LIMIT scopes the
        levels built first leave."""
        if scope in self._plans:
            return self._plans[scope]
        order = self.net.dag.path()
        if order is None:
            return None
        net, var = self.net, self.net.variables
        depth = {s: i for i, s in enumerate(order)}
        deepest = max([depth[s] for s in scope.nodes], default=-1)
        if self.mutate_flip is not None:
            deepest = max(deepest, depth[self.mutate_flip[0]])
        levels, held, read = [], set(scope.nodes), scope
        for i in range(deepest, -1, -1):
            s = order[i]
            held = (held - {s}) | set(order[i - 1:i])
            # held lies between s's parents and all the nodes above s
            parents, above = net.parent_space(s), self._nd_space[s]
            known = [sp for sp in (parents, above) if len(sp) == len(held)]
            left = known[0] if known else Space(var[n] for n in held)
            # read lies in left and s: (r, v) sits in read at r's place plus v's
            shift = net.node_space(s).positions_in(read)
            cones = [net.local_cone(s, p) for p in range(parents.size)]
            at = zip(left.positions_in(parents), left.positions_in(read))
            levels.append((s, left, [(p, cones[p], tuple([q + v for v in shift])) for p, q in at]))
            read = left
        self._plans[scope] = levels
        if len(self._plans) > _LEVELS_CACHE_LIMIT:
            del self._plans[next(iter(self._plans))]
        return levels

    def _chain_recursion(
        self, scope: Space, ints: Sequence[int], den: int
    ) -> Optional[tuple[Fraction, list[list[Prevision]]]]:
        """The lower prevision m of the function ints / den on `scope`, by
        backward recursion over the local models on a path (_levels), with
        the local answer (AssessmentCone.lower_prevision: m, primal, dual)
        of every row of every level read; None off a path or if a flipped
        slot's answer fails its check.

        A row's entry in the function a level leaves is the local lower
        prevision of the row, read at its positions in the function below,
        and each level's entries are put over one denominator.  Every slot
        of s_i at parent index p has the local columns of (s_i, p)
        (_local_columns).  A clean slot's are its cone's own, at whose
        certified basis, or by whose tableau check, this very answer was
        read before it was memoized; a flipped slot's answer is checked
        here, over the node's values only: its dual is nonnegative, which
        the chaining needs (every cone answer's dual is, as it was checked
        against the cone's columns, every atom among them, so this refusal
        is never reached), and lp._prevision_fault finds no fault.  The
        levels below the first read are skipped: their rows are constant c,
        whose lower prevision is c."""
        levels = self._levels(scope)
        if levels is None:
            return None
        flipped = self.mutate_flip[:2] if self.mutate_flip is not None else None
        answers = []
        for s, _, rows in levels:
            found = []
            for p, cone, positions in rows:
                row = [ints[q] for q in positions]
                answer = cone.lower_prevision(row, den)
                if (s, p) == flipped:
                    m, pairs, mass = answer
                    if min(mass[0]) < 0 or _prevision_fault(
                        self._local_columns[flipped], (row, den), m, pairs, mass
                    ):
                        return None
                found.append(answer)
            answers.append(found)
            ints, den = _over_lcm([answer[0] for answer in found])
        return Fraction(ints[0], den), answers

    def _chain_certificates(self, target: IntVector, scope: Optional[Space] = None) -> Optional[
        tuple[Fraction, IntVector, dict[tuple[str, int, int], IntRow]]
    ]:
        """The lower prevision m of a joint target in integer form that
        depends only on the nodes of `scope` (all of them by default), by
        the chain recursion (_chain_recursion) on the target's function on
        that scope, with its primal (an IntVector over generator indices,
        over the lcm of the lifted local primals' denominators, combining
        to target - m) and the local duals it chains, the kernels (node,
        parent index, non-parent-non-descendant index) -> mass function on
        the node's values (lp.IntRow); None when the recursion is.

        Each slot of a level read, a configuration (p, n) of s_0 .. s_{i-1}
        whose generators are I(p, n) * g for the slot's local columns g,
        takes the answer of the row it restricts to: its kernel is the
        row's local dual and its local primal is lifted onto its
        generators.  A slot of a skipped level takes the empty primal and
        its cone's coherence witness as kernel, which the coherence LP
        checked when the cone was built: it sums to 1, gives the constant
        row its value and scores every local column positively.  Every
        answer was checked on the slot's own columns (_chain_recursion),
        so both joint certificates hold without a joint check:

          * primal: each local primal, lifted onto its slot's generators,
            combines them to I(p, n) * (row - m_row); summed over the
            slots of one level this is the function read minus the one
            left, a skipped level adds nothing, so the lifted terms
            telescope to target - m;
          * dual: the chained mass (_product_mass of the kernels) sums to 1
            and gives the target the expectation m, level by level.  The
            nodes below s_i sum out to 1, so it scores I(p, n) * g as
            mass(p, n), the product of the kernels above s_i, times the
            kernel's score of g.  Both factors are >= 0, so the chained
            mass scores every generator nonnegative.

        A prevision reads only m (_chain_recursion); _chain_membership
        prints these certificates and checks them against every joint
        generator.  Which local basis answers a row depends on the rows
        read before, and a one-node target skips its tail levels, so its
        separator may differ from the one the recursion on the whole joint
        space finds."""
        scope = scope if scope is not None else self.space
        levels = self._levels(scope)
        if levels is None:
            return None
        entries, den = target
        ints = [0] * scope.size
        at = self.space.index_map(scope)
        for j, n in entries:
            ints[at[j]] = n
        chained = self._chain_recursion(scope, ints, den)
        if chained is None:
            return None
        m, answers = chained
        read = {s: (left, found) for (s, left, _), found in zip(levels, answers)}
        net, lifted, kernels = self.net, [], {}
        for s in net.dag.nodes:
            slots = self._slots[s]
            if s not in read:
                for p, n, _ in slots:
                    kernels[(s, p, n)] = net.local_cone(s, p).witness_mass
                continue
            left, found = read[s]
            # a slot's configuration of the nodes above s, restricted to left
            for (p, n, first), r in zip(slots, self._nd_space[s].index_map(left)):
                _, (pairs, den), kernels[(s, p, n)] = found[r]
                if pairs:
                    lifted.append((first, pairs, den))
        common = lcm(*[den for _, _, den in lifted])
        primal = [(first + k, v * (common // d)) for first, pairs, d in lifted for k, v in pairs]
        return m, (tuple(sorted(primal)), common), kernels

    def _chain_membership(
        self, target: IntVector, scope: Optional[Space] = None
    ) -> Optional[Membership]:
        """Membership of a nonzero joint gamble, in integer form, that
        depends only on the nodes of `scope` (all of them by default), from
        its chain-recursion lower prevision m: a member exactly when m >=
        0, with the lifted primal plus m on every leaf atom as witness;
        otherwise the chained mass function of the kernels separates it.
        The certificate is printed, so it is checked against every joint
        generator.  None when the recursion does not apply or a
        certificate fails its check."""
        chained = self._chain_certificates(target, scope)
        if chained is None:
            return None
        m, primal, kernels = chained
        if m < 0:
            mass, _ = self._product_mass(lambda s, p, n: kernels[(s, p, n)])
            y = _primitive(mass)
            if not self._separates_all_generators(y) or _score(y, target) >= 0:
                return None
            self._cache_separator(y)
            return Membership(member=False, route=CHAIN_RECURSION, separator=y)
        if m:
            # m on every leaf atom, over the lcm of m's and the primal's denominators
            pairs, den = primal
            common = lcm(den, m.denominator)
            scale, add = common // den, m.numerator * (common // m.denominator)
            witness = {k: v * scale for k, v in pairs}
            for k in self._atom_gen_at.values():
                witness[k] = witness.get(k, 0) + add
            primal = tuple(sorted(witness.items())), common
        if not self._witness_matches(primal, target):
            return None
        return Membership(member=True, route=CHAIN_RECURSION, witness=primal)

    # -- requirement checks ----------------------------------------------------

    def check_irrelevance(
        self, node: str, parent_config: Configuration, given: Configuration, f: Gamble
    ) -> IrrelevanceCheck:
        """Local desirability of f must coincide with joint desirability of
        indicator(parent_config, given) * f, for any observed configuration
        `given` of any subset of the node's non-parent-non-descendants."""
        extra = set(given.nodes) - set(self.net.nnd_space(node).nodes)
        if extra:
            raise NetworkError(
                f"{sorted(extra)} are not non-parent-non-descendants of {node!r}"
            )
        f = f.extend(self.net.node_space(node))
        if f.is_zero:
            raise ZeroGambleError("the zero gamble has no desirability status")
        p_idx = self.net.parent_space(node).index_of(parent_config)
        local = self.net.local_cone(node, p_idx).member_with_certificate(f).member
        joint = self.structured_member(node, p_idx, given, f).member
        return IrrelevanceCheck(
            node=node,
            parent_config=parent_config,
            irrelevant=given.nodes,
            given=given,
            gamble=f,
            local_member=local,
            joint_member=joint,
        )

    def lower_prevision(self, f: Gamble) -> Fraction:
        """Largest m with f - m in the closure of the joint cone: by the
        chain recursion when the graph is one directed path and its
        certificates verify, else by one exact LP.  A tampered model may
        have no finite m; then lp.InfinitePrevisionError is raised, once
        the LP's ray or Farkas vector is verified.  The chain recursion
        reads f's own table in integer form, on f's scope; only the LP lays
        f out on the joint space.  A scope variable that is not the
        network's raises ScopeError."""
        if not self.space.contains_space(f.space):
            raise ScopeError(f"scope {self.space} does not contain {f.space}")
        chained = self._chain_recursion(f.space, *f.integer_form)
        if chained is not None:
            return chained[0]
        columns, _ = self._dedup_columns()
        return _checked_prevision(f.extend(self.space).table, columns)[0]

    def upper_prevision(self, f: Gamble) -> Fraction:
        return -self.lower_prevision(-f)

    def _subsets_for_sweep(
        self, nnd: tuple[str, ...], rng: random.Random, cap: int
    ) -> list[tuple[str, ...]]:
        if len(nnd) <= 3:
            return [c for size in range(len(nnd) + 1) for c in combinations(nnd, size)]
        chosen = {(), nnd}
        while len(chosen) < min(cap, 2 ** len(nnd)):
            chosen.add(tuple(n for n in nnd if rng.random() < 0.5))
        return sorted(chosen, key=lambda t: (len(t), t))

    def _irrelevance_slots(
        self, rng: random.Random, gambles_per_slot: int, subset_cap: int
    ) -> Iterator[tuple[str, int, Gamble, list[Configuration]]]:
        """Every slot gamble of the sweep, in sweep order, as (node, parent
        index, gamble on the node's space, observations): one irrelevance
        check per observation, all sharing one local side, which does not
        depend on the observation.  A node's subsets are drawn from rng at
        its start, and each random gamble only when the sweep reaches it."""
        net = self.net
        for s in net.dag.nodes:
            nnd = net.nnd_space(s).nodes
            subsets = self._subsets_for_sweep(nnd, rng, subset_cap)
            # the observed configurations of every subset, in sweep order
            observations = [
                given
                for irrelevant in subsets
                for given in Space(net.variables[n] for n in irrelevant).configurations()
            ]
            node_space = net.node_space(s)
            for p_idx in range(net.parent_space(s).size):
                local_gens = net.local_cone(s, p_idx).generators
                draws = (sample_gamble(rng, node_space) for _ in range(gambles_per_slot))
                for f in chain(local_gens, [-g for g in local_gens], draws):
                    yield s, p_idx, f, observations

    def _negatives(self, rng: random.Random, draws: int) -> Iterator[tuple[Fraction, ...]]:
        """Negated atoms, then `draws` random nonpositive tables, each drawn when reached."""
        for j in range(self.space.size):
            table = [Fraction(0)] * self.space.size
            table[j] = Fraction(-1)
            yield tuple(table)
        for _ in range(draws):
            table = [Fraction(0)] * self.space.size
            while all(v == 0 for v in table):
                table = [
                    Fraction(-rng.randint(0, 2), rng.randint(1, 2))
                    for _ in range(self.space.size)
                ]
            yield tuple(table)

    def verify_requirements(
        self,
        rng: Optional[random.Random] = None,
        gambles_per_slot: int = 10,
        subset_cap: int = 8,
        max_checks: Optional[int] = None,
    ) -> VerificationReport:
        """Sweep the defining requirements of the joint model.

        Checks that no nonnegative combination of generators vanishes, that
        every full-configuration atom is desirable, that no nonpositive
        gamble is (negated atoms plus random draws), and that local and
        joint desirability coincide across nodes, parent configurations,
        subsets of non-parent-non-descendants and their configurations, for
        the local generators, their negations, and sampled gambles.
        Violations name the exact slot.  Local desirability is decided once
        per slot gamble and compared with the joint answer of each
        observation, one structured_member call each, which all read the
        gamble's one integer form; the checks and their order are those of
        check_irrelevance on every (node, parent, observation, gamble).

        max_checks caps the number of irrelevance checks, one per
        observation (a deterministic budget that may stop inside a slot
        gamble); a sweep with checks left beyond it is reported as
        budget_exhausted.  The negatives are outside the budget: there are
        size + gambles_per_slot of them, linear in the joint size, the
        canonical witness of an untampered model rejects each without an
        LP, and counting them would change negatives_checked in every
        budgeted report.  The counts must be nonnegative integers
        (ValueError naming the argument, before any work)."""
        counts = {"gambles_per_slot": gambles_per_slot, "subset_cap": subset_cap}
        if max_checks is not None:
            counts["max_checks"] = max_checks
        for name, n in counts.items():
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError(f"{name} must be a nonnegative integer, not {n!r}")
        rng = rng if rng is not None else random.Random(0)
        violations: list[Violation] = []

        zero = self.contains_zero()
        if zero.exists:
            violations.append(
                Violation(
                    kind="vanishing-combination",
                    detail="a nonzero nonnegative combination of generators is zero",
                )
            )

        for j in range(self.space.size):
            table = [Fraction(0)] * self.space.size
            table[j] = Fraction(1)
            res = self.member_with_certificate(Gamble(self.space, tuple(table)))
            if not res.member:
                violations.append(
                    Violation(
                        kind="atom-membership",
                        given_values=self.space.config_at(j).values,
                        detail="full-configuration indicator is not desirable",
                    )
                )

        negatives_checked = 0
        for table in self._negatives(rng, gambles_per_slot):
            res = self.member_with_certificate(Gamble(self.space, table))
            negatives_checked += 1
            if res.member:
                violations.append(
                    Violation(
                        kind="sign-violation",
                        gamble=table,
                        detail="a nonpositive gamble is desirable",
                    )
                )

        checked, exhausted = 0, False
        for s, p_idx, f, observations in self._irrelevance_slots(
            rng, gambles_per_slot, subset_cap
        ):
            # the budget counts observations, so it may stop inside a gamble
            if max_checks is not None and checked + len(observations) > max_checks:
                observations, exhausted = observations[: max_checks - checked], True
            if observations:
                local = self.net.local_cone(s, p_idx).member_with_certificate(f).member
            for given in observations:
                joint = self.structured_member(s, p_idx, given, f).member
                checked += 1
                if joint != local:
                    violations.append(
                        Violation(
                            kind="irrelevance-mismatch",
                            node=s,
                            parent_values=self.net.parent_space(s).config_at(p_idx).values,
                            irrelevant=given.nodes,
                            given_values=given.values,
                            gamble=f.table,
                            local_member=local,
                            joint_member=joint,
                        )
                    )
            if exhausted:
                break
        return VerificationReport(
            zero_free=not zero.exists,
            atoms_checked=self.space.size,
            negatives_checked=negatives_checked,
            irrelevance_checked=checked,
            violations=tuple(violations),
            budget_exhausted=exhausted,
        )


# -- samplers -------------------------------------------------------------


def sample_gamble(rng: random.Random, space: Space) -> Gamble:
    """A random nonzero gamble with small rational entries."""
    while True:
        table = tuple(
            Fraction(
                rng.randint(-_GAMBLE_MAGNITUDE, _GAMBLE_MAGNITUDE),
                rng.randint(1, _GAMBLE_DENOMINATOR),
            )
            for _ in range(space.size)
        )
        if any(v != 0 for v in table):
            return Gamble(space, table)


def sample_credal_net(
    rng: random.Random,
    max_nodes: int = 4,
    max_values: int = 3,
    max_assessments: int = 2,
) -> CredalNet:
    """A random network with coherent local models.

    Assessments are rejection-sampled per slot: a slot that fails to be
    coherent after a few redraws falls back to fewer gambles, ending at the
    vacuous (always coherent) model.
    """
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    variables = [
        VariableSpace(name, tuple(f"v{k}" for k in range(rng.randint(2, max_values))))
        for name in names
    ]
    order = names[:]
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    edges = []
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if rng.random() < _EDGE_PROBABILITY:
                edges.append((u, v) if rank[u] < rank[v] else (v, u))
    dag = Dag(names, edges)

    by_node = {v.node: v for v in variables}
    assessments: dict[str, list[list[Gamble]]] = {}
    for s in names:
        node_space = Space([by_node[s]])
        parent_space = Space(by_node[p] for p in dag.parents(s))
        per_cfg: list[list[Gamble]] = []
        for _ in range(parent_space.size):
            want = rng.randint(0, max_assessments)
            chosen: list[Gamble] = []
            while want > 0:
                for _ in range(10):
                    candidate = chosen + [sample_gamble(rng, node_space)]
                    if AssessmentCone(node_space, candidate).is_coherent():
                        chosen = candidate
                        break
                want -= 1
            per_cfg.append(chosen)
        assessments[s] = per_cfg
    return CredalNet(dag, variables, assessments)
