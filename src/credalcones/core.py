"""Finite variable spaces and exact rational gambles.

Everything downstream (cones, networks, solvers) works with the two value
types defined here: a ``Space`` describing a finite product domain over a
set of named variables, and a ``Gamble`` mapping each configuration of a
space to an exact rational payoff.  All scalars are ``fractions.Fraction``;
no floating point enters anywhere.

``Space.index_map`` is the one place where the index layout is decoded:
extensions, indicators and the joint model project configurations with it.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Union

RationalLike = Union[Fraction, int, str]


class ScopeError(ValueError):
    """A gamble or configuration was used outside a compatible scope."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, string ("p/q" or "n"), or Fraction to an exact Fraction.

    Floats are rejected: accepting them would silently contaminate exact
    computations with binary rounding.  A string is read by
    _parse_rational, which refuses a decimal literal over the int-string
    digit limit before building any power of ten.
    """
    if isinstance(value, str):
        return _parse_rational(value.strip())
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a rational: {value!r} (floats are not accepted)")


def _over_lcm(values) -> tuple[list[int], int]:
    """Rationals as integers over their least common denominator:
    values[j] == ints[j] / den."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


# a decimal literal as fractions.Fraction reads it: sign, integer digits,
# fraction digits, exponent; a match with a point or an "e" has one of the last two
_DECIMAL = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
    r"(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?\s*"
)


def _decimal(sign: str, num: str, dec: str, exp: str, limit: int) -> Fraction:
    """The value of a literal that _DECIMAL matched, read with Fraction's
    own int() calls in its order, or ValueError when its numerator or
    denominator in lowest terms has more than `limit` digits.  The mantissa
    m has at most len(num) + len(dec) digits, so a shift by that many places
    past limit is refused before any power of ten is built, and no power
    built has more than 4 limit digits."""
    dec = dec.replace("_", "")
    whole, frac = int(num or "0"), int(dec or "0")
    m = whole * 10 ** len(dec) + frac
    shift = int(exp or "0") - len(dec)
    if not m:
        return Fraction(0)
    if abs(shift) < limit + len(num) + len(dec):
        value = Fraction(m * 10**shift) if shift >= 0 else Fraction(m, 10**-shift)
        if max(value.numerator, value.denominator) < 10**limit:
            return -value if sign == "-" else value
    raise ValueError(f"a numerator or denominator of more than {limit} digits")


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), without its regular expression for the plain forms
    n and n/d (ASCII digits, n optionally negative, d nonzero) shorter
    than the length from which int() checks the int-string digit limit;
    a decimal literal (with a point or an exponent), while that limit is
    set, by _decimal; every other text, and its error, is Fraction's own."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if len(text) < sys.int_info.str_digits_check_threshold and text.isascii() and digits.isdigit():
        if not slash:
            return Fraction(int(num))
        if den.isdigit() and (d := int(den)):
            return Fraction(int(num), d)
    limit = sys.get_int_max_str_digits()
    found = limit and ("." in text or "e" in text or "E" in text) and _DECIMAL.fullmatch(text)
    return _decimal(*found.groups(""), limit) if found else Fraction(text)


@dataclass(frozen=True)
class VariableSpace:
    """A named variable together with its ordered, finite set of values."""

    node: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"variable {self.node!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"variable {self.node!r} has duplicate values")

    def __len__(self) -> int:
        return len(self.values)

    def index_of(self, value: str) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise KeyError(f"{value!r} is not a value of variable {self.node!r}") from None


class Space:
    """A product domain over a set of variables, in canonical node order.

    Nodes are kept sorted by id, and configurations are enumerated
    lexicographically with the first (smallest) node varying slowest.  This
    fixed order is what makes table indices, generator lists and reports
    reproducible across runs.

    The empty space is legal and has exactly one (empty) configuration, so
    gambles on it are single rationals.

    ``index_map`` is the one place where this layout is decoded.
    """

    __slots__ = ("_variables", "_nodes", "_by_node", "_strides", "size", "_hash")

    def __init__(self, variables: Iterable[VariableSpace] = ()):
        ordered = tuple(sorted(variables, key=lambda v: v.node))
        nodes = tuple(v.node for v in ordered)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node in space")
        self._variables = ordered
        self._nodes = nodes
        self._by_node = {v.node: v for v in ordered}
        strides = [1] * len(ordered)
        for i in range(len(ordered) - 2, -1, -1):
            strides[i] = strides[i + 1] * len(ordered[i + 1])
        self._strides = tuple(strides)
        self.size = strides[0] * len(ordered[0]) if ordered else 1
        self._hash = hash(ordered)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def variables(self) -> tuple[VariableSpace, ...]:
        return self._variables

    def variable(self, node: str) -> VariableSpace:
        try:
            return self._by_node[node]
        except KeyError:
            raise ScopeError(f"node {node!r} is not in scope {self._nodes}") from None

    def __len__(self) -> int:
        return len(self._variables)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self._variables == other._variables

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.node}:{len(v)}" for v in self._variables)
        return f"Space({inner})"

    def contains_space(self, other: "Space") -> bool:
        """True if every variable of `other` appears here with equal values."""
        return all(self._by_node.get(v.node) == v for v in other._variables)

    def restrict(self, nodes: Iterable[str]) -> "Space":
        return Space(self.variable(n) for n in set(nodes))

    def union(self, other: "Space") -> "Space":
        merged = dict(self._by_node)
        for v in other._variables:
            mine = merged.get(v.node)
            if mine is None:
                merged[v.node] = v
            elif mine != v:
                raise ScopeError(f"conflicting definitions for node {v.node!r}")
        return Space(merged.values())

    def index_map(self, sub: "Space") -> list[int]:
        """By configuration index here, the index of its restriction to `sub`."""
        if sub == self:
            return list(range(self.size))
        if not self.contains_space(sub):
            raise ScopeError(f"scope {self} does not contain {sub}")
        return self.positions_in(sub)

    def positions_in(self, sub: "Space") -> list[int]:
        """By configuration index here, the index in `sub` of the one that
        agrees with it on their shared nodes, at first values elsewhere."""
        stride_of = dict(zip(sub._nodes, sub._strides))
        # from the last (fastest) variable out: a variable of stride s and
        # d values repeats the map of the variables after it d times, the
        # copy of digit v shifted by v s
        out = [0]
        for var in reversed(self._variables):
            stride = stride_of.get(var.node, 0)
            if stride:
                out = [k + step for step in range(0, len(var) * stride, stride) for k in out]
            else:
                out = out * len(var)
        return out

    def config_at(self, index: int) -> "Configuration":
        if not 0 <= index < self.size:
            raise IndexError(index)
        values = []
        for var, stride in zip(self._variables, self._strides):
            digit, index = divmod(index, stride)
            values.append(var.values[digit])
        return Configuration(self, tuple(values))

    def index_of(self, config: "Configuration") -> int:
        if config.space != self:
            raise ScopeError("configuration belongs to a different space")
        total = 0
        for var, stride, value in zip(self._variables, self._strides, config.values):
            total += var.index_of(value) * stride
        return total

    def configurations(self) -> Iterator["Configuration"]:
        for i in range(self.size):
            yield self.config_at(i)

    def configuration(self, assignment: Mapping[str, str]) -> "Configuration":
        """Build a configuration of this space from a node->value mapping."""
        extra = set(assignment) - set(self._nodes)
        if extra:
            raise ScopeError(f"assignment mentions unknown nodes {sorted(extra)}")
        missing = set(self._nodes) - set(assignment)
        if missing:
            raise ScopeError(f"assignment is missing nodes {sorted(missing)}")
        values = []
        for var in self._variables:
            value = assignment[var.node]
            var.index_of(value)
            values.append(value)
        return Configuration(self, tuple(values))



@dataclass(frozen=True)
class Configuration:
    """An assignment of one value to every node of a space."""

    space: Space
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(self.space):
            raise ValueError("configuration length does not match its space")
        for var, value in zip(self.space.variables, self.values):
            var.index_of(value)

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.space.nodes

    def value_of(self, node: str) -> str:
        return self.values[self.space.nodes.index(node)]

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.space.nodes, self.values))

    def restrict(self, nodes: Iterable[str]) -> "Configuration":
        sub = self.space.restrict(nodes)
        mapping = self.as_dict()
        return Configuration(sub, tuple(mapping[n] for n in sub.nodes))

    def agrees_with(self, other: "Configuration") -> bool:
        """True if the two configurations assign equal values to shared nodes."""
        mine = self.as_dict()
        return all(mine.get(n, v) == v for n, v in zip(other.nodes, other.values))

    def combine(self, other: "Configuration") -> "Configuration":
        """Merge two agreeing configurations into one on the union space."""
        if not self.agrees_with(other):
            raise ScopeError("configurations disagree on shared nodes")
        merged = self.as_dict()
        merged.update(other.as_dict())
        return self.space.union(other.space).configuration(merged)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in zip(self.nodes, self.values))
        return f"({inner})" if inner else "(empty)"


@dataclass(frozen=True)
class Gamble:
    """An exact rational payoff for every configuration of a space.

    The table is dense, in the space's lexicographic configuration order.
    A gamble on the empty space is a single rational.
    """

    space: Space
    table: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        table = self.table
        # a tuple of Fractions is kept as it is, with no second coercion
        if type(table) is not tuple or not all(type(x) is Fraction for x in table):
            table = tuple(as_rational(x) for x in table)
        if len(table) != self.space.size:
            raise ValueError(
                f"table has {len(table)} entries, space has {self.space.size} configurations"
            )
        object.__setattr__(self, "table", table)

    @classmethod
    def constant(cls, space: Space, value: RationalLike) -> "Gamble":
        return cls(space, (as_rational(value),) * space.size)

    @classmethod
    def zero(cls, space: Space) -> "Gamble":
        return cls.constant(space, 0)

    def __call__(self, config: Configuration) -> Fraction:
        """Evaluate at a configuration whose scope covers this gamble's scope."""
        if config.space == self.space:
            return self.table[self.space.index_of(config)]
        if not config.space.contains_space(self.space):
            raise ScopeError("configuration does not cover the gamble's scope")
        return self.table[self.space.index_of(config.restrict(self.space.nodes))]

    def extend(self, target: Space) -> "Gamble":
        """Cylindrical extension: the same payoff, read on a larger scope."""
        if target == self.space:
            return self
        return Gamble(target, tuple(self.table[k] for k in target.index_map(self.space)))

    def _pair(self, other: "Gamble") -> tuple["Gamble", "Gamble"]:
        if self.space == other.space:
            return self, other
        union = self.space.union(other.space)
        return self.extend(union), other.extend(union)

    def __add__(self, other: "Gamble") -> "Gamble":
        a, b = self._pair(other)
        return Gamble(a.space, tuple(x + y for x, y in zip(a.table, b.table)))

    def __sub__(self, other: "Gamble") -> "Gamble":
        a, b = self._pair(other)
        return Gamble(a.space, tuple(x - y for x, y in zip(a.table, b.table)))

    def __neg__(self) -> "Gamble":
        return Gamble(self.space, tuple(-x for x in self.table))

    def __mul__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        if isinstance(other, Gamble):
            a, b = self._pair(other)
            return Gamble(a.space, tuple(x * y for x, y in zip(a.table, b.table)))
        lam = as_rational(other)
        return Gamble(self.space, tuple(lam * x for x in self.table))

    def __rmul__(self, other: RationalLike) -> "Gamble":
        return self.__mul__(other)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """The table as integers over their least common denominator
        (_over_lcm), built on first read and kept on the gamble."""
        ints, den = _over_lcm(self.table)
        return tuple(ints), den

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.table)

    def __repr__(self) -> str:
        return f"Gamble({self.space!r}, ({', '.join(map(str, self.table))}))"


def indicator(config: Configuration, target: Space) -> Gamble:
    """The gamble worth 1 on target configurations agreeing with `config`.

    The indicator of the empty configuration is the constant 1: conditioning
    on nothing changes nothing.
    """
    one, nil = Fraction(1), Fraction(0)
    wanted = config.space.index_of(config)
    return Gamble(
        target, tuple(one if k == wanted else nil for k in target.index_map(config.space))
    )
