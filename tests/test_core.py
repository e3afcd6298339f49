"""Spaces, configurations, gambles: exact arithmetic and scope rules."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from credalcones.core import (
    Configuration,
    Gamble,
    ScopeError,
    Space,
    VariableSpace,
    as_rational,
    indicator,
)


def space_ab():
    return Space(
        [VariableSpace("a", ("a0", "a1")), VariableSpace("b", ("b0", "b1"))]
    )


def test_configuration_order_is_first_node_major():
    sp = space_ab()
    got = [c.values for c in sp.configurations()]
    assert got == [("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1")]


def test_nodes_are_sorted_regardless_of_declaration_order():
    sp = Space([VariableSpace("b", ("b0", "b1")), VariableSpace("a", ("a0", "a1"))])
    assert sp.nodes == ("a", "b")
    assert sp == space_ab()


def test_index_round_trip():
    sp = Space(
        [
            VariableSpace("a", ("a0", "a1")),
            VariableSpace("b", ("b0", "b1", "b2")),
            VariableSpace("c", ("c0", "c1")),
        ]
    )
    assert sp.size == 12
    for i in range(sp.size):
        assert sp.index_of(sp.config_at(i)) == i


def test_cylindrical_extension_replicates_over_new_nodes():
    sp_a = Space([VariableSpace("a", ("a0", "a1"))])
    f = Gamble(sp_a, (Fraction(1), Fraction(-1)))
    g = f.extend(space_ab())
    assert g.table == (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))


def test_extension_to_non_containing_scope_fails():
    sp_a = Space([VariableSpace("a", ("a0", "a1"))])
    sp_b = Space([VariableSpace("b", ("b0", "b1"))])
    sp_a3 = Space([VariableSpace("a", ("a0", "a1", "a2"))])
    f = Gamble(sp_a, (1, -1))
    with pytest.raises(ScopeError):
        f.extend(sp_b)
    with pytest.raises(ScopeError):
        f.extend(sp_a3)
    with pytest.raises(ScopeError):
        indicator(sp_a.configuration({"a": "a0"}), sp_b)


def test_indicator_of_partial_configuration():
    sp = space_ab()
    sp_a = sp.restrict(["a"])
    x = sp_a.configuration({"a": "a0"})
    ind = indicator(x, sp)
    assert ind.table == (Fraction(1), Fraction(1), Fraction(0), Fraction(0))


def test_indicator_of_empty_configuration_is_constant_one():
    sp = space_ab()
    ind = indicator(Space(()).config_at(0), sp)
    assert ind.table == (1, 1, 1, 1)


def test_empty_space_gamble_is_a_scalar():
    f = Gamble(Space(()), (Fraction(3, 4),))
    assert f.extend(space_ab()) == Gamble.constant(space_ab(), Fraction(3, 4))


def test_arithmetic_auto_extends_to_union_scope():
    sp_a = Space([VariableSpace("a", ("a0", "a1"))])
    sp_b = Space([VariableSpace("b", ("b0", "b1"))])
    f = Gamble(sp_a, (1, -1))
    g = Gamble(sp_b, (2, 3))
    h = f + g
    assert h.space.nodes == ("a", "b")
    assert h.table == (3, 4, 1, 2)
    assert (Fraction(1, 2) * h).table == (Fraction(3, 2), 2, Fraction(1, 2), 1)


def test_conflicting_domains_are_rejected():
    sp1 = Space([VariableSpace("a", ("a0", "a1"))])
    sp2 = Space([VariableSpace("a", ("a0", "a1", "a2"))])
    f = Gamble(sp1, (1, -1))
    g = Gamble(sp2, (1, 1, 1))
    with pytest.raises(ScopeError):
        _ = f + g


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        Gamble(space_ab(), (0.5, 0, 0, 0))


def test_rational_string_round_trip():
    for text in ["3/4", "-7/2", "0", "12"]:
        assert str(as_rational(text)) == text


def parsed(parse, text):
    """What parse(text) returns, or the type and message of what it raises."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)
    return type(value), value


def fraction_under_the_digit_limit(text):
    """Fraction(text.strip()), except that a value whose numerator or
    denominator has more digits than the int-string digit limit raises
    ValueError, as core.as_rational's does."""
    value, limit = Fraction(text.strip()), sys.get_int_max_str_digits()
    if limit and max(value.numerator, value.denominator) >= 10**limit:
        raise ValueError(f"a numerator or denominator of more than {limit} digits")
    return value


def test_a_rational_string_parses_as_fraction_parses_it():
    # the plain forms n and n/d skip Fraction's regular expression; every
    # text, plain or not, gives Fraction(text.strip())'s value or error,
    # except a value of more digits than the int-string digit limit
    edge = [
        "+3", " 4 ", "-0", "00", "1_000", "1.5", "1e3", "\u0663", "3/\u0664", "3/0",
        "3/00", "3/-2", "0x1", "", "-", "--3", "/2", "1/", "1/2/3", "-0/5", "6/4",
        "\t-5/3\n", "\u00b2", "1" * 5000, "1" * 5000 + "/" + "3" * 6000, "9" * 700,
        "1/" + "7" * 700,
    ]
    rng = random.Random(24)
    alphabet = "0123456789-/+ ._e"
    corpus = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))) for _ in range(2000)
    ]
    corpus += [f"{rng.randint(-10**12, 10**12)}/{rng.randint(0, 10**12)}" for _ in range(500)]
    kinds = set()
    for text in edge + corpus:
        expected = parsed(fraction_under_the_digit_limit, text)
        assert parsed(as_rational, text) == expected, text
        kinds.add(expected[0])
    assert kinds == {Fraction, ValueError, ZeroDivisionError}


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="integer literals have no digit limit",
)
def test_a_gamble_refuses_an_exponent_past_the_digit_limit_before_building_it():
    # 10**2000000 would take about a second and 6.6 million bits to build;
    # the literal is refused first, and a zero mantissa is 0 at any exponent
    sp = Space([VariableSpace("a", ("a0", "a1"))])
    with pytest.raises(ValueError, match="more than"):
        Gamble(sp, ("1e2000000", "1"))
    with pytest.raises(ValueError, match="more than"):
        Gamble(sp, ("1e-2000000", "1"))
    assert Gamble(sp, ("-0.0e2000000", "1")).table == (0, 1)


def test_evaluation_through_a_larger_configuration():
    sp = space_ab()
    sp_a = sp.restrict(["a"])
    f = Gamble(sp_a, (5, 7))
    big = sp.configuration({"a": "a1", "b": "b0"})
    assert f(big) == 7


def test_configuration_restrict_and_combine():
    sp = space_ab()
    full = sp.configuration({"a": "a1", "b": "b0"})
    part = full.restrict(["b"])
    assert part.as_dict() == {"b": "b0"}
    assert part.combine(full.restrict(["a"])).as_dict() == {"a": "a1", "b": "b0"}


# -- property tests ---------------------------------------------------------

NODE_POOL = ["a", "b", "c", "d"]


@st.composite
def spaces(draw, min_nodes=0, max_nodes=3):
    count = draw(st.integers(min_nodes, max_nodes))
    names = draw(
        st.lists(st.sampled_from(NODE_POOL), min_size=count, max_size=count, unique=True)
    )
    variables = []
    for name in names:
        k = draw(st.integers(2, 3))
        variables.append(VariableSpace(name, tuple(f"{name}{i}" for i in range(k))))
    return Space(variables)


@st.composite
def gambles(draw, space=None):
    if space is None:
        space = draw(spaces())
    coeffs = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    )
    table = draw(st.lists(coeffs, min_size=space.size, max_size=space.size))
    return Gamble(space, tuple(table))


@st.composite
def nested_space_pair(draw):
    big = draw(spaces(min_nodes=1))
    keep = draw(st.lists(st.sampled_from(big.nodes), unique=True))
    return big.restrict(keep), big


@given(nested_space_pair())
def test_extension_preserves_evaluation(pair):
    small, big = pair
    f = Gamble(small, tuple(Fraction(i - 2) for i in range(small.size)))
    g = f.extend(big)
    index_map = big.index_map(small)
    for config in big.configurations():
        assert g(config) == f(config)
        assert index_map[big.index_of(config)] == small.index_of(config.restrict(small.nodes))


@given(nested_space_pair(), st.data())
def test_extension_is_transitive(pair, data):
    small, big = pair
    keep = data.draw(
        st.lists(st.sampled_from(big.nodes), unique=True).filter(
            lambda ns: set(small.nodes) <= set(ns)
        )
    )
    mid = big.restrict(keep)
    f = Gamble(small, tuple(Fraction(2 * i - 3, 2) for i in range(small.size)))
    assert f.extend(mid).extend(big) == f.extend(big)


@given(st.data())
def test_addition_group_laws(data):
    sp = data.draw(spaces())
    f = data.draw(gambles(space=sp))
    g = data.draw(gambles(space=sp))
    assert (f + g) - g == f
    assert f + (-f) == Gamble.zero(sp)
    assert f + g == g + f


@given(st.data())
def test_indicator_extension_commutes(data):
    big = data.draw(spaces(min_nodes=1))
    sub_nodes = data.draw(st.lists(st.sampled_from(big.nodes), unique=True, min_size=1))
    sub = big.restrict(sub_nodes)
    config = data.draw(st.sampled_from([c for c in sub.configurations()]))
    direct = indicator(config, big)
    lifted = indicator(config, sub).extend(big)
    assert direct == lifted
    # and it marks exactly the agreeing configurations
    for c in big.configurations():
        assert direct(c) == (1 if c.agrees_with(config) else 0)


@given(spaces())
def test_config_index_bijection(sp):
    seen = set()
    for config in sp.configurations():
        i = sp.index_of(config)
        assert 0 <= i < sp.size
        seen.add(i)
    assert len(seen) == sp.size
