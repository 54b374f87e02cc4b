"""Scalar arithmetic: worked examples plus ring-law property tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube.novikov import (INFINITY, NegativeValuation, NovikovScalar,
                             PrecisionExhausted, ZeroDivisor, format_scalar,
                             parse_scalar, scalar_from_json, scalar_to_json)


def S(text):
    return parse_scalar(text)


def test_val_examples():
    assert NovikovScalar.zero().val() == INFINITY
    assert S("3*T^0 + 1*T^{1/2}").val() == 0
    assert S("1*T^{2/3} + -1*T^{5/3}").val() == F(2, 3)


def test_mul_examples():
    one, t = NovikovScalar.one(), NovikovScalar.monomial(1, 1)
    assert (one + t) * (one - t) == S("1*T^0 + -1*T^2")
    half = NovikovScalar.monomial(1, F(1, 2))
    assert half * half == t


def test_add_respects_precision():
    x = S("1*T^0 mod T^1")
    y = NovikovScalar.monomial(1, F(3, 2))
    assert x + y == x


def test_truncate_examples():
    x = S("1*T^0 + 1*T^1 + 1*T^2")
    assert x.truncate(F(3, 2)) == S("1*T^0 + 1*T^1 mod T^{3/2}")
    # T^r * unit dies modulo T^r
    u = S("2*T^0 + 1*T^{1/3}")
    assert (u.shift(F(1, 2))).truncate(F(1, 2)).is_zero
    # composition of truncations is truncation at the min
    for r1, r2 in [(F(1), F(2)), (F(2), F(1)), (F(1, 2), F(1, 2))]:
        assert x.truncate(r1).truncate(r2) == x.truncate(min(r1, r2))


def test_truncate_requires_positive():
    with pytest.raises(ValueError):
        S("1*T^0").truncate(0)


def test_reduce_t0_examples():
    assert S("5*T^0 + 2*T^{1/3}").reduce_t0() == 5
    assert S("1*T^{1/10}").reduce_t0() == 0
    with pytest.raises(NegativeValuation):
        S("1*T^-1").reduce_t0()
    with pytest.raises(PrecisionExhausted):
        NovikovScalar((), mod=F(0)).reduce_t0()


def test_invert_examples():
    two = NovikovScalar.rational(2)
    assert two.invert() == NovikovScalar.rational(F(1, 2))
    one, t = NovikovScalar.one(), NovikovScalar.monomial(1, 1)
    assert (one + t).invert(3) == S("1*T^0 + -1*T^1 + 1*T^2 mod T^3")
    assert t.invert(2) == S("1*T^-1")


def test_invert_zero_divisor():
    with pytest.raises(ZeroDivisor):
        NovikovScalar.zero().invert(2)
    with pytest.raises(ZeroDivisor):
        NovikovScalar((), mod=F(1)).invert(2)


def test_invert_needs_precision_for_series():
    with pytest.raises(ValueError):
        (NovikovScalar.one() + NovikovScalar.monomial(1, 1)).invert()


def test_serialization_roundtrip():
    for text in ["0", "3*T^0 + -1/2*T^{1/3}", "1*T^{-2/3} + 4*T^5 mod T^7",
                 "2*T^0 mod T^{1/2}"]:
        x = parse_scalar(text)
        assert parse_scalar(format_scalar(x)) == x
        assert scalar_from_json(scalar_to_json(x)) == x


# -- property tests ----------------------------------------------------------

rationals = st.fractions(max_denominator=6, min_value=-4, max_value=4)
exponents = st.fractions(max_denominator=4, min_value=0, max_value=3)


@st.composite
def scalars(draw, allow_negative_exp=False):
    n = draw(st.integers(0, 4))
    lo = -2 if allow_negative_exp else 0
    terms = [(draw(st.fractions(max_denominator=4, min_value=lo, max_value=3)),
              draw(rationals)) for _ in range(n)]
    return NovikovScalar(terms)


@settings(max_examples=150)
@given(scalars(), scalars(), scalars())
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + NovikovScalar.zero() == x
    assert x * NovikovScalar.one() == x
    assert (x - x).is_zero


@settings(max_examples=150)
@given(scalars(), scalars())
def test_valuation_laws(x, y):
    # val is multiplicative and ultrametric
    if x.terms and y.terms:
        assert (x * y).val() == x.val() + y.val()
    s = x + y
    if s.terms:
        assert s.val() >= min(x.val(), y.val())
    if x.terms and y.terms and x.val() != y.val():
        assert s.val() == min(x.val(), y.val())


@settings(max_examples=100)
@given(scalars(), scalars(), st.fractions(max_denominator=3, min_value=F(1, 3),
                                          max_value=3))
def test_truncation_compatibilities(x, y, r):
    assert (x + y).truncate(r) == (x.truncate(r) + y.truncate(r))
    # multiplicative compatibility holds on the nonnegative part
    assert (x * y).truncate(r) == (x.truncate(r) * y.truncate(r)).truncate(r)


@settings(max_examples=100)
@given(scalars(), scalars())
def test_reduce_t0_is_ring_hom(x, y):
    assert (x + y).reduce_t0() == x.reduce_t0() + y.reduce_t0()
    assert (x * y).reduce_t0() == x.reduce_t0() * y.reduce_t0()


@settings(max_examples=100)
@given(scalars(allow_negative_exp=True))
def test_invert_is_inverse(x):
    if not x.terms:
        return
    work = F(3)
    y = x.invert(work)
    prod = x * y
    one_part = prod.coefficient(0)
    assert one_part == 1
    rest = prod - NovikovScalar.one()
    assert not rest.truncate(prod.mod if prod.mod is not None else work).terms


# -- canonical-term fast paths agree with the general constructor -----------

exponents_any = st.fractions(max_denominator=4, min_value=-2, max_value=3)
precisions = st.one_of(st.none(), st.fractions(max_denominator=4,
                                               min_value=-1, max_value=4))


@st.composite
def stored_scalars(draw, max_terms=3):
    """Scalars of any valuation, optionally known modulo a precision."""
    terms = [(draw(exponents_any), draw(rationals))
             for _ in range(draw(st.integers(0, max_terms)))]
    return NovikovScalar(terms, draw(precisions))


def general(terms, mod=None):
    return NovikovScalar(list(terms), mod)


def same(x, y):
    """Equal terms and precision, with Fraction exponents and coefficients."""
    assert x == y
    assert all(type(e) is F and type(c) is F for e, c in x.terms)
    assert x.mod is None or type(x.mod) is F


@settings(max_examples=100)
@given(rationals, exponents_any)
def test_monomial_fast_path(c, e):
    same(NovikovScalar.monomial(c, e), general([(e, c)]))
    same(NovikovScalar.monomial(0, e), general([]))
    assert NovikovScalar.monomial(0, e).terms == ()
    same(NovikovScalar.monomial(int(c), int(e)), general([(int(e), int(c))]))


@settings(max_examples=100)
@given(stored_scalars(), rationals, exponents_any)
def test_neg_scale_shift_fast_paths(x, c, e):
    same(-x, general([(ee, -cc) for ee, cc in x.terms], x.mod))
    same(x.scale(c), general([(ee, c * cc) for ee, cc in x.terms], x.mod))
    same(x.scale(0), general([], x.mod))
    same(x.shift(e), general([(ee + e, cc) for ee, cc in x.terms],
                             None if x.mod is None else x.mod + e))


def product(x, y):
    """x * y through the general constructor."""
    mods = []
    if x.mod is not None and y.val_floor() is not INFINITY:
        mods.append(x.mod + y.val_floor())
    if y.mod is not None and x.val_floor() is not INFINITY:
        mods.append(y.mod + x.val_floor())
    mod = min(mods) if mods else None
    prods = [(e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms]
    return general(prods, mod)


def joint_mod(x, y):
    mods = [m for m in (x.mod, y.mod) if m is not None]
    return min(mods) if mods else None


@settings(max_examples=100)
@given(stored_scalars(max_terms=1), stored_scalars(max_terms=1))
def test_single_term_product_fast_path(x, y):
    same(x * y, product(x, y))


@settings(max_examples=150, deadline=None)
@given(stored_scalars(max_terms=4), stored_scalars(max_terms=4))
def test_multi_term_product_fast_path(x, y):
    same(x * y, product(x, y))
    # a factor with a term of each sign that cancel in the product
    z = general([(F(0), F(1)), (F(1), F(1))])
    w = general([(F(0), F(1)), (F(1), F(-1))])
    same(z * w, general([(F(0), F(1)), (F(2), F(-1))]))
    same((x * z) * w, product(product(x, z), w))


@settings(max_examples=150, deadline=None)
@given(stored_scalars(max_terms=4), stored_scalars(max_terms=4),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_add_and_sub_merge_fast_paths(x, y, cancel):
    same(x + y, general(x.terms + y.terms, joint_mod(x, y)))
    same(x - y, general(x.terms + tuple((e, -c) for e, c in y.terms),
                        joint_mod(x, y)))
    # some of x's terms cancel exactly against z's
    z = general([(e, -c) for (e, c), k in zip(x.terms, cancel) if k]
                + list(y.terms), y.mod)
    same(x + z, general(x.terms + z.terms, joint_mod(x, z)))
    same(x - x, general([], x.mod))
    same(x + (-x), general([], x.mod))


@settings(max_examples=150, deadline=None)
@given(stored_scalars(max_terms=4),
       st.fractions(max_denominator=4, min_value=F(1, 4), max_value=4))
def test_truncate_fast_path(x, r):
    same(x.truncate(r), general(x.terms, r if x.mod is None
                                else min(r, x.mod)))


def test_merge_fast_paths_at_the_edges():
    # terms at or above the joint precision are dropped, from either side
    x = general([(F(-1), F(2)), (F(1), F(1))], F(3, 2))
    y = general([(F(1), F(-1)), (F(3, 2), F(5)), (F(2), F(1))])
    same(x + y, general([(F(-1), F(2))], F(3, 2)))
    same(y + x, general([(F(-1), F(2))], F(3, 2)))
    same(y - x, general([(F(-1), F(-2)), (F(1), F(-2))], F(3, 2)))
    # a precision on both sides: the smaller one wins
    u = general([(F(0), F(1))], F(2))
    v = general([(F(1), F(1))], F(1))
    same(u + v, general([(F(0), F(1))], F(1)))
    # everything cancels, exact or at a precision
    same(y - y, general([]))
    same(x - x, general([], F(3, 2)))
    # the precision may be <= 0 and then nothing is stored
    same(general([], F(-1)) + y, general([], F(-1)))
    # products land on one exponent from two pairs and cancel there
    a = general([(F(0), F(1)), (F(1, 2), F(1))])
    b = general([(F(1, 2), F(1)), (F(0), F(-1))])
    same(a * b, general([(F(0), F(-1)), (F(1), F(1))]))
    same(a.truncate(F(1, 2)), general([(F(0), F(1))], F(1, 2)))
    same(a.truncate(F(1, 2)).truncate(1), general([(F(0), F(1))], F(1, 2)))


def test_fast_paths_at_the_edges():
    # a term whose exponent equals the precision is not stored
    x = NovikovScalar([(F(2), F(3))], F(2))
    assert x.terms == ()
    y = NovikovScalar.monomial(5, F(-1))
    same(x * y, general([], F(1)))
    same(-x, general([], F(2)))
    same(x.shift(-1), general([], F(1)))
    # single terms below their precisions: the product keeps its term and
    # takes the joint precision min(3 + 2, 4 + 1)
    a = NovikovScalar([(F(1), F(2))], F(3))
    b = NovikovScalar([(F(2), F(-1, 2))], F(4))
    same(a * b, general([(F(3), F(-1))], F(5)))
    # negative exponents and a zero factor
    u = NovikovScalar.monomial(F(1, 2), F(-3, 2))
    same(u * u, general([(F(-3), F(1, 4))]))
    same(u * NovikovScalar.monomial(0, 1), general([]))
    same(u.scale(0), general([]))


@pytest.mark.parametrize("call,message", [
    (lambda: NovikovScalar.monomial(1, F(1, 2)).series(3),
     "lattice 1/3 does not contain 1/2"),
    (lambda: parse_scalar("1*T^0 mod X^1"),
     "malformed precision suffix: 'X^1'"),
], ids=["series-lattice", "mod-suffix"])
def test_malformed_lattices_and_suffixes_are_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
