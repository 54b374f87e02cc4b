"""Lattice-exponent scalars against the ``Fraction``-exponent oracle.

Each drawn scalar is built twice from the same terms and precision: once
as the library's ``NovikovScalar``, stored on a lattice (1/den)Z whose
denominator is drawn from 1, 2, 3, 4, 6 (times a factor, so that stored
lattices are not always the coarsest one), and once as the oracle's.
Operands are drawn on different lattices, with a precision on either side,
on both or on neither, with negative exponents, and with terms that cancel
exactly.  Every operation must give the same terms, precision, text and
JSON form, or raise the same exception with the same message.
"""

from fractions import Fraction as F

import scalar_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube.novikov import (NovikovScalar, format_scalar, parse_scalar,
                             scalar_from_json, scalar_to_json)

DENS = [1, 2, 3, 4, 6]
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def pairs(draw, max_terms=4):
    """(library scalar, oracle scalar) with the same terms and precision."""
    den = draw(st.sampled_from(DENS))
    nums = draw(st.lists(st.integers(-2 * den, 3 * den), max_size=max_terms))
    terms = [(F(n, den), draw(coefficients)) for n in nums]
    mod = draw(st.one_of(st.none(),
                         st.integers(-den, 4 * den).map(lambda n: F(n, den))))
    x = NovikovScalar(terms, mod).on(den * draw(st.sampled_from([1, 1, 2, 3])))
    return x, oracle.NovikovScalar(terms, mod)


def negated_part(draw, pair):
    """Some of the pair's terms negated, so that adding them cancels those
    terms exactly, on a lattice drawn afresh."""
    neg = [(e, -c) for e, c in pair[1].terms if draw(st.booleans())]
    y = NovikovScalar(neg)
    return (y.on(y.den * draw(st.sampled_from([1, 2, 3]))),
            oracle.NovikovScalar(neg))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def view(x):
    """What a caller can see of a scalar of either kind."""
    fmt = format_scalar if isinstance(x, NovikovScalar) \
        else oracle.format_scalar
    to_json = scalar_to_json if isinstance(x, NovikovScalar) \
        else oracle.scalar_to_json
    terms, mod = x.terms, x.mod
    assert all(type(e) is F and type(c) is F for e, c in terms)
    assert mod is None or type(mod) is F
    return (terms, mod, fmt(x), to_json(x), x.is_zero, bool(x), x.val(),
            x.val_floor())


def outcome(fn, *args):
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(out, (NovikovScalar, oracle.NovikovScalar)):
        return ("scalar", view(out))
    return ("value", out)


def agree(fn, *pairs_and_args):
    """``fn`` gives the same outcome on the library's scalars and on the
    oracle's; other arguments are passed to both as they are."""
    new = [a[0] if isinstance(a, tuple) else a for a in pairs_and_args]
    old = [a[1] if isinstance(a, tuple) else a for a in pairs_and_args]
    got, want = outcome(fn, *new), outcome(fn, *old)
    assert got == want, (fn, new, old)
    return got


@settings(max_examples=200, deadline=None)
@given(pairs(), pairs(), st.data())
def test_ring_operations_agree(x, y, data):
    agree(lambda a: a, x)
    agree(lambda a, b: a + b, x, y)
    agree(lambda a, b: a - b, x, y)
    agree(lambda a, b: a * b, x, y)
    agree(lambda a: -a, x)
    agree(lambda a: a - a, x)
    # partial and full cancellation against a scalar on another lattice
    z = negated_part(data.draw, x)
    agree(lambda a, b: a + b, x, z)
    agree(lambda a, b: b + a, x, z)
    agree(lambda a, b: (a + b) * a, x, z)


@settings(max_examples=200, deadline=None)
@given(pairs(), rationals, rationals,
       st.one_of(st.none(), st.fractions(min_value=-1, max_value=4,
                                         max_denominator=6)))
def test_quotient_operations_agree(x, c, e, work):
    agree(lambda a: a.scale(c), x)
    agree(lambda a: a.scale(0), x)
    agree(lambda a: a.shift(e), x)
    agree(lambda a: a.truncate(e), x)
    agree(lambda a: a.reduce_t0(), x)
    agree(lambda a: a.coefficient(e), x)
    for ee, _ in x[1].terms:
        agree(lambda a: a.coefficient(ee), x)
    agree(lambda a: a.invert(work), x)
    agree(lambda a: a.invert(work) * a, x)


@settings(max_examples=200, deadline=None)
@given(pairs(), pairs())
def test_equality_and_hash_across_lattices(x, y):
    (a, oa), (b, ob) = x, y
    assert (a == b) == (oa == ob)
    if a == b:
        assert hash(a) == hash(b)
    for k in (2, 3, 5):
        c = a.on(a.den * k)
        assert c == a and a == c and hash(c) == hash(a)
        assert (c == b) == (oa == ob)
    assert (a != b) == (oa != ob)


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_text_and_json_round_trips(x):
    a, oa = x
    assert format_scalar(a) == oracle.format_scalar(oa)
    assert scalar_to_json(a) == oracle.scalar_to_json(oa)
    assert parse_scalar(format_scalar(a)) == a
    assert scalar_from_json(scalar_to_json(a)) == a


def test_products_of_coarse_lattices_equal_their_coarsest_form():
    half = NovikovScalar.monomial(1, F(1, 2))
    t = NovikovScalar.monomial(1, 1)
    assert (half * half).den == 2 and t.den == 1
    assert half * half == t and hash(half * half) == hash(t)
    assert {half * half: "x"}[t] == "x"
    third = NovikovScalar([(F(1, 3), 1)], F(5, 3))
    assert (third * half).den == 6
    assert (third * half).on(12).mod == F(13, 6)


def test_exact_zero_is_returned_as_is():
    x = NovikovScalar([(F(1, 3), 2)], F(2))
    zero = NovikovScalar.zero()
    assert (x + zero) is x and (zero + x) is x
    assert (x * zero) is zero and (zero * x) is zero
