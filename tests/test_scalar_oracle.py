"""Lattice-exponent scalars against the ``Fraction``-exponent oracle.

Each drawn scalar is built twice from the same terms and precision: once
as the library's ``NovikovScalar``, stored on a lattice (1/den)Z whose
denominator is drawn from 1, 2, 3, 4, 6 (times a factor, so that stored
lattices are not always the coarsest one), and once as the oracle's.
Operands are drawn on different lattices, with a precision on either side,
on both or on neither, with negative exponents, and with terms that cancel
exactly.  Every operation must give the same terms, precision, text and
JSON form, or raise the same exception with the same message.

Integral coefficients are stored as ints or, when a sum of two Fractions
made them, as integral Fractions; operands of both storages meet in every
operation, and no stored coefficient may ever be a float.
"""

from fractions import Fraction as F
from math import lcm

import scalar_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube.novikov import (NovikovScalar, format_scalar, from_series,
                             parse_scalar, scalar_from_json, scalar_to_json,
                             series_add, series_mul, series_neg)

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
    if isinstance(x, NovikovScalar):
        assert all(type(c) in (int, F) for _, c in x._t)
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


@st.composite
def on_lattice(draw, den, with_mod):
    """(library scalar stored on (1/den)Z, oracle scalar), with a
    precision exactly when ``with_mod``."""
    nums = draw(st.lists(st.integers(-2 * den, 3 * den), max_size=4))
    terms = [(F(n, den), draw(coefficients)) for n in nums]
    mod = F(draw(st.integers(-den, 4 * den)), den) if with_mod else None
    return NovikovScalar(terms, mod).on(den), oracle.NovikovScalar(terms, mod)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DENS), st.sampled_from(DENS), st.booleans(),
       st.booleans(), st.data())
def test_series_core_and_its_wrappers_agree(d1, d2, mod1, mod2, data):
    """The operators, on one lattice or on two, and the series functions
    they wrap, run on the lcm of the lattices, against the oracle."""
    x = data.draw(on_lattice(d1, mod1))
    for y in (data.draw(on_lattice(d2, mod2)),
              negated_part(data.draw, x)):
        agree(lambda a, b: a + b, x, y)
        agree(lambda a, b: a * b, x, y)
        agree(lambda a: -a, y)
        (a, oa), (b, ob) = x, y
        d = lcm(a.den, b.den)
        sa, sb = a.series(d), b.series(d)
        assert view(from_series(series_add(sa, sb), d)) == view(oa + ob)
        assert view(from_series(series_mul(sa, sb), d)) == view(oa * ob)
        assert view(from_series(series_neg(sa), d)) == view(-oa)


@settings(max_examples=200, deadline=None)
@given(pairs(), st.sampled_from([1, 2, 3]), st.integers(-2, 12))
def test_series_reads_the_truncated_scalar(x, k, cut):
    a, _ = x
    den = a.den * k
    assert outcome(lambda: from_series(a.series(den), den)) == \
        outcome(lambda: a.on(den))
    assert outcome(lambda: from_series(a.series(den, cut), den)) == \
        outcome(lambda: a.on(den).truncate(F(cut, den)))


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


mixed_coefficients = st.one_of(st.integers(-3, 3),
                               st.integers(-3, 3).map(F), coefficients)


def integral_as_fractions(terms, mod):
    """The scalar of ``terms`` and ``mod`` as the sum of two scalars whose
    coefficients are not integral, so that its integral coefficients are
    stored as Fractions."""
    return (NovikovScalar([(e, c - F(1, 2)) for e, c in terms], mod)
            + NovikovScalar([(e, F(1, 2)) for e, _ in terms], mod))


@st.composite
def stored_pairs(draw, storage=None, coeffs=mixed_coefficients):
    """(library scalar, oracle scalar) whose integral coefficients are
    stored as ints, or as integral Fractions."""
    den = draw(st.sampled_from(DENS))
    nums = draw(st.lists(st.integers(-2 * den, 3 * den), max_size=4))
    terms = [(F(n, den), draw(coeffs)) for n in nums]
    mod = draw(st.one_of(st.none(),
                         st.integers(-den, 4 * den).map(lambda n: F(n, den))))
    if storage is None:
        storage = draw(st.sampled_from(["int", "fraction"]))
    x = NovikovScalar(terms, mod) if storage == "int" \
        else integral_as_fractions(terms, mod)
    return x, oracle.NovikovScalar(terms, mod)


def stored(x):
    return [c for _, c in x._t]


@settings(max_examples=200, deadline=None)
@given(stored_pairs(), stored_pairs(), st.integers(-3, 3), rationals,
       st.one_of(st.none(), st.fractions(min_value=-1, max_value=4,
                                         max_denominator=6)))
def test_mixed_storage_operations_agree(x, y, k, e, work):
    agree(lambda a, b: a + b, x, y)
    agree(lambda a, b: a - b, x, y)
    agree(lambda a, b: a * b, x, y)
    agree(lambda a, b: (a + b) * (a - b), x, y)
    agree(lambda a: -a, x)
    agree(lambda a: a.scale(k), x)
    agree(lambda a: a.scale(F(k, 2)), x)
    agree(lambda a: a.shift(e), x)
    agree(lambda a: a.truncate(e), x)
    agree(lambda a: a.reduce_t0(), x)
    agree(lambda a: a.coefficient(e), x)
    agree(lambda a: a.invert(work), x)
    agree(lambda a: a.invert(work) * a, x)
    a, oa = x
    assert view(a.on(a.den * 2)) == view(oa)


@settings(max_examples=200, deadline=None)
@given(stored_pairs(storage="int"))
def test_storages_are_equal_and_hash_alike(x):
    as_int = x[0]
    as_fraction = integral_as_fractions(as_int.terms, as_int.mod)
    if any(c.denominator == 1 for _, c in as_int.terms):
        assert any(type(c) is F and c.denominator == 1
                   for c in stored(as_fraction))
    assert as_int == as_fraction and as_fraction == as_int
    assert hash(as_int) == hash(as_fraction)
    key = object()
    assert {as_int: key}[as_fraction] is key
    on = as_fraction.on(as_fraction.den * 3)
    assert on == as_int and hash(on) == hash(as_int)


@settings(max_examples=100, deadline=None)
@given(stored_pairs("int", st.integers(-3, 3)),
       stored_pairs("int", st.integers(-3, 3)), st.integers(-3, 3))
def test_integer_operands_give_integer_coefficients(x, y, k):
    a, b = x[0], y[0]
    for out in (a, b, a + b, a - b, a * b, -a, a.scale(k), a.shift(1),
                a.on(a.den * 2)):
        assert all(type(c) is int for c in stored(out))


def test_inverting_a_non_unit_integer_stores_a_fraction():
    half = NovikovScalar.monomial(2, 0).invert()
    assert stored(half) == [F(1, 2)] and type(stored(half)[0]) is F
    assert half.terms == ((F(0), F(1, 2)),)
    minus = NovikovScalar.monomial(-1, F(1, 3)).invert()
    assert stored(minus) == [-1] and type(stored(minus)[0]) is int
    assert minus.terms == ((F(-1, 3), F(-1)),)
    # 1/(2 + T) = 1/2 - T/4 + T^2/8 mod T^3
    series = NovikovScalar([(0, 2), (1, 1)])
    inv = series.invert(3)
    assert all(type(c) is F for c in stored(inv))
    assert inv.terms == ((F(0), F(1, 2)), (F(1), F(-1, 4)),
                         (F(2), F(1, 8)))
    assert inv * series == NovikovScalar([(0, 1)], F(3))
    # an integral inverse is stored as an int again
    three = NovikovScalar.monomial(F(1, 3), 0).invert()
    assert stored(three) == [3] and type(stored(three)[0]) is int
