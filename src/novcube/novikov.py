"""Exact scalar arithmetic in the Novikov ring and field.

A scalar is a finite sum of terms ``c * T^e`` with rational coefficient
``c`` and rational exponent ``e``, optionally known only modulo ``T^R``
for a rational working precision ``R``.  Exponents are kept exact: every
finite computation here involves finitely many exponents, so rationals
suffice and all comparisons are decidable.

A coefficient is stored as an ``int`` when it is integral and as a
``Fraction`` otherwise.  The cell model's differentials and continuation
maps have integer coefficients, so their products, sums and negations run
on ``int`` arithmetic with no gcd; a sum or product of two ``Fraction``
values may stay stored as an integral ``Fraction``.  Since
``3 == Fraction(3)`` and the two hash alike, equality and hashing do not
depend on the storage.  No float ever arises: the one division, in
:meth:`NovikovScalar.invert`, goes through ``Fraction``.  The views
``terms`` and ``coefficient`` give ``Fraction`` coefficients;
``reduce_t0`` gives the stored one.

Exponents are stored on a lattice ``(1/den) Z``: a scalar keeps one
positive ``int`` denominator ``den``, the ``int`` numerator of each
exponent over it, and ``R`` as an ``int`` numerator over the same ``den``.
The lattice is a storage detail and need not be the coarsest one:
``monomial(1, 1/2) * monomial(1, 1/2)`` is stored over 2 and
``monomial(1, 1)`` over 1, and the two are equal and hash alike.
``terms``, ``mod``, ``val``, ``val_floor``, ``coefficient`` and the text
and JSON forms give ``Fraction`` exponents.

The arithmetic lives once, on *series* (a scalar's term pairs and
precision numerator, without its lattice): ``series_add``, ``series_mul``
and ``series_neg`` combine series on one lattice, and a scalar's ``+``,
``*`` and ``-`` meet two lattices at their lcm and call them.  Hot loops
read :meth:`NovikovScalar.series` and build scalars by :func:`from_series`.

The nonnegative part (all exponents >= 0) is a valuation ring; its
fraction field is obtained by allowing negative exponents.  ``val`` is
the minimum exponent, with ``val(0) = +inf``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Tuple, Union

from .errors import NegativeValuation, PrecisionExhausted

INFINITY = math.inf

RationalLike = Union[int, str, Fraction]

Series = Tuple[Tuple[Tuple[int, Union[int, Fraction]], ...], Optional[int]]

_F0 = Fraction(0)


class ZeroDivisor(ZeroDivisionError):
    """Raised when inverting a scalar that is zero at the working precision."""


def rat(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _coeff(x: RationalLike) -> Union[int, Fraction]:
    """``x`` as a stored coefficient: an ``int`` when it is integral, else
    a ``Fraction``."""
    if type(x) is int:
        return x
    x = rat(x)
    return x.numerator if x.denominator == 1 else x


def _frac(c: Union[int, Fraction]) -> Fraction:
    """A stored coefficient as a ``Fraction``."""
    return c if type(c) is Fraction else Fraction(c)


class NovikovScalar:
    """Immutable finite T-series with optional precision.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs with strictly
    increasing exponents and nonzero coefficients.  ``mod`` is ``None`` for
    an exact scalar, or a rational ``R`` meaning the scalar is only known
    modulo ``T^R`` (all stored exponents are then < R).

    Both are views: the scalar stores the pairs with ``int`` exponent
    numerators over the denominator ``den`` and ``int`` or ``Fraction``
    coefficients, and ``R`` as an ``int`` numerator over ``den``.
    """

    __slots__ = ("_t", "_d", "_m")

    def __init__(self, terms: Iterable[Tuple[Fraction, Fraction]] = (),
                 mod: Optional[Fraction] = None):
        merged: dict = {}
        for e, c in terms:
            e = rat(e)
            merged[e] = merged.get(e, _F0) + rat(c)
        if mod is not None:
            mod = rat(mod)
        kept = [(e, c) for e, c in merged.items()
                if c and (mod is None or e < mod)]
        d = lcm(*[e.denominator for e, _ in kept],
                1 if mod is None else mod.denominator)
        _set_t(self, tuple(sorted((e.numerator * (d // e.denominator),
                                   _coeff(c)) for e, c in kept)))
        _set_d(self, d)
        _set_m(self, None if mod is None
               else mod.numerator * (d // mod.denominator))

    def __setattr__(self, *a):
        raise AttributeError("NovikovScalar is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "NovikovScalar":
        return _make((), 1)

    @staticmethod
    def one() -> "NovikovScalar":
        return NovikovScalar.monomial(1, 0)

    @staticmethod
    def rational(c: RationalLike) -> "NovikovScalar":
        return NovikovScalar.monomial(c, 0)

    @staticmethod
    def monomial(c: RationalLike, e: RationalLike) -> "NovikovScalar":
        c = _coeff(c)
        if not c:
            return _make((), 1)
        e = rat(e)
        return _make(((e.numerator, c),), e.denominator)

    # -- Fraction views ----------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        d = self._d
        return tuple([(Fraction(e, d), _frac(c)) for e, c in self._t])

    @property
    def mod(self) -> Optional[Fraction]:
        return None if self._m is None else Fraction(self._m, self._d)

    # -- the lattice -------------------------------------------------------

    @property
    def den(self) -> int:
        """Denominator of the lattice the exponents are stored on."""
        return self._d

    @property
    def lead(self) -> Optional[int]:
        """Numerator over ``den`` of ``val()``; None when no term is stored."""
        t = self._t
        return t[0][0] if t else None

    @property
    def floor(self) -> Optional[int]:
        """Numerator over ``den`` of ``val_floor()``; None when it is +inf."""
        t = self._t
        return t[0][0] if t else self._m

    def on(self, den: int) -> "NovikovScalar":
        """The same scalar stored on the lattice ``(1/den) Z``, which must
        contain the current one (``den`` a multiple of ``self.den``)."""
        return self if den == self._d else from_series(self.series(den), den)

    def series(self, den: int, cut: Optional[int] = None) -> Series:
        """The series of ``on(den)``, or of ``on(den).truncate(cut / den)``
        when ``cut`` is given, without building either scalar."""
        t, m, d = self._t, self._m, self._d
        if den != d:
            k, r = divmod(den, d)
            if r or k <= 0:
                raise ValueError("lattice 1/%d does not contain 1/%d"
                                 % (den, d))
            t = tuple([(e * k, c) for e, c in t])
            m = None if m is None else m * k
        if cut is not None:
            if cut <= 0:
                raise ValueError("truncation precision must be positive")
            m = cut if m is None or cut < m else m
            if t and t[-1][0] >= m:
                t = tuple([p for p in t if p[0] < m])
        return t, m

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no term is stored (exact zero, or zero at precision)."""
        return not self._t

    def val(self):
        """Minimum stored exponent; +inf for (apparent) zero."""
        if not self._t:
            return INFINITY
        return Fraction(self._t[0][0], self._d)

    def val_floor(self):
        """A lower bound for the true valuation, honouring precision.

        For a scalar with no stored terms but finite precision ``R`` the
        true value may be any element of ``T^R * (ring)``, so the floor is
        ``R`` rather than +inf.
        """
        f = self.floor
        return INFINITY if f is None else Fraction(f, self._d)

    def coefficient(self, e: RationalLike) -> Fraction:
        e = rat(e)
        n, r = divmod(e.numerator * self._d, e.denominator)
        if r:
            return _F0
        for ee, c in self._t:
            if ee == n:
                return _frac(c)
            if ee > n:
                break
        return _F0

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        if not other._t and other._m is None:
            return self
        if not self._t and self._m is None:
            return other
        return _apply(series_add, self, other)

    def __neg__(self) -> "NovikovScalar":
        return from_series(series_neg((self._t, self._m)), self._d)

    def __sub__(self, other: "NovikovScalar") -> "NovikovScalar":
        return self + (-other)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        if not other._t and other._m is None:
            return other
        if not self._t and self._m is None:
            return self
        return _apply(series_mul, self, other)

    def scale(self, c: RationalLike) -> "NovikovScalar":
        c = _coeff(c)
        if not c:
            return _make((), self._d, self._m)
        return _make(tuple([(e, _coeff(c * cc)) for e, cc in self._t]),
                     self._d, self._m)

    def shift(self, e: RationalLike) -> "NovikovScalar":
        """Multiply by the monomial T^e."""
        e = rat(e)
        x = self.on(lcm(self._d, e.denominator))
        k = e.numerator * (x._d // e.denominator)
        m = x._m
        return _make(tuple([(ee + k, c) for ee, c in x._t]), x._d,
                     None if m is None else m + k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        if self._d == other._d:
            return self._t == other._t and self._m == other._m
        return self._reduced() == other._reduced()

    def __hash__(self):
        return hash(self._reduced())

    def _reduced(self):
        """(pairs, mod numerator, den) on the coarsest lattice that holds
        every exponent and the precision."""
        t, d, m = self._t, self._d, self._m
        g = gcd(d, *[e for e, _ in t], 0 if m is None else m)
        if g == 1:
            return t, m, d
        return (tuple([(e // g, c) for e, c in t]),
                None if m is None else m // g, d // g)

    def __bool__(self):
        return bool(self._t)

    def __repr__(self):
        return "NovikovScalar(%s)" % format_scalar(self)

    # -- quotient-ring operations -----------------------------------------

    def truncate(self, r: RationalLike) -> "NovikovScalar":
        """Reduce modulo T^r, i.e. drop terms with exponent >= r.

        The result records precision ``min(r, existing)``.
        """
        r = rat(r)
        d = lcm(self._d, r.denominator)
        return from_series(self.series(d, r.numerator * (d // r.denominator)),
                           d)

    def reduce_t0(self) -> Union[int, Fraction]:
        """The stored constant term (``int`` or ``Fraction``); val >= 0."""
        t = self._t
        if t and t[0][0] < 0:
            raise NegativeValuation(
                "reduce_t0 needs val >= 0, got %s" % (self.val(),))
        if self._m is not None and self._m <= 0:
            raise PrecisionExhausted("constant term not determined at precision")
        return t[0][1] if t and t[0][0] == 0 else 0

    def invert(self, work: Optional[RationalLike] = None) -> "NovikovScalar":
        """Multiplicative inverse, modulo T^work after valuation shift.

        Factors ``x = c T^v (1 + n)`` with val(n) > 0 and expands the
        geometric series for ``(1+n)^{-1}``, truncated at ``work``.  A
        monomial's inverse is ``c^-1 T^-v``, built with no series, and
        ``work`` may be omitted for it.
        """
        t = self._t
        if not t:
            raise ZeroDivisor("cannot invert zero (at this precision)")
        x = self
        if work is not None:
            work = rat(work)
            if self._d % work.denominator:
                x = self.on(lcm(self._d, work.denominator))
                t = x._t
        d, m = x._d, x._m
        v, c = t[0]
        ic = _coeff(Fraction(1, c))  # not 1 / c: int / int is a float
        # known precision of 1 + n, after factoring out c T^v; None is +inf
        w = None if m is None else m - v
        if work is not None:
            wn = work.numerator * (d // work.denominator)
            if w is None or wn < w:
                w = wn
        if len(t) == 1:  # an exact monomial's inverse is exact
            if m is None:
                return _make(((-v, ic),), d)
            return _make(((-v, ic),) if w > 0 else (), d, w - v)
        if w is None:
            raise ValueError("working precision required: inverse is an "
                             "infinite series")
        if w <= 0:
            raise ValueError("truncation precision must be positive")
        n = (tuple([(e - v, cc * ic) for e, cc in t[1:]]), None)
        step = t[1][0] - v
        unit = power = (((0, 1),), None)
        k = 1
        while k * step < w:
            power = (tuple([p for p in series_mul(power, n)[0]
                            if p[0] < w]), None)
            unit = series_add(unit, series_neg(power) if k % 2 else power)
            k += 1
        return _make(tuple([(e - v, _coeff(cc * ic)) for e, cc in unit[0]]),
                     d, w - v)


_set_t = NovikovScalar._t.__set__
_set_d = NovikovScalar._d.__set__
_set_m = NovikovScalar._m.__set__


def _make(t: Tuple[Tuple[int, Fraction], ...], d: int,
          m: Optional[int] = None) -> NovikovScalar:
    """Wrap pairs that are already canonical on the lattice ``(1/d) Z``.

    The caller guarantees what ``NovikovScalar.__init__`` would establish:
    ``int`` exponent numerators strictly increasing and all below ``m``,
    nonzero ``int`` or ``Fraction`` coefficients (no float), and ``m``
    either None or an ``int``.
    Every scalar is still made by ``NovikovScalar.__new__``.
    """
    x = NovikovScalar.__new__(NovikovScalar)
    _set_t(x, t)
    _set_d(x, d)
    _set_m(x, m)
    return x


def from_series(x: Series, den: int) -> NovikovScalar:
    """The scalar storing the series ``x`` on the lattice ``(1/den) Z``."""
    return _make(x[0], den, x[1])


def _apply(op, x: NovikovScalar, y: NovikovScalar) -> NovikovScalar:
    """``op`` on the series of ``x`` and ``y`` on the lcm of their lattices."""
    d = x._d
    if y._d != d:
        d = lcm(d, y._d)
        x, y = x.on(d), y.on(d)
    return from_series(op((x._t, x._m), (y._t, y._m)), d)


# -- the series core: series on one lattice ----------------------------------


def series_add(x: Series, y: Series) -> Series:
    (a, am), (b, bm) = x, y
    if not b and bm is None:
        return x
    if not a and am is None:
        return y
    mod = am if bm is None or (am is not None and am < bm) else bm
    # merge the two increasing term tuples in one pass
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea < eb:
            out.append(a[i])
            i += 1
        elif eb < ea:
            out.append(b[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    if mod is not None:
        while out and out[-1][0] >= mod:
            out.pop()
    return tuple(out), mod


def series_neg(x: Series) -> Series:
    return tuple([(e, -c) for e, c in x[0]]), x[1]


def series_mul(x: Series, y: Series) -> Series:
    (a, am), (b, bm) = x, y
    if not b and bm is None:
        return y
    if not a and am is None:
        return x
    # neither side is an exact zero, so both floors are finite
    mod = None
    if am is not None:
        mod = am + (b[0][0] if b else bm)
    if bm is not None:
        m = bm + (a[0][0] if a else am)
        if mod is None or m < mod:
            mod = m
    if len(a) == 1 and len(b) == 1:
        (e1, c1), = a
        (e2, c2), = b
        e = e1 + e2
        if mod is not None and e >= mod:
            return (), mod
        return ((e, c1 * c2),), mod
    sums: dict = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            if mod is None or e < mod:
                sums[e] = sums[e] + c1 * c2 if e in sums else c1 * c2
    return tuple(sorted([(e, c) for e, c in sums.items() if c])), mod


ZERO = NovikovScalar.zero()
ONE = NovikovScalar.one()


# -- serialization ---------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>[+-]?\d+(?:/\d+)?)\s*\*\s*T\^(?:\{(?P<be>-?\d+(?:/\d+)?)\}|(?P<e>-?\d+(?:/\d+)?))\s*$")


def format_exponent(e: Fraction) -> str:
    return str(e) if e.denominator == 1 else "{%s}" % e


def format_scalar(x: NovikovScalar) -> str:
    """Canonical text form, e.g. ``3*T^0 + -1/2*T^{1/3} mod T^{3/2}``."""
    if not x:
        body = "0"
    else:
        body = " + ".join("%s*T^%s" % (c, format_exponent(e))
                          for e, c in x.terms)
    mod = x.mod
    if mod is not None:
        body += " mod T^%s" % format_exponent(mod)
    return body


def parse_scalar(text: str) -> NovikovScalar:
    """Inverse of :func:`format_scalar`.  Also accepts bare rationals."""
    text = text.strip()
    mod = None
    if " mod " in text:
        text, modpart = text.split(" mod ", 1)
        modpart = modpart.strip()
        if not modpart.startswith("T^"):
            raise ValueError("malformed precision suffix: %r" % modpart)
        mod = rat(modpart[2:].strip("{}"))
    if text.strip() == "0":
        return NovikovScalar((), mod)
    terms = []
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk)
        if m:
            e = m.group("be") or m.group("e")
            terms.append((rat(e), rat(m.group("coeff"))))
            continue
        # bare rational, meaning c*T^0
        try:
            terms.append((Fraction(0), rat(chunk.strip())))
        except ValueError:
            raise ValueError("cannot parse scalar term: %r" % chunk)
    return NovikovScalar(terms, mod)


def scalar_to_json(x: NovikovScalar):
    """JSON form: list of term records, wrapped when a precision is set."""
    arr = [{"num": c.numerator, "den": c.denominator,
            "exp_num": e.numerator, "exp_den": e.denominator}
           for e, c in x.terms]
    mod = x.mod
    if mod is None:
        return arr
    return {"terms": arr, "mod": str(mod)}


def json_keys(data, keys: set, what: str) -> dict:
    """``data``, once it is a JSON object whose keys all lie in ``keys``;
    ``what`` names the object in the error."""
    if not isinstance(data, dict):
        raise ValueError("%s must be a JSON object, not %s"
                         % (what, type(data).__name__))
    if not data.keys() <= keys:
        raise ValueError("unknown key %s in %s (allowed: %s)"
                         % (", ".join(map(repr, sorted(data.keys() - keys))),
                            what, ", ".join(sorted(keys))))
    return data


def scalar_from_json(data) -> NovikovScalar:
    mod = None
    if isinstance(data, dict):
        mod = json_keys(data, {"terms", "mod"}, "a scalar").get("mod")
        data = data["terms"]
    terms = []
    for t in data:
        json_keys(t, {"num", "den", "exp_num", "exp_den"}, "a scalar term")
        terms.append((Fraction(t["exp_num"], t["exp_den"]),
                      Fraction(t["num"], t["den"])))
    return NovikovScalar(terms, None if mod is None else rat(mod))
