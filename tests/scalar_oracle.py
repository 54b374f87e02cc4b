"""Test-only oracle: the Novikov scalar with ``Fraction`` exponents.

``novcube.novikov.NovikovScalar`` stores its exponents as ``int``
numerators over one denominator per scalar; this is the plain form it
replaced, with a ``Fraction`` for every exponent and for the precision,
kept so the two can be compared on random scalars.  It raises the
library's own exception classes, so failures compare too.
"""

from fractions import Fraction
from typing import Iterable, Optional, Tuple

from novcube.novikov import (INFINITY, NegativeValuation, PrecisionExhausted,
                             RationalLike, ZeroDivisor, rat)


class NovikovScalar:
    """Immutable finite T-series with optional precision.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs with strictly
    increasing exponents and nonzero coefficients.  ``mod`` is ``None`` for
    an exact scalar, or a rational ``R`` meaning the scalar is only known
    modulo ``T^R`` (all stored exponents are then < R).
    """

    __slots__ = ("terms", "mod")

    def __init__(self, terms: Iterable[Tuple[Fraction, Fraction]] = (),
                 mod: Optional[Fraction] = None):
        merged: dict = {}
        for e, c in terms:
            e = rat(e)
            c = rat(c)
            merged[e] = merged.get(e, Fraction(0)) + c
        if mod is not None:
            mod = rat(mod)
        pairs = sorted((e, c) for e, c in merged.items()
                       if c != 0 and (mod is None or e < mod))
        object.__setattr__(self, "terms", tuple(pairs))
        object.__setattr__(self, "mod", mod)

    def __setattr__(self, *a):
        raise AttributeError("NovikovScalar is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "NovikovScalar":
        return NovikovScalar()

    @staticmethod
    def one() -> "NovikovScalar":
        return NovikovScalar.monomial(1, 0)

    @staticmethod
    def rational(c: RationalLike) -> "NovikovScalar":
        return NovikovScalar.monomial(c, 0)

    @staticmethod
    def monomial(c: RationalLike, e: RationalLike) -> "NovikovScalar":
        c = rat(c)
        if not c:
            return _canonical(())
        return _canonical(((rat(e), c),))

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no term is stored (exact zero, or zero at precision)."""
        return not self.terms

    def val(self):
        """Minimum stored exponent; +inf for (apparent) zero."""
        if not self.terms:
            return INFINITY
        return self.terms[0][0]

    def val_floor(self):
        """A lower bound for the true valuation, honouring precision.

        For a scalar with no stored terms but finite precision ``R`` the
        true value may be any element of ``T^R * (ring)``, so the floor is
        ``R`` rather than +inf.
        """
        if self.terms:
            return self.terms[0][0]
        if self.mod is not None:
            return self.mod
        return INFINITY

    def coefficient(self, e: RationalLike) -> Fraction:
        e = rat(e)
        for ee, c in self.terms:
            if ee == e:
                return c
            if ee > e:
                break
        return Fraction(0)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        a, b, mod = self.terms, other.terms, self.mod
        if other.mod is not None and (mod is None or other.mod < mod):
            mod = other.mod
        # merge the two increasing term tuples in one pass
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
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
        return _canonical(tuple(out), mod)

    def __neg__(self) -> "NovikovScalar":
        return _canonical(tuple([(e, -c) for e, c in self.terms]), self.mod)

    def __sub__(self, other: "NovikovScalar") -> "NovikovScalar":
        return self + (-other)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        mods = []
        if self.mod is not None and other.val_floor() is not INFINITY:
            mods.append(self.mod + other.val_floor())
        if other.mod is not None and self.val_floor() is not INFINITY:
            mods.append(other.mod + self.val_floor())
        mod = min(mods) if mods else None
        if len(self.terms) == 1 and len(other.terms) == 1:
            (e1, c1), = self.terms
            (e2, c2), = other.terms
            e = e1 + e2
            if mod is not None and e >= mod:
                return _canonical((), mod)
            return _canonical(((e, c1 * c2),), mod)
        sums: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if mod is None or e < mod:
                    sums[e] = sums[e] + c1 * c2 if e in sums else c1 * c2
        return _canonical(tuple(sorted((e, c) for e, c in sums.items() if c)),
                          mod)

    def scale(self, c: RationalLike) -> "NovikovScalar":
        c = rat(c)
        if not c:
            return NovikovScalar((), self.mod)
        return _canonical(tuple([(e, c * cc) for e, cc in self.terms]),
                          self.mod)

    def shift(self, e: RationalLike) -> "NovikovScalar":
        """Multiply by the monomial T^e."""
        e = rat(e)
        mod = None if self.mod is None else self.mod + e
        return _canonical(tuple([(ee + e, c) for ee, c in self.terms]), mod)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        return self.terms == other.terms and self.mod == other.mod

    def __hash__(self):
        return hash((self.terms, self.mod))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "NovikovScalar(%s)" % format_scalar(self)

    # -- quotient-ring operations -----------------------------------------

    def truncate(self, r: RationalLike) -> "NovikovScalar":
        """Reduce modulo T^r, i.e. drop terms with exponent >= r.

        The result records precision ``min(r, existing)``.
        """
        r = rat(r)
        if r <= 0:
            raise ValueError("truncation precision must be positive")
        mod = r if self.mod is None else min(r, self.mod)
        return _canonical(tuple([t for t in self.terms if t[0] < mod]), mod)

    def reduce_t0(self) -> Fraction:
        """Constant term, defined on scalars of nonnegative valuation."""
        if self.terms and self.terms[0][0] < 0:
            raise NegativeValuation(
                "reduce_t0 needs val >= 0, got %s" % (self.terms[0][0],))
        if self.mod is not None and self.mod <= 0:
            raise PrecisionExhausted("constant term not determined at precision")
        return self.coefficient(0)

    def invert(self, work: Optional[RationalLike] = None) -> "NovikovScalar":
        """Multiplicative inverse, modulo T^work after valuation shift.

        Factors ``x = c T^v (1 + n)`` with val(n) > 0 and expands the
        geometric series for ``(1+n)^{-1}``, truncated at ``work``.  For a
        monomial the series terminates and ``work`` may be omitted.
        """
        if not self.terms:
            raise ZeroDivisor("cannot invert zero (at this precision)")
        v, c = self.terms[0]
        # known precision of 1 + n, after factoring out c T^v
        avail = INFINITY if self.mod is None else self.mod - v
        w = avail if work is None else min(rat(work), avail)
        n = NovikovScalar([(e - v, cc / c) for e, cc in self.terms[1:]])
        if not n.terms:
            unit = NovikovScalar.one()
            if self.mod is None:
                w = INFINITY  # exact monomial: the inverse is exact
        elif w is INFINITY:
            raise ValueError("working precision required: inverse is an "
                             "infinite series")
        else:
            unit = NovikovScalar.one()
            power = NovikovScalar.one()
            step = n.val()
            k = 1
            while k * step < w:
                power = (power * n).truncate(w)
                unit = unit + (-power if k % 2 else power)
                k += 1
            unit = unit.truncate(w)
        out_mod = None if w is INFINITY else w - v
        return NovikovScalar([(e - v, cc / c) for e, cc in unit.terms], out_mod)


_set_terms = NovikovScalar.terms.__set__
_set_mod = NovikovScalar.mod.__set__


def _canonical(terms: Tuple[Tuple[Fraction, Fraction], ...],
               mod: Optional[Fraction] = None) -> NovikovScalar:
    """Wrap a term tuple that is already canonical, skipping the merge.

    The caller guarantees what ``NovikovScalar.__init__`` would establish:
    Fraction exponents strictly increasing and all below ``mod``, nonzero
    Fraction coefficients, and ``mod`` either None or a Fraction.  The
    callers are ``monomial`` (and so ``one`` and ``rational``),
    ``__neg__``, ``__add__`` (which merges two canonical tuples),
    ``__mul__`` (one product, or the products summed per exponent and
    sorted once), nonzero ``scale``, ``shift`` and ``truncate``.
    """
    x = NovikovScalar.__new__(NovikovScalar)
    _set_terms(x, terms)
    _set_mod(x, mod)
    return x


def format_exponent(e: Fraction) -> str:
    return str(e) if e.denominator == 1 else "{%s}" % e


def format_scalar(x: NovikovScalar) -> str:
    """Canonical text form, e.g. ``3*T^0 + -1/2*T^{1/3} mod T^{3/2}``."""
    if not x.terms:
        body = "0"
    else:
        body = " + ".join("%s*T^%s" % (c, format_exponent(e))
                          for e, c in x.terms)
    if x.mod is not None:
        body += " mod T^%s" % format_exponent(x.mod)
    return body


def scalar_to_json(x: NovikovScalar):
    """JSON form: list of term records, wrapped when a precision is set."""
    arr = [{"num": c.numerator, "den": c.denominator,
            "exp_num": e.numerator, "exp_den": e.denominator}
           for e, c in x.terms]
    if x.mod is None:
        return arr
    return {"terms": arr, "mod": str(x.mod)}


def scalar_from_json(data) -> NovikovScalar:
    if isinstance(data, dict):
        mod = data.get("mod")
        return NovikovScalar(
            [(Fraction(t["exp_num"], t["exp_den"]), Fraction(t["num"], t["den"]))
             for t in data["terms"]],
            None if mod is None else rat(mod))
    return NovikovScalar(
        [(Fraction(t["exp_num"], t["exp_den"]), Fraction(t["num"], t["den"]))
         for t in data])
