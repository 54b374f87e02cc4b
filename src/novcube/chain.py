"""Z/2-graded free chain complexes over the Novikov ring.

A complex stores an ordered tuple of generators (opaque hashable label plus
parity) and a sparse differential keyed by ``(target_label, source_label)``.
Entries live in the nonnegative part of the ring.  Homology is computed two
ways: over the residue field by setting T = 0, and over the valuation ring
as a barcode (free summands plus torsion summands of the form
``ring / T^length``), the latter modulo a declared working precision.
The d*d check and the barcode run on series (:mod:`novcube.novikov`) on
one lattice, building scalars only to invert a pivot and in messages.
At T = 0 a :class:`QComplex` factors its odd differential once; its Betti
numbers, acyclicity and homology spaces are views of that elimination.
No mapping cone is built here: it is a 1-cube's total complex,
``cubes.cone_of_map``, which tests its map with :func:`is_chain_map`.
A stored map (a differential, a cube's D) drops exact zeros only, by
:func:`mat_clean`, keeps each entry known only modulo T^R, and compares
by ``==``; a check (:func:`mat_equal`, :func:`is_chain_map`) counts an
entry with no stored term as vanishing.

Each d*d fact is established once.  A complex carries a certificate,
``verified_mod``: the precision R at which d*d = 0 mod T^R is known (with
parity and nonnegative valuations), ``INFINITY`` when it is exact by
construction, None when nothing is known.  It is set by the cell model
(``morse.cf``), by a passing :meth:`ChainComplex.verify`, which records
its precision, and by the constructions that pass on the least
certificate of their parts: :meth:`~ChainComplex.relabel`, and in
:mod:`novcube.cubes` the vertex views and the total complex of a cube.
``is_acyclic`` and the barcode call :func:`checked`, which runs the full
check only when the certificate is missing or below the precision asked
for; ``verify`` itself always runs in full.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from .errors import PrecisionExhausted
from .linalg import Elimination, QuotientSpace
from .novikov import (INFINITY, NovikovScalar, Series, format_scalar,
                      from_series, json_keys, parse_scalar, rat,
                      scalar_from_json, series_add, series_mul, series_neg)

Label = Hashable
MatrixEntries = Dict[Tuple[Label, Label], NovikovScalar]


@dataclass(frozen=True)
class Generator:
    label: Label
    parity: int

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")


# ---------------------------------------------------------------------------
# sparse matrices keyed by generator labels


def mat_clean(m: MatrixEntries) -> MatrixEntries:
    """``m`` without its exact zeros: every stored sparse map's rule."""
    return {k: v for k, v in m.items() if v.floor is not None}


def mat_add(*ms: MatrixEntries) -> MatrixEntries:
    out: MatrixEntries = {}
    for m in ms:
        for k, v in m.items():
            out[k] = out[k] + v if k in out else v
    return out


def mat_neg(m: MatrixEntries) -> MatrixEntries:
    return {k: -v for k, v in m.items()}


def mat_compose(second: MatrixEntries, first: MatrixEntries) -> MatrixEntries:
    """Matrix of (second after first).

    Entries need only ``*`` and ``+``, so Fractions and ints serve too.
    """
    by_source: Dict[Label, List[Tuple[Label, NovikovScalar]]] = {}
    for (t, s), v in second.items():
        by_source.setdefault(s, []).append((t, v))
    out: MatrixEntries = {}
    for (mid, s), v1 in first.items():
        for t, v2 in by_source.get(mid, ()):  # second's source is first's target
            k = (t, s)
            prod = v2 * v1
            out[k] = out[k] + prod if k in out else prod
    return out


def mat_equal(a: MatrixEntries, b: MatrixEntries) -> bool:
    """Agreement in a check: an entry with no stored term vanishes."""
    return ({k: v for k, v in a.items() if v}
            == {k: v for k, v in b.items() if v})


def mat_identity(labels: Iterable[Label]) -> MatrixEntries:
    one = NovikovScalar.one()
    return {(l, l): one for l in labels}


def residual_violations(m: MatrixEntries, work) -> List[Tuple[Label, Label, str]]:
    """Entries of ``m`` that are not 0 modulo T^work.

    Entries whose stored precision is too coarse to decide are reported as
    undetermined.
    """
    work = rat(work)
    wn, wd = work.numerator, work.denominator
    bad = []
    for (t, s), v in m.items():
        # v.floor / v.den < wn / wd, cross-multiplied
        floor = v.floor
        if floor is not None and floor * wd < wn * v.den:
            if v:
                bad.append((t, s, format_scalar(v)))
            else:
                bad.append((t, s, "undetermined below T^%s" % v.mod))
    return bad


def square_violations(m: MatrixEntries, work, negated=None
                      ) -> List[Tuple[Label, Label, str]]:
    """``residual_violations(mat_compose(m, m), work)`` on series, one
    source column at a time, in the order ``mat_compose`` meets entries;
    a violation's scalar is negated where ``negated(t, s)``."""
    work = rat(work)
    L = lcm(work.denominator, *[v.den for v in m.values()])
    wn = work.numerator * (L // work.denominator)
    cols: Dict[Label, List[Tuple[Label, Series]]] = {}
    for (t, s), v in m.items():
        cols.setdefault(s, []).append((t, v.series(L)))
    below = []  # ((mid, j), t, s, scalar) of entries not 0 mod T^work
    for s, column in cols.items():
        acc: Dict[Label, Series] = {}
        first = {}  # target: (mid, j) of its first product
        for mid, y in column:
            for j, (t, x) in enumerate(cols.get(mid, ())):
                if t not in acc:
                    first[t], acc[t] = (mid, j), ((), None)
                acc[t] = series_add(acc[t], series_mul(x, y))
        for t, x in acc.items():
            floor = x[0][0][0] if x[0] else x[1]
            if floor is not None and floor < wn:
                v = from_series(x, L)
                below.append((first[t], t, s,
                              -v if negated and negated(t, s) else v))
    if below:  # mat_compose's order: (index in m of (mid, s), j)
        index = {key: i for i, key in enumerate(m)}
        below.sort(key=lambda b: (index[(b[0][0], b[2])], b[0][1]))
    return residual_violations({(t, s): v for _, t, s, v in below}, work)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    ok: bool
    violations: Tuple[Tuple[str, str], ...]  # (kind, detail)

    def __bool__(self):
        return self.ok


def checked(x, work, verify) -> Report:
    """The d*d report of ``x``, a complex or a cube, at ``work``: a pass
    when its certificate ``x.verified_mod`` reaches ``work``, else the
    full check ``verify(x, work)``, which records ``work`` on a pass."""
    cert = x.verified_mod
    if cert is not None and cert >= work:
        return Report(True, ())
    return verify(x, work)


def record(x, work) -> None:
    """Raise the certificate of ``x`` to ``work``, at which it verified."""
    if x.verified_mod is None or x.verified_mod < work:
        x.verified_mod = work


class ChainComplex:
    """Finitely generated free Z/2-graded complex over the Novikov ring.

    ``verified_mod`` is the d*d certificate (see the module docstring).
    """

    def __init__(self, generators: Iterable[Generator],
                 differential: MatrixEntries, verified_mod=None):
        self.verified_mod = verified_mod
        self.generators: Tuple[Generator, ...] = tuple(generators)
        labels = [g.label for g in self.generators]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique")
        self._parity = {g.label: g.parity for g in self.generators}
        diff = mat_clean(differential)
        for (t, s) in diff:
            if t not in self._parity or s not in self._parity:
                raise ValueError("differential entry (%r, %r) uses unknown "
                                 "generator" % (t, s))
        self.differential: MatrixEntries = diff

    # -- queries ---------------------------------------------------------

    @property
    def labels(self) -> Tuple[Label, ...]:
        return tuple(g.label for g in self.generators)

    def parity(self, label: Label) -> int:
        return self._parity[label]

    def __eq__(self, other):
        """Semantic equality: same generator set (with parities) and the
        same label-keyed differential; generator order is presentation."""
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (set(self.generators) == set(other.generators)
                and self.differential == other.differential)

    def __repr__(self):
        return "ChainComplex(%d generators, %d entries)" % (
            len(self.generators), len(self.differential))

    # -- verification ------------------------------------------------------

    def verify(self, work) -> Report:
        """Check parity, nonnegative valuations and d*d = 0 mod T^work;
        a pass raises the certificate to ``work``."""
        work = rat(work)
        bad: List[Tuple[str, str]] = []
        for (t, s), v in self.differential.items():
            if (self._parity[t] - self._parity[s]) % 2 != 1:
                bad.append(("parity", "entry (%r, %r) is even" % (t, s)))
            lead = v.lead
            if lead is not None and lead < 0:
                bad.append(("NegativeValuation",
                            "entry (%r, %r) has val %s" % (t, s, v.val())))
        for t, s, detail in square_violations(self.differential, work):
            bad.append(("d_squared", "(%r, %r): %s" % (t, s, detail)))
        if not bad:
            record(self, work)
        return Report(not bad, tuple(bad))

    # -- elementary operations ----------------------------------------------

    def relabel(self, fn: Callable[[Label], Label]) -> "ChainComplex":
        gens = [Generator(fn(g.label), g.parity) for g in self.generators]
        diff = {(fn(t), fn(s)): v for (t, s), v in self.differential.items()}
        return ChainComplex(gens, diff, self.verified_mod)

    def reduce_t0(self) -> "QComplex":
        """Set T = 0 entrywise; needs all entries of valuation >= 0."""
        return QComplex(self.generators, reduce_map_t0(self.differential))

    # -- homology over the valuation ring -------------------------------------

    def barcode(self, work) -> "Barcode":
        return _barcode(self, rat(work))

    def is_acyclic(self, work) -> Tuple[bool, Tuple[int, int]]:
        """Acyclicity of a finitely generated free complex, and the Betti
        numbers (even, odd) at T = 0 that decide it: for such complexes,
        vanishing homology at T = 0 is equivalent to vanishing homology
        over the ring."""
        report = checked(self, rat(work), ChainComplex.verify)
        if not report:
            raise ValueError("not a chain complex at this precision: %s"
                             % (report.violations,))
        betti = self.reduce_t0().homology_ranks()
        return betti == (0, 0), betti


def is_chain_map(entries: MatrixEntries, source: ChainComplex,
                 target: ChainComplex) -> bool:
    """f d = d' f, exactly: no entry of f d - d' f has a stored term."""
    lhs = mat_compose(entries, source.differential)
    rhs = mat_compose(target.differential, entries)
    return not any(mat_add(lhs, mat_neg(rhs)).values())


# ---------------------------------------------------------------------------
# residue-field complexes


class QComplex:
    """Chain complex over the rationals (the residue field at T = 0).

    Entries are kept as given, zeros dropped: ``int`` when integral, else
    ``Fraction``.  d is factored once, on first use (``factor``).  d is
    odd, so its even and odd blocks share no row and no column: rank d is
    the sum of their ranks, and each nullspace vector of d lies in one
    parity.
    """

    def __init__(self, generators: Iterable[Generator],
                 differential: Dict[Tuple[Label, Label], int | Fraction]):
        self.generators = tuple(generators)
        self._parity = {g.label: g.parity for g in self.generators}
        self.differential = {k: v for k, v in differential.items() if v}

    def parity(self, label: Label) -> int:
        return self._parity[label]

    def verify(self) -> Report:
        sq = mat_compose(self.differential, self.differential)
        bad = tuple(("d_squared", repr(k)) for k, v in sq.items() if v != 0)
        return Report(not bad, bad)

    @cached_property
    def index(self) -> Dict[Label, int]:
        """Each generator's position, the row and column it has in d."""
        return {g.label: i for i, g in enumerate(self.generators)}

    @cached_property
    def factor(self) -> Elimination:
        """d, with rows by target and columns by source, factored once."""
        rows: List[Dict[int, int | Fraction]] = [{} for _ in self.generators]
        for (t, s), v in self.differential.items():
            rows[self.index[t]][self.index[s]] = v
        return Elimination(rows, len(rows))

    def homology_ranks(self) -> Tuple[int, int]:
        """Betti numbers (even, odd): each parity's count less rank d."""
        r = len(self.factor.pivots)
        even = sum(1 for g in self.generators if g.parity == 0)
        return even - r, len(self.generators) - even - r

    def is_acyclic(self) -> bool:
        return self.homology_ranks() == (0, 0)

    def homology_space(self, parity: int) -> Tuple[List[Label], QuotientSpace]:
        """Cycle/boundary quotient for one parity, with coordinates.

        Returns the ordered generator labels of that parity and a
        :class:`QuotientSpace` whose vectors are indexed by them.
        """
        gens = self.generators
        mine = [g.label for g in gens if g.parity == parity]
        idx = {l: i for i, l in enumerate(mine)}
        # the cycles are the nullspace vectors of d that lie in this parity
        cycles = [{idx[gens[j].label]: v for j, v in vec.items()}
                  for vec in self.factor.nullspace()
                  if gens[next(iter(vec))].parity == parity]
        # d into this parity as columns keyed by source, indexed like mine
        d_in = {g.label: {} for g in gens if g.parity != parity}
        for (t, s), v in self.differential.items():
            if s not in idx:
                d_in[s][idx[t]] = v
        boundaries = [col for col in d_in.values() if col]
        return mine, QuotientSpace(len(mine), cycles, boundaries)


def reduce_map_t0(entries: MatrixEntries
                  ) -> Dict[Tuple[Label, Label], int | Fraction]:
    return {k: c for k, v in entries.items() if (c := v.reduce_t0())}


# ---------------------------------------------------------------------------
# barcodes


@dataclass(frozen=True)
class Barcode:
    """Homology of a f.g. complex over the valuation ring, at a precision.

    ``free_bars`` lists parities of free summands, ``torsion_bars`` pairs
    (parity, length) for summands ``ring / T^length``, and ``open_bars``
    lists parities of summands spanned by all T^e with 0 < e < precision
    (these arise from completed direct limits and never from a single
    finite complex).  ``free_at_precision`` flags that torsion of length
    >= the stated precision cannot be told apart from a free bar.
    """

    free_bars: Tuple[int, ...]
    torsion_bars: Tuple[Tuple[int, Fraction], ...]
    precision: Optional[Fraction]
    open_bars: Tuple[int, ...] = ()
    free_at_precision: bool = False

    def free_ranks(self) -> Tuple[int, int]:
        return (self.free_bars.count(0), self.free_bars.count(1))

    def open_ranks(self) -> Tuple[int, int]:
        return (self.open_bars.count(0), self.open_bars.count(1))

    @property
    def is_zero(self) -> bool:
        return not (self.free_bars or self.torsion_bars or self.open_bars)

    @property
    def all_torsion(self) -> bool:
        """True when tensoring with the fraction field kills everything."""
        return not (self.free_bars or self.open_bars)

    def to_json(self):
        return {
            "free": [{"parity": p} for p in self.free_bars],
            "torsion": [{"parity": p, "length": str(l)}
                        for p, l in self.torsion_bars],
            "open": [{"parity": p} for p in self.open_bars],
            "precision": None if self.precision is None else str(self.precision),
            "free_at_precision": self.free_at_precision,
        }


def _barcode(c: ChainComplex, work: Fraction) -> Barcode:
    """Valuation-pivot reduction over the quotient ring at T^work.

    Repeatedly split off a minimum-valuation pivot; in a valuation ring it
    divides every other entry, so its row and column clear by elementary
    operations with nonnegative valuation.  Each pivot of valuation v > 0
    contributes a torsion bar of length v at the parity of its target;
    unit pivots contribute nothing; what remains is free at precision.

    The pivot is the entry of least valuation, ties going to the smallest
    ``repr((target, source))``.  Entries known only modulo T^R bound the
    valuations still unseen: the reduction stops with ``PrecisionExhausted``
    when one lies below the next pivot.  Both kinds of entry wait in a
    queue (a heap keyed by valuation and repr, and one keyed by R); every
    write pushes the new series, and an entry is checked only when it
    reaches the top, where it is dropped unless it is still the series at
    its position.

    The rows hold series (see :mod:`novcube.novikov`), read on entry on
    one lattice ``(1/L) Z`` that also holds ``work`` and cut at ``work``:
    valuations, precisions and heap keys are ``int`` numerators over L.
    Scalars are built only to invert each pivot and in messages; bars and
    the valid precision become Fractions at the end.
    """
    report = checked(c, work, ChainComplex.verify)
    if not report:
        raise ValueError("barcode needs a verified complex: %s"
                         % (report.violations,))
    # rows[t][s] with a column index; entries that are zero at the working
    # precision are kept so pivot ambiguity can be detected.  Every entry
    # enters cut at ``work``, and series_add and series_mul keep a
    # precision, so no entry is ever an exact zero: each has a floor
    rows: Dict[Label, Dict[Label, Series]] = {}
    cols: Dict[Label, set] = {}
    known: List[tuple] = []    # (valuation, repr, seq, t, s, series)
    unknown: List[tuple] = []  # (precision, seq, t, s, series)
    reprs: Dict[Tuple[Label, Label], str] = {}
    seq = itertools.count()

    def put(t, s, v):
        if v[0]:
            key = reprs.get((t, s))
            if key is None:
                key = reprs[(t, s)] = repr((t, s))
            heapq.heappush(known, (v[0][0][0], key, next(seq), t, s, v))
        else:
            heapq.heappush(unknown, (v[1], next(seq), t, s, v))
        rows.setdefault(t, {})[s] = v
        cols.setdefault(s, set()).add(t)

    def top(heap):
        """The queue's least entry still stored at its position, or None."""
        while heap:
            t, s, v = heap[0][-3:]
            if rows.get(t, {}).get(s) is v:
                return heap[0]
            heapq.heappop(heap)
        return None

    L = lcm(work.denominator, *[v.den for v in c.differential.values()])
    wn = work.numerator * (L // work.denominator)
    for (t, s), v in c.differential.items():
        put(t, s, v.series(L, wn))

    alive = set(c.labels)
    torsion: List[Tuple[int, int, str]] = []
    valid_mod = wn
    imprecise = False

    while True:
        best = top(known)
        floor = top(unknown)
        unknown_floor = INFINITY if floor is None else floor[0]
        if best is None:
            if unknown_floor is not INFINITY:
                imprecise = True
                valid_mod = min(valid_mod, unknown_floor)
            break
        pivot_val, _, _, q, p, pval = best
        if unknown_floor < pivot_val:
            raise PrecisionExhausted(
                "pivot of valuation %s is ambiguous: entries unknown below "
                "T^%s" % (Fraction(pivot_val, L), Fraction(unknown_floor, L)))
        pinv = from_series(pval, L).invert(work).series(L)
        # clear row q by column operations col_pp -= factor*col_p, each with
        # its dual row operation row_p += factor*row_pp
        for pp, v in [(s, v) for s, v in rows[q].items() if s != p]:
            factor = series_mul(v, pinv)
            neg = series_neg(factor)
            for t in list(cols.get(p, ())):
                w = rows[t][p]
                cur = rows.get(t, {}).get(pp, ((), None))
                put(t, pp, series_add(cur, series_mul(neg, w)))
            for s, w in list(rows.get(pp, {}).items()):
                cur = rows.get(p, {}).get(s, ((), None))
                put(p, s, series_add(cur, series_mul(factor, w)))
        # clear column p by row operations row_qq -= factor*row_q (row q now
        # holds only the pivot), each with its dual col_q += factor*col_qq
        for qq in [t for t in cols.get(p, set()) if t != q]:
            v = rows[qq][p]
            factor = series_mul(v, pinv)
            put(qq, p, series_add(v, series_mul(series_neg(factor), pval)))
            for t in list(cols.get(qq, ())):
                w = rows[t][qq]
                cur = rows.get(t, {}).get(q, ((), None))
                put(t, q, series_add(cur, series_mul(factor, w)))
        # split off generators p and q; d*d = 0 makes their remaining row
        # and column vanish at (slightly reduced) precision
        rows[q].pop(p)
        cols[p].discard(q)
        leftovers = []
        for t in list(cols.get(p, ())) + list(cols.get(q, ())):
            for s in (p, q):
                if s in rows.get(t, {}):
                    leftovers.append(rows[t].pop(s))
                    cols[s].discard(t)
        for t in (p, q):
            for s, v in list(rows.pop(t, {}).items()):
                cols[s].discard(t)
                leftovers.append(v)
        for v in leftovers:
            floor = v[0][0][0] if v[0] else v[1]
            if v[0] and floor < wn - pivot_val:
                raise ValueError(
                    "input is not a chain complex: residual %s"
                    % format_scalar(from_series(v, L)))
            imprecise = True
            valid_mod = min(valid_mod, floor)
        alive.discard(p)
        alive.discard(q)
        if pivot_val > 0:
            torsion.append((c.parity(q), pivot_val, repr(q)))
    free = sorted(c.parity(l) for l in alive)
    torsion_sorted = tuple((p, Fraction(l, L)) for p, l, _ in sorted(torsion))
    return Barcode(tuple(free), torsion_sorted, Fraction(valid_mod, L),
                   free_at_precision=imprecise and bool(free))


# ---------------------------------------------------------------------------
# JSON input/output


def complex_to_json(c: ChainComplex) -> dict:
    return {
        "generators": [{"label": str(g.label), "parity": g.parity}
                       for g in c.generators],
        "differential": matrix_to_json(c.differential),
    }


def json_field(data: dict, key: str, kind: type, default=None):
    """``data[key]``, or ``default`` (when given) for a missing key, which
    must be of exactly the type ``kind``: a bool is not an int here."""
    value = data[key] if default is None or key in data else default
    if type(value) is not kind:
        raise ValueError("key %r must be of type %s, got %r"
                         % (key, kind.__name__, value))
    return value


def json_rational(data: dict, key: str) -> Fraction:
    """``data[key]`` as an exact rational; it must be a ``"p/q"`` string or
    an int, since a JSON float is a binary fraction."""
    value = data[key]
    if type(value) not in (str, int):
        raise ValueError("key %r must be a string p/q or an int, got %r"
                         % (key, value))
    return rat(value)


def complex_from_json(data: dict) -> ChainComplex:
    json_keys(data, {"generators", "differential"}, "a complex")
    gens = []
    for g in data["generators"]:
        json_keys(g, {"label", "parity"}, "a generator")
        gens.append(Generator(g["label"], json_field(g, "parity", int)))
    return ChainComplex(gens, matrix_from_json(data.get("differential", ())))


def matrix_to_json(m: MatrixEntries) -> list:
    return [{"target": str(t), "source": str(s), "scalar": format_scalar(v)}
            for (t, s), v in sorted(m.items(), key=lambda kv: repr(kv[0]))]


def matrix_from_json(data) -> MatrixEntries:
    out: MatrixEntries = {}
    for e in data:
        json_keys(e, {"target", "source", "scalar"}, "an entry")
        scalar = e["scalar"]
        v = parse_scalar(scalar) if isinstance(scalar, str) \
            else scalar_from_json(scalar)
        out[(e["target"], e["source"])] = v
    return out
