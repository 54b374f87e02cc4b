"""Test-only oracle: the barcode reduction that scans every entry for
each pivot.

``novcube.chain._barcode`` keeps its entries in lazily checked queues; this
is the plain O(pivots x nnz) form of the same reduction, with the same
pivot rule (least valuation, ties to the smallest ``repr((target,
source))``), kept so the two can be compared on random complexes.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from novcube.chain import Barcode, ChainComplex, Label
from novcube.novikov import (INFINITY, NovikovScalar, PrecisionExhausted,
                             format_scalar)


def full_scan_barcode(c: ChainComplex, work: Fraction) -> Barcode:
    """Valuation-pivot reduction over the quotient ring at T^work.

    Repeatedly split off a minimum-valuation pivot; in a valuation ring it
    divides every other entry, so its row and column clear by elementary
    operations with nonnegative valuation.  Each pivot of valuation v > 0
    contributes a torsion bar of length v at the parity of its target;
    unit pivots contribute nothing; what remains is free at precision.
    """
    report = c.verify(work)
    if not report:
        raise ValueError("barcode needs a verified complex: %s"
                         % (report.violations,))
    # rows[t][s] with a column index; entries that are zero at the working
    # precision are kept so pivot ambiguity can be detected
    rows: Dict[Label, Dict[Label, NovikovScalar]] = {}
    cols: Dict[Label, set] = {}

    def put(t, s, v):
        if v.terms or v.mod is not None:
            rows.setdefault(t, {})[s] = v
            cols.setdefault(s, set()).add(t)
        else:
            if s in rows.get(t, {}):
                del rows[t][s]
                cols[s].discard(t)

    for (t, s), v in c.differential.items():
        put(t, s, v.truncate(work))

    alive = set(c.labels)
    torsion: List[Tuple[int, Fraction, str]] = []
    valid_mod = work
    imprecise = False

    while True:
        pivot = None
        pivot_val = INFINITY
        unknown_floor = INFINITY
        for t, row in rows.items():
            for s, v in row.items():
                if v.terms:
                    vv = v.terms[0][0]
                    if vv < pivot_val or (vv == pivot_val and
                                          repr((t, s)) < repr(pivot)):
                        pivot, pivot_val = (t, s), vv
                elif v.mod is not None:
                    unknown_floor = min(unknown_floor, v.mod)
        if pivot is None:
            if unknown_floor is not INFINITY:
                imprecise = True
                valid_mod = min(valid_mod, unknown_floor)
            break
        if unknown_floor < pivot_val:
            raise PrecisionExhausted(
                "pivot of valuation %s is ambiguous: entries unknown below "
                "T^%s" % (pivot_val, unknown_floor))
        q, p = pivot
        pval = rows[q][p]
        pinv = pval.invert(work)
        # clear row q by column operations col_pp -= factor*col_p, each with
        # its dual row operation row_p += factor*row_pp
        for pp, v in [(s, v) for s, v in rows[q].items() if s != p]:
            factor = v * pinv
            for t in list(cols.get(p, ())):
                w = rows[t][p]
                cur = rows.get(t, {}).get(pp, NovikovScalar.zero())
                put(t, pp, cur - factor * w)
            for s, w in list(rows.get(pp, {}).items()):
                cur = rows.get(p, {}).get(s, NovikovScalar.zero())
                put(p, s, cur + factor * w)
        # clear column p by row operations row_qq -= factor*row_q (row q now
        # holds only the pivot), each with its dual col_q += factor*col_qq
        for qq in [t for t in cols.get(p, set()) if t != q]:
            v = rows[qq][p]
            factor = v * pinv
            put(qq, p, v - factor * pval)
            for t in list(cols.get(qq, ())):
                w = rows[t][qq]
                cur = rows.get(t, {}).get(q, NovikovScalar.zero())
                put(t, q, cur + factor * w)
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
            if v.terms:
                if v.terms[0][0] < work - pivot_val:
                    raise ValueError(
                        "input is not a chain complex: residual %s"
                        % format_scalar(v))
                imprecise = True
                valid_mod = min(valid_mod, v.terms[0][0])
            elif v.mod is not None:
                imprecise = True
                valid_mod = min(valid_mod, v.mod)
        alive.discard(p)
        alive.discard(q)
        if pivot_val > 0:
            torsion.append((c.parity(q), pivot_val, repr(q)))
    free = sorted(c.parity(l) for l in alive)
    torsion_sorted = tuple((p, l) for p, l, _ in
                           sorted(torsion, key=lambda t: (t[0], t[1], t[2])))
    return Barcode(tuple(free), torsion_sorted, valid_mod,
                   free_at_precision=imprecise and bool(free))
