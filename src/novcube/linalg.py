"""Exact linear algebra over the rationals.

One sparse elimination, :class:`Elimination`, factors a matrix once into
its reduced row echelon form and then answers rank, pivot columns, the
RREF, a nullspace basis and any number of ``solve`` calls without
eliminating again; ``rref``, ``rank``, ``nullspace``, ``solve``,
``column_space_selector`` and :class:`QuotientSpace` are views of it.
``sparse_rank`` is a rank with Markowitz-style pivoting for the large
label-keyed boundary matrices produced by telescopes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]


class Elimination:
    """The RREF of one rational matrix, factored once, solved many times.

    Rows are sparse ``{column: value}`` dicts, inserted sparsest first and
    reduced against the rows holding their leading column, then cleared
    above every pivot.  Each reduced row keeps the combination of input
    rows equal to it, so ``solve`` applies the same row operations to a
    right-hand side; the rows that reduce to zero give the consistency
    conditions.  The RREF is unique, so no result depends on the order.
    """

    def __init__(self, mat: Matrix):
        self.shape = (len(mat), len(mat[0]) if mat else 0)
        lead: Dict[int, Tuple[dict, dict]] = {}
        self._null: List[dict] = []
        pairs = [({c: v for c, v in enumerate(row) if v}, {i: Fraction(1)})
                 for i, row in enumerate(mat)]
        for row, comb in sorted(pairs, key=lambda p: len(p[0])):
            while row:
                c = min(row)
                if c not in lead:
                    inv = Fraction(1) / row[c]
                    lead[c] = tuple({k: v * inv for k, v in d.items()}
                                    for d in (row, comb))
                    break
                _subtract((row, comb), row[c], lead[c])
            else:
                self._null.append(comb)
        self.pivots = sorted(lead)
        for c in reversed(self.pivots):
            for j in [j for j in lead[c][0] if j != c and j in lead]:
                _subtract(lead[c], lead[c][0][j], lead[j])
        self.rows = [lead[c][0] for c in self.pivots]
        self._combs = [lead[c][1] for c in self.pivots]

    def solve(self, rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
        """The solution of mat @ x = rhs whose free variables are 0, or
        None if the system is inconsistent."""
        if any(_dot(comb, rhs) for comb in self._null):
            return None
        x = [Fraction(0)] * self.shape[1]
        for pc, comb in zip(self.pivots, self._combs):
            x[pc] = _dot(comb, rhs)
        return x


def _subtract(dst, f: Fraction, src) -> None:
    """dst -= f * src on (row, combination) pairs of sparse dicts."""
    for d, s in zip(dst, src):
        for k, v in s.items():
            nv = d.get(k, 0) - f * v
            if nv:
                d[k] = nv
            else:
                del d[k]


def _dot(comb: dict, rhs: Sequence[Fraction]) -> Fraction:
    return sum((v * rhs[i] for i, v in comb.items() if rhs[i]), Fraction(0))


def rref(mat: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form. Returns (rref_matrix, pivot_columns)."""
    elim = Elimination(mat)
    (m, n), zero = elim.shape, Fraction(0)
    red = [[row.get(j, zero) for j in range(n)] for row in elim.rows]
    return red + [[zero] * n for _ in range(m - len(red))], elim.pivots


def rank(mat: Matrix) -> int:
    return len(Elimination(mat).pivots)


def nullspace(mat: Matrix) -> List[List[Fraction]]:
    """Basis of the right nullspace, as a list of column vectors."""
    elim = Elimination(mat)
    n, zero = elim.shape[1], Fraction(0)
    basis = []
    for fc in sorted(set(range(n)) - set(elim.pivots)):
        v = [zero] * n
        v[fc] = Fraction(1)
        for pc, row in zip(elim.pivots, elim.rows):
            v[pc] = -row.get(fc, zero)
        basis.append(v)
    return basis


def solve(mat: Matrix, rhs: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    return Elimination(mat).solve(rhs)


def column_space_selector(mat: Matrix) -> List[int]:
    """Indices of a maximal independent subset of columns."""
    return Elimination(mat).pivots


class QuotientSpace:
    """The quotient V / W of subspaces of Q^n given by spanning columns.

    Provides coordinates on the quotient: ``coords(v)`` expresses the class
    of ``v`` (which must lie in V) in a fixed basis of V/W.  One
    elimination of the columns [W | V] serves throughout: its pivots among
    V are the representatives, and ``coords`` solves against it.
    """

    def __init__(self, n: int, v_cols: List[List[Fraction]],
                 w_cols: List[List[Fraction]]):
        self.n = n
        combined = list(w_cols) + list(v_cols)
        self._elim = Elimination(_cols_to_matrix(n, combined))
        self._rep_idx = [i for i in self._elim.pivots if i >= len(w_cols)]
        self.reps = [combined[i] for i in self._rep_idx]
        self.dim = len(self.reps)

    def coords(self, v: Sequence[Fraction]) -> List[Fraction]:
        sol = self._elim.solve(v)
        if sol is None:
            raise ValueError("vector not in the ambient subspace")
        return [sol[i] for i in self._rep_idx]


def _cols_to_matrix(n: int, cols: List[List[Fraction]]) -> Matrix:
    return [[cols[j][i] for j in range(len(cols))] for i in range(n)]


def sparse_rank(entries: Dict[Tuple[object, object], Fraction]) -> int:
    """Rank of a sparse rational matrix keyed by (row, col).

    Gaussian elimination with a greedy low-fill pivot choice; fine for the
    sizes produced by desk-scale telescopes.
    """
    rows: Dict[object, Dict[object, Fraction]] = {}
    cols: Dict[object, set] = {}
    for (r, c), v in entries.items():
        if v == 0:
            continue
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    rk = 0
    while rows:
        # pick pivot minimizing (row fill - 1) * (col fill - 1)
        best = None
        best_cost = None
        for r, rowd in rows.items():
            rl = len(rowd)
            for c in rowd:
                cost = (rl - 1) * (len(cols[c]) - 1)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (r, c), cost
                    if cost == 0:
                        break
            if best_cost == 0:
                break
        pr, pc = best
        rk += 1
        prow = rows.pop(pr)
        pval = prow[pc]
        for c in prow:
            cols[c].discard(pr)
        targets = [r for r in cols.get(pc, ()) if r in rows]
        for r in targets:
            f = rows[r][pc] / pval
            rowd = rows[r]
            for c, v in prow.items():
                nv = rowd.get(c, Fraction(0)) - f * v
                if nv == 0:
                    if c in rowd:
                        del rowd[c]
                        cols[c].discard(r)
                else:
                    if c not in rowd:
                        cols.setdefault(c, set()).add(r)
                    rowd[c] = nv
            if not rowd:
                del rows[r]
        cols.pop(pc, None)
    return rk
