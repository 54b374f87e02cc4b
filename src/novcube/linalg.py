"""Exact linear algebra over the rationals: a value is an ``int`` when
it is integral and a ``Fraction`` otherwise, and every division goes
through ``_div``, which is exact, so no float ever arises.

:class:`Elimination` is the one elimination: it factors a matrix, given as
sparse rows ``{column: value}`` and a column count, once into its reduced
row echelon form, as ``chain.QComplex.factor`` does once per complex.
:class:`QuotientSpace` and ``is_exact`` (exactness of a pair of maps given
as sparse columns) are sparse views of it; ``sparse_rank`` and the dense
``rref``, ``rank``, ``nullspace``, ``solve`` and ``column_space_selector``
are views that nothing in the library calls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

Scalar = int | Fraction
Matrix = List[List[Scalar]]
Vector = Dict[int, Scalar]  # sparse: index -> value, zeros may be left out


def _div(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: ``a // b`` when b divides a, else a ``Fraction``."""
    if type(a) is Fraction or type(b) is Fraction:
        return a / b
    return Fraction(a, b) if a % b else a // b


class Elimination:
    """The RREF of one rational matrix, factored once, solved many times.

    Entries, and so results, are ``int`` when integral, else ``Fraction``.

    Rows are copied, zeros dropped, since the reduction writes into them
    and callers pass rows they read again: ``rays.mayer_vietoris`` hands
    one list of columns to ``is_exact`` twice.  The copies are taken
    sparsest first and reduced against the row holding their leading
    column; that forward pass fixes ``pivots``.
    Clearing above every pivot is left until ``rows``, ``solve`` or
    ``nullspace`` first needs it, so a rank costs the forward pass alone.
    ``solve`` replays the logged row operations on a right-hand side; the
    rows that reduce to zero give the consistency conditions.  The RREF is
    unique for a fixed column order, so no result depends on the row order.
    """

    def __init__(self, rows: Iterable[Vector], ncols: int):
        rows = [{c: v for c, v in row.items() if v} for row in rows]
        self.shape = (len(rows), ncols)
        self._ops: List[Tuple[int, Scalar, int]] = []
        self._null: List[int] = []
        lead: Dict[int, int] = {}  # pivot column -> row holding it
        for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
            while rows[i] and (c := min(rows[i])) in lead:
                self._reduce(rows, i, c, lead[c])
            if rows[i]:
                lead[c] = i
            else:
                self._null.append(i)
        self.pivots = sorted(lead)
        # clearing above a pivot never changes a pivot value
        self._lead = [(lead[c], rows[lead[c]][c]) for c in self.pivots]
        self._rows = rows

    @cached_property
    def _cleared(self) -> List[Vector]:
        """The rows with every pivot cleared above, on first use; these
        row operations are logged after the forward ones."""
        rows = self._rows
        lead = {c: i for c, (i, _) in zip(self.pivots, self._lead)}
        for c in reversed(self.pivots):
            for j in [j for j in rows[lead[c]] if j != c and j in lead]:
                self._reduce(rows, lead[c], j, lead[j])
        return rows

    @cached_property
    def rows(self) -> List[Vector]:
        """The nonzero rows of the RREF, in pivot order."""
        return [{k: _div(v, p) for k, v in self._cleared[i].items()}
                for i, p in self._lead]

    def _reduce(self, rows: List[Vector], i: int, c: int, k: int) -> None:
        """Clear column c of row i with row k, and log the operation."""
        f = _div(rows[i][c], rows[k][c])
        self._ops.append((i, f, k))
        for j, v in rows[k].items():
            nv = rows[i].get(j, 0) - f * v
            if nv:
                rows[i][j] = nv
            else:
                del rows[i][j]

    def solve(self, rhs: Vector) -> Optional[Vector]:
        """The solution of mat @ x = rhs whose free variables are 0, or
        None if the system is inconsistent."""
        self._cleared  # clear above the pivots first: solve replays that too
        b = dict(rhs)
        for i, f, k in self._ops:
            if b.get(k):
                b[i] = b.get(i, 0) - f * b[k]
        if any(b.get(i) for i in self._null):
            return None
        return {c: _div(x, p) for c, (i, p) in zip(self.pivots, self._lead)
                if (x := b.get(i))}

    def nullspace(self) -> List[Vector]:
        """A basis of the right nullspace, one vector per free column."""
        free = set(self.pivots)
        basis = {fc: {fc: 1} for fc in range(self.shape[1])
                 if fc not in free}
        for pc, row in zip(self.pivots, self.rows):
            for fc, v in row.items():
                if fc != pc:
                    basis[fc][pc] = -v
        return list(basis.values())


def _factor(mat: Matrix) -> Elimination:
    return Elimination([dict(enumerate(row)) for row in mat],
                       len(mat[0]) if mat else 0)


def _dense(vec: Vector, n: int) -> List[Scalar]:
    return [vec.get(i, 0) for i in range(n)]


def rref(mat: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form. Returns (rref_matrix, pivot_columns)."""
    elim = _factor(mat)
    rows = elim.rows + [{}] * (elim.shape[0] - len(elim.pivots))
    return [_dense(row, elim.shape[1]) for row in rows], elim.pivots


def rank(mat: Matrix) -> int:
    return len(_factor(mat).pivots)


def nullspace(mat: Matrix) -> Matrix:
    """Basis of the right nullspace, as a list of column vectors."""
    elim = _factor(mat)
    return [_dense(v, elim.shape[1]) for v in elim.nullspace()]


def solve(mat: Matrix, rhs: Sequence[Scalar]) -> Optional[List[Scalar]]:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    elim = _factor(mat)
    x = elim.solve(dict(enumerate(rhs)))
    return None if x is None else _dense(x, elim.shape[1])


def column_space_selector(mat: Matrix) -> List[int]:
    """Indices of a maximal independent subset of columns."""
    return _factor(mat).pivots


class QuotientSpace:
    """The quotient V / W of subspaces of Q^n given by sparse spanning
    columns.  One elimination of [W | V] serves throughout: its pivots
    among V are the ``reps``, and ``coords(v)``, for v in V, solves against
    it for the class of v as a sparse vector over ``reps``.
    """

    def __init__(self, n: int, v_cols: List[Vector], w_cols: List[Vector]):
        combined = list(w_cols) + list(v_cols)
        rows: List[Vector] = [{} for _ in range(n)]
        for j, col in enumerate(combined):
            for i, v in col.items():
                rows[i][j] = v
        self._elim = Elimination(rows, len(combined))
        self._rep_idx = [j for j in self._elim.pivots if j >= len(w_cols)]
        self.reps = [combined[j] for j in self._rep_idx]
        self.dim = len(self.reps)

    def coords(self, v: Vector) -> Vector:
        sol = self._elim.solve(v)
        if sol is None:
            raise ValueError("vector not in the ambient subspace")
        return {k: sol[j] for k, j in enumerate(self._rep_idx) if j in sol}


def sparse_rank(entries: Dict[Tuple[Hashable, Hashable], Scalar]) -> int:
    """Rank of a sparse rational matrix keyed by (row, col) labels; no
    library code calls it, as a complex's ranks come from its factor."""
    rows: Dict[Hashable, Vector] = {}
    cols: Dict[Hashable, int] = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[cols.setdefault(c, len(cols))] = v
    return len(Elimination(rows.values(), len(cols)).pivots)


def is_exact(incoming: Sequence[Vector], outgoing: Sequence[Vector],
             dim: int) -> bool:
    """Whether im(incoming) = ker(outgoing) inside Q^dim.

    Both maps are lists of sparse columns: ``incoming`` has columns in
    Q^dim and ``outgoing`` one column per coordinate of Q^dim.  Exact
    means the composite vanishes and rank(incoming) + rank(outgoing) =
    dim; a column rank is a row rank, so each map's columns enter the
    elimination as its rows.
    """
    if len(outgoing) != dim:
        raise ValueError("outgoing has %d columns, not %d"
                         % (len(outgoing), dim))
    for col in incoming:
        image: Vector = {}
        for i, x in col.items():
            for j, v in outgoing[i].items():
                image[j] = image.get(j, 0) + v * x
        if any(image.values()):
            return False
    width = 1 + max((j for col in outgoing for j in col), default=-1)
    return (len(Elimination(incoming, dim).pivots)
            + len(Elimination(outgoing, width).pivots)) == dim
