"""The exact elimination kernel: sympy as an oracle, and factor-once use."""

from fractions import Fraction as F

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube import linalg, rays
from novcube.linalg import (Elimination, QuotientSpace, column_space_selector,
                            nullspace, rank, rref, solve)
from novcube.morse import bundled_model, minmax_square
from novcube.rays import mayer_vietoris

SETTINGS = settings(max_examples=150, deadline=None)

entries = st.one_of(
    st.just(F(0)), st.just(F(0)),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """Small rational matrices: empty, zero, sparse, and rank-deficient
    ones (some rows are combinations of others)."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    mat = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if i >= 2 and draw(st.booleans()):
            a, b = draw(entries), draw(entries)
            mat[i] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
    return mat


def to_sympy(mat):
    n = len(mat[0]) if mat else 0
    return sympy.Matrix(len(mat), n, [sympy.Rational(x.numerator,
                                                     x.denominator)
                                      for row in mat for x in row])


def from_sympy(x) -> F:
    return F(int(x.p), int(x.q))


def mat_vec(mat, v):
    return [sum((a * b for a, b in zip(row, v)), F(0)) for row in mat]


@SETTINGS
@given(matrices())
def test_rank_pivots_and_rref_match_sympy(mat):
    red, pivots = rref(mat)
    s_red, s_pivots = to_sympy(mat).rref()
    assert pivots == list(s_pivots)
    assert rank(mat) == len(s_pivots)
    assert column_space_selector(mat) == list(s_pivots)
    assert red == [[from_sympy(x) for x in s_red.row(i)]
                   for i in range(s_red.rows)]


@SETTINGS
@given(matrices(), st.data())
def test_solve_matches_sympy(mat, data):
    n = len(mat[0]) if mat else 0
    if data.draw(st.booleans()):  # a consistent right-hand side
        rhs = mat_vec(mat, [data.draw(entries) for _ in range(n)])
    else:
        rhs = [data.draw(entries) for _ in mat]
    aug = [row + [b] for row, b in zip(mat, rhs)]
    s_red, s_pivots = (to_sympy(aug).rref() if mat
                       else (sympy.Matrix(0, 1, []), ()))
    got = solve(mat, rhs)
    if n in s_pivots:
        assert got is None
        return
    want = [F(0)] * n
    for r, pc in enumerate(s_pivots):
        want[pc] = from_sympy(s_red[r, n])
    assert got == want
    assert mat_vec(mat, got) == rhs


@SETTINGS
@given(matrices())
def test_nullspace_dimension_and_kernel(mat):
    n = len(mat[0]) if mat else 0
    basis = nullspace(mat)
    assert len(basis) == n - to_sympy(mat).rank()
    for v in basis:
        assert len(v) == n
        assert all(x == 0 for x in mat_vec(mat, v))


@SETTINGS
@given(st.integers(0, 5), st.data())
def test_quotient_coords_round_trip(n, data):
    def cols(k):
        return [[data.draw(entries) for _ in range(n)] for _ in range(k)]

    def col_rank(cs):
        return to_sympy([list(r) for r in zip(*cs)]).rank()

    w_cols = cols(data.draw(st.integers(0, 3)))
    v_cols = w_cols + cols(data.draw(st.integers(0, 3)))
    q = QuotientSpace(n, v_cols, w_cols)
    assert q.dim == col_rank(w_cols + v_cols) - col_rank(w_cols)
    coeffs = [data.draw(entries) for _ in range(q.dim)]
    w_part = [data.draw(entries) for _ in w_cols]
    v = [sum((c * rep[i] for c, rep in zip(coeffs, q.reps)), F(0))
         + sum((c * w[i] for c, w in zip(w_part, w_cols)), F(0))
         for i in range(n)]
    assert q.coords(v) == coeffs


def test_mayer_vietoris_factors_the_total_complex_once(monkeypatch):
    built, lifted = [], []

    class Counting(Elimination):
        def __init__(self, mat):
            built.append(len(mat))
            super().__init__(mat)

        def solve(self, rhs):
            lifted.append(len(rhs))
            return super().solve(rhs)

    monkeypatch.setattr(rays, "Elimination", Counting)
    m = bundled_model("circle")
    h = dict(m.values)
    for hy in (h, {l: h[l] + F(1, 2) for l in m.labels}):
        built.clear()
        lifted.clear()
        assert mayer_vietoris(minmax_square(m, h, hy).square, 3).ok
        assert len(built) == 1
        assert len(lifted) >= 2


def test_quotient_space_factors_at_most_once(monkeypatch):
    built = []
    init = Elimination.__init__

    def counting(self, mat):
        built.append(len(mat))
        init(self, mat)

    monkeypatch.setattr(linalg.Elimination, "__init__", counting)
    w = [[F(1), F(1), F(0)]]
    v = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    q = QuotientSpace(3, v, w)
    assert q.dim == 1
    for k in range(10):
        assert q.coords([F(k), F(2), F(0)]) == [F(k - 2)]
    assert len(built) <= 1
