"""The exact elimination kernel: sympy as an oracle, and factor-once use."""

import copy
import random
from fractions import Fraction as F
from math import lcm

import pytest
import sympy
from helpers import random_cube
from hypothesis import given, settings
from hypothesis import strategies as st
from t0_oracle import per_parity_ranks, per_parity_space

from novcube import chain, cubes, linalg, rays
from novcube.chain import ChainComplex, Generator, QComplex
from novcube.cubes import CubeDiagram, id_cube, total_complex
from novcube.linalg import (Elimination, QuotientSpace, column_space_selector,
                            is_exact, nullspace, rank, rref, solve,
                            sparse_rank)
from novcube.morse import bundled_model, minmax_square
from novcube.novikov import NovikovScalar
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
@given(matrices(), st.data())
def test_back_substitution_is_lazy_and_runs_once(mat, data):
    """Pivots come from the forward pass alone; the clearing above them
    runs on first use, whichever of rows, solve and nullspace asks."""
    n = len(mat[0]) if mat else 0
    rhs = dict(enumerate(mat_vec(mat, [data.draw(entries)
                                       for _ in range(n)])))
    rows = [dict(enumerate(row)) for row in mat]
    first = Elimination(rows, n)
    assert first.pivots == list(to_sympy(mat).rref()[1])
    assert "_cleared" not in vars(first)
    x = first.solve(rhs)
    assert "_cleared" in vars(first)
    second = Elimination(rows, n)
    basis = second.nullspace()
    assert second.solve(rhs) == x == first.solve(rhs)
    assert second.rows == first.rows
    assert basis == first.nullspace()


@SETTINGS
@given(matrices())
def test_nullspace_dimension_and_kernel(mat):
    n = len(mat[0]) if mat else 0
    basis = nullspace(mat)
    assert len(basis) == n - to_sympy(mat).rank()
    for v in basis:
        assert len(v) == n
        assert all(x == 0 for x in mat_vec(mat, v))


def sparse(vec):
    """A sparse vector with some of the zeros of ``vec`` kept explicitly."""
    return {i: x for i, x in enumerate(vec) if x or i % 2}


@SETTINGS
@given(st.integers(0, 5), st.data())
def test_quotient_coords_round_trip(n, data):
    def cols(k):
        return [[data.draw(entries) for _ in range(n)] for _ in range(k)]

    def col_rank(cs):
        return to_sympy([list(r) for r in zip(*cs)]).rank()

    w_cols = cols(data.draw(st.integers(0, 3)))
    v_cols = w_cols + cols(data.draw(st.integers(0, 3)))
    q = QuotientSpace(n, [sparse(c) for c in v_cols],
                      [sparse(c) for c in w_cols])
    assert q.dim == col_rank(w_cols + v_cols) - col_rank(w_cols)
    coeffs = [data.draw(entries) for _ in range(q.dim)]
    w_part = [data.draw(entries) for _ in w_cols]
    v = [sum((c * rep.get(i, F(0)) for c, rep in zip(coeffs, q.reps)), F(0))
         + sum((c * w[i] for c, w in zip(w_part, w_cols)), F(0))
         for i in range(n)]
    assert q.coords(sparse(v)) == {k: c for k, c in enumerate(coeffs) if c}


labels = st.one_of(st.sampled_from(["x", "y", "z", "w"]),
                   st.tuples(st.sampled_from(["tel", "00"]),
                             st.integers(0, 2), st.sampled_from(["u", "a"])))


@SETTINGS
@given(st.dictionaries(st.tuples(labels, labels), entries, max_size=14))
def test_sparse_rank_matches_sympy(entries_by_label):
    rows = list(dict.fromkeys(r for r, _ in entries_by_label))
    cols = list(dict.fromkeys(c for _, c in entries_by_label))
    mat = [[entries_by_label.get((r, c), F(0)) for c in cols] for r in rows]
    assert sparse_rank(entries_by_label) == to_sympy(mat).rank()


@st.composite
def square_zero_complexes(draw):
    """A Z/2-graded complex over Q with known Betti numbers: pairs x -> y
    of opposite parity plus unpaired generators, conjugated by random
    parity-preserving elementary operations.  Labels are strings and
    tuples.  Returns (generators, differential, betti)."""
    pairs = draw(st.lists(st.integers(0, 1), max_size=3))
    free = draw(st.lists(st.integers(0, 1), max_size=3))
    gens = []
    for k, p in enumerate(pairs):
        gens += [Generator(("x", k), p), Generator("y%d" % k, 1 - p)]
    gens += [Generator(("h", k, "u"), p) for k, p in enumerate(free)]
    order = draw(st.permutations(range(len(gens))))
    gens = [gens[i] for i in order]
    pos = {g.label: i for i, g in enumerate(gens)}
    m = len(gens)
    d = [[F(0)] * m for _ in range(m)]
    for k in range(len(pairs)):
        d[pos["y%d" % k]][pos[("x", k)]] = F(1)
    for _ in range(draw(st.integers(0, 6)) if m else 0):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(entries)
        if i != j and gens[i].parity == gens[j].parity:
            # d <- E d E^-1 with E = 1 + c e_ij: row i += c row j and
            # column j -= c column i
            d[i] = [a + c * b for a, b in zip(d[i], d[j])]
            for row in d:
                row[j] -= c * row[i]
    diff = {(gens[i].label, gens[j].label): d[i][j]
            for i in range(m) for j in range(m)
            if d[i][j] or draw(st.booleans())}
    betti = (free.count(0), free.count(1))
    return gens, diff, betti


@SETTINGS
@given(square_zero_complexes())
def test_homology_ranks_match_sympy(cx):
    gens, diff, betti = cx
    q = QComplex(gens, diff)
    assert q.verify().ok
    assert q.homology_ranks() == betti
    labels_by = [[g.label for g in gens if g.parity == p] for p in (0, 1)]
    ranks = [to_sympy([[diff.get((t, s), F(0)) for s in labels_by[p]]
                       for t in labels_by[1 - p]]).rank() if labels_by[1 - p]
             else 0 for p in (0, 1)]
    assert q.homology_ranks() == (len(labels_by[0]) - sum(ranks),
                                  len(labels_by[1]) - sum(ranks))


@SETTINGS
@given(square_zero_complexes(), st.data())
def test_homology_space_dims_and_coords_round_trip(cx, data):
    gens, diff, betti = cx
    q = QComplex(gens, diff)
    for p in (0, 1):
        mine, space = q.homology_space(p)
        assert mine == [g.label for g in gens if g.parity == p]
        assert space.dim == betti[p]
        idx = {l: i for i, l in enumerate(mine)}
        # a combination of the representatives plus a boundary d(b)
        coeffs = [data.draw(entries) for _ in range(space.dim)]
        v = {}
        for c, rep in zip(coeffs, space.reps):
            for i, x in rep.items():
                v[i] = v.get(i, F(0)) + c * x
        for g in gens:
            if g.parity != p:
                b = data.draw(entries)
                for t in mine:
                    x = q.differential.get((t, g.label), F(0)) * b
                    v[idx[t]] = v.get(idx[t], F(0)) + x
        assert space.coords(v) == {k: c for k, c in enumerate(coeffs) if c}


@SETTINGS
@given(square_zero_complexes())
def test_views_of_one_factor_match_the_per_parity_oracle(cx):
    gens, diff, _ = cx
    q = QComplex(gens, diff)
    assert q.homology_ranks() == per_parity_ranks(q)
    for p in (0, 1):
        mine, space = q.homology_space(p)
        want_mine, want = per_parity_space(q, p)
        assert mine == want_mine
        assert space.dim == want.dim
        assert space.reps == want.reps


def test_qcomplex_keeps_given_values_and_divides_exactly():
    half = F(1, 2)
    q = QComplex([Generator("a", 0), Generator("b", 1), Generator("c", 1)],
                 {("b", "a"): 2, ("c", "a"): half, ("b", "b"): 0})
    assert q.differential == {("b", "a"): 2, ("c", "a"): half}
    assert type(q.differential[("b", "a")]) is int
    assert q.differential[("c", "a")] is half
    # a non-unit pivot divides into an exact Fraction, never a float
    rows = Elimination([{0: 2, 1: 1}], 2).rows
    assert rows == [{0: 1, 1: F(1, 2)}]
    assert [type(v) for v in rows[0].values()] == [int, F]
    x = Elimination([{0: 2}], 1).solve({0: 1})
    assert x == {0: F(1, 2)} and type(x[0]) is F
    # setting T = 0 keeps each scalar's stored constant term
    m = NovikovScalar.monomial
    d = {("b", "a"): m(3, 0) + m(1, 1), ("c", "a"): m(half, 0)}
    t0 = ChainComplex(q.generators, d).reduce_t0().differential
    assert t0 == {("b", "a"): 3, ("c", "a"): half}
    assert [type(v) for v in t0.values()] == [int, F]


def test_is_exact_direct_cases():
    # rank(in) + rank(out) = dim, but out kills nothing of im(in)
    assert not is_exact([{0: F(1)}], [{0: F(1)}, {}], 2)
    # the composite vanishes, but im(in) is a line in the plane ker(out)
    assert not is_exact([{0: F(1)}], [{}, {}], 2)
    assert is_exact([{0: F(1), 1: F(0)}], [{0: F(0)}, {0: F(3)}], 2)
    # dimension 0: every pair is exact
    assert is_exact([], [], 0)
    assert is_exact([{}, {}], [], 0)
    # no incoming columns: exact iff out is injective
    assert is_exact([], [{0: F(1)}, {1: F(2)}], 2)
    assert not is_exact([], [{0: F(1)}, {0: F(2)}], 2)
    # out maps onto zero: exact iff in is onto
    assert is_exact([{0: F(1)}, {1: F(-1)}], [{}, {}], 2)
    assert not is_exact([{0: F(1)}, {0: F(2)}], [{}, {}], 2)
    with pytest.raises(ValueError, match="outgoing has 1 columns, not 2"):
        is_exact([], [{}], 2)


@st.composite
def map_pairs(draw):
    """(dim, A, B): A a dense dim x a matrix, B a dense b x dim matrix.

    A third of the pairs are exact (the rows of B are a basis of the left
    null space of A), a third have B A = 0 with one row of such a B or
    one column of A dropped, and the rest are random.
    """
    dim = draw(st.integers(0, 4))
    a = draw(st.integers(0, 4))
    A = [[draw(entries) for _ in range(a)] for _ in range(dim)]
    mode = draw(st.sampled_from(["exact", "dropped", "random"]))
    if mode == "random":
        B = [[draw(entries) for _ in range(dim)]
             for _ in range(draw(st.integers(0, 4)))]
        return dim, A, B
    left = Elimination([{i: A[i][j] for i in range(dim)} for j in range(a)],
                       dim).nullspace()
    B = [[v.get(i, F(0)) for i in range(dim)] for v in left]
    if mode == "dropped":
        if B and draw(st.booleans()):
            del B[draw(st.integers(0, len(B) - 1))]
        elif a:
            k = draw(st.integers(0, a - 1))
            A = [row[:k] + row[k + 1:] for row in A]
    return dim, A, B


@SETTINGS
@given(map_pairs())
def test_is_exact_matches_a_dense_reference(pair):
    dim, A, B = pair
    a = len(A[0]) if A else 0
    product = [[sum((B[i][k] * A[k][j] for k in range(dim)), F(0))
                for j in range(a)] for i in range(len(B))]
    expected = (all(x == 0 for row in product for x in row)
                and rank(A) + rank(B) == dim)
    incoming = [sparse([A[i][j] for i in range(dim)]) for j in range(a)]
    outgoing = [sparse([B[i][j] for i in range(len(B))])
                for j in range(dim)]
    assert is_exact(incoming, outgoing, dim) == expected


@SETTINGS
@given(matrices(), map_pairs())
def test_elimination_and_is_exact_leave_their_arguments_unchanged(mat,
                                                                 pair):
    """The reduction writes into its rows, so it works on copies: the
    caller's rows, here without zeros, are read again afterwards, as
    ``mayer_vietoris`` reads one list of columns in two ``is_exact``
    calls."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
    before = copy.deepcopy(rows)
    elim = Elimination(rows, len(mat[0]) if mat else 0)
    elim.nullspace()
    elim.solve({i: 1 for i in range(len(mat))})
    assert rows == before
    dim, A, B = pair
    incoming = [{i: A[i][j] for i in range(dim) if A[i][j]}
                for j in range(len(A[0]) if A else 0)]
    outgoing = [{i: B[i][j] for i in range(len(B)) if B[i][j]}
                for j in range(dim)]
    before = copy.deepcopy((incoming, outgoing))
    is_exact(incoming, outgoing, dim)
    assert (incoming, outgoing) == before


# -- the integer kernel against the Fraction-only path -----------------------

int_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5):
    """Small matrices of ``int`` entries, rank-deficient now and then; a
    third of them hold some ``Fraction`` entries as well."""
    pool = (int_entries if draw(st.integers(0, 2))
            else st.one_of(int_entries, entries))
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    mat = [[draw(pool) for _ in range(n)] for _ in range(m)]
    for i in range(2, m):
        if draw(st.booleans()):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            mat[i] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
    return mat


def int_combination(cols, coeffs, n):
    """sum_k coeffs[k] * cols[k] in Q^n, with ``int`` arithmetic on ints."""
    return [sum((c * col[i] for c, col in zip(coeffs, cols)), 0)
            for i in range(n)]


def fractions(vec):
    """The sparse vector ``vec`` with every value made a ``Fraction``."""
    return {i: F(x) for i, x in vec.items()}


def exact_values(*vectors):
    """Every value is an ``int`` or a ``Fraction``: no float, no bool."""
    return all(type(x) in (int, F) for vec in vectors for x in vec.values())


@SETTINGS
@given(int_matrices(), st.data())
def test_int_elimination_matches_the_fraction_oracle(mat, data):
    """Factored as given, and with every entry a Fraction (the oracle),
    a matrix has the same pivots, logged operations, RREF, solutions and
    nullspace; every value the integer path returns is exact."""
    n = len(mat[0]) if mat else 0
    rows = [sparse(row) for row in mat]
    got = Elimination(rows, n)
    want = Elimination([fractions(row) for row in rows], n)
    assert got.pivots == want.pivots
    x = [data.draw(int_entries) for _ in range(n)]
    consistent = sparse(int_combination(list(zip(*mat)), x, len(mat)))
    arbitrary = sparse([data.draw(int_entries) for _ in mat])
    for rhs in (consistent, arbitrary):
        sol = got.solve(rhs)
        assert sol == want.solve(fractions(rhs))
        assert sol is None or exact_values(sol)
    assert got.solve(consistent) is not None
    assert got.rows == want.rows
    assert got.nullspace() == want.nullspace()
    assert got._ops == want._ops
    assert exact_values(*got.rows, *got.nullspace())
    assert all(type(f) in (int, F) for _, f, _ in got._ops)


@SETTINGS
@given(st.integers(0, 5), st.data())
def test_int_quotient_space_matches_the_fraction_oracle(n, data):
    def cols(k):
        return [[data.draw(int_entries) for _ in range(n)] for _ in range(k)]

    w_cols = cols(data.draw(st.integers(0, 3)))
    v_cols = w_cols + cols(data.draw(st.integers(0, 3)))
    got = QuotientSpace(n, [sparse(c) for c in v_cols],
                        [sparse(c) for c in w_cols])
    want = QuotientSpace(n, [fractions(sparse(c)) for c in v_cols],
                         [fractions(sparse(c)) for c in w_cols])
    assert (got.dim, got.reps) == (want.dim, want.reps)
    inside = int_combination(
        v_cols, [data.draw(int_entries) for _ in v_cols], n)
    anywhere = [data.draw(int_entries) for _ in range(n)]
    for v in (inside, anywhere):
        try:
            coords = got.coords(sparse(v))
        except ValueError:
            assert v is anywhere
            with pytest.raises(ValueError):
                want.coords(fractions(sparse(v)))
            continue
        assert coords == want.coords(fractions(sparse(v)))
        assert exact_values(coords)


@SETTINGS
@given(map_pairs())
def test_int_is_exact_matches_the_fraction_oracle(pair):
    """Each column of A and each row of B is scaled to ``int`` entries,
    which keeps im A and ker B; is_exact then agrees on the ints, on the
    same values as Fractions, and on the pair as drawn."""
    dim, A, B = pair
    a = len(A[0]) if A else 0

    def scaled(vec):
        m = lcm(*[x.denominator for x in vec])
        return [int(x * m) for x in vec]

    cols_a = [scaled([A[i][j] for i in range(dim)]) for j in range(a)]
    rows_b = [scaled(row) for row in B]
    incoming = [sparse(col) for col in cols_a]
    outgoing = [sparse([row[j] for row in rows_b]) for j in range(dim)]
    verdict = is_exact(incoming, outgoing, dim)
    assert verdict == is_exact([fractions(c) for c in incoming],
                               [fractions(c) for c in outgoing], dim)
    assert verdict == is_exact(
        [sparse([A[i][j] for i in range(dim)]) for j in range(a)],
        [sparse([B[i][j] for i in range(len(B))]) for j in range(dim)], dim)


def test_mayer_vietoris_factors_the_total_complex_once(monkeypatch):
    """minmax_square and mayer_vietoris factor the square's T = 0 total
    complex once between them, and lift the cycles through that factor."""
    built, lifted = [], []

    class Counting(Elimination):
        def __init__(self, rows, ncols):
            built.append(ncols)
            super().__init__(rows, ncols)

        def solve(self, rhs):
            lifted.append(self.shape[1])
            return super().solve(rhs)

    monkeypatch.setattr(chain, "Elimination", Counting)
    m = bundled_model("circle")
    h = dict(m.values)
    for hy in (h, {l: h[l] + F(1, 2) for l in m.labels}):
        built.clear()
        lifted.clear()
        rep = minmax_square(m, h, hy)
        assert rep.acyclic
        assert mayer_vietoris(rep.square, 3).ok
        total = len(rep.square.total_t0.generators)
        assert built.count(total) == 1
        assert lifted.count(total) >= 2


def test_minmax_and_mayer_vietoris_reduce_the_total_complex_once(
        monkeypatch):
    built = []
    monkeypatch.setattr(cubes, "total_complex",
                        lambda cube: built.append(cube) or total_complex(cube))
    m = bundled_model("circle")
    h = dict(m.values)
    rep = minmax_square(m, h, {l: h[l] + F(1, 2) for l in m.labels})
    assert rep.acyclic and mayer_vietoris(rep.square, 3).ok
    assert built == [rep.square]
    # the T = 0 total complex is a view of the square: equal to a fresh one
    tq = rep.square.total_t0
    fresh = total_complex(rep.square).reduce_t0()
    assert tq.generators == fresh.generators
    assert tq.differential == fresh.differential


def test_quotient_space_factors_at_most_once(monkeypatch):
    built = []
    init = Elimination.__init__

    def counting(self, rows, ncols):
        built.append(ncols)
        init(self, rows, ncols)

    monkeypatch.setattr(linalg.Elimination, "__init__", counting)
    w = [{0: F(1), 1: F(1)}]
    v = [{0: F(1)}, {1: F(1), 2: F(0)}]
    q = QuotientSpace(3, v, w)
    assert q.dim == 1
    for k in range(10):
        assert q.coords({0: F(k), 1: F(2)}) == ({0: F(k - 2)} if k != 2
                                                 else {})
    assert len(built) <= 1


def test_mayer_vietoris_acyclicity_verdict_matches_t0_homology():
    """The verdict of mayer_vietoris agrees with the T = 0 Betti numbers of
    a freshly built total complex."""
    rng = random.Random(12)
    squares = [id_cube(random_cube(rng, 1)) for _ in range(10)]
    squares += [random_cube(rng, 2, max_gens=2) for _ in range(20)]
    m = bundled_model("circle6")
    h = dict(m.values)
    squares += [minmax_square(m, h, {l: a * h[l] + b for l in m.labels}
                              ).square
                for a, b in ((1, 0), (2, F(1, 2)), (0, 1))]
    zero = ChainComplex([], {})
    squares.append(CubeDiagram(
        2, {"00": ChainComplex([Generator("a", 0)], {}), "10": zero,
            "01": zero, "11": zero}, {}))
    verdicts = []
    for square in squares:
        expected = total_complex(square).reduce_t0().is_acyclic()
        try:
            mayer_vietoris(square, 3)
            acyclic = True
        except rays.NotAcyclic as exc:
            assert "T=0 homology" in str(exc)
            acyclic = False
        assert acyclic == expected
        verdicts.append(acyclic)
    assert True in verdicts and False in verdicts
