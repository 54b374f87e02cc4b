"""Complexes: verification, cones, T = 0 homology and barcodes."""

import random
from fractions import Fraction as F

import construction_oracle as oracle
import pytest
from helpers import (direct_sum, null_homotopic_map,
                     random_acyclic_t0_complex, random_complex)
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube.chain import (ChainComplex, Generator, QComplex, is_chain_map,
                           mat_add, mat_clean, mat_compose, complex_from_json,
                           complex_to_json, reduce_map_t0,
                           residual_violations, square_violations)
from novcube.cubes import NotChainMap, cone_of_map
from novcube.novikov import NovikovScalar, parse_scalar

WORK = F(10)


def cx(gens, entries):
    """Small builder: gens = [(label, parity)], entries = {(t, s): text}."""
    return ChainComplex([Generator(l, p) for l, p in gens],
                        {k: parse_scalar(v) for k, v in entries.items()})


def test_verify_valid_square_zero():
    c = cx([("x", 0), ("y", 1)], {("y", "x"): "1*T^0"})
    assert c.verify(WORK).ok


def test_verify_flags_negative_valuation():
    c = cx([("x", 0), ("y", 1)], {("y", "x"): "1*T^-1"})
    rep = c.verify(WORK)
    assert not rep.ok
    assert any(kind == "NegativeValuation" for kind, _ in rep.violations)


def test_verify_flags_parity_violation():
    c = cx([("x", 1)], {("x", "x"): "1*T^0"})
    rep = c.verify(WORK)
    assert not rep.ok
    assert any(kind == "parity" for kind, _ in rep.violations)


def test_verify_flags_d_squared():
    c = cx([("x", 0), ("y", 1), ("z", 0)],
           {("y", "x"): "1*T^0", ("z", "y"): "1*T^0"})
    rep = c.verify(WORK)
    assert any(kind == "d_squared" for kind, _ in rep.violations)


def test_cone_of_identity_is_acyclic():
    rng = random.Random(2)
    for _ in range(10):
        c = random_complex(rng)
        ident = {(l, l): NovikovScalar.one() for l in c.labels}
        cone = cone_of_map(c, c, ident)
        assert cone.verify(WORK).ok
        ok, _ = cone.is_acyclic(WORK)
        assert ok


def test_cone_of_zero_map_is_shift_plus_target():
    rng = random.Random(3)
    c = random_complex(rng, prefix="c")
    d = random_complex(rng, prefix="d")
    cone = cone_of_map(c, d, {})
    expected = direct_sum([oracle.shift(c).relabel(lambda l: ("0", l)),
                           d.relabel(lambda l: ("1", l))])
    assert cone == expected


def test_cone_rejects_non_chain_map():
    c = cx([("x", 0), ("y", 1)], {("y", "x"): "1*T^0"})
    d = cx([("u", 0)], {})
    with pytest.raises(NotChainMap):
        cone_of_map(c, d, {("u", "y"): parse_scalar("1*T^0")})
    d2 = cx([("u", 0), ("v", 1)], {("v", "u"): "1*T^0"})
    with pytest.raises(NotChainMap):
        cone_of_map(c, d2, {("u", "x"): parse_scalar("1*T^1")})


def test_cone_of_monomial_barcode():
    # cone of T^a on a rank-one free module: single torsion bar of length a
    for a in [F(1, 3), F(1, 2), F(2)]:
        src = cx([("x", 0)], {})
        dst = cx([("y", 0)], {})
        cone = cone_of_map(src, dst, {("y", "x"): NovikovScalar.monomial(1, a)})
        code = cone.barcode(WORK)
        assert code.free_bars == ()
        assert code.torsion_bars == ((0, a),)


def test_reduce_t0_examples():
    c = cx([("x", 0), ("y", 1), ("u", 0), ("v", 1)],
           {("y", "x"): "1*T^0 + 1*T^1", ("v", "u"): "1*T^{1/2}"})
    q = c.reduce_t0()
    assert q.differential == {("y", "x"): 1}
    assert q.verify().ok
    # all-positive valuations reduce to the zero differential
    c2 = cx([("x", 0), ("y", 1)], {("y", "x"): "3*T^{1/3} + -1*T^2"})
    assert c2.reduce_t0().differential == {}


def test_homology_t0_examples():
    q = QComplex([Generator("a", 0), Generator("b", 0), Generator("c", 1)], {})
    assert q.homology_ranks() == (2, 1)
    q2 = QComplex([Generator("x", 0), Generator("y", 1)], {("y", "x"): F(1)})
    assert q2.homology_ranks() == (0, 0)
    # the 4-generator piece:  dx1 = y1+y2, dy1 = x2, dy2 = -x2, dx2 = 0
    q3 = QComplex(
        [Generator("x1", 0), Generator("y1", 1), Generator("y2", 1),
         Generator("x2", 0)],
        {("y1", "x1"): F(1), ("y2", "x1"): F(1),
         ("x2", "y1"): F(1), ("x2", "y2"): F(-1)})
    assert q3.verify().ok
    assert q3.homology_ranks() == (0, 0)


def test_barcode_examples():
    c = cx([("x", 1), ("y", 0)], {("y", "x"): "1*T^{1/2}"})
    code = c.barcode(WORK)
    assert code.torsion_bars == ((0, F(1, 2)),)
    assert code.free_bars == ()
    # acyclic at T=0 gives the empty barcode (free f.g. criterion)
    rng = random.Random(4)
    for _ in range(20):
        c = random_acyclic_t0_complex(rng)
        assert c.barcode(WORK).is_zero
    # zero differential: all bars free
    c = cx([("x", 0), ("y", 1), ("z", 1)], {})
    code = c.barcode(WORK)
    assert code.free_bars == (0, 1, 1)
    assert code.torsion_bars == ()


def barcode_predicts_t0(code):
    """T=0 betti from a barcode: a torsion bar ring/T^a contributes one
    dimension in its own parity (the cokernel class) and one in the
    opposite parity (the T^a-kernel class)."""
    fe, fo = code.free_ranks()
    te = sum(1 for p, _ in code.torsion_bars if p == 0)
    to = len(code.torsion_bars) - te
    return (fe + te + to, fo + to + te)


def test_barcode_matches_t0_homology_on_random_instances():
    rng = random.Random(5)
    checked = 0
    for _ in range(120):
        c = random_complex(rng)
        code = c.barcode(WORK)
        if any(l >= code.precision for _, l in code.torsion_bars):
            continue
        assert barcode_predicts_t0(code) == c.reduce_t0().homology_ranks()
        checked += 1
    assert checked > 100


def test_is_acyclic_examples():
    q0 = cx([("a", 0), ("b", 0), ("c", 1)], {})
    assert q0.is_acyclic(WORK) == (False, (2, 1))
    q1 = cx([("x", 0), ("y", 1)], {("y", "x"): "1*T^0"})
    assert q1.is_acyclic(WORK)[0]
    q2 = cx([("x1", 0), ("y1", 1), ("y2", 1), ("x2", 0)],
            {("y1", "x1"): "1*T^0", ("y2", "x1"): "1*T^0",
             ("x2", "y1"): "1*T^0", ("x2", "y2"): "-1*T^0"})
    assert q2.is_acyclic(WORK)[0]


def test_barcode_flags_torsion_beyond_precision():
    # a torsion bar of length 20 is invisible modulo T^10: it is reported
    # as a free pair, flagged as only valid at the stated precision
    c = cx([("x", 1), ("y", 0)], {("y", "x"): "1*T^20"})
    code = c.barcode(WORK)
    assert code.free_bars == (0, 1)
    assert code.torsion_bars == ()
    assert code.free_at_precision


def test_barcode_ambiguous_pivot_raises():
    from novcube.novikov import NovikovScalar, PrecisionExhausted
    diff = {("y", "x"): NovikovScalar.monomial(1, 5),
            ("v", "u"): NovikovScalar((), mod=F(3))}
    c = ChainComplex([Generator("x", 1), Generator("y", 0),
                      Generator("u", 1), Generator("v", 0)], diff)
    with pytest.raises(PrecisionExhausted):
        c.barcode(WORK)


def test_barcode_residual_within_the_reduced_precision_is_kept():
    # d(x) = T y and d(y) = T^(1/2) z: d*d = T^(3/2) z vanishes at work 3/2.
    # Splitting off the pivot T^(1/2) leaves d(x) = T y behind, which is
    # zero only below T^(work - 1/2) = T^1: the bars hold to precision 1.
    c = cx([("x", 0), ("y", 1), ("z", 0)],
           {("y", "x"): "1*T^1", ("z", "y"): "1*T^{1/2}"})
    assert c.verify(F(3, 2)).ok
    code = c.barcode(F(3, 2))
    assert code.torsion_bars == ((0, F(1, 2)),)
    assert code.free_bars == (0,)
    assert code.precision == 1
    assert code.free_at_precision


def test_barcode_residual_of_a_non_complex_raises(monkeypatch):
    from novcube.chain import Report
    c = cx([("x", 0), ("y", 1), ("z", 0)],
           {("y", "x"): "1*T^0", ("z", "y"): "1*T^0"})
    assert not c.verify(WORK).ok
    monkeypatch.setattr(ChainComplex, "verify",
                        lambda self, work: Report(True, ()))
    with pytest.raises(ValueError,
                       match=r"^input is not a chain complex: residual "):
        c.barcode(WORK)


def test_barcode_invariant_under_unit_basis_change():
    from helpers import mix_basis
    rng = random.Random(6)
    for _ in range(60):
        c = random_complex(rng)
        code = c.barcode(WORK)
        diff = mix_basis(rng, list(c.generators), dict(c.differential),
                         rounds=6, exponents=[F(0)])
        c2 = ChainComplex(c.generators, diff)
        code2 = c2.barcode(WORK)
        assert code.free_bars == code2.free_bars
        assert code.torsion_bars == code2.torsion_bars


def test_cone_acyclic_iff_quasi_iso_at_t0():
    rng = random.Random(7)
    tested_qiso = tested_not = 0
    for _ in range(120):
        src = random_complex(rng, prefix="s")
        if rng.random() < 0.5:
            pad = random_acyclic_t0_complex(rng, prefix="p")
            tgt = direct_sum([src.relabel(lambda l: ("t", l)), pad])
            f = {((("t", l)), l): NovikovScalar.one() for l in src.labels}
        else:
            tgt = random_complex(rng, prefix="t")
            f = {}
        f = mat_clean(mat_add(f, null_homotopic_map(rng, src, tgt)))
        assert is_chain_map(f, src, tgt)
        cone = cone_of_map(src, tgt, f)
        ok, _ = cone.is_acyclic(WORK)
        # independent rank check of the induced map on T=0 homology
        qs, qt = src.reduce_t0(), tgt.reduce_t0()
        qf = reduce_map_t0(f)
        iso = True
        for parity in (0, 1):
            labels_s, hs = qs.homology_space(parity)
            labels_t, ht = qt.homology_space(parity)
            if hs.dim != ht.dim:
                iso = False
                continue
            cols = []
            for rep in hs.reps:  # sparse vectors, indexed like the labels
                image = {}
                idx = {l: i for i, l in enumerate(labels_t)}
                for (t, s), v in qf.items():
                    if qt.parity(t) == parity and s in labels_s:
                        image[idx[t]] = image.get(idx[t], F(0)) + \
                            v * rep.get(labels_s.index(s), F(0))
                cols.append(ht.coords(image))
            from novcube.linalg import rank
            mat = [[cols[j].get(i, F(0)) for j in range(len(cols))]
                   for i in range(ht.dim)]
            if rank(mat) != ht.dim:
                iso = False
        assert ok == iso
        tested_qiso += iso
        tested_not += not iso
    assert tested_qiso > 10 and tested_not > 10


def test_json_roundtrip():
    rng = random.Random(8)
    for _ in range(10):
        c = random_complex(rng)
        c_str = c.relabel(str)
        assert complex_from_json(complex_to_json(c_str)) == c_str


def test_residual_violations_compare_across_lattices():
    # entries on the lattices (1/2)Z, (1/3)Z and Z against a working
    # precision on (1/4)Z: the integer test must agree with the rationals
    work = F(3, 4)
    m = {("a", str(k)): v for k, v in enumerate([
        NovikovScalar.monomial(1, F(1, 2)),
        NovikovScalar.monomial(1, F(2, 3)),
        NovikovScalar.monomial(1, F(3, 4)),
        NovikovScalar.monomial(1, 1),
        NovikovScalar((), F(1, 3)),
        NovikovScalar((), F(5, 6)),
        NovikovScalar([(F(5, 6), 2)], F(1)).on(12)])}
    got = {s for _, s, _ in residual_violations(m, work)}
    assert got == {s for (_, s), v in m.items() if v.val_floor() < work}
    assert got == {"0", "1", "4"}


def square_case(rng):
    """A label-keyed matrix for the d*d check: a random complex (whose
    products cancel), some entries then cut to a precision above their
    leading term, moved to a finer lattice or made an exact zero, and
    stray entries added, known only modulo T^R or on a lattice of their
    own; the entries come in a random order."""
    c = random_complex(rng, max_gens=6, unit_arrows=rng.random() < 0.3,
                       mix=rng.randint(0, 6))
    m = dict(c.differential)
    labels = list(c.labels) or ["g"]
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        key = rng.choice(sorted(m, key=repr)) if m else None
        if key is not None and roll < 0.3 and m[key].floor is not None:
            v = m[key]
            m[key] = v.truncate(v.val_floor()
                                + F(rng.randint(1, 4), rng.choice([1, 2, 3])))
        elif key is not None and roll < 0.45:
            m[key] = m[key].on(m[key].den * rng.choice([2, 3, 5]))
        elif key is not None and roll < 0.5:
            m[key] = NovikovScalar.zero()
        elif roll < 0.75:
            m[(rng.choice(labels), rng.choice(labels))] = NovikovScalar(
                (), F(rng.randint(1, 6), rng.choice([1, 2, 3])))
        else:
            m[(rng.choice(labels), rng.choice(labels))] = NovikovScalar(
                [(F(rng.randint(0, 6), rng.choice([1, 2, 3, 4])),
                  rng.choice([1, -1, F(1, 2)]))])
    return dict(rng.sample(list(m.items()), len(m)))


def odd_key(t, s):
    return len(repr((t, s))) % 2 == 1


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([F(1, 2), F(1), F(3, 2), F(3), F(10)]))
def test_square_violations_are_the_composed_residuals(rng, work):
    m = square_case(rng)
    square = mat_compose(m, m)
    assert square_violations(m, work) == residual_violations(square, work)
    negated = {k: -v if odd_key(*k) else v for k, v in square.items()}
    assert square_violations(m, work, odd_key) == \
        residual_violations(negated, work)


def test_square_cases_reach_every_verdict():
    """The cases give clean squares, determined residuals and residuals
    known only to a precision."""
    rng = random.Random(12)
    seen = set()
    for _ in range(300):
        for _, _, detail in square_violations(square_case(rng), F(3)) or \
                [(None, None, "clean")]:
            seen.add(detail.split()[0] if "undetermined" in detail
                     or detail == "clean" else "residual")
    assert seen == {"clean", "residual", "undetermined"}, seen


@pytest.mark.parametrize("build,message", [
    (lambda: Generator("a", 2), "parity must be 0 or 1"),
    (lambda: cx([("a", 0), ("a", 1)], {}), "generator labels must be unique"),
], ids=["parity", "duplicate-labels"])
def test_malformed_complexes_are_refused(build, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        build()
