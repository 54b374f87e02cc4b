"""Cube calculus: sign goldens, cone goldens, structural operations."""

import random
from itertools import combinations

import pytest
from helpers import (make_triangle, random_cube, random_extension,
                     vertex_views)
from property_suite import CUBE_PROPERTY_RUNNERS

from novcube.chain import (ChainComplex, Generator, mat_equal, mat_identity,
                           mat_neg)
from novcube.cubes import (CubeDiagram, InvalidDirection, NotGluable,
                           boundary_pairs, cone, compose, cube_from_json,
                           cube_to_json, face_codes, from_positive_signs,
                           id_cube, initial_vertex, positive_sign_exponent,
                           subtuple_count, terminal_vertex, to_positive_signs,
                           total_complex, verify_cube)
from novcube.errors import NotConiform
from novcube.lemmas import (NotTriangle, cube_sign, decone,
                            face_equation_terms, is_triangle,
                            triangle_to_slit)
from novcube.novikov import NovikovScalar, parse_scalar

WORK = 10


# ---------------------------------------------------------------------------
# sign-rule goldens


def brute_subtuple_count(w, v):
    return sum(1 for idxs in combinations(range(len(v)), len(w))
               if all(v[i] == w[j] for j, i in enumerate(idxs)))


def test_subtuple_count_paper_example():
    assert subtuple_count("11", "101") == 1


def test_subtuple_count_derived_examples():
    # expected values computed by explicit subsequence enumeration
    assert brute_subtuple_count("1", "011") == 2
    assert subtuple_count("1", "011") == 2
    assert brute_subtuple_count("01", "011") == 2
    assert subtuple_count("01", "011") == 2


def test_subtuple_count_matches_bruteforce_randomized():
    rng = random.Random(11)
    for _ in range(200):
        v = "".join(rng.choice("01-") for _ in range(rng.randint(0, 7)))
        w = "".join(rng.choice("01-") for _ in range(rng.randint(0, 3)))
        assert subtuple_count(w, v) == brute_subtuple_count(w, v)


def test_boundary_pairs_worked_example():
    # mu(F') = 0-10-, mu(F'') = -1101 bound the face --10-, with word 011
    pairs = boundary_pairs("--10-")
    assert ("0-10-", "-1101", "011") in pairs
    assert terminal_vertex("0-10-") == initial_vertex("-1101") == "01101"


def test_boundary_pairs_dimension_counts():
    # one pair per word over the dashes: vertices give the d.d pair, an
    # edge its two degenerate pairs, a square two chains plus two degenerate
    assert boundary_pairs("01") == [("01", "01", "")]
    assert len(boundary_pairs("0-1")) == 2
    assert len(boundary_pairs("--")) == 4


def smallest_containing(a, b):
    return "".join(x if x == y and x != "-" else "-" for x, y in zip(a, b))


def brute_boundary_pairs(code):
    n = len(code)
    out = []
    for fp in face_codes(n):
        for fpp in face_codes(n):
            if (terminal_vertex(fp) == initial_vertex(fpp)
                    and smallest_containing(fp, fpp) == code):
                out.append((fp, fpp))
    return sorted(out)


def test_boundary_pairs_match_bruteforce():
    rng = random.Random(12)
    for _ in range(60):
        code = "".join(rng.choice("01-") for _ in range(rng.randint(0, 4)))
        mine = sorted((fp, fpp) for fp, fpp, _ in boundary_pairs(code))
        assert mine == brute_boundary_pairs(code)


def test_cube_sign_examples():
    # word 011: exponent #(1)+#(01) = 2+2, so +1
    assert cube_sign("0-10-", "--10-") == 1
    # word 1 on an edge: exponent 1, so -1
    assert cube_sign("-", "-") == -1
    # word 0: no ones, +1
    assert cube_sign("0", "-") == 1


def test_positive_sign_exponent_examples():
    assert positive_sign_exponent("0-10-") == 5  # 3 + 2
    assert positive_sign_exponent("11") == 0
    assert positive_sign_exponent("") == 0


def test_sign_conversion_parity_identity():
    # for every boundary pair of F, the parity of n(F') + n(F'') + sign
    # exponent depends on F alone: it equals #(0-, mu(F)) + dim F; this is
    # what makes one global sign conversion remove all equation signs
    rng = random.Random(27)
    for _ in range(200):
        code = "".join(rng.choice("01-") for _ in range(rng.randint(0, 5)))
        want = (subtuple_count("0-", code) + code.count("-")) % 2
        for fp, fpp, v in boundary_pairs(code):
            exponent = subtuple_count("1", v) + subtuple_count("01", v)
            got = (positive_sign_exponent(fp) + positive_sign_exponent(fpp)
                   + exponent) % 2
            assert got == want


def test_last_coordinate_sign_identities():
    # appending a trailing 0 flips the conversion sign, appending 1 keeps
    # it, and a trailing dash contributes #(0-, H-) + #(0, H-) = #(0-, H)
    # mod 2; edges parallel to a final new direction convert evenly
    rng = random.Random(28)
    for _ in range(200):
        code = "".join(rng.choice("01-") for _ in range(rng.randint(0, 5)))
        n0 = positive_sign_exponent(code + "0")
        n1 = positive_sign_exponent(code + "1")
        nd = positive_sign_exponent(code + "-")
        assert (n0 - positive_sign_exponent(code)) % 2 == 1
        assert (n1 - positive_sign_exponent(code)) % 2 == 0
        assert nd % 2 == subtuple_count("0-", code) % 2
    for n in range(0, 5):
        for bits in ["0" * n, "1" * n, "01" * (n // 2)]:
            vertex_edge = bits[:n] + "-"
            assert positive_sign_exponent(vertex_edge) % 2 == \
                subtuple_count("0-", bits[:n]) % 2


def test_identity_filler_equation_signs():
    # the two composites through an identity map cancel: the sign words
    # 00...01 and 11...10 have exponents of opposite parity
    for n in range(1, 6):
        a = subtuple_count("1", "0" * n + "1") + \
            subtuple_count("01", "0" * n + "1")
        b = subtuple_count("1", "1" * n + "0") + \
            subtuple_count("01", "1" * n + "0")
        assert (a + b) % 2 == 1


# ---------------------------------------------------------------------------
# the instantiated coherence equations, symbol for symbol


def equation_as_strings(code):
    return [("+" if s > 0 else "-", fpp, fp)
            for s, fpp, fp in face_equation_terms(code)]


def test_two_cube_equation_form():
    # c'f0 - f1c + hd + dh = 0, reading f[xy] for the face map at code xy
    terms = set(equation_as_strings("--"))
    assert terms == {
        ("+", "-1", "0-"),   # + c' f0
        ("-", "1-", "-0"),   # - f1 c
        ("+", "--", "00"),   # + h d
        ("+", "11", "--"),   # + d h
    }


def test_three_cube_equation_form():
    # -g100 + g010 - g001 + g011 - g101 + g110 - dH + Hd = 0, where gabc is
    # the composite through the vertex abc
    terms = set(equation_as_strings("---"))
    assert terms == {
        ("-", "1--", "-00"),  # -g100
        ("+", "-1-", "0-0"),  # +g010
        ("-", "--1", "00-"),  # -g001
        ("+", "-11", "0--"),  # +g011
        ("-", "1-1", "-0-"),  # -g101
        ("+", "11-", "--0"),  # +g110
        ("-", "111", "---"),  # -dH
        ("+", "---", "000"),  # +Hd
    }


def test_vertex_equation_is_d_squared():
    assert equation_as_strings("01") == [("+", "01", "01")]


def test_strictly_commuting_square_is_valid():
    # identical complexes, equal edge composites, zero homotopy
    base = ChainComplex([Generator("a", 0), Generator("b", 1)],
                        {("b", "a"): NovikovScalar.one()})
    ident = {("a", "a"): NovikovScalar.one(), ("b", "b"): NovikovScalar.one()}
    cube = CubeDiagram(
        2, {w: base for w in ("00", "01", "10", "11")},
        {"-0": ident, "-1": ident, "0-": ident, "1-": ident, "--": {}})
    assert verify_cube(cube, WORK).ok


# ---------------------------------------------------------------------------
# the golden 2-cube and its cones


def golden_two_cube():
    """All vertices (a even, b odd, da = b); edges are scalar multiples of
    the identity, and the filler's (b -> a') part balances the equation:
    c'f0 - f1c + (hd + dh) = (55 - 14 + nu) id with nu = -41."""
    def vert(tag):
        return ChainComplex(
            [Generator(("a", tag), 0), Generator(("b", tag), 1)],
            {(("b", tag), ("a", tag)): NovikovScalar.one()})

    def scaled_id(src, dst, k):
        return {(("a", dst), ("a", src)): NovikovScalar.rational(k),
                (("b", dst), ("b", src)): NovikovScalar.rational(k)}

    vertices = {"00": vert("00"), "10": vert("10"),
                "01": vert("01"), "11": vert("11")}
    faces = {
        "-0": scaled_id("00", "10", 2),    # c
        "-1": scaled_id("01", "11", 11),   # c'
        "0-": scaled_id("00", "01", 5),    # f0
        "1-": scaled_id("10", "11", 7),    # f1
        "--": {(("a", "11"), ("b", "00")): NovikovScalar.rational(-41),
               (("b", "11"), ("a", "00")): NovikovScalar.rational(3)},
    }
    return CubeDiagram(2, vertices, faces)


def block(entries, tbit, sbit):
    return {(t[1], s[1]): v for (t, s), v in entries.items()
            if t[0] == tbit and s[0] == sbit}


def test_golden_two_cube_is_valid():
    assert verify_cube(golden_two_cube(), WORK).ok


def test_cone_in_map_direction_matches_display():
    # cone contracting the vertical maps:
    # [C0[1](+)C0', [[-d,0],[-f0,d]]]  --[[-c,0],[h,c']]-->  ...
    cube = golden_two_cube()
    cn = cone(cube, 2)
    assert verify_cube(cn, WORK).ok
    d0 = cn.vertex("0").differential
    assert mat_equal(block(d0, "0", "0"),
                     mat_neg(cube.vertex("00").differential))
    assert mat_equal(block(d0, "1", "0"), mat_neg(cube.face("0-")))
    assert mat_equal(block(d0, "1", "1"), cube.vertex("01").differential)
    assert block(d0, "0", "1") == {}
    d1 = cn.vertex("1").differential
    assert mat_equal(block(d1, "0", "0"),
                     mat_neg(cube.vertex("10").differential))
    assert mat_equal(block(d1, "1", "0"), cube.face("1-"))
    edge = cn.face("-")
    assert mat_equal(block(edge, "0", "0"), mat_neg(cube.face("-0")))
    assert mat_equal(block(edge, "1", "0"), cube.face("--"))
    assert mat_equal(block(edge, "1", "1"), cube.face("-1"))
    assert block(edge, "0", "1") == {}


def test_cone_in_first_direction_matches_display():
    # cone contracting the c maps: edge map [[f0, 0], [h, f1]]
    cube = golden_two_cube()
    cn = cone(cube, 1)
    assert verify_cube(cn, WORK).ok
    d0 = cn.vertex("0").differential
    assert mat_equal(block(d0, "0", "0"),
                     mat_neg(cube.vertex("00").differential))
    assert mat_equal(block(d0, "1", "0"), cube.face("-0"))
    edge = cn.face("-")
    assert mat_equal(block(edge, "0", "0"), cube.face("0-"))
    assert mat_equal(block(edge, "1", "0"), cube.face("--"))
    assert mat_equal(block(edge, "1", "1"), cube.face("1-"))
    assert block(edge, "0", "1") == {}


def test_iterated_cone_matches_four_by_four_display():
    # rows (d,0,0,0), (-c,-d,0,0), (f0,0,-d,0), (h,c',f1,d) against the
    # ordering C0, C1[1], C0'[1], C1'
    cube = golden_two_cube()
    tot = total_complex(cube)
    assert tot.verify(WORK).ok

    def blk(wt, ws):
        return {(t[1], s[1]): v for (t, s), v in tot.differential.items()
                if t[0] == wt and s[0] == ws}

    assert mat_equal(blk("00", "00"), cube.vertex("00").differential)
    assert mat_equal(blk("10", "10"), mat_neg(cube.vertex("10").differential))
    assert mat_equal(blk("01", "01"), mat_neg(cube.vertex("01").differential))
    assert mat_equal(blk("11", "11"), cube.vertex("11").differential)
    assert mat_equal(blk("10", "00"), mat_neg(cube.face("-0")))   # -c
    assert mat_equal(blk("01", "00"), cube.face("0-"))            # f0
    assert mat_equal(blk("11", "00"), cube.face("--"))            # h
    assert mat_equal(blk("11", "01"), cube.face("-1"))            # c'
    assert mat_equal(blk("11", "10"), cube.face("1-"))            # f1
    for wt, ws in [("00", "10"), ("00", "01"), ("10", "01"), ("01", "10"),
                   ("00", "11"), ("10", "11"), ("01", "11")]:
        assert blk(wt, ws) == {}


# ---------------------------------------------------------------------------
# structural operations


def test_to_positive_roundtrip_and_flips():
    rng = random.Random(13)
    for _ in range(20):
        c = random_cube(rng, rng.randint(1, 3))
        plus = to_positive_signs(c)
        assert from_positive_signs(plus) == c
        for code, entries in c.faces.items():
            expected = mat_neg(entries) if positive_sign_exponent(code) % 2 \
                else entries
            assert mat_equal(plus.face(code), expected)


def test_to_positive_rejects_positive_input():
    c = random_cube(random.Random(14), 1)
    with pytest.raises(ValueError):
        to_positive_signs(to_positive_signs(c))


def test_cone_invalid_direction():
    c = random_cube(random.Random(15), 2)
    with pytest.raises(InvalidDirection):
        cone(c, 3)
    with pytest.raises(InvalidDirection):
        cone(c, 0)


def test_decone_requires_coniform():
    rng = random.Random(16)
    c = random_cube(rng, 1)
    # labels are not cone-shaped, and no splitting is given
    with pytest.raises(NotConiform):
        decone(c, 1)


def test_decone_with_explicit_splitting():
    rng = random.Random(17)
    c = random_cube(rng, 2)
    cn = cone(c, 1)
    splittings = {w: ({l for l in cn.vertex(w).labels if l[0] == "0"},
                      {l for l in cn.vertex(w).labels if l[0] == "1"})
                  for w in ("0", "1")}
    back = decone(cn, 1, splittings)
    assert verify_cube(back, WORK).ok
    # same cube up to the label wrappers kept by the explicit splitting
    relabeled = back.relabel_vertices(lambda w, l: l[1])
    assert relabeled == c


def test_decone_preserves_validity_both_ways():
    rng = random.Random(18)
    for _ in range(20):
        n = rng.randint(1, 3)
        c = random_cube(rng, n)
        i = rng.randint(1, n)
        cn = cone(c, i)
        assert verify_cube(cn, WORK).ok
        assert verify_cube(decone(cn, i), WORK).ok


def test_compose_two_squares_golden():
    # two glued squares compose with G = g1 c0 + d1 g0 on the filler
    rng = random.Random(19)
    m1 = random_cube(rng, 2)
    m2 = random_extension(rng, m1.subcube(2, "1"))
    comp = compose(m1, m2)
    assert verify_cube(comp, WORK).ok
    from novcube.chain import mat_add, mat_compose
    expected = mat_add(mat_compose(m2.face("--"), m1.face("0-")),
                       mat_compose(m2.face("1-"), m1.face("--")))
    assert mat_equal(comp.face("--"), expected)
    assert mat_equal(comp.face("0-"),
                     mat_compose(m2.face("0-"), m1.face("0-")))


def test_compose_with_id_is_identity():
    rng = random.Random(20)
    for n in (1, 2, 3):
        m = random_cube(rng, n)
        right = id_cube(m.subcube(n, "1"))
        left = id_cube(m.subcube(n, "0"))
        assert compose(m, right) == m
        assert compose(left, m) == m


def test_compose_rejects_non_gluable():
    rng = random.Random(21)
    m1 = random_cube(rng, 2)
    m2 = random_cube(rng, 2)
    with pytest.raises(NotGluable):
        compose(m1, m2)


def test_iterated_cone_of_composition_is_composite_of_cones():
    rng = random.Random(22)
    for _ in range(10):
        n = rng.randint(1, 3)
        m1 = random_cube(rng, n)
        m2 = random_extension(rng, m1.subcube(n, "1"))
        comp = compose(m1, m2)
        # both sides as maps of total complexes: the (n-1)-iterated cone of
        # the composite is the plain matrix product of the iterated cones
        c1 = cone_all_but_last(m1)
        c2 = cone_all_but_last(m2)
        cc = cone_all_but_last(comp)
        from novcube.chain import mat_compose
        assert mat_equal(cc.face("-"), mat_compose(c2.face("-"), c1.face("-")))


def cone_all_but_last(cube):
    c = cube
    while c.n > 1:
        c = cone(c, 1)
    return c


def test_triangle_roundtrip_and_errors():
    rng = random.Random(23)
    f = random_cube(rng, 2)
    fp = random_extension(rng, f.subcube(2, "1"))
    tri = make_triangle(f, fp)
    assert is_triangle(tri, WORK)
    slit = triangle_to_slit(tri, WORK)
    assert verify_cube(slit, WORK).ok
    with pytest.raises(NotTriangle):
        triangle_to_slit(random_cube(rng, 3), WORK)


def test_four_dimensional_triangle_to_slit():
    from novcube.lemmas import is_slit
    rng = random.Random(25)
    for _ in range(3):
        f = random_cube(rng, 3, max_gens=2, mix=4)
        fp = random_extension(rng, f.subcube(3, "1"))
        tri = make_triangle(f, fp)
        assert tri.n == 4 and is_triangle(tri, WORK)
        slit = triangle_to_slit(tri, WORK)
        assert verify_cube(slit, WORK).ok and is_slit(slit, WORK)
        # the produced slit's outer faces are identity maps
        from novcube.lemmas import is_id_cube
        assert is_id_cube(slit.subcube(4, "0"))
        assert is_id_cube(slit.subcube(4, "1"))
        for d in (1, 2):
            assert is_triangle(cone(tri, d), WORK)
            assert is_slit(cone(slit, d), WORK)


def test_decone_with_foreign_labels():
    # explicit splittings work for coniform data whose labels carry no
    # trace of a previous cone
    rng = random.Random(26)
    for _ in range(10):
        n = rng.randint(1, 3)
        c = random_cube(rng, n)
        i = rng.randint(1, n)
        cn = cone(c, i).relabel_vertices(lambda w, l: ("z", l[0], l[1]))
        splittings = {w: ({l for l in cn.vertex(w).labels if l[1] == "0"},
                          {l for l in cn.vertex(w).labels if l[1] == "1"})
                      for w in cn.vertices}
        back = decone(cn, i, splittings)
        assert verify_cube(back, WORK).ok


def test_id_cube_of_zero_cube():
    from novcube.rays import zero_cube
    z = zero_cube(1)
    ic = id_cube(z)
    assert verify_cube(ic, WORK).ok
    assert all(not c.generators for c in ic.vertices.values())


def test_partial_cube_checks_only_defined_equations():
    # a square whose edge composites differ and whose filler is undefined:
    # as a partial cube the top equation is skipped, as a total cube the
    # zero filler cannot balance it
    base = ChainComplex([Generator("a", 0), Generator("b", 1)],
                        {("b", "a"): NovikovScalar.one()})
    ident = {("a", "a"): NovikovScalar.one(), ("b", "b"): NovikovScalar.one()}
    twice = {k: v.scale(2) for k, v in ident.items()}
    edges = {"-0": dict(ident), "0-": dict(ident),
             "1-": dict(ident), "-1": dict(twice)}
    partial = CubeDiagram(2, {w: base for w in ("00", "01", "10", "11")},
                          dict(edges), partial=True)
    assert verify_cube(partial, WORK).ok
    total = CubeDiagram(2, {w: base for w in ("00", "01", "10", "11")},
                        dict(edges))
    assert not verify_cube(total, WORK).ok


def test_equality_builds_no_vertex_view():
    cube = random_cube(random.Random(0), 2)
    assert cube.D
    a, b = (CubeDiagram.from_matrix(2, cube.gens, dict(cube.D))
            for _ in range(2))
    other = CubeDiagram.from_matrix(2, cube.gens, {})
    with vertex_views() as views:
        assert a == b and a != other and b != other
    assert views == []


def test_a_precision_only_edge_entry_stays_and_is_checked():
    """An edge map known only modulo T keeps its entries through the
    face-map constructor, ``compose`` and ``decone``, as a complex keeps
    its own, so ``verify_cube`` cannot certify the edge below T^1; and an
    odd entry known only modulo T is still an entry of the wrong parity."""
    one, fuzzy = NovikovScalar.one(), parse_scalar("0 mod T^1")
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): one})
    edge = CubeDiagram(1, {"0": c, "1": c},
                       {"-": {("a", "a"): fuzzy, ("b", "b"): fuzzy}})
    ident = CubeDiagram(1, {"0": c, "1": c},
                        {"-": {("a", "a"): one, ("b", "b"): one}})
    residual = (("-", "equation residual at ('b', 'a'): undetermined "
                 "below T^1"),)
    for cube in (edge, compose(ident, edge), decone(cone(edge, 1), 1)):
        assert cube.face("-") == {("a", "a"): fuzzy, ("b", "b"): fuzzy}
        assert verify_cube(cube, WORK).violations == residual
    odd = CubeDiagram(1, {"0": c, "1": c}, {"-": {
        ("a", "a"): one, ("b", "b"): one, ("b", "a"): fuzzy}})
    assert verify_cube(odd, WORK).violations == (
        ("-", "entry ('b', 'a') has wrong parity"),)


def test_json_roundtrip():
    rng = random.Random(24)
    c = random_cube(rng, 2).relabel_vertices(lambda w, l: "%s:%s" % (w, l))
    assert cube_from_json(cube_to_json(c)) == c


# ---------------------------------------------------------------------------
# randomized property suite (full counts run again under acceptance)


@pytest.mark.parametrize("name,runner",
                         CUBE_PROPERTY_RUNNERS,
                         ids=[n for n, _ in CUBE_PROPERTY_RUNNERS])
def test_property(name, runner):
    assert runner(40) == 40


def test_a_vertex_face_must_equal_its_differential_exactly():
    """A given vertex face and the complex's differential are stored maps
    and compare exactly: an entry known only modulo T^1 that the
    differential lacks is refused, where an exact zero is dropped."""
    one = NovikovScalar.one()
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): one})
    vertices = {"0": c, "1": c}
    exact = {("b", "a"): one, ("a", "b"): NovikovScalar.zero()}
    assert CubeDiagram(1, vertices, {"0": exact}).face("0") == c.differential
    fuzzy = {("b", "a"): one, ("a", "b"): parse_scalar("0 mod T^1")}
    with pytest.raises(ValueError, match="^vertex face '0' disagrees with "
                       "the complex differential$"):
        CubeDiagram(1, vertices, {"0": fuzzy})


def _signed_and_positive():
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.one()})
    signed = CubeDiagram(1, {"0": c, "1": c}, {"-": mat_identity(c.labels)})
    return c, signed, to_positive_signs(signed)


@pytest.mark.parametrize("call,exc,message", [
    (lambda c, s, p: CubeDiagram(1, {"0": c, "1": c}, {"2": {}}),
     ValueError, "bad face code '2'"),
    (lambda c, s, p: CubeDiagram(1, {"0": c, "1": c}, {},
                                 partial=True).face("-"),
     KeyError, "-"),
    (lambda c, s, p: s.subcube(2, "0"),
     InvalidDirection, "direction 2 out of range"),
    (lambda c, s, p: from_positive_signs(s),
     ValueError, "cube not in positive form"),
    (lambda c, s, p: decone(CubeDiagram(0, {"": c}, {}), 1,
                            {"": ({"b"}, {"a"})}),
     NotConiform, "face '' has an upper-triangular entry ('b', 'a')"),
], ids=["face-code", "undefined-face", "subcube-range", "from-positive",
        "decone-upper"])
def test_cube_refusals_name_their_cause(call, exc, message):
    with pytest.raises(exc) as err:
        call(*_signed_and_positive())
    assert err.value.args == (message,)


@pytest.mark.parametrize("call", [
    lambda cube: decone(cube, 1, {w: ({"a"}, {"b"}) for w in "01"}),
    id_cube,
], ids=["decone-positive", "id-cube-positive"])
def test_positive_twin_builds_what_the_signed_cube_builds(call):
    _, signed, positive = _signed_and_positive()
    assert call(positive) == call(signed)
