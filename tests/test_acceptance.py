"""Acceptance criteria, one test per criterion, exact assertions throughout.

All arithmetic is exact; "precision" below always means a declared
quotient of the coefficient ring, never a numerical tolerance.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest
from helpers import random_complex, random_cube, random_ray_cubes
from property_suite import CUBE_PROPERTY_RUNNERS
from test_cubes import golden_two_cube, block

from novcube import morse
from novcube.chain import (ChainComplex, Generator, mat_equal, mat_neg,
                           reduce_map_t0)
from novcube.cubes import (cone, face_equation_terms, subtuple_count,
                           boundary_pairs, terminal_vertex, initial_vertex,
                           total_complex, verify_cube)
from novcube.morse import (bundled_model, empty_set, global_sections,
                           involutive_descent_instance, minmax_square,
                           continuation, scaling_hamiltonian)
from novcube.novikov import NovikovScalar
from novcube.rays import (Ray, TailSpec, TailVerdict,
                          acyclic_slices_implies_acyclic, colimit_t0,
                          compression, cone_ray, mayer_vietoris, telescope,
                          telescope_complex)
from novcube.simplicial import certify_assembly

WORK = 10


def report(line):
    print("PASS %s" % line)


# -- criterion 1: sign-rule goldens -----------------------------------------


def test_criterion_1_sign_rule_goldens():
    assert subtuple_count("11", "101") == 1
    pairs = boundary_pairs("--10-")
    assert ("0-10-", "-1101", "011") in pairs
    assert terminal_vertex("0-10-") == initial_vertex("-1101")
    # the instantiated 2-cube equation: c'f0 - f1c + hd + dh = 0
    terms2 = {(("+" if s > 0 else "-"), fpp, fp)
              for s, fpp, fp in face_equation_terms("--")}
    assert terms2 == {("+", "-1", "0-"), ("-", "1-", "-0"),
                      ("+", "--", "00"), ("+", "11", "--")}
    # the 8-term 3-cube equation:
    # -g100 + g010 - g001 + g011 - g101 + g110 - dH + Hd = 0
    terms3 = {(("+" if s > 0 else "-"), fpp, fp)
              for s, fpp, fp in face_equation_terms("---")}
    assert terms3 == {("-", "1--", "-00"), ("+", "-1-", "0-0"),
                      ("-", "--1", "00-"), ("+", "-11", "0--"),
                      ("-", "1-1", "-0-"), ("+", "11-", "--0"),
                      ("-", "111", "---"), ("+", "---", "000")}
    report("criterion 1: sign-rule goldens")


# -- criterion 2: cone goldens ----------------------------------------------


def test_criterion_2_cone_goldens():
    instances = [golden_two_cube()]
    rng = random.Random(201)
    instances += [random_cube(rng, 2) for _ in range(20)]
    for cube in instances:
        assert verify_cube(cube, WORK).ok
        # cone contracting the map direction: differentials [[-d,0],[-f0,d]]
        # and [[-d,0],[f1,d]], edge [[-c,0],[h,c']]
        cn = cone(cube, 2)
        d0, d1, edge = (cn.vertex("0").differential,
                        cn.vertex("1").differential, cn.face("-"))
        assert mat_equal(block(d0, "0", "0"),
                         mat_neg(cube.vertex("00").differential))
        assert mat_equal(block(d0, "1", "0"), mat_neg(cube.face("0-")))
        assert mat_equal(block(d1, "1", "0"), cube.face("1-"))
        assert mat_equal(block(edge, "0", "0"), mat_neg(cube.face("-0")))
        assert mat_equal(block(edge, "1", "0"), cube.face("--"))
        assert mat_equal(block(edge, "1", "1"), cube.face("-1"))
        assert block(edge, "0", "1") == {}
        # cone contracting the first direction: edge [[f0,0],[h,f1]]
        cn1 = cone(cube, 1)
        edge1 = cn1.face("-")
        assert mat_equal(block(edge1, "0", "0"), cube.face("0-"))
        assert mat_equal(block(edge1, "1", "0"), cube.face("--"))
        assert mat_equal(block(edge1, "1", "1"), cube.face("1-"))
        assert mat_equal(block(cn1.vertex("0").differential, "1", "0"),
                         cube.face("-0"))
        # fully iterated cone rows (d,0,0,0), (-c,-d,0,0), (f0,0,-d,0),
        # (h,c',f1,d)
        tot = total_complex(cube)

        def blk(wt, ws):
            return {(t[1], s[1]): v for (t, s), v in
                    tot.differential.items() if t[0] == wt and s[0] == ws}

        assert mat_equal(blk("00", "00"), cube.vertex("00").differential)
        assert mat_equal(blk("10", "10"),
                         mat_neg(cube.vertex("10").differential))
        assert mat_equal(blk("01", "01"),
                         mat_neg(cube.vertex("01").differential))
        assert mat_equal(blk("11", "11"), cube.vertex("11").differential)
        assert mat_equal(blk("10", "00"), mat_neg(cube.face("-0")))
        assert mat_equal(blk("01", "00"), cube.face("0-"))
        assert mat_equal(blk("11", "00"), cube.face("--"))
        assert mat_equal(blk("11", "01"), cube.face("-1"))
        assert mat_equal(blk("11", "10"), cube.face("1-"))
        for wt, ws in itertools.permutations(("00", "10", "01", "11"), 2):
            if (wt, ws) not in [("10", "00"), ("01", "00"), ("11", "00"),
                                ("11", "01"), ("11", "10")]:
                assert blk(wt, ws) == {}
    report("criterion 2: cone goldens (both single cones and the 4x4)")


# -- criterion 3: randomized property suite ---------------------------------


@pytest.mark.parametrize("name,runner", CUBE_PROPERTY_RUNNERS,
                         ids=[n for n, _ in CUBE_PROPERTY_RUNNERS])
def test_criterion_3_property_suite(name, runner):
    count = runner(200)
    assert count == 200
    report("criterion 3: %s (200 instances, zero failures)" % name)


# -- criterion 4: simplicial assembly certificate ---------------------------


def test_criterion_4_simplicial_certificates():
    for n in (2, 3):
        cert = certify_assembly(n)
        assert cert.ok
        for f in cert.faces:
            assert f.ok
    top3 = next(f for f in certify_assembly(3).faces if f.code == "---")
    assert top3.cancelled_pairs == 6  # transposition pairs observed exactly
    report("criterion 4: simplicial-to-cubical sign certificates (n=2,3)")


# -- criterion 5: telescopes and colimits ------------------------------------


def test_criterion_5_telescope_colimit():
    rng = random.Random(205)
    for i in range(100):
        r = Ray(1, random_ray_cubes(rng, 1, 4), TailSpec.finite())
        depth = rng.choice([2, 3])
        lim, _, qiso = colimit_t0(r, depth)
        assert qiso
        tel = telescope_complex(r, depth)
        assert tel.reduce_t0().homology_ranks() == lim.homology_ranks()
    report("criterion 5a: H(tel) = colim H on 100 random 1-rays")

    for i in range(100):
        r = Ray(1, random_ray_cubes(rng, 1, 6), TailSpec.finite())
        start = rng.choice([1, 2])
        idx = list(range(start, 7, rng.choice([2, 3])))
        if len(idx) < 2:
            idx = [1, 3, 5]
        res = compression(r, idx)
        assert res.quasi_iso
        for sq in res.squares:
            assert verify_cube(sq, WORK).ok
    report("criterion 5b: compression quasi-isomorphisms on 100 instances")

    for i in range(20):
        r2 = Ray(2, random_ray_cubes(rng, 2, 3), TailSpec.finite())
        for depth in (1, 2):
            lhs = total_complex(telescope(r2, depth)).relabel(
                lambda l: (l[1][0], l[1][1], l[1][2], (l[0], l[1][3])))
            rhs = telescope_complex(cone_ray(r2, 1), depth)
            assert lhs == rhs
    report("criterion 5c: tel and cone commute entrywise on random 2-rays")


# -- criterion 6: global sections and the empty set --------------------------


def test_criterion_6_model_limits():
    expected = {"s2": (2, 0), "t2": (2, 2), "interval": (1, 0),
                "circle": (1, 1)}
    for name, betti in expected.items():
        model = bundled_model(name)
        rep = global_sections(model, F(1), 8)
        assert rep.barcode.open_ranks() == betti
        assert rep.betti == betti
        # the stage-n continuation weight, checked against the exact formula
        for n in (1, 2, 3, 8):
            con = continuation(model, scaling_hamiltonian(model, n),
                               scaling_hamiltonian(model, n + 1))
            for l in model.labels:
                assert con[(l, l)] == NovikovScalar.monomial(
                    1, -model.values[l] / (n * (n + 1)))
        for r0 in (F(1, 2), F(1), F(5)):
            assert empty_set(model, r0).is_zero
    report("criterion 6: global sections match Betti numbers; empty set "
           "vanishes at precisions 1/2, 1, 5; stage weights exact")


# -- criterion 7: the min/max square -----------------------------------------


def admissible_grid(model, levels):
    """All weight functions with values in ``levels`` respecting arrows."""
    labels = model.labels
    out = []
    for combo in itertools.product(levels, repeat=len(labels)):
        h = dict(zip(labels, combo))
        if all(h[q] >= h[p] for (q, p) in model.boundary):
            out.append(h)
    return out


def test_criterion_7_minmax_decomposition():
    # exhaustive pairs on small models
    exhaustive_checked = 0
    for name in ("point", "interval"):
        model = bundled_model(name)
        grid = admissible_grid(model, [F(-1), F(-1, 2), F(0)])
        for hx, hy in itertools.product(grid, repeat=2):
            rep = minmax_square(model, hx, hy)
            assert rep.acyclic and rep.pieces_match
            assert set(rep.pieces.values()) <= {"four", "two+two"}
            for l in model.labels:
                assert rep.pieces[l] == ("four" if hx[l] == hy[l]
                                         else "two+two")
            exhaustive_checked += 1
    assert exhaustive_checked > 100
    # 500 random admissible pairs with Mayer-Vietoris downstream
    rng = random.Random(207)
    models = [bundled_model(n) for n in ("interval", "circle", "grid9",
                                         "circle6")]
    for i in range(500):
        model = models[i % len(models)]
        a1, a2 = F(rng.randint(0, 3)), F(rng.randint(0, 3))
        b1 = F(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        b2 = F(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        hx = {l: a1 * model.values[l] + b1 for l in model.labels}
        hy = {l: a2 * model.values[l] + b2 for l in model.labels}
        rep = minmax_square(model, hx, hy)
        assert rep.acyclic and rep.pieces_match and rep.strict_commutation
        mv = mayer_vietoris(rep.square, 3)
        assert mv.ok
    report("criterion 7: min/max decomposition exact on exhaustive small "
           "models and 500 random pairs; always acyclic; MV exact")


# -- criterion 8: descent battery --------------------------------------------


ARCS6 = [{"v0", "e0", "v1"}, {"v1", "e1", "v2"}, {"v2", "e2", "v0"}]
DESCENT_BATTERY = [
    ("circle6", 2, [ARCS6[0], {"v1", "e1", "v2", "e2", "v0"}]),
    ("circle6", 3, ARCS6),
    ("circle12", 2, [ARCS6[0], {"v1", "e1", "v2", "e2", "v0"}]),
    ("circle24", 2, [ARCS6[0], {"v1", "e1", "v2", "e2", "v0"}]),
    ("circle24", 3, ARCS6),
    ("grid9", 2, [{"v00", "ex0", "v10"}, {"v01", "ex1", "v11"}]),
    ("grid9", 3, [{"v00", "ex0", "v10"}, {"v01", "ex1", "v11"},
                  {"v00", "ey0", "v01"}]),
]


def test_criterion_8_descent_battery():
    t0 = time.time()
    for name, n, regions in DESCENT_BATTERY:
        model = bundled_model(name)
        rep = involutive_descent_instance(model, regions, F(1))
        assert rep.acyclic, (name, n)
        assert rep.verdict.d0_matches_summands
        if n == 3:
            # pairwise and triple verdicts simultaneously acyclic
            assert len(rep.pairwise) == 3
            assert all(ok for _, ok in rep.pairwise)
    elapsed = time.time() - t0
    assert elapsed < 300, "battery exceeded the five-minute budget"
    report("criterion 8: descent battery (n=2,3; largest 24-cell instance) "
           "in %.1fs" % elapsed)


def test_criterion_8_slices_read_in_place_match_the_cut_slices(
        monkeypatch):
    """Every descent ray of the battery, pairwise ones included: the slice
    Betti numbers, read in place from each stage's D, are those of the
    iterated cone of the cut slice ``ray.slice(k)``, and the tail verdict
    is that of comparing the cut slices depth + 1 and depth + 2 at T = 0."""
    built = []
    make = morse.region_ray

    def keeping(regions, closed_form=None):
        built.append(make(regions, closed_form))
        return built[-1]

    monkeypatch.setattr(morse, "region_ray", keeping)
    for name, n, regions in DESCENT_BATTERY:
        built.clear()
        rep = involutive_descent_instance(bundled_model(name), regions, F(1))
        descents = [r for r in built if r.n > 1]
        assert len(descents) == (4 if n == 3 else 1)
        for ray in descents:
            cut = [total_complex(ray.slice(k)) for k in range(1, 5)]
            cert = acyclic_slices_implies_acyclic(ray, F(1), 2)
            assert cert.betti == tuple(c.is_acyclic(F(1))[1]
                                       for c in cut[:3]), name
            stable = reduce_map_t0(cut[2].differential) == \
                reduce_map_t0(cut[3].differential)
            assert (cert.tail is TailVerdict.MODEL_STABLE) == stable
        assert rep.verdict.certificate == \
            acyclic_slices_implies_acyclic(descents[0], F(1), 2)


# -- criterion 9: the valuation-ring kernel ----------------------------------


def test_criterion_9_barcode_kernel():
    for alpha in (F(1, 3), F(1, 2), F(2)):
        c = ChainComplex(
            [Generator("x", 1), Generator("y", 0)],
            {("y", "x"): NovikovScalar.monomial(1, alpha)})
        code = c.barcode(3)
        assert code.torsion_bars == ((0, alpha),)
        assert code.free_bars == ()
    rng = random.Random(209)
    checked = 0
    for _ in range(250):
        c = random_complex(rng)
        code = c.barcode(WORK)
        if any(l >= code.precision for _, l in code.torsion_bars):
            continue
        fe, fo = code.free_ranks()
        te = sum(1 for p, _ in code.torsion_bars if p == 0)
        to = len(code.torsion_bars) - te
        assert (fe + te + to, fo + te + to) == \
            c.reduce_t0().homology_ranks()
        checked += 1
    assert checked >= 200
    report("criterion 9: torsion bars T^(1/3), T^(1/2), T^2 recovered; "
           "barcode consistent with T=0 homology on %d complexes" % checked)
