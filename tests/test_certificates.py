"""d*d certificates: each one holds under the full check it stands for.

A complex or cube carries ``verified_mod``, the precision at which its
d*d = 0 is known (INFINITY: exactly).  The full checks ``verify`` and
``verify_cube`` are the oracle: on every object a constructor certifies,
they pass at the certified precision, and for INFINITY at a precision
above the exponent of every product of two entries.  Objects without a
certificate are still checked in full.
"""

import itertools
import json
import os
from fractions import Fraction as F

import pytest
from construction_oracle import truncate_ray
from helpers import random_ray_cubes
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube import chain, cli, cubes, rays
from novcube.chain import ChainComplex, Generator, mat_compose
from novcube.cubes import (CubeDiagram, cone, from_positive_signs,
                           to_positive_signs, total_complex, verify_cube)
from novcube.morse import (MorseModel, bundled_model, cf, empty_set,
                           global_sections, hamiltonian_cube,
                           involutive_descent_instance, relative_sh)
from novcube.novikov import INFINITY, NovikovScalar, parse_scalar
from novcube.rays import (Ray, TailSpec, completed_homology, cone_ray,
                          map_to_zero, telescope, telescope_complex,
                          vertex_ray, zero_cube)

DATA = os.path.join(os.path.dirname(__file__), "data", "cli")
VALUES = [F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3, 4), F(2)]


def entries(x):
    return x.D if isinstance(x, CubeDiagram) else x.differential


def full_check(x, work):
    if isinstance(x, CubeDiagram):
        return verify_cube(x, work)
    return x.verify(work)


def assert_certificate_holds(x):
    """The full check passes at the certified precision; INFINITY needs
    exact entries and a pass above every exponent of d*d."""
    cert = x.verified_mod
    assert cert is not None
    if cert == INFINITY:
        assert all(v.mod is None for v in entries(x).values())
        top = max((v.terms[-1][0] for v in entries(x).values() if v),
                  default=F(0))
        work = 2 * top + 1
    else:
        work = cert
    report = full_check(x, work)
    assert report.ok, report.violations


def conjugate(boundary, a, b, c):
    """The boundary in the basis where x_a becomes x_a + c x_b."""
    e = {(l, l): 1 for pair in boundary for l in pair}
    e.update({(a, a): 1, (b, b): 1})
    ev, einv = dict(e), dict(e)
    ev[(a, b)], einv[(a, b)] = c, -c
    out = mat_compose(ev, mat_compose(boundary, einv))
    return {k: v for k, v in out.items() if v}


def random_model(rnd) -> MorseModel:
    """Paired cells with integer arrows, mixed by integer basis changes."""
    labels = ["c%d" % i for i in range(rnd.randint(1, 7))]
    parity = {l: rnd.randint(0, 1) for l in labels}
    even = [l for l in labels if parity[l] == 0]
    odd = [l for l in labels if parity[l] == 1]
    boundary = {}
    for p, q in zip(even, odd):
        if rnd.random() < 0.7:
            src, tgt = (p, q) if rnd.random() < 0.5 else (q, p)
            boundary[(tgt, src)] = rnd.choice([1, -1, 2])
    for _ in range(rnd.randint(0, 4)):
        a, b = rnd.sample(labels, 2) if len(labels) > 1 else (None, None)
        if a is not None and parity[a] == parity[b]:
            boundary = conjugate(boundary, a, b, rnd.choice([1, -1, 2]))
    return MorseModel([Generator(l, parity[l]) for l in labels], boundary,
                      {l: rnd.choice(VALUES) for l in labels})


def admissible(model, raw):
    """The least weight above ``raw`` that rises along every arrow."""
    h = dict(raw)
    moved = True
    while moved:
        moved = False
        for q, p in model.boundary:
            if h[q] < h[p]:
                h[q], moved = h[p], True
    return h


def random_weight(rnd, model, low=-2):
    return admissible(model, {l: F(rnd.randint(low, 2), rnd.choice([1, 2, 3]))
                              for l in model.labels})


def monotone_square(rnd, model):
    """Weights on the vertices of a square, admissible and monotone."""
    h = random_weight(rnd, model)
    d1, d2 = (random_weight(rnd, model, low=0) for _ in range(2))
    return {w: {l: h[l] + int(w[0]) * d1[l] + int(w[1]) * d2[l]
                for l in model.labels} for w in ("00", "10", "01", "11")}


def family_ray(model, square):
    """A glued 2-ray: stage k steps the second coordinate k times."""
    step = {l: square["01"][l] - square["00"][l] for l in model.labels}

    def weights(w, k):
        return {l: square[w + "0"][l] + k * step[l] for l in model.labels}

    def stage(k):
        return hamiltonian_cube(model, {a + b: weights(a, k - 1 + int(b))
                                        for a in "01" for b in "01"})

    return Ray(2, [], TailSpec.model(stage), check=False)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_every_certificate_holds_under_the_full_check(rnd, depth):
    model = random_model(rnd)
    square = monotone_square(rnd, model)
    q = hamiltonian_cube(model, square)
    c = cf(model, square["00"])
    tot = total_complex(q)
    made = [c, q, tot, tot.relabel(lambda l: ("r", l)),
            q.subcube(1, "0"), q.subcube(2, "1"),
            q.subcube(1, "1").vertex("1"),
            q.relabel_vertices(lambda w, l: (w, l)), cone(q, 1), cone(q, 2),
            to_positive_signs(q), from_positive_signs(to_positive_signs(q)),
            total_complex(to_positive_signs(q)),
            map_to_zero(q.subcube(2, "1")), zero_cube(2)]
    ray = family_ray(model, square)
    tel = telescope(ray, depth)
    made += [tel, telescope_complex(ray, depth),
             telescope(cone_ray(ray, 1), depth),
             telescope(vertex_ray(ray, "1"), depth),
             telescope_complex(truncate_ray(ray, depth), depth + 1)]
    # a stationary tail: the same complex, stepped by T
    up = {l: square["00"][l] + 1 for l in model.labels}
    still = Ray(1, [], TailSpec.stationary(
        hamiltonian_cube(model, {"0": square["00"], "1": up})))
    made += [telescope(still, depth), telescope_complex(
        truncate_ray(still, depth), depth + 1)]
    for x in made:
        assert x.verified_mod == INFINITY
        assert_certificate_holds(x)
    assert completed_homology(still, 1).is_zero


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 2),
       st.sampled_from([F(1), F(3, 2), F(3)]))
def test_checked_ray_telescopes_carry_their_stages_certificate(rnd, n, work):
    """A ``check`` ray of random glued cubes: a telescope built to be
    reduced certifies its uncertified stages exactly; a stage verified at
    ``work`` bounds the telescope's certificate by ``work``."""
    stages = random_ray_cubes(rnd, n, rnd.randint(1, 3))
    ray = Ray(n, stages, TailSpec.finite())
    assert telescope(ray, len(stages) + 1).verified_mod is None
    assert telescope_complex(ray, len(stages) + 1).verified_mod == INFINITY
    tel = telescope(ray, len(stages) + 1)
    assert tel.verified_mod == INFINITY
    assert all(s.verified_mod == INFINITY for s in stages)
    assert_certificate_holds(tel)
    assert_certificate_holds(total_complex(tel))

    fresh = [c.relabel_vertices(lambda w, l: l) for c in stages]
    for c in fresh:
        c.verified_mod = None
    assert verify_cube(fresh[0], work)
    assert fresh[0].verified_mod == work
    fresh_ray = Ray(n, fresh, TailSpec.finite())
    assert telescope_complex(fresh_ray, len(fresh)).verified_mod == work
    tel = telescope(fresh_ray, len(fresh))
    assert tel.verified_mod == work
    assert_certificate_holds(tel)


def test_a_pass_records_its_precision_and_a_failure_nothing():
    a, b, c = (Generator(l, p) for l, p in (("a", 0), ("b", 1), ("c", 0)))
    # d(a) = b, d(b) = T^2 c: d*d = T^2, zero modulo T^1 only
    cx = ChainComplex([a, b, c], {("b", "a"): NovikovScalar.one(),
                                  ("c", "b"): NovikovScalar.monomial(1, 2)})
    assert cx.verified_mod is None
    assert not cx.verify(3) and cx.verified_mod is None
    assert cx.verify(1) and cx.verified_mod == 1
    assert cx.verify(F(1, 2)) and cx.verified_mod == 1
    # a certificate below the precision asked for is checked again
    with pytest.raises(ValueError, match="barcode needs a verified"):
        cx.barcode(3)
    with pytest.raises(ValueError, match="not a chain complex"):
        cx.is_acyclic(3)


def test_a_non_complex_without_certificate_is_refused():
    a, b, c = (Generator(l, p) for l, p in (("a", 0), ("b", 1), ("c", 0)))
    one = NovikovScalar.one()
    cx = ChainComplex([a, b, c], {("b", "a"): one, ("c", "b"): one})
    with pytest.raises(ValueError, match="barcode needs a verified"):
        chain._barcode(cx, F(2))
    with pytest.raises(ValueError, match="not a chain complex"):
        cx.is_acyclic(2)
    assert cx.verified_mod is None


def test_a_model_whose_boundary_does_not_square_to_zero_is_refused():
    cells = [Generator("a", 0), Generator("b", 1), Generator("c", 0)]
    with pytest.raises(ValueError, match="does not square to zero"):
        MorseModel(cells, {("b", "a"): 1, ("c", "b"): 1},
                   {"a": 0, "b": 0, "c": 0})


def test_stages_that_do_not_glue_give_an_uncertified_telescope():
    """d = 1 on the target of stage 1 but d = 2 on the source of stage 2:
    the copy map of slice 2 breaks the telescope's d*d."""
    gens = [Generator("a", 0), Generator("b", 1)]

    def cx(coeff):
        return ChainComplex(gens, {("b", "a"): NovikovScalar.rational(coeff)})

    ident = {(l, l): NovikovScalar.one() for l in ("a", "b")}
    first = CubeDiagram(1, {"0": cx(1), "1": cx(1)}, {"-": ident})
    second = CubeDiagram(1, {"0": cx(2), "1": cx(2)}, {"-": ident})
    for stage in (first, second):
        assert verify_cube(stage, 3)
    ray = Ray(1, [first, second], TailSpec.finite(), check=False)
    tel = telescope(ray, 2)
    assert tel.verified_mod is None
    report = verify_cube(tel, 3)
    assert not report and report.violations
    with pytest.raises(ValueError, match="barcode needs a verified"):
        telescope_complex(ray, 2).barcode(3)


def test_a_telescope_barcode_does_not_depend_on_an_earlier_check():
    """Slice d(a) = (1 mod T^1) b and tail map T id: the tail verifies at
    3/2, but each copy map meets the slice entry with itself, so the
    telescope's d*d is known modulo T^1 only, whatever was checked."""
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): parse_scalar("1 mod T^1")})
    t = NovikovScalar.monomial(1, 1)
    for tail_checked_first, work in itertools.product((False, True),
                                                      (F(3, 2), F(1))):
        tail = CubeDiagram(1, {"0": c, "1": c},
                           {"-": {("a", "a"): t, ("b", "b"): t}})
        if tail_checked_first:
            assert verify_cube(tail, F(3, 2)) and tail.verified_mod == F(3, 2)
        ray = Ray(1, [], TailSpec.stationary(tail))
        if work > 1:
            with pytest.raises(ValueError, match="barcode needs a verified"):
                telescope_complex(ray, 2).barcode(work)
        else:
            code = telescope_complex(ray, 2).barcode(work)
            assert code.is_zero and code.precision == 1


def test_a_stationary_tail_that_does_not_glue_onto_itself():
    """Slice 0 has no differential, slice 1 has d(c) = T b: ``check``
    refuses the ray, and without it the telescope, whose copy maps are
    not chain maps, has no certificate and its violation is reported."""
    gens = [Generator("a", 0), Generator("b", 1), Generator("c", 0)]
    tail = CubeDiagram(1, {"0": ChainComplex(gens, {}), "1": ChainComplex(
        gens, {("b", "c"): NovikovScalar.monomial(1, 1)})},
        {"-": {("a", "a"): NovikovScalar.monomial(1, 1)}})
    assert verify_cube(tail, 3) and tail.verified_mod == 3
    with pytest.raises(ValueError, match="^tail cube, face '1': does not "
                                         "glue onto tail cube$"):
        Ray(1, [], TailSpec.stationary(tail))
    ray = Ray(1, [], TailSpec.stationary(tail), check=False)
    assert telescope(ray, 1).verified_mod == 3
    tel = telescope(ray, 2)
    assert tel.verified_mod is None and not verify_cube(tel, 3)
    with pytest.raises(ValueError, match="barcode needs a verified"):
        completed_homology(ray, 3)


@pytest.fixture()
def square_calls(monkeypatch):
    """Count the d*d products: calls of ``chain.square_violations``, under
    every name the library holds it by."""
    calls = []
    original = chain.square_violations

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (chain, cubes):
        monkeypatch.setattr(module, "square_violations", counting)
    return calls


@pytest.fixture()
def glue_calls(monkeypatch):
    """Count the gluing comparisons: calls of ``cubes.glueable``, under
    every name the library holds it by."""
    calls = []
    original = cubes.glueable

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cubes, rays):
        monkeypatch.setattr(module, "glueable", counting)
    return calls


def test_a_checked_ray_keeps_its_glue_verdict(glue_calls):
    """A stationary ray built with ``check`` compares its stages once, when
    it is built: its telescopes and its completed homology compare none
    again.  Built without ``check``, or with a model tail, the first
    telescope or completed homology compares its stages and later ones
    compare none; and an unchecked tail that does not glue onto itself is
    still refused."""
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.one()})
    t = NovikovScalar.monomial(1, 1)
    tail = CubeDiagram(1, {"0": c, "1": c},
                       {"-": {("a", "a"): t, ("b", "b"): t}})
    still = Ray(1, [tail], TailSpec.stationary(tail))
    assert len(glue_calls) == 2  # prefix onto tail, tail onto itself
    del glue_calls[:]
    assert telescope_complex(still, 3).barcode(3).is_zero
    assert telescope(still, 3).verified_mod == INFINITY
    assert completed_homology(still, 2, 3).is_zero
    assert glue_calls == []
    for ray in (Ray(1, [tail], TailSpec.stationary(tail), check=False),
                Ray(1, [], TailSpec.model(lambda k: tail))):
        assert telescope(ray, 3).verified_mod == INFINITY
        assert glue_calls
        del glue_calls[:]
        assert telescope(ray, 3).verified_mod == INFINITY
        assert glue_calls == []
    loose = Ray(1, [tail], TailSpec.stationary(tail), check=False)
    assert completed_homology(loose, 2, 3).is_zero
    assert len(glue_calls) == 2
    del glue_calls[:]
    assert completed_homology(loose, 2, 3).is_zero
    assert telescope(loose, 3).verified_mod == INFINITY
    assert glue_calls == []
    top = ChainComplex(c.generators, {})
    unglued = CubeDiagram(1, {"0": c, "1": top}, {})
    with pytest.raises(ValueError, match="barcode needs a verified complex: "
                       "tail cube, face '1': does not glue onto tail cube"):
        completed_homology(Ray(1, [], TailSpec.stationary(unglued),
                               check=False), 1)


def test_a_ray_checks_its_stationary_gap_once(monkeypatch):
    """The gap of a stationary tail is checked when the ray first checks
    its stored cubes, so completed homology reads no mapping entry again;
    a tail built without :meth:`TailSpec.stationary` and with gap 0 is
    still refused as that constructor refuses it."""
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.one()})
    gaps = []
    original = rays.map_cube_gap
    monkeypatch.setattr(rays, "map_cube_gap",
                        lambda cube: gaps.append(cube) or original(cube))

    def tail(v):
        return CubeDiagram(1, {"0": c, "1": c},
                           {"-": {("a", "a"): v, ("b", "b"): v}})

    ray = Ray(1, [], TailSpec.stationary(tail(NovikovScalar.monomial(1, 1))))
    del gaps[:]
    for _ in range(2):
        assert completed_homology(ray, 2, 3).is_zero
    assert gaps == []
    flat = Ray(1, [], TailSpec("stationary", cube=tail(NovikovScalar.one())),
               check=False)
    with pytest.raises(ValueError, match="positive gap, got 0$"):
        completed_homology(flat, 1)


def test_a_descent_instance_makes_no_square_check(square_calls):
    """Three arcs of circle6, with their pairwise verdicts: every slice
    and telescope is certified by construction."""
    arcs = [{"v0", "e0", "v1"}, {"v1", "e1", "v2"}, {"v2", "e2", "v0"}]
    rep = involutive_descent_instance(bundled_model("circle6"), arcs, 1)
    assert rep.acyclic and len(rep.pairwise) == 3
    assert square_calls == []


def test_morse_limits_check_only_the_stages_they_verify(square_calls):
    """The empty set's tail and the scaling stages are certified by
    construction; the relative limit verifies one complex per stage."""
    model = bundled_model("circle6")
    assert empty_set(model, 2).is_zero
    assert global_sections(model, 1, 3).betti == (1, 1)
    assert square_calls == []
    rep = relative_sh(model, ["v0", "e0", "v1"], 1, 3)
    assert rep.stages_checked == 3 and len(square_calls) == 3


@pytest.mark.parametrize("name", ["ray2.json", "ray1_stationary.json"])
def test_sh_checks_each_stored_cube_once(name, square_calls, capsys):
    path = os.path.join(DATA, name)
    ray, _ = cli._load_ray(path)
    assert cli.main(["sh", path, "--precision", "2"]) == 0
    assert len(square_calls) == len(ray.stored_cubes())


def test_sh_refuses_a_stationary_tail_that_does_not_glue_onto_itself(
        tmp_path, capsys):
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"n": 1, "prefix": [], "tail": {
        "kind": "stationary", "cube": {
            "n": 1, "faces": {"-": [
                {"source": "a", "target": "a", "scalar": "1*T^1"}]},
            "vertices": {w: {"generators": [
                {"label": "a", "parity": 0}, {"label": "b", "parity": 1},
                {"label": "c", "parity": 0}], "differential": diff}
                for w, diff in (("0", []), ("1", [
                    {"source": "c", "target": "b", "scalar": "1*T^1"}]))}}}}))
    assert cli.main(["sh", str(path), "--precision", "3"]) == 2
    assert "tail cube, face '1': does not glue onto tail cube" in \
        capsys.readouterr().out


def test_tel_checks_only_the_telescope(square_calls, capsys):
    """``tel`` reports the full check of the telescope and certifies no
    stage cube before it."""
    assert cli.main(["tel", os.path.join(DATA, "ray2.json"), "--depth", "2",
                     "--work", "3"]) == 0
    assert len(square_calls) == 1


@pytest.mark.parametrize("argv", [
    ("tel", "ray2.json", "--depth", "2", "--work", "3"),
    ("verify-cube", "cube3.json"),
    ("cone", "cube3.json", "--direction", "1"),
    ("compose", "glue2_a.json", "glue2_b.json"),
])
def test_reporting_commands_still_run_the_full_check(argv, square_calls,
                                                     capsys):
    files = [a if not a.endswith(".json") else os.path.join(DATA, a)
             for a in argv]
    assert cli.main(files) == 0
    # the reported cube is checked in full, whatever its stages carry
    assert square_calls


def test_a_partial_cube_does_not_certify_its_total_complex():
    """A partial cube's check skips the equations of undefined faces; its
    subcubes and their vertex views still carry the certificate."""
    cube, _ = cli._load_cube(os.path.join(DATA, "partial3.json"))
    assert verify_cube(cube, 3) and cube.verified_mod == 3
    face = cube.subcube(1, "0")
    assert face.verified_mod == 3 and face.vertex("00").verified_mod == 3
    assert total_complex(cube).verified_mod is None


def test_vertex_views_of_a_loaded_cube_carry_its_certificate(square_calls):
    """The face-map constructor keeps no view of the complexes it was
    given: each vertex view is built from D on every read, with the
    cube's certificate, so a verified vertex is not checked again."""
    cube, _ = cli._load_cube(os.path.join(DATA, "cube3.json"))
    assert verify_cube(cube, 3) and len(square_calls) == 1
    assert all(cube.vertex(w).verified_mod == 3 for w in cube.gens)
    cube.vertex("000").is_acyclic(3)
    assert len(square_calls) == 1


def test_a_vertex_view_read_before_the_check_carries_its_pass(square_calls):
    """A vertex view holds nothing of its own: one read before
    ``verify_cube`` does not keep the cube's old certificate, so the
    vertex is not checked again after the cube passes."""
    cube, _ = cli._load_cube(os.path.join(DATA, "cube3.json"))
    assert cube.vertex("000").verified_mod is None
    assert verify_cube(cube, 3) and len(square_calls) == 1
    assert cube.vertex("000").verified_mod == 3
    cube.vertex("000").is_acyclic(3)
    assert len(square_calls) == 1


def test_a_checked_ray_stage_that_is_not_square_zero_stays_uncertified(
        monkeypatch):
    """``check`` tests gluing, not coherence: a telescope's exact check of
    a stage that commutes only modulo T^3, or not at all, fails, is kept
    on the stage and not run again, and the telescope is then checked in
    full."""
    gens = [Generator("a", 0), Generator("b", 1)]
    c = ChainComplex(gens, {("b", "a"): NovikovScalar.one()})
    for b_weight, ok_at_3 in (("1*T^1 + 1*T^3", True), ("2*T^1", False)):
        # a -> b mapped by T on a and by b_weight on b: d f - f d = b - T
        edge = CubeDiagram(1, {"0": c, "1": c}, {"-": {
            ("a", "a"): NovikovScalar.monomial(1, 1),
            ("b", "b"): parse_scalar(b_weight)}})
        ray = Ray(1, [edge], TailSpec.finite())
        assert telescope_complex(ray, 2).verified_mod is None
        assert edge.verified_mod is None and edge.exact_failed
        tel = telescope(ray, 2)
        assert tel.verified_mod is None
        assert bool(verify_cube(tel, 3)) is ok_at_3
        assert not verify_cube(tel, 4)
        with pytest.raises(ValueError, match="barcode needs a verified"):
            telescope_complex(ray, 2).barcode(4)
        checks = []
        original = cubes.verify_cube
        monkeypatch.setattr(rays, "verify_cube",
                            lambda *a: checks.append(a) or original(*a))
        telescope_complex(ray, 2)
        assert checks == []
