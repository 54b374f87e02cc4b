"""The one-pass constructions against the compositions they replaced.

``tests/construction_oracle.py`` keeps the old ways: a telescope from a
subcube, cones and relabellings, gluing as the equality of two subcubes,
a stage cube from ``cf`` and ``continuation`` through the face-map
constructor, a face cut one coordinate at a time, equality through the
vertex views, and a vertex ray's edges rebuilt from a stage's views.
Each one-pass result must match its oracle in generator order, D order,
values and certificate, and fail where it fails, with the same exception
and message.  So must ``cubes.cone_of_map``, the total complex of a
map's 1-cube, against the mapping cone put together by hand.  A last
property checks that no constructor leaves an exact zero in D, and that
each keeps every entry known only modulo a power of T that it was given.
And ``rays.completed_homology``, which states the zero module of a
finite or stationary ray from its vanishing proof, is run against the
barcode of the materialized telescope: they agree but on two declared
classes of rays, each pinned by its own test.
"""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction as F

import construction_oracle as oracle
import pytest
from helpers import (null_homotopic_map, random_complex, random_cube,
                     random_ray_cubes, vertex_views)
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube.chain import Barcode, ChainComplex, Generator, mat_clean
from novcube.cubes import (CubeDiagram, NotChainMap, compose, cone,
                           cone_of_map, cube_from_json, cube_to_json,
                           face_codes, from_positive_signs, glueable,
                           id_cube, to_positive_signs, vertex_codes)
from novcube.lemmas import decone
from novcube.morse import (InadmissibleSubset, MorseModel, Region,
                           bundled_model, hamiltonian_cube)
from novcube.novikov import INFINITY, NovikovScalar
from novcube.rays import (Ray, TailSpec, completed_homology, map_to_zero,
                          telescope, vertex_ray)

SETTINGS = settings(max_examples=40, deadline=None)
# seeds of ``random.Random``, whose draws spread further than
# ``st.randoms()``'s, which favour the least values
SEEDS = st.integers(0, 2 ** 32).map(random.Random)


def zero_mod(r):
    """A scalar known only to vanish modulo T^r."""
    return NovikovScalar((), r)


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the failure itself is compared
        return type(exc), str(exc)


def assert_same_cube(new, old):
    if isinstance(old, tuple):
        assert new == old
        return
    assert (new.n, new.positive, new._defined, new.verified_mod) == \
        (old.n, old.positive, old._defined, old.verified_mod)
    assert list(new.gens.items()) == list(old.gens.items())
    assert list(new.D) == list(old.D)
    assert list(new.D.values()) == list(old.D.values())


def precision_only(D):
    """The number of entries of D known only modulo a power of T."""
    return sum(1 for v in D.values() if not v)


def assert_clean(cube, kept=None):
    """D holds no exact zero and, when ``kept`` is given, that many
    entries known only modulo a power of T."""
    for key, v in cube.D.items():
        assert v.floor is not None, (key, v)
    if kept is not None:
        assert precision_only(cube.D) == kept


def rebuild(cube, vertices=(), faces=(), drop=()):
    """``cube`` through the face-map constructor, with some vertex
    complexes and face maps replaced and the faces in ``drop`` left out."""
    vs = dict(cube.vertices)
    vs.update(vertices)
    fs = {c: cube.face(c) for c in cube.codes if "-" in c and c not in drop}
    fs.update(faces)
    return CubeDiagram(cube.n, vs, fs, positive=cube.positive,
                       partial=cube.partial)


def with_vertex_zero(rng, cube, w):
    """``cube`` with one more entry at vertex w, zero modulo T^r."""
    c = cube.vertex(w)
    pairs = [(t.label, s.label) for t in c.generators for s in c.generators
             if t.parity != s.parity]
    if not pairs:
        return cube
    diff = dict(c.differential)
    diff[rng.choice(pairs)] = zero_mod(rng.choice([F(1), F(2), F(5, 2)]))
    return rebuild(cube, {w: ChainComplex(c.generators, diff)})


def partial_of(rng, cube):
    """The partial cube defining a random part of ``cube``'s faces."""
    codes = [c for c in cube.codes if "-" in c]
    return CubeDiagram(cube.n, cube.vertices,
                       {c: cube.face(c) for c in codes if rng.random() < 0.6},
                       positive=cube.positive, partial=True)


def random_variant(rng, cube):
    """``cube`` as it is, in positive form, partial, or with a vertex
    entry that vanishes only at its precision."""
    pick = rng.randrange(4)
    if pick == 1:
        return to_positive_signs(cube)
    if pick == 2:
        return partial_of(rng, cube)
    if pick == 3:
        return with_vertex_zero(rng, cube, rng.choice(vertex_codes(cube.n)))
    return cube


# ---------------------------------------------------------------------------
# faces and equality


@SETTINGS
@given(SEEDS, st.integers(2, 4))
def test_face_cube_matches_iterated_subcubes(rng, n):
    cube = random_variant(rng, random_cube(rng, n, max_gens=2, mix=4))
    cube.verified_mod = rng.choice([None, F(3), INFINITY])
    for code in face_codes(n):
        assert_same_cube(cube.face_cube(code), oracle.face_cube(cube, code))
    for i in range(1, n + 1):
        for value in "01":
            assert_same_cube(cube.subcube(i, value),
                             oracle.subcube(cube, i, value))


def test_face_cube_refuses_a_bad_code():
    cube = random_cube(random.Random(5), 2)
    for code in ("0", "0-1", "0x", "*-"):
        with pytest.raises(ValueError,
                           match=re.escape("bad face code %r" % code)):
            cube.face_cube(code)


def without_generator(rng, cube):
    """``cube`` with one generator and every entry of D at it left out, or
    unchanged when it has none."""
    full = [w for w, gs in cube.gens.items() if gs]
    if not full:
        return cube
    w = rng.choice(full)
    gone = (w, rng.choice(cube.gens[w]).label)
    gens = {v: [g for g in gs if (v, g.label) != gone]
            for v, gs in cube.gens.items()}
    D = {k: v for k, v in cube.D.items() if gone not in k}
    return CubeDiagram.from_matrix(cube.n, gens, D, cube.positive,
                                   cube._defined, cube.verified_mod)


def perturbed(rng, cube):
    """``cube`` with one entry of D scaled or raised by a monomial, or
    unchanged when D is empty."""
    if not cube.D:
        return cube
    D = dict(cube.D)
    key = rng.choice(sorted(D, key=repr))
    D[key] = D[key].scale(2) if rng.random() < 0.5 else \
        D[key] + NovikovScalar.monomial(1, 7)
    return CubeDiagram.from_matrix(cube.n, cube.gens, D, cube.positive,
                                   cube._defined, cube.verified_mod)


def vertex_zero_moved(rng, cube):
    """``cube`` with a vertex entry known only modulo T^R known modulo
    another power of T instead, or unchanged when it has none."""
    zeros = [k for k, v in cube.D.items() if not v]
    if not zeros:
        return cube
    D = dict(cube.D)
    key = rng.choice(sorted(zeros, key=repr))
    D[key] = zero_mod(D[key].val_floor() + 1)
    return CubeDiagram.from_matrix(cube.n, cube.gens, D, cube.positive,
                                   cube._defined, cube.verified_mod)


@SETTINGS
@given(SEEDS, st.integers(1, 3))
def test_equality_matches_the_vertex_view_comparison(rng, n):
    cube = random_variant(rng, random_cube(rng, n, max_gens=2, mix=4))
    if rng.random() < 0.5:
        cube = with_vertex_zero(rng, cube, rng.choice(vertex_codes(n)))
    same = CubeDiagram.from_matrix(n, cube.gens, dict(cube.D),
                                   cube.positive, cube._defined)
    others = [same, perturbed(rng, cube), without_generator(rng, cube),
              vertex_zero_moved(rng, cube),
              with_vertex_zero(rng, cube, rng.choice(vertex_codes(n))),
              CubeDiagram.from_matrix(n, cube.gens, cube.D,
                                      not cube.positive, cube._defined),
              random_cube(rng, n, max_gens=2, mix=4)]
    assert cube == same
    for other in others:
        a, b = (CubeDiagram.from_matrix(c.n, c.gens, c.D, c.positive,
                                        c._defined) for c in (cube, other))
        with vertex_views() as views:
            new = (a == b, b == a)
        assert views == []
        assert new == (oracle.equal(a, b), oracle.equal(b, a))


# ---------------------------------------------------------------------------
# gluing


def glued_after(first, k):
    """A cube whose face x_k = 0 is ``first``'s face x_k = 1: both of its
    faces in direction k are that face, and its maps along k vanish.  A
    positive cube's partner is the positive twin of its signed twin's."""
    if first.positive:
        return to_positive_signs(glued_after(from_positive_signs(first), k))

    def up(code):
        return code[:k - 1] + "1" + code[k:]
    faces = {}
    for c in first.codes:
        if "-" in c and c[k - 1] == "1":
            faces[c[:k - 1] + "0" + c[k:]] = faces[c] = first.face(c)
    return CubeDiagram(first.n, {w: first.vertex(up(w))
                                 for w in vertex_codes(first.n)},
                       faces, positive=first.positive, partial=first.partial)


def spoil(rng, cube, k):
    """``cube`` changed somewhere on its face x_k = 0, or not at all."""
    low = [w for w in vertex_codes(cube.n) if w[k - 1] == "0"]
    pick = rng.randrange(7)
    if pick == 1:  # one entry of a face map perturbed, dropped or added
        codes = [c for c in cube.codes if c[k - 1] == "0" and "-" in c
                 and cube.face(c)]
        if codes:
            code = rng.choice(codes)
            m = cube.face(code)
            key = rng.choice(sorted(m, key=repr))
            how = rng.randrange(3)
            if how == 0:
                m[key] = m[key].scale(2)
            elif how == 1:
                m[key] = m[key] + NovikovScalar.monomial(1, 7)
            else:
                del m[key]
            return rebuild(cube, faces={code: m})
    if pick == 2:  # one generator's parity flipped
        w = rng.choice(low)
        c = cube.vertex(w)
        if c.generators:
            g = rng.choice(c.generators)
            gens = [Generator(h.label, 1 - h.parity) if h == g else h
                    for h in c.generators]
            return rebuild(cube, {w: ChainComplex(gens, c.differential)})
    if pick == 3:
        return with_vertex_zero(rng, cube, rng.choice(low))
    if pick == 4 and not cube.positive:
        return to_positive_signs(cube)
    if pick == 5:  # one face left undefined (zero in a total cube)
        codes = [c for c in face_codes(cube.n) if c[k - 1] == "0" and "-" in c]
        if codes:
            return rebuild(cube, drop={rng.choice(codes)})
    if pick == 6:
        return partial_of(rng, cube)
    return cube


@SETTINGS
@given(SEEDS, st.integers(1, 3))
def test_glueable_matches_the_subcube_comparison(rng, n):
    first = random_variant(rng, random_cube(rng, n, max_gens=2, mix=4))
    for k in range(1, n + 1):
        second = spoil(rng, glued_after(first, k), k)
        for a, b in ((first, second), (second, first), (first, first)):
            for j in range(0, n + 2):
                assert glueable(a, b, j) == oracle.glueable(a, b, j)
        assert glueable(first, glued_after(first, k), k)
    other = random_cube(rng, n + 1, max_gens=1, mix=2)
    assert not glueable(first, other) and not oracle.glueable(first, other)


@SETTINGS
@given(SEEDS, st.integers(1, 3))
def test_glueable_on_ray_stages(rng, n):
    a, b = random_ray_cubes(rng, n, 2)
    assert glueable(a, b) and oracle.glueable(a, b)
    for j in range(0, n + 2):
        assert glueable(b, a, j) == oracle.glueable(b, a, j)


# ---------------------------------------------------------------------------
# telescopes


def random_ray(rng, n):
    length = rng.randint(1, 3)
    kind = rng.randrange(4)
    if kind == 0:  # stages that glue
        return Ray(n, random_ray_cubes(rng, n, length), TailSpec.finite())
    cubes = [random_cube(rng, n, mix=4) for _ in range(length)]
    if kind == 2:  # positive, partial or precision-zero stages
        cubes = [random_variant(rng, c) for c in cubes]
    if kind == 3:  # precision-zero entries on every face
        cubes = [zeros_cube(rng, n) for _ in range(length)]
    return Ray(n, cubes, TailSpec.finite(), check=False)


@SETTINGS
@given(SEEDS, st.integers(1, 3))
def test_telescope_matches_subcubes_and_cones(rng, n):
    ray = random_ray(rng, n)
    for depth in range(0, len(ray.prefix) + 3):
        new = outcome(telescope, ray, depth)
        assert_same_cube(new, outcome(oracle.telescope, ray, depth))
        if not isinstance(new, tuple):
            assert_clean(new)


def test_telescope_refuses_positive_and_partial_stages_as_cones_did():
    """A partial stage is refused as cones refuse it; a positive stage is
    read as D, so it telescopes as its signed twin does."""
    rng = random.Random(11)
    cube = random_cube(rng, 2)
    assert cube.face("-0") and cube.vertex("00").differential  # slice 1
    ray = Ray(2, [partial_of(rng, cube)], TailSpec.finite(), check=False)
    for fn in (telescope, oracle.telescope):
        with pytest.raises(ValueError, match="cone applies to total cubes"):
            fn(ray, 1)
    assert_same_cube(telescope(ray, 0), oracle.telescope(ray, 0))
    signed, twin = (Ray(2, [c], TailSpec.finite(), check=False)
                    for c in (cube, to_positive_signs(cube)))
    for depth in (0, 1, 2):
        assert_same_cube(telescope(twin, depth), telescope(signed, depth))


# ---------------------------------------------------------------------------
# stage cubes of the cell model


def random_model(rng):
    """Paired cells with integer arrows, and sometimes a base map."""
    labels = ["c%d" % i for i in range(rng.randint(1, 6))]
    parity = {l: rng.randint(0, 1) for l in labels}
    even = [l for l in labels if parity[l] == 0]
    odd = [l for l in labels if parity[l] == 1]
    boundary = {}
    for p, q in zip(even, odd):
        if rng.random() < 0.7:
            src, tgt = (p, q) if rng.random() < 0.5 else (q, p)
            boundary[(tgt, src)] = rng.choice([1, -1, 2])
    base = None
    if rng.random() < 0.5:
        base = {l: "b%d" % rng.randint(0, 2) for l in labels}
    return MorseModel([Generator(l, parity[l]) for l in labels], boundary,
                      {l: F(rng.randint(-3, 3), 2) for l in labels}, base)


def admissible(model, h):
    """The least weight above ``h`` that rises along every arrow and is
    constant on every base fibre."""
    h = dict(h)
    moved = True
    while moved:
        moved = False
        for q, p in model.boundary:
            if h[q] < h[p]:
                h[q], moved = h[p], True
        if model.base_map is not None:
            top = {}
            for l in model.labels:
                b = model.base_map[l]
                top[b] = max(top.get(b, h[l]), h[l])
            for l in model.labels:
                if h[l] < top[model.base_map[l]]:
                    h[l], moved = top[model.base_map[l]], True
    return h


def random_assignment(rng, model, n):
    """Weights on the vertices of an n-cube: admissible and monotone, each
    admissible (often not monotone), or raw (often neither)."""
    def raw():
        return {l: F(rng.randint(-2, 2), rng.choice([1, 1, 2]))
                for l in model.labels}
    pick = rng.randrange(4)
    if pick < 2:
        return {w: admissible(model, raw()) if pick else raw()
                for w in vertex_codes(n)}
    h = admissible(model, raw())
    steps = [admissible(model, {l: abs(v) for l, v in raw().items()})
             for _ in range(n)]
    return {w: {l: h[l] + sum(int(b) * d[l] for b, d in zip(w, steps))
                for l in model.labels} for w in vertex_codes(n)}


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(1, 3))
def test_hamiltonian_cube_matches_cf_and_continuation(rng, n):
    model = random_model(rng)
    assign = random_assignment(rng, model, n)
    new = outcome(hamiltonian_cube, model, assign)
    old = outcome(oracle.hamiltonian_cube, model, assign)
    assert_same_cube(new, old)
    if isinstance(old, tuple):
        return
    assert_clean(new)
    for w in vertex_codes(n):
        view, cx = new.vertex(w), old.vertex(w)
        assert view.generators == cx.generators
        assert list(view.differential.items()) == \
            list(cx.differential.items())
        assert view.verified_mod == cx.verified_mod
        assert new.faces[w] == old.faces[w]


BUNDLED = ["circle", "circle12", "circle24", "circle6", "grid9", "interval",
           "point", "s2", "t2"]


@pytest.mark.parametrize("name", BUNDLED)
def test_regions_weigh_and_count_as_the_references(name):
    """Every set of base points (of cells, without a base projection) of
    a bundled model: ``Region.of`` refuses it when an arrow enters it from
    outside, and each admissible region has the references' cells, stage
    weights (stages k = 1..4, at k and at k + 1, in ``int`` numerators)
    and Betti numbers.  Unions and intersections of admissible regions
    are the cell sets' own, and admissible."""
    model = bundled_model(name)
    points = sorted(set(model.labels) if model.base_map is None
                    else set(model.base_map.values()))
    regions = []
    for labels in itertools.chain.from_iterable(
            itertools.combinations(points, size)
            for size in range(len(points) + 1)):
        cells = oracle.resolve_region(model, labels)
        if not oracle.is_closed(model, cells):
            with pytest.raises(InadmissibleSubset):
                Region.of(model, labels)
            continue
        region = Region.of(model, labels)
        assert region.cells == cells
        for k in range(1, 5):
            for h, i in zip(region.stage(k), (k, k + 1)):
                assert all(type(n) is int for n in h.values())
                assert {l: F(n, h.den) for l, n in h.items()} == \
                    oracle.region_hamiltonian(model, cells, i)
        assert region.betti == oracle.projected_betti(model, cells)
        regions.append(region)
    assert regions
    for a, b in itertools.combinations(regions, 2):
        for joined, cells in ((a | b, a.cells | b.cells),
                              (a & b, a.cells & b.cells)):
            assert joined.cells == cells
            assert oracle.is_closed(model, cells)


def test_stage_cubes_and_telescopes_of_a_descent_ray_match():
    model = bundled_model("circle6")
    regions = [{"v0", "e0", "v1"}, {"v1", "e1", "v2", "e2", "v0"}]
    ray = oracle.descent_ray(model, regions)
    fam = oracle.region_family([oracle.resolve_region(model, r)
                                for r in regions])
    for k in (1, 2, 3):
        assign = {w + a: oracle.region_hamiltonian(model, fam[w], k + int(a))
                  for w in fam for a in "01"}
        assert_same_cube(ray.map_cube(k),
                         oracle.hamiltonian_cube(model, assign))
    for depth in (0, 1, 2):
        assert_same_cube(telescope(ray, depth), oracle.telescope(ray, depth))


@pytest.mark.parametrize("name, regions", [
    ("circle6", [{"v0", "e0", "v1"}, {"v1", "e1", "v2", "e2", "v0"}]),
    ("grid9", [{"v00", "ex0", "v10"}, {"v01", "ex1", "v11"},
               {"v00", "ey0", "v01"}]),
])
def test_vertex_ray_stages_match_the_constructor_edges(name, regions):
    ray = oracle.descent_ray(bundled_model(name), regions)
    for w in vertex_codes(ray.n - 1):
        sub = vertex_ray(ray, w)
        for k in (1, 2, 3):
            assert_same_cube(sub.map_cube(k),
                             oracle.vertex_ray_edge(ray.map_cube(k), w))


# ---------------------------------------------------------------------------
# the mapping cone


def fuzzy(rng, entries, targets, sources, parity):
    """``entries`` and, at some free positions (t, s) whose parities
    differ by ``parity``, exact zeros and entries known only modulo a
    power of T."""
    out = dict(entries)
    for t in targets:
        for s in sources:
            if (t.parity - s.parity) % 2 == parity and \
                    (t.label, s.label) not in out and rng.random() < 0.3:
                out[(t.label, s.label)] = rng.choice([
                    NovikovScalar.zero(), zero_mod(F(1)), zero_mod(F(3, 2))])
    return out


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_cone_of_map_matches_the_hand_built_cone(rng):
    src = random_complex(rng, max_gens=4, prefix="s")
    tgt = random_complex(rng, max_gens=4, prefix="t")
    f = fuzzy(rng, null_homotopic_map(rng, src, tgt), tgt.generators,
              src.generators, 0)
    src, tgt = (ChainComplex(c.generators, fuzzy(
        rng, c.differential, c.generators, c.generators, 1))
        for c in (src, tgt))
    new, old = cone_of_map(src, tgt, f), oracle.cone_of_map(src, tgt, f)
    assert new.generators == old.generators
    assert new.differential == old.differential
    assert new.verified_mod is old.verified_mod is None


def test_cone_of_map_refuses_as_the_hand_built_cone_did():
    one = NovikovScalar.one()
    c = ChainComplex([Generator("x", 0), Generator("y", 1)],
                     {("y", "x"): one})
    d = ChainComplex([Generator("u", 0), Generator("v", 1)],
                     {("v", "u"): one})
    for f, message in (({("u", "y"): one}, "map has an odd entry ('u', 'y')"),
                       ({("u", "x"): one},
                        "matrix does not commute with differentials")):
        new = outcome(cone_of_map, c, d, f)
        assert new == (NotChainMap, message)
        assert new == outcome(oracle.cone_of_map, c, d, f)


# ---------------------------------------------------------------------------
# no constructor leaves an exact zero, and none drops a precision-only entry


def zeros_cube(rng, n):
    """A cube given face maps with exact zeros and zeros modulo T^r, and
    vertex entries that vanish only modulo T^r."""
    cube = random_cube(rng, n, max_gens=2, mix=4)
    faces = {}
    given = 0
    for c in face_codes(n):
        if "-" not in c:
            continue
        m = cube.face(c)
        src = cube.vertex(c.replace("-", "0")).labels
        tgt = cube.vertex(c.replace("-", "1")).labels
        for t in tgt:
            for s in src:
                if (t, s) not in m and rng.random() < 0.3:
                    m[(t, s)] = rng.choice([NovikovScalar.zero(),
                                            zero_mod(F(3, 2))])
                    given += m[(t, s)].floor is not None
        faces[c] = m
    cube = rebuild(cube, faces=faces)
    assert_clean(cube, given)
    for w in vertex_codes(n):
        if rng.random() < 0.5:
            cube = with_vertex_zero(rng, cube, w)
    return cube


@SETTINGS
@given(SEEDS, st.integers(1, 3))
def test_no_constructor_leaves_an_exact_zero(rng, n):
    cube = zeros_cube(rng, n)
    k = precision_only(cube.D)
    built = [(cube, k), (to_positive_signs(cube), k), (id_cube(cube), 2 * k),
             (from_positive_signs(to_positive_signs(cube)), k),
             (cube.relabel_vertices(lambda w, l: (w, l)), k),
             (map_to_zero(cube), k), (cube_from_json(cube_to_json(cube)), k)]
    for i in range(1, n + 1):
        coned = cone(cube, i)
        built += [(coned, k), (decone(coned, i), k)]
        for value in "01":
            on = precision_only({key: v for key, v in cube.D.items()
                                 if key[0][0][i - 1] == value
                                 and key[1][0][i - 1] == value})
            built.append((cube.subcube(i, value), on))
    ray = Ray(n, [cube, zeros_cube(rng, n)], TailSpec.finite(), check=False)
    built += [(telescope(ray, d), None) for d in range(4)]
    for c, kept in built:
        assert_clean(c, kept)


def test_compose_drops_products_that_vanish():
    a = ChainComplex([Generator("x", 0)], {})
    b = ChainComplex([Generator("a", 0), Generator("b", 0)], {})
    c = ChainComplex([Generator("y", 0), Generator("z", 0)], {})
    one = NovikovScalar.one()
    f = CubeDiagram(1, {"0": a, "1": b},
                    {"-": {("a", "x"): one, ("b", "x"): one}})
    g = CubeDiagram(1, {"0": b, "1": c},
                    {"-": {("y", "a"): one, ("y", "b"): -one,
                           ("z", "a"): NovikovScalar.monomial(1, 1)}})
    # (1 + O(T)) - 1 leaves a zero known only modulo T, which stays
    f2 = CubeDiagram(1, {"0": a, "1": b},
                     {"-": {("a", "x"): NovikovScalar([(0, 1)], 1),
                            ("b", "x"): one}})
    g2 = CubeDiagram(1, {"0": b, "1": c},
                     {"-": {("y", "a"): one, ("y", "b"): -one}})
    for first, second in ((f, g), (f2, g2)):
        assert_clean(compose(first, second))
    # 1 - 1 cancels exactly and goes
    assert (("1", "y"), ("0", "x")) not in compose(f, g).D
    assert (("1", "z"), ("0", "x")) in compose(f, g).D
    assert compose(f2, g2).D == {(("1", "y"), ("0", "x")): zero_mod(1)}


def test_decone_keeps_a_vertex_zero_that_leaves_its_block():
    gens = [Generator(("0", "a"), 1), Generator(("1", "b"), 0)]
    cx = ChainComplex(gens, {(("1", "b"), ("0", "a")): zero_mod(2)})
    coned = CubeDiagram(1, {"0": cx, "1": cx}, {})
    assert len(coned.D) == 2
    split = decone(coned, 1)
    assert_clean(split, 2)
    assert split.D == {(("10", "b"), ("00", "a")): zero_mod(2),
                       (("11", "b"), ("01", "a")): zero_mod(2)}


# ---------------------------------------------------------------------------
# completed homology: the vanishing proof against the materialized telescope


def stationary_cube(rng, c, gap, top=None):
    """The 1-cube of T^gap id + T^gap (dY + Yd) on ``c``, a chain map
    homotopic to T^gap id with mapping entries of valuation >= gap; or,
    into another complex ``top``, of T^gap (dY + Yd) alone, a cube that
    does not glue onto itself."""
    top = c if top is None else top
    f = {(l, l): NovikovScalar.monomial(1, gap)
         for l in c.labels if top is c}
    for key, v in null_homotopic_map(rng, c, top).items():
        f[key] = f.get(key, NovikovScalar.zero()) + v.shift(gap)
    return CubeDiagram(1, {"0": c, "1": top}, {"-": mat_clean(f)})


def truncated(rng, cube, r):
    """``cube`` with one D entry known only modulo T^r, uncertified."""
    key = rng.choice(sorted(cube.D, key=repr))
    D = dict(cube.D)
    D[key] = D[key].truncate(r)
    return CubeDiagram.from_matrix(cube.n, cube.gens, D)


def completion_ray(seed):
    """A seeded ray with its precision r0 and working precision: a finite
    tail after glued random cubes, or a stationary tail T^gap id + a
    null-homotopic term with no, one or two prefix cubes, and now and then
    a stationary tail into another complex, which does not glue onto
    itself; in a third of them one stored entry is cut below the working
    precision.  The ray is built with ``check`` in half of the cases where
    it glues."""
    rng = random.Random(seed)
    r0 = rng.choice([F(1, 2), F(1), F(3, 2)])
    work = max(r0, rng.choice([F(3, 2), F(2), F(3)]))
    if rng.random() < 0.4:
        n = rng.randint(1, 2)
        prefix = random_ray_cubes(rng, n, rng.randint(1, 3))
        tail = TailSpec.finite()
    else:
        n = 1
        c = random_complex(rng, max_gens=5, prefix="c")
        chain = [c]
        for k in range(rng.randint(0, 2)):
            chain.insert(0, random_complex(rng, max_gens=5, prefix="p%d" % k))
        prefix = [CubeDiagram(1, {"0": a, "1": b},
                              {"-": null_homotopic_map(rng, a, b)})
                  for a, b in zip(chain, chain[1:])]
        top = random_complex(rng, max_gens=5, prefix="c") \
            if rng.random() < 0.15 else None
        tail = TailSpec.stationary(
            stationary_cube(rng, c, rng.choice([F(1, 2), F(1)]), top))
    stored = prefix + ([tail.cube] if tail.kind == "stationary" else [])
    fuzzy = rng.random() < 1 / 3 and any(c.D for c in stored)
    if fuzzy:
        k = rng.choice([k for k, c in enumerate(stored) if c.D])
        cut = truncated(rng, stored[k], rng.choice([F(1, 4), F(1, 2), F(1)]))
        if k < len(prefix):
            prefix[k] = cut
        else:
            tail = TailSpec.stationary(cut)
    try:
        ray = Ray(n, prefix, tail, check=rng.random() < 0.5)
    except ValueError:
        ray = Ray(n, prefix, tail, check=False)
    return ray, r0, work


def barcode_outcome(fn, ray, r0, work):
    """The barcode's JSON, or the class and message of what was raised."""
    try:
        return fn(ray, r0, work).to_json()
    except Exception as exc:  # the failure itself is compared
        return type(exc), str(exc)


def glues(ray):
    """Every stored stage glues onto the next, by the subcube comparison."""
    named = [c for _, c in ray.stored_cubes()]
    after = named[1:] + (named[-1:] if ray.tail.kind == "stationary" else [])
    return all(oracle.glueable(a, b) for a, b in zip(named, after))


def least_mod(ray, work):
    return min([work] + [v.mod for _, c in ray.stored_cubes()
                         for v in c.D.values() if v.mod is not None])


def zero_json(precision):
    return Barcode((), (), precision).to_json()


def test_completed_homology_matches_the_materialized_telescope():
    """300 seeded rays through both paths, each on its own copy of the
    ray, since either path certifies the cubes it checks.  Exact rays
    agree in full; so does every ray both paths answer.  The two paths
    differ on two declared classes only: (a) a ray that glues, with an
    entry known only modulo T^R < work, which the telescope refuses since
    its copy map subtracts that entry from itself, is answered zero at
    precision R; (b) a ray built without ``check`` whose stages do not
    glue, whose telescope was reduced anyway, is refused naming a stored
    cube."""
    seen = Counter()
    for seed in range(300):
        ray, r0, work = completion_ray(seed)
        old = barcode_outcome(oracle.completed_homology,
                              *completion_ray(seed))
        new = barcode_outcome(completed_homology, ray, r0, work)
        exact = all(v.mod is None for _, c in ray.stored_cubes()
                    for v in c.D.values())
        if isinstance(old, tuple) and isinstance(new, tuple):
            assert old[0] is new[0], (seed, old, new)
            seen["refused"] += 1
        elif isinstance(old, tuple):
            assert not exact and glues(ray), (seed, old)
            assert old[0] is ValueError and old[1].startswith(
                "barcode needs a verified complex") and "'tel'" in old[1]
            assert new == zero_json(least_mod(ray, work)) and \
                least_mod(ray, work) < work, seed
            seen["a"] += 1
        elif isinstance(new, tuple):
            assert ray.fault() and not glues(ray), (seed, new)
            assert new[0] is ValueError and new[1].startswith(
                "barcode needs a verified complex: ") and "tel" not in new[1]
            assert re.search(r"(prefix|tail) cube( \d)?, face '-*1': does "
                             r"not glue onto (prefix|tail) cube", new[1])
            seen["b"] += 1
        else:
            assert new == old, seed
            assert new == zero_json(least_mod(ray, work)), seed
            seen["exact" if exact else "fuzzy answered"] += 1
    assert seen["exact"] >= 150 and seen["a"] and seen["b"], seen


def test_a_fuzzy_ray_the_telescope_refused_is_answered_zero():
    """Class (a): the slice entry d(a) = 1 + O(T) and the tail map T id
    verify at 3/2 (their products are known modulo T^2), but the
    telescope's copy map meets the entry twice, x - x, which is known only
    modulo T^1: its check refused the ray.  The proof answers zero at the
    entry's precision."""
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar([(0, 1)], 1)})
    t = NovikovScalar.monomial(1, 1)
    tail = CubeDiagram(1, {"0": c, "1": c},
                       {"-": {("a", "a"): t, ("b", "b"): t}})
    ray = Ray(1, [], TailSpec.stationary(tail))
    with pytest.raises(ValueError, match=r"barcode needs a verified complex"
                       r".*\('tel', 1, 'u', 'b'\), \('tel', 1, 's', 'a'\)"
                       r".*undetermined below T\^1"):
        oracle.completed_homology(ray, 1, F(3, 2))
    assert completed_homology(ray, 1, F(3, 2)) == Barcode((), (), F(1))


def test_an_unglued_ray_the_telescope_answered_is_refused():
    """Class (b): a stationary tail from one complex into another does not
    glue onto itself, so ``check`` refuses the ray.  At r0 = gap = 1 the
    cut ray holds one tail stage, so its telescope never compared the
    tail with itself and was reduced to zero; the proof refuses it,
    naming the tail cube and its glued face."""
    gens = [Generator("a", 0), Generator("b", 1)]
    c = ChainComplex(gens, {})
    top = ChainComplex(gens, {("b", "a"): NovikovScalar.one()})
    tail = CubeDiagram(1, {"0": c, "1": top}, {})
    with pytest.raises(ValueError, match="^tail cube, face '1': does not "
                                         "glue onto tail cube$"):
        Ray(1, [], TailSpec.stationary(tail))
    ray = Ray(1, [], TailSpec.stationary(tail), check=False)
    assert oracle.completed_homology(ray, 1).is_zero
    with pytest.raises(ValueError) as err:
        completed_homology(ray, 1)
    assert err.value.args == ("barcode needs a verified complex: tail cube, "
                              "face '1': does not glue onto tail cube",)
