"""Rays, telescopes, completed homology, Mayer-Vietoris, descent."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from construction_oracle import descent_ray
from helpers import (null_homotopic_map, random_acyclic_t0_complex,
                     random_complex, random_cube, random_extension,
                     random_ray_cubes, vertex_views)

from novcube import rays
from novcube.chain import (ChainComplex, Generator, mat_add, mat_clean,
                           mat_equal, mat_identity, mat_neg)
from novcube.cubes import (CubeDiagram, cone, glueable, id_cube,
                           total_complex, verify_cube, vertex_codes)
from novcube.errors import NotChainMap
from novcube.morse import Region, bundled_model, region_ray
from novcube.novikov import NovikovScalar, parse_scalar
from novcube.rays import (NotAcyclic, Ray, SliceNotAcyclic, TailSpec,
                          TailVerdict, UnsupportedTail,
                          acyclic_slices_implies_acyclic,
                          colimit_t0, completed_homology, compression,
                          cone_ray, degree_parts, descent_complex,
                          mayer_vietoris, stage_composite, telescope,
                          telescope_complex, vertex_ray)

WORK = 10


def one_cube(src: ChainComplex, dst: ChainComplex, entries) -> CubeDiagram:
    return CubeDiagram(1, {"0": src, "1": dst}, {"-": entries})


def simple_complex(prefix, pairs=1, exp=0):
    gens = []
    diff = {}
    for i in range(pairs):
        a, b = "%s_a%d" % (prefix, i), "%s_b%d" % (prefix, i)
        gens += [Generator(a, 0), Generator(b, 1)]
        diff[(b, a)] = NovikovScalar.monomial(1, exp)
    return ChainComplex(gens, diff)


def identity_ray(c: ChainComplex, length: int) -> Ray:
    ident = mat_identity(c.labels)
    return Ray(1, [one_cube(c, c, dict(ident)) for _ in range(length)],
               TailSpec.finite())


def test_glueable():
    rng = random.Random(50)
    d1 = random_cube(rng, 2)
    d2 = random_extension(rng, d1.subcube(2, "1"))
    assert glueable(d1, d2)
    d3 = random_cube(rng, 2)
    assert not glueable(d1, d3)
    assert not glueable(d1, random_cube(rng, 1))


def test_glueable_perturbed_entry():
    # scaling one scalar in the shared face breaks exact gluability
    c = simple_complex("g", pairs=2)
    f = mat_identity(c.labels)
    d1 = one_cube(c, c, dict(f))
    d2 = one_cube(c, c, dict(f))
    assert glueable(d1, d2)
    perturbed = dict(c.differential)
    (key, val), = list(perturbed.items())[:1]
    perturbed[key] = val.scale(2)
    c2 = ChainComplex(c.generators, perturbed)
    d2_bad = one_cube(c2, c, dict(f))
    assert not glueable(d1, d2_bad)


def test_telescope_of_map_from_zero():
    # ray 0 -> C: the telescope is C plus an acyclic zero block
    c = simple_complex("c")
    r = Ray(1, [one_cube(ChainComplex([], {}), c, {})], TailSpec.finite())
    tel = telescope_complex(r, 1)
    # stage 1 is the zero complex, so only stage 2's plain copy survives
    labels = {g.label for g in tel.generators}
    assert labels == {("tel", 2, "u", l) for l in c.labels}
    assert tel.reduce_t0().homology_ranks() == \
        c.reduce_t0().homology_ranks()


def test_telescope_differential_formula():
    # entries on a shifted generator: copy, minus d, plus the forward map
    c = simple_complex("x", pairs=2, exp=F(1, 2))
    f = {(l, l): NovikovScalar.monomial(1, F(1, 3)) for l in c.labels}
    r = Ray(1, [one_cube(c, c, f), one_cube(c, c, f)], TailSpec.finite())
    tel = telescope_complex(r, 2)
    d = tel.differential
    for l in c.labels:
        assert d[(("tel", 1, "u", l), ("tel", 1, "s", l))] == \
            NovikovScalar.one()
        assert d[(("tel", 2, "u", l), ("tel", 1, "s", l))] == \
            NovikovScalar.monomial(1, F(1, 3))
    for (t, s), v in c.differential.items():
        assert d[(("tel", 1, "s", t), ("tel", 1, "s", s))] == -v
        assert d[(("tel", 1, "u", t), ("tel", 1, "u", s))] == v


def test_identity_ray_telescope_homology():
    rng = random.Random(52)
    for _ in range(10):
        c = random_complex(rng, prefix="idr")
        r = identity_ray(c, 4)
        for depth in (1, 3):
            tel = telescope_complex(r, depth)
            assert tel.verify(WORK).ok
            assert tel.reduce_t0().homology_ranks() == \
                c.reduce_t0().homology_ranks()


def test_telescope_cube_valid_at_all_depths():
    rng = random.Random(53)
    for n in (1, 2, 3):
        r = Ray(n, random_ray_cubes(rng, n, 3), TailSpec.finite())
        for depth in (0, 1, 2, 3):
            assert verify_cube(telescope(r, depth), WORK).ok


def test_colimit_examples():
    # stationary identity ray: the limit is C itself
    rng = random.Random(54)
    c = random_complex(rng, prefix="st")
    r = identity_ray(c, 4)
    lim, cmp_map, qiso = colimit_t0(r, 3)
    assert qiso
    assert lim.homology_ranks() == c.reduce_t0().homology_ranks()
    # ray of inclusions Q in Q^2 in Q^2 ...: limit has rank 2
    c1 = ChainComplex([Generator("u", 0)], {})
    c2 = ChainComplex([Generator("u", 0), Generator("v", 0)], {})
    inc = {("u", "u"): NovikovScalar.one()}
    ident2 = mat_identity(["u", "v"])
    r = Ray(1, [one_cube(c1, c2, inc), one_cube(c2, c2, dict(ident2)),
                one_cube(c2, c2, dict(ident2))], TailSpec.finite())
    lim, _, qiso = colimit_t0(r, 3)
    assert qiso
    assert lim.homology_ranks() == (2, 0)


def test_telescope_homology_is_colimit_on_random_rays():
    rng = random.Random(55)
    for _ in range(25):
        r = Ray(1, random_ray_cubes(rng, 1, 4), TailSpec.finite())
        depth = rng.choice([2, 3])
        lim, _, qiso = colimit_t0(r, depth)
        assert qiso
        tel = telescope_complex(r, depth)
        assert tel.reduce_t0().homology_ranks() == lim.homology_ranks()


def composites_one_by_one(ray, stop, target):
    """The map to slice ``stop`` with each stage's composite built from
    scratch by ``stage_composite``: the reference for ``_to_last_slice``."""
    out = {}
    for k in range(1, stop + 1):
        sign = -1 if (stop - k) % 2 else 1
        for (t, s), v in stage_composite(ray, k, stop).items():
            out[(target(t), ("tel", k, "u", s))] = v.scale(sign)
    return mat_clean(out)


def self_map_ray(rng, length):
    """A finite 1-ray on one random complex whose edge maps are
    id + d Y + Y d, so that every composite has entries."""
    c = random_complex(rng, max_gens=5, prefix="sm")
    while len(c.generators) < 3:
        c = random_complex(rng, max_gens=5, prefix="sm")
    ident = mat_identity(c.labels)
    return Ray(1, [one_cube(c, c, mat_add(ident,
                                          null_homotopic_map(rng, c, c)))
                   for _ in range(length)], TailSpec.finite())


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_maps_to_the_last_slice_compose_once_per_stage(depth, monkeypatch):
    rng = random.Random(60 + depth)
    for r in [Ray(1, random_ray_cubes(rng, 1, depth), TailSpec.finite())
              for _ in range(3)] + [self_map_ray(rng, depth)
                                    for _ in range(3)]:
        _, comparison, qiso = colimit_t0(r, depth)
        assert qiso
        assert mat_clean(comparison) == composites_one_by_one(
            r, depth + 1, lambda t: t)
        res = compression(r, [1, depth // 2 + 1, depth + 1])
        assert res.quasi_iso
        assert res.telescope_map == composites_one_by_one(
            r, depth + 1, lambda t: ("tel", 3, "u", t))
    products = []
    compose = rays.mat_compose
    monkeypatch.setattr(rays, "mat_compose",
                        lambda a, b: products.append(1) or compose(a, b))
    rays._to_last_slice(r, depth + 1, lambda t: t)
    assert len(products) == depth


def test_a_comparison_that_does_not_commute_is_refused(monkeypatch):
    """The colimit comparison and the compression's telescope map are
    checked once, by ``cone_of_map``: doubling the image of one plain
    generator a (d a = b, b kept) makes either map fail to commute."""
    to_last = rays._to_last_slice

    def skewed(ray, stop, target):
        return {k: v.scale(2) if k[1][3] == "c_a0" else v
                for k, v in to_last(ray, stop, target).items()}

    r = identity_ray(simple_complex("c"), 3)
    monkeypatch.setattr(rays, "_to_last_slice", skewed)
    with pytest.raises(NotChainMap, match="does not commute"):
        colimit_t0(r, 2)
    with pytest.raises(NotChainMap, match="does not commute"):
        compression(r, [1, 2, 3])


def test_compression_identity_reindexing():
    rng = random.Random(56)
    r = Ray(1, random_ray_cubes(rng, 1, 4), TailSpec.finite())
    res = compression(r, [1, 2, 3, 4])
    assert res.quasi_iso
    for sq, orig in zip(res.squares, r.prefix):
        assert mat_equal(sq.face("-0"), orig.face("-"))
        assert mat_equal(sq.face("-1"), orig.face("-"))
        assert mat_equal(sq.face("0-"),
                         mat_identity(orig.subcube(1, "0").vertex("").labels))


def test_compression_random_indices_quasi_iso():
    rng = random.Random(57)
    for _ in range(15):
        r = Ray(1, random_ray_cubes(rng, 1, 6), TailSpec.finite())
        res = compression(r, [2, 4, 6])
        assert res.quasi_iso
        for sq in res.squares:
            assert verify_cube(sq, WORK).ok


def test_compression_skip_one_on_stationary_ray():
    # the shift-family ray (constant complex, diagonal multiplication by T):
    # reindexing is a quasi-isomorphism, and both completed limits vanish
    c = simple_complex("sg", pairs=2)
    t_map = {(l, l): NovikovScalar.monomial(1, 1) for l in c.labels}
    r = Ray(1, [], TailSpec.stationary(one_cube(c, c, t_map)), check=False)
    res = compression(r, [1, 3, 5])
    assert res.quasi_iso
    assert completed_homology(r, 2).is_zero
    sub = Ray(1, res.subray.prefix,
              TailSpec.stationary(res.subray.prefix[-1]), check=False)
    assert completed_homology(sub, 2).is_zero


def test_compression_needs_monotone_indices():
    rng = random.Random(58)
    r = Ray(1, random_ray_cubes(rng, 1, 3), TailSpec.finite())
    with pytest.raises(ValueError):
        compression(r, [2, 2])
    with pytest.raises(ValueError):
        compression(r, [3])


def test_completed_homology_stationary_vanishes():
    # the constant ray with map T: dies at every precision
    c = simple_complex("e", pairs=2)
    t_map = {(l, l): NovikovScalar.monomial(1, 1) for l in c.labels}
    stat = TailSpec.stationary(one_cube(c, c, t_map))
    r = Ray(1, [], stat, check=False)
    for r0 in (F(1, 2), F(1), F(5)):
        assert completed_homology(r, r0).is_zero


def test_completed_homology_prefix_perturbed_stationary():
    rng = random.Random(59)
    c = simple_complex("p", pairs=2)
    t_map = {(l, l): NovikovScalar.monomial(1, 1) for l in c.labels}
    stat = TailSpec.stationary(one_cube(c, c, t_map))
    # random prefix feeding into the stationary complex
    pre = random_complex(rng, prefix="pre")
    from helpers import null_homotopic_map
    f = null_homotopic_map(rng, pre, c)
    r = Ray(1, [one_cube(pre, c, f)], stat)
    code = completed_homology(r, F(2))
    assert code.is_zero
    # brute force at twice the stage bound agrees
    from construction_oracle import stationary_stage_bound, truncate_ray
    stage = stationary_stage_bound(r, F(2))
    deeper = truncate_ray(r, 2 * stage)
    brute = telescope_complex(deeper, 2 * stage + 1).barcode(WORK)
    assert brute.free_bars == code.free_bars
    assert brute.torsion_bars == code.torsion_bars


def test_completed_homology_finite_agrees_with_plain_barcode():
    rng = random.Random(60)
    r = Ray(1, random_ray_cubes(rng, 1, 3), TailSpec.finite())
    code = completed_homology(r, F(3))
    plain = telescope_complex(r, len(r.prefix) + 1).barcode(F(3))
    assert code.free_bars == plain.free_bars
    assert code.torsion_bars == plain.torsion_bars
    assert code.is_zero  # the fully materialized telescope collapses


def test_acyclic_slices_certificate():
    # slices which are cones of identity maps
    rng = random.Random(61)
    base = random_acyclic_t0_complex(rng, max_pairs=2)
    r = identity_ray(base, 3)
    cert = acyclic_slices_implies_acyclic(r, WORK, 2)
    assert cert.ok
    # inject a non-acyclic slice: refusal
    live = ChainComplex([Generator("z", 0)], {})
    r_bad = identity_ray(live, 3)
    with pytest.raises(SliceNotAcyclic):
        acyclic_slices_implies_acyclic(r_bad, WORK, 2)


def test_a_slice_that_is_no_complex_at_work_raises():
    """Slices are read in place from D with their stage's certificate: an
    uncertified stage whose slice fails d*d at ``work`` raises, with the
    message of the iterated cone of the cut slice."""
    one = NovikovScalar.one()
    src = ChainComplex([Generator("x", 0), Generator("y", 1),
                        Generator("z", 0)], {("y", "x"): one, ("z", "y"): one})
    ray = Ray(1, [one_cube(src, ChainComplex([], {}), {})],
              TailSpec.finite(), check=False)
    assert ray.map_cube(1).verified_mod is None
    with pytest.raises(ValueError) as cut:
        total_complex(ray.slice(1)).is_acyclic(WORK)
    with pytest.raises(ValueError, match="^not a chain complex at this "
                       "precision: ") as in_place:
        acyclic_slices_implies_acyclic(ray, WORK, 0)
    assert str(in_place.value) == str(cut.value)


def test_mayer_vietoris_zero_square():
    zero = ChainComplex([], {})
    square = CubeDiagram(2, {w: zero for w in ("00", "01", "10", "11")}, {})
    rep = mayer_vietoris(square, WORK)
    assert rep.ok


def test_mayer_vietoris_degenerate_isomorphism():
    rng = random.Random(62)
    c = random_complex(rng, prefix="mv")
    zero = ChainComplex([], {})
    square = CubeDiagram(
        2, {"00": c, "10": c, "01": zero, "11": zero},
        {"-0": mat_identity(c.labels)})
    rep = mayer_vietoris(square, WORK)
    assert rep.ok
    assert rep.ranks["00"] == rep.ranks["10"]


def test_mayer_vietoris_on_id_cubes():
    rng = random.Random(63)
    for _ in range(10):
        f = random_cube(rng, 1)
        square = id_cube(f)
        rep = mayer_vietoris(square, WORK)
        assert rep.ok


def test_mayer_vietoris_rejects_non_acyclic():
    c = ChainComplex([Generator("x", 0)], {})
    zero = ChainComplex([], {})
    square = CubeDiagram(2, {"00": c, "10": zero, "01": zero, "11": zero}, {})
    with pytest.raises(NotAcyclic):
        mayer_vietoris(square, WORK)


def descent_square_ray(c: ChainComplex, length=2) -> Ray:
    """2-ray whose slices are identity squares on c (all four corners)."""
    ident = mat_identity(c.labels)
    sq = CubeDiagram(2, {w: c for w in ("00", "01", "10", "11")},
                     {"-0": dict(ident), "-1": dict(ident),
                      "0-": dict(ident), "1-": dict(ident), "--": {}})
    cube3 = id_cube(sq)
    return Ray(3, [cube3] * length, TailSpec.finite())


def test_descent_trivial_square_ray():
    rng = random.Random(64)
    c = random_complex(rng, prefix="ds")
    r = descent_square_ray(c)
    rep = descent_complex(r, WORK, 2)
    assert rep.acyclic
    assert rep.d0_matches_summands
    assert set(rep.degree_entry_counts) <= {0, 1, 2}


def test_degree_parts_grading():
    rng = random.Random(65)
    c = random_complex(rng, prefix="dg")
    r = descent_square_ray(c)
    cx = telescope_complex(r, 2)
    parts = degree_parts(cx)
    for k, entries in parts.items():
        for (t, s) in entries:
            assert t[0].count("1") - s[0].count("1") == k


# -- model tails: the per-ray stage cache and the tail verdict ---------------


def counting_model_ray(n, length, seed):
    """A model-tail ray over random glued cubes, counting stage_fn calls."""
    cubes = random_ray_cubes(random.Random(seed), n, length)
    calls = Counter()

    def stage(k):
        calls[k] += 1
        return cubes[k - 1]

    return Ray(n, [], TailSpec.model(stage), check=False), calls


def test_map_cube_is_built_once_per_ray():
    ray, calls = counting_model_ray(2, 3, 91)
    assert ray.map_cube(2) is ray.map_cube(2)
    telescope(ray, 2)
    telescope_complex(ray, 2)
    assert calls == Counter({1: 1, 2: 1})
    # a second ray over the same stage function keeps its own cache
    other = Ray(2, [], ray.tail, check=False)
    other.map_cube(1)
    assert calls[1] == 2


def test_derived_rays_read_the_parent_cache():
    ray, calls = counting_model_ray(3, 3, 92)
    stages = [ray.map_cube(k) for k in (1, 2, 3)]
    for w in vertex_codes(2):
        sub = vertex_ray(ray, w)
        telescope_complex(sub, 2)
        assert sub.map_cube(1) == stages[0].face_cube(w + "-")
    coned = cone_ray(ray, 1)
    telescope_complex(coned, 2)
    assert coned.map_cube(2) == cone(stages[1], 1)
    assert calls == Counter({1: 1, 2: 1, 3: 1})


def test_vertex_rays_build_no_view_of_their_stages():
    model = bundled_model("circle6")
    ray = descent_ray(model, [{"v0", "e0", "v1"},
                              {"v1", "e1", "v2", "e2", "v0"}])
    with vertex_views() as views:
        stage = ray.map_cube(1)
        for w in vertex_codes(ray.n - 1):
            edge = vertex_ray(ray, w).map_cube(1)
            assert edge.n == 1 and edge.verified_mod == stage.verified_mod
    assert views == []


def test_derived_rays_of_stationary_rays_map_the_tail():
    """The stationary branch of ``_derived``: a vertex ray of a 1-ray has
    the ray's own stages, and a cone ray the coned tail."""
    base = simple_complex("s", pairs=2)
    shift = {k: v.shift(1) for k, v in mat_identity(base.labels).items()}
    edge = one_cube(base, base, shift)
    ray = Ray(1, [one_cube(base, base, mat_identity(base.labels))],
              TailSpec.stationary(edge))
    sub = vertex_ray(ray, "")
    assert sub.tail.kind == "stationary"
    for k in (1, 2, 3):
        assert sub.map_cube(k) == ray.map_cube(k)
    ident = mat_identity(base.labels)
    square = CubeDiagram(2, dict.fromkeys(vertex_codes(2), base),
                         {"-0": ident, "-1": dict(ident), "0-": shift,
                          "1-": dict(shift)})
    ray2 = Ray(2, [square], TailSpec.stationary(square))
    coned = cone_ray(ray2, 1)
    assert coned.tail.kind == "stationary"
    assert coned.tail.cube == cone(square, 1)
    for k in (1, 2, 3):
        assert coned.map_cube(k) == cone(ray2.map_cube(k), 1)


def test_a_coned_ray_has_no_closed_form():
    """A model tail's closed form answers for its own ray: the cone of a
    ray does not borrow it, so its completed homology is refused, where
    the borrowed form gave an open bar to a cone whose slices and
    telescope have no T = 0 homology."""
    model = bundled_model("circle6")
    arc = Region.of(model, {"v0", "e0", "v1"})
    ray = region_ray({"0": arc, "1": arc}, arc.ray().tail.closed_form)
    assert not completed_homology(ray, 1).is_zero
    coned = cone_ray(ray, 1)
    assert coned.tail.kind == "model" and coned.tail.closed_form is None
    assert telescope_complex(coned, 3).reduce_t0().homology_ranks() == (0, 0)
    with pytest.raises(UnsupportedTail, match="no closed form"):
        completed_homology(coned, 1)


def test_a_summand_that_differs_from_its_block_is_reported(monkeypatch):
    """``d0_matches_summands`` compares each vertex's block of d_0 with the
    telescope of that vertex's ray: one stage-edge entry doubled in the
    vertex rays makes it False."""
    build = rays.vertex_ray

    def skewed(ray, w):
        sub = build(ray, w)

        def stage(k):
            cube = sub.map_cube(k)
            edge = cube.face("-")
            key = min(edge, key=repr)
            return one_cube(cube.vertex("0"), cube.vertex("1"),
                            {**edge, key: edge[key].scale(2)})

        return Ray(1, [], TailSpec.model(stage), check=False)

    assert descent_complex(identity_square_model_ray(lambda k: 1), WORK,
                           2).d0_matches_summands
    monkeypatch.setattr(rays, "vertex_ray", skewed)
    rep = descent_complex(identity_square_model_ray(lambda k: 1), WORK, 2)
    assert not rep.d0_matches_summands


def pair_complex(c):
    return ChainComplex([Generator("x", 1), Generator("y", 0)],
                        {("y", "x"): NovikovScalar.rational(c)})


def identity_square_model_ray(coeff) -> Ray:
    """2-ray whose slices are identity maps on x -> y with d = coeff(k),
    joined by the diagonal chain maps (coeff(k), coeff(k + 1))."""
    def stage(k):
        src, dst = pair_complex(coeff(k)), pair_complex(coeff(k + 1))
        f = {("x", "x"): NovikovScalar.rational(coeff(k)),
             ("y", "y"): NovikovScalar.rational(coeff(k + 1))}
        return CubeDiagram(2, {"00": src, "10": src, "01": dst, "11": dst},
                           {"-0": mat_identity(src.labels),
                            "-1": mat_identity(dst.labels),
                            "0-": f, "1-": dict(f)})

    return Ray(2, [], TailSpec.model(stage), check=False)


def test_descent_verdict_follows_the_tail_verdict():
    stable = identity_square_model_ray(lambda k: 1)
    rep = descent_complex(stable, WORK, 2)
    assert rep.certificate.tail is TailVerdict.MODEL_STABLE
    assert rep.certificate.tail_note == \
        "model tail T=0 structure stable at depth"
    assert rep.acyclic
    # the certificate handed the descent telescope equals a fresh one
    assert rep.certificate == acyclic_slices_implies_acyclic(
        identity_square_model_ray(lambda k: 1), WORK, 2)
    varies = identity_square_model_ray(lambda k: k)
    rep = descent_complex(varies, WORK, 2)
    assert rep.certificate.ok
    assert rep.certificate.tail is TailVerdict.MODEL_VARIES
    assert rep.certificate.tail_note == (
        "model tail varies at depth; certificate covers the materialized "
        "stages only")
    assert not rep.acyclic


def test_finite_and_stationary_tail_verdicts():
    rng = random.Random(93)
    base = random_acyclic_t0_complex(rng, max_pairs=2)
    cert = acyclic_slices_implies_acyclic(identity_ray(base, 3), WORK, 2)
    assert cert.tail is TailVerdict.FINITE
    assert cert.tail_note == "tail slices vanish"
    cube = one_cube(base, base, {k: v.shift(1) for k, v in
                                 mat_identity(base.labels).items()})
    cert = acyclic_slices_implies_acyclic(
        Ray(1, [], TailSpec.stationary(cube)), WORK, 2)
    assert cert.tail is TailVerdict.STATIONARY_ACYCLIC
    assert cert.tail_note == "stationary tail slice acyclic"


def test_a_summand_that_differs_from_its_block_modulo_t_is_reported(
        monkeypatch):
    """Blocks of d_0 and telescopes of the vertex rays are stored maps and
    compare exactly: a vertex differential of the vertex rays that gains
    the entry ``0 mod T^1`` makes ``d0_matches_summands`` False."""
    build = rays.vertex_ray
    fuzzy = parse_scalar("0 mod T^1")

    def skewed(ray, w):
        sub = build(ray, w)

        def stage(k):
            cube = sub.map_cube(k)
            src = cube.vertex("0")
            src = ChainComplex(src.generators,
                               {**src.differential, ("x", "y"): fuzzy})
            return one_cube(src, cube.vertex("1"), cube.face("-"))

        return Ray(1, [], TailSpec.model(stage), check=False)

    monkeypatch.setattr(rays, "vertex_ray", skewed)
    rep = descent_complex(identity_square_model_ray(lambda k: 1), WORK, 2)
    assert not rep.d0_matches_summands


def _rays_for_refusals():
    """An identity 1-ray on a -> b, and the 2-ray of its identity squares."""
    ray1 = identity_ray(simple_complex("c"), 2)
    return ray1, Ray(2, [id_cube(ray1.map_cube(1))], TailSpec.finite())


def _tail_not_acyclic():
    """A prefix from an acyclic slice to a lone generator x, whose
    stationary tail x -> x by T^1 is not acyclic."""
    x = ChainComplex([Generator("x", 0)], {})
    prefix = one_cube(simple_complex("c"), x, {})
    tail = one_cube(x, x, {("x", "x"): NovikovScalar.monomial(1, 1)})
    ray = Ray(1, [prefix], TailSpec.stationary(tail))
    return acyclic_slices_implies_acyclic(ray, WORK, 0)


def _tail_after_another_slice():
    """A prefix cube on c followed by the stationary tail T id on d."""
    d = simple_complex("d")
    tail = one_cube(d, d, {(l, l): NovikovScalar.monomial(1, 1)
                           for l in d.labels})
    return Ray(1, identity_ray(simple_complex("c"), 1).prefix,
               TailSpec.stationary(tail))


@pytest.mark.parametrize("call,exc,message", [
    (lambda r1, r2: TailSpec.stationary(r1.map_cube(1)), ValueError,
     "stationary tail needs mapping valuations bounded below by a "
     "positive gap, got 0"),
    (lambda r1, r2: Ray(2, [r1.map_cube(1)], TailSpec.finite()),
     ValueError, "prefix cube 1 has dimension 1"),
    (lambda r1, r2: Ray(1, [r1.map_cube(1),
                            identity_ray(simple_complex("d"), 1).map_cube(1)],
                        TailSpec.finite()),
     ValueError,
     "prefix cube 1, face '1': does not glue onto prefix cube 2"),
    (lambda r1, r2: _tail_after_another_slice(), ValueError,
     "prefix cube 1, face '1': does not glue onto tail cube"),
    (lambda r1, r2: r1.map_cube(0), IndexError, "stages are 1-based"),
    (lambda r1, r2: cone_ray(r2, 2), ValueError,
     "cone direction must avoid the gluing direction"),
    (lambda r1, r2: stage_composite(r2, 1, 2), ValueError,
     "stage composites are for 1-rays"),
    (lambda r1, r2: colimit_t0(r2, 1), ValueError,
     "direct limits are computed for 1-rays"),
    (lambda r1, r2: compression(r2, [1, 2]), ValueError,
     "compression is implemented for 1-rays"),
    (lambda r1, r2: compression(r1, [0, 2]), ValueError,
     "stages are 1-based"),
    (lambda r1, r2: _tail_not_acyclic(), SliceNotAcyclic,
     "stationary tail slice is not acyclic"),
    (lambda r1, r2: mayer_vietoris(id_cube(r2.map_cube(1)), WORK),
     ValueError, "mayer_vietoris expects a 2-cube"),
], ids=["stationary-gap", "prefix-dimension", "prefix-glue", "tail-glue",
        "map-cube-0", "cone-ray-direction", "stage-composite", "colimit",
        "compression-n", "compression-index", "stationary-slice",
        "mayer-vietoris-n"])
def test_ray_refusals_name_their_cause(call, exc, message):
    with pytest.raises(exc) as err:
        call(*_rays_for_refusals())
    assert err.value.args == (message,)
