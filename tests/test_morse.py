"""The cell model: weighted complexes, completed limits, min/max, descent."""

import importlib.util
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from construction_oracle import (descent_ray, projected_betti,
                                 region_family, region_hamiltonian,
                                 resolve_region)
from hypothesis import given, settings
from hypothesis import strategies as st
from t0_oracle import propagated_match

from novcube import cubes, morse, novikov, rays
from novcube.chain import Generator, mat_compose, mat_equal, is_chain_map
from novcube.cubes import CubeDiagram, verify_cube
from novcube.linalg import nullspace, rank
from novcube.morse import (Inadmissible, InadmissibleSubset, MorseModel,
                           NotMonotone, NotNegative, Region,
                           StageCheckFailed, bundled_model, cf, continuation,
                           empty_set, global_sections,
                           involutive_descent_instance, minmax_square,
                           model_from_json, model_to_json, relative_sh,
                           scaling_ray)
from novcube.novikov import INFINITY, NovikovScalar, parse_scalar
from novcube.rays import (Ray, TailSpec, acyclic_slices_implies_acyclic,
                          descent_complex, mayer_vietoris, telescope,
                          vertex_ray)

WORK = 3


def spec_interval():
    """Interval with values 0, 0, 1 (weights only, not for global limits)."""
    return MorseModel(
        [Generator("a0", 0), Generator("a1", 0), Generator("b", 1)],
        {("b", "a0"): 1, ("b", "a1"): -1},
        {"a0": 0, "a1": 0, "b": 1})


def test_cf_zero_weight_is_plain_complex():
    m = bundled_model("circle")
    h = {l: F(0) for l in m.labels}
    c = cf(m, h)
    for (q, p), v in c.differential.items():
        assert v.val() == 0
        assert v.reduce_t0() == m.boundary[(q, p)]


def test_cf_sphere_zero_differential():
    m = bundled_model("s2")
    c = cf(m, {l: F(-1) for l in m.labels})
    assert c.differential == {}


def test_cf_interval_half_weights():
    m = spec_interval()
    h = {l: m.values[l] / 2 for l in m.labels}
    c = cf(m, h)
    assert c.differential[("b", "a0")] == parse_scalar("1*T^{1/2}")
    assert c.differential[("b", "a1")] == parse_scalar("-1*T^{1/2}")


def test_cf_inadmissible():
    m = spec_interval()
    with pytest.raises(Inadmissible):
        cf(m, {"a0": F(1), "a1": F(0), "b": F(0)})


def test_inadmissible_messages_are_pinned():
    with pytest.raises(Inadmissible) as arrow:
        cf(spec_interval(), {"a0": F(1), "a1": F(0), "b": F(0)})
    assert str(arrow.value) == ("weight function decreases along "
                                "[('b', 'a0', Fraction(-1, 1))]")
    # m0 and m6 both lie over the base point v0
    m = bundled_model("circle12")
    h = dict(m.values)
    with pytest.raises(Inadmissible) as base:
        cf(m, {**h, "m0": F(-2)})
    assert str(base.value) == ("weight function decreases along "
                               "[('m6', 'base', 'v0')]")
    with pytest.raises(Inadmissible) as both:
        cf(m, {**h, "m0": F(0)})
    assert str(both.value) == (
        "weight function decreases along [('m1', 'm0', Fraction(-1, 2)), "
        "('m11', 'm0', Fraction(-1, 2)), ('m6', 'base', 'v0')]")
    with pytest.raises(Inadmissible) as square:
        minmax_square(m, h, {**h, "m0": F(-2)})
    assert str(square.value) == "violations [('m6', 'base', 'v0')]"


def test_continuation_identity_and_chain_map():
    rng = random.Random(70)
    m = bundled_model("grid9")
    h = dict(m.values)
    assert continuation(m, h, h) == {
        (l, l): NovikovScalar.one() for l in m.labels}
    for _ in range(30):
        a = F(rng.randint(1, 4))
        b = F(rng.randint(0, 3))
        h2 = {l: a * m.values[l] + b for l in m.labels}
        lo = {l: min(h[l], h2[l]) for l in m.labels}
        hi = {l: max(h[l], h2[l]) for l in m.labels}
        con = continuation(m, lo, hi)
        assert is_chain_map(con, cf(m, lo), cf(m, hi))
    with pytest.raises(NotMonotone):
        continuation(m, {l: F(1) for l in m.labels},
                     {l: F(0) for l in m.labels})


def test_continuation_scaling_weights():
    m = bundled_model("t2")
    for n in (1, 2, 5):
        h_n = {l: m.values[l] / n for l in m.labels}
        h_n1 = {l: m.values[l] / (n + 1) for l in m.labels}
        con = continuation(m, h_n, h_n1)
        for l in m.labels:
            assert con[(l, l)].val() == -m.values[l] / (n * (n + 1))


def test_global_sections_models():
    for name, betti in [("s2", (2, 0)), ("t2", (2, 2)),
                        ("interval", (1, 0)), ("circle", (1, 1))]:
        rep = global_sections(bundled_model(name), F(1), 6)
        assert rep.barcode.open_ranks() == betti
        assert rep.barcode.free_bars == ()
        assert rep.barcode.torsion_bars == ()


def test_global_sections_requires_negative():
    with pytest.raises(NotNegative):
        global_sections(spec_interval(), F(1), 3)


def test_empty_set_vanishes():
    for name in ("point", "interval", "circle6"):
        m = bundled_model(name)
        for r0 in (F(1, 2), F(1), F(5)):
            assert empty_set(m, r0).is_zero


def test_cofinal_family_examples():
    m = bundled_model("interval")

    def cofinal_family(region, stages):
        cells = resolve_region(m, region)
        return [region_hamiltonian(m, cells, i) for i in range(1, stages + 1)]

    fam = cofinal_family(["a0", "a1", "b"], 3)
    assert all(fam[i - 1][l] == F(-1, i)
               for i in (1, 2, 3) for l in m.labels)
    fam0 = cofinal_family([], 3)
    assert all(fam0[i - 1][l] == F(i) for i in (1, 2, 3) for l in m.labels)
    # closed sublevel region is admissible at every stage
    ray = Region.of(m, ["a0", "a1"]).ray()
    for k in range(1, 5):
        assert ray.map_cube(k).vertex("0").verify(WORK).ok


def test_cofinal_family_rejects_open_region():
    m = bundled_model("circle")
    # an edge alone receives arrows from its endpoints
    with pytest.raises(InadmissibleSubset):
        Region.of(m, ["e0"])


def test_minmax_square_piece_types():
    m = bundled_model("circle")
    h = dict(m.values)
    rep_eq = minmax_square(m, h, h)
    assert set(rep_eq.pieces.values()) == {"four"}
    assert rep_eq.pieces_match and rep_eq.acyclic
    assert rep_eq.strict_commutation
    assert verify_cube(rep_eq.square, WORK).ok
    h2 = {l: h[l] + F(1, 2) for l in m.labels}
    rep_lt = minmax_square(m, h, h2)
    assert set(rep_lt.pieces.values()) == {"two+two"}
    assert rep_lt.pieces_match and rep_lt.acyclic


CORNER_ARROWS = [("10", "00"), ("01", "00"), ("11", "10"), ("11", "01"),
                 ("11", "00"), ("00", "10")]
nonzero = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def piece_blocks(draw):
    """A normal form of a piece and a block on the same corners: a
    rescaling of it, perhaps with one entry off, or random entries on its
    support, or on a random set of arrows."""
    target = draw(st.sampled_from([morse._FOUR, morse._TWO_X,
                                   morse._TWO_Y]))
    mode = draw(st.sampled_from(["rescaled", "off", "support", "arrows"]))
    if mode in ("rescaled", "off"):
        lam = {w: draw(nonzero) for w in ("00", "10", "01", "11")}
        block = {(t, s): c * lam[s] / lam[t] for (t, s), c in target.items()}
        if mode == "off":
            k = draw(st.sampled_from(sorted(block)))
            block[k] *= draw(nonzero.filter(lambda x: x != 1))
    else:
        arrows = sorted(target) if mode == "support" else draw(
            st.lists(st.sampled_from(CORNER_ARROWS), unique=True))
        block = {k: draw(nonzero) for k in arrows}
    return block, target


@settings(max_examples=300, deadline=None)
@given(piece_blocks())
def test_piece_match_agrees_with_propagated_scales(case):
    block, target = case
    assert morse._match_rescaled(block, target) == \
        propagated_match(block, target)


def test_piece_match_decides_the_four_cycle_by_its_path_ratio():
    four = morse._FOUR
    assert morse._match_rescaled(dict(four), four)
    scaled = {k: 2 * v if k[0] == "11" else v for k, v in four.items()}
    assert morse._match_rescaled(scaled, four)
    broken = {**four, ("11", "01"): F(1)}
    assert not morse._match_rescaled(broken, four)
    assert not propagated_match(broken, four)
    assert not morse._match_rescaled(morse._TWO_X, four)


def random_admissible_pair(rng, m):
    def rand_h():
        a = F(rng.randint(0, 3))
        b = F(rng.randint(-2, 2), rng.choice([1, 2, 3]))
        return {l: a * m.values[l] + b for l in m.labels}
    return rand_h(), rand_h()


def test_minmax_square_checks_admissibility_twice(monkeypatch):
    """h_x and h_y once each; the square's four vertices are checked on
    the numerators ``hamiltonian_cube`` already has, not through
    ``admissibility``."""
    calls = []
    check = morse.admissibility

    def counting(model, h):
        calls.append(h)
        return check(model, h)

    monkeypatch.setattr(morse, "admissibility", counting)
    m = bundled_model("circle")
    hx, hy = random_admissible_pair(random.Random(5), m)
    minmax_square(m, hx, hy)
    assert len(calls) == 2


def test_strict_commutation_reads_the_square(monkeypatch):
    """Doubling one entry of the 1- edge breaks the square's commutation,
    and the flag says so."""
    build = morse.hamiltonian_cube

    def skewed(model, assign):
        cube = build(model, assign)
        faces = {code: cube.face(code) for code in ("-0", "0-", "-1", "1-")}
        key = min(faces["1-"], key=repr)
        faces["1-"] = {**faces["1-"], key: faces["1-"][key].scale(2)}
        return CubeDiagram(2, cube.vertices, faces)

    m = bundled_model("circle6")
    h = dict(m.values)
    h2 = {l: h[l] + F(1, 2) for l in m.labels}
    assert minmax_square(m, h, h2).strict_commutation
    monkeypatch.setattr(morse, "hamiltonian_cube", skewed)
    assert not minmax_square(m, h, h2).strict_commutation


def admissible_closure(m, raw):
    """The least weight above ``raw`` that is admissible on ``m``: raise
    each arrow's target to its source and each base fibre to its maximum
    until nothing moves."""
    h = dict(raw)
    fibres = {}
    for l in m.labels:
        if m.base_map is not None:
            fibres.setdefault(m.base_map[l], []).append(l)
    moved = True
    while moved:
        moved = False
        for q, p in m.boundary:
            if h[q] < h[p]:
                h[q], moved = h[p], True
        for cells in fibres.values():
            top = max(h[l] for l in cells)
            for l in cells:
                if h[l] != top:
                    h[l], moved = top, True
    return h


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["interval", "circle", "circle6", "circle12",
                        "grid9", "s2", "t2"]), st.data())
def test_min_and_max_of_admissible_weights_are_admissible(name, data):
    m = bundled_model(name)
    weights = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    hx, hy = (admissible_closure(m, {l: data.draw(weights)
                                     for l in m.labels})
              for _ in range(2))
    assert not morse.admissibility(m, hx)[1]
    assert not morse.admissibility(m, hy)[1]
    for pick in (min, max):
        h = {l: pick(hx[l], hy[l]) for l in m.labels}
        assert not morse.admissibility(m, h)[1]


def test_minmax_square_random_pairs():
    rng = random.Random(71)
    models = [bundled_model(n) for n in ("interval", "circle", "grid9")]
    for _ in range(60):
        m = rng.choice(models)
        hx, hy = random_admissible_pair(rng, m)
        rep = minmax_square(m, hx, hy)
        assert rep.acyclic and rep.pieces_match and rep.strict_commutation
        mv = mayer_vietoris(rep.square, WORK)
        assert mv.ok


def test_relative_sh_examples():
    m = bundled_model("interval")
    everything = relative_sh(m, ["a0", "a1", "b"], F(1), 4)
    glob = global_sections(m, F(1), 4)
    assert everything.barcode == glob.barcode
    assert relative_sh(m, [], F(1), 3).barcode.is_zero
    # closed sublevel region {values <= -1}: two disjoint vertices
    sub = relative_sh(m, ["a0", "a1"], F(1), 4)
    assert sub.barcode.open_ranks() == (2, 0)
    # subcomplex homology computed independently
    assert projected_betti(m, {"a0", "a1"}) == (2, 0)
    # closed arc on the circle has interval homology
    c6 = bundled_model("circle6")
    arc = relative_sh(c6, ["v0", "e0", "v1"], F(1), 4)
    assert arc.barcode.open_ranks() == (1, 0)


def test_restriction_maps_presheaf_property():
    # strict composition of the diagonal restrictions along nested regions
    m = bundled_model("circle6")
    k2 = {"v0"}
    k1 = {"v0", "e0", "v1"}
    k0 = {"v0", "e0", "v1", "e1", "v2"}
    for i in (1, 2, 3):
        h0 = region_hamiltonian(m, resolve_region(m, k0), i)
        h1 = region_hamiltonian(m, resolve_region(m, k1), i)
        h2 = region_hamiltonian(m, resolve_region(m, k2), i)
        r01 = continuation(m, h0, h1)
        r12 = continuation(m, h1, h2)
        r02 = continuation(m, h0, h2)
        assert mat_equal(mat_compose(r12, r01), r02)


# ---------------------------------------------------------------------------
# independent oracle: completed limits on an exponent subgrid over Q
#
# Work in the subring with exponents in (1/N)Z, truncated at r0 = 1.  Each
# stage complex becomes a finite-dimensional Q-complex with basis (cell, a)
# for exponents a/N; stage maps are grid shifts.  The dimension of the
# image of H(stage j) in H(stage D), with 1/j - 1/D equal to one grid
# step, must be (N - 1) per open bar: the T^0 class falls away (the bar is
# open at zero) and every positive grid exponent survives.


def grid_q_complex(model, cells, stage, N):
    h = region_hamiltonian(model, cells, stage)
    labels = [(l, a) for l in model.labels for a in range(N)]
    idx = {l: i for i, l in enumerate(labels)}
    entries = {}
    for (q, p), c in model.boundary.items():
        shift = h[q] - h[p]
        if shift >= 1:
            continue
        steps = shift * N
        assert steps.denominator == 1
        for a in range(N):
            if a + steps < N:
                entries[(idx[(q, a + int(steps))], idx[(p, a)])] = F(c)
    return labels, idx, entries


def grid_image_homology_dims(model, region, N, j, D):
    cells = resolve_region(model, region)
    labels, idx, d_src = grid_q_complex(model, cells, j, N)
    _, _, d_dst = grid_q_complex(model, cells, D, N)
    h_j = region_hamiltonian(model, cells, j)
    h_D = region_hamiltonian(model, cells, D)
    fmap = {}
    for (l, a) in labels:
        shift = (h_D[l] - h_j[l]) * N
        if shift.denominator != 1:
            continue
        if a + shift < N:
            fmap[(idx[(l, a + int(shift))], idx[(l, a)])] = F(1)
    dims = []
    for parity in (0, 1):
        cols_p = [i for i, (l, _) in enumerate(labels)
                  if model.parity(l) == parity]
        rows_o = [i for i, (l, _) in enumerate(labels)
                  if model.parity(l) != parity]
        # cycles at stage j
        if rows_o:
            d_out = [[d_src.get((r, c), F(0)) for c in cols_p]
                     for r in rows_o]
            cycles = nullspace(d_out)
        else:
            cycles = [[F(1) if i == j else F(0) for i in range(len(cols_p))]
                      for j in range(len(cols_p))]
        # boundaries at stage D and the mapped cycles, as columns
        cols = []
        for z in cycles:
            image = {}
            for ci, c in enumerate(cols_p):
                if z[ci]:
                    for (t, s), v in fmap.items():
                        if s == c:
                            image[t] = image.get(t, F(0)) + v * z[ci]
            cols.append([image.get(r, F(0)) for r in cols_p])
        boundaries = []
        for s in rows_o:
            col = [d_dst.get((r, s), F(0)) for r in cols_p]
            if any(col):
                boundaries.append(col)
        mat_b = [[b[i] for b in boundaries] for i in range(len(cols_p))]
        mat_all = [[x[i] for x in (boundaries + cols)]
                   for i in range(len(cols_p))]
        dims.append(rank(mat_all) - rank(mat_b))
    return tuple(dims)


@pytest.mark.parametrize("name,region,expected", [
    ("interval", ["a0", "a1", "b"], (1, 0)),
    ("s2", ["bottom", "top"], (2, 0)),
    ("circle", ["v0", "v1", "e0", "e1"], (1, 1)),
    ("interval", ["a0", "a1"], (2, 0)),
])
def test_grid_oracle_open_bars(name, region, expected):
    m = bundled_model(name)
    N = 12
    dims = grid_image_homology_dims(m, region, N, 6, 12)
    closed_form = relative_sh(m, region, F(1), 3).barcode.open_ranks()
    assert closed_form == expected
    assert dims == tuple((N - 1) * b for b in expected)


def test_minmax_on_sublevel_pair_circle():
    # two closed-region weight functions on the circle: the square is a
    # descent slice, and the six-term sequence is exact at all three spots
    m = bundled_model("circle")
    r1 = resolve_region(m, {"v0", "e0", "v1"})
    r2 = resolve_region(m, {"v1", "e1", "v0"})
    for stage in (1, 2, 3):
        hx = region_hamiltonian(m, r1, stage)
        hy = region_hamiltonian(m, r2, stage)
        rep = minmax_square(m, hx, hy)
        assert rep.acyclic
        assert mayer_vietoris(rep.square, WORK).ok


def test_descent_two_subsets_iff_mayer_vietoris():
    # cross-validation: the two-subset verdict is acyclic exactly when the
    # corresponding min/max squares pass the exact-sequence extraction
    from novcube.rays import descent_complex, telescope
    m = bundled_model("circle6")
    regions = [{"v0", "e0", "v1"}, {"v1", "e1", "v2", "e2", "v0"}]
    ray = descent_ray(m, regions)
    rep = descent_complex(ray, WORK, 2)
    assert rep.acyclic
    for k in (1, 2, 3):
        slice_square = ray.slice(k)
        assert mayer_vietoris(slice_square, WORK).ok
    # the square of the materialized per-region telescopes is exact too
    tel_square = telescope(ray, 2)
    assert mayer_vietoris(tel_square, WORK).ok


@pytest.mark.parametrize("name, a, b", [
    ("circle6", {"v0", "e0", "v1"}, {"v1", "e1", "v2"}),
    ("grid9", {"v00", "ex0", "v10"}, {"v10", "ey1", "v11"}),
])
def test_family_rays_build_the_stages_of_their_assignments(name, a, b):
    """Stage k of each ray is the cube of the weight functions at k (on
    x = 0) and at k + 1 (on x = 1), vertex by vertex of the slice cube."""
    from novcube.morse import hamiltonian_cube
    m = bundled_model(name)

    def region(cells, i):
        return {l: F(-1, i) if l in cells else F(i) for l in m.labels}

    scaling, subset = scaling_ray(m), Region.of(m, a).ray()
    descent = descent_ray(m, [a, b])
    corners = {"00": a | b, "10": a, "01": b, "11": a & b}
    for k in (1, 2, 3):
        assert scaling.map_cube(k) == hamiltonian_cube(m, {
            "0": {l: m.values[l] / k for l in m.labels},
            "1": {l: m.values[l] / (k + 1) for l in m.labels}})
        assert subset.map_cube(k) == hamiltonian_cube(m, {
            "0": region(a, k), "1": region(a, k + 1)})
        assert descent.map_cube(k) == hamiltonian_cube(m, {
            w + x: region(cells, k + int(x))
            for w, cells in corners.items() for x in "01"})


# ---------------------------------------------------------------------------
# descent battery (full runs in acceptance; a sample here)


def test_involutive_descent_circle_pair():
    m = bundled_model("circle6")
    rep = involutive_descent_instance(
        m, [{"v0", "e0", "v1"}, {"v1", "e1", "v2", "e2", "v0"}], F(1))
    assert rep.acyclic
    assert rep.verdict.d0_matches_summands


def test_involutive_descent_empty_second_region():
    # X2 empty: reduces to the cone of the restriction union -> X1
    m = bundled_model("circle6")
    rep = involutive_descent_instance(m, [{"v0", "e0", "v1"}, set()], F(1))
    assert rep.acyclic


ARCS6 = [{"v0", "e0", "v1"}, {"v1", "e1", "v2"}, {"v2", "e2", "v0"}]
REST6 = {"v1", "e1", "v2", "e2", "v0"}


def test_a_region_summand_with_other_stage_weights_is_reported(
        monkeypatch):
    """A model ray's d_0 summands are the telescopes of its regions' own
    rays, built apart from it: one region whose own ray weighs the cells
    off it by 2k, where its family weighs k, makes ``d0_matches_summands``
    False and leaves the slice verdict as it is."""
    m = bundled_model("circle6")
    arc = Region.of(m, ARCS6[0])
    own = Region.ray

    def patched(region):
        if region.cells != arc.cells:
            return own(region)
        twin = Region(m, region.cells)
        for k in (1, 2, 3):
            twin._stages[k] = tuple(
                morse.Weights(w.den, {l: 2 * n if n > 0 else n
                                      for l, n in w.items()})
                for w in region.stage(k))
        return own(twin)

    assert involutive_descent_instance(
        m, [ARCS6[0], REST6], F(1)).verdict.d0_matches_summands
    monkeypatch.setattr(Region, "ray", patched)
    rep = involutive_descent_instance(m, [ARCS6[0], REST6], F(1))
    assert rep.acyclic and not rep.verdict.d0_matches_summands


@pytest.mark.parametrize("name, regions", [
    ("circle6", [ARCS6[0], REST6]),
    ("circle6", ARCS6),
    ("circle12", [ARCS6[0], REST6]),
])
def test_involutive_descent_builds_each_stage_once(monkeypatch, name,
                                                   regions):
    counters = []
    build = morse.region_ray

    def counting_region_ray(regs, closed_form=None):
        ray = build(regs, closed_form)
        stage_fn = ray.tail.stage_fn
        calls = Counter()
        counters.append((regs, calls))

        def stage(k):
            calls[k] += 1
            return stage_fn(k)

        return Ray(ray.n, ray.prefix, TailSpec.model(stage), check=False)

    monkeypatch.setattr(morse, "region_ray", counting_region_ray)
    rep = involutive_descent_instance(bundled_model(name), regions, F(1),
                                      depth=2)
    assert rep.acyclic
    # the triple ray plus one ray per pair, and the own ray of each
    # distinct region of their subset cubes, its d_0 summand
    descents = [regs for regs, _ in counters if "" not in regs]
    own = [regs[""].cells for regs, _ in counters if "" in regs]
    assert len(descents) == (4 if len(regions) == 3 else 1)
    assert sorted(own, key=sorted) == sorted(
        {r.cells for regs in descents for r in regs.values()}, key=sorted)
    for _, calls in counters:
        assert calls and set(calls.values()) == {1}


def test_a_descent_ray_and_its_vertex_rays_carry_their_regions(
        monkeypatch):
    """The rays of a three-region instance keep their subset cubes'
    regions, each distinct region built once for all four descent rays and
    for its own ray, the d_0 summand; a vertex ray carries its vertex's
    region and, being derived, no closed form."""
    rays = []
    build = morse.region_ray

    def keeping(regions, closed_form=None):
        rays.append(build(regions, closed_form))
        return rays[-1]

    monkeypatch.setattr(morse, "region_ray", keeping)
    m = bundled_model("circle6")
    assert involutive_descent_instance(m, ARCS6, F(1)).acyclic
    # four descent rays, and 11 distinct regions: the triple's eight, and
    # the union of each pair
    assert len(rays) == 15
    descents = [r for r in rays if r.n > 1]
    assert len(descents) == 4
    ray = descents[0]
    assert {w: r.cells for w, r in ray.tail.regions.items()} == \
        region_family([resolve_region(m, r) for r in ARCS6])
    for w, region in ray.tail.regions.items():
        sub = vertex_ray(ray, w)
        assert sub.tail.regions == {"": region}
        assert sub.tail.regions[""] is region
        assert sub.tail.closed_form is None
    built = {}
    for r in rays:
        for region in r.tail.regions.values():
            assert built.setdefault(region.cells, region) is region
    assert len(built) == len(rays) - len(descents) == 11


def fractions_built_in_morse(run) -> int:
    """How many ``Fraction``s code in ``morse.py`` constructs while
    ``run()`` runs (calls of ``Fraction.__new__`` made from it)."""
    count = 0
    new, where = F.__new__.__code__, morse.__file__

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is new and \
                frame.f_back.f_code.co_filename == where:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_a_descent_round_builds_no_fraction_in_morse(tmp_path):
    """One round of the benchmark's ``descent`` workload at seed 43: the
    regions' stage weights are ``int`` numerators on the stage lattice,
    so ``morse`` builds no ``Fraction``.  A refused weight function, whose
    message prints its drops as ``Fraction``s, shows the count works."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    instances, _ = gen.generate("descent", 43, tmp_path)
    inputs = []
    for instance in instances:
        data = json.loads((tmp_path / instance["file"]).read_text())
        inputs.append((model_from_json(data["model"]),
                       [set(r) for r in data["regions"]]))
    verdicts = []

    def round_():
        for model, regions in inputs:
            verdicts.append(involutive_descent_instance(model, regions, 1))

    assert fractions_built_in_morse(round_) == 0
    assert len(verdicts) == len(instances) == 10
    assert all(v.acyclic for v in verdicts)

    def refused():
        with pytest.raises(Inadmissible):
            cf(spec_interval(), {"a0": F(1), "a1": F(0), "b": F(0)})

    assert fractions_built_in_morse(refused) == 1


def scalars_built(run) -> int:
    """How many ``NovikovScalar``s ``run()`` builds: calls of
    ``novikov._make`` and of ``NovikovScalar.__init__``, the two ways to
    ``NovikovScalar.__new__``."""
    count = 0
    makers = (novikov._make.__code__, NovikovScalar.__init__.__code__)

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in makers:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_a_stage_shares_one_scalar_per_monomial_within_one_call():
    """Equal entries of one ``hamiltonian_cube`` are one object; two calls
    on the same weights build equal cubes that share no entry."""
    m = bundled_model("circle6")
    arc = Region.of(m, ARCS6[0])
    assign = dict(zip(("0", "1"), arc.stage(2)))
    first, second = (morse.hamiltonian_cube(m, assign) for _ in range(2))
    for cube in (first, second):
        one = {}
        for v in cube.D.values():
            assert one.setdefault(v, v) is v
        assert len(one) < len(cube.D)
    assert first == second
    assert not {id(v) for v in first.D.values()} & \
        {id(v) for v in second.D.values()}


def test_a_descent_round_builds_its_scalars_afresh(monkeypatch, tmp_path):
    """No scalar outlives the ``hamiltonian_cube`` call that built it: one
    round of the benchmark's ``descent`` workload at seed 43, on the same
    model objects, builds as many ``NovikovScalar``s the second time as
    the first, and at most 10,000 (31,919 with one scalar per entry), and
    the stages of the two rounds share no entry."""
    stages = []
    make = morse.hamiltonian_cube

    def keeping(*args):
        stages[-1].append(make(*args))
        return stages[-1][-1]

    monkeypatch.setattr(morse, "hamiltonian_cube", keeping)
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    instances, _ = gen.generate("descent", 43, tmp_path)
    inputs = []
    for instance in instances:
        data = json.loads((tmp_path / instance["file"]).read_text())
        inputs.append((model_from_json(data["model"]), data["regions"]))

    def round_():
        stages.append([])
        for model, regions in inputs:
            assert involutive_descent_instance(model, regions, 1).acyclic

    first = scalars_built(round_)
    assert first == scalars_built(round_) <= 10_000
    a, b = ({id(v) for cube in cs for v in cube.D.values()} for cs in stages)
    assert a and not a & b


def test_region_rays_prove_their_glue_and_refuse_bad_glue(monkeypatch):
    """A descent call compares no stage faces: its region rays glue by
    their weights.  A model tail that keeps the same regions but has a
    stage function of its own still compares faces, and refuses a stage 2
    with the same weights and one boundary coefficient negated; a region
    whose stage 2 weights are another region's is refused by the proof,
    and the faces disagree too.  Neither telescope has a certificate."""
    compared = []

    def counting(*args):
        compared.append(args)
        return cubes.glueable(*args)

    monkeypatch.setattr(rays, "glueable", counting)
    m = bundled_model("circle6")
    assert involutive_descent_instance(m, ARCS6, F(1)).acyclic
    assert compared == []

    arc = Region.of(m, ARCS6[0])
    regions = {"0": arc, "1": arc}
    good = morse.region_ray(regions)
    assert good.glued_through(3) and compared == []
    assert telescope(good, 2).verified_mod == INFINITY
    flipped = MorseModel(m.cells, {a: -c if a == ("e0", "v0") else c
                                   for a, c in m.boundary.items()},
                         m.values, m.base_map)

    def foreign(k):
        if k != 2:
            return good.map_cube(k)
        return morse.hamiltonian_cube(flipped, {
            w + b: h for w, r in regions.items()
            for b, h in zip("01", r.stage(k))})

    other = Ray(2, [], TailSpec.model(foreign, regions=regions),
                check=False)
    assert other.tail.regions is regions
    assert not other.glued_through(1) and len(compared) == 1
    assert telescope(other, 2).verified_mod is None

    patched = Region.of(m, ARCS6[0])
    patched._stages[2] = Region.of(m, ARCS6[1]).stage(2)
    ray = morse.region_ray({"0": patched, "1": patched})
    assert not ray.glued_through(1) and len(compared) == 1
    assert telescope(ray, 2).verified_mod is None
    assert not cubes.glueable(ray.map_cube(1), ray.map_cube(2))


@pytest.mark.parametrize("entry", ["involutive", "descent", "slices"])
def test_a_negative_depth_is_refused_before_any_stage(monkeypatch, entry):
    """A negative depth checks no slice: each descent entry point raises
    ``ValueError`` naming it before it builds a stage, where the slice
    check read a complex it never bound.  Depth 0 is still computed."""
    built = []
    make = morse.hamiltonian_cube

    def counting(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(morse, "hamiltonian_cube", counting)
    m = bundled_model("circle6")
    arc = Region.of(m, ARCS6[0])
    ray = morse.region_ray({"0": arc, "1": arc})
    run = {"involutive": lambda depth: involutive_descent_instance(
               m, ARCS6[:2], 1, depth),
           "descent": lambda depth: descent_complex(ray, 1, depth),
           "slices": lambda depth: acyclic_slices_implies_acyclic(
               ray, 1, depth)}[entry]
    with pytest.raises(ValueError, match="^depth -1 is negative"):
        run(-1)
    assert built == []
    run(0)
    assert built


def test_involutive_requires_base():
    m = MorseModel([Generator("x", 0)], {}, {"x": F(-1)})
    with pytest.raises(InadmissibleSubset):
        involutive_descent_instance(m, [{"x"}, set()], F(1))


def test_field_tensored_observable():
    # tensoring with the fraction field kills torsion and keeps free and
    # open bars: the all_torsion flag records a vanishing field verdict
    m = bundled_model("s2")
    rep = global_sections(m, F(1), 3)
    assert not rep.barcode.all_torsion
    h = dict(m.values)
    code = cf(m, h).barcode(3)
    assert not code.all_torsion  # free bars survive
    from novcube.chain import ChainComplex, Generator
    from novcube.novikov import NovikovScalar
    torsion_only = ChainComplex(
        [Generator("x", 1), Generator("y", 0)],
        {("y", "x"): NovikovScalar.monomial(1, F(1, 2))})
    assert torsion_only.barcode(3).all_torsion


def test_model_json_roundtrip():
    for name in ("interval", "circle12", "grid9"):
        m = bundled_model(name)
        m2 = model_from_json(model_to_json(m))
        assert m2.boundary == m.boundary
        assert m2.values == m.values
        assert m2.base_map == m.base_map
        assert m2.cells == m.cells


def test_boundary_must_square_to_zero():
    cells = [Generator("a", 0), Generator("b", 1), Generator("c", 0)]
    values = {"a": 0, "b": 0, "c": 0}
    MorseModel(cells, {("b", "a"): 1, ("c", "b"): 0}, values)
    with pytest.raises(ValueError, match="^boundary does not square to "
                                         "zero$"):
        MorseModel(cells, {("b", "a"): 1, ("c", "b"): 1}, values)
    # two paths that cancel are accepted, two that add up are not
    cells.append(Generator("b2", 1))
    values["b2"] = 0
    MorseModel(cells, {("b", "a"): 1, ("b2", "a"): 1, ("c", "b"): 1,
                       ("c", "b2"): -1}, values)
    with pytest.raises(ValueError, match="square to zero"):
        MorseModel(cells, {("b", "a"): 1, ("b2", "a"): 1, ("c", "b"): 1,
                           ("c", "b2"): 1}, values)


def test_stage_cross_checks_raise_typed_errors(monkeypatch):
    m = bundled_model("circle6")
    arc = Region.of(m, ["v0", "e0", "v1"])
    # stage 2 of this one region weighs k + 1 before k: the weights of
    # its outside cells fall along the stage
    at_2, at_3 = arc.stage(2)
    monkeypatch.setitem(arc._stages, 2, (at_3, at_2))
    with pytest.raises(NotMonotone):
        relative_sh(m, arc, F(1), 2)
    # a region built anew keeps its own weights
    assert relative_sh(m, ["v0", "e0", "v1"], F(1), 2).betti == (1, 0)

    def squared(model, n):
        return {l: model.values[l] / (n * n) for l in model.labels}

    monkeypatch.setattr(morse, "scaling_hamiltonian", squared)
    with pytest.raises(StageCheckFailed, match="weight"):
        global_sections(bundled_model("t2"), F(1), 2)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: MorseModel([Generator("a", 0), Generator("b", 0)],
                        {("b", "a"): 1}, {"a": 0, "b": 1}),
     ValueError, "boundary entry ('b', 'a') has even parity"),
    (lambda: MorseModel([Generator("a", 0)], {}, {"a": 0}, base_map={}),
     ValueError, "base map must cover every cell"),
    (lambda: Region.of(spec_interval(), {"z"}),
     KeyError, "unknown cells {'z'}"),
    (lambda: Region.of(bundled_model("circle6"), {"v0", "nowhere"}),
     KeyError, "unknown base points {'nowhere'}"),
    (lambda: Region.of(spec_interval(), {"a0", "b"}),
     InadmissibleSubset, "arrows [('b', 'a1')] enter the region from "
                         "outside"),
    (lambda: involutive_descent_instance(bundled_model("circle6"), [], F(1)),
     ValueError, "an empty cover has no descent: no regions given"),
], ids=["even-boundary", "base-map", "unknown-cell", "unknown-base-point",
        "open-region", "empty-cover"])
def test_malformed_models_and_regions_are_refused(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert err.value.args == (message,)
