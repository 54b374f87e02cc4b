"""``verify_cube`` (one product D.D) against the face loop it replaced."""

import random
from fractions import Fraction as F

from cube_oracle import face_loop_verify_cube
from helpers import random_cube, random_scalar
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube.chain import ChainComplex
from novcube.cubes import (CubeDiagram, face_codes, face_dim, initial_vertex,
                           terminal_vertex, to_positive_signs, verify_cube)
from novcube.novikov import NovikovScalar

BREAKS = ("none", "extra", "foreign", "modulo", "modulo+extra", "partial",
          "partial+extra")


def _entry(rng, cube, code, right_parity):
    """A random entry on the face ``code``, of the right or wrong parity,
    or None when the face's complexes leave no such entry."""
    src = cube.vertex(initial_vertex(code)).generators
    tgt = cube.vertex(terminal_vertex(code)).generators
    want = (face_dim(code) + 1) % 2
    pairs = [(t.label, s.label) for s in src for t in tgt
             if ((t.parity - s.parity) % 2 == want) == right_parity]
    return rng.choice(pairs) if pairs else None


def _scalar(rng):
    """Mostly a random series; sometimes one known only modulo T^R, or
    one of negative valuation."""
    roll = rng.random()
    if roll < 0.15:
        return NovikovScalar([(F(0), F(1))], rng.choice([F(1, 2), F(2)]))
    if roll < 0.2:
        return NovikovScalar.monomial(3, -1)
    return random_scalar(rng)


def oracle_cube(rng, n, positive, kind):
    cube = random_cube(rng, n, max_gens=3 if n < 4 else 2,
                       unit=rng.random() < 0.5)
    if positive:
        cube = to_positive_signs(cube)
    vertices = dict(cube.vertices)
    faces = {code: dict(cube.face(code)) for code in face_codes(n)}
    higher = [c for c in face_codes(n) if face_dim(c) > 0]
    if "modulo" in kind:
        # one vertex arrow known only to half an order beyond its leading
        # term: equations through it cancel down to "undetermined"
        w = rng.choice(sorted(vertices))
        diff = dict(vertices[w].differential)
        if diff:
            key = rng.choice(sorted(diff, key=repr))
            diff[key] = NovikovScalar(diff[key].terms,
                                      diff[key].val() + F(1, 2))
            vertices[w] = ChainComplex(vertices[w].generators, diff)
            faces[w] = diff
    if not higher:
        kind = "none"
    if "extra" in kind:
        for _ in range(rng.randint(1, 5)):
            code = rng.choice(higher)
            key = _entry(rng, cube, code, True)
            if key is not None:
                faces[code][key] = _scalar(rng)
    if kind == "foreign":
        for _ in range(rng.randint(1, 3)):
            code = rng.choice(higher)
            key = _entry(rng, cube, code, False) if rng.random() < 0.5 \
                else None
            faces[code][key or ("nowhere", "nothing")] = _scalar(rng)
    partial = "partial" in kind
    if partial:
        for code in rng.sample(higher, rng.randint(0, len(higher))):
            del faces[code]
    # the order of faces and of their entries is the order the face loop
    # reports residuals in, so give it no pattern
    faces = {code: dict(rng.sample(list(faces[code].items()),
                                   len(faces[code])))
             for code in rng.sample(list(faces), len(faces))}
    return CubeDiagram(n, vertices, faces, positive=positive,
                       partial=partial)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4), st.booleans(),
       st.sampled_from(BREAKS), st.sampled_from([F(1), F(3, 2), F(10)]))
def test_total_matrix_verify_matches_face_loop(seed, n, positive, kind,
                                               work):
    cube = oracle_cube(random.Random(seed), n, positive, kind)
    assert verify_cube(cube, work) == face_loop_verify_cube(cube, work)


def test_oracle_cases_reach_every_verdict():
    """The generator makes valid cubes and every kind of violation:
    entries outside their complexes, of the wrong parity or of negative
    valuation, and residuals, determined or not."""
    kinds = ("undetermined", "residual", "outside", "parity", "negative")
    seen = set()
    rng = random.Random(7)
    for k in range(400):
        cube = oracle_cube(rng, rng.randint(1, 3), k % 2 == 0,
                           BREAKS[k % len(BREAKS)])
        rep = face_loop_verify_cube(cube, 10)
        seen.add("ok" if rep.ok else "bad")
        seen.update(next(kind for kind in kinds if kind in detail)
                    for _, detail in rep.violations)
    assert seen == {"ok", "bad"} | set(kinds), seen
