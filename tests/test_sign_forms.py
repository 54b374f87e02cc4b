"""A cube and its positive twin, the same D in the other sign form.

Constructions read D alone: on the twins of random signed cubes (n <= 3)
and of glued pairs, ``cone``, ``decone``, ``id_cube``, ``compose``,
``glueable`` (of a signed cube with a positive one too), the telescope of
an unchecked ray and the Mayer–Vietoris report give what they give on the
signed cubes, and a subcube of a twin is the twin of the subcube; a
positive square keeps the pass of its own check.
"""

import random

from helpers import random_cube, random_ray_cubes
from hypothesis import given, settings
from hypothesis import strategies as st

from novcube import rays
from novcube.cubes import (compose, cone, glueable, id_cube,
                           to_positive_signs, verify_cube)
from novcube.lemmas import decone
from novcube.rays import Ray, TailSpec, mayer_vietoris, telescope

SETTINGS = settings(max_examples=40, deadline=None)
SEEDS = st.integers(0, 2 ** 32).map(random.Random)


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the failure itself is compared
        return type(exc), str(exc)


@SETTINGS
@given(SEEDS, st.integers(1, 3))
def test_a_twin_is_cut_coned_and_copied_as_its_signed_cube(rng, n):
    cube = random_cube(rng, n, max_gens=2, mix=4)
    twin = to_positive_signs(cube)
    assert id_cube(twin) == id_cube(cube)
    for i in range(1, n + 1):
        for value in "01":
            assert twin.subcube(i, value) == \
                to_positive_signs(cube.subcube(i, value))
        coned = cone(cube, i)
        assert cone(twin, i) == coned
        assert decone(to_positive_signs(coned), i) == decone(coned, i)


@SETTINGS
@given(SEEDS, st.integers(1, 3))
def test_twins_glue_compose_and_telescope_as_their_signed_cubes(rng, n):
    """Twins, and a signed cube with the twin of another, glue and compose
    as the signed cubes do: ``glueable`` compares the faces' D blocks."""
    stages = random_ray_cubes(rng, n, 3)
    twins = [to_positive_signs(c) for c in stages]
    for a, b in zip(range(3), (1, 2, 0)):
        for k in range(0, n + 2):
            signed = glueable(stages[a], stages[b], k)
            assert glueable(twins[a], twins[b], k) == signed
            assert glueable(stages[a], twins[b], k) == signed
            assert glueable(twins[a], stages[b], k) == signed
    for a, b in zip(stages, stages[1:]):
        assert compose(*map(to_positive_signs, (a, b))) == compose(a, b)
        assert compose(a, to_positive_signs(b)).D == \
            compose(to_positive_signs(a), b).D == compose(a, b).D
    signed, positive = (Ray(n, cubes, TailSpec.finite(), check=False)
                        for cubes in (stages, twins))
    for depth in range(0, 5):
        assert telescope(positive, depth) == telescope(signed, depth)


@SETTINGS
@given(SEEDS)
def test_a_positive_square_has_its_signed_twins_six_term_sequence(rng):
    """The identity squares of a random complex and of a random map are
    acyclic, with corners of any homology; a random square is mostly not
    acyclic."""
    pick = rng.randrange(3)
    if pick == 0:
        square = id_cube(id_cube(random_cube(rng, 0, max_gens=3)))
    elif pick == 1:
        square = id_cube(random_cube(rng, 1, max_gens=3, mix=4))
    else:
        square = random_cube(rng, 2, max_gens=2, mix=4)
    assert outcome(mayer_vietoris, to_positive_signs(square), 3) == \
        outcome(mayer_vietoris, square, 3)


def test_a_signed_stage_glues_onto_the_positive_twin_of_the_next():
    a, b = random_ray_cubes(random.Random(3), 2, 2)
    twin = to_positive_signs(b)
    assert glueable(a, b) and glueable(a, twin)
    assert compose(a, twin).D == compose(a, b).D


def test_a_positive_square_keeps_the_pass_of_its_check(monkeypatch):
    """Mayer–Vietoris checks a positive square through its signed twin
    but records the pass, and keeps the T = 0 total complex, on the square
    it was given: a second call checks nothing."""
    checks = []

    def counting(cube, work):
        checks.append(cube)
        return verify_cube(cube, work)

    monkeypatch.setattr(rays, "verify_cube", counting)
    square = to_positive_signs(id_cube(id_cube(
        random_cube(random.Random(1), 0, max_gens=3))))
    assert mayer_vietoris(square, 3).ok and mayer_vietoris(square, 3).ok
    assert len(checks) == 1 and square.verified_mod == 3
    assert "total_t0" in vars(square)
