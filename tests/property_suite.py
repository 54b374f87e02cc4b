"""Randomized property runners shared by the unit and acceptance tests.

Each runner performs ``count`` independent random instances and returns the
number actually checked; it raises AssertionError on the first failure.
"""

import random

import helpers
from novcube.cubes import (cone, compose, id_cube, to_positive_signs,
                           total_complex, verify_cube)
from novcube.lemmas import (decone, is_id_cube, is_slit, is_triangle,
                            triangle_to_slit)

WORK = 10


def _dims(rng, lo=1, hi=4):
    return rng.choice(range(lo, hi + 1))


def run_cone_preserves_validity(count, seed=101, max_gens=3):
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng)
        c = helpers.random_cube(rng, n, max_gens=max_gens)
        i = rng.randint(1, n)
        assert verify_cube(cone(c, i), WORK).ok
        done += 1
    return done


def run_cone_commutation(count, seed=102):
    def swap(l):
        return (l[1][0], (l[0], l[1][1]))
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng, 2, 4)
        c = helpers.random_cube(rng, n)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        lhs = cone(cone(c, i), j - 1).relabel_vertices(lambda w, l: swap(l))
        assert lhs == cone(cone(c, j), i)
        done += 1
    return done


def run_decone_roundtrip(count, seed=103):
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng)
        c = helpers.random_cube(rng, n)
        i = rng.randint(1, n)
        assert decone(cone(c, i), i) == c
        done += 1
    return done


def run_compose_associativity(count, seed=104):
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng, 1, 3)
        m1 = helpers.random_cube(rng, n)
        m2 = helpers.random_extension(rng, m1.subcube(n, "1"))
        m3 = helpers.random_extension(rng, m2.subcube(n, "1"))
        assert compose(compose(m1, m2), m3) == compose(m1, compose(m2, m3))
        done += 1
    return done


def run_compose_commutes_with_cone(count, seed=105):
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng, 2, 4)
        m1 = helpers.random_cube(rng, n)
        m2 = helpers.random_extension(rng, m1.subcube(n, "1"))
        d = rng.randint(1, n - 1)
        assert cone(compose(m1, m2), d) == compose(cone(m1, d), cone(m2, d))
        done += 1
    return done


def run_positive_signs_all_plus(count, seed=106):
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng)
        c = helpers.random_cube(rng, n)
        plus = to_positive_signs(c)
        assert plus.positive
        assert verify_cube(plus, WORK).ok  # checks the unsigned equations
        done += 1
    return done


def run_id_cube_functoriality(count, seed=107):
    """id_cube validity plus the cone functoriality package:

    cones in non-last directions send maps to maps (outer-face
    compatibility), id to id, triangles to triangles and slits to slits.
    """
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng, 1, 3)
        c = helpers.random_cube(rng, n)
        ic = id_cube(c)
        assert verify_cube(ic, WORK).ok
        assert is_id_cube(ic)
        d = rng.randint(1, n)
        assert cone(ic, d) == id_cube(cone(c, d))
        m = helpers.random_extension(rng, c.subcube(n, "1")) \
            if n >= 1 else None
        if m is not None and n >= 2:
            dd = rng.randint(1, n - 1)
            cm = cone(m, dd)
            assert cm.subcube(cm.n, "0") == cone(m.subcube(n, "0"), dd)
            assert cm.subcube(cm.n, "1") == cone(m.subcube(n, "1"), dd)
        if n <= 2:
            f = helpers.random_cube(rng, n)
            fp = helpers.random_extension(rng, f.subcube(n, "1"))
            tri = helpers.make_triangle(f, fp)
            assert is_triangle(tri, WORK)
            slit = triangle_to_slit(tri, WORK)
            assert is_slit(slit, WORK)
            if n >= 2:
                dd = rng.randint(1, n - 1)
                assert is_triangle(cone(tri, dd), WORK)
                assert is_slit(cone(slit, dd), WORK)
        done += 1
    return done


def cone_labels_canonical(label, order):
    """Flatten nested cone labels for identification across cone orders.

    ``order`` lists the absolute directions in the order they were
    contracted; the innermost wrapper belongs to the first contraction.
    Returns (vertex_code, base_label).
    """
    bits = []
    cur = label
    for _ in order:
        bits.append(cur[0])
        cur = cur[1]
    by_abs = sorted(zip(order, reversed(bits)))
    return ("".join(b for _, b in by_abs), cur)


def iterated_cone(cube):
    """Cone away direction 1 repeatedly, then canonicalize the labels."""
    c = cube
    while c.n > 0:
        c = cone(c, 1)
    order = list(range(1, cube.n + 1))
    return c.vertex("").relabel(lambda l: cone_labels_canonical(l, order))


def run_iterated_cone_order_independence(count, seed=108):
    """Contracting in any order gives the total complex after the
    canonical label regrouping."""
    rng = random.Random(seed)
    done = 0
    for _ in range(count):
        n = _dims(rng, 1, 4)
        c = helpers.random_cube(rng, n)
        assert iterated_cone(c) == total_complex(c)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        remaining = list(range(1, n + 1))
        cc = c
        for absolute in order:
            rel = remaining.index(absolute) + 1
            remaining.remove(absolute)
            cc = cone(cc, rel)
        flat = cc.vertex("").relabel(
            lambda l: cone_labels_canonical(l, order))
        assert flat == total_complex(c)
        done += 1
    return done


CUBE_PROPERTY_RUNNERS = [
    ("cone preserves validity", run_cone_preserves_validity),
    ("cone commutation", run_cone_commutation),
    ("decone of cone is identity", run_decone_roundtrip),
    ("compose associativity", run_compose_associativity),
    ("compose commutes with non-last cones", run_compose_commutes_with_cone),
    ("positive-sign form satisfies all-plus equations",
     run_positive_signs_all_plus),
    ("id-cube validity and cone functoriality", run_id_cube_functoriality),
    ("iterated cone independent of order",
     run_iterated_cone_order_independence),
]
