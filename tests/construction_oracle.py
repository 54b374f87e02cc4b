"""The compositions that three one-pass constructions replaced.

``rays.telescope`` used to relabel a subcube and the cones of its stages,
``cubes.glueable`` compared two subcubes, and ``morse.hamiltonian_cube``
built ``cf`` and ``continuation`` for every vertex and edge and passed them
to the face-map constructor.  Each is kept here, building the intermediate
cubes the library no longer builds, as an oracle for the tests.
"""

from novcube.cubes import (CubeDiagram, cone, face_codes, initial_vertex,
                           terminal_vertex, vertex_codes)
from novcube.morse import cf, continuation
from novcube.novikov import INFINITY, NovikovScalar


def kept(D):
    """D without the entries that vanish, but for vertex-block entries
    that vanish only at their precision: what every cube used to keep."""
    return {k: v for k, v in D.items()
            if v or (v.floor is not None and k[0][0] == k[1][0])}


def glueable(first, second, k=None):
    k = first.n if k is None else k
    return (first.n == second.n and 1 <= k <= first.n
            and first.subcube(k, "1") == second.subcube(k, "0"))


def telescope(ray, depth):
    n = ray.n
    stages = [ray.map_cube(k) for k in range(1, max(depth, 1) + 1)]
    certs = [s.verified_mod for s in stages]
    glued = all(glueable(a, b, n) for a, b in zip(stages, stages[1:]))
    cert = min(certs) if None not in certs and glued else None
    first = stages[0].subcube(n, "0").relabel_vertices(
        lambda w, l: ("tel", 1, "u", l))
    gens = {w: list(gs) for w, gs in first.gens.items()}
    D = dict(first.D)
    one = NovikovScalar.one()
    for k, stage in enumerate(stages[:depth], 1):
        cn = cone(stage, n).relabel_vertices(
            lambda w, l, k=k: ("tel", k, "s", l[1]) if l[0] == "0"
            else ("tel", k + 1, "u", l[1]))
        D.update(cn.D)
        for w in gens:
            gens[w].extend(cn.gens[w])
            for g in stage.gens[w + "0"]:
                D[((w, ("tel", k, "u", g.label)),
                   (w, ("tel", k, "s", g.label)))] = one
    return CubeDiagram.from_matrix(n - 1, gens, kept(D), verified_mod=cert)


def hamiltonian_cube(model, assign):
    n = len(next(iter(assign)))
    vertices = {w: cf(model, assign[w]) for w in vertex_codes(n)}
    faces = {code: continuation(model, assign[initial_vertex(code)],
                                assign[terminal_vertex(code)])
             for code in face_codes(n) if code.count("-") == 1}
    return CubeDiagram(n, vertices, faces, verified_mod=INFINITY)
