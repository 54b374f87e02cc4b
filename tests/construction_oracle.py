"""The compositions and cuts that the library's one-pass code replaced.

``rays.telescope`` used to relabel a subcube and the cones of its stages,
``cubes.glueable`` compared two subcubes, and ``morse.hamiltonian_cube``
built ``cf`` and ``continuation`` for every vertex and edge and passed them
to the face-map constructor.  ``CubeDiagram.face_cube`` now cuts every
face out of D at once, where ``subcube`` cut one coordinate at a time;
``CubeDiagram.__eq__`` compares D, where it compared vertex views; and
``rays.vertex_ray`` cuts its stages out of D, where it rebuilt each edge
from the views of a stage through the face-map constructor.  Each old way
is kept here, building the intermediate cubes and views the library no
longer builds, as an oracle for the tests.  So is the mapping cone of a
chain map as a complex put together by hand, which ``cubes.cone_of_map``
replaced by the total complex of the map's 1-cube.  So, last, is the
completed homology of a finite or stationary ray read from the barcode of
a materialized telescope: ``rays.completed_homology`` now states the zero
module from its vanishing proof, where it cut a stationary ray at
prefix + ceil(r0/gap) stages (:func:`truncate_ray`,
:func:`stationary_stage_bound`) and reduced the telescope.
"""

from novcube.chain import (ChainComplex, Generator, is_chain_map, mat_clean,
                           mat_neg)
from novcube.cubes import (CubeDiagram, cone, face_codes, initial_vertex,
                           terminal_vertex, vertex_codes)
from novcube.errors import NotChainMap
from novcube.morse import cf, continuation
from novcube.novikov import INFINITY, NovikovScalar, rat
from novcube.rays import Ray, TailSpec, map_cube_gap, telescope_complex


def subcube(cube, i, value):
    """The (n-1)-cube at {x_i = value}, cut from D one coordinate at a
    time."""
    def at(code):
        return code[:i - 1] + code[i:] if code[i - 1] == value else None

    defined = None if cube._defined is None else \
        {at(c) for c in cube._defined if at(c) is not None}
    gens, D = cube.recode(at)
    return CubeDiagram.from_matrix(cube.n - 1, gens, D, cube.positive,
                                   defined, cube.verified_mod)


def face_cube(cube, code):
    """The face ``code``: one :func:`subcube` per fixed coordinate, the
    last one first."""
    for i in range(len(code), 0, -1):
        if code[i - 1] != "-":
            cube = subcube(cube, i, code[i - 1])
    return cube


def equal(a, b):
    """Equality through the vertex views, D compared without its zeros."""
    return (a.n == b.n and a.positive == b.positive
            and a._defined == b._defined and a.vertices == b.vertices
            and mat_clean(a.D) == mat_clean(b.D))


def vertex_ray_edge(big, w):
    """Stage ``big`` of a vertex ray over w: the edge over w rebuilt from
    its views by the face-map constructor."""
    edge = CubeDiagram(
        1, {"0": big.vertex(w + "0"), "1": big.vertex(w + "1")},
        {"-": big.face(w + "-")})
    edge.verified_mod = big.verified_mod
    return edge


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
    return CubeDiagram.from_matrix(n - 1, gens, D, verified_mod=cert)


def hamiltonian_cube(model, assign):
    n = len(next(iter(assign)))
    vertices = {w: cf(model, assign[w]) for w in vertex_codes(n)}
    faces = {code: continuation(model, assign[initial_vertex(code)],
                                assign[terminal_vertex(code)])
             for code in face_codes(n) if code.count("-") == 1}
    cube = CubeDiagram(n, vertices, faces)
    cube.verified_mod = INFINITY
    return cube


def shift(c):
    """``c`` with every parity flipped and its differential negated."""
    gens = [Generator(g.label, 1 - g.parity) for g in c.generators]
    return ChainComplex(gens, mat_neg(c.differential), c.verified_mod)


def cone_of_map(source, target, entries):
    """The mapping cone put together by hand: ``source`` shifted and
    relabelled ("0", l), ``target`` relabelled ("1", l), and their
    differentials merged with the map, after the same two checks."""
    for (t, s) in entries:
        if (target.parity(t) - source.parity(s)) % 2 != 0:
            raise NotChainMap("map has an odd entry (%r, %r)" % (t, s))
    if not is_chain_map(entries, source, target):
        raise NotChainMap("matrix does not commute with differentials")
    shifted = shift(source).relabel(lambda l: ("0", l))
    tgt = target.relabel(lambda l: ("1", l))
    diff = dict(shifted.differential)
    diff.update(tgt.differential)
    for (t, s), v in entries.items():
        diff[(("1", t), ("0", s))] = v
    return ChainComplex(shifted.generators + tgt.generators, diff)


def truncate_ray(ray, depth):
    """Forget the tail: keep stages 1..depth and fall to zero after."""
    prefix = [ray.map_cube(k) for k in range(1, depth + 1)]
    return Ray(ray.n, prefix, TailSpec.finite(), check=False)


def stationary_stage_bound(ray, r0):
    gap = map_cube_gap(ray.tail.cube)
    need = int(-((-r0) // gap))  # ceil(r0 / gap)
    return len(ray.prefix) + need


def completed_homology(ray, r0, work=None):
    """The barcode of the materialized telescope of a finite ray, or of a
    stationary one cut at :func:`stationary_stage_bound`."""
    r0 = rat(r0)
    work = r0 if work is None else max(rat(work), r0)
    if ray.tail.kind == "stationary":
        ray = truncate_ray(ray, stationary_stage_bound(ray, r0))
    return telescope_complex(ray, len(ray.prefix) + 1).barcode(work)
