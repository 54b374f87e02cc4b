"""The compositions and cuts that the library's one-pass code replaced.

``rays.telescope`` used to relabel a subcube and the cones of its stages,
``cubes.glueable`` compared two subcubes (of the signed twins here, as
``==`` also compares the sign form; the library compares D blocks in
place), and ``morse.hamiltonian_cube``
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

Regions, last, travelled as cell sets: :func:`resolve_region` turned
labels into cells, :func:`region_hamiltonian` built a stage's weights as
``Fraction``s on every call, :func:`projected_betti` reduced the region's
subcomplex on every call, and :func:`region_family` assigned a region to
each vertex of a subset cube.  ``morse.Region`` now resolves, checks and
weighs a region once, on the stage lattice in ``int`` numerators; these
are kept as its references.  :func:`projected_betti` counts ranks of
dense ``Fraction`` matrices, where the library reduces a ``QComplex``.
"""

from fractions import Fraction

from novcube.chain import (ChainComplex, Generator, is_chain_map, mat_clean,
                           mat_neg)
from novcube.cubes import (CubeDiagram, cone, face_codes,
                           from_positive_signs, initial_vertex,
                           terminal_vertex, vertex_codes)
from novcube.errors import NotChainMap
from novcube.linalg import rank
from novcube.morse import Region, cf, continuation, region_ray
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


def signed(cube):
    """The signed twin of ``cube`` (the same D), or the cube if signed."""
    return from_positive_signs(cube) if cube.positive else cube


def glueable(first, second, k=None):
    """The two gluing subcubes of the signed twins compared by ``==``,
    which also compares the sign form."""
    k = first.n if k is None else k
    return (first.n == second.n and 1 <= k <= first.n and
            signed(first).subcube(k, "1") == signed(second).subcube(k, "0"))


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


def resolve_region(model, region):
    """Cell set of a region given by base labels (or cell labels)."""
    region = set(region)
    if model.base_map is None:
        unknown = region - set(model.labels)
        if unknown:
            raise KeyError("unknown cells %r" % (unknown,))
        return region
    unknown = region - set(model.base_map.values())
    if unknown:
        raise KeyError("unknown base points %r" % (unknown,))
    return {l for l in model.labels if model.base_map[l] in region}


def is_closed(model, cells):
    """Whether no arrow enters ``cells`` from outside."""
    return not any(q in cells and p not in cells for (q, p) in model.boundary)


def region_hamiltonian(model, cells, i):
    """Weight -1/i on the cells and +i outside them."""
    return {l: Fraction(-1, i) if l in cells else Fraction(i)
            for l in model.labels}


def projected_betti(model, cells):
    """Rational homology of the boundary restricted to ``cells``, from the
    ranks of its dense blocks: b_p = #cells of parity p - rank of d out of
    them - rank of d into them."""
    by_parity = [[l for l in model.labels
                  if l in cells and model.parity(l) == p] for p in (0, 1)]

    def block(targets, sources):
        if not targets or not sources:
            return 0
        return rank([[Fraction(model.boundary.get((t, s), 0))
                      for s in sources] for t in targets])

    out = [block(by_parity[1], by_parity[0]),
           block(by_parity[0], by_parity[1])]
    return tuple(len(by_parity[p]) - out[p] - out[1 - p] for p in (0, 1))


def region_family(regions):
    """Subset-cube assignment: vertex code -> cell set (intersection of the
    chosen regions; the empty choice is the union)."""
    out = {}
    for w in vertex_codes(len(regions)):
        chosen = [regions[i] for i in range(len(regions)) if w[i] == "1"]
        cells = set.intersection(*map(set, chosen)) if chosen else \
            set().union(*regions)
        out[w] = cells
    return out


def descent_ray(model, regions):
    """The subset-cube ray of ``regions`` (label sets), its regions
    assigned by :func:`region_family`."""
    family = region_family([resolve_region(model, r) for r in regions])
    return region_ray({w: Region(model, frozenset(cells))
                       for w, cells in family.items()})
