"""The paper's lemmas on cubes and rays, built and checked.  The tests
run them; no command imports this module, and ``cubes`` and ``rays``
never import it.

Signed coherence equations, decones (inverse to cones on coniform
data), id cubes, triangles and the slits they become, cone rays, and
direct limits at T = 0 of 1-rays and their compression.  Simplicial
assembly: a k-dimensional face is covered by k! simplices, one per
permutation of its dashes, each a monotone vertex path, and its map is
the signature-weighted sum of theirs.  The symbolic certificate expands
the cube equation and the simplex relations over formal simplex symbols
and shows the former a signed integer combination of the latter: the
deleted-vertex terms cancel in pairs one transposition of path steps
apart, and the quadratic terms match word for word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from typing import Callable, Dict, List, Optional, Tuple

from .chain import (Generator, Label, MatrixEntries, mat_add, mat_clean,
                    mat_compose, mat_identity, mat_neg)
from .cubes import (CubeDiagram, _put, _straddles, boundary_pairs, compose,
                    cone, cone_of_map, face_between, face_codes, glueable,
                    initial_vertex, subtuple_count, verify_cube, vertex_codes)
from .errors import NotConiform
from .novikov import ONE
from .rays import Ray, TailSpec, _derived, telescope_complex


class NotTriangle(ValueError):
    pass


class UnsupportedDimension(ValueError):
    pass


# ---------------------------------------------------------------------------
# cubes: signed equations, decones, triangles and slits


def cube_sign(fprime: str, face: str) -> int:
    """Sign of the term f_F'' . f_F' in the equation of ``face``."""
    pairs = list(zip(fprime, face))
    if len(fprime) != len(face) or any(
            (a, b) == ("1", "-") or a != b != "-" for a, b in pairs):
        raise ValueError("%r does not start a boundary pair of %r"
                         % (fprime, face))
    v = "".join("1" if a == "-" else "0" for a, b in pairs if b == "-")
    return -1 if (subtuple_count("1", v) + subtuple_count("01", v)) % 2 else 1


def face_equation_terms(code: str, positive: bool = False):
    """The signed terms of the coherence equation at ``code``.

    Returns a list of (sign, F'', F') with the composite read right to
    left: f_F' first.
    """
    return [(1 if positive else cube_sign(fp, code), fpp, fp)
            for fp, fpp, _ in boundary_pairs(code)]

def decone(cube: CubeDiagram, i: int,
           splittings: Optional[Dict[str, Tuple[set, set]]] = None
           ) -> CubeDiagram:
    """Inverse of :func:`cone` for cubes in coniform.

    A splitting declares, per vertex, which labels form the shifted part
    and which the unshifted part.  When omitted it is read from labels of
    the shape ("0", l) / ("1", l) as produced by :func:`cone`, and those
    wrappers are stripped again.  All face maps must be block lower
    triangular for the splitting.
    """
    strip = splittings is None
    if splittings is None:
        splittings = {}
        for w, c in cube.vertices.items():
            a, b = ({l for l in c.labels if isinstance(l, tuple)
                     and len(l) == 2 and l[0] == bit} for bit in "01")
            if a | b != set(c.labels):
                raise NotConiform("vertex %r has no declared splitting and "
                                  "labels are not cone-shaped" % w)
            splittings[w] = (a, b)
    unwrap = (lambda l: l[1]) if strip else (lambda l: l)

    def side(w, l):
        a, b = splittings[w]
        return "0" if l in a else "1" if l in b else None

    def grow(w, bit):
        return w[:i - 1] + bit + w[i - 1:]

    D: MatrixEntries = {}
    for ((wt, t), (ws, s)), v in cube.D.items():
        bs, bt = side(ws, s), side(wt, t)
        if bs is None or bt is None or (bs, bt) == ("1", "0"):
            raise NotConiform("face %r has an upper-triangular entry "
                              "(%r, %r)" % (face_between(ws, wt), t, s))
        D[((grow(wt, bt), unwrap(t)), (grow(ws, bs), unwrap(s)))] = v
    gens = {grow(w, bit): [Generator(unwrap(g.label),
                                     1 - g.parity if bit == "0" else g.parity)
                           for g in gs if side(w, g.label) == bit]
            for w, gs in cube.gens.items() for bit in "01"}
    return CubeDiagram.from_matrix(cube.n + 1, gens, D)

def is_id_cube(cube: CubeDiagram) -> bool:
    """Outer faces equal, identity edges in the last direction, no fillers."""
    if cube.n < 1 or not glueable(cube, cube):
        return False
    ident = {((w[:-1] + "1", g.label), (w, g.label)): ONE
             for w, gs in cube.gens.items() if w[-1] == "0" for g in gs}
    return {k: v for k, v in cube.D.items() if _straddles(k)} == ident


def is_triangle(cube: CubeDiagram, work) -> bool:
    """A homotopy-commuting triangle: face {x_n = 0} is an id cube."""
    if cube.n < 2 or not verify_cube(cube, work):
        return False
    return is_id_cube(cube.subcube(cube.n, "0"))


def is_slit(cube: CubeDiagram, work) -> bool:
    """A homotopy between two maps: both outermost faces are id cubes."""
    return is_triangle(cube, work) and is_id_cube(cube.subcube(cube.n, "1"))


def triangle_to_slit(tri: CubeDiagram, work=1) -> CubeDiagram:
    """Rewrite a triangle as the homotopy between g and the composition.

    Keeps the diagonal fillers, replaces the {x_(n-1) = 0} face by the
    composition of the two maps, and puts identities on the last
    direction.
    """
    n = tri.n
    if not is_triangle(tri, work):
        raise NotTriangle("input is not a triangle of maps")
    f = tri.subcube(n - 1, "0")        # map C -> C', last coord is x_n
    fprime = tri.subcube(n, "1")       # map C' -> C'', last coord is x_(n-1)
    g = tri.subcube(n - 1, "1")        # map C -> C''
    source = tri.face_cube("-" * (n - 2) + "00")  # the cube C
    target = tri.face_cube("-" * (n - 2) + "11")  # the cube C''
    _, D = compose(f, fprime).recode(lambda w: w[:-1] + "0" + w[-1])
    D.update(g.recode(lambda w: w[:-1] + "1" + w[-1])[1])
    D.update((k, v) for k, v in tri.D.items()
             if k[1][0][-2:] == "00" and k[0][0][-2:] == "11")
    gens = {w: (source if w[-1] == "0" else target).gens[w[:-2]]
            for w in vertex_codes(n)}
    for w in vertex_codes(n - 2):
        for last, cx in (("0", source), ("1", target)):
            _put(D, w + "-" + last, {(g.label, g.label): ONE
                                     for g in cx.gens[w]}, False)
    return CubeDiagram.from_matrix(n, gens, D)


# ---------------------------------------------------------------------------
# rays: cone rays, direct limits at T = 0 and compression


def cone_ray(ray: Ray, d: int) -> Ray:
    """Cone every stage in a non-last direction; an (n-1)-ray results."""
    if not 1 <= d <= ray.n - 1:
        raise ValueError("cone direction must avoid the gluing direction")
    return _derived(ray, ray.n - 1, lambda c: cone(c, d))


def stage_composite(ray: Ray, start: int, stop: int) -> MatrixEntries:
    """The composed edge map slice start -> slice stop (1-cube rays)."""
    if ray.n != 1:
        raise ValueError("stage composites are for 1-rays")
    out = mat_identity(ray.slice(start).vertex("").labels)
    for k in range(start, stop):
        out = mat_compose(ray.map_cube(k).face("-"), out)
    return out


def _to_last_slice(ray: Ray, stop: int, target: Callable[[Label], Label]
                   ) -> MatrixEntries:
    """The map from the telescope of stages 1..stop-1 to slice ``stop``.

    The plain copy of stage k goes through the sign-alternating composite
    ``stage_composite(ray, k, stop)``, shifted copies go to zero, and
    ``target`` labels the image of a generator of slice ``stop``.  The
    composites are built backward from slice ``stop``, each from the next
    by one product, so ``stop - 1`` products serve all of them.
    """
    out: MatrixEntries = {}
    composite = mat_identity(ray.slice(stop).vertex("").labels)
    for k in range(stop, 0, -1):
        if k < stop:
            composite = mat_compose(composite, ray.map_cube(k).face("-"))
        sign = -1 if (stop - k) % 2 else 1
        for (t, s), v in composite.items():
            out[(target(t), ("tel", k, "u", s))] = v.scale(sign)
    return out


def colimit_t0(ray: Ray, depth: int):
    """Direct limit at T = 0 with the comparison map from the telescope.

    The limit of the truncated system is its last complex; the canonical
    chain map from the telescope sends the plain copy of stage k through
    the (sign-alternating) composite to the last stage, and shifted copies
    to zero.  Returns (limit_qcomplex, comparison_map, is_quasi_iso).
    """
    if ray.n != 1:
        raise ValueError("direct limits are computed for 1-rays")
    tel = telescope_complex(ray, depth)
    last = ray.slice(depth + 1).vertex("")
    comparison = _to_last_slice(ray, depth + 1, lambda t: t)
    qiso = cone_of_map(tel, last, comparison).reduce_t0().is_acyclic()
    return last.reduce_t0(), comparison, qiso


@dataclass(frozen=True)
class CompressionResult:
    subray: Ray
    squares: Tuple[CubeDiagram, ...]
    telescope_map: MatrixEntries
    quasi_iso: bool


def compression(ray: Ray, indices: List[int]) -> CompressionResult:
    """Reindex a 1-ray along strictly increasing stages.

    Builds the subray with composed maps and the map of rays (strictly
    commuting squares, zero homotopies).  The telescope map materializes
    the source up to the last listed stage and the subray in full, so both
    sides compute the truncated system's limit slice; its mapping cone is
    checked to be acyclic over the residue field.
    """
    if ray.n != 1:
        raise ValueError("compression is implemented for 1-rays")
    if len(indices) < 2 or any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("need at least two strictly increasing indices")
    if any(i < 1 for i in indices):
        raise ValueError("stages are 1-based")
    m = len(indices)
    sub_prefix = [reduce(compose, [ray.map_cube(k) for k in range(a, b)])
                  for a, b in zip(indices, indices[1:])]
    subray = Ray(1, sub_prefix, TailSpec.finite(), check=False)

    squares = []
    for k in range(1, m):
        vert = {"00": ray.slice(k).vertex(""),
                "10": ray.slice(k + 1).vertex(""),
                "01": subray.slice(k).vertex(""),
                "11": subray.slice(k + 1).vertex("")}
        faces = {
            "-0": ray.map_cube(k).face("-"),
            "-1": subray.map_cube(k).face("-"),
            "0-": stage_composite(ray, k, indices[k - 1]),
            "1-": stage_composite(ray, k + 1, indices[k]),
        }
        squares.append(CubeDiagram(2, vert, faces))

    # telescope map: source stages go through the colimit comparison onto
    # the final slice, included as the subray's last plain copy
    src = telescope_complex(ray, indices[-1] - 1)
    dst = telescope_complex(subray, m - 1)
    tel_map = mat_clean(_to_last_slice(ray, indices[-1],
                                       lambda t: ("tel", m, "u", t)))
    qiso = cone_of_map(src, dst, tel_map).reduce_t0().is_acyclic() and (
        src.reduce_t0().homology_ranks() == dst.reduce_t0().homology_ranks())
    return CompressionResult(subray, tuple(squares), tel_map, qiso)


# ---------------------------------------------------------------------------
# simplicial assembly

Path = Tuple[str, ...]          # monotone sequence of vertex codes
Word = Tuple[Path, ...]         # formal product, applied left to right

MAX_SYMBOLIC_DIM = 3


def permutation_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def _path(start: str, steps) -> Path:
    """The path from ``start`` raising the coordinates ``steps`` in turn."""
    out, cur = [start], list(start)
    for pos in steps:
        cur[pos] = "1"
        out.append("".join(cur))
    return tuple(out)


def face_simplices(code: str) -> List[Tuple[Path, int]]:
    """The maximal simplices covering a face: (vertex path, signature)."""
    dashes = [i for i, ch in enumerate(code) if ch == "-"]
    return [(_path(initial_vertex(code), perm), permutation_sign(perm))
            for perm in permutations(dashes)]


def assemble_faces(n: int, simplex_maps: Dict[Path, MatrixEntries]
                   ) -> Dict[str, MatrixEntries]:
    """Numeric assembly: f_F = sum over simplices of sign * map."""
    faces: Dict[str, MatrixEntries] = {}
    for code in face_codes(n):
        parts = []
        for path, sign in face_simplices(code):
            m = simplex_maps.get(path)
            if m is None:
                raise KeyError("no simplex map for path %r" % (path,))
            parts.append(m if sign > 0 else mat_neg(m))
        faces[code] = mat_clean(mat_add(*parts)) if parts else {}
    return faces


def _add_word(acc: Dict[Word, int], word: Word, coeff: int):
    acc[word] = acc.get(word, 0) + coeff
    if acc[word] == 0:
        del acc[word]


def cube_equation_expansion(code: str) -> Dict[Word, int]:
    """The face's coherence equation, expanded over simplex symbols."""
    acc: Dict[Word, int] = {}
    for sign, fpp, fp in face_equation_terms(code):
        for path1, s1 in face_simplices(fp):
            for path2, s2 in face_simplices(fpp):
                _add_word(acc, (path1, path2), sign * s1 * s2)
    return acc


def simplex_relation(path: Path):
    """Coherence relation of one simplex, as (quadratic, deletions).

    quadratic: words (front, back) from splitting the path, with sign
    (-1)^j at split position j; deletions: for each inner vertex, the
    (k-1)-simplex skipping it, with sign (-1)^(j+1), carried as
    (symbol, split_index, sign) for the pairing certificate.
    """
    k = len(path) - 1
    quadratic: Dict[Word, int] = {}
    deletions: List[Tuple[Path, int, int]] = []
    for j in range(k + 1):
        front = path[:j + 1]
        back = path[j:]
        _add_word(quadratic, (front, back), -1 if j % 2 else 1)
    for j in range(1, k):
        dropped = path[:j] + path[j + 1:]
        deletions.append((dropped, j, -1 if (j + 1) % 2 else 1))
    return quadratic, deletions


@dataclass(frozen=True)
class FaceCertificate:
    code: str
    ok: bool
    quadratic_terms: int
    cancelled_pairs: int
    detail: str = ""


@dataclass(frozen=True)
class AssemblyCertificate:
    n: int
    faces: Tuple[FaceCertificate, ...]

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.faces)


def _swap_steps(path: Path, j: int) -> Path:
    """Swap steps j and j+1 (1-based inner vertex j gets re-routed)."""
    steps = [next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
             for a, b in zip(path, path[1:])]
    steps[j - 1], steps[j] = steps[j], steps[j - 1]
    return _path(path[0], steps)


def certify_face(code: str) -> FaceCertificate:
    """Certify one face's cube equation against the simplex relations."""
    lhs = cube_equation_expansion(code)
    rhs_quadratic: Dict[Word, int] = {}
    deletion_terms: Dict[Tuple[Path, int], int] = {}
    for path, sigma in face_simplices(code):
        quadratic, deletions = simplex_relation(path)
        for word, c in quadratic.items():
            _add_word(rhs_quadratic, word, sigma * c)
        for _, j, c in deletions:
            deletion_terms[(path, j)] = sigma * c
    # deleted-vertex terms must cancel against the transposed path
    pairs = 0
    seen = set()
    for (path, j), c in deletion_terms.items():
        if (path, j) in seen:
            continue
        partner = (_swap_steps(path, j), j)
        if partner not in deletion_terms:
            return FaceCertificate(code, False, len(lhs), pairs,
                                   "unpaired deletion at %r" % (path,))
        if deletion_terms[partner] != -c:
            return FaceCertificate(code, False, len(lhs), pairs,
                                   "pair at %r does not cancel" % (path,))
        dropped_a = path[:j] + path[j + 1:]
        p2 = partner[0]
        dropped_b = p2[:j] + p2[j + 1:]
        if dropped_a != dropped_b:
            return FaceCertificate(code, False, len(lhs), pairs,
                                   "pair drops different simplices")
        seen.add((path, j))
        seen.add(partner)
        pairs += 1
    if rhs_quadratic != lhs:
        extra = {k: v for k, v in rhs_quadratic.items() if lhs.get(k) != v}
        return FaceCertificate(code, False, len(lhs), pairs,
                               "quadratic mismatch: %d words differ"
                               % len(extra))
    return FaceCertificate(code, True, len(lhs), pairs)


def certify_assembly(n: int) -> AssemblyCertificate:
    """Certify, for every face of the n-cube, that the assembled cube
    equation is a signed combination of the simplicial relations."""
    if n > MAX_SYMBOLIC_DIM:
        raise UnsupportedDimension(
            "symbolic certification implemented for dimension <= %d"
            % MAX_SYMBOLIC_DIM)
    return AssemblyCertificate(
        n, tuple(certify_face(code) for code in face_codes(n)))
