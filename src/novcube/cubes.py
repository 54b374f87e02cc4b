"""Cubical diagrams of chain complexes.

A cube of dimension n assigns a complex to each vertex of [0,1]^n and a map
``f_F`` to every face F (vertices included, where the map is the complex's
own differential), of parity dim(F)+1.  Faces are coded by strings over
"01-", a dash marking a varying coordinate.  For every face the signed
coherence equation must vanish: summing over the pairs of adjacent faces
(F', F'') whose smallest enclosing face is F,

    sum (-1)^(#(1,v) + #(01,v)) f_F'' . f_F'  =  0,

where v records, on the dashes of F, which half of the pair carries the
dash.  Converting every map by the sign (-1)^(#(0-,mu) + #(0,mu)) turns all
equations into plain sums; in that positive form a cube is nothing but a
square-zero block matrix that is triangular along the vertex order, which
is what the cone and total-complex operations exploit.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from .chain import (ChainComplex, Generator, MatrixEntries, Report,
                    mat_add, mat_clean, mat_compose, mat_equal, mat_identity,
                    mat_neg, matrix_from_json, matrix_to_json,
                    complex_from_json, complex_to_json, residual_violations)
from .novikov import rat


class InvalidDirection(ValueError):
    pass


class NotConiform(ValueError):
    pass


class NotGluable(ValueError):
    pass


class NotTriangle(ValueError):
    pass


# ---------------------------------------------------------------------------
# face combinatorics


def subtuple_count(w, v) -> int:
    """Number of subsequences of v equal to w (both strings or tuples)."""
    ways = [0] * (len(w) + 1)
    ways[0] = 1
    for ch in v:
        for j in range(len(w) - 1, -1, -1):
            if w[j] == ch:
                ways[j + 1] += ways[j]
    return ways[-1]


def face_dim(code: str) -> int:
    return code.count("-")


def initial_vertex(code: str) -> str:
    return code.replace("-", "0")


def terminal_vertex(code: str) -> str:
    return code.replace("-", "1")


def vertex_codes(n: int) -> List[str]:
    return ["".join(bits) for bits in product("01", repeat=n)]


def face_codes(n: int) -> List[str]:
    return ["".join(cs) for cs in product("01-", repeat=n)]


def insert_coord(code: str, i: int, ch: str) -> str:
    """Insert ch as the i-th coordinate (1-based)."""
    return code[:i - 1] + ch + code[i - 1:]


def drop_coord(code: str, i: int) -> str:
    return code[:i - 1] + code[i:]


def boundary_pairs(code: str) -> List[Tuple[str, str, str]]:
    """All (F', F'', v) with F' > F'' adjacent and F their smallest face.

    One pair for every word v over {0,1} on the dashes of F: at a dash, v=0
    puts the dash on F'' (F' pinned at 0) and v=1 puts it on F' (F'' pinned
    at 1).  For a vertex the single pair is (F, F) and the coherence
    equation degenerates to d.d = 0.
    """
    dashes = [i for i, ch in enumerate(code) if ch == "-"]
    out = []
    for bits in product("01", repeat=len(dashes)):
        fp = list(code)
        fpp = list(code)
        for pos, b in zip(dashes, bits):
            if b == "0":
                fp[pos] = "0"
            else:
                fpp[pos] = "1"
        out.append(("".join(fp), "".join(fpp), "".join(bits)))
    return out


def pair_sign_word(fprime: str, face: str) -> str:
    """The word v(F', F) read off the dashes of F."""
    if len(fprime) != len(face):
        raise ValueError("face codes of different dimension")
    bits = []
    for a, b in zip(fprime, face):
        if b == "-":
            if a == "-":
                bits.append("1")
            elif a == "0":
                bits.append("0")
            else:
                raise ValueError("%r does not start a boundary pair of %r"
                                 % (fprime, face))
        elif a != b:
            raise ValueError("%r is not contained in %r" % (fprime, face))
    return "".join(bits)


def cube_sign(fprime: str, face: str) -> int:
    """Sign of the term f_F'' . f_F' in the equation of ``face``."""
    v = pair_sign_word(fprime, face)
    return -1 if (subtuple_count("1", v) + subtuple_count("01", v)) % 2 else 1


def positive_sign_exponent(code: str) -> int:
    """Exponent of the sign converting to the all-plus equations."""
    return subtuple_count("0-", code) + subtuple_count("0", code)


def face_equation_terms(code: str, positive: bool = False):
    """The signed terms of the coherence equation at ``code``.

    Returns a list of (sign, F'', F') with the composite read right to
    left: f_F' first.
    """
    out = []
    for fp, fpp, v in boundary_pairs(code):
        if positive:
            sign = 1
        else:
            sign = -1 if (subtuple_count("1", v) + subtuple_count("01", v)) % 2 \
                else 1
        out.append((sign, fpp, fp))
    return out


# ---------------------------------------------------------------------------


class CubeDiagram:
    """An n-cube of complexes; ``positive=True`` marks all-plus signs."""

    def __init__(self, n: int, vertices: Dict[str, ChainComplex],
                 faces: Dict[str, MatrixEntries], positive: bool = False,
                 partial: bool = False):
        self.n = n
        self.positive = positive
        self.partial = partial
        self.vertices = dict(vertices)
        for w in vertex_codes(n):
            if w not in self.vertices:
                raise ValueError("missing vertex complex %r" % w)
        self.faces: Dict[str, MatrixEntries] = {}
        for code, entries in faces.items():
            if len(code) != n or any(ch not in "01-" for ch in code):
                raise ValueError("bad face code %r" % code)
            self.faces[code] = mat_clean(entries)
        for w in vertex_codes(n):
            given = self.faces.get(w)
            diff = self.vertices[w].differential
            if given is not None and not mat_equal(given, diff):
                raise ValueError("vertex face %r disagrees with the "
                                 "complex differential" % w)
            self.faces[w] = dict(diff)
        if not partial:
            for code in face_codes(n):
                self.faces.setdefault(code, {})

    def defined(self, code: str) -> bool:
        return code in self.faces

    def face(self, code: str) -> MatrixEntries:
        return self.faces[code]

    def vertex(self, code: str) -> ChainComplex:
        return self.vertices[code]

    def __eq__(self, other):
        if not isinstance(other, CubeDiagram):
            return NotImplemented
        return (self.n == other.n and self.positive == other.positive
                and self.vertices == other.vertices
                and {k: mat_clean(v) for k, v in self.faces.items()}
                == {k: mat_clean(v) for k, v in other.faces.items()})

    def __repr__(self):
        return "CubeDiagram(n=%d, %s)" % (
            self.n, "positive" if self.positive else "signed")

    def subcube(self, i: int, value: str) -> "CubeDiagram":
        """The (n-1)-cube sitting at {x_i = value}, value in '01'."""
        if not 1 <= i <= self.n:
            raise InvalidDirection("direction %d out of range" % i)
        m = self.n - 1
        vertices = {w: self.vertices[insert_coord(w, i, value)]
                    for w in vertex_codes(m)}
        faces = {}
        for code in face_codes(m):
            big = insert_coord(code, i, value)
            if big in self.faces:
                faces[code] = self.faces[big]
        return CubeDiagram(m, vertices, faces, self.positive, self.partial)

    def relabel_vertices(self, fn) -> "CubeDiagram":
        """Apply a per-vertex label map: fn(vertex_code, label) -> label."""
        verts = {w: c.relabel(lambda l, w=w: fn(w, l))
                 for w, c in self.vertices.items()}
        faces = {}
        for code, entries in self.faces.items():
            wi, wt = initial_vertex(code), terminal_vertex(code)
            faces[code] = {(fn(wt, t), fn(wi, s)): v
                           for (t, s), v in entries.items()}
        return CubeDiagram(self.n, verts, faces, self.positive, self.partial)


def entry_violations(cube: CubeDiagram) -> List[Tuple[str, str]]:
    """Face entries outside their complexes, of the wrong parity or of
    negative valuation, as ``(face code, detail)``; no precision needed."""
    bad: List[Tuple[str, str]] = []
    parity = {w: {g.label: g.parity for g in c.generators}
              for w, c in cube.vertices.items()}
    for code, entries in cube.faces.items():
        if not entries:
            continue
        want = (face_dim(code) + 1) % 2
        src = parity[initial_vertex(code)]
        tgt = parity[terminal_vertex(code)]
        for (t, s), v in entries.items():
            if s not in src or t not in tgt:
                bad.append((code, "entry (%r, %r) outside its complexes"
                            % (t, s)))
                continue
            if (tgt[t] - src[s]) % 2 != want:
                bad.append((code, "entry (%r, %r) has wrong parity" % (t, s)))
            if v.val() < 0:
                bad.append((code, "entry (%r, %r) has negative valuation %s"
                            % (t, s, v.val())))
    return bad


def verify_cube(cube: CubeDiagram, work) -> Report:
    """Parity, valuations and every face's coherence equation mod T^work."""
    work = rat(work)
    bad = entry_violations(cube)
    for code in face_codes(cube.n):
        if not cube.defined(code):
            continue
        terms = []
        skip = False
        for sign, fpp, fp in face_equation_terms(code, cube.positive):
            if not (cube.defined(fp) and cube.defined(fpp)):
                skip = True
                break
            prod = mat_compose(cube.face(fpp), cube.face(fp))
            terms.append(prod if sign > 0 else mat_neg(prod))
        if skip:
            if not cube.partial:
                bad.append((code, "equation depends on undefined faces"))
            continue
        residual = mat_add(*terms) if terms else {}
        for t, s, detail in residual_violations(residual, work):
            bad.append((code, "equation residual at (%r, %r): %s"
                        % (t, s, detail)))
    return Report(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# sign conversion


def _toggle_signs(cube: CubeDiagram, positive: bool) -> CubeDiagram:
    faces = {}
    for code, entries in cube.faces.items():
        if positive_sign_exponent(code) % 2:
            entries = mat_neg(entries)
        faces[code] = entries
    vertices = {}
    for w, c in cube.vertices.items():
        d = faces[w]
        vertices[w] = ChainComplex(c.generators, d)
    return CubeDiagram(cube.n, vertices, faces, positive, cube.partial)


def to_positive_signs(cube: CubeDiagram) -> CubeDiagram:
    """Multiply each f_F by (-1)^(#(0-,mu)+#(0,mu)); equations lose signs."""
    if cube.positive:
        raise ValueError("cube already in positive form")
    return _toggle_signs(cube, True)


def from_positive_signs(cube: CubeDiagram) -> CubeDiagram:
    """Inverse of :func:`to_positive_signs` (the same sign rule)."""
    if not cube.positive:
        raise ValueError("cube not in positive form")
    return _toggle_signs(cube, False)


# ---------------------------------------------------------------------------
# cones


def _shifted_generator(g: Generator, bit: str) -> Generator:
    parity = 1 - g.parity if bit == "0" else g.parity
    return Generator((bit, g.label), parity)


def cone(cube: CubeDiagram, i: int) -> CubeDiagram:
    """Contract direction i, generalizing the mapping cone.

    Per vertex the module is C^(w,i,0)[1] (+) C^(w,i,1), generators being
    relabelled ("0", l) and ("1", l); per face the map is the block
    triangular combination of the three faces over it.  Signs enter only
    through conversion to and from the positive form.
    """
    if cube.positive:
        raise ValueError("cone applies to cubes in signed form")
    if not 1 <= i <= cube.n:
        raise InvalidDirection("direction %d not in 1..%d" % (i, cube.n))
    plus = to_positive_signs(cube)
    m = cube.n - 1
    faces: Dict[str, MatrixEntries] = {}
    for code in face_codes(m):
        blk: MatrixEntries = {}
        for (t, s), v in plus.face(insert_coord(code, i, "0")).items():
            blk[(("0", t), ("0", s))] = v
        for (t, s), v in plus.face(insert_coord(code, i, "1")).items():
            blk[(("1", t), ("1", s))] = v
        for (t, s), v in plus.face(insert_coord(code, i, "-")).items():
            blk[(("1", t), ("0", s))] = v
        faces[code] = blk
    vertices = {}
    for w in vertex_codes(m):
        gens = [_shifted_generator(g, "0")
                for g in plus.vertex(insert_coord(w, i, "0")).generators]
        gens += [_shifted_generator(g, "1")
                 for g in plus.vertex(insert_coord(w, i, "1")).generators]
        vertices[w] = ChainComplex(gens, faces[w])
    return from_positive_signs(CubeDiagram(m, vertices, faces, positive=True))


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
    if cube.positive:
        raise ValueError("decone applies to cubes in signed form")
    strip = splittings is None
    if splittings is None:
        splittings = {}
        for w, c in cube.vertices.items():
            a = {l for l in c.labels
                 if isinstance(l, tuple) and len(l) == 2 and l[0] == "0"}
            b = {l for l in c.labels
                 if isinstance(l, tuple) and len(l) == 2 and l[0] == "1"}
            if a | b != set(c.labels):
                raise NotConiform("vertex %r has no declared splitting and "
                                  "labels are not cone-shaped" % w)
            splittings[w] = (a, b)
    plus = to_positive_signs(cube)
    n = cube.n + 1
    unwrap = (lambda l: l[1]) if strip else (lambda l: l)

    faces: Dict[str, MatrixEntries] = {}
    for code in face_codes(cube.n):
        a_in, b_in = splittings[initial_vertex(code)]
        a_ter, b_ter = splittings[terminal_vertex(code)]
        blocks = {"0": {}, "1": {}, "-": {}}
        for (t, s), v in plus.face(code).items():
            if s in a_in and t in a_ter:
                blocks["0"][(unwrap(t), unwrap(s))] = v
            elif s in b_in and t in b_ter:
                blocks["1"][(unwrap(t), unwrap(s))] = v
            elif s in a_in and t in b_ter:
                blocks["-"][(unwrap(t), unwrap(s))] = v
            else:
                raise NotConiform(
                    "face %r has an upper-triangular entry (%r, %r)"
                    % (code, t, s))
        for ch in "01-":
            faces[insert_coord(code, i, ch)] = blocks[ch]
    vertices = {}
    for w in vertex_codes(cube.n):
        a, b = splittings[w]
        c = cube.vertex(w)
        for bit, part in (("0", a), ("1", b)):
            code = insert_coord(w, i, bit)
            gens = [Generator(unwrap(g.label),
                              (1 - g.parity) if bit == "0" else g.parity)
                    for g in c.generators if g.label in part]
            vertices[code] = ChainComplex(gens, faces[code])
    return from_positive_signs(
        CubeDiagram(n, vertices, faces, positive=True))


def total_complex(cube: CubeDiagram) -> ChainComplex:
    """The maximally iterated cone, in one step.

    Generators are (vertex_code, label) with parity shifted by the number
    of zeros of the vertex; the differential assembles every face map with
    its positive-form sign.  Iterating :func:`cone` over all directions in
    any order gives the same complex after the canonical regrouping of
    labels.
    """
    gens: List[Generator] = []
    for w in vertex_codes(cube.n):
        z = w.count("0")
        for g in cube.vertex(w).generators:
            gens.append(Generator((w, g.label), (g.parity + z) % 2))
    diff: MatrixEntries = {}
    for code, entries in cube.faces.items():
        flip = (not cube.positive) and positive_sign_exponent(code) % 2
        wi, wt = initial_vertex(code), terminal_vertex(code)
        for (t, s), v in entries.items():
            diff[((wt, t), (wi, s))] = -v if flip else v
    return ChainComplex(gens, diff)


def cone_labels_canonical(label, order: List[int]):
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


def iterated_cone(cube: CubeDiagram) -> ChainComplex:
    """Cone away direction 1 repeatedly, then canonicalize the labels."""
    c = cube
    n = cube.n
    while c.n > 0:
        c = cone(c, 1)
    cx = c.vertex("")
    order = list(range(1, n + 1))
    return cx.relabel(lambda l: cone_labels_canonical(l, order))


# ---------------------------------------------------------------------------
# structural constructions


def id_cube(cube: CubeDiagram) -> CubeDiagram:
    """The identity map on a cube, as an (n+1)-cube (new direction last).

    Both outer faces are the cube, edges in the new direction carry the
    identity, all higher fillers vanish.
    """
    if cube.positive:
        raise ValueError("id_cube applies to cubes in signed form")
    n = cube.n
    vertices = {}
    for w in vertex_codes(n + 1):
        vertices[w] = cube.vertex(w[:-1])
    faces: Dict[str, MatrixEntries] = {}
    for code in face_codes(n):
        for bit in "01":
            faces[code + bit] = dict(cube.face(code))
    for w in vertex_codes(n):
        faces[w + "-"] = mat_identity(cube.vertex(w).labels)
    return CubeDiagram(n + 1, vertices, faces)


def glueable(first: CubeDiagram, second: CubeDiagram, k: Optional[int] = None
             ) -> bool:
    """Whether ``second`` can be glued after ``first`` in direction k."""
    if first.n != second.n:
        return False
    if k is None:
        k = first.n
    try:
        a = first.subcube(k, "1")
        b = second.subcube(k, "0")
    except InvalidDirection:
        return False
    return a == b


def compose(first: CubeDiagram, second: CubeDiagram) -> CubeDiagram:
    """Composition of two maps of (n-1)-cubes glued in the last direction.

    The faces that straddle the gluing carry the signed sum over the
    boundary pairs of the underlying (n-1)-face, composing a face of the
    first cube with one of the second; the iterated cone of the result in
    the other directions is the plain composite of the iterated cones.
    """
    n = first.n
    if second.n != n:
        raise NotGluable("dimensions differ")
    if not glueable(first, second, n):
        raise NotGluable("shared face differs")
    vertices = {}
    for w in vertex_codes(n):
        vertices[w] = (first if w[-1] == "0" else second).vertex(w)
    faces: Dict[str, MatrixEntries] = {}
    for code in face_codes(n - 1):
        faces[code + "0"] = first.face(code + "0")
        faces[code + "1"] = second.face(code + "1")
        acc: List[MatrixEntries] = []
        for fp, fpp, v in boundary_pairs(code):
            term = mat_compose(second.face(fpp + "-"), first.face(fp + "-"))
            if subtuple_count("01", v) % 2:
                term = mat_neg(term)
            acc.append(term)
        faces[code + "-"] = mat_add(*acc) if acc else {}
    return CubeDiagram(n, vertices, faces)


def compose_many(cubes: List[CubeDiagram]) -> CubeDiagram:
    out = cubes[0]
    for nxt in cubes[1:]:
        out = compose(out, nxt)
    return out


# ---------------------------------------------------------------------------
# shape predicates and the triangle-to-slit conversion


def is_id_cube(cube: CubeDiagram, work) -> bool:
    """Outer faces equal, identity edges in the last direction, no fillers."""
    if cube.n < 1:
        return False
    n = cube.n
    if cube.subcube(n, "0") != cube.subcube(n, "1"):
        return False
    for w in vertex_codes(n - 1):
        if not mat_equal(cube.face(w + "-"),
                         mat_identity(cube.vertex(w + "0").labels)):
            return False
    for code in face_codes(n - 1):
        if face_dim(code) > 0 and mat_clean(cube.face(code + "-")):
            return False
    return True


def is_slit(cube: CubeDiagram, work) -> bool:
    """A homotopy between two maps: both outermost faces are id cubes."""
    if cube.n < 2 or not verify_cube(cube, work):
        return False
    return (is_id_cube(cube.subcube(cube.n, "0"), work)
            and is_id_cube(cube.subcube(cube.n, "1"), work))


def is_triangle(cube: CubeDiagram, work) -> bool:
    """A homotopy-commuting triangle: face {x_n = 0} is an id cube."""
    if cube.n < 2 or not verify_cube(cube, work):
        return False
    return is_id_cube(cube.subcube(cube.n, "0"), work)


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
    comp = compose(f, fprime)
    source = f.subcube(n - 1, "0")     # the cube C
    target = fprime.subcube(n - 1, "1")  # the cube C''
    vertices = {}
    for w in vertex_codes(n):
        vertices[w] = (source if w[-1] == "0" else target).vertex(w[:-2])
    faces: Dict[str, MatrixEntries] = {}
    for code in face_codes(n - 2):
        for b in "01-":
            faces[code + "0" + b] = comp.face(code + b)
            faces[code + "1" + b] = g.face(code + b)
        faces[code + "--"] = dict(tri.face(code + "--"))
    for w in vertex_codes(n - 2):
        faces[w + "-0"] = mat_identity(source.vertex(w).labels)
        faces[w + "-1"] = mat_identity(target.vertex(w).labels)
    return CubeDiagram(n, vertices, faces)


# ---------------------------------------------------------------------------
# JSON


def cube_to_json(cube: CubeDiagram) -> dict:
    return {
        "n": cube.n,
        "positive": cube.positive,
        "vertices": {w: complex_to_json(c)
                     for w, c in sorted(cube.vertices.items())},
        "faces": {code: matrix_to_json(m)
                  for code, m in sorted(cube.faces.items())
                  if face_dim(code) > 0 and m},
    }


def cube_from_json(data: dict) -> CubeDiagram:
    vertices = {w: complex_from_json(c)
                for w, c in data["vertices"].items()}
    faces = {code: matrix_from_json(m)
             for code, m in data.get("faces", {}).items()}
    return CubeDiagram(int(data["n"]), vertices, faces,
                       positive=bool(data.get("positive", False)),
                       partial=bool(data.get("partial", False)))
