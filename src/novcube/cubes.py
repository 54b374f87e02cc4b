"""Cubical diagrams of chain complexes.

A cube of dimension n assigns a complex to each vertex of [0,1]^n and a map
``f_F`` to every face F (vertices included, where the map is the complex's
own differential), of parity dim(F)+1.  Faces are coded by strings over
"01-", a dash marking a varying coordinate.  For every face the signed
coherence equation must vanish: summing over the pairs of adjacent faces
(F', F'') whose smallest enclosing face is F,

    sum (-1)^(#(1,v) + #(01,v)) f_F'' . f_F'  =  0,

where v records, on the dashes of F, which half of the pair carries the
dash.  One sign rule, multiplying each f_F by (-1)^(#(0-,F) + #(0,F))
(:func:`positive_sign_exponent`), turns every equation into a plain sum.

Data model.  In that positive form a cube is nothing but a square-zero
block matrix D that is triangular along the vertex order, and that is how
a :class:`CubeDiagram` is stored: the generators of each vertex complex
plus D, keyed ``((w_t, t), (w_s, s))``, whose (w_s, w_t) block is the
positive-form map of the face from w_s to w_t.  Face maps, vertex
complexes, JSON and a check's residuals are views of D; ``positive``
only chooses whether they are signed, and constructions read D alone, so
a cut of a cube's positive twin (the same D) is the twin of its cut.
The (w', w) block of D.D is the coherence equation of the face
F = [w, w'] times (-1)^(#(0-,F) + dim F), so :func:`verify_cube` is one
matrix product; :func:`cone`, :func:`compose` and telescopes relabel or
multiply D, :func:`total_complex` is D with shifted parities,
:meth:`CubeDiagram.face_cube` is the one cut of a face (or subcube) out
of D and :meth:`CubeDiagram.recode` the one re-sign of it, and ``==``
and :func:`glueable` compare D, building no vertex complex.  The mapping
cone of a chain map, :func:`cone_of_map`, is the total complex of its
1-cube.  D is a stored map (see :mod:`novcube.chain`): the face-map
constructor and :func:`compose` write it through ``chain.mat_clean``, so
an entry known only modulo a power of T stays on every face, and a given
vertex face must equal its complex's differential exactly; other
constructions relabel, cut or copy D.  Checks count an entry with no
stored term as vanishing.

Certificates.  A cube carries ``verified_mod`` as a complex does (see
:mod:`novcube.chain`): ``morse.hamiltonian_cube`` sets ``INFINITY``, a
passing :func:`verify_cube` records its precision, and face cubes,
relabellings, sign conversions, :func:`cone`, vertex views,
:func:`total_complex` of a total cube and ``rays.telescope`` of stages
that glue pass on the least certificate of their parts; every other
construction starts with None.  A vertex view holds nothing of its own:
it is built from D on every read, with the cube's certificate as it
stands.  ``rays.mayer_vietoris`` checks a square through
``chain.checked``; :func:`verify_cube` always runs in full.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

from .chain import (ChainComplex, Generator, MatrixEntries, QComplex, Report,
                    complex_from_json, complex_to_json, is_chain_map,
                    json_field, mat_clean, mat_compose, mat_neg,
                    matrix_from_json, matrix_to_json, record,
                    square_violations)
from .errors import NotChainMap, NotConiform, NotGluable
from .novikov import ONE, json_keys, rat


class InvalidDirection(ValueError):
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


def face_between(ws: str, wt: str) -> str:
    """The code of the face from vertex ws up to vertex wt."""
    return "".join(a if a == b else "-" for a, b in zip(ws, wt))


def vertex_codes(n: int) -> List[str]:
    return ["".join(bits) for bits in product("01", repeat=n)]


def face_codes(n: int) -> List[str]:
    return ["".join(cs) for cs in product("01-", repeat=n)]


# face codes translated so that string order is :func:`face_codes` order
_FACE_ORDER = str.maketrans("01-", "012")


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
    pairs = list(zip(fprime, face))
    if len(fprime) != len(face) or any(
            (a, b) == ("1", "-") or a != b != "-" for a, b in pairs):
        raise ValueError("%r does not start a boundary pair of %r"
                         % (fprime, face))
    return "".join("1" if a == "-" else "0" for a, b in pairs if b == "-")


def cube_sign(fprime: str, face: str) -> int:
    """Sign of the term f_F'' . f_F' in the equation of ``face``."""
    v = pair_sign_word(fprime, face)
    return -1 if (subtuple_count("1", v) + subtuple_count("01", v)) % 2 else 1


def positive_sign_exponent(code: str) -> int:
    """Exponent of the sign converting to the all-plus equations."""
    return subtuple_count("0-", code) + subtuple_count("0", code)


@lru_cache(maxsize=4096)
def _flips(ws: str, wt: str) -> bool:
    """Whether the signed and the positive form differ on the face from
    ws to wt."""
    return positive_sign_exponent(face_between(ws, wt)) % 2 == 1


@lru_cache(maxsize=4096)
def _on_face(code: str, c: str) -> Optional[str]:
    """The code of the vertex or face ``c`` within the face ``code``, or
    None when c is not on it."""
    if all(a in ("-", b) for a, b in zip(code, c)):
        return "".join([b for a, b in zip(code, c) if a == "-"])
    return None


def face_equation_terms(code: str, positive: bool = False):
    """The signed terms of the coherence equation at ``code``.

    Returns a list of (sign, F'', F') with the composite read right to
    left: f_F' first.
    """
    return [(1 if positive else cube_sign(fp, code), fpp, fp)
            for fp, fpp, _ in boundary_pairs(code)]


# ---------------------------------------------------------------------------

Gens = Dict[str, Tuple[Generator, ...]]


def _put(D: MatrixEntries, code: str, entries: MatrixEntries,
         positive: bool) -> None:
    """Add the face map ``entries`` at ``code`` to D in positive form,
    through :func:`~novcube.chain.mat_clean`."""
    flip = entries and not positive and positive_sign_exponent(code) % 2
    ws, wt = initial_vertex(code), terminal_vertex(code)
    for (t, s), v in mat_clean(entries).items():
        D[((wt, t), (ws, s))] = -v if flip else v


class CubeDiagram:
    """An n-cube of complexes, stored as its positive-form total matrix.

    ``gens[w]`` holds the generators of the complex at vertex w and ``D``
    the positive-form total differential (see the module docstring).  The
    constructor takes face maps in the convention ``positive`` names,
    signed by default.  A partial cube defines only the given faces and
    the vertices; verification skips the equations that need any other.
    ``verified_mod`` is the d*d certificate (see the module docstring).
    """

    def __init__(self, n: int, vertices: Dict[str, ChainComplex],
                 faces: Dict[str, MatrixEntries], positive: bool = False,
                 partial: bool = False):
        for w in vertex_codes(n):
            if w not in vertices:
                raise ValueError("missing vertex complex %r" % w)
        for w in vertices:
            if len(w) != n or any(ch not in "01" for ch in w):
                raise ValueError("bad vertex code %r" % w)
        for code in faces:
            if len(code) != n or any(ch not in "01-" for ch in code):
                raise ValueError("bad face code %r" % code)
        given = dict(faces)
        for w in vertex_codes(n):
            diff = vertices[w].differential
            if w in given and mat_clean(given[w]) != diff:
                raise ValueError("vertex face %r disagrees with the "
                                 "complex differential" % w)
            given[w] = diff
        D: MatrixEntries = {}
        for code, entries in given.items():
            _put(D, code, entries, positive)
        self._init(n, {w: vertices[w].generators for w in vertex_codes(n)},
                   D, positive, set(given) if partial else None, None)

    @classmethod
    def from_matrix(cls, n: int, gens: Gens, D: MatrixEntries,
                    positive: bool = False, defined: Optional[set] = None,
                    verified_mod=None) -> "CubeDiagram":
        """The cube of vertex generators ``gens`` and positive-form D,
        which holds no exact zero and which it keeps; ``defined`` lists a
        partial cube's face codes."""
        cube = cls.__new__(cls)
        cube._init(n, gens, D, positive, defined, verified_mod)
        return cube

    def _init(self, n, gens, D, positive, defined, verified_mod):
        self.verified_mod = verified_mod
        self.n = n
        self.positive = positive
        self.gens: Gens = {w: tuple(gens[w]) for w in sorted(gens)}
        self.D: MatrixEntries = D
        self._defined = defined

    # -- views of D ------------------------------------------------------

    @property
    def partial(self) -> bool:
        return self._defined is not None

    def defined(self, code: str) -> bool:
        if self._defined is not None:
            return code in self._defined
        return len(code) == self.n and all(ch in "01-" for ch in code)

    @property
    def codes(self) -> List[str]:
        """The defined face codes."""
        if self._defined is None:
            return face_codes(self.n)
        return sorted(self._defined, key=lambda c: c.translate(_FACE_ORDER))

    @cached_property
    def _blocks(self) -> Dict[Tuple[str, str], MatrixEntries]:
        """D cut into face blocks keyed (initial vertex, terminal vertex),
        in the order of D."""
        out: Dict[Tuple[str, str], MatrixEntries] = {}
        for ((wt, t), (ws, s)), v in self.D.items():
            out.setdefault((ws, wt), {})[(t, s)] = v
        return out

    def _view(self, ws: str, wt: str) -> MatrixEntries:
        block = self._blocks.get((ws, wt), {})
        if self.positive or not _flips(ws, wt):
            return dict(block)
        return mat_neg(block)

    def face(self, code: str) -> MatrixEntries:
        if not self.defined(code):
            raise KeyError(code)
        return self._view(initial_vertex(code), terminal_vertex(code))

    @property
    def faces(self) -> Dict[str, MatrixEntries]:
        """Every defined face map: those with entries first, in the order
        of D, then the others."""
        out = {face_between(ws, wt): self._view(ws, wt)
               for ws, wt in self._blocks}
        out.update((code, {}) for code in self.codes if code not in out)
        return out

    def vertex(self, code: str) -> ChainComplex:
        """The complex at vertex ``code``, built from D on every read,
        with the cube's certificate as it stands."""
        return ChainComplex(self.gens[code], self._view(code, code),
                            self.verified_mod)

    @property
    def vertices(self) -> Dict[str, ChainComplex]:
        return {w: self.vertex(w) for w in self.gens}

    @cached_property
    def total_t0(self) -> QComplex:
        """The total complex at T = 0, reduced on first use and kept, so
        that the min/max check of a square and its Mayer–Vietoris
        sequence reduce it once."""
        return total_complex(self).reduce_t0()

    def __eq__(self, other):
        """Same n, sign form, defined faces, vertex generators and D."""
        if not isinstance(other, CubeDiagram):
            return NotImplemented
        return (self.n == other.n and self.positive == other.positive
                and self._defined == other._defined
                and self.gens.keys() == other.gens.keys()
                and all(set(g) == set(other.gens[w])
                        for w, g in self.gens.items())
                and self.D == other.D)

    def __repr__(self):
        return "CubeDiagram(n=%d, %s)" % (
            self.n, "positive" if self.positive else "signed")

    # -- relabellings of D -------------------------------------------------

    def recode(self, move: Callable[[str], Optional[str]]
               ) -> Tuple[Gens, MatrixEntries]:
        """Generators and D carried to the vertex codes ``move`` gives
        (vertices it maps to None are dropped), re-signed so that every
        signed face map keeps its value, whatever this cube's form."""
        gens = {move(w): g for w, g in self.gens.items()}
        gens.pop(None, None)
        D: MatrixEntries = {}
        for ((wt, t), (ws, s)), v in self.D.items():
            a, b = move(ws), move(wt)
            if a is None or b is None:
                continue
            if _flips(ws, wt) != _flips(a, b):
                v = -v
            D[((b, t), (a, s))] = v
        return gens, D

    def face_cube(self, code: str) -> "CubeDiagram":
        """The face ``code`` as a cube in its dashed coordinates: D cut
        and re-signed by :meth:`recode`, with this cube's certificate."""
        if len(code) != self.n or any(ch not in "01-" for ch in code):
            raise ValueError("bad face code %r" % code)
        defined = None if self._defined is None else \
            {_on_face(code, c) for c in self._defined} - {None}
        gens, D = self.recode({w: _on_face(code, w) for w in self.gens}.get)
        return CubeDiagram.from_matrix(face_dim(code), gens, D, self.positive,
                                       defined, self.verified_mod)

    def subcube(self, i: int, value: str) -> "CubeDiagram":
        """The (n-1)-cube sitting at {x_i = value}, value in '01'."""
        if not 1 <= i <= self.n:
            raise InvalidDirection("direction %d out of range" % i)
        return self.face_cube("-" * (i - 1) + value + "-" * (self.n - i))

    def relabel_vertices(self, fn) -> "CubeDiagram":
        """Apply a per-vertex label map: fn(vertex_code, label) -> label."""
        gens = {w: [Generator(fn(w, g.label), g.parity) for g in gs]
                for w, gs in self.gens.items()}
        D = {((wt, fn(wt, t)), (ws, fn(ws, s))): v
             for ((wt, t), (ws, s)), v in self.D.items()}
        return CubeDiagram.from_matrix(self.n, gens, D, self.positive,
                                       self._defined, self.verified_mod)


def entry_violations(cube: CubeDiagram) -> List[Tuple[str, str]]:
    """Face entries outside their complexes, of the wrong parity or of
    negative valuation, as ``(face code, detail)``; no precision needed."""
    bad: List[Tuple[str, str]] = []
    parity = {w: {g.label: g.parity for g in gs}
              for w, gs in cube.gens.items()}
    for ((wt, t), (ws, s)), v in cube.D.items():
        code = face_between(ws, wt)
        src, tgt = parity[ws], parity[wt]
        if s not in src or t not in tgt:
            bad.append((code, "entry (%r, %r) outside its complexes"
                        % (t, s)))
            continue
        if (tgt[t] - src[s]) % 2 != (face_dim(code) + 1) % 2:
            bad.append((code, "entry (%r, %r) has wrong parity" % (t, s)))
        lead = v.lead
        if lead is not None and lead < 0:
            bad.append((code, "entry (%r, %r) has negative valuation %s"
                        % (t, s, v.val())))
    return bad


def verify_cube(cube: CubeDiagram, work) -> Report:
    """Parity, valuations and every face's coherence equation mod T^work.

    With D ordered by (source vertex, target vertex), D.D meets each
    block's terms in the order of the face's boundary pairs; violations
    then follow :func:`face_codes`.  A partial cube skips each face whose
    equation needs an undefined one.  A pass raises the certificate to
    ``work``.
    """
    D = dict(sorted(cube.D.items(), key=lambda kv: (kv[0][1][0],
                                                    kv[0][0][0])))

    def odd(t, s):  # the signed equation is minus this block of D.D
        code = face_between(s[0], t[0])
        return (subtuple_count("0-", code) + face_dim(code)) % 2 == 1

    found = []
    for t, s, detail in square_violations(D, work,
                                          None if cube.positive else odd):
        code = face_between(s[0], t[0])
        if cube.partial and not all(cube.defined(f) for fp, fpp, _ in
                                    boundary_pairs(code) for f in (fp, fpp)):
            continue
        found.append((code, "equation residual at (%r, %r): %s"
                      % (t[1], s[1], detail)))
    found.sort(key=lambda f: f[0].translate(_FACE_ORDER))
    bad = entry_violations(cube) + found
    if not bad:
        record(cube, rat(work))
    return Report(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# sign conversion


def _toggle_signs(cube: CubeDiagram, positive: bool) -> CubeDiagram:
    return CubeDiagram.from_matrix(cube.n, cube.gens, cube.D, positive,
                                   cube._defined, cube.verified_mod)


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


def coneable(cube: CubeDiagram) -> None:
    """Refuse a partial cube, as cones do; either form is read as D."""
    if cube.partial:
        raise ValueError("cone applies to total cubes")


def cone(cube: CubeDiagram, i: int) -> CubeDiagram:
    """Contract direction i, generalizing the mapping cone.

    Per vertex the module is C^(w,i,0)[1] (+) C^(w,i,1), generators being
    relabelled ("0", l) and ("1", l).  In positive form this only regroups
    D: (w, l) becomes (w without coordinate i, (w_i, l)).
    """
    coneable(cube)
    if not 1 <= i <= cube.n:
        raise InvalidDirection("direction %d not in 1..%d" % (i, cube.n))

    def cut(key):
        w, l = key
        return w[:i - 1] + w[i:], (w[i - 1], l)

    gens: Dict[str, List[Generator]] = {}
    for w, gs in cube.gens.items():
        bit = w[i - 1]
        gens.setdefault(w[:i - 1] + w[i:], []).extend(
            Generator((bit, g.label), 1 - g.parity if bit == "0" else g.parity)
            for g in gs)
    D = {(cut(t), cut(s)): v for (t, s), v in cube.D.items()}
    return CubeDiagram.from_matrix(cube.n - 1, gens, D,
                                   verified_mod=cube.verified_mod)


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


def total_complex(cube: CubeDiagram) -> ChainComplex:
    """The maximally iterated cone, in one step: D itself.

    Generators are (vertex_code, label) with parity shifted by the number
    of zeros of the vertex.  Iterating :func:`cone` over all directions in
    any order gives the same complex after the canonical regrouping of
    labels.
    """
    gens = [Generator((w, g.label), (g.parity + w.count("0")) % 2)
            for w, gs in cube.gens.items() for g in gs]
    return ChainComplex(gens, cube.D,
                        None if cube.partial else cube.verified_mod)


def cone_of_map(source: ChainComplex, target: ChainComplex,
                entries: MatrixEntries) -> ChainComplex:
    """Mapping cone of an even chain map, checked to be one exactly: the
    total complex of its 1-cube, ``[[-d, 0], [f, d']]`` on generators
    ("0", l) of ``source``, parities flipped, and ("1", l) of ``target``."""
    for (t, s) in entries:
        if (target.parity(t) - source.parity(s)) % 2 != 0:
            raise NotChainMap("map has an odd entry (%r, %r)" % (t, s))
    if not is_chain_map(entries, source, target):
        raise NotChainMap("matrix does not commute with differentials")
    return total_complex(CubeDiagram(1, {"0": source, "1": target},
                                     {"-": entries}))


# ---------------------------------------------------------------------------
# structural constructions


def id_cube(cube: CubeDiagram) -> CubeDiagram:
    """The identity map on a cube, as an (n+1)-cube (new direction last).

    Both outer faces are the cube, edges in the new direction carry the
    identity, all higher fillers vanish.
    """
    gens, D = cube.recode(lambda w: w + "0")
    top_gens, top_D = cube.recode(lambda w: w + "1")
    gens.update(top_gens)
    D.update(top_D)
    for w, gs in cube.gens.items():
        for g in gs:
            D[((w + "1", g.label), (w + "0", g.label))] = ONE
    return CubeDiagram.from_matrix(cube.n + 1, gens, D)


def glueable(first: CubeDiagram, second: CubeDiagram, k: Optional[int] = None
             ) -> bool:
    """Whether ``second`` glues after ``first`` in direction k: their faces
    x_k = 1 and x_k = 0 agree, compared in place under the sign rule of
    :meth:`CubeDiagram.recode`, so whatever the two cubes' sign forms."""
    k = first.n if k is None else k
    if first.n != second.n or not 1 <= k <= first.n:
        return False

    def face(c, b):  # generators, D and defined faces of x_k = b at x_k = 0
        at = {w: w[:k - 1] + "0" + w[k:] for w in c.gens if w[k - 1] == b}
        return c.recode(at.get) + (c._defined and {
            f[:k - 1] + f[k:] for f in c._defined if f[k - 1] == b},)

    (g1, D1, f1), (g2, D2, f2) = face(first, "1"), face(second, "0")
    return D1 == D2 and f1 == f2 and all(set(g) == set(g2[w])
                                         for w, g in g1.items())


def _straddles(key) -> bool:
    """Whether a D entry goes from x_n = 0 to x_n = 1."""
    (wt, _), (ws, _) = key
    return ws[-1] == "0" and wt[-1] == "1"


def compose(first: CubeDiagram, second: CubeDiagram) -> CubeDiagram:
    """Composition of two maps of (n-1)-cubes glued in the last direction.

    In positive form the result is ``first`` on x_n = 0, ``second`` on
    x_n = 1, and the product of their straddling blocks in between; the
    iterated cone of the result in the other directions is the plain
    composite of the iterated cones.
    """
    n = first.n
    if second.n != n:
        raise NotGluable("dimensions differ")
    if not glueable(first, second, n):
        raise NotGluable("shared face differs")
    D = {k: v for k, v in first.D.items() if k[0][0][-1] == "0"}
    D.update((k, v) for k, v in second.D.items() if k[1][0][-1] == "1")
    # first's straddling targets are second's x_n = 0 vertices
    into = {((t[0][:-1] + "0", t[1]), s): v
            for (t, s), v in first.D.items() if _straddles((t, s))}
    onto = {k: v for k, v in second.D.items() if _straddles(k)}
    D.update(mat_clean(mat_compose(onto, into)))
    gens = {w: (first if w[-1] == "0" else second).gens[w]
            for w in first.gens}
    return CubeDiagram.from_matrix(n, gens, D)


# ---------------------------------------------------------------------------
# shape predicates and the triangle-to-slit conversion


def is_id_cube(cube: CubeDiagram) -> bool:
    """Outer faces equal, identity edges in the last direction, no fillers."""
    if cube.n < 1 or not glueable(cube, cube):
        return False
    ident = {((w[:-1] + "1", g.label), (w, g.label)): ONE
             for w, gs in cube.gens.items() if w[-1] == "0" for g in gs}
    return {k: v for k, v in cube.D.items() if _straddles(k)} == ident


def is_slit(cube: CubeDiagram, work) -> bool:
    """A homotopy between two maps: both outermost faces are id cubes."""
    if cube.n < 2 or not verify_cube(cube, work):
        return False
    return (is_id_cube(cube.subcube(cube.n, "0"))
            and is_id_cube(cube.subcube(cube.n, "1")))


def is_triangle(cube: CubeDiagram, work) -> bool:
    """A homotopy-commuting triangle: face {x_n = 0} is an id cube."""
    if cube.n < 2 or not verify_cube(cube, work):
        return False
    return is_id_cube(cube.subcube(cube.n, "0"))


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
# JSON: the signed (or positive) view of D


def cube_to_json(cube: CubeDiagram) -> dict:
    faces = {face_between(ws, wt): cube._view(ws, wt)
             for ws, wt in cube._blocks if ws != wt}
    return {
        "n": cube.n,
        "positive": cube.positive,
        "vertices": {w: complex_to_json(c)
                     for w, c in sorted(cube.vertices.items())},
        "faces": {code: matrix_to_json(m)
                  for code, m in sorted(faces.items()) if m},
    }


def cube_from_json(data: dict) -> CubeDiagram:
    json_keys(data, {"n", "positive", "partial", "vertices", "faces"},
              "a cube")
    vertices = {w: complex_from_json(c)
                for w, c in data["vertices"].items()}
    faces = {code: matrix_from_json(m)
             for code, m in data.get("faces", {}).items()}
    return CubeDiagram(json_field(data, "n", int), vertices, faces,
                       positive=json_field(data, "positive", bool, False),
                       partial=json_field(data, "partial", bool, False))
