"""Semi-infinite diagrams of cubes: telescopes, completion, descent.

An n-ray is a sequence of n-cubes glued in the last direction, stored as a
finite prefix plus a tail descriptor.  Only tails whose behaviour modulo a
declared precision is decidable are supported: ``finite`` (everything later
vanishes, so the direct limit is 0), ``stationary`` (one map-cube repeats
forever and its mapping entries all have valuation >= gap > 0, so
N >= r0/gap composed tail maps vanish modulo T^r0), both with completed
homology zero, and ``model`` (a closed-form family supplied by the Morse model,
whose rays :func:`novcube.morse.region_ray` and
:func:`novcube.morse.scaling_ray` build, each stage once per ray).  Rays
derived from a ray (cones, vertex rays cut out of D) come from
:func:`_derived` and carry no closed form.  Descent matches d_0 with the
telescopes of the vertices' own rays (the caller's regions', else vertex
rays) and reads each slice at T = 0 in place in D.

The telescope of a ray is the homotopy-colimit cube: per vertex the sum of
a shifted and an unshifted copy of every slice, with the differential
``x~ - dx + f(x)`` on shifted generators, materialized to a finite depth
in one pass (:func:`telescope`).  A telescope whose stages glue (each
pair decided once per ray by :meth:`Ray.glued_through`: a region ray's
from its weights, any other's on faces) passes on their least d*d
certificate capped by its least entry precision, since its copy maps
meet each entry with itself; :func:`telescope_complex` first certifies
each uncertified stage by one exact check, kept either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Dict, List, Optional, Tuple

from .chain import (Barcode, ChainComplex, Generator, Label, MatrixEntries,
                    checked, mat_clean, mat_compose, mat_identity,
                    record, reduce_map_t0)
from .cubes import (CubeDiagram, cone, cone_of_map, compose, coneable,
                    entry_violations, from_positive_signs, glueable,
                    total_complex, verify_cube, vertex_codes)
from .errors import NotAcyclic, NotCoherent, SliceNotAcyclic
from .linalg import Vector, is_exact
from .novikov import INFINITY, NovikovScalar, rat


class UnsupportedTail(ValueError):
    pass


def zero_cube(n: int) -> CubeDiagram:
    return CubeDiagram.from_matrix(n, {w: () for w in vertex_codes(n)}, {},
                                   verified_mod=INFINITY)


def map_cube_gap(cube: CubeDiagram) -> Fraction:
    """Least valuation among the mapping faces (last coordinate a dash)."""
    return min((v.val() for ((wt, _), (ws, _)), v in cube.D.items()
                if ws[-1] == "0" and wt[-1] == "1"), default=INFINITY)


@dataclass(frozen=True)
class TailSpec:
    """Tail behaviour beyond the prefix.

    kind "finite": all later slices vanish.
    kind "stationary": ``cube`` repeats forever; its mapping faces have
    valuation >= ``gap`` > 0, so stage k contributes only above T^(k*gap).
    kind "model": ``stage_fn(k)`` yields the k-th map-cube; ``closed_form``,
    when present, evaluates the completed homology directly.  ``stage_fn``
    must be a pure function of k: a :class:`Ray` calls it at most once per
    stage and serves the cached cube afterwards.  ``regions``, when
    present, maps each vertex of the slice cube to the region of the model
    whose cofinal family the stages weigh (see :mod:`novcube.morse`).
    ``glue(k)``, set by :func:`novcube.morse.region_ray` alone, proves
    from the weights that stages k and k + 1 glue; other rays compare faces.
    """
    kind: str
    cube: Optional[CubeDiagram] = None
    stage_fn: Optional[Callable[[int], CubeDiagram]] = None
    closed_form: Optional[Callable] = None
    regions: Optional[Dict[str, object]] = None
    glue: Optional[Callable[[int], bool]] = None

    @staticmethod
    def finite() -> "TailSpec":
        return TailSpec("finite")

    @staticmethod
    def stationary(cube: CubeDiagram) -> "TailSpec":
        gap = map_cube_gap(cube)
        if not (gap > 0):
            raise ValueError("stationary tail needs mapping valuations "
                             "bounded below by a positive gap, got %s" % gap)
        return TailSpec("stationary", cube=cube)

    @staticmethod
    def model(stage_fn, closed_form=None, regions=None) -> "TailSpec":
        return TailSpec("model", stage_fn=stage_fn, closed_form=closed_form,
                        regions=regions)


class Ray:
    """n-cubes D_1, D_2, ... consecutively gluable in the last direction.
    It keeps :meth:`fault` without ``work``, how far its stages glue and
    the least R of a stored entry known only modulo T^R."""

    def __init__(self, n: int, prefix: List[CubeDiagram], tail: TailSpec,
                 check: bool = True):
        self.n = n
        self.prefix = list(prefix)
        self.tail = tail
        self._stages: Dict[int, CubeDiagram] = {}
        self._glued, self._unglued = 0, False  # stages 1.._glued glue on
        if check and self._built_fault:
            raise ValueError(self._built_fault)

    def stored_cubes(self) -> List[Tuple[str, CubeDiagram]]:
        """The prefix cubes and a stationary tail's cube, each with the
        name that errors give it."""
        tail = [("tail cube", self.tail.cube)] \
            if self.tail.kind == "stationary" else []
        return [("prefix cube %d" % k, c)
                for k, c in enumerate(self.prefix, 1)] + tail

    def fault(self, work=None) -> Optional[str]:
        """Why the stored cubes make no ray, as ``"<cube>, face '<code>':
        <detail>"``, else None: a prefix cube of another dimension, a cube
        positive, partial or with unsound entries, or one not glued onto
        the next; a stationary tail's gap <= 0 raises.  At ``work`` a cube
        must also pass :func:`checked`, certified exactly first if it can."""
        if self._built_fault or work is None:
            return self._built_fault
        for name, cube in self.stored_cubes():
            _certify_exactly(cube)
            bad = checked(cube, work, verify_cube).violations
            if bad:
                return "%s, face %r: %s" % ((name,) + bad[0])
        return None

    @cached_property
    def _built_fault(self) -> Optional[str]:
        if self.tail.kind == "stationary":  # refuses a gap <= 0
            TailSpec.stationary(self.tail.cube)
        named = self.stored_cubes()
        for name, cube in named[:len(self.prefix)]:
            if cube.n != self.n:
                return "%s has dimension %d" % (name, cube.n)
        for name, cube in named:
            if cube.positive:
                return "%s is in positive form; a ray needs signed " \
                       "cubes" % name
            if cube.partial:
                return "%s is partial; a ray needs total cubes" % name
            bad = entry_violations(cube)
            if bad:
                return "%s, face %r: %s" % ((name,) + bad[0])
        if not self.glued_through(len(self.prefix) + 1 if self.tail.kind
                                  == "stationary" else len(self.prefix) - 1):
            return "%s, face %r: does not glue onto %s" % (
                named[self._glued][0], "-" * (self.n - 1) + "1",
                named[min(self._glued + 1, len(named) - 1)][0])
        return None

    def glued_through(self, k) -> bool:
        """Whether stages 1..k each glue onto the next, each pair decided once
        per ray: finite tails glue by construction, a stationary tail's pair
        repeats, a tail's ``glue`` proves its pairs, faces decide the rest."""
        p, kind, proof = len(self.prefix), self.tail.kind, self.tail.glue
        if kind != "model":
            k = min(k, p + 1 if kind == "stationary" else p - 1)
        while self._glued < k and not self._unglued:
            j = self._glued + 1
            if proof(j) if proof and j > p else glueable(
                    self.map_cube(j), self.map_cube(j + 1), self.n):
                self._glued += 1
            else:
                self._unglued = True
        return self._glued >= k

    @cached_property
    def _least_mod(self):
        return min((v.mod for _, c in self.stored_cubes()
                    for v in c.D.values() if v.mod is not None),
                   default=INFINITY)

    def map_cube(self, k: int) -> CubeDiagram:
        """The k-th map-cube D_k (1-based), synthesizing the tail.

        A model tail's stages, and a finite tail's map to zero, are built
        on first use and kept on the ray.
        """
        p, kind = len(self.prefix), self.tail.kind
        if k <= 0:
            raise IndexError("stages are 1-based")
        if k <= p:
            return self.prefix[k - 1]
        if kind == "stationary":
            return self.tail.cube
        if kind == "finite" and (k > p + 1 or not p):
            return zero_cube(self.n)
        if kind not in ("finite", "model"):
            raise UnsupportedTail(kind)
        if k not in self._stages:
            self._stages[k] = self.tail.stage_fn(k) if kind == "model" \
                else map_to_zero(self.prefix[-1].subcube(self.n, "1"))
        return self._stages[k]

    def slice(self, k: int) -> CubeDiagram:
        """The k-th slice C_k, an (n-1)-cube."""
        return self.map_cube(k).subcube(self.n, "0")


def map_to_zero(slice_cube: CubeDiagram) -> CubeDiagram:
    """The map-cube from a slice to the zero slice."""
    gens, D = slice_cube.recode(lambda w: w + "0")
    gens.update((w + "1", ()) for w in slice_cube.gens)
    return CubeDiagram.from_matrix(slice_cube.n + 1, gens, D,
                                   verified_mod=slice_cube.verified_mod)


# ---------------------------------------------------------------------------
# telescopes


def telescope(ray: Ray, depth: int) -> CubeDiagram:
    """Materialized telescope: stages 1..depth shifted + 1..depth+1 plain.

    One pass over the stages' generators and positive-form D writes slice
    1 (``subcube(n, "0")`` of stage 1) as ("tel", 1, "u", l), then the
    last-direction cone of each stage k: x_n = 0 as ("tel", k, "s", l)
    with parities flipped, x_n = 1 as ("tel", k + 1, "u", l), and the copy
    map +1 from each shifted summand to its plain one, which makes
    contracting the telescope equal the telescope of the contracted ray.
    It is quasi-isomorphic to slice depth+1, with its stages' least
    certificate, capped by its least entry precision, when they glue.
    """
    stages = [ray.map_cube(k) for k in range(1, max(depth, 1) + 1)]
    certs = [s.verified_mod for s in stages]
    glued = None not in certs and ray.glued_through(len(stages) - 1)
    one, first = NovikovScalar.one(), _slice_in_place(stages[0])
    gens = {w: [Generator(("tel", 1, "u", g.label), g.parity) for g in gs]
            for w, gs in first.gens.items()}
    D = {((wt, ("tel", 1, "u", t)), (ws, ("tel", 1, "u", s))): -v
         for ((wt, t), (ws, s)), v in first.D.items()}
    for k, stage in enumerate(stages[:depth], 1):
        coneable(stage)
        tag = {"0": ("tel", k, "s"), "1": ("tel", k + 1, "u")}
        for ((wt, t), (ws, s)), v in stage.D.items():
            D[(wt[:-1], tag[wt[-1]] + (t,)), (ws[:-1], tag[ws[-1]] + (s,))] = v
        for w, gs in gens.items():
            gs += [Generator(tag[b] + (g.label,),
                             1 - g.parity if b == "0" else g.parity)
                   for b in "01" for g in stage.gens[w + b]]
            for g in stage.gens[w + "0"]:
                D[(w, ("tel", k, "u", g.label)),
                  (w, ("tel", k, "s", g.label))] = one
    cert = min(certs + [v.mod for v in D.values() if v.mod is not None]) \
        if glued else None
    return CubeDiagram.from_matrix(ray.n - 1, gens, D, verified_mod=cert)


def _slice_in_place(stage: CubeDiagram) -> CubeDiagram:
    """``stage.subcube(n, "0")`` without the cut's re-sign, which negates
    every entry (a "0" appended to a face code adds one to its sign
    exponent): no rank or d*d residual sees it."""
    gens = {w[:-1]: g for w, g in stage.gens.items() if w[-1] == "0"}
    D = {((wt[:-1], t), (ws[:-1], s)): v for ((wt, t), (ws, s)), v
         in stage.D.items() if wt[-1] == ws[-1] == "0"}
    return CubeDiagram.from_matrix(stage.n - 1, gens, D, verified_mod=None
                                   if stage.partial else stage.verified_mod)


def _certify_exactly(cube: CubeDiagram) -> None:
    """Make the certificate of an uncertified ``cube`` INFINITY when
    D.D = 0 exactly: every entry is exact, and one :func:`verify_cube`
    passes above the exponent of every product of two entries.  A cube
    that fails is marked ``exact_failed`` and not checked again."""
    if cube.verified_mod is not None or getattr(cube, "exact_failed", False) \
            or any(v.mod is not None for v in cube.D.values()):
        return
    top = max((v.terms[-1][0] for v in cube.D.values() if v), default=0)
    if verify_cube(cube, 2 * top + 1):
        cube.verified_mod = INFINITY
    else:
        cube.exact_failed = True


def telescope_complex(ray: Ray, depth: int) -> ChainComplex:
    """Fully coned telescope, as a single complex, built to be reduced:
    each stage it uses is first certified exactly if it can be."""
    for k in range(1, max(depth, 1) + 1):
        _certify_exactly(ray.map_cube(k))
    tel = telescope(ray, depth)
    if tel.n == 0:
        return tel.vertex("")
    return total_complex(tel)


def _derived(ray: Ray, n: int, f: Callable[[CubeDiagram], CubeDiagram],
             regions=None) -> Ray:
    """The n-ray whose stages are ``f`` of the stages of ``ray``, model
    stages read from its cache, with the model tail's ``regions``: the one
    derivation of rays from rays."""
    prefix = [f(c) for c in ray.prefix]
    tail = ray.tail
    if tail.kind == "stationary":
        tail = TailSpec.stationary(f(tail.cube))
    elif tail.kind == "model":
        tail = TailSpec.model(lambda k: f(ray.map_cube(k)), regions=regions)
    return Ray(n, prefix, tail, check=False)


def cone_ray(ray: Ray, d: int) -> Ray:
    """Cone every stage in a non-last direction; an (n-1)-ray results."""
    if not 1 <= d <= ray.n - 1:
        raise ValueError("cone direction must avoid the gluing direction")
    return _derived(ray, ray.n - 1, lambda c: cone(c, d))


# ---------------------------------------------------------------------------
# direct limits at T = 0 and compression


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
# completed homology at a declared precision


def completed_homology(ray: Ray, r0, work=None) -> Barcode:
    """Homology of the completed telescope modulo T^r0, as a barcode.

    Finite and stationary tails give zero: a finite tail's limit is 0, and
    gap > 0 makes N >= r0/gap composed tail maps vanish modulo T^r0.  This
    needs gap > 0 and no :meth:`Ray.fault` at ``work = max(work, r0)``,
    or ValueError names cube and face.  The precision is ``work`` or the
    least R of a stored entry known only modulo T^R.  Model tails use the
    family's closed form.
    """
    r0 = rat(r0)
    work = r0 if work is None else max(rat(work), r0)
    tail = ray.tail
    if tail.kind not in ("finite", "stationary"):
        if tail.closed_form is None:  # set on model tails only
            raise UnsupportedTail("no closed form for tail %r" % (tail.kind,))
        return tail.closed_form(r0)
    bad = ray.fault(work)
    if bad:
        raise ValueError("barcode needs a verified complex: " + bad)
    return Barcode((), (), min(work, ray._least_mod))


# ---------------------------------------------------------------------------
# acyclicity of telescoped rays


class TailVerdict(Enum):
    """How far a slice certificate reaches beyond the checked slices.

    Each value is the certificate's ``tail_note`` text.
    """
    FINITE = "tail slices vanish"
    STATIONARY_ACYCLIC = "stationary tail slice acyclic"
    MODEL_STABLE = "model tail T=0 structure stable at depth"
    MODEL_VARIES = ("model tail varies at depth; certificate covers the "
                    "materialized stages only")


@dataclass(frozen=True)
class SliceCertificate:
    checked_slices: int
    betti: Tuple[Tuple[int, int], ...]
    tail: TailVerdict
    telescope_acyclic: bool

    @property
    def tail_note(self) -> str:
        return self.tail.value

    @property
    def ok(self) -> bool:
        return all(b == (0, 0) for b in self.betti) and self.telescope_acyclic


def descent_depth(depth: int) -> int:
    if depth < 0:
        raise ValueError("depth %d is negative: no slice to check" % depth)
    return depth


def acyclic_slices_implies_acyclic(ray: Ray, work, depth: int, *,
                                   tel: Optional[ChainComplex] = None
                                   ) -> SliceCertificate:
    """Certify telescope acyclicity from per-slice acyclicity.

    Each materialized slice's iterated cone (:func:`_slice_in_place`) must
    be acyclic at T = 0; for stationary and stage-independent model tails
    this extends to every stage, and then the telescope (and its
    completion) is acyclic.  A direct check of the materialized telescope
    is included; ``tel`` is that telescope, ``telescope_complex(ray,
    depth)``, when the caller has already built it.
    """
    bettis = []
    for k in range(1, descent_depth(depth) + 2):
        cx = total_complex(_slice_in_place(ray.map_cube(k)))
        ok, betti = cx.is_acyclic(work)
        bettis.append(betti)
        if not ok:
            raise SliceNotAcyclic("slice %d has T=0 homology %r" % (k, betti))
    tail = ray.tail
    if tail.kind == "finite":
        verdict = TailVerdict.FINITE
    elif tail.kind == "stationary":
        ok, _ = total_complex(_slice_in_place(tail.cube)).is_acyclic(work)
        if not ok:
            raise SliceNotAcyclic("stationary tail slice is not acyclic")
        verdict = TailVerdict.STATIONARY_ACYCLIC
    else:
        # cx is still the total complex of slice depth + 1
        a = reduce_map_t0(cx.differential)
        b = reduce_map_t0(_slice_in_place(ray.map_cube(depth + 2)).D)
        verdict = TailVerdict.MODEL_STABLE if a == b \
            else TailVerdict.MODEL_VARIES
    if tel is None:
        tel = telescope_complex(ray, depth)
    tel_ok, _ = tel.is_acyclic(work)
    return SliceCertificate(depth + 1, tuple(bettis), verdict, tel_ok)


# ---------------------------------------------------------------------------
# the six-term exact sequence of an acyclic square


@dataclass(frozen=True)
class ExactnessReport:
    ok: bool
    spots: Dict[str, Dict[int, bool]]
    ranks: Dict[str, Tuple[int, int]]

    def __bool__(self):
        return self.ok


def _induced(qmap, src_labels, src_space, dst_labels, dst_space
             ) -> List[Vector]:
    """The induced map on homology: for each rep of ``src_space``, the
    ``dst_space`` coordinates of its image under ``qmap``."""
    idx = {l: i for i, l in enumerate(dst_labels)}
    by_source: Dict[Label, List[Tuple[int, Fraction]]] = {}
    for (t, s), v in qmap.items():
        if t in idx:
            by_source.setdefault(s, []).append((idx[t], v))
    cols = []
    for rep in src_space.reps:
        image: Vector = {}
        for i, x in rep.items():
            for j, v in by_source.get(src_labels[i], ()):
                image[j] = image.get(j, 0) + v * x
        cols.append(dst_space.coords(image))
    return cols


def mayer_vietoris(square: CubeDiagram, work) -> ExactnessReport:
    """Six-term exact sequence extracted from an acyclic square.

    The degree-preserving maps are x -> (e10 x, e01 x) and (a, b) ->
    e11 a - e11' b; the connecting map lifts a cycle of the terminal
    corner through the acyclic total complex and reads off its initial
    component.  Each map is kept as sparse columns of homology
    coordinates over the residue field, and each of the three spots, per
    parity, is tested by ``linalg.is_exact``: exact iff the composite of
    the incoming and the outgoing map vanishes and their ranks add up to
    the dimension of the homology at the spot.  A positive square is read
    as its signed twin but keeps its own pass.
    """
    if square.n != 2:
        raise ValueError("mayer_vietoris expects a 2-cube")
    given = square
    square = from_positive_signs(square) if square.positive else square
    rep = checked(square, rat(work), verify_cube)
    if not rep:
        raise NotCoherent("square does not verify: %s" % (rep.violations,))
    record(given, rat(work))
    # the T = 0 total complex, factored once; its factor lifts the cycles
    tq = given.total_t0
    if not tq.is_acyclic():
        raise NotAcyclic("the square's iterated cone has T=0 homology %r"
                         % (tq.homology_ranks(),))
    corners = {w: square.vertex(w).reduce_t0()
               for w in ("00", "10", "01", "11")}
    e10 = reduce_map_t0(square.face("-0"))
    e01 = reduce_map_t0(square.face("0-"))
    f11a = reduce_map_t0(square.face("1-"))   # from corner 10
    f11b = reduce_map_t0(square.face("-1"))   # from corner 01

    spaces = {w: {p: q.homology_space(p) for p in (0, 1)}
              for w, q in corners.items()}
    ranks = {w: (spaces[w][0][1].dim, spaces[w][1][1].dim)
             for w in spaces}

    rho, sigma = {}, {}
    for p in (0, 1):
        l00, h00 = spaces["00"][p]
        l10, h10 = spaces["10"][p]
        l01, h01 = spaces["01"][p]
        l11, h11 = spaces["11"][p]
        rho[p] = [{**a, **{h10.dim + k: v for k, v in b.items()}}
                  for a, b in zip(_induced(e10, l00, h00, l10, h10),
                                  _induced(e01, l00, h00, l01, h01))]
        sigma[p] = (_induced(f11a, l10, h10, l11, h11)
                    + [{k: -v for k, v in col.items()}
                       for col in _induced(f11b, l01, h01, l11, h11)])

    delta = {}
    for p in (0, 1):
        l11, h11 = spaces["11"][p]
        l00s, h00s = spaces["00"][1 - p]
        at11 = [tq.index[("11", l)] for l in l11]
        at00 = [tq.index[("00", l)] for l in l00s]
        delta[p] = []
        for z in h11.reps:
            sol = tq.factor.solve({at11[i]: v for i, v in z.items()})
            if sol is None:
                raise NotAcyclic("cycle failed to lift in the total complex")
            delta[p].append(h00s.coords(
                {k: sol[j] for k, j in enumerate(at00) if j in sol}))

    spots: Dict[str, Dict[int, bool]] = {"sum": {}, "terminal": {},
                                         "initial": {}}
    for p in (0, 1):
        dim_sum = ranks["10"][p] + ranks["01"][p]
        spots["sum"][p] = is_exact(rho[p], sigma[p], dim_sum)
        spots["terminal"][p] = is_exact(sigma[p], delta[p], ranks["11"][p])
        spots["initial"][p] = is_exact(delta[1 - p], rho[p], ranks["00"][p])
    ok = all(all(v.values()) for v in spots.values())
    return ExactnessReport(ok, spots, ranks)


# ---------------------------------------------------------------------------
# the combined multi-subset complex


def vertex_ray(ray: Ray, w: str) -> Ray:
    """The 1-ray sitting over one vertex of the slice cube: the face
    cubes w- of its stages, and the region at w when the ray keeps its
    regions."""
    regions = ray.tail.regions and {"": ray.tail.regions[w]}
    return _derived(ray, 1, lambda big: big.face_cube(w + "-"), regions)


def degree_parts(cx: ChainComplex) -> Dict[int, MatrixEntries]:
    """Split the differential by the change in the subset-size grading.

    Generators of the telescoped subset-cube complex carry labels
    (vertex_code, stage_label); the grading is the number of ones of the
    vertex code.
    """
    parts: Dict[int, MatrixEntries] = {}
    for (t, s), v in cx.differential.items():
        k = t[0].count("1") - s[0].count("1")
        parts.setdefault(k, {})[(t, s)] = v
    return parts


@dataclass(frozen=True)
class DescentReport:
    complex: ChainComplex
    degree_entry_counts: Dict[int, int]
    d0_matches_summands: bool
    certificate: SliceCertificate
    acyclic: bool


def descent_complex(ray: Ray, work, depth: int, summands=None
                    ) -> DescentReport:
    """The single complex of a subset-cube ray, with its degree filtration.

    Materializes the telescoped, fully coned complex; exposes the
    decomposition d = d_0 + d_1 + ... by subset size (d_0 being the direct
    sum of the per-subset telescope differentials, up to the iterated-cone
    sign); reports acyclicity from per-slice acyclicity, cross-checked on
    the materialized telescope.  ``summands`` maps each vertex to the
    telescope of its own ray, by default its :func:`vertex_ray`.
    """
    cx = telescope_complex(ray, descent_depth(depth))
    parts = degree_parts(cx)
    blocks: Dict[Tuple[str, str], MatrixEntries] = {}
    for (t, s), v in parts.get(0, {}).items():
        blocks.setdefault((t[0], s[0]), {})[(t[1], s[1])] = v
    d0_ok = True
    for w in vertex_codes(ray.n - 1):
        summand = summands[w] if summands is not None else \
            telescope_complex(vertex_ray(ray, w), depth)
        # the summand sits inside the iterated cone shifted #0(w) times:
        # for an odd count its differential is negated and then transported
        # by the diagonal sign +1 on shifted, -1 on plain copies
        odd = w.count("0") % 2
        expected = {(t, s): -v if odd and t[2] == s[2] else v
                    for (t, s), v in summand.differential.items()}
        d0_ok &= blocks.get((w, w), {}) == expected
    cert = acyclic_slices_implies_acyclic(ray, work, depth, tel=cx)
    acyclic = cert.ok and cert.tail is not TailVerdict.MODEL_VARIES
    return DescentReport(
        cx, {k: len(v) for k, v in sorted(parts.items())}, d0_ok, cert,
        acyclic)
