"""A finite cell model with values: weighted complexes and their limits.

Cells carry a parity, a rational value, and optionally a projection to a
base point set through which all weight functions must factor.  The
boundary operator is an integer matrix, squaring to zero, whose arrows do
not decrease the value function; weighting its entries by T to the value
difference produces complexes over the nonnegative part of the Novikov
ring, and monotone families of weight functions produce rays whose
completed telescopes are computed here in closed form and cross-checked
against finite stages of the same ray.  Every stage is built by
:func:`hamiltonian_cube`, the one stage builder; :func:`cf` and
:func:`continuation` build a stage's vertex complexes and edge maps one
by one and serve as the references it is checked against.

A closed region (no arrow enters it from outside) is a :class:`Region`
value, resolved from labels and checked once by :meth:`Region.of`; its
unions and intersections are regions.  A region keeps its Betti numbers
and the weights of its cofinal family (-1/k on its cells, +k elsewhere)
stage by stage, and :func:`region_ray` builds the ray of a vertex ->
region map, which its model tail keeps.

Weights are compared and subtracted on the exponent lattice: each call
puts its weight functions on one denominator (:func:`on_lattice`) and
works with ``int`` numerators over it; a region's weights are born there,
as :class:`Weights`.  ``MorseModel`` checks parity and the boundary's
square once, exactly, so :func:`cf` and :func:`hamiltonian_cube`, which
refuse weights that are not admissible or not monotone, carry the d*d
certificate ``INFINITY``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import lcm
from operator import and_, or_
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple)

from .chain import (Barcode, ChainComplex, Generator, Label,
                    MatrixEntries, QComplex, json_field, json_rational,
                    mat_compose, mat_equal)
from .cubes import (CubeDiagram, face_codes, initial_vertex,
                    positive_sign_exponent, terminal_vertex, vertex_codes)
from .errors import (Inadmissible, InadmissibleSubset, NotMonotone,
                     NotNegative, StageCheckFailed)
from .novikov import INFINITY, from_series, json_keys, rat
from .rays import (DescentReport, Ray, TailSpec, completed_homology,
                   descent_complex, descent_depth, telescope_complex)


Hamiltonian = Dict[Label, Fraction]  # or :class:`Weights`


class MorseModel:
    """Cells, integer boundary, values, and an optional base projection."""

    def __init__(self, cells: Iterable[Generator],
                 boundary: Dict[Tuple[Label, Label], int],
                 values: Dict[Label, Fraction],
                 base_map: Optional[Dict[Label, Label]] = None):
        self.cells = tuple(cells)
        self.labels: Tuple[Label, ...] = tuple(g.label for g in self.cells)
        self._parity = {g.label: g.parity for g in self.cells}
        self.boundary = {k: int(v) for k, v in boundary.items() if v}
        self.values = {l: rat(values[l]) for l in self._parity}
        self.base_map = dict(base_map) if base_map is not None else None
        for (t, s) in self.boundary:
            if (self._parity[t] - self._parity[s]) % 2 != 1:
                raise ValueError("boundary entry (%r, %r) has even parity"
                                 % (t, s))
        if any(mat_compose(self.boundary, self.boundary).values()):
            raise ValueError("boundary does not square to zero")
        if self.base_map is not None and \
                set(self.base_map) != set(self._parity):
            raise ValueError("base map must cover every cell")

    def parity(self, label: Label) -> int:
        return self._parity[label]


class Weights(dict):
    """A weight function on the lattice (1/den)Z: each cell's ``int``
    numerator over ``den``."""

    def __init__(self, den: int, numerators: Dict[Label, int]):
        super().__init__(numerators)
        self.den = den


def on_lattice(model: MorseModel, *hs: Hamiltonian):
    """One denominator ``den`` for the weight functions ``hs``, each given
    as :class:`Weights` or as rationals by cell, and each one's ``int``
    numerators over it, cell by cell."""
    hs = [[(h[l], h.den) for l in model.labels] if isinstance(h, Weights)
          else [rat(h[l]).as_integer_ratio() for l in model.labels]
          for h in hs]
    den = lcm(*[d for h in hs for _, d in h])
    return den, [{l: n * (den // d) for l, (n, d) in zip(model.labels, h)}
                 for h in hs]


def admissibility(model: MorseModel, h: Hamiltonian):
    """The step h(q) - h(p) of every arrow as an ``int`` numerator over
    the denominator ``den`` of h, the violations (arrows along which h
    decreases, and base fibres on which it is not constant), and ``den``."""
    den, (n,) = on_lattice(model, h)
    return _steps(model, n, den) + (den,)


def _steps(model: MorseModel, n: Dict[Label, int], den: int):
    """:func:`admissibility`'s steps and violations for the numerators
    ``n`` of a weight function over ``den``."""
    steps = {(q, p): n[q] - n[p] for (q, p) in model.boundary}
    bad = [(q, p, Fraction(e, den)) for (q, p), e in steps.items() if e < 0]
    if model.base_map is not None:
        by_base: Dict[Label, int] = {}
        for l in model.labels:
            b = model.base_map[l]
            if b in by_base and by_base[b] != n[l]:
                bad.append((l, "base", b))
            by_base.setdefault(b, n[l])
    return steps, bad


def cf(model: MorseModel, h: Hamiltonian) -> ChainComplex:
    """The weighted complex: entry (q, p) is boundary * T^(h(q) - h(p)).

    Square-zero exactly, as the boundary is: its certificate is INFINITY.
    """
    steps, bad, den = admissibility(model, h)
    if bad:
        raise Inadmissible("weight function decreases along %r" % (bad,))
    return ChainComplex(model.cells, {
        k: from_series((((steps[k], c),), None), den)
        for k, c in model.boundary.items()}, INFINITY)


def continuation(model: MorseModel, h: Hamiltonian, h2: Hamiltonian
                 ) -> MatrixEntries:
    """Diagonal map p -> T^(h2(p) - h(p)) p between weighted complexes.

    The exponent bookkeeping (h2(q)-h(q)) + (h(q)-h(p)) =
    (h2(p)-h(p)) + (h2(q)-h2(p)) makes it a chain map identically.
    """
    den, (a, b) = on_lattice(model, h, h2)
    out: MatrixEntries = {}
    for l in model.labels:
        step = b[l] - a[l]
        if step < 0:
            raise NotMonotone("weight decreases at %r" % (l,))
        out[(l, l)] = from_series((((step, 1),), None), den)
    return out


class _Monomials(dict):
    """The scalar T^(e/den) c of each term (e, c), built when first asked
    for; one instance serves one :func:`hamiltonian_cube` call."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, term):
        self[term] = x = from_series(((term,), None), self.den)
        return x


def hamiltonian_cube(model: MorseModel,
                     assign: Dict[str, Hamiltonian]) -> CubeDiagram:
    """Strict cube of weighted complexes over a vertex-indexed family.

    Edges are the diagonal continuations; since diagonal maps compose
    strictly, every higher filler is zero and the cube is valid whenever
    the family is monotone along the vertex order: its certificate is
    INFINITY.  Built in one pass on one lattice for all the weight
    functions: each vertex is checked as :func:`cf` checks it, then each
    edge as :func:`continuation` does, with their exceptions and in their
    order, and positive-form D is written directly, edges first (in
    :func:`face_codes` order) and then the vertex complexes, whose views
    equal ``cf`` of each weight function.  Every entry is a monomial, and
    the entries with one (exponent numerator, coefficient) share one
    immutable scalar, built on first use; nothing is kept past the call.
    """
    n = len(next(iter(assign)))
    codes = vertex_codes(n)
    den, nums = on_lattice(model, *[assign[w] for w in codes])
    num = dict(zip(codes, nums))
    steps = {}
    for w in codes:
        steps[w], bad = _steps(model, num[w], den)
        if bad:
            raise Inadmissible("weight function decreases along %r" % (bad,))
    mono = _Monomials(den)
    D: MatrixEntries = {}
    for code in face_codes(n):
        if code.count("-") != 1:
            continue
        ws, wt = initial_vertex(code), terminal_vertex(code)
        sign = -1 if positive_sign_exponent(code) % 2 else 1
        for l in model.labels:
            step = num[wt][l] - num[ws][l]
            if step < 0:
                raise NotMonotone("weight decreases at %r" % (l,))
            D[(wt, l), (ws, l)] = mono[step, sign]
    for w in codes:
        sign = -1 if positive_sign_exponent(w) % 2 else 1
        for (t, s), c in model.boundary.items():
            D[(w, t), (w, s)] = mono[steps[w][t, s], sign * c]
    return CubeDiagram.from_matrix(n, dict.fromkeys(codes, model.cells), D,
                                   verified_mod=INFINITY)


# ---------------------------------------------------------------------------
# closed forms for the completed invariants


def open_bar_barcode(betti: Tuple[int, int], r0) -> Barcode:
    bars = (0,) * betti[0] + (1,) * betti[1]
    return Barcode((), (), rat(r0), open_bars=bars)


def scaling_hamiltonian(model: MorseModel, n: int) -> Hamiltonian:
    return {l: model.values[l] / n for l in model.labels}


def scaling_ray(model: MorseModel) -> Ray:
    """The 1-ray of the scaling family H/k: stage k is the
    :func:`hamiltonian_cube` of H/k -> H/(k+1)."""
    def stage(k):
        return hamiltonian_cube(model, {
            "0": scaling_hamiltonian(model, k),
            "1": scaling_hamiltonian(model, k + 1)})

    return Ray(1, [], TailSpec.model(stage, lambda prec: open_bar_barcode(
        Region(model, frozenset(model.labels)).betti, prec)), check=False)


@dataclass(frozen=True)
class GlobalSectionsReport:
    barcode: Barcode
    betti: Tuple[int, int]
    stage_weights_checked: int


def global_sections(model: MorseModel, r0, depth: int
                    ) -> GlobalSectionsReport:
    """Completed limit of the scaling family 1/n * values, at precision r0.

    Requires strictly negative values.  The surviving module per cell is
    spanned by T^e with 0 < e < r0 (the union of the stage images), so the
    answer is the boundary's rational homology in open bars.  Checked on
    stages 1..depth of the :func:`scaling_ray` whose limit it returns:
    each stage edge must weight cell p by -H(p)/(n(n+1)), and each stage
    complex must have the boundary's Betti numbers as free ranks.
    """
    if any(v >= 0 for v in model.values.values()):
        raise NotNegative("global sections need strictly negative values")
    r0 = rat(r0)
    betti = Region(model, frozenset(model.labels)).betti
    ray = scaling_ray(model)
    for n in range(1, depth + 1):
        stage = ray.map_cube(n)
        edge = stage.face("-")
        for l in model.labels:
            expo = edge[(l, l)].val()
            if expo != -model.values[l] / (n * (n + 1)):
                raise StageCheckFailed(
                    "stage %d weight of cell %r is %s, not -H/(n(n+1))"
                    % (n, l, expo))
        code = stage.vertex("0").barcode(max(r0, 3))
        if code.free_ranks() != betti:
            raise StageCheckFailed(
                "stage %d free ranks %r differ from the Betti numbers %r"
                % (n, code.free_ranks(), betti))
    barcode = completed_homology(ray, r0)
    return GlobalSectionsReport(barcode, betti, depth * len(model.labels))


def empty_set(model: MorseModel, r0) -> Barcode:
    """Completed limit of the shift family values + s: vanishes identically.

    The stage complexes are all equal and the stage map is the diagonal
    multiplication by T, so the image of N composed maps sits above T^N
    and the completed direct limit is zero at every precision.
    """
    h = model.values
    tail = hamiltonian_cube(model, {"0": h, "1": {l: v + 1
                                                  for l, v in h.items()}})
    ray = Ray(1, [], TailSpec.stationary(tail))
    return completed_homology(ray, rat(r0))


# ---------------------------------------------------------------------------
# regions and their rays


@dataclass(frozen=True)
class Region:
    """A closed region of a model: cells that no arrow enters from outside.

    :meth:`of` resolves labels and checks; unions and intersections
    (``|``, ``&``) of closed regions are closed and taken as they are.  A
    region keeps the weights of each stage of its cofinal family and its
    Betti numbers once computed, and gives the family's :meth:`ray`.
    """
    model: MorseModel
    cells: FrozenSet[Label]
    _stages: Dict[int, Tuple[Weights, Weights]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def of(model: MorseModel, labels: Iterable[Label]) -> "Region":
        """The region over the base points ``labels`` (the cells, on a
        model without a base projection), or ``labels`` if a region:
        ``KeyError`` names unknown labels, ``InadmissibleSubset`` the
        arrows that enter from outside."""
        if isinstance(labels, Region):
            return labels
        labels, base = set(labels), model.base_map
        unknown = labels - set(model.labels if base is None else base.values())
        if unknown:
            raise KeyError("unknown %s %r" % (
                "cells" if base is None else "base points", unknown))
        cells = frozenset(l for l in model.labels
                          if (l if base is None else base[l]) in labels)
        bad = [(q, p) for (q, p) in model.boundary
               if q in cells and p not in cells]
        if bad:
            raise InadmissibleSubset("arrows %r enter the region from "
                                     "outside" % (bad,))
        return Region(model, cells)

    def __or__(self, other: "Region") -> "Region":
        return Region(self.model, self.cells | other.cells)

    def __and__(self, other: "Region") -> "Region":
        return Region(self.model, self.cells & other.cells)

    def stage(self, k: int) -> Tuple[Weights, Weights]:
        """Stage k's weights, at k and at k + 1, on its lattice
        (1/(k(k+1)))Z: -1/k and -1/(k+1) on the cells, k and k + 1 off."""
        if k not in self._stages:
            den = k * (k + 1)
            self._stages[k] = tuple(
                Weights(den, {l: -den // i if l in self.cells else i * den
                              for l in self.model.labels})
                for i in (k, k + 1))
        return self._stages[k]

    @cached_property
    def betti(self) -> Tuple[int, int]:
        """Rational homology of the boundary restricted to the region (an
        arrow into one of its cells comes from one of its cells)."""
        return QComplex(
            [g for g in self.model.cells if g.label in self.cells],
            {a: c for a, c in self.model.boundary.items()
             if a[0] in self.cells}).homology_ranks()

    def ray(self) -> Ray:
        """The 1-ray of the region's cofinal family; its closed form is
        the region's homology in open bars."""
        return region_ray({"": self},
                          lambda prec: open_bar_barcode(self.betti, prec))


def region_ray(regions: Dict[str, Region], closed_form=None) -> Ray:
    """The ray of the cofinal families of ``regions``, which maps each
    vertex w of the slice cube to a region of one model: stage k is the
    :func:`hamiltonian_cube` of w0 -> ``regions[w].stage(k)[0]`` and
    w1 -> ``regions[w].stage(k)[1]``.  Its model tail keeps ``regions``
    and proves its glue from those weights: stages k and k + 1 glue when
    every region's ``stage(k)[1]`` equals its ``stage(k + 1)[0]`` as
    rationals at every cell, since a stage's face is a function of them."""
    def stage(k):
        assign = {}
        for w, region in regions.items():
            assign[w + "0"], assign[w + "1"] = region.stage(k)
        return hamiltonian_cube(next(iter(regions.values())).model, assign)

    def glued(k):
        pairs = [(r.stage(k)[1], r.stage(k + 1)[0]) for r in regions.values()]
        return all(a[l] * b.den == b[l] * a.den for a, b in pairs for l in a)

    return Ray(len(next(iter(regions))) + 1, [], TailSpec(
        "model", stage_fn=stage, closed_form=closed_form, regions=regions,
        glue=glued), check=False)


@dataclass(frozen=True)
class RelativeReport:
    barcode: Barcode
    betti: Tuple[int, int]
    cells: Tuple[Label, ...]
    stages_checked: int


def relative_sh(model: MorseModel, region, r0, depth: int
                ) -> RelativeReport:
    """Completed limit of the region's cofinal family, at precision r0.

    Cells of the region survive with spans open at zero; cells outside
    die modulo T^r0 (their stage weights exceed any bound).  What remains
    is the boundary restricted to the region, so the answer is the
    region subcomplex's rational homology in open bars.  ``region`` is a
    :class:`Region` or labels for :meth:`Region.of`.  Stages 1..depth of
    its ray, whose limit it returns, are built (which checks their
    weights) and the complex at the start of each is verified.
    """
    region = Region.of(model, region)
    ray = region.ray()
    for k in range(1, depth + 1):
        report = ray.map_cube(k).vertex("0").verify(3)
        if not report.ok:
            raise StageCheckFailed("stage %d complex does not verify: %s"
                                   % (k, report.violations))
    barcode = completed_homology(ray, rat(r0))
    return RelativeReport(barcode, region.betti,
                          tuple(sorted(map(str, region.cells))), depth)


# ---------------------------------------------------------------------------
# the min/max square


@dataclass(frozen=True)
class MinmaxReport:
    square: CubeDiagram
    pieces: Dict[Label, str]          # cell -> "four" or "two+two"
    pieces_match: bool
    strict_commutation: bool
    acyclic: bool


def minmax_square(model: MorseModel, h_x: Hamiltonian, h_y: Hamiltonian
                  ) -> MinmaxReport:
    """The square min -> (X, Y) -> max with zero filler.

    Both edge composites weight by max - min, so the square commutes
    strictly; ``strict_commutation`` compares the square's two composites
    00 -> 11.  At T = 0 the iterated cone decomposes per cell: where the
    two weights differ the four copies split into two length-one pieces,
    where they agree they form the four-generator piece
    dx1 = y1 + y2, dy1 = x2, dy2 = -x2, dx2 = 0 (after rescaling); either
    way every cell's block is acyclic and so is the whole complex.
    """
    h_x = {l: rat(h_x[l]) for l in model.labels}
    h_y = {l: rat(h_y[l]) for l in model.labels}
    h_min = {l: min(h_x[l], h_y[l]) for l in model.labels}
    h_max = {l: max(h_x[l], h_y[l]) for l in model.labels}
    # no check for h_min and h_max: the min and the max of two weights that
    # rise along arrows and are constant on base fibres do both too
    for h in (h_x, h_y):
        _, bad, _ = admissibility(model, h)
        if bad:
            raise Inadmissible("violations %r" % (bad,))
    square = hamiltonian_cube(model, {"00": h_min, "10": h_x,
                                      "01": h_y, "11": h_max})
    strict = mat_equal(mat_compose(square.face("1-"), square.face("-0")),
                       mat_compose(square.face("-1"), square.face("0-")))

    tot = square.total_t0
    blocks: Dict[Label, Dict[Tuple[str, str], Fraction]] = {}
    for (t, s), v in tot.differential.items():
        if t[1] == s[1]:
            blocks.setdefault(t[1], {})[(t[0], s[0])] = v
    pieces: Dict[Label, str] = {}
    ok = True
    for l in model.labels:
        if h_x[l] == h_y[l]:
            pieces[l], target = "four", _FOUR
        else:
            pieces[l] = "two+two"
            target = _TWO_X if h_x[l] < h_y[l] else _TWO_Y
        ok = ok and _match_rescaled(blocks.get(l, {}), target)
    acyclic = tot.is_acyclic()
    return MinmaxReport(square, pieces, ok, strict, acyclic)


# the normal forms of a cell's piece, on its four corner copies
_FOUR = {("10", "00"): 1, ("01", "00"): 1, ("11", "10"): 1, ("11", "01"): -1}
_TWO_X = {("10", "00"): 1, ("11", "01"): 1}
_TWO_Y = {("01", "00"): 1, ("11", "10"): 1}


def _match_rescaled(block, target) -> bool:
    """Whether scaling the four corner copies of one cell by units carries
    ``block`` onto ``target``, a map along arrows of the square.

    The supports must agree.  Only a cycle constrains the scalars, and the
    one cycle is the four-arrow square: there both paths 00 -> 11 must
    have the target's ratio.
    """
    if set(block) != set(target):
        return False
    if set(target) != set(_FOUR):
        return True
    b, t = block, target
    return (b["11", "10"] * b["10", "00"] * t["11", "01"] * t["01", "00"]
            == b["11", "01"] * b["01", "00"] * t["11", "10"] * t["10", "00"])


# ---------------------------------------------------------------------------
# multi-region descent


@dataclass(frozen=True)
class InvolutiveReport:
    verdict: DescentReport
    pairwise: Tuple[Tuple[Tuple[int, int], bool], ...]

    @property
    def acyclic(self) -> bool:
        return self.verdict.acyclic and all(ok for _, ok in self.pairwise)


def involutive_descent_instance(model: MorseModel, regions: Sequence,
                                r0, depth: int = 2) -> InvolutiveReport:
    """Descent verdict for regions pulled back through the base projection.

    ``regions`` are :class:`Region` values or labels for
    :meth:`Region.of`.  Vertex w of the subset cube carries the
    intersection of the regions its ones choose, the union for none.  For
    three regions the pairwise verdicts are computed as well, mirroring
    the two-subset induction; each distinct region, and the telescope of
    its own :meth:`Region.ray` that the verdicts take as its d_0 summand,
    is built once for all these rays.  ``r0`` is the precision of the
    verdicts' d*d checks, which the stages' certificates pass by
    construction.  An empty cover is refused: its one vertex would carry
    the empty union, and so is a negative ``depth``, before any stage.
    """
    descent_depth(depth)
    if not regions:
        raise ValueError("an empty cover has no descent: no regions given")
    if model.base_map is None:
        raise InadmissibleSubset("model carries no base projection")
    regions = [Region.of(model, r) for r in regions]
    built: Dict[FrozenSet[Label], Tuple[Region, ChainComplex]] = {}

    def verdict(chosen: List[Region]) -> DescentReport:
        family, summands = {}, {}
        for w in vertex_codes(len(chosen)):
            picked = [r for r, bit in zip(chosen, w) if bit == "1"]
            region = reduce(and_, picked) if picked else \
                reduce(or_, chosen, Region(model, frozenset()))
            if region.cells not in built:
                built[region.cells] = region, telescope_complex(
                    region.ray(), depth)
            family[w], summands[w] = built[region.cells]
        return descent_complex(region_ray(family), r0, depth, summands)

    whole = verdict(regions)
    pairs = combinations(range(len(regions)), 2) if len(regions) >= 3 else ()
    return InvolutiveReport(whole, tuple(
        ((i, j), verdict([regions[i], regions[j]]).acyclic) for i, j in pairs))


# ---------------------------------------------------------------------------
# serialization and bundled models


def model_to_json(model: MorseModel) -> dict:
    cells = []
    for g in model.cells:
        rec = {"label": str(g.label), "parity": g.parity,
               "value": str(model.values[g.label])}
        if model.base_map is not None:
            rec["base"] = str(model.base_map[g.label])
        cells.append(rec)
    return {"cells": cells,
            "boundary": [{"target": str(t), "source": str(s), "coeff": c}
                         for (t, s), c in sorted(model.boundary.items())]}


def model_from_json(data: dict) -> MorseModel:
    json_keys(data, {"cells", "boundary"}, "a model")
    for c in data["cells"]:
        json_keys(c, {"label", "parity", "value", "base"}, "a cell")
    for b in data.get("boundary", ()):
        json_keys(b, {"target", "source", "coeff"}, "a boundary entry")
    cells = [Generator(c["label"], json_field(c, "parity", int))
             for c in data["cells"]]
    values = {c["label"]: json_rational(c, "value") for c in data["cells"]}
    base = None
    if any("base" in c for c in data["cells"]):
        base = {c["label"]: c.get("base", c["label"])
                for c in data["cells"]}
    boundary = {(b["target"], b["source"]): json_field(b, "coeff", int)
                for b in data.get("boundary", ())}
    return MorseModel(cells, boundary, values, base)


def bundled_model(name: str) -> MorseModel:
    from importlib import resources
    text = resources.files("novcube.models").joinpath(
        name + ".json").read_text()
    return model_from_json(json.loads(text))
