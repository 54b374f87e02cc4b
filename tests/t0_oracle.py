"""Test-only oracles: residue-field checks done piece by piece.

``QComplex`` answers every homology question from one factorization of
its whole differential, ``morse._match_rescaled`` decides a piece by its
support and one path ratio, and ``rays.mayer_vietoris`` reads homology
classes off each corner's own factor.  These are the direct forms of the
same computations: one elimination per parity block of d, scale factors
propagated corner by corner, and the six-term sequence in coordinates of
a second elimination per homology space.  They are kept so the two can be
compared on random inputs.
"""

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from novcube.chain import Label, QComplex, checked, record, reduce_map_t0
from novcube.cubes import CubeDiagram, from_positive_signs, verify_cube
from novcube.errors import NotAcyclic, NotCoherent
from novcube.linalg import Elimination, QuotientSpace, Vector, sparse_rank
from novcube.novikov import rat
from novcube.rays import ExactnessReport


def per_parity_ranks(q: QComplex) -> Tuple[int, int]:
    """Betti numbers (even, odd) from the rank of each parity block."""
    even = [g.label for g in q.generators if g.parity == 0]
    odd = [g.label for g in q.generators if g.parity == 1]
    d_from_even = {(t, s): v for (t, s), v in q.differential.items()
                   if q.parity(s) == 0}
    d_from_odd = {(t, s): v for (t, s), v in q.differential.items()
                  if q.parity(s) == 1}
    r_e = sparse_rank(d_from_even)
    r_o = sparse_rank(d_from_odd)
    return len(even) - r_e - r_o, len(odd) - r_o - r_e


def per_parity_space(q: QComplex, parity: int
                     ) -> Tuple[List[Label], QuotientSpace]:
    """The cycle/boundary quotient of one parity, its cycles found by
    eliminating d restricted to that parity alone."""
    mine = [g.label for g in q.generators if g.parity == parity]
    other = [g.label for g in q.generators if g.parity != parity]
    idx = {l: i for i, l in enumerate(mine)}
    d_out: Dict[Label, Dict[int, Fraction]] = {l: {} for l in other}
    d_in: Dict[Label, Dict[int, Fraction]] = {l: {} for l in other}
    for (t, s), v in q.differential.items():
        if s in idx:
            d_out[t][idx[s]] = v
        else:
            d_in[s][idx[t]] = v
    cycles = Elimination(d_out.values(), len(mine)).nullspace()
    boundaries = [col for col in d_in.values() if col]
    return mine, QuotientSpace(len(mine), cycles, boundaries)


def propagated_match(block, target) -> bool:
    """Whether a diagonal rescaling carries ``block`` onto ``target``,
    found by fixing the scale of corner 00 and propagating along arrows."""
    if set(block) != set(target):
        return False
    # scale factors lambda per corner: entry (t, s) maps to
    # lambda_t * entry / lambda_s = target
    lam: Dict[str, Fraction] = {"00": Fraction(1)}
    for _ in range(4):
        for (t, s), v in block.items():
            want = Fraction(target[(t, s)])
            if s in lam and t not in lam:
                lam[t] = want * lam[s] / v
            elif t in lam and s not in lam:
                lam[s] = v * lam[t] / want
    for (t, s), v in block.items():
        if t in lam and s in lam:
            if lam[t] * v / lam[s] != target[(t, s)]:
                return False
    return True


def is_exact(incoming: Sequence[Vector], outgoing: Sequence[Vector],
             dim: int) -> bool:
    """Whether im(incoming) = ker(outgoing) inside Q^dim.

    Both maps are lists of sparse columns: ``incoming`` has columns in
    Q^dim and ``outgoing`` one column per coordinate of Q^dim.  Exact
    means the composite vanishes and rank(incoming) + rank(outgoing) =
    dim; a column rank is a row rank, so each map's columns enter the
    elimination as its rows.
    """
    if len(outgoing) != dim:
        raise ValueError("outgoing has %d columns, not %d"
                         % (len(outgoing), dim))
    for col in incoming:
        image: Vector = {}
        for i, x in col.items():
            for j, v in outgoing[i].items():
                image[j] = image.get(j, 0) + v * x
        if any(image.values()):
            return False
    width = 1 + max((j for col in outgoing for j in col), default=-1)
    return (len(Elimination(incoming, dim).pivots)
            + len(Elimination(outgoing, width).pivots)) == dim


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


def mayer_vietoris_by_quotients(square: CubeDiagram, work
                                ) -> ExactnessReport:
    """The six-term sequence of an acyclic square in homology coordinates.

    The signed twin's corners and faces are reduced at T = 0, each
    homology space is a :class:`QuotientSpace` (a second elimination of
    [boundaries | cycles] per parity), every induced map is a list of
    coordinate columns over its reps, and each spot is decided by
    ``is_exact``.  The checks before the spots are those of
    ``rays.mayer_vietoris``.
    """
    if square.n != 2:
        raise ValueError("mayer_vietoris expects a 2-cube")
    given = square
    square = from_positive_signs(square) if square.positive else square
    rep = checked(square, rat(work), verify_cube)
    if not rep:
        raise NotCoherent("square does not verify: %s" % (rep.violations,))
    record(given, rat(work))
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
