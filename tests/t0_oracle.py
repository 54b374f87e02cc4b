"""Test-only oracles: residue-field checks done piece by piece.

``QComplex`` answers every homology question from one factorization of
its whole differential, and ``morse._match_rescaled`` decides a piece by
its support and one path ratio.  These are the direct forms of the same
computations: one elimination per parity block of d, and scale factors
propagated corner by corner.  They are kept so the two can be compared on
random inputs.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from novcube.chain import Label, QComplex
from novcube.linalg import Elimination, QuotientSpace, sparse_rank


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
