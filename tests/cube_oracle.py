"""Test-only oracle: ``verify_cube`` face by face, as it was before the cube
became its total matrix.

It walks all 3^n face codes and, for each, composes the face maps of every
boundary pair with the signs of the coherence equation.  It reads the cube
only through ``faces``, ``face``, ``defined``, ``vertices``, ``positive``
and ``partial``, so it checks those views as well as the verdict.
"""

from typing import List, Tuple

from novcube.chain import (Report, mat_add, mat_compose, mat_neg,
                           residual_violations)
from novcube.cubes import face_codes, face_dim, initial_vertex, terminal_vertex
from novcube.lemmas import face_equation_terms
from novcube.novikov import rat


def face_loop_entry_violations(cube) -> List[Tuple[str, str]]:
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


def face_loop_verify_cube(cube, work) -> Report:
    """Parity, valuations and every face's coherence equation mod T^work."""
    work = rat(work)
    bad = face_loop_entry_violations(cube)
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
