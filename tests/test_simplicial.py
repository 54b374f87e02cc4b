"""Simplex-to-cube assembly and the symbolic sign certificate."""

import random

import pytest
from helpers import random_complex

from novcube.chain import ChainComplex, Generator, mat_identity
from novcube.cubes import CubeDiagram, verify_cube
from novcube.novikov import parse_scalar
from novcube.simplicial import (UnsupportedDimension, assemble_faces,
                                certify_assembly, cube_equation_expansion,
                                face_simplices, permutation_sign,
                                simplex_relation)

WORK = 10


def test_dimension_one_single_permutation():
    assert face_simplices("-") == [(("0", "1"), 1)]
    assert face_simplices("0") == [(("0",), 1)]


def test_dimension_two_signature_weights():
    # f_F = f_(1,2) - f_(2,1)
    assert face_simplices("--") == [(("00", "10", "11"), 1),
                                    (("00", "01", "11"), -1)]


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1


def test_simplex_relation_shapes():
    # edge: the chain-map relation, no deletions
    quad, dels = simplex_relation(("00", "10"))
    assert quad == {(("00",), ("00", "10")): 1,
                    (("00", "10"), ("10",)): -1}
    assert dels == []
    # triangle: composition terms and one deleted vertex
    quad, dels = simplex_relation(("00", "10", "11"))
    assert quad[(("00", "10"), ("10", "11"))] == -1
    assert quad[(("00",), ("00", "10", "11"))] == 1
    assert quad[(("00", "10", "11"), ("11",))] == 1
    assert dels == [(("00", "11"), 1, 1)]


def test_certificate_n2():
    cert = certify_assembly(2)
    assert cert.ok
    top = next(f for f in cert.faces if f.code == "--")
    # two simplex relations, their single deleted diagonals cancelling
    assert top.cancelled_pairs == 1
    assert top.quadratic_terms > 0


def test_certificate_n3_transposition_pairs():
    cert = certify_assembly(3)
    assert cert.ok
    top = next(f for f in cert.faces if f.code == "---")
    # six maximal simplices, two inner deletions each, cancelling in pairs
    assert top.cancelled_pairs == 6
    assert top.quadratic_terms > 0


def test_certificate_rejects_wrong_signs():
    # flipping the sign of one composition term must break the match
    expansion = cube_equation_expansion("--")
    word = next(iter(expansion))
    expansion[word] = -expansion[word]
    rhs = {}
    for path, sigma in face_simplices("--"):
        quad, _ = simplex_relation(path)
        for w, c in quad.items():
            rhs[w] = rhs.get(w, 0) + sigma * c
            if rhs[w] == 0:
                del rhs[w]
    assert rhs != expansion


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        certify_assembly(4)


def test_concrete_assembly_strict_data():
    # strictly commuting data: identity edges, zero higher simplices
    rng = random.Random(31)
    base = random_complex(rng, max_gens=4)
    ident = mat_identity(base.labels)
    simplex_maps = {}
    for code in ("00", "01", "10", "11"):
        simplex_maps[(code,)] = dict(base.differential)
    for path in [("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")]:
        simplex_maps[path] = dict(ident)
    for path, _ in face_simplices("--"):
        simplex_maps[path] = {}
    faces = assemble_faces(2, simplex_maps)
    assert faces["--"] == {}
    cube = CubeDiagram(2, {w: base for w in ("00", "01", "10", "11")}, faces)
    assert verify_cube(cube, WORK).ok


def test_assembly_missing_path_errors():
    with pytest.raises(KeyError):
        assemble_faces(1, {})


def test_assembly_keeps_a_face_known_only_modulo_t():
    """An assembled face map is a stored map: simplex maps that cancel
    exactly leave no entry, but ones known only modulo T^1 leave the
    entry ``0 mod T^1``."""
    base = ChainComplex([Generator("a", 0), Generator("b", 1)],
                        {("b", "a"): parse_scalar("1*T^0")})
    key = ("a", "a")
    for scalar, expected in ((parse_scalar("1*T^0"), {}),
                             (parse_scalar("1*T^0 mod T^1"),
                              {key: parse_scalar("0 mod T^1")})):
        simplex_maps = {(w,): dict(base.differential)
                        for w in ("00", "01", "10", "11")}
        for path in [("00", "01"), ("00", "10"), ("01", "11"),
                     ("10", "11")]:
            simplex_maps[path] = mat_identity(base.labels)
        for path, _ in face_simplices("--"):
            simplex_maps[path] = {key: scalar}
        assert assemble_faces(2, simplex_maps)["--"] == expected
