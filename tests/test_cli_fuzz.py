"""Fuzz the JSON loaders: a badly shaped input file is a usage error.

Valid cube, ray and model files get keys dropped and values swapped for
values of another JSON type; whatever the result, the command line must
answer 0, 1 or 2, never 3 (internal error).  Where a cube, ray or model
file holds an integer or a boolean (a dimension, a parity, a boundary
coefficient, a sign-form or partial flag), a float, a string or the other
kind of value in its place must be refused with exit 2, and so must a
float or a boolean in place of a model cell's value (a string p/q).  An
unknown key in any object of a file, however deeply nested, is refused
with exit 2 too, and so is a key of a cube's vertex map that is not a
vertex code of that cube.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from novcube import cli
from novcube.chain import ChainComplex, Generator
from novcube.cubes import CubeDiagram, cube_to_json
from novcube.morse import bundled_model, cf, model_to_json
from novcube.novikov import NovikovScalar, parse_scalar, scalar_to_json

# one value of each JSON type, none of them large
SWAPS = [None, True, 2, 1.5, "x", "", [], [1], {}, {"k": 1}]


def _square():
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.monomial(1, 1)})
    edge = {("a", "a"): NovikovScalar.one(), ("b", "b"): NovikovScalar.one()}
    return CubeDiagram(2, {w: c for w in ("00", "10", "01", "11")},
                       {"-0": edge, "-1": edge, "0-": edge, "1-": edge})


def _ray():
    m = bundled_model("interval")
    c = cf(m, dict(m.values))
    cube = CubeDiagram(1, {"0": c, "1": c},
                       {"-": {(l, l): NovikovScalar.monomial(1, 1)
                              for l in m.labels}})
    return {"n": 1, "prefix": [cube_to_json(cube)],
            "tail": {"kind": "stationary", "cube": cube_to_json(cube)}}


def _json_scalars(doc):
    """The document with its scalar strings given as JSON records, every
    other one wrapped with a precision."""
    doc = json.loads(json.dumps(doc))
    entries = [e for c in doc["vertices"].values() for e in c["differential"]]
    entries += [e for m in doc["faces"].values() for e in m]
    for k, e in enumerate(entries):
        terms = scalar_to_json(parse_scalar(e["scalar"]))
        e["scalar"] = {"terms": terms, "mod": "10"} if k % 2 else terms
    return doc


# a valid document, then the command lines that read it
CASES = {
    "cube": (cube_to_json(_square()),
             [["verify-cube"], ["cone", "--direction", "1"], ["mv"]]),
    "cube with scalar records": (_json_scalars(cube_to_json(_square())),
                                 [["verify-cube"], ["mv"]]),
    "ray": (_ray(), [["sh", "--precision", "1"],
                     ["tel", "--depth", "1", "--work", "2"]]),
    "model": (model_to_json(bundled_model("interval")),
              [["morse", "global-sections", "--precision", "1",
                "--depth", "1"],
               ["morse", "empty-set", "--precision", "1"]]),
}


def _paths(doc, prefix=()):
    """Every position in a JSON document, as a key path."""
    if prefix:
        yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _value_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


DROP = "<drop>"


def _mutate(doc, path, value):
    """A copy of doc with the value at path dropped or replaced."""
    doc = json.loads(json.dumps(doc))
    parent = _value_at(doc, path[:-1])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run_on(doc, argv):
    """Write the document to a file and run the command line on it: the
    exit code, the output and the file's path."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + [path, "--format", "json"])
    finally:
        os.unlink(path)
    return code, out.getvalue(), path


@st.composite
def mutants(draw):
    """A valid document with one to three positions dropped or given a
    value of another type, and a command line that reads it."""
    kind = draw(st.sampled_from(sorted(CASES)))
    doc, commands = CASES[kind]
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        old = _value_at(doc, path)
        value = draw(st.sampled_from(
            [DROP] + [v for v in SWAPS if type(v) is not type(old)]))
        doc = _mutate(doc, path, value)
    return doc, draw(st.sampled_from(commands))


@settings(max_examples=200, deadline=None)
@given(mutants())
def test_badly_shaped_input_never_exits_3(case):
    doc, argv = case
    code, out, path = _run_on(doc, argv)
    assert code in (0, 1, 2), out
    if code == 2:
        assert path in json.loads(out)["error"]


def _typed_paths(doc):
    """The positions of a document that hold an int or a bool, or a model
    cell's value."""
    return [p for p in _paths(doc)
            if type(_value_at(doc, p)) in (int, bool) or p[-1] == "value"]


@st.composite
def mistyped(draw):
    """A valid cube, ray or model document with one int or bool swapped
    for a float, a string or a value of the other of the two types, or a
    model cell's value swapped for a float or a bool."""
    kind = draw(st.sampled_from(["cube", "ray", "model"]))
    doc, commands = CASES[kind]
    path = draw(st.sampled_from(_typed_paths(doc)))
    old = _value_at(doc, path)
    if path[-1] == "value":
        value = draw(st.sampled_from(
            [float(Fraction(old)), float(Fraction(old)) + 0.25, True,
             False]))
    elif type(old) is int:
        value = draw(st.sampled_from(
            [float(old), old + 0.5, str(old), True, False]))
    else:
        value = draw(st.sampled_from(
            [int(old), float(old), str(old).lower(), "yes", ""]))
    return _mutate(doc, path, value), draw(st.sampled_from(commands)), path


@settings(max_examples=100, deadline=None)
@given(mistyped())
def test_float_string_or_bool_for_int_or_bool_exits_2(case):
    doc, argv, key_path = case
    code, out, path = _run_on(doc, argv)
    assert code == 2, out
    error = json.loads(out)["error"]
    assert path in error and repr(key_path[-1]) in error


def _records(doc):
    """The positions of a document's JSON objects, the document included,
    except the maps keyed by vertex or face code."""
    return [()] + [p for p in _paths(doc)
                   if isinstance(_value_at(doc, p), dict)
                   and p[-1] not in ("vertices", "faces")]


@st.composite
def unknown_keys(draw):
    """A valid document with an unknown key put into one of its objects,
    the key, and a command line that reads it."""
    doc, commands = CASES[draw(st.sampled_from(sorted(CASES)))]
    path = draw(st.sampled_from(_records(doc)))
    key = draw(st.sampled_from(["colour", "bogus", "Label", "n "]))
    doc = json.loads(json.dumps(doc))
    _value_at(doc, path)[key] = draw(st.sampled_from(SWAPS))
    return doc, draw(st.sampled_from(commands)), key


@settings(max_examples=100, deadline=None)
@given(unknown_keys())
def test_unknown_key_anywhere_exits_2(case):
    doc, argv, key = case
    code, out, path = _run_on(doc, argv)
    assert code == 2, out
    error = json.loads(out)["error"]
    assert path in error and repr(key) in error


# codes that are not vertices of a cube of the document's dimensions
NOT_VERTICES = ["22", "0-", "ab", "", "0", "000", "1 "]


@st.composite
def extra_vertices(draw):
    """A valid cube or ray document with a code that is not a vertex of
    one of its cubes added to that cube's vertex map, the code, and a
    command line that reads it."""
    doc, commands = CASES[draw(st.sampled_from(
        ["cube", "cube with scalar records", "ray"]))]
    doc = json.loads(json.dumps(doc))
    vertices = _value_at(doc, draw(st.sampled_from(
        [p for p in _paths(doc) if p[-1] == "vertices"])))
    code = draw(st.sampled_from(
        [c for c in NOT_VERTICES if c not in vertices]))
    vertices[code] = vertices[draw(st.sampled_from(sorted(vertices)))]
    return doc, draw(st.sampled_from(commands)), code


@settings(max_examples=50, deadline=None)
@given(extra_vertices())
def test_extra_vertex_code_exits_2(case):
    doc, argv, code = case
    exit_code, out, path = _run_on(doc, argv)
    assert exit_code == 2, out
    error = json.loads(out)["error"]
    assert path in error and repr(code) in error
