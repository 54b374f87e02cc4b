"""Command-line front end: reports, exit codes, determinism."""

import json
import os
import random

import pytest
from helpers import random_cube

from novcube import cli
from novcube.chain import ChainComplex, Generator, mat_identity
from novcube.cubes import (CubeDiagram, cube_to_json, id_cube,
                           to_positive_signs, verify_cube)
from novcube.morse import bundled_model, model_to_json
from novcube.novikov import NovikovScalar, parse_scalar, scalar_to_json


@pytest.fixture()
def square_file(tmp_path):
    rng = random.Random(80)
    cube = random_cube(rng, 2).relabel_vertices(lambda w, l: "%s|%s" % (w, l))
    path = tmp_path / "square.json"
    path.write_text(json.dumps(cube_to_json(cube)))
    return str(path)


@pytest.fixture()
def bad_square_file(tmp_path):
    rng = random.Random(81)
    cube = random_cube(rng, 2, max_gens=2, mix=2)
    data = cube_to_json(cube.relabel_vertices(lambda w, l: "%s|%s" % (w, l)))
    # sabotage one face entry so an equation fails
    verts = data["vertices"]
    some = sorted(verts)[0]
    gens = verts[some]["generators"]
    if not gens:
        gens.append({"label": "zz", "parity": 0})
    data.setdefault("faces", {})["--"] = [
        {"target": "11|%s" % gens[0]["label"],
         "source": "00|nonexistent", "scalar": "1*T^0"}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_cube_ok(square_file, capsys):
    code, out = run_cli(capsys, "verify-cube", square_file)
    assert code == 0
    assert "ok" in out


def test_verify_cube_violation_exit_code(bad_square_file, capsys):
    code, out = run_cli(capsys, "verify-cube", bad_square_file)
    assert code == 1
    assert "violation" in out


def test_reports_are_byte_identical(square_file, capsys):
    _, out1 = run_cli(capsys, "verify-cube", square_file, "--format", "json")
    _, out2 = run_cli(capsys, "verify-cube", square_file, "--format", "json")
    assert out1 == out2


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "verify-cube", str(path))
    assert code == 2
    assert "error" in out


def test_missing_mandatory_flags_exit_2(square_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sh", square_file])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["tel", square_file, "--depth", "2"])
    assert exc.value.code == 2


def test_cone_command(square_file, capsys):
    code, out = run_cli(capsys, "cone", square_file, "--direction", "1",
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["cube"]["n"] == 1


def test_tel_and_sh_commands(tmp_path, capsys):
    m = bundled_model("interval")
    from novcube.morse import cf
    c = cf(m, dict(m.values))
    cube = CubeDiagram(1, {"0": c, "1": c},
                       {"-": {(l, l): NovikovScalar.monomial(1, 1)
                              for l in m.labels}})
    ray = {"n": 1, "prefix": [cube_to_json(cube)],
           "tail": {"kind": "stationary", "cube": cube_to_json(cube)}}
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(ray))
    code, out = run_cli(capsys, "tel", str(path), "--depth", "2",
                        "--work", "3")
    assert code == 0
    code, out = run_cli(capsys, "sh", str(path), "--precision", "2",
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["barcode"]["free"] == []
    assert report["barcode"]["torsion"] == []


def test_mv_command(tmp_path, capsys):
    rng = random.Random(82)
    square = id_cube(random_cube(rng, 1)).relabel_vertices(
        lambda w, l: "%s|%s" % (w, l))
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(cube_to_json(square)))
    code, out = run_cli(capsys, "mv", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(all(v for v in by.values())
               for by in report["exactness"].values())


def test_mv_not_acyclic_is_a_domain_failure(tmp_path, capsys):
    # one generator at vertex 00 and nothing else: the total complex has
    # homology, so the six-term sequence does not apply
    zero = ChainComplex([], {})
    square = CubeDiagram(2, {"00": ChainComplex([Generator("a", 0)], {}),
                             "10": zero, "01": zero, "11": zero}, {})
    path = tmp_path / "not_acyclic.json"
    path.write_text(json.dumps(cube_to_json(square)))
    code, out = run_cli(capsys, "mv", str(path), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["error"].startswith("%s: NotAcyclic: " % path)


def test_mv_incoherent_square_is_a_domain_failure(tmp_path, capsys):
    # the identity square of id: C -> C, with d(a) = b, plus an entry
    # 5*T^0 from b to a on its 2-face, which breaks that face's equation
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.one()})
    edge = CubeDiagram(1, {"0": c, "1": c}, {"-": mat_identity(c.labels)})
    square = id_cube(edge).relabel_vertices(lambda w, l: "%s|%s" % (w, l))
    data = cube_to_json(square)
    data["faces"].setdefault("--", []).append(
        {"target": "11|a", "source": "00|b", "scalar": "5*T^0"})
    path = tmp_path / "incoherent.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "mv", str(path), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["error"].startswith("%s: NotCoherent: " % path)
    assert "'--'" in report["error"]


@pytest.mark.parametrize("argv", [
    ("tel", "--depth", "2", "--work", "3"),
    ("sh", "--precision", "2"),
    ("descent", "--precision", "1", "--depth", "2"),
])
def test_cube_file_given_as_a_ray_exits_2(square_file, argv, capsys):
    code, out = run_cli(capsys, argv[0], square_file, *argv[1:],
                        "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert square_file in error
    assert "'vertices'" in error


def test_unknown_key_in_cube_file_exits_2(square_file, tmp_path, capsys):
    data = json.loads(open(square_file).read())
    data["vertexes"] = data["vertices"]
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "verify-cube", str(path), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert str(path) in error
    assert "'vertexes'" in error


DATA = os.path.join(os.path.dirname(__file__), "data", "cli")


def _data_file(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def _json_scalar(entry):
    """Give an entry its scalar as a JSON record, and return the record."""
    if isinstance(entry["scalar"], str):
        terms = scalar_to_json(parse_scalar(entry["scalar"]))
        entry["scalar"] = {"terms": terms, "mod": "10"}
    return entry["scalar"]


def _descent_doc():
    return {"model": model_to_json(bundled_model("circle6")),
            "regions": [["v0", "e0", "v1"], ["v1", "e1", "v2", "e2", "v0"]]}


# (document, command, flags); the file goes between command and flags
SQUARE = (lambda: _data_file("square_identity.json"), ("verify-cube",), ())
RAY = (lambda: _data_file("ray1_stationary.json"), ("sh",),
       ("--precision", "1"))
MODEL = (lambda: model_to_json(bundled_model("interval")),
         ("morse", "global-sections"), ("--precision", "1", "--depth", "1"))
MINMAX = (lambda: _data_file("minmax_circle.json"), ("morse", "minmax"), ())
DESCENT = (_descent_doc, ("morse", "descent-involutive"),
           ("--precision", "1", "--depth", "2"))

# each kind of object an input file nests, and where to find one
NESTED_OBJECTS = {
    "complex": SQUARE + (lambda d: d["vertices"]["00"],),
    "generator": SQUARE + (lambda d: d["vertices"]["00"]["generators"][0],),
    "differential entry": SQUARE + (
        lambda d: d["vertices"]["00"]["differential"][0],),
    "face entry": SQUARE + (lambda d: d["faces"]["-0"][0],),
    "scalar": SQUARE + (lambda d: _json_scalar(d["faces"]["-0"][0]),),
    "scalar term": SQUARE + (
        lambda d: _json_scalar(d["faces"]["-0"][0])["terms"][0],),
    "ray prefix cube": RAY + (lambda d: d["prefix"][0],),
    "ray tail": RAY + (lambda d: d["tail"],),
    "ray tail generator": RAY + (
        lambda d: d["tail"]["cube"]["vertices"]["1"]["generators"][0],),
    "model": MODEL + (lambda d: d,),
    "model cell": MODEL + (lambda d: d["cells"][0],),
    "boundary entry": MODEL + (lambda d: d["boundary"][0],),
    "minmax file": MINMAX + (lambda d: d,),
    "minmax model cell": MINMAX + (lambda d: d["model"]["cells"][1],),
    "descent file": DESCENT + (lambda d: d,),
    "descent boundary entry": DESCENT + (lambda d: d["model"]["boundary"][2],),
}


@pytest.mark.parametrize("kind", sorted(NESTED_OBJECTS))
def test_unknown_nested_key_exits_2(kind, tmp_path, capsys):
    load, command, flags, locate = NESTED_OBJECTS[kind]
    path = tmp_path / "nested.json"
    data = load()
    locate(data)  # where the object is a scalar record, it is made here
    path.write_text(json.dumps(data))
    argv = command + (str(path),) + flags + ("--format", "json")
    code, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    locate(data)["colour"] = "red"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert str(path) in error and "'colour'" in error


def test_cube_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out = run_cli(capsys, "verify-cube", str(path), "--format", "json")
    assert code == 2
    assert str(path) in json.loads(out)["error"]


@pytest.mark.parametrize("command,data", [
    (("sh", "--precision", "1"), {"n": 1, "prefix": [], "tail": []}),
    (("sh", "--precision", "1"), {"n": 1, "prefix": 5}),
    (("tel", "--depth", "1", "--work", "2"), {"n": [1], "prefix": []}),
    (("verify-cube",), {"n": 1, "vertices": 3}),
    (("verify-cube",), {"n": 1, "vertices": {"0": {"generators": 1}}}),
    (("morse", "global-sections", "--precision", "1", "--depth", "1"),
     {"cells": [{"label": "a", "parity": 0, "value": []}]}),
    (("morse", "empty-set", "--precision", "1"), {"cells": 7}),
])
def test_badly_shaped_file_exits_2(command, data, tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, *command, str(path), "--format", "json")
    assert code == 2
    assert str(path) in json.loads(out)["error"]


def test_cube_with_an_extra_vertex_code_exits_2(tmp_path, capsys):
    with open(os.path.join(DATA, "square_identity.json")) as fh:
        data = json.load(fh)
    data["vertices"]["22"] = data["vertices"]["00"]
    path = tmp_path / "extra_vertex.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "verify-cube", str(path), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert str(path) in error and "'22'" in error


def test_ray_with_a_face_of_wrong_parity_exits_2(tmp_path, capsys):
    # generator a at vertex "1" made odd: its differential entry and the
    # identity entry into it both have the wrong parity
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.one()})
    edge = CubeDiagram(1, {"0": c, "1": c}, {"-": mat_identity(c.labels)})
    data = cube_to_json(edge)
    data["vertices"]["1"]["generators"][0]["parity"] = 1
    path = tmp_path / "parity_ray.json"
    path.write_text(json.dumps({"n": 1, "prefix": [data]}))
    code, out = run_cli(capsys, "sh", str(path), "--precision", "1",
                        "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert str(path) in error
    assert "prefix cube 1, face " in error
    assert "wrong parity" in error


def test_cone_needs_a_direction_in_range_and_signed_form(square_file,
                                                         tmp_path, capsys):
    code, out = run_cli(capsys, "cone", square_file, "--direction", "3",
                        "--format", "json")
    assert code == 2
    assert square_file in json.loads(out)["error"]
    data = json.loads(open(square_file).read())
    data["positive"] = True
    path = tmp_path / "positive.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "cone", str(path), "--direction", "1",
                        "--format", "json")
    assert code == 2
    assert str(path) in json.loads(out)["error"]


def test_relative_sh_with_unknown_subset_labels_exits_2(capsys):
    code, out = run_cli(capsys, "morse", "relative-sh", "bundled:grid9",
                        "--precision", "1", "--depth", "2",
                        "--subset", "nowhere", "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert "bundled:grid9" in error and "nowhere" in error


def test_global_sections_of_nonnegative_values_is_a_domain_failure(
        tmp_path, capsys):
    data = model_to_json(bundled_model("interval"))
    data["cells"][0]["value"] = "2"
    path = tmp_path / "nonnegative.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "morse", "global-sections", str(path),
                        "--precision", "1", "--depth", "1",
                        "--format", "json")
    assert code == 1
    assert json.loads(out)["error"].startswith(
        "%s: NotNegative: " % path)


@pytest.mark.parametrize("argv", [
    ("morse", "empty-set", "bundled:circle", "--precision", "0"),
    ("morse", "empty-set", "bundled:circle", "--precision", "-1"),
    ("morse", "global-sections", "bundled:t2", "--precision", "1",
     "--depth", "-3"),
    # at --work 0 every residual vanishes, so these broken cubes verified
    ("verify-cube", os.path.join(DATA, "broken4.json"), "--work", "0"),
    ("verify-cube", os.path.join(DATA, "broken4.json"), "--work", "-1"),
    ("verify-cube", os.path.join(DATA, "positive3_broken.json"),
     "--work", "0"),
    ("verify-cube", os.path.join(DATA, "partial3_broken.json"),
     "--work=-1/2"),
    ("verify-cube", os.path.join(DATA, "square_incoherent.json"),
     "--work", "0"),
    ("tel", os.path.join(DATA, "ray2.json"), "--depth", "2", "--work", "0"),
    # an empty --work is not a rational
    ("verify-cube", os.path.join(DATA, "cube2.json"), "--work", ""),
    ("cone", os.path.join(DATA, "cube2.json"), "--direction", "1",
     "--work", ""),
    ("compose", os.path.join(DATA, "glue2_a.json"),
     os.path.join(DATA, "glue2_b.json"), "--work", ""),
    ("tel", os.path.join(DATA, "ray2.json"), "--depth", "2", "--work", ""),
    ("sh", os.path.join(DATA, "ray2.json"), "--precision", "2", "--work", ""),
    ("mv", os.path.join(DATA, "square_identity.json"), "--work", ""),
    ("descent", os.path.join(DATA, "ray2.json"), "--precision", "1",
     "--depth", "2", "--work", ""),
    ("morse", "minmax", os.path.join(DATA, "minmax_circle.json"),
     "--work", ""),
    # minmax computes at --work and reads no --precision; the others need it
    ("morse", "minmax", os.path.join(DATA, "minmax_circle.json"),
     "--precision", "1"),
    ("morse", "empty-set", "bundled:circle"),
    ("morse", "descent-involutive", os.path.join(DATA, "descent_circle6.json"),
     "--depth", "2"),
    ("morse", "empty-set", "bundled:circle", "--precision", "2",
     "--work", ""),
    # each morse action refuses the flags it does not read
    ("morse", "descent-involutive", os.path.join(DATA, "descent_circle6.json"),
     "--precision", "1", "--depth", "2", "--work", "5"),
    ("morse", "empty-set", "bundled:circle", "--precision", "2",
     "--work", "1/1000"),
    ("morse", "global-sections", "bundled:circle", "--precision", "1",
     "--depth", "2", "--subset", "nowhere"),
    ("morse", "global-sections", "bundled:circle", "--precision", "1",
     "--depth", "2", "--work", "3"),
    ("morse", "relative-sh", "bundled:circle6", "--precision", "1",
     "--depth", "2", "--subset", "v0", "--work", "3"),
    ("morse", "minmax", os.path.join(DATA, "minmax_circle.json"),
     "--subset", "v0"),
    ("morse", "empty-set", "bundled:circle", "--precision", "2",
     "--depth", "7"),
    ("morse", "minmax", os.path.join(DATA, "minmax_circle.json"),
     "--depth", "2"),
    # every flag an action reads but --work is mandatory
    ("morse", "relative-sh", "bundled:circle6", "--precision", "1",
     "--depth", "2"),
    ("morse", "global-sections", "bundled:circle", "--precision", "1"),
])
def test_meaningless_parameters_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["minmax", os.path.join(DATA, "minmax_circle.json"), "--precision", "1"],
     "--precision is not read by morse minmax"),
    (["relative-sh", "bundled:circle6", "--subset", "v0", "--depth", "2"],
     "--precision is mandatory for morse relative-sh"),
    (["descent-involutive", os.path.join(DATA, "descent_circle6.json"),
      "--precision", "1", "--depth", "2", "--work", "5"],
     "--work is not read by morse descent-involutive"),
    (["empty-set", "bundled:circle", "--precision", "2", "--work", "1/1000"],
     "--work is not read by morse empty-set"),
    (["global-sections", "bundled:circle", "--precision", "1", "--depth",
      "2", "--subset", "nowhere"],
     "--subset is not read by morse global-sections"),
    (["relative-sh", "bundled:circle6", "--precision", "1", "--depth", "2",
      "--subset", "v0", "--work", "3"],
     "--work is not read by morse relative-sh"),
    (["minmax", os.path.join(DATA, "minmax_circle.json"), "--subset", "v0"],
     "--subset is not read by morse minmax"),
    (["empty-set", "bundled:circle", "--precision", "2", "--depth", "7"],
     "--depth is not read by morse empty-set"),
    (["minmax", os.path.join(DATA, "minmax_circle.json"), "--depth", "2"],
     "--depth is not read by morse minmax"),
    (["relative-sh", "bundled:circle6", "--precision", "1", "--depth", "2"],
     "--subset is mandatory for morse relative-sh"),
    (["global-sections", "bundled:circle", "--precision", "1"],
     "--depth is mandatory for morse global-sections"),
])
def test_morse_precision_rule_names_the_flag(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["morse"] + argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert message in captured.err


def test_empty_work_names_the_flag(capsys):
    with pytest.raises(SystemExit):
        cli.main(["mv", os.path.join(DATA, "square_identity.json"),
                  "--work", ""])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "flag --work expects a rational p/q, got ''" in captured.err


# the commands that check every cube of a ray file before they compute
RAY_COMMANDS = [
    ("sh", "--precision", "2"),
    ("descent", "--precision", "1", "--work", "2", "--depth", "1"),
]


@pytest.mark.parametrize("command", RAY_COMMANDS)
@pytest.mark.parametrize("name", ["prefix cube 1", "tail cube"])
def test_ray_with_a_cube_that_does_not_verify_exits_2(command, name,
                                                      tmp_path, capsys):
    # a -> b mapped by T on a and 2T on b does not commute with d
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.one()})
    edge = CubeDiagram(1, {"0": c, "1": c},
                       {"-": {("a", "a"): parse_scalar("1*T^1"),
                              ("b", "b"): parse_scalar("2*T^1")}})
    (face, detail), = verify_cube(edge, 2).violations
    ray = {"n": 1, "prefix": [cube_to_json(edge)]} if name != "tail cube" \
        else {"n": 1, "tail": {"kind": "stationary",
                               "cube": cube_to_json(edge)}}
    path = tmp_path / "incoherent_ray.json"
    path.write_text(json.dumps(ray))
    code, out = run_cli(capsys, *command[:1], str(path), *command[1:],
                        "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "bad ray file %s: %s, face %r: %s" \
        % (path, name, face, detail)


@pytest.mark.parametrize("command", RAY_COMMANDS + [
    ("tel", "--work", "2", "--depth", "1")])
def test_ray_in_positive_form_exits_2(command, tmp_path, capsys):
    """``ray1_stationary.json`` with every cube in positive form is a bad
    ray file naming its first cube, not an internal error.  Each face
    entry from the odd generator changes sign, so that the cubes still
    verify in positive form; their form is refused ahead of any glue."""
    data = json.loads(open(os.path.join(DATA, "ray1_stationary.json")).read())
    for cube in data["prefix"] + [data["tail"]["cube"]]:
        cube["positive"] = True
        for entry in cube["faces"]["-"]:
            if entry["source"] == "b":
                entry["scalar"] = scalar_to_json(-parse_scalar(
                    entry["scalar"]))
    path = tmp_path / "positive_ray.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, *command[:1], str(path), *command[1:],
                        "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "bad ray file %s: prefix cube 1 " \
        "is in positive form; a ray needs signed cubes" % path


def test_positive_twins_of_corpus_cubes_report_as_the_signed_files(
        tmp_path, capsys):
    """``mv`` of each corpus square and ``compose`` of each corpus pair,
    every file replaced by its positive twin (the same D): the report is
    the signed files' report but for the input names and digests."""
    cases = [c["argv"][:-2] for c in json.loads(open(os.path.join(
        DATA, "expected.json")).read()) if c["argv"][0] in ("mv", "compose")
        and c["argv"][-1] == "json"]
    assert len(cases) == 7
    for command, *names in cases:
        reports = []
        for twin in (False, True):
            paths = [os.path.join(DATA, name) for name in names]
            if twin:
                paths = [str(tmp_path / ("positive_" + name)) for name in names]
                for name, path in zip(names, paths):
                    cube, _ = cli._load_cube(os.path.join(DATA, name))
                    with open(path, "w") as fh:
                        json.dump(cube_to_json(to_positive_signs(cube)), fh)
            code, out = run_cli(capsys, command, *paths, "--format", "json")
            for path, name in zip(paths, names):
                out = out.replace(path, name)
            report = json.loads(out)
            for part in (report, report.get("provenance", {})):
                part.pop("input", None), part.pop("inputs", None)
            reports.append((code, report))
        assert reports[1] == reports[0], names


def test_pool_size_is_capped_by_tasks_and_cpus():
    cpus = os.cpu_count() or 1
    assert cli.pool_size(10 ** 6, 10 ** 6) == cpus
    assert cli.pool_size(10 ** 6, 3) == min(3, cpus)
    assert cli.pool_size(1, 50) == 1
    assert cli.pool_size(0, 50) == 1


def test_morse_commands(tmp_path, capsys):
    code, out = run_cli(capsys, "morse", "global-sections", "bundled:t2",
                        "--precision", "1", "--depth", "4",
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [2, 2]
    assert len(report["barcode"]["open"]) == 4
    code, out = run_cli(capsys, "morse", "empty-set", "bundled:circle",
                        "--precision", "5")
    assert code == 0
    code, out = run_cli(capsys, "morse", "relative-sh", "bundled:circle6",
                        "--precision", "1", "--depth", "3",
                        "--subset", "v0,e0,v1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["barcode"]["open"]) == 1


def test_morse_descent_involutive_command(tmp_path, capsys):
    m = bundled_model("circle6")
    data = {"model": model_to_json(m),
            "regions": [["v0", "e0", "v1"], ["v1", "e1", "v2", "e2", "v0"]]}
    path = tmp_path / "descent.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "morse", "descent-involutive", str(path),
                        "--precision", "1", "--depth", "2",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["acyclic"] is True


def test_descent_command_on_ray_file(tmp_path, capsys):
    # a subset-cube ray whose slices are identity squares
    from helpers import random_complex
    from novcube.chain import mat_identity
    rng = random.Random(84)
    c = random_complex(rng, prefix="dc")
    ident = mat_identity(c.labels)
    sq = CubeDiagram(2, {w: c for w in ("00", "01", "10", "11")},
                     {"-0": dict(ident), "-1": dict(ident),
                      "0-": dict(ident), "1-": dict(ident)})
    cube3 = id_cube(sq)
    ray = {"n": 3, "prefix": [cube_to_json(cube3), cube_to_json(cube3)],
           "tail": {"kind": "finite"}}
    path = tmp_path / "descent_ray.json"
    path.write_text(json.dumps(ray))
    code, out = run_cli(capsys, "descent", str(path), "--precision", "1",
                        "--depth", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["acyclic"] is True
    assert report["d0_matches_summands"] is True


def test_jobs_batch_matches_sequential(square_file, tmp_path, capsys):
    rng = random.Random(83)
    other = random_cube(rng, 1).relabel_vertices(lambda w, l: "%s|%s" % (w, l))
    path2 = tmp_path / "other.json"
    path2.write_text(json.dumps(cube_to_json(other)))
    _, seq = run_cli(capsys, "verify-cube", square_file, str(path2),
                     "--format", "json")
    _, par = run_cli(capsys, "verify-cube", square_file, str(path2),
                     "--format", "json", "--jobs", "2")
    assert seq == par


def _edited(tmp_path, square_file, edit):
    data = json.loads(open(square_file).read())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def _first_generator(data):
    return data["vertices"][sorted(data["vertices"])[0]]["generators"][0]


@pytest.mark.parametrize("key,edit", [
    ("n", lambda d: d.update(n=5.7)),
    ("n", lambda d: d.update(n=True)),
    ("positive", lambda d: d.update(positive="yes")),
    ("partial", lambda d: d.update(partial=1)),
    ("parity", lambda d: _first_generator(d).update(parity=1.0)),
], ids=["n-float", "n-bool", "positive-string", "partial-int",
        "parity-float"])
def test_wrongly_typed_cube_value_exits_2(tmp_path, square_file, capsys,
                                          key, edit):
    # a float, string or bool where the format has an int or a bool is
    # refused, not coerced: each of these used to verify as ok
    path = _edited(tmp_path, square_file, edit)
    code, out = run_cli(capsys, "verify-cube", path, "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert path in error and repr(key) in error


def test_wrongly_typed_ray_dimension_exits_2(tmp_path, capsys):
    c = ChainComplex([Generator("a", 0), Generator("b", 1)],
                     {("b", "a"): NovikovScalar.one()})
    edge = CubeDiagram(1, {"0": c, "1": c}, {"-": mat_identity(c.labels)})
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"n": 1.0, "prefix": [cube_to_json(edge)]}))
    code, out = run_cli(capsys, "tel", str(path), "--depth", "1",
                        "--work", "1", "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert str(path) in error and "'n'" in error


def test_partial_cube_cannot_be_coned_or_telescoped(tmp_path, square_file,
                                                    capsys):
    path = _edited(tmp_path, square_file, lambda d: d.update(partial=True))
    code, out = run_cli(capsys, "cone", path, "--direction", "1",
                        "--format", "json")
    assert code == 2
    assert "partial" in json.loads(out)["error"]
    ray = tmp_path / "ray.json"
    cube = json.loads(open(path).read())
    ray.write_text(json.dumps({"n": 2, "prefix": [cube]}))
    code, out = run_cli(capsys, "tel", str(ray), "--depth", "1",
                        "--work", "1", "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert str(ray) in error and "partial" in error


@pytest.mark.parametrize("n", [1, 3])
def test_mv_of_a_cube_that_is_not_a_square_exits_2(tmp_path, capsys, n):
    # the six-term sequence is of a 2-cube; any other n is a usage error
    # naming the file, not an internal error
    rng = random.Random(83)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(cube_to_json(random_cube(rng, n))))
    code, out = run_cli(capsys, "mv", str(path), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert str(path) in error and "n = %d" % n in error


def test_mv_of_a_partial_square_exits_2(tmp_path, square_file, capsys):
    # verify_cube skips a partial cube's missing faces, so the sequence
    # would be read off a square that was never checked
    path = _edited(tmp_path, square_file, lambda d: d.update(partial=True))
    code, out = run_cli(capsys, "mv", path, "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert path in error and "partial" in error


def _model_file(tmp_path, edit):
    data = model_to_json(bundled_model("interval"))
    edit(data)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("key,edit", [
    ("parity", lambda d: d["cells"][0].update(parity=1.7)),
    ("parity", lambda d: d["cells"][2].update(parity=True)),
    ("coeff", lambda d: d["boundary"][0].update(coeff=1.0)),
    ("coeff", lambda d: d["boundary"][1].update(coeff="-1")),
    ("value", lambda d: d["cells"][2].update(value=-0.5)),
    ("value", lambda d: d["cells"][0].update(value=False)),
], ids=["parity-float", "parity-bool", "coeff-float", "coeff-string",
        "value-float", "value-bool"])
def test_wrongly_typed_model_value_exits_2(tmp_path, capsys, key, edit):
    # a model file's parities and coefficients are ints and its values
    # strings p/q or ints; anything else is refused, not coerced
    path = _model_file(tmp_path, edit)
    code, out = run_cli(capsys, "morse", "empty-set", path,
                        "--precision", "1", "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert path in error and repr(key) in error


def test_model_values_as_strings_or_ints_load(tmp_path, capsys):
    def edit(d):
        d["cells"][0]["value"] = -1
        d["cells"][2]["value"] = "-1/2"
    path = _model_file(tmp_path, edit)
    code, out = run_cli(capsys, "morse", "empty-set", path,
                        "--precision", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_cube_commands_import_neither_morse_nor_rays():
    # verify-cube, cone and compose run without the Morse and ray layers;
    # the handlers that need them import them
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, novcube.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('novcube.morse', 'novcube.rays')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_float_weight_in_minmax_file_exits_2(tmp_path, capsys):
    data = json.loads(open(os.path.join(
        os.path.dirname(__file__), "data", "cli", "minmax_circle.json")).read())
    data["hy"]["v0"] = -3.0
    path = tmp_path / "minmax.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "morse", "minmax", str(path),
                        "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert str(path) in error and "'v0'" in error


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_a_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-cube", os.path.join(DATA, "cube2.json"),
                  "--jobs", jobs])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--jobs must be at least 1" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_0_cube_violation_names_its_face(fmt, capsys):
    """The cone of a 1-cube is a 0-cube: its one face has the empty code,
    and a violation on it is named ``(vertex)``, not left blank."""
    code, out = run_cli(capsys, "cone", os.path.join(DATA, "fuzzy_edge.json"),
                        "--direction", "1", "--work", "10", "--format", fmt)
    assert code == 1
    detail = ("equation residual at ('(1,b)', '(0,a)'): "
              "undetermined below T^1")
    if fmt == "json":
        assert json.loads(out)["violations"] == [{"face": "(vertex)",
                                                  "detail": detail}]
    else:
        assert "\n  (vertex): %s\n" % detail in out


@pytest.mark.parametrize("regions, detail", [
    ([["v0", "e0", "v1"], ["v1", "nowhere"]],
     "region 1: unknown base points {'nowhere'}"),
    ([["v0", "e0", "v1"], ["e1", "v2"]],
     "region 1: arrows [('e1', 'v1')] enter the region from outside"),
], ids=["unknown-base-point", "open-region"])
def test_descent_regions_are_checked_when_the_file_is_read(
        tmp_path, capsys, regions, detail):
    """Each region of a descent file is resolved and checked at load: a
    domain failure (exit 1) naming the file and the region's index, not
    an internal error or a vertex of the slice cube."""
    data = json.loads(open(os.path.join(DATA, "descent_circle6.json")).read())
    data["regions"] = regions
    path = tmp_path / "descent.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "morse", "descent-involutive", str(path),
                        "--precision", "1", "--depth", "2", "--format",
                        "json")
    assert code == 1
    assert json.loads(out)["error"] == "%s: InadmissibleSubset: %s" % (
        path, detail)


def test_descent_file_with_an_empty_cover_is_a_bad_file(tmp_path, capsys):
    """No region is a malformed descent file (exit 2), not a descent that
    fails on the empty union."""
    data = json.loads(open(os.path.join(DATA, "descent_circle6.json")).read())
    data["regions"] = []
    path = tmp_path / "descent.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "morse", "descent-involutive", str(path),
                        "--precision", "1", "--depth", "2", "--format",
                        "json")
    assert code == 2
    assert json.loads(out)["error"] == "bad descent file %s: regions: an " \
        "empty cover has no descent" % path


def test_an_inadmissible_subset_names_the_flag_and_its_labels(capsys):
    code, out = run_cli(capsys, "morse", "relative-sh", "bundled:circle6",
                        "--subset", "e0,v0", "--precision", "1", "--depth",
                        "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == (
        "bundled:circle6: InadmissibleSubset: --subset e0,v0: arrows "
        "[('e0', 'v1')] enter the region from outside")


def test_cube_report_violations_name_the_labels_of_its_cube(capsys):
    """A failing ``cone`` report names each violation by the flattened
    labels its ``cube`` field spells."""
    code, out = run_cli(capsys, "cone", os.path.join(DATA, "broken4.json"),
                        "--direction", "2", "--format", "json")
    report = json.loads(out)
    assert code == 1 and report["violations"]
    labels = {g["label"] for v in report["cube"]["vertices"].values()
              for g in v["generators"]}
    for v in report["violations"]:
        named = v["detail"].split(" at (", 1)[1].split("):", 1)[0]
        target, source = named.split("', '")
        assert {target.strip("'"), source.strip("'")} <= labels, v


# one small run of every subcommand and of every morse action, on the
# golden corpus's inputs
EVERY_COMMAND = [
    ["verify-cube", "cube2.json"],
    ["cone", "cube2.json", "--direction", "1"],
    ["compose", "glue2_a.json", "glue2_b.json"],
    ["tel", "ray2.json", "--depth", "2", "--work", "3"],
    ["sh", "ray1_stationary.json", "--precision", "2"],
    ["mv", "square_identity.json"],
    ["descent", "ray2.json", "--precision", "1", "--depth", "2"],
    ["morse", "global-sections", "bundled:circle", "--precision", "1",
     "--depth", "2"],
    ["morse", "empty-set", "bundled:circle", "--precision", "2"],
    ["morse", "relative-sh", "bundled:circle6", "--precision", "1",
     "--depth", "2", "--subset", "v0,e0,v1"],
    ["morse", "minmax", "minmax_circle.json"],
    ["morse", "descent-involutive", "descent_circle6.json", "--precision",
     "1", "--depth", "2"],
]


def test_every_command_is_run_by_the_import_check():
    import argparse
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in EVERY_COMMAND} == set(sub.choices)
    assert {argv[1] for argv in EVERY_COMMAND if argv[0] == "morse"} \
        == set(cli.MORSE_ACTIONS)


@pytest.mark.parametrize("argv", EVERY_COMMAND,
                         ids=[" ".join(a[:2]) for a in EVERY_COMMAND])
def test_no_command_imports_the_lemmas(argv):
    """``novcube.lemmas`` holds the paper's constructions that only the
    tests run: each command, in a fresh interpreter, reaches its verdict
    (exit 0 or 1) without importing it, though it is there to import."""
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys; from importlib.util import find_spec; "
            "from novcube import cli; code = cli.main(sys.argv[1:]); "
            "loaded = 'novcube.lemmas' in sys.modules; "
            "print(code, loaded, find_spec('novcube.lemmas') is not None)")
    out = subprocess.run([sys.executable, "-c", code, *argv, "--format",
                          "json"], cwd=DATA, env=dict(os.environ,
                                                      PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    exit_code, loaded, present = out.stdout.split()[-3:]
    assert exit_code in ("0", "1") and (loaded, present) == ("False", "True")


def _ray1_stationary_with(tmp_path, **fields):
    data = json.loads(open(os.path.join(DATA, "ray1_stationary.json")).read())
    data.update(fields)
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", RAY_COMMANDS + [
    ("tel", "--work", "2", "--depth", "1")])
@pytest.mark.parametrize("n", [0, -1])
def test_ray_without_a_last_direction_exits_2(command, n, tmp_path, capsys):
    """A ray glues its stages in its last direction, so a ray file with
    n < 1 is a bad file, even with no stored cube to disagree with n."""
    path = _ray1_stationary_with(tmp_path, n=n, prefix=[],
                                 tail={"kind": "finite"})
    code, out = run_cli(capsys, *command[:1], str(path), *command[1:],
                        "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "bad ray file %s: n = %d: a ray " \
        "needs a last direction to glue in" % (path, n)


def test_stationary_tail_of_another_dimension_exits_2(tmp_path, capsys):
    path = _ray1_stationary_with(tmp_path, n=2, prefix=[])
    code, out = run_cli(capsys, "tel", str(path), "--work", "2", "--depth",
                        "1", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "bad ray file %s: tail cube has " \
        "dimension 1" % path


def test_compose_of_0_cubes_exits_2(tmp_path, capsys):
    paths = []
    for name in ("point_a", "point_b"):
        c = ChainComplex([Generator(name, 0)], {})
        paths.append(tmp_path / (name + ".json"))
        paths[-1].write_text(json.dumps(cube_to_json(
            CubeDiagram(0, {"": c}, {}))))
    code, out = run_cli(capsys, "compose", *map(str, paths), "--format",
                        "json")
    assert code == 2
    assert json.loads(out)["error"] == "compose of %s and %s: 0-cubes do " \
        "not glue" % tuple(paths)


@pytest.mark.parametrize("argv", [
    ["global-sections", "bundled:nope", "--precision", "1", "--depth", "1"],
    ["empty-set", "bundled:", "--precision", "1"],
], ids=["global-sections", "empty-set"])
def test_unknown_bundled_model_is_a_usage_error(argv, capsys):
    code, out = run_cli(capsys, "morse", *argv, "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == (
        "unknown bundled model %r; bundled models: circle, circle12, "
        "circle24, circle6, grid9, interval, point, s2, t2"
        % argv[1].split(":", 1)[1])
