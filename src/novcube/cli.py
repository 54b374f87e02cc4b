"""Batch front end: parse diagram and model files, verify, compute, report.

Reports are deterministic for fixed inputs and flags: JSON output uses
canonically ordered keys and exact scalar strings, and every report
carries a provenance block with the input hashes and the quotient
parameters the result is valid under.  Exit codes: 0 ok, 1 violation
or domain failure (:data:`DOMAIN_ERRORS`, reported with the input file),
2 usage or parse error, 3 internal error.

Each subcommand has one ``cmd_*`` handler and each ``morse`` action one
handler in :data:`MORSE_ACTIONS`; a handler returns ``(report, exit
code)``, and :func:`_report` adds the keys every report carries.  Each
subcommand states its own flags in :func:`build_parser`: the ``--work``
default or that ``--work`` is mandatory, and which of ``--precision`` and
``--depth`` it needs.  :data:`MORSE_ACTIONS` says which of
``--precision``, ``--subset``, ``--depth`` and ``--work`` each action
reads: each flag it reads but ``--work`` is mandatory, and a flag it does
not read is a usage error.  At load ``cone`` refuses a cube file in
positive form, ``tel``, ``sh`` and ``descent`` a ray file with such a
cube, and ``sh`` and ``descent`` one with a cube that does not verify at
the working precision; each passing check is the cube's certificate, so
the telescope built from the cubes is not checked again.  ``verify-cube``,
``cone``, ``compose`` and ``tel`` fully check the cube they report.

``morse`` and ``rays`` are imported by the handlers that use them, so
``verify-cube``, ``cone`` and ``compose`` start without them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from .chain import json_field, json_rational
from .cubes import (CubeDiagram, InvalidDirection, cone, compose,
                    cube_from_json, cube_to_json, entry_violations,
                    verify_cube)
# failures of the mathematics on a well-formed input: exit 1, not 3
from .errors import DOMAIN_ERRORS, InadmissibleSubset
from .novikov import json_keys, rat

if TYPE_CHECKING:
    from .rays import Ray

FORMAT_VERSION = 1

# what a JSON value of the wrong shape raises on its way into the library
SHAPE_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError,
                ZeroDivisionError)

class InputError(ValueError):
    pass


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (ValueError, UnicodeDecodeError) as exc:
        raise InputError("cannot parse %s: %s" % (path, exc))


def _read_object(path: str, kind: str, parse) -> Tuple[object, str]:
    """``parse`` of the JSON object in ``path``; a badly shaped object,
    one with unknown keys included, makes a bad ``kind`` file."""
    data, digest = _read_json(path)
    try:
        return parse(data), digest
    except SHAPE_ERRORS as exc:
        raise InputError("bad %s file %s: %s" % (kind, path, exc))


def _load_model(path: str):
    from .morse import bundled_model, model_from_json
    if path.startswith("bundled:"):
        model = bundled_model(path.split(":", 1)[1])
        digest = "bundled:" + path.split(":", 1)[1]
        return model, digest
    return _read_object(path, "model", model_from_json)


def _load_cube(path: str) -> Tuple[CubeDiagram, str]:
    return _read_object(path, "cube", cube_from_json)


def _load_sound_cube(path: str) -> Tuple[CubeDiagram, str]:
    """A total cube whose face entries lie in their complexes, with the
    right parity and nonnegative valuation, as the commands that build new
    complexes from it need."""
    cube, digest = _load_cube(path)
    if cube.partial:
        raise InputError("bad cube file %s: a partial cube cannot be "
                         "coned or composed" % path)
    bad = entry_violations(cube)
    if bad:
        raise InputError("bad cube file %s: face %r: %s" % ((path,) + bad[0]))
    return cube, digest


def _ray_from_json(data: dict) -> Ray:
    from .rays import Ray, TailSpec
    json_keys(data, {"n", "prefix", "tail"}, "a ray")
    n = json_field(data, "n", int)
    prefix = [cube_from_json(c) for c in data.get("prefix", ())]
    taildata = json_keys(data.get("tail", {"kind": "finite"}),
                         {"kind", "cube"}, "a ray tail")
    kind = taildata.get("kind", "finite")
    if kind == "finite":
        tail = TailSpec.finite()
    elif kind == "stationary":
        tail = TailSpec.stationary(cube_from_json(taildata["cube"]))
    else:
        raise ValueError("file rays support tails 'finite' and "
                         "'stationary', got %r" % (kind,))
    return Ray(n, prefix, tail)


def _load_ray(path: str) -> Tuple[Ray, str]:
    return _read_object(path, "ray", _ray_from_json)


def _load_coherent_ray(args, path: str):
    """The ray in ``path``, its digest, the precision, and the working
    precision ``max(--work, --precision)``, at which the ray must have no
    :meth:`Ray.fault`, which certifies its cubes at that precision."""
    ray, digest = _load_ray(path)
    precision = work = _parse_fraction(args.precision, "--precision")
    if args.work is not None:
        work = max(_parse_fraction(args.work, "--work"), precision)
    bad = ray.fault(work)
    if bad:
        raise InputError("bad ray file %s: %s" % (path, bad))
    return ray, digest, precision, work


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("flag %s expects a rational p/q, got %r"
                         % (flag, text))


def _report(args, inputs, digests, ok: bool, **fields):
    """``fields`` with the keys every report carries, and the exit code:
    0 for status ok, 1 for a violation."""
    fields.update(
        command=args.command if args.command != "morse"
        else "morse " + args.action,
        status="ok" if ok else "violation",
        provenance={"format_version": FORMAT_VERSION, "inputs": digests,
                    "precision": getattr(args, "precision", None),
                    "work": getattr(args, "work", None),
                    "depth": getattr(args, "depth", None)})
    if isinstance(inputs, tuple):
        fields["inputs"] = list(inputs)
    else:
        fields["input"] = inputs
    return fields, 0 if ok else 1


def _flatten_label(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(_flatten_label(x) for x in label) + ")"
    return str(label)


def _violations(report) -> list:
    """Each violation with its face, the single face of a 0-cube (whose
    code is empty) named ``(vertex)``."""
    return [{"face": f or "(vertex)", "detail": d}
            for f, d in report.violations]


def _cube_report(args, inputs, digests, cube: CubeDiagram, work, **fields):
    """The report of a cube a command built, with its labels flattened to
    strings: verified at ``work``, with any violations named by the
    flattened labels, and serialized."""
    flat = cube.relabel_vertices(lambda w, l: _flatten_label(l))
    rep = verify_cube(flat, work)
    if not rep.ok:
        fields["violations"] = _violations(rep)
    return _report(args, inputs, digests, rep.ok, cube=cube_to_json(flat),
                   **fields)


# ---------------------------------------------------------------------------
# command handlers: return (report_dict, exit_code)


def cmd_verify_cube(args, path):
    cube, digest = _load_cube(path)
    rep = verify_cube(cube, _parse_fraction(args.work, "--work"))
    return _report(args, path, [digest], rep.ok,
                   faces_checked=len(cube.codes), violations=_violations(rep))


def cmd_cone(args, path):
    cube, digest = _load_sound_cube(path)
    work = _parse_fraction(args.work, "--work")
    if cube.positive:
        raise InputError("cone of %s: cone applies to cubes in signed form"
                         % path)
    try:
        out = cone(cube, args.direction)
    except InvalidDirection as exc:
        raise InputError("--direction for %s: %s" % (path, exc))
    return _cube_report(args, path, [digest], out, work,
                        direction=args.direction)


def cmd_compose(args, paths):
    (first, d1), (second, d2) = [_load_sound_cube(p) for p in paths]
    work = _parse_fraction(args.work, "--work")
    return _cube_report(args, paths, [d1, d2], compose(first, second), work)


def cmd_tel(args, path):
    from .rays import telescope
    ray, digest = _load_ray(path)
    work = _parse_fraction(args.work, "--work")
    return _cube_report(args, path, [digest], telescope(ray, args.depth),
                        work, depth=args.depth)


def cmd_sh(args, path):
    from .rays import completed_homology
    ray, digest, precision, work = _load_coherent_ray(args, path)
    code = completed_homology(ray, precision, work)
    return _report(args, path, [digest], True, barcode=code.to_json())


def cmd_mv(args, path):
    from .rays import mayer_vietoris
    cube, digest = _load_cube(path)
    if cube.n != 2:
        raise InputError("mv of %s: the six-term sequence is of a square "
                         "(n = 2), got an n = %d cube" % (path, cube.n))
    if cube.partial:
        raise InputError("mv of %s: a partial square has no six-term "
                         "sequence" % path)
    rep = mayer_vietoris(cube, _parse_fraction(args.work, "--work"))
    return _report(
        args, path, [digest], rep.ok,
        exactness={spot: {str(p): v for p, v in by.items()}
                   for spot, by in sorted(rep.spots.items())},
        homology_ranks={w: list(r) for w, r in sorted(rep.ranks.items())})


def cmd_descent(args, path):
    from .rays import descent_complex
    ray, digest, _, work = _load_coherent_ray(args, path)
    rep = descent_complex(ray, work, args.depth)
    return _report(
        args, path, [digest], rep.acyclic, acyclic=rep.acyclic,
        degree_entry_counts={str(k): v
                             for k, v in rep.degree_entry_counts.items()},
        d0_matches_summands=rep.d0_matches_summands,
        slice_betti=[list(b) for b in rep.certificate.betti],
        tail_note=rep.certificate.tail_note)


# ``morse`` actions


def _global_sections(args, path):
    from .morse import global_sections
    model, digest = _load_model(path)
    precision = _parse_fraction(args.precision, "--precision")
    rep = global_sections(model, precision, args.depth)
    return _report(args, path, [digest], True, barcode=rep.barcode.to_json(),
                   betti=list(rep.betti),
                   stage_weights_checked=rep.stage_weights_checked)


def _empty_set(args, path):
    from .morse import empty_set
    model, digest = _load_model(path)
    precision = _parse_fraction(args.precision, "--precision")
    code = empty_set(model, precision)
    return _report(args, path, [digest], code.is_zero, barcode=code.to_json())


def _relative_sh(args, path):
    from .morse import Region, relative_sh
    model, digest = _load_model(path)
    precision = _parse_fraction(args.precision, "--precision")
    labels = [s for s in args.subset.split(",") if s]
    try:
        region = Region.of(model, labels)
    except KeyError as exc:
        raise InputError("--subset for %s: %s" % (path, exc.args[0]))
    except InadmissibleSubset as exc:
        raise InadmissibleSubset("--subset %s: %s"
                                 % (",".join(labels), exc.args[0]))
    rep = relative_sh(model, region, precision, args.depth)
    return _report(args, path, [digest], True, subset=sorted(labels),
                   barcode=rep.barcode.to_json(), betti=list(rep.betti))


def _minmax(args, path):
    from .morse import minmax_square, model_from_json
    from .rays import mayer_vietoris

    def parse(data):
        json_keys(data, {"model", "hx", "hy"}, "the top level")
        return (model_from_json(data["model"]),
                {l: json_rational(data["hx"], l) for l in data["hx"]},
                {l: json_rational(data["hy"], l) for l in data["hy"]})

    (model, hx, hy), digest = _read_object(path, "minmax", parse)
    rep = minmax_square(model, hx, hy)
    mv = mayer_vietoris(rep.square, Fraction(3) if args.work is None
                        else _parse_fraction(args.work, "--work"))
    return _report(
        args, path, [digest], rep.acyclic and rep.pieces_match and mv.ok,
        pieces={str(l): kind for l, kind in sorted(
            rep.pieces.items(), key=lambda kv: str(kv[0]))},
        pieces_match=rep.pieces_match,
        strict_commutation=rep.strict_commutation, acyclic=rep.acyclic,
        mayer_vietoris_exact=mv.ok, square=cube_to_json(rep.square))


def _descent_involutive(args, path):
    from .morse import Region, involutive_descent_instance, model_from_json

    def parse(data):
        json_keys(data, {"model", "regions"}, "the top level")
        if not data["regions"]:
            raise ValueError("regions: an empty cover has no descent")
        return (model_from_json(data["model"]),
                [set(r) for r in data["regions"]])

    (model, labels), digest = _read_object(path, "descent", parse)
    regions = []
    for i, region in enumerate(labels):
        try:
            regions.append(Region.of(model, region))
        except (KeyError, InadmissibleSubset) as exc:
            raise InadmissibleSubset("region %d: %s" % (i, exc.args[0]))
    precision = _parse_fraction(args.precision, "--precision")
    rep = involutive_descent_instance(model, regions, precision,
                                      depth=args.depth)
    return _report(args, path, [digest], rep.acyclic, acyclic=rep.acyclic,
                   pairwise=[{"pair": list(pair), "acyclic": ok}
                             for pair, ok in rep.pairwise])


# action -> (handler, the flags it reads: each is mandatory but --work, and
# a flag it does not read is refused)
MORSE_ACTIONS = {
    "global-sections": (_global_sections, {"precision", "depth"}),
    "empty-set": (_empty_set, {"precision"}),
    "relative-sh": (_relative_sh, {"precision", "subset", "depth"}),
    "minmax": (_minmax, {"work"}),
    "descent-involutive": (_descent_involutive, {"precision", "depth"}),
}


# ---------------------------------------------------------------------------


def render_text(report: dict) -> str:
    lines = ["%s: %s" % (report.get("command"), report.get("status"))]
    for key in sorted(report):
        if key in ("command", "status", "cube", "square", "provenance"):
            continue
        val = report[key]
        if key == "barcode" and isinstance(val, dict):
            lines.append("barcode:")
            for bar in val.get("free", ()):
                lines.append("  free     parity %d" % bar["parity"])
            for bar in val.get("open", ()):
                lines.append("  open     parity %d  (0, precision)"
                             % bar["parity"])
            for bar in val.get("torsion", ()):
                lines.append("  torsion  parity %d  length %s"
                             % (bar["parity"], bar["length"]))
            if not any(val.get(k) for k in ("free", "open", "torsion")):
                lines.append("  (empty)")
            continue
        if key == "violations" and isinstance(val, list):
            lines.append("violations: %d" % len(val))
            for v in val[:50]:
                lines.append("  %s: %s" % (v["face"], v["detail"]))
            continue
        if key == "exactness":
            for spot, by in val.items():
                lines.append("exact at %-9s even=%s odd=%s"
                             % (spot, by.get("0"), by.get("1")))
            continue
        lines.append("%s: %s" % (key, json.dumps(val, sort_keys=True)))
    prov = report.get("provenance", {})
    lines.append("provenance: precision=%s work=%s depth=%s"
                 % (prov.get("precision"), prov.get("work"),
                    prov.get("depth")))
    return "\n".join(lines)


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    return render_text(report)


def _run_one(task):
    args, payload = task
    try:
        return args.handler(args, payload)
    except InputError as exc:
        error, code = str(exc), 2
    except DOMAIN_ERRORS as exc:
        inputs = payload if isinstance(payload, str) else ", ".join(payload)
        error, code = "%s: %s: %s" % (inputs, type(exc).__name__, exc), 1
    except Exception as exc:  # noqa: BLE001 - surfaced with module names
        error, code = "%s: %s" % (type(exc).__name__, exc), 3
    return {"command": args.command, "status": "error", "error": error}, code


def pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for a batch: at most one per task and per CPU."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _positive(text: Optional[str]) -> bool:
    """False only for a rational <= 0; a malformed one is left to the
    handlers, which report it as a parse error."""
    try:
        return text is None or rat(text) > 0
    except (ValueError, ZeroDivisionError):
        return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novcube",
        description="verify and compute with cubical diagrams over the "
                    "Novikov ring")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, work=None, mandatory=(), nargs="+"):
        """Subcommand ``name`` with ``work`` as its --work default; the
        flags in ``mandatory`` (work, precision, depth) must be given."""
        p = sub.add_parser(name, help=help)
        if name == "morse":
            p.add_argument("action", choices=MORSE_ACTIONS)
        p.add_argument("files", nargs=nargs)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel batch over multiple input files")
        p.add_argument("--work", default=work, required="work" in mandatory,
                       help="working precision p/q")
        if "precision" in mandatory:
            p.add_argument("--precision", required=True,
                           help="quotient precision p/q (mandatory)")
        if "depth" in mandatory:
            p.add_argument("--depth", type=int, required=True,
                           help="materialization depth (mandatory)")
        p.set_defaults(handler=handler)
        return p

    add("verify-cube", cmd_verify_cube, "check the coherence equations",
        work="10")
    p = add("cone", cmd_cone, "contract one direction", work="10")
    p.add_argument("--direction", type=int, required=True)
    add("compose", cmd_compose, "compose two glued map-cubes", work="10",
        nargs=2)
    add("tel", cmd_tel, "materialize a telescope",
        mandatory=("work", "depth"))
    add("sh", cmd_sh, "completed homology of a ray", mandatory=("precision",))
    add("mv", cmd_mv, "six-term exact sequence of a square", work="3")
    add("descent", cmd_descent, "subset-cube descent verdict",
        mandatory=("precision", "depth"))
    p = add("morse", None, "cell-model computations")
    p.add_argument("--precision", default=None,
                   help="quotient precision p/q (mandatory but for minmax)")
    p.add_argument("--subset", default=None,
                   help="comma-separated labels for relative-sh")
    p.add_argument("--depth", type=int, default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "morse":
        args.handler, reads = MORSE_ACTIONS[args.action]
        given = {flag for flag in ("depth", "precision", "subset", "work")
                 if getattr(args, flag) is not None}
        for flag in sorted(reads - given - {"work"}):
            parser.exit(2, "error: --%s is mandatory for morse %s\n"
                        % (flag, args.action))
        for flag in sorted(given - reads):
            parser.exit(2, "error: --%s is not read by morse %s\n"
                        % (flag, args.action))
    if args.work == "":
        parser.exit(2, "error: flag --work expects a rational p/q, got ''\n")
    for flag in ("precision", "work"):
        if not _positive(getattr(args, flag, None)):
            parser.exit(2, "error: --%s must be positive\n" % flag)
    for flag in ("depth", "jobs"):
        if getattr(args, flag, None) is not None and getattr(args, flag) < 1:
            parser.exit(2, "error: --%s must be at least 1\n" % flag)
    paths = [tuple(args.files)] if args.command == "compose" else args.files
    tasks = [(args, p) for p in paths]

    workers = pool_size(args.jobs, len(tasks))
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_run_one, tasks)
    else:
        results = [_run_one(t) for t in tasks]

    worst = 0
    for report, code in results:
        print(emit(report, args.format))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
