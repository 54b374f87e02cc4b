"""The four benchmark workloads: parse inputs, run one instance, check it.

Each workload gives ``load(indir, spec, timers)`` which turns one manifest
entry into ready objects during set-up, ``run(obj)`` which is the timed
call into the public API (or the CLI), and ``check(obj, out)`` which
applies the per-instance oracle and returns ``(ok, canonical_output)``.
The canonical output feeds the output digest, so two commits can be shown
to produce identical results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _read(indir: Path, name: str):
    return json.loads((indir / name).read_text())


def _load_model(data, timers):
    from novcube.morse import model_from_json
    t = perf_counter()
    model = model_from_json(data)
    timers["model_load_s"] += perf_counter() - t
    return model


def _canon(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


# -- minmax_mv: min/max square, then the six-term sequence -------------------


def load_minmax(indir, spec, timers):
    data = _read(indir, spec["file"])
    model = _load_model(data["model"], timers)
    hx = {l: Fraction(v) for l, v in data["hx"].items()}
    hy = {l: Fraction(v) for l, v in data["hy"].items()}
    return model, hx, hy


def run_minmax(obj):
    from novcube.morse import minmax_square
    from novcube.rays import mayer_vietoris
    model, hx, hy = obj
    rep = minmax_square(model, hx, hy)
    return rep, mayer_vietoris(rep.square, 3)


def check_minmax(obj, out):
    rep, mv = out
    ok = (rep.acyclic and rep.pieces_match and rep.strict_commutation
          and mv.ok)
    return ok, _canon({
        "pieces": sorted((str(l), k) for l, k in rep.pieces.items()),
        "flags": [rep.acyclic, rep.pieces_match, rep.strict_commutation,
                  mv.ok],
        "spots": {s: sorted(v.items()) for s, v in mv.spots.items()},
        "ranks": {w: list(r) for w, r in mv.ranks.items()}})


# -- descent: involutive descent for 2 or 3 base regions ---------------------


def load_descent(indir, spec, timers):
    data = _read(indir, spec["file"])
    return _load_model(data["model"], timers), \
        [set(r) for r in data["regions"]]


def run_descent(obj):
    from novcube.morse import involutive_descent_instance
    model, regions = obj
    return involutive_descent_instance(model, regions, 1)


def check_descent(obj, out):
    verdict = out.verdict
    pairs = [ok for _, ok in out.pairwise]
    ok = (verdict.acyclic and verdict.d0_matches_summands
          and len(pairs) == (3 if len(obj[1]) == 3 else 0) and all(pairs))
    return ok, _canon({
        "acyclic": out.acyclic, "d0": verdict.d0_matches_summands,
        "degree_entry_counts": sorted(verdict.degree_entry_counts.items()),
        "generators": len(verdict.complex.generators),
        "entries": len(verdict.complex.differential),
        "slice_betti": [list(b) for b in verdict.certificate.betti],
        "tail_note": verdict.certificate.tail_note,
        "pairwise": [[list(p), ok] for p, ok in out.pairwise]})


# -- stationary_sh: completed homology and the telescope's barcode -----------


def load_stationary(indir, spec, timers):
    from novcube.cubes import cube_from_json
    from novcube.rays import Ray, TailSpec
    data = _read(indir, spec["file"])
    ray = Ray(int(data["n"]), [],
              TailSpec.stationary(cube_from_json(data["tail"]["cube"])))
    r0, work = Fraction(spec["precision"]), Fraction(spec["work"])
    depth = spec["depth"]
    # the telescope is quasi-isomorphic to its last slice over the ring
    expected = ray.slice(depth + 1).vertex("").barcode(work)
    return ray, r0, work, depth, expected


def run_stationary(obj):
    from novcube.rays import completed_homology, telescope_complex
    ray, r0, work, depth, _ = obj
    return (completed_homology(ray, r0, work),
            telescope_complex(ray, depth).barcode(work))


def bars(code):
    """The barcode's bars and valid precision.

    ``free_at_precision`` is left out: it records whether the reduction
    lost precision on the way, which depends on how many pivots it took
    (a slice with zero differential takes none) and not on the module.
    """
    return (code.free_bars, code.torsion_bars, code.open_bars,
            code.precision)


def check_stationary(obj, out):
    completed, tel = out
    ok = completed.is_zero and bars(tel) == bars(obj[4])
    return ok, _canon({"completed": completed.to_json(),
                       "telescope": tel.to_json()})


# -- cli_cubes: one CLI process per instance --------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_cli(indir, spec, timers):
    rel = indir.relative_to(ROOT)
    args = [str(rel / a) if a.endswith(".json") else a for a in spec["args"]]
    return args + ["--format", "json"]


def run_cli(args, child=None):
    """Run the CLI in a fresh interpreter; ``child`` swaps the entry point
    for the traced child (a path to write its spans to)."""
    if child is None:
        argv = [sys.executable, "-m", "novcube.cli"] + args
    else:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(child)] + args
    proc = subprocess.run(argv, cwd=ROOT, env=cli_env(), timeout=120,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc.returncode, proc.stdout, proc.stderr


def check_cli(args, out):
    code, stdout, stderr = out
    if code != 0:
        return False, stdout + stderr
    try:
        ok = json.loads(stdout)["status"] == "ok"
    except (ValueError, KeyError, TypeError):
        ok = False
    return ok, stdout


WORKLOADS = {
    "minmax_mv": (load_minmax, run_minmax, check_minmax),
    "descent": (load_descent, run_descent, check_descent),
    "stationary_sh": (load_stationary, run_stationary, check_stationary),
    "cli_cubes": (load_cli, run_cli, check_cli),
}
