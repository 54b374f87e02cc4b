"""Tests of the benchmark's own logic.

Run from the root of a checkout with either of

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the project's default pytest collection.
"""

import json
import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import self_times, summarize  # noqa: E402

SCRATCH = run.OUT / "selftest"


def test_generator_is_deterministic():
    for workload in gen.WORKLOADS:
        digests = []
        for copy in ("a", "b"):
            outdir = SCRATCH / copy / workload
            shutil.rmtree(outdir, ignore_errors=True)
            instances, digest = gen.generate(workload, 7, outdir)
            digests.append((digest, sorted(
                (p.name, p.read_bytes()) for p in outdir.iterdir())))
        assert digests[0] == digests[1], workload
        _, other = gen.generate(workload, 8, SCRATCH / "c" / workload)
        assert other != digests[0][0], workload


def test_models_match_the_bundled_ones():
    from novcube.morse import bundled_model, model_from_json
    for name in ("interval", "circle", "grid9", "circle6", "circle12",
                 "circle24"):
        ours, theirs = model_from_json(gen.model(name)), bundled_model(name)
        assert ours.cells == theirs.cells
        assert list(ours.boundary.items()) == list(theirs.boundary.items())
        assert ours.values == theirs.values
        assert ours.base_map == theirs.base_map


def test_generated_cubes_verify_and_glue():
    from novcube.cubes import cube_from_json, glueable, verify_cube
    rng = gen._rng("selftest", 0)
    for n in (2, 3, 4):
        par, D = gen.random_plus_cube(rng, n, 3, 6 * n, "a")
        par2, D2 = gen.extension(rng, par, D, n, 3, 6 * n, "b")
        first = cube_from_json(gen.cube_json(n, par, D))
        second = cube_from_json(gen.cube_json(n, par2, D2))
        assert verify_cube(first, 10).ok and verify_cube(second, 10).ok
        assert glueable(first, second, n)


def test_tail_percentile_rule():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(99) == 89
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(11) == 9
    assert run.tail_percentile(10) is None
    for n in range(11, 1500):
        p = run.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values[::-1], 50) == 50
    assert run.percentile([5.0], 90) == 5.0


def test_instance_times_are_rescaled_medians():
    loop = run.Loop("minmax_mv", [None, None])
    loop.latency = [[2.0, 4.0, 3.0], [1.0, 1.0, 1.0]]
    loop.round_slowness = [1.0, 2.0, 1.0]
    assert run.instance_times(loop) == [2.0, 1.0]
    assert run.slowness([run.REFERENCE_S] * 3) == 1.0


def test_self_time_subtraction():
    # root [0, 10] has overlapping children [1, 4] and [3, 6] plus one
    # reaching past its end; [1, 4] has a child [2, 3]
    spans = [("root", 0.0, 10.0, -1, 0),
             ("a", 1.0, 4.0, 0, 0),
             ("b", 3.0, 6.0, 0, 0),
             ("c", 2.0, 3.0, 1, 0),
             ("d", 9.0, 12.0, 0, 0),
             ("a", 20.0, 21.0, -1, 1)]
    got = self_times(spans)
    want = [10 - 5 - 1, 3 - 1, 3, 1, 3, 1]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got
    self_s, calls, under = summarize(spans)
    assert calls["a"] == 2 and abs(self_s["a"] - 3.0) < 1e-12
    assert under == {}


def _two_generator_ray(arrow):
    from novcube.chain import ChainComplex, Generator
    from novcube.cubes import CubeDiagram
    from novcube.novikov import NovikovScalar
    from novcube.rays import Ray, TailSpec
    cx = ChainComplex([Generator("x", 1), Generator("y", 0)],
                      {("y", "x"): arrow} if arrow else {})
    half = NovikovScalar.monomial(1, Fraction(1, 2))
    step = CubeDiagram(1, {"0": cx, "1": cx},
                       {"-": {("x", "x"): half, ("y", "y"): half}})
    return Ray(1, [], TailSpec.stationary(step))


def test_stationary_oracle_on_a_hand_built_ray():
    from novcube.novikov import NovikovScalar
    for arrow in (None, NovikovScalar.monomial(1, 1)):
        ray = _two_generator_ray(arrow)
        work, depth = Fraction(3, 2), 2
        expected = ray.slice(depth + 1).vertex("").barcode(work)
        obj = (ray, Fraction(1), work, depth, expected)
        out = workloads.run_stationary(obj)
        ok, canon = workloads.check_stationary(obj, out)
        assert ok, out
        assert json.loads(canon)["completed"]["free"] == []
    # T^1 y = dx: one torsion bar of length 1; a free pair does not match
    wrong = _two_generator_ray(None).slice(1).vertex("").barcode(work)
    obj = (ray, Fraction(1), work, depth, wrong)
    assert not workloads.check_stationary(obj, out)[0]


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("PASS", name)
            except Exception as exc:  # noqa: BLE001 - report every test
                failed += 1
                print("FAIL", name, repr(exc))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    sys.exit(1 if failed else 0)
