#!/usr/bin/env python3
"""Run one workload of the novcube benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is taken from ``src/`` of the checkout.  Inputs are generated
from the seed under ``.perfbench/`` (the only place the benchmark writes),
set up several times, and then the workload's instance list ("a round")
is run again and again in a closed loop with one client until ``S``
seconds have passed; a reference kernel timed before every instance
rescales the times to nominal host speed.  Every instance is checked by
its oracle.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``.  The exit code is 0 only when every instance passed.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import gzip
import json
import marshal
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import gen
import workloads
from workloads import ROOT, SRC

OUT = ROOT / ".perfbench"
SETUP_REPS = 5
LAYERS = ("linalg", "chain", "cubes", "rays", "morse", "cli")
# timings are rescaled to a host on which reference_kernel() takes this
# long (about what it takes on an idle 2-CPU Xeon host)
REFERENCE_S = 0.001
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import novcube.cli; print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int):
    """The highest whole percentile with at least ten samples beyond it.

    With nearest-rank percentiles the value at percentile p is sample
    number ceil(p n / 100), leaving n - ceil(p n / 100) samples above it.
    Returns None when fewer than eleven samples exist.
    """
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(values, p: int) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


# ---------------------------------------------------------------------------
# host speed


def reference_kernel():
    """Fixed pure-Python work on exact rationals in a dict, like the
    library's own; its time is the yardstick for the host's speed."""
    acc = {}
    for i in range(1, 300):
        k = i % 7
        acc[k] = acc.get(k, Fraction(0)) + Fraction(k + 1, i)
    return acc


def time_reference() -> float:
    t = perf_counter()
    reference_kernel()
    return perf_counter() - t


def slowness(samples) -> float:
    """How much slower than the nominal host the host ran: the median
    reference time over REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S


# ---------------------------------------------------------------------------
# set-up and the closed loop


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_once(workload: str, seed: int, indir: Path):
    """Import probe, input generation, parsing and one warm-up instance."""
    load, run, check = workloads.WORKLOADS[workload]
    refs = [time_reference() for _ in range(25)]
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                           env=workloads.cli_env(), stdout=subprocess.PIPE,
                           check=True, timeout=60)
    import_s = float(probe.stdout)
    t0 = perf_counter()
    instances, input_digest = gen.generate(workload, seed, indir)
    t1 = perf_counter()
    timers = defaultdict(float)
    objs = [load(indir, spec, timers) for spec in instances]
    t2 = perf_counter()
    ok, _ = check(objs[0], run(objs[0]))
    t3 = perf_counter()
    if not ok:
        raise RuntimeError("warm-up instance failed its check")
    refs += [time_reference() for _ in range(25)]
    q = slowness(refs)
    phases = {"import_s": import_s, "generate_s": t1 - t0,
              "parse_s": t2 - t1, "warmup_s": t3 - t2,
              "model_load_s": timers["model_load_s"], "slowness": q}
    return instances, objs, input_digest, (import_s + (t3 - t0)) / q, phases


class Loop:
    """Rounds over the instance list, timed per instance."""

    def __init__(self, workload: str, objs, tracer=None):
        self.workload = workload
        _, self.run, self.check = workloads.WORKLOADS[workload]
        self.objs = objs
        self.tracer = tracer
        self.latency = [[] for _ in objs]
        self.round_wall = []
        self.round_slowness = []
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.child_import_s = 0.0

    def instance(self, obj):
        tracer = self.tracer
        if tracer is None:
            return self.run(obj)
        tracer.begin_instance(self.attempted)
        if self.workload != "cli_cubes":
            return tracer.call_span("instance", self.run, obj)
        child = OUT / "child-spans.marshal"
        root = len(tracer.spans)
        out = tracer.call_span("instance", self.run, obj, child)
        with open(child, "rb") as fh:
            data = marshal.load(fh)
        child.unlink()
        tracer.add_child_run(data, root)
        self.child_import_s += data["import_s"]
        return out

    def one_round(self) -> None:
        h = sha256()
        refs = []
        start = perf_counter()
        for i, obj in enumerate(self.objs):
            refs.append(time_reference())
            t = perf_counter()
            try:
                out = self.instance(obj)
                dt = perf_counter() - t
                ok, canon = self.check(obj, out)
            except Exception:  # noqa: BLE001 - one instance, reported below
                dt = perf_counter() - t
                ok, canon = False, b"raised\n"
                traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            if not ok:
                self.failed += 1
                print("instance %d failed its check" % i, file=sys.stderr)
            self.latency[i].append(dt)
            h.update(canon)
        self.round_wall.append(perf_counter() - start)
        self.round_slowness.append(slowness(refs))
        self.digests.append(h.hexdigest())

    def run_for(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed (at least one)."""
        start = perf_counter()
        while not self.round_wall or perf_counter() - start < seconds:
            self.one_round()


# ---------------------------------------------------------------------------
# metrics


def instance_times(loop: Loop):
    """Each instance's median time over the run's rounds, at nominal speed.

    The host may be shared: another tenant can slow everything by half or
    more, for seconds or for minutes.  Each round times the reference
    kernel before every instance and divides the round's instance times by
    the round's slowness, so that what remains is the program's cost; a
    change to the program moves it, a busier host much less.
    """
    return [statistics.median(t / q for t, q in zip(ts, loop.round_slowness))
            for ts in loop.latency]


def end_to_end(loop: Loop, setup_s: float, cli: bool) -> dict:
    times = instance_times(loop)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli
                               else resource.RUSAGE_SELF)
    return {
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: Loop, untraced: Loop, phases: dict) -> dict:
    from tracer import summarize
    spans = traced.tracer.spans
    counts = traced.tracer.counts
    k = len(traced.round_wall)
    self_s, calls, under = summarize(spans)

    def layer_self(prefix):
        return sum(v for n, v in self_s.items() if n.startswith(prefix))

    m = {}

    def put(name, value, unit, per_round=True):
        m[name] = (value / k if per_round else value, unit)

    put("linalg.rref.calls", calls["linalg.rref"], "count")
    put("linalg.rref.cells", counts["linalg.rref.cells"], "count")
    put("linalg.solve.calls", calls["linalg.solve"], "count")
    put("linalg.dense.self_s", layer_self("linalg.") -
        self_s["linalg.sparse_rank"], "s")
    put("linalg.sparse_rank.calls", calls["linalg.sparse_rank"], "count")
    put("linalg.sparse_rank.nnz", counts["linalg.sparse_rank.nnz"], "count")
    put("linalg.sparse_rank.self_s", self_s["linalg.sparse_rank"], "s")
    put("chain.barcode.calls", calls["chain.barcode"], "count")
    put("chain.barcode.pivots", counts["chain.barcode.pivots"], "count")
    put("chain.barcode.input_nnz", counts["chain.barcode.input_nnz"],
        "count")
    put("chain.barcode.self_s", self_s["chain.barcode"], "s")
    put("chain.mat_compose.calls", calls["chain.mat_compose"], "count")
    put("chain.mat_compose.products", counts["chain.mat_compose.products"],
        "count")
    put("chain.mat_compose.self_s", self_s["chain.mat_compose"], "s")
    put("chain.verify.calls", calls["chain.verify"], "count")
    put("chain.verify.self_s", self_s["chain.verify"], "s")
    put("chain.homology_ranks.calls", calls["chain.homology_ranks"], "count")
    put("chain.homology_space.calls", calls["chain.homology_space"], "count")
    put("chain.homology.self_s", self_s["chain.homology_ranks"] +
        self_s["chain.homology_space"], "s")
    for key in ("scalars_built", "add_calls", "mul_calls", "invert_calls"):
        put("novikov." + key, counts["novikov." + key], "count")
    built = calls["morse.stage_cubes"]
    distinct = counts["morse.stage_cubes_distinct"]
    put("morse.stage_cubes_built", built, "count")
    put("morse.stage_cubes_distinct", distinct, "count")
    put("morse.stage_reuse_ratio", distinct / built if built else 0.0,
        "ratio", per_round=False)
    put("morse.stage_cubes.self_s", self_s["morse.stage_cubes"], "s")
    put("morse.cf.calls", counts["morse.cf.calls"], "count")
    put("morse.minmax_square.self_s", self_s["morse.minmax_square"], "s")
    put("morse.model_load_s", phases["model_load_s"], "s", per_round=False)
    put("rays.telescope.calls", calls["rays.telescope"], "count")
    put("rays.telescope.generators", counts["rays.telescope.generators"],
        "count")
    put("rays.telescope.self_s", self_s["rays.telescope"], "s")
    put("rays.map_cube.calls", counts["rays.map_cube.calls"], "count")
    for name in ("descent_complex", "acyclic_slices", "completed_homology",
                 "mayer_vietoris"):
        put("rays.%s.self_s" % name, self_s["rays." + name], "s")
    put("cubes.verify_cube.calls", calls["cubes.verify_cube"], "count")
    put("cubes.verify_cube.compositions", under["cubes.verify_cube"],
        "count")
    put("cubes.verify_cube.self_s", self_s["cubes.verify_cube"], "s")
    put("cubes.cone.calls", calls["cubes.cone"], "count")
    put("cubes.cone.self_s", self_s["cubes.cone"], "s")
    put("cubes.sign_conversions", counts["cubes.sign_conversions"], "count")
    for name in ("total_complex", "compose", "json"):
        put("cubes.%s.self_s" % name, self_s["cubes." + name], "s")
    cli = traced.workload == "cli_cubes"
    put("cli.import_s", traced.child_import_s, "s")
    put("cli.process_overhead_s", self_s["instance"] if cli else 0.0, "s")
    for name in ("load", "handler", "emit"):
        put("cli.%s.self_s" % name, self_s["cli." + name], "s")
    total = sum(e - s for n, s, e, p, _ in spans if n == "instance")
    for layer in LAYERS:
        put("layer.%s.self_share" % layer, layer_self(layer + ".") / total,
            "share", per_round=False)
    put("layer.harness.self_share", self_s["instance"] / total, "share",
        per_round=False)
    t_wall = sum(traced.round_wall) / k
    u_wall = sum(untraced.round_wall) / len(untraced.round_wall)
    put("trace.overhead_s", t_wall - u_wall, "s", per_round=False)
    put("trace.overhead_share", (t_wall - u_wall) / u_wall, "share",
        per_round=False)
    put("trace.spans", len(spans), "count")
    return m


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for name, start, end, parent, inst in spans:
            fh.write('["%s",%r,%r,%d,%d]\n' % (name, start, end, parent, inst))


def input_sizes(instances) -> dict:
    sizes = {"instances": len(instances)}
    for key in ("generators", "nonzeros"):
        vals = [i[key] for i in instances if key in i]
        if vals:
            sizes[key] = {"total": sum(vals), "max": max(vals)}
    dims = sorted({i["dim"] for i in instances if "dim" in i})
    if dims:
        sizes["cube_dims"] = dims
    return sizes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "novcube" / "__init__.py").is_file():
        print("error: no program at %s; run from a novcube checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import novcube
    if Path(novcube.__file__).resolve().parent != SRC / "novcube":
        print("error: novcube imported from %s, not from %s"
              % (novcube.__file__, SRC), file=sys.stderr)
        return 2

    indir = OUT / "inputs" / ("%s-%d" % (args.workload, args.seed))
    setups = [setup_once(args.workload, args.seed, indir)
              for _ in range(SETUP_REPS)]
    instances, objs, input_digest = setups[-1][:3]
    if len({s[2] for s in setups}) != 1:
        print("error: the generator is not deterministic", file=sys.stderr)
        return 1
    setup_s = statistics.median(s[3] for s in setups)
    phases = {k: statistics.median(s[4][k] for s in setups)
              for k in setups[0][4]}

    loop = Loop(args.workload, objs)
    loops = [loop]
    if args.trace:
        # half the time untraced for the overhead baseline, half traced
        from tracer import Tracer
        loop.run_for(args.seconds / 2)
        traced = Loop(args.workload, objs, Tracer())
        traced.tracer.install()
        traced.run_for(args.seconds / 2)
        loops.append(traced)
        metrics = per_layer(traced, loop, phases)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        write_spans(spans_dir / ("%s-%d.jsonl.gz" % (args.workload,
                                                     args.seed)),
                    traced.tracer.spans)
    else:
        loop.run_for(args.seconds)
        metrics = end_to_end(loop, setup_s, args.workload == "cli_cubes")

    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    digests = {d for l in loops for d in l.digests}
    samples = [t for ts in loop.latency for t in ts]
    n = len(samples)
    tail = tail_percentile(n)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "commit": git_commit(),
        "input_digest": input_digest,
        "output_digest": loop.digests[0],
        "outputs_identical": len(digests) == 1,
        "input_sizes": input_sizes(instances),
        "rounds": len(loop.round_wall),
        "samples": n,
        "failed_share": failed / attempted,
        "latency_p50_all_ms": statistics.median(samples) * 1e3,
        "latency_p90_ms": percentile(samples, 90) * 1e3 if n >= 100 else None,
        "latency_tail": None if tail is None else
        {"percentile": tail, "ms": percentile(samples, tail) * 1e3},
        "instances_per_s_wall": n / sum(loop.round_wall),
        "instances_per_s_raw": len(objs) / sum(
            statistics.median(ts) for ts in loop.latency),
        "round_slowness": loop.round_slowness,
        "setup_phases_s": phases,
        "setup_s_reps": [s[3] for s in setups],
        "setup_slowness": [s[4]["slowness"] for s in setups],
    }
    if args.trace:
        record["traced_rounds"] = len(loops[1].round_wall)
        record["traced_output_digest"] = loops[1].digests[0]
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / ("%s-%d-trace%d.json" % (
        args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("workload %s seed %d: %d instances per round, %d rounds, "
          "%d samples" % (args.workload, args.seed, len(objs),
                          record["rounds"], n))
    print("input_digest  %s" % input_digest)
    print("output_digest %s" % loop.digests[0])
    if args.trace:
        print("traced_output_digest %s" % loops[1].digests[0])
    if n < 100:
        print("latency_p90_ms omitted: %d samples, fewer than 100" % n)
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
