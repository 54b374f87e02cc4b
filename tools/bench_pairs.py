#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --pr N \\
        --workloads stationary_sh descent --seeds 43 77 --pairs 10

PARENT and CHANGE are checkouts of the repository (each with its own
``perfbench/`` and ``src/``).  For every workload and seed the script runs
``perfbench/run.py --trace 0`` of each checkout ``--pairs`` times for
``BENCHMARK.json``'s ``run_seconds``, the parent first in even pairs and
the change first in odd ones, then ``--trace 1`` ``TRACED_RUNS`` times on
each side, alternating the same way, for the per-layer metrics.  It
writes ``BENCH_<pr>.json`` in the current directory, recording each
checkout's commit (as the benchmark reads it, ``null`` outside a git
checkout) and the sha256 of its ``src/novcube`` files, and holding per
workload and seed:

- the input and output digests of both sides, and whether they agree;
- the instances attempted and failed on each side;
- for each end-to-end metric of ``BENCHMARK.json``: both sides' runs,
  medians and quartiles, the pairs the change wins (ties count for
  neither side), the ratio of the medians, whether the medians differ by
  more than the distance between the parent's quartiles, and whether the
  change's median is worse than the parent's by more than the metric's
  bound;
- under ``throughput``, each side's spread of the run records'
  ``instances_per_s_raw`` and ``instances_per_s_wall`` and of each run's
  median ``round_slowness``: ``instances_per_s`` divides each round's
  instance times by the reference kernel's slowness in that round, and
  these tell a change in that divisor from a change in the code's own
  time;
- ``divisor_shift``: whether the median of ``instances_per_s`` moves
  against the medians of both ``instances_per_s_raw`` and
  ``instances_per_s_wall``, so that what it reads as a cost or a gain is
  a change of the divisor, not of the code's own time;
- under ``traced``, each per-layer metric's median over each side's
  traced runs, and under ``traced_runs`` every reading, in run order.

Runs are sequential: two runs at once would time each other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# traced runs per side; a layer's time is compared by its median over
# them, since one traced reading moves with run-to-run noise
TRACED_RUNS = 3


# what each untraced run record holds besides the end-to-end metrics
THROUGHPUT = {
    "instances_per_s_raw": lambda r: r["instances_per_s_raw"],
    "instances_per_s_wall": lambda r: r["instances_per_s_wall"],
    "round_slowness_median": lambda r: statistics.median(r["round_slowness"]),
}


def in_turn(i: int):
    """The sides in the order run i takes them: the parent first in even
    runs, the change first in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def parse_output(stdout: str) -> dict:
    """The run record and the closing result line of one run's output."""
    lines = stdout.strip().splitlines()
    records = [l[len("record "):] for l in lines if l.startswith("record ")]
    if not lines or not records:
        raise ValueError("no run record in the benchmark's output")
    return {"record": json.loads(records[-1]),
            "result": json.loads(lines[-1])}


def source_hash(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of ``src/novcube``'s files,
    in sorted order, so a record names the code it measured."""
    src = checkout / "src" / "novcube"
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One run of ``perfbench/run.py`` in ``checkout``, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
        timeout=60 * seconds + 600)
    try:
        return parse_output(proc.stdout)
    except ValueError:
        raise RuntimeError("%s: %s seed %d exited %d:\n%s" % (
            checkout, workload, seed, proc.returncode, proc.stderr))


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of a list of runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": list(values)}


def compare_metric(parent, change, better: str, bound: float) -> dict:
    """Pairwise comparison of one metric; ``parent[i]`` and ``change[i]``
    come from pair i."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    old, new = spread(parent), spread(change)
    gap = sign * (new["median"] - old["median"])
    limit = old["median"] * (1 - sign * bound)
    return {
        "parent": old, "change": new,
        "wins": wins, "pairs": len(parent),
        "ratio": new["median"] / old["median"] if old["median"] else None,
        "gain_beyond_parent_iqr": gap > old["q3"] - old["q1"],
        "worse_than_bound": sign * (new["median"] - limit) < 0,
    }


def _moved(sides) -> int:
    """+1, -1 or 0 as the change's median is above, below or at the
    parent's."""
    old, new = sides["parent"]["median"], sides["change"]["median"]
    return (new > old) - (new < old)


def compare(pairs, end_to_end, *traced) -> dict:
    """The entry of one workload and seed: ``pairs`` is a list of
    ``{"parent": run, "change": run}`` of parsed untraced runs,
    ``end_to_end`` the metric list of ``BENCHMARK.json``, and each of
    ``traced`` such a pair of parsed traced runs."""
    entry = {}
    for key in ("input_digest", "output_digest"):
        seen = {side: sorted({p[side]["record"][key] for p in pairs})
                for side in SIDES}
        entry[key] = {side: v[0] if len(v) == 1 else v
                      for side, v in seen.items()}
        entry[key]["equal"] = seen["parent"] == seen["change"] and \
            len(seen["parent"]) == 1
    for key in ("attempted", "failed"):
        entry[key] = {side: sum(p[side]["result"][key] for p in pairs)
                      for side in SIDES}
    records = {side: [p[side]["record"] for p in pairs] for side in SIDES}
    entry["throughput"] = {name: {
        side: spread([read(r) for r in records[side]]) for side in SIDES}
        for name, read in THROUGHPUT.items()}
    entry["metrics"] = {}
    for m in end_to_end:
        values = {side: [p[side]["result"]["metrics"][m["name"]]["value"]
                         for p in pairs] for side in SIDES}
        entry["metrics"][m["name"]] = dict(
            unit=m["unit"], better=m["better"], bound=m["bound"],
            **compare_metric(values["parent"], values["change"],
                             m["better"], m["bound"]))
    if "instances_per_s" in entry["metrics"]:
        rate = _moved(entry["metrics"]["instances_per_s"])
        entry["divisor_shift"] = rate != 0 and all(
            _moved(entry["throughput"][name]) == -rate
            for name in ("instances_per_s_raw", "instances_per_s_wall"))
    if traced:
        entry["traced_runs"] = {side: {
            name: [t[side]["result"]["metrics"][name]["value"]
                   for t in traced]
            for name in traced[0][side]["result"]["metrics"]}
            for side in SIDES}
        entry["traced"] = {side: {name: statistics.median(values)
                                  for name, values in runs.items()}
                           for side, runs in entry["traced_runs"].items()}
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"pr": args.pr, "seconds": seconds, "pairs": args.pairs,
           "host": {"python": platform.python_version(),
                    "cpu_count": os.cpu_count(),
                    "platform": platform.platform()},
           "runs": {}}
    for workload in args.workloads:
        for seed in args.seeds:
            pairs = []
            for i in range(args.pairs):
                pair = {side: run_once(checkouts[side], workload, seed,
                                       seconds, 0) for side in in_turn(i)}
                pairs.append(pair)
                print("%s seed %d pair %d: %s" % (
                    workload, seed, i, ", ".join(
                        "%s %.4g" % (side, pair[side]["result"]["metrics"]
                                     ["instances_per_s"]["value"])
                        for side in SIDES)), file=sys.stderr)
            traced = [{side: run_once(checkouts[side], workload, seed,
                                      seconds, 1) for side in in_turn(i)}
                      for i in range(TRACED_RUNS)]
            for side in SIDES:
                out.setdefault(side, {
                    "checkout": checkouts[side].name,
                    "commit": pairs[0][side]["record"]["commit"],
                    "src_sha256": source_hash(checkouts[side])})
            out["runs"]["%s/%d" % (workload, seed)] = compare(
                pairs, bench["end_to_end"], *traced)
    path = Path("BENCH_%s.json" % args.pr)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
