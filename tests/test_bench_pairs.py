"""The pair comparison of ``tools/bench_pairs.py`` on canned run records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "instances_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
]


def run(rate, latency, output="out", failed=0, raw=2.0, wall=1.0,
        slowness=(0.5,)):
    """The parsed output of one untraced run."""
    return {"record": {"input_digest": "in", "output_digest": output,
                       "commit": None, "instances_per_s_raw": raw,
                       "instances_per_s_wall": wall,
                       "round_slowness": list(slowness)},
            "result": {"attempted": 10, "failed": failed, "metrics": {
                "instances_per_s": {"value": rate, "unit": "1/s"},
                "latency_p50_ms": {"value": latency, "unit": "ms"}}}}


def output_of(rate, latency):
    """What ``perfbench/run.py`` prints, in brief."""
    parsed = run(rate, latency)
    return "\n".join(["workload x seed 1: 10 instances per round",
                      "record " + json.dumps(parsed["record"]),
                      "instances_per_s 1 1/s",
                      json.dumps(parsed["result"])]) + "\n"


def test_parse_output_reads_the_record_and_the_result():
    assert bench_pairs.parse_output(output_of(3.0, 2.0)) == run(3.0, 2.0)
    with pytest.raises(ValueError):
        bench_pairs.parse_output("Traceback (most recent call last):\n")


def test_spread_gives_median_and_inclusive_quartiles():
    assert bench_pairs.spread([5.0]) == {"median": 5.0, "q1": 5.0,
                                         "q3": 5.0, "runs": [5.0]}
    s = bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 2.0, 4.0)


def test_compare_counts_wins_in_the_metric_direction():
    parent = [100.0 + i for i in range(10)]
    change = [120.0 + i for i in range(10)]
    change[3] = parent[3]          # a tie counts for neither side
    change[7] = parent[7] - 1.0    # a loss
    pairs = [{"parent": run(p, 1000.0 / p), "change": run(c, 1000.0 / c)}
             for p, c in zip(parent, change)]
    entry = bench_pairs.compare(pairs, END_TO_END)
    rate = entry["metrics"]["instances_per_s"]
    assert rate["wins"] == 8 and rate["pairs"] == 10
    assert rate["parent"]["median"] == 104.5
    assert rate["parent"]["q1"] == 102.25 and rate["parent"]["q3"] == 106.75
    assert rate["gain_beyond_parent_iqr"]
    assert not rate["worse_than_bound"]
    assert rate["ratio"] == rate["change"]["median"] / 104.5
    latency = entry["metrics"]["latency_p50_ms"]
    assert latency["better"] == "lower" and latency["wins"] == 8
    assert latency["gain_beyond_parent_iqr"]
    assert entry["output_digest"] == {"parent": "out", "change": "out",
                                      "equal": True}
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["attempted"] == {"parent": 100, "change": 100}


def test_compare_flags_regressions_and_differing_outputs():
    pairs = [{"parent": run(100.0, 10.0),
              "change": run(70.0, 12.0, output="other" if i else "out",
                            failed=1)}
             for i in range(4)]
    entry = bench_pairs.compare(pairs, END_TO_END)
    rate = entry["metrics"]["instances_per_s"]
    assert rate["wins"] == 0 and rate["worse_than_bound"]
    assert not rate["gain_beyond_parent_iqr"]
    # 12 ms against 10 ms is within the bound of 25 %
    assert not entry["metrics"]["latency_p50_ms"]["worse_than_bound"]
    assert entry["output_digest"]["change"] == ["other", "out"]
    assert not entry["output_digest"]["equal"]
    assert entry["failed"] == {"parent": 0, "change": 4}


def test_compare_keeps_raw_and_wall_throughput_and_the_slowness():
    """Both sides' raw and wall rates and each run's median round
    slowness, as spreads over the pairs, beside the end-to-end metrics."""
    pairs = [{"parent": run(100.0, 10.0, raw=200.0 + i, wall=90.0 - i,
                            slowness=(0.6, 0.5 + i / 10, 0.7)),
              "change": run(97.0, 10.0, raw=210.0 + i, wall=95.0,
                            slowness=(0.4,))}
             for i in range(3)]
    got = bench_pairs.compare(pairs, END_TO_END)["throughput"]
    assert got["instances_per_s_raw"]["parent"]["runs"] == [200.0, 201.0,
                                                            202.0]
    assert got["instances_per_s_raw"]["change"]["median"] == 211.0
    assert got["instances_per_s_wall"]["parent"]["runs"] == [90.0, 89.0,
                                                             88.0]
    assert got["instances_per_s_wall"]["change"] == bench_pairs.spread(
        [95.0] * 3)
    assert got["round_slowness_median"]["parent"]["runs"] == [0.6, 0.6, 0.7]
    assert got["round_slowness_median"]["change"]["median"] == 0.4


def test_compare_keeps_the_traced_metrics_of_each_side():
    pairs = [{"parent": run(1.0, 1.0), "change": run(2.0, 0.5)}]
    traced = {side: {"result": {"metrics": {
        "novikov.mul_calls": {"value": v, "unit": "count"}}}}
        for side, v in (("parent", 45523.0), ("change", 0.0))}
    entry = bench_pairs.compare(pairs, END_TO_END, traced)
    assert entry["traced"] == {"parent": {"novikov.mul_calls": 45523.0},
                               "change": {"novikov.mul_calls": 0.0}}


def traced_run(value):
    """The parsed output of one traced run, with one per-layer metric."""
    return {"result": {"metrics": {
        "chain.barcode.self_s": {"value": value, "unit": "s"}}}}


def test_compare_keeps_the_median_and_every_traced_reading():
    pairs = [{"parent": run(1.0, 1.0), "change": run(2.0, 0.5)}]
    readings = {"parent": [0.30, 0.10, 0.20], "change": [5.0, 1.0, 3.0]}
    traced = [{side: traced_run(readings[side][i]) for side in readings}
              for i in range(3)]
    entry = bench_pairs.compare(pairs, END_TO_END, *traced)
    assert entry["traced"] == {"parent": {"chain.barcode.self_s": 0.20},
                               "change": {"chain.barcode.self_s": 3.0}}
    assert entry["traced_runs"] == {
        side: {"chain.barcode.self_s": values}
        for side, values in readings.items()}
    assert "traced" not in bench_pairs.compare(pairs, END_TO_END)


def test_main_alternates_the_sides_in_pairs_and_traced_runs(
        tmp_path, monkeypatch):
    for side in bench_pairs.SIDES:
        (tmp_path / side / "src" / "novcube").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": END_TO_END}))
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, trace))
        return run(1.0, 1.0) if trace == 0 else traced_run(len(calls))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([
        str(tmp_path / "parent"), str(tmp_path / "change"), "--pr", "x",
        "--workloads", "w", "--seeds", "1", "--pairs", "2"]) == 0
    assert calls == [("parent", 0), ("change", 0), ("change", 0),
                     ("parent", 0), ("parent", 1), ("change", 1),
                     ("change", 1), ("parent", 1), ("parent", 1),
                     ("change", 1)]
    entry = json.loads((tmp_path / "BENCH_x.json").read_text())["runs"]["w/1"]
    assert entry["traced_runs"] == {
        "parent": {"chain.barcode.self_s": [5, 8, 9]},
        "change": {"chain.barcode.self_s": [6, 7, 10]}}
    assert entry["traced"] == {"parent": {"chain.barcode.self_s": 8},
                               "change": {"chain.barcode.self_s": 7}}


def test_source_hash_names_the_code_and_skips_bytecode(tmp_path):
    src = tmp_path / "src" / "novcube"
    (src / "__pycache__").mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    first = bench_pairs.source_hash(tmp_path)
    (src / "__pycache__" / "a.cpython.pyc").write_bytes(b"\0")
    assert bench_pairs.source_hash(tmp_path) == first
    (src / "a.py").write_text("x = 2\n")
    assert bench_pairs.source_hash(tmp_path) != first


@pytest.mark.parametrize("rates,raw,wall,shift", [
    # BENCH_19's minmax_mv: normalized down, raw and wall up
    ((100.0, 97.6), (200.0, 201.7), (90.0, 92.0), True),
    ((100.0, 103.0), (200.0, 198.0), (90.0, 88.0), True),
    # normalized, raw and wall move together: the code's own time
    ((100.0, 150.0), (200.0, 300.0), (90.0, 135.0), False),
    # raw and wall disagree with each other
    ((100.0, 97.6), (200.0, 201.7), (90.0, 89.0), False),
    ((100.0, 97.6), (200.0, 201.7), (90.0, 90.0), False),
    # an unmoved median moves against nothing
    ((100.0, 100.0), (200.0, 201.7), (90.0, 92.0), False),
])
def test_compare_flags_a_divisor_shift(rates, raw, wall, shift):
    """``divisor_shift`` is set when the median of ``instances_per_s``
    moves against the medians of both the raw and the wall throughput."""
    pairs = [{side: run(rates[i], 10.0, raw=raw[i] + j, wall=wall[i] - j)
              for i, side in enumerate(bench_pairs.SIDES)}
             for j in range(3)]
    entry = bench_pairs.compare(pairs, END_TO_END)
    assert entry["divisor_shift"] is shift
    only_latency = [m for m in END_TO_END if m["name"] != "instances_per_s"]
    assert "divisor_shift" not in bench_pairs.compare(pairs, only_latency)
