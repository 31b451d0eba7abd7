"""Self-tests of the benchmark, each workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._prepare()

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanRecorder  # noqa: E402

SIM_WORKLOADS = ("rules_mesh", "native_mesh", "fault_campaign")


def tiny(name, trace=False, inject=None):
    return run.measure(name, seed=3, seconds=0, trace=trace, size="tiny",
                       inject=inject)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = tiny(name, trace)
    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], record["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    units = layers.UNITS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for name_, value in line["metrics"].items():
        assert isinstance(value["value"], (int, float)), name_
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    json.dumps(line)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_span_self_times_are_consistent(name):
    wl = workloads.make_workload(name, 3, "tiny")
    wl.warm()
    rec = SpanRecorder()
    layers.install(rec)
    start = time.perf_counter()
    try:
        wl.run_batch()
    finally:
        rec.uninstall()
    wall_s = time.perf_counter() - start
    assert len(rec) > 0
    assert layers.self_time_violations(rec, wall_s) == []
    # uninstalling restores every wrapped entry point
    assert not hasattr(workloads.RuleEngine.call, "__wrapped__")


def test_self_time_check_catches_overlap():
    rec = SpanRecorder()
    for start, end, parent in ((0.0, 1.0, -1), (0.0, 2.0, 0)):
        rec.name.append(rec._name_id("x"))
        rec.parent.append(parent)
        rec.run.append(0)
        rec.start.append(start)
        rec.end.append(end)
    assert layers.self_time_violations(rec, 10.0)
    assert layers.self_time_violations(rec, 0.5)


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_undelivered_message_is_a_failed_operation(name):
    record = tiny(name, inject="undelivered")
    assert record["failed"] >= 1


@pytest.mark.parametrize("name", ("rules_mesh", "native_mesh"))
def test_digest_mismatch_fails_every_operation(name):
    record = tiny(name, inject="digest")
    assert not record["correct"]
    assert record["failed"] == record["attempted"]


def test_table_disagreement_is_a_failed_operation():
    record = tiny("rule_compile", inject="digest")
    assert not record["correct"] and record["failed"] == 1


@pytest.mark.parametrize("env", ["REPRO_BATCHED_NO_TABLE",
                                 "REPRO_BATCHED_NO_CC"])
def test_engine_fallback_fails_loudly(monkeypatch, env):
    monkeypatch.setenv(env, "1")
    with pytest.raises(workloads.EngineFallback):
        tiny("native_mesh")


def test_missing_program_exits_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "native_mesh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _records(path, workload, values, sim):
    with open(path, "w", encoding="utf-8") as fh:
        for seed, wall in enumerate(values):
            fh.write(json.dumps({
                "workload": workload, "seed": seed, "trace": 0,
                "correct": True, "problems": [], "attempted": 10,
                "failed": 0, "sim": sim,
                "metrics": {"setup_s": 1.0, "wall_s": wall,
                            "work_per_s": 100.0, "peak_rss_mb": 50.0},
            }) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    bound = {m["name"]: m for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}["wall_s"]
    b = bound["bound"]
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, base, b, "lower") == "agree"
    assert compare.verdict(base, [v * (1 + 2 * b) for v in base], b,
                           "lower") == "worse"
    noisy = [5.0, 10.0, 20.0, 10.0, 15.0]
    assert compare.verdict(base, noisy, b, "lower") == "unresolved"
    assert compare.verdict(noisy, [v / 10 for v in noisy], b,
                           "lower") == "better"

    _records(tmp_path / "a.jsonl", "native_mesh", base, {"x": 1.0})
    _records(tmp_path / "b.jsonl", "native_mesh", base, {"x": 1.0})
    _records(tmp_path / "c.jsonl", "native_mesh", base, {"x": 2.0})
    assert compare.main(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == 0
    assert compare.main(tmp_path / "a.jsonl", tmp_path / "c.jsonl") == 1
    assert "changed on seeds" in capsys.readouterr().out
