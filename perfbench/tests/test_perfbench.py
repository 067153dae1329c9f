"""Tests of the benchmark itself: seeded generators, output checks, the
tracer, and the command's output format. Inputs are shrunk to keep them
fast; the sizes the benchmark uses are the generators' defaults."""

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import checks
import inputs
import reference
import run
import tracing
from historiographer.attack import AttackConfig
from historiographer.harness import ingest_query_log_counted, recall_curve, run_batch
from historiographer.history import load_histories
from historiographer.planner import build_plan, bundled_wordlist

SMALL = {
    "eval-synth": {"users": 6, "entries": (30, 60)},
    "curve-aol": {"users": 20},
    "audit-trace": {"records": 600},
}


@pytest.fixture(scope="module")
def plan():
    return build_plan(bundled_wordlist(), mass_fraction=run.PLAN_MASS)


def generate(workload, seed, work):
    name, writer = inputs.WRITERS[workload]
    work.mkdir(parents=True, exist_ok=True)
    return writer(work / name, seed, **SMALL[workload])


def run_workload(workload, seed, work, plan, repeats=2):
    meta = generate(workload, seed, work)
    bench = run.CLASSES[workload](work, meta, plan)
    made = 0
    for _ in range(repeats):
        m, failures = bench.check(bench.run())
        assert failures == []
        made += m
    return bench, meta, made


@pytest.mark.parametrize("workload", sorted(inputs.WRITERS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    name = inputs.WRITERS[workload][0]
    first = generate(workload, 7, tmp_path / "a")
    again = generate(workload, 7, tmp_path / "b")
    other = generate(workload, 8, tmp_path / "c")
    for meta in (first, again, other):
        meta.pop("brute_force_s_per_user", None)  # a timing, not an input
    assert first == again
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    assert first != other


def test_aol_writer_knows_its_malformed_rows(tmp_path):
    meta = generate("curve-aol", 3, tmp_path)
    assert meta["malformed_rows"] > 0
    histories, skipped = ingest_query_log_counted(tmp_path / "queries.tsv")
    assert skipped == meta["malformed_rows"]
    assert len(histories) == meta["users"]


def test_eval_check_catches_a_false_positive(tmp_path, plan):
    bench, meta, made = run_workload("eval-synth", 5, tmp_path, plan)
    assert made > 2 * len(meta["users"])
    report = json.loads(bench.output.read_text())
    user = report["per_user"][0]
    user["n_s"] = meta["users"][user["user_id"]]["recoverable"] + 1
    _, failures = checks.check_eval(report, meta["users"])
    assert len(failures) == 1 and "brute-force" in failures[0]


def test_eval_check_catches_a_wrong_clicked_count(tmp_path, plan):
    bench, meta, _ = run_workload("eval-synth", 5, tmp_path, plan, repeats=1)
    report = json.loads(bench.output.read_text())
    report["per_user"][-1]["n_c"] += 1
    _, failures = checks.check_eval(report, meta["users"])
    assert any("ground truth" in f for f in failures)


def test_eval_recall_equals_run_batch(tmp_path, plan):
    bench, _, _ = run_workload("eval-synth", 6, tmp_path, plan, repeats=1)
    direct = run_batch(load_histories(bench.input), AttackConfig(plan=plan))
    assert bench.report["mean_recall"] == direct.mean_recall
    assert bench.report["mean_requests"] == direct.mean_requests


def test_curve_check_catches_a_wrong_skipped_count(tmp_path, plan):
    bench, meta, _ = run_workload("curve-aol", 4, tmp_path, plan)
    histories, skipped = ingest_query_log_counted(bench.input)
    assert checks.check_curve(bench.points, run.BUDGETS, skipped, meta)[1] == []
    _, failures = checks.check_curve(bench.points, run.BUDGETS, skipped + 1, meta)
    assert len(failures) == 1 and "malformed" in failures[0]


def test_curve_equals_recall_curve(tmp_path, plan):
    bench, _, _ = run_workload("curve-aol", 9, tmp_path, plan, repeats=1)
    histories, _ = ingest_query_log_counted(bench.input)
    direct = recall_curve(histories, AttackConfig(plan=plan), budgets=run.BUDGETS)
    assert bench.points == direct


def test_curve_check_catches_falling_recall():
    points = [
        {"budget": 110, "mean_recall": 0.5, "mean_requests": 110.0},
        {"budget": 440, "mean_recall": 0.4, "mean_requests": 300.0},
    ]
    _, failures = checks.check_curve(points, (110, 440), 0, {"malformed_rows": 0})
    assert len(failures) == 1 and "fell" in failures[0]


def test_audit_check_catches_leaks(tmp_path, plan):
    bench, meta, _ = run_workload("audit-trace", 2, tmp_path, plan)
    assert meta["http_sids"] and meta["redacted_records"]
    output = json.loads(bench.output.read_text())
    output["accounts"][0]["services_accessible"].append("Gmail")
    output["accounts"].pop()
    _, failures = checks.check_audit(output, meta, bench.catalog)
    assert any("HTTPS-mandatory" in f for f in failures)
    assert any("missing" in f for f in failures)


def test_fixture_check():
    assert checks.check_fixture(0.655)[1] == []
    assert checks.check_fixture(0.62)[1] != []


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert [s[tracing.NAME] for s in tracer.spans] == ["outer", "inner", "inner", "inner"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]
    spans = tracer.spans
    children = sum(s[tracing.END] - s[tracing.START] for s in spans[1:])
    assert spans[0][tracing.END] - spans[0][tracing.START] > children


def test_traced_curve_counts_layers(tmp_path, plan):
    meta = generate("curve-aol", 4, tmp_path)
    bench = run.CLASSES["curve-aol"](tmp_path, meta, plan)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, result = run.timed(bench)
    assert tracing.harness.reconstruct is tracing.attack.reconstruct
    assert bench.check(result)[1] == []
    layers = tracing.layer_metrics(tracer.spans, 1.0, meta)
    assert layers["harness.recall_curve.reconstruct_calls"] == meta["users"] * len(run.BUDGETS)
    assert layers["harness.ingest.skipped_rows"] == meta["malformed_rows"]
    assert layers["harness.ingest.rows"] == meta["rows"]
    assert layers["oracle.suggest.calls"] == layers["attack.requests"] > 0
    assert layers["history.insert_search.calls"] == meta["rows"] - meta["malformed_rows"]
    assert 0 < layers["attack.budget_hit_ratio"] <= 1


def test_reference_samples_during_the_call_and_restores_the_handler():
    ref = reference.Reference()
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    busy, ref_s, result = ref.timed(lambda: time.sleep(0.5) or 7)
    wall = time.perf_counter() - start
    assert result == 7
    assert len(ref.samples) >= 3
    assert ref_s == sum(ref.samples) / len(ref.samples)
    assert 0.45 < busy < wall
    assert signal.getsignal(signal.SIGALRM) is before


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_listed_metric(trace):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "audit-trace",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(done.stdout)
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in listed} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-synth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
