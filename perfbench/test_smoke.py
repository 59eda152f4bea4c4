"""Smoke test of the benchmark at tiny sizes: ``python3 -m pytest -q perfbench``."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402 - puts src/, tests/ and scripts/ on the path
import workloads  # noqa: E402
from check import check, reference_content_f1  # noqa: E402
from stub import StubProvider  # noqa: E402

END_TO_END = {m["name"] for m in run.BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in run.BENCHMARK["per_layer"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_call_is_correct_and_reports_every_end_to_end_metric(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False, sizes=workloads.TINY)
    assert result["correct"], result.get("problems")
    assert result["attempted"] == run.MIN_RUNS and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_call_reports_every_per_layer_metric():
    result = run.run_workload("live_latency", seed=3, seconds=0, trace=True, sizes=workloads.TINY)
    assert result["correct"], result.get("problems")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["providers.chat_calls"] > 0 and metrics["providers.chat_wait_s"] > 0
    assert metrics["generation.stage_failures"] == 1
    assert metrics["providers.http_attempts"] > metrics["providers.rewrite_calls"]
    assert 0 < metrics["providers.http_success_ratio"] < 1


def test_same_seed_gives_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        first, second = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        for seed, target in ((5, first), (5, second)):
            target.mkdir()
            workloads.build(name, seed, workloads.TINY).write_inputs(target)
        assert [p.read_bytes() for p in sorted(first.iterdir())] == \
               [p.read_bytes() for p in sorted(second.iterdir())]


def test_gate_rejects_scores_that_disagree_with_the_reference(tmp_path):
    work = workloads.build("eval_large_tables", 3, workloads.TINY)
    scored = [p for p in work.pairs if p.generated is not None]
    rows = [{"id": p.item_id, "teds": 1.0, "content_f1": 1.0} for p in scored]
    (tmp_path / "evaluation.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems, failed, _ = check(work, tmp_path)
    assert failed == 1
    assert any("differs from the reference" in p for p in problems)


def test_gate_rejects_an_aggregate_that_is_not_the_mean_of_the_rows(tmp_path):
    work = workloads.build("eval_large_tables", 3, workloads.TINY)
    rows = [
        {"id": p.item_id, "teds": 1.0 if p.kind == "altered" else 0.5,
         "content_f1": reference_content_f1(p.generated, p.truth)}
        for p in work.pairs if p.generated is not None
    ]
    (tmp_path / "evaluation.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    means = {key: sum(r[key] for r in rows) / len(rows) for key in ("teds", "content_f1")}
    summary = tmp_path / "evaluation.json"
    summary.write_text(json.dumps({"n_items": len(rows), **means}))
    problems, _, scores = check(work, tmp_path)
    assert problems == [] and scores == means
    summary.write_text(json.dumps({"n_items": len(rows), "content_f1": means["content_f1"]}))
    problems, _, _ = check(work, tmp_path)
    assert any("does not aggregate" in p for p in problems)


def test_gate_rejects_a_pipeline_run_without_recall_file(tmp_path):
    work = workloads.build("live_latency", 3, workloads.TINY)
    runner = run.Runner(tmp_path, {q.text: q.item_id for q in work.questions})
    handlers = {"chat": work.chat_handler(), "rewrite": work.rewrite_handler()}
    with StubProvider(handlers, fail_once=work.rewrite_fail_once) as stub:
        argv, _ = run._prepare(work, runner, tmp_path, stub)
        runner.run(argv + ["--out", str(tmp_path / "out")], trace=False)
    assert check(work, tmp_path / "out")[0] == []
    (tmp_path / "out" / "recall.json").unlink()
    assert "recall.json is missing" in check(work, tmp_path / "out")[0]
