#!/usr/bin/env python3
"""doc2table benchmark: one workload per call, the CLI in a fresh process per run.

    python3 perfbench/run.py --workload replay_corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

A call builds the workload's inputs from ``--seed``, then runs the public
CLI entry point ``doc2table.cli.main`` in fresh processes until
``--seconds`` have passed, checking every run's outputs against
independent references. With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json, medians over the runs. With ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones, plus the tracing overhead. The last line printed is one
JSON object; the exit code is non-zero when a correctness check failed.
See perfbench/README.md for the metrics and what each layer moves.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import workloads  # noqa: E402 - needs the paths above
from check import check, digest  # noqa: E402
from stub import StubProvider  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
LATENCY_S = {"chat": 0.040, "rewrite": 0.003}
NOT_APPLICABLE = 1.0  # see README: metrics a workload's command does not produce
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def child_env() -> dict[str, str]:
    """The caller's environment without proxies or endpoint overrides, so
    loopback requests stay on this host and the config file decides."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.lower().endswith("_proxy") and not key.startswith("DOC2TABLE_")
    }
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Runs the CLI in child processes inside one work directory."""

    def __init__(self, work: Path, item_ids: dict[str, str]):
        self.work = work
        self.item_ids = item_ids
        self.count = 0

    def run(self, argv: list[str], trace: bool) -> dict:
        self.count += 1
        tag = f"run{self.count:03d}"
        spec = {
            "argv": argv,
            "trace": trace,
            "item_ids": self.item_ids,
            "result": str(self.work / f"{tag}.json"),
            "spans": str(self.work / f"{tag}.spans.jsonl"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log_path = self.work / f"{tag}.log"
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"benchmark child exited {proc.returncode}:\n{tail}")
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        result["spans_path"] = spec["spans"]
        return result


def _prepare(work, runner: Runner, wdir: Path, stub: StubProvider | None):
    """Write inputs; return (argv for an output dir, exit code each run must give)."""
    work.write_inputs(wdir)
    if work.name == "eval_large_tables":
        argv = ["evaluate", "--generated", str(wdir / "generated.jsonl"),
                "--groundtruth", str(wdir / "groundtruth.jsonl")]
        return argv, 0
    if work.name == "annotate_corpus":
        return ["annotate", "--docs", str(wdir / "docs.jsonl"), "--tables", str(wdir / "tables.jsonl")], 0
    config = wdir / "config.json"
    expected_code = 1 if any(q.role == "fail" for q in work.questions) else 0
    if work.name == "live_latency":
        work.write_config(config, {"mode": "live", "endpoint": stub.endpoint("chat")},
                          {"mode": "live", "endpoint": stub.endpoint("rewrite")})
    else:
        # Record the chat transcript from the scripted model through the
        # program's own record mode, then replay it in every measured run.
        work.write_rewrite_transcript(wdir / "rewrite.jsonl")
        replay_rewriter = {"mode": "replay", "transcript": "rewrite.jsonl"}
        work.write_config(config, {"mode": "record", "transcript": "chat.jsonl",
                                   "endpoint": stub.endpoint("chat")}, replay_rewriter)
        recorded = runner.run(["pipeline", "--config", str(config), "--out", str(wdir / "record")], False)
        if recorded["code"] != expected_code:
            raise RuntimeError(f"recording run exited {recorded['code']}")
        shutil.rmtree(wdir / "record")
        work.write_config(config, {"mode": "replay", "transcript": "chat.jsonl"}, replay_rewriter)
    return ["pipeline", "--config", str(config)], expected_code


def end_to_end(work, runs: list[dict], outcome: dict) -> dict[str, float]:
    """Medians of the timed metrics over the runs; the rest from the checked first run.

    Which metrics apply follows from the command alone: provider counts and
    recall@10 from ``pipeline``, TEDS and content F1 from ``pipeline`` and
    ``evaluate``. The others read NOT_APPLICABLE.
    """
    items = work.items
    counts = runs[0]["counts"]
    pipeline = isinstance(work, workloads.PipelineWorkload)
    scored = pipeline or isinstance(work, workloads.EvalWorkload)
    scores = outcome["scores"]
    calls = counts.get("chat_calls", 0) + counts.get("rewrite_calls", 0) + counts.get("embed_calls", 0)
    return {
        "items_per_s": statistics.median([items / r["wall_s"] for r in runs]),
        "setup_s": statistics.median([r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "failed_ratio": outcome["failed"] / items,
        "provider_calls_per_item": calls / items if pipeline else NOT_APPLICABLE,
        "chat_kchars_per_item": counts.get("chat_chars", 0) / 1000 / items if pipeline else NOT_APPLICABLE,
        "output_kb_per_item": outcome["bytes"] / 1024 / items,
        "content_f1": scores["content_f1"] if scored else NOT_APPLICABLE,
        "teds": scores["teds"] if scored else NOT_APPLICABLE,
        "recall_at_10": scores["recall_at_10"] if pipeline else NOT_APPLICABLE,
    }


def per_layer(untraced: list[dict], traced: list[dict], items: int) -> dict[str, float]:
    names = traced[0]["layers"]
    metrics = {name: statistics.median([r["layers"][name] for r in traced]) for name in names}
    stub = [r.get("stub", {}) for r in traced]
    attempts = [sum(v for k, v in s.items() if k.endswith(".attempts")) for s in stub]
    successes = [sum(v for k, v in s.items() if k.endswith(".status_200")) for s in stub]
    metrics["providers.http_attempts"] = statistics.median(attempts)
    metrics["providers.http_success_ratio"] = statistics.median(
        [ok / n if n else 1.0 for ok, n in zip(successes, attempts)])
    plain = statistics.median([items / r["wall_s"] for r in untraced])
    metrics["tracing.overhead_ratio"] = 1.0 - statistics.median([items / r["wall_s"] for r in traced]) / plain
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes = workloads.FULL) -> dict:
    """Build the inputs, run the CLI until ``seconds`` have passed, check and summarize."""
    work = workloads.build(name, seed, sizes)
    wdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    runner = Runner(wdir, {q.text: q.item_id for q in getattr(work, "questions", [])})
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, wdir, ignore_errors=True)
        stub = None
        if isinstance(work, workloads.PipelineWorkload):
            stub = stack.enter_context(StubProvider(
                {"chat": work.chat_handler(), "rewrite": work.rewrite_handler()},
                latency_s=LATENCY_S if name == "live_latency" else None,
                fail_once=work.rewrite_fail_once,
            ))
        argv, expected_code = _prepare(work, runner, wdir, stub)
        untraced, traced, outcome, problems = _measure(
            work, runner, argv + ["--out", str(wdir / "out")], expected_code, stub, seconds, trace)
        if traced:
            shutil.copyfile(traced[-1]["spans_path"], WORK_ROOT / f"trace-{name}.jsonl")

    result = {"correct": not problems, "attempted": len(untraced) + len(traced),
              "failed": 1 if problems else 0, "problems": problems, "metrics": {}}
    if problems:
        return result
    if any(r["setup_s"] is None for r in untraced):
        raise RuntimeError("no run reached a first-item function; update probe.FIRST_ITEM")
    metrics = per_layer(untraced, traced, work.items) if trace else end_to_end(work, untraced, outcome)
    result["metrics"] = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    if traced:
        result["self_s"] = traced[-1]["self_s"]
    return result


def _measure(work, runner: Runner, argv: list[str], expected_code: int,
             stub: StubProvider | None, seconds: float, trace: bool):
    """Check the first run in full, then run until ``seconds`` have passed (at
    least MIN_RUNS runs, or MIN_RUNS pairs when tracing); every later run must
    write the same bytes. The first run counts, but the time of its check does not."""
    out = Path(argv[-1])
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    outcome: dict = {}
    start = time.perf_counter()
    while len(untraced) + len(traced) < (2 * MIN_RUNS if trace else MIN_RUNS) \
            or time.perf_counter() - start < seconds:
        traced_run = trace and len(untraced) > len(traced)
        if stub is not None:
            stub.reset()
        result = runner.run(argv, traced_run)
        if stub is not None:
            result["stub"] = stub.snapshot()
        if result["code"] != expected_code:
            problems.append(f"run exited {result['code']}, expected {expected_code}")
        if not outcome:
            found, failed, scores = check(work, out)
            problems += found
            if work.name == "live_latency":
                problems += _check_faults(work, result["stub"])
            outcome = {
                "digest": digest(out),
                "failed": failed,
                "scores": scores,
                "bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
            }
            start = time.perf_counter()
        elif digest(out) != outcome["digest"]:
            problems.append("a repeated run wrote different output bytes")
        shutil.rmtree(out)
        (traced if traced_run else untraced).append(result)
        if problems:
            break
    return untraced, traced, outcome, problems


def _check_faults(work, stub_counts: dict[str, int]) -> list[str]:
    """The only non-2xx replies are the injected first-attempt 503s."""
    injected = len(work.rewrite_fail_once)
    errors = {k: v for k, v in stub_counts.items() if ".status_" in k and not k.endswith("_200")}
    if errors != ({"rewrite.status_503": injected} if injected else {}):
        return [f"stub served unexpected errors {errors}; {injected} 503s were injected"]
    return []


def report(name: str, result: dict) -> None:
    """Human-readable lines; the JSON line comes last."""
    print(f"== {name}: correct={result['correct']} runs={result['attempted']}")
    for problem in result.get("problems", []):
        print(f"   problem: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:34s} {entry['value']:14.6f} {entry['unit']}")
    if "self_s" in result:
        by_module: Counter = Counter()
        for span, seconds in result["self_s"].items():
            by_module[span.partition(".")[0]] += seconds
        for label, table in (("module", by_module), ("span", result["self_s"])):
            top = sorted(table.items(), key=lambda kv: -kv[1])[:6]
            print(f"   self time by {label} (last traced run): "
                  + ", ".join(f"{key} {seconds:.3f}s" for key, seconds in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    keys = ("correct", "attempted", "failed", "metrics")
    contract = {name: {k: r[k] for k in keys} for name, r in results.items()}
    print(json.dumps(contract if args.workload == "all" else contract[args.workload], sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
