from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from doc2table import annotate, cli, retrieval
from doc2table.cli import generate_stage, main, retrieve_stage, run_map
from doc2table.config import BuiltProviders, RunConfig
from doc2table.data import read_documents, read_retrieval_records, read_triples
from doc2table.data import write_jsonl
from doc2table.generation import build_oneshot_prompt
from doc2table.html_io import serialize_html
from doc2table.providers import (
    ChatProvider,
    HashingEmbedder,
    HttpProvider,
    ProviderError,
    RecordingProvider,
    ReplayProvider,
    Rewriter,
    ScriptedProvider,
    Transcript,
    request_fingerprint,
)

from conftest import FIXTURES, make_flat_table, stacked_header_html
from oracles import reference_match_cells

ANNOTATE = FIXTURES / "annotate"
CORPUS = FIXTURES / "corpus"
PIPELINE = FIXTURES / "pipeline"


def run(args) -> int:
    return main([str(a) for a in args])


def read_jsonl_rows(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_config(tmp_path, **values):
    """A run config file of ``values`` in tmp_path, against which its relative paths resolve."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return path


def write_pipeline_config(tmp_path, **overrides):
    """The pipeline fixture's config with absolute paths and ``overrides``, written to tmp_path."""
    config = json.loads((PIPELINE / "config.json").read_text())
    for key in ("docs", "questions"):
        config[key] = str(PIPELINE / config[key])
    for role in ("chat", "rewriter"):
        config[role]["transcript"] = str(PIPELINE / config[role]["transcript"])
    return write_config(tmp_path, **{**config, **overrides})


def write_corpus_config(tmp_path, **overrides):
    """The retrieval corpus: hashing embedder, replayed rewrites, and ``overrides``."""
    return write_config(
        tmp_path,
        questions=str(CORPUS / "triples.jsonl"),
        docs=str(CORPUS / "docs.jsonl"),
        rewriter={"mode": "replay", "transcript": str(CORPUS / "rewrite_transcript.jsonl")},
        **overrides,
    )


def no_thread_may_start(thread):
    raise AssertionError(f"thread {thread.name} started")


class LaterFirst:
    """Wraps ``fn`` so that later items answer first.

    The call for item 2j waits until the call for item 2j + 1 has returned;
    ``index_of`` names the item from the call's first argument. Through a
    map of two or more workers this cannot deadlock: the partner was taken
    from the queue before any later item.
    """

    def __init__(self, fn, index_of, count: int):
        self.fn, self.index_of = fn, index_of
        self.done = [threading.Event() for _ in range(count)]
        self.returned: list[int] = []  # item indexes in the order their calls returned

    def __call__(self, first, *args, **kwargs):
        n = self.index_of(first)
        if n % 2 == 0 and n + 1 < len(self.done):
            assert self.done[n + 1].wait(5), f"item {n + 1} never returned"
        try:
            return self.fn(first, *args, **kwargs)
        finally:
            self.returned.append(n)
            self.done[n].set()


def split_run(tmp_path, config) -> tuple:
    """``retrieve`` then ``generate`` from one config; returns their two output directories."""
    retrieval_out = tmp_path / "retrieval"
    assert run(["retrieve", "--config", config, "--out", retrieval_out]) == 0
    gen_out = tmp_path / "generated"
    retrieval = retrieval_out / "retrieval.jsonl"
    assert run(["generate", "--config", config, "--retrieval", retrieval, "--out", gen_out]) == 0
    return retrieval_out, gen_out


class TestEvaluate:
    def write_pair(self, tmp_path, gen_tables, gt_tables):
        gen = tmp_path / "generated.jsonl"
        gt = tmp_path / "groundtruth.jsonl"
        write_jsonl(
            gen,
            [{"id": i, "table_html": serialize_html(t)} for i, t in gen_tables.items()],
        )
        write_jsonl(
            gt,
            [
                {
                    "id": i,
                    "doc_id": "d",
                    "question": "q",
                    "table_html": serialize_html(t),
                    "relevant_sentence_ids": [0],
                }
                for i, t in gt_tables.items()
            ],
        )
        return gen, gt

    def test_identical_sets_score_one(self, tmp_path, capsys):
        table = make_flat_table(2, 3)
        gen, gt = self.write_pair(tmp_path, {"a": table}, {"a": table})
        out = tmp_path / "out"
        assert run(["evaluate", "--generated", gen, "--groundtruth", gt, "--out", out]) == 0
        aggregate = json.loads((out / "evaluation.json").read_text())
        assert aggregate["teds"] == 1.0
        assert aggregate["content_f1"] == 1.0
        printed = capsys.readouterr().out
        assert "TEDS" in printed and "mean" in printed

    def test_missing_groundtruth_is_input_error(self, tmp_path, capsys):
        table = make_flat_table(1, 1)
        gen, gt = self.write_pair(tmp_path, {"a": table, "b": table}, {"a": table})
        code = run(["evaluate", "--generated", gen, "--groundtruth", gt, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "input_format"
        assert (error["file"], error["line"], error["field"]) == (str(gen), 2, "id")
        assert "'b'" in error["message"]

    def test_malformed_generated_table_names_file_line_field(self, tmp_path, capsys):
        table = make_flat_table(1, 1)
        gen, gt = self.write_pair(tmp_path, {"a": table}, {"a": table})
        ragged = "<table><tr><th>s</th><th>c</th></tr><tr><th>r</th></tr></table>"
        with gen.open("a") as handle:
            handle.write(json.dumps({"id": "a", "table_html": ragged}) + "\n")
        code = run(["evaluate", "--generated", gen, "--groundtruth", gt, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(gen), 2, "table_html")
        assert "not rectangular" in error["message"]
        assert not (tmp_path / "o").exists()

    def test_too_deep_generated_header_names_file_line_field(self, tmp_path, capsys):
        table = make_flat_table(1, 1)
        gen, gt = self.write_pair(tmp_path, {"a": table}, {"a": table})
        with gen.open("a") as handle:
            handle.write(json.dumps({"id": "b", "table_html": stacked_header_html(1100)}) + "\n")
        code = run(["evaluate", "--generated", gen, "--groundtruth", gt, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(gen), 2, "table_html")
        assert error["message"].endswith("header has 1100 levels, more than the 100 supported")
        assert not (tmp_path / "o").exists()

    def test_empty_generated_file_writes_an_empty_aggregate(self, tmp_path, capsys):
        gen, gt = self.write_pair(tmp_path, {}, {"a": make_flat_table(1, 1)})
        out = tmp_path / "out"
        assert run(["evaluate", "--generated", gen, "--groundtruth", gt, "--out", out]) == 0
        assert (out / "evaluation.json").read_text() == "{}\n"
        assert (out / "evaluation.jsonl").read_text() == ""
        assert "mean" not in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        table = make_flat_table(2, 2)
        gen, gt = self.write_pair(tmp_path, {"a": table}, {"a": table})
        out = tmp_path / "out"
        run(["evaluate", "--generated", gen, "--groundtruth", gt, "--out", out])
        first = (out / "evaluation.jsonl").read_bytes()
        run(["evaluate", "--generated", gen, "--groundtruth", gt, "--out", out])
        assert (out / "evaluation.jsonl").read_bytes() == first


class TestMalformedInputs:
    def test_error_report_names_file_line_field(self, tmp_path, capsys):
        bad = tmp_path / "docs.jsonl"
        bad.write_text('{"doc_id": "d"}\n')
        tables = tmp_path / "tables.jsonl"
        write_jsonl(tables, [])
        code = run(["annotate", "--docs", bad, "--tables", tables, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["file"] == str(bad)
        assert error["line"] == 1
        assert error["field"] == "sentences"

    def test_unknown_doc_id_names_triples_line(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "d", "sentences": ["Revenue was 100."]}])
        triples = tmp_path / "triples.jsonl"
        row = {
            "id": "t",
            "doc_id": "d",
            "question": "q",
            "table_html": serialize_html(make_flat_table(1, 1)),
            "relevant_sentence_ids": [0],
        }
        write_jsonl(triples, [row, {**row, "id": "u", "doc_id": "nope"}])
        config = write_config(tmp_path, questions="triples.jsonl", docs="docs.jsonl")
        code = run(["retrieve", "--config", config, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(triples), 2, "doc_id")
        assert "nope" in error["message"]
        assert not (tmp_path / "o").exists()

    def test_blank_question_names_triples_line(self, tmp_path, capsys, monkeypatch):
        rewritten = []
        monkeypatch.setattr(
            "doc2table.cli.rewrite_question", lambda *args: rewritten.append(args)
        )
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "d", "sentences": ["Revenue was 100."]}])
        triples = tmp_path / "triples.jsonl"
        row = {
            "id": "t",
            "doc_id": "d",
            "question": "q",
            "table_html": serialize_html(make_flat_table(1, 1)),
            "relevant_sentence_ids": [0],
        }
        triples.write_text(
            json.dumps(row) + "\n\n" + json.dumps({**row, "id": "u", "question": " \t"}) + "\n"
        )
        config = write_config(tmp_path, questions="triples.jsonl", docs="docs.jsonl")
        code = run(["retrieve", "--config", config, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(triples), 3, "question")
        assert rewritten == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["retrieve", "pipeline"])
    def test_bad_triple_is_reported_before_a_bad_provider_spec(self, tmp_path, capsys, command):
        # the providers (and their transcripts) are built only after the triples pass
        triples = tmp_path / "triples.jsonl"
        rows = [json.loads(line) for line in (PIPELINE / "questions.jsonl").read_text().splitlines()]
        write_jsonl(triples, [rows[0], {**rows[1], "doc_id": "nope"}])
        no_transcript = {"mode": "replay"}
        config = write_pipeline_config(
            tmp_path, questions=str(triples), chat=no_transcript, rewriter=no_transcript
        )
        assert run([command, "--config", config, "--out", tmp_path / "o"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(triples), 2, "doc_id")
        assert "nope" in error["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["retrieve", "pipeline"])
    def test_relevant_id_beyond_its_document_names_triples_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        rewritten = []
        monkeypatch.setattr("doc2table.cli.rewrite_question", lambda *args: rewritten.append(args))
        docs = tmp_path / "docs.jsonl"
        write_jsonl(
            docs,
            [
                {"doc_id": "d", "sentences": ["Revenue was 100.", "Costs were 40."]},
                {"doc_id": "e", "sentences": ["Margin was 60."]},
            ],
        )
        triples = tmp_path / "triples.jsonl"
        row = {
            "id": "t",
            "doc_id": "d",
            "question": "q",
            "table_html": serialize_html(make_flat_table(1, 1)),
            "relevant_sentence_ids": [0, 1],
        }
        write_jsonl(triples, [row, {**row, "id": "u", "doc_id": "e"}])
        chat = {"mode": "replay", "transcript": str(PIPELINE / "transcripts" / "chat_perfect.jsonl")}
        config = write_config(tmp_path, questions="triples.jsonl", docs="docs.jsonl", chat=chat)
        assert run([command, "--config", config, "--out", tmp_path / "o"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (
            str(triples), 2, "relevant_sentence_ids"
        )
        assert error["message"] == "no sentence 1 in document 'e', which has 1"
        assert rewritten == []
        assert not (tmp_path / "o").exists()

    def test_unknown_doc_id_names_tables_line(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "d", "sentences": ["Revenue was 100."]}])
        tables = tmp_path / "tables.jsonl"
        html = serialize_html(make_flat_table(1, 1))
        tables.write_text(
            json.dumps({"table_id": "a", "doc_id": "d", "table_html": html}) + "\n\n"
            + json.dumps({"table_id": "b", "doc_id": "nope", "table_html": html}) + "\n"
        )
        code = run(["annotate", "--docs", docs, "--tables", tables, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(tables), 3, "doc_id")

    def test_duplicate_table_id_is_input_error(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "d", "sentences": ["Revenue was 100."]}])
        tables = tmp_path / "tables.jsonl"
        row = {"table_id": "t1", "doc_id": "d", "table_html": serialize_html(make_flat_table(1, 1))}
        write_jsonl(tables, [row, row])
        code = run(["annotate", "--docs", docs, "--tables", tables, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(tables), 2, "table_id")
        assert error["message"] == "duplicate table_id 't1'"
        assert not (tmp_path / "o").exists()

    def test_repeated_review_decision_is_input_error(self, tmp_path, capsys):
        review = tmp_path / "review.jsonl"
        write_jsonl(
            review,
            [
                {"table_id": "t1", "match_id": "0,0", "status": "confirmed"},
                {"table_id": "t1", "match_id": "0,0", "status": "rejected"},
            ],
        )
        args = ["annotate", "--docs", ANNOTATE / "docs.jsonl", "--tables", ANNOTATE / "tables.jsonl"]
        assert run(args + ["--review", review, "--out", tmp_path / "o"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(review), 2, "match_id")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "bad_line, reason",
        [
            ('{"response": {"content": "x"}}', "string 'fingerprint'"),
            ('{"fingerprint": "ab12"}', "object 'response'"),
            ("[1, 2]", "expected a JSON object"),
            ('{"fingerprint": ', "invalid JSON"),
        ],
    )
    def test_corrupt_transcript_line_is_reported(self, tmp_path, capsys, bad_line, reason):
        lines = (PIPELINE / "transcripts" / "chat_perfect.jsonl").read_text().splitlines()
        transcript = tmp_path / "chat.jsonl"
        transcript.write_text("\n".join([*lines[:2], bad_line, *lines[2:]]) + "\n")
        config = write_pipeline_config(
            tmp_path, chat={"mode": "replay", "transcript": str(transcript)}
        )
        assert run(["pipeline", "--config", config, "--out", tmp_path / "o"]) == 1
        (report,) = capsys.readouterr().err.splitlines()
        error = json.loads(report)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{transcript}, line 3: ")
        assert reason in error["message"]

    def test_unknown_provider_spec_is_runtime_error(self, tmp_path, capsys):
        write_jsonl(tmp_path / "t.jsonl", [])
        write_jsonl(tmp_path / "d.jsonl", [])
        expected = {
            "chat": "chat mode must be one of ('live', 'replay', 'record'), got 'quantum'",
            "rewriter": "rewriter mode must be one of ('identity', 'live', 'replay', 'record'),"
            " got 'quantum'",
            "embedder": "embedder mode must be one of ('hashing', 'live'), got 'quantum'",
        }
        for role, message in expected.items():
            config = write_config(
                tmp_path, questions="t.jsonl", docs="d.jsonl", **{role: {"mode": "quantum"}}
            )
            assert run(["retrieve", "--config", config, "--out", tmp_path / "o"]) == 1
            assert json.loads(capsys.readouterr().err)["error"]["message"] == message

    # A dict in argv stands for the pipeline fixture's config with those overrides.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["generate", "--config", {"parallel": 0},
                 "--retrieval", PIPELINE / "golden" / "retrieval.jsonl"],
                "parallel must be >= 1, got 0",
            ),
            (
                ["retrieve", "--config", {"k": 0}],
                "k must be >= 1, got 0",
            ),
        ],
    )
    def test_bad_flag_is_reported_before_providers_are_built(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        built = []
        monkeypatch.setattr(
            "doc2table.cli.build_providers", lambda *args, **kwargs: built.append(args)
        )
        argv = [write_pipeline_config(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
        code = run([*argv, "--out", tmp_path / "o"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": message}
        assert built == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, field",
        [
            ("retrieve", "questions"),
            ("retrieve", "docs"),
            ("generate", "questions"),
            ("pipeline", "questions"),
            ("pipeline", "docs"),
        ],
    )
    def test_missing_run_input_is_named(self, tmp_path, capsys, monkeypatch, command, field):
        built = []
        monkeypatch.setattr(
            "doc2table.cli.build_providers", lambda *args, **kwargs: built.append(args)
        )
        path = write_pipeline_config(tmp_path)
        config = json.loads(path.read_text())
        del config[field]
        path.write_text(json.dumps(config))
        argv = [command, "--config", path, "--out", tmp_path / "o"]
        if command == "generate":
            argv += ["--retrieval", PIPELINE / "golden" / "retrieval.jsonl"]
        assert run(argv) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"config field {field} is required"}
        assert built == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"k": "10"}, "k"),
            ({"k": True}, "k"),
            ({"oneshot": "yes"}, "oneshot"),
            ({"parallel": 2.5}, "parallel"),
            ({"chat": "replay"}, "chat"),
            ({"rewriter": {"mode": "replay", "transcript": 5}}, "rewriter.transcript"),
        ],
    )
    def test_config_value_of_wrong_type_is_reported(self, tmp_path, capsys, override, field):
        path = write_pipeline_config(tmp_path, **override)
        code = run(["pipeline", "--config", path, "--out", tmp_path / "o"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"config field {field} must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"merge": "max_score"}, "merge"),
            ({"rewrite_docs": False}, "rewrite_docs"),
            ({"fill_batch_size": 1}, "fill_batch_size"),
            ({"max_retries": 3}, "max_retries"),
            ({"paralel": 2}, "paralel"),
            ({"out_dir": "out"}, "out_dir"),
            ({"temperature": 0.0}, "temperature"),
            ({"max_tokens": 2048}, "max_tokens"),
            ({"chat": {"mode": "replay", "transcipt": "chat.jsonl"}}, "chat.transcipt"),
        ],
    )
    def test_unknown_config_key_is_named(self, tmp_path, capsys, monkeypatch, override, field):
        built = []
        monkeypatch.setattr(
            "doc2table.cli.build_providers", lambda *args, **kwargs: built.append(args)
        )
        path = write_pipeline_config(tmp_path, **override)
        assert run(["pipeline", "--config", path, "--out", tmp_path / "o"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"config field {field} is not a setting"}
        assert built == []
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object_is_reported(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"k": 10}]))
        assert run(["pipeline", "--config", path, "--out", tmp_path / "o"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": "config must be a JSON object"}
        assert not (tmp_path / "o").exists()

    def test_too_deeply_nested_config_is_reported(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000)
        assert run(["pipeline", "--config", path, "--out", tmp_path / "o"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"{path}: JSON nested too deeply to read"}
        assert not (tmp_path / "o").exists()

    def test_too_deeply_nested_input_line_names_file_and_line(self, tmp_path, capsys):
        text = (PIPELINE / "docs.jsonl").read_text()
        docs = tmp_path / "docs.jsonl"
        docs.write_text(text + "[" * 100_000 + "\n")
        config = write_pipeline_config(tmp_path, docs=str(docs))
        assert run(["pipeline", "--config", config, "--out", tmp_path / "o"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        line = len(text.splitlines()) + 1
        assert (error["type"], error["file"], error["line"], error["field"]) == (
            "input_format", str(docs), line, "<json>"
        )
        assert error["message"].startswith("invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("command", ["retrieve", "generate", "pipeline"])
    def test_out_is_required(self, tmp_path, capsys, command):
        argv = [command, "--config", PIPELINE / "config.json"]
        if command == "generate":
            argv += ["--retrieval", PIPELINE / "golden" / "retrieval.jsonl"]
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "chat, message",
        [
            ({"mode": "replay"}, "replay mode needs a transcript path"),
            ({"mode": "live"}, "live mode needs an endpoint"),
            (
                {"mode": "record", "endpoint": "http://localhost:1/chat"},
                "record mode needs a transcript path to write",
            ),
        ],
    )
    def test_provider_spec_without_its_path_is_reported(self, tmp_path, capsys, chat, message):
        path = write_pipeline_config(tmp_path, chat=chat)
        assert run(["pipeline", "--config", path, "--out", tmp_path / "o"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": message}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
    def test_api_key_env_without_a_value_fails_before_any_post(
        self, tmp_path, capsys, monkeypatch, value
    ):
        posts = []
        monkeypatch.setattr(
            "doc2table.providers.HttpTransport.post", lambda self, *args: posts.append(args)
        )
        if value is None:
            monkeypatch.delenv("DOC2TABLE_TEST_KEY", raising=False)
        else:
            monkeypatch.setenv("DOC2TABLE_TEST_KEY", value)
        rewriter = {"mode": "live", "endpoint": "http://stub/rewrite", "api_key_env": "DOC2TABLE_TEST_KEY"}
        path = write_pipeline_config(tmp_path, rewriter=rewriter)
        assert run(["pipeline", "--config", path, "--out", tmp_path / "o"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {
            "type": "ValueError",
            "message": "rewriter.api_key_env names DOC2TABLE_TEST_KEY, which is unset or empty",
        }
        assert posts == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "endpoint",
        [
            "ftp://127.0.0.1/rewrite",
            "http://127.0.0.1:80x/rewrite",
            "http:///rewrite",
            "http://[::1/rewrite",
        ],
        ids=["scheme", "port", "host", "bracket"],
    )
    def test_unusable_live_endpoint_fails_before_any_post(
        self, tmp_path, capsys, monkeypatch, endpoint
    ):
        posts = []
        monkeypatch.setattr(
            "doc2table.providers.HttpTransport.post", lambda self, *args: posts.append(args)
        )
        path = write_pipeline_config(tmp_path, rewriter={"mode": "live", "endpoint": endpoint})
        assert run(["retrieve", "--config", path, "--out", tmp_path / "o"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ProviderError"
        assert repr(endpoint) in error["message"]
        assert posts == []
        assert not (tmp_path / "o").exists()

    def test_malformed_annotation_table_names_file_line_field(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "d", "sentences": ["Revenue was 100."]}])
        tables = tmp_path / "tables.jsonl"
        ragged = "<table><tr><th>s</th><th>c</th></tr><tr><th>r</th></tr></table>"
        write_jsonl(tables, [{"table_id": "a", "doc_id": "d", "table_html": ragged}])
        code = run(["annotate", "--docs", docs, "--tables", tables, "--out", tmp_path / "o"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(tables), 1, "table_html")
        assert "not rectangular" in error["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "fault, field",
        [
            (lambda row: {**row, "id": "acme_beta"}, "id"),
            (lambda row: {k: v for k, v in row.items() if k != "sentences"}, "sentences"),
            (lambda row: {**row, "k": str(row["k"])}, "k"),
        ],
        ids=["duplicate id", "no sentence texts", "k as a string"],
    )
    def test_bad_retrieval_row_names_line_and_field(self, tmp_path, capsys, fault, field):
        acme_beta, gamma = read_jsonl_rows(PIPELINE / "golden" / "retrieval.jsonl")
        retrieval = tmp_path / "retrieval.jsonl"
        write_jsonl(retrieval, [acme_beta, fault(gamma)])
        config = write_pipeline_config(tmp_path)
        out = tmp_path / "o"
        code = run(["generate", "--config", config, "--retrieval", retrieval, "--out", out])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(retrieval), 2, field)
        assert not out.exists()

    def test_parallel_below_one_is_rejected(self, tmp_path, capsys):
        path = write_pipeline_config(tmp_path, parallel=0)
        assert run(["pipeline", "--config", path, "--out", tmp_path / "o"]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": "parallel must be >= 1, got 0"}
        assert not (tmp_path / "o").exists()


class TestAnnotateCommand:
    def test_reproduces_committed_golden(self, tmp_path):
        out = tmp_path / "out"
        args = ["annotate", "--docs", ANNOTATE / "docs.jsonl", "--tables", ANNOTATE / "tables.jsonl"]
        assert run(args + ["--review", ANNOTATE / "review.jsonl", "--out", out]) == 0
        golden = ANNOTATE / "golden"
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def build_inputs(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(
            docs,
            [
                {
                    "doc_id": "d1",
                    "sentences": [
                        "Revenue was 100 in Q1.",
                        "Costs were 40 in Q1.",
                        "Margin reached 60 overall.",
                    ],
                }
            ],
        )
        covered = make_flat_table(1, 3)
        covered = type(covered)(
            covered.stub_header,
            covered.left,
            covered.top,
            (("100", "40", "60"),),
        )
        uncovered = type(covered)(
            covered.stub_header,
            covered.left,
            covered.top,
            (("100", "77777", "88888"),),
        )
        tables = tmp_path / "tables.jsonl"
        write_jsonl(
            tables,
            [
                {"table_id": "keep", "doc_id": "d1", "table_html": serialize_html(covered),
                 "question": "What were the figures?"},
                {"table_id": "drop", "doc_id": "d1", "table_html": serialize_html(uncovered)},
            ],
        )
        return docs, tables

    def test_annotate_filters_and_logs(self, tmp_path):
        docs, tables = self.build_inputs(tmp_path)
        out = tmp_path / "out"
        assert run(["annotate", "--docs", docs, "--tables", tables, "--out", out]) == 0
        triples = [json.loads(l) for l in (out / "triples.jsonl").read_text().splitlines()]
        exclusions = [json.loads(l) for l in (out / "exclusions.jsonl").read_text().splitlines()]
        assert [t["id"] for t in triples] == ["keep"]
        assert triples[0]["relevant_sentence_ids"] == [0, 1, 2]
        assert [e["table_id"] for e in exclusions] == ["drop"]
        matches = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        assert {m["table_id"] for m in matches} == {"keep", "drop"}

    def test_review_file_rejects_matches(self, tmp_path):
        docs, tables = self.build_inputs(tmp_path)
        review = tmp_path / "review.jsonl"
        # Rejecting two of three matches pushes "keep" past the threshold.
        write_jsonl(
            review,
            [
                {"table_id": "keep", "match_id": "0,1", "status": "rejected"},
                {"table_id": "keep", "match_id": "0,2", "status": "rejected"},
            ],
        )
        out = tmp_path / "out"
        run(["annotate", "--docs", docs, "--tables", tables, "--out", out, "--review", review])
        triples = (out / "triples.jsonl").read_text().splitlines()
        assert triples == []


    def test_each_document_scanned_once_and_output_equals_reference(self, tmp_path, monkeypatch):
        documents = {
            "doc0": ["Revenue was $1,200 in Q1.", "Costs fell to (300) overall.",
                     "Net income reached 900, up from 1 200."],
            "doc1": ["Margin was 12% in 2023.", "A loss of -45.0 was booked.",
                     "Revenue rose to 45 as the loss narrowed."],
            "unused": ["Nothing here cites 1,200 or revenue."],
        }
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": d, "sentences": s} for d, s in documents.items()])
        bodies = [
            (("1200", "-300"), ("Revenue", "777")),
            (("12%", "45"), ("revenue", "Loss")),
            (("900", "$300"), ("net income", "Q1")),
            (("(45)", "12"), ("2023", "999")),
            (("1,200", "888"), ("666", "555")),
            (("45.00", "-12"), ("Margin", "A loss")),
        ]
        flat = make_flat_table(2, 2)
        tables = tmp_path / "tables.jsonl"
        write_jsonl(
            tables,
            [
                {"table_id": f"t{i}", "doc_id": f"doc{i % 2}", "question": f"q{i}",
                 "table_html": serialize_html(type(flat)("", flat.left, flat.top, body))}
                for i, body in enumerate(bodies)
            ],
        )
        review = tmp_path / "review.jsonl"
        write_jsonl(
            review,
            [
                {"table_id": "t0", "match_id": "1,0", "status": "rejected"},
                {"table_id": "t3", "match_id": "0,0", "status": "rejected"},
                {"table_id": "t5", "match_id": "0,1", "status": "confirmed"},
            ],
        )
        args = ["annotate", "--docs", docs, "--tables", tables, "--review", review]

        scanned = []
        scan = annotate.scan_sentences
        monkeypatch.setattr(
            annotate, "scan_sentences", lambda sentences: scanned.append(sentences) or scan(sentences)
        )
        assert run(args + ["--out", tmp_path / "indexed"]) == 0
        assert sorted(d for d, s in documents.items() for seen in scanned if seen == s) == [
            "doc0", "doc1"
        ]

        monkeypatch.setattr(annotate, "match_cells_to_sentences", reference_match_cells)
        assert run(args + ["--out", tmp_path / "reference"]) == 0
        for name in ("matches.jsonl", "triples.jsonl", "exclusions.jsonl"):
            indexed = (tmp_path / "indexed" / name).read_bytes()
            assert indexed == (tmp_path / "reference" / name).read_bytes()
        exclusions = read_jsonl_rows(tmp_path / "indexed" / "exclusions.jsonl")
        # t0 and t3 cover 3 of 4 cells until review rejects one of them.
        assert [row["table_id"] for row in exclusions] == ["t0", "t3", "t4"]


class TestStats:
    def test_stats_prints_report(self, tmp_path, capsys):
        triples = tmp_path / "triples.jsonl"
        write_jsonl(
            triples,
            [
                {
                    "id": "t",
                    "doc_id": "d",
                    "question": "q",
                    "table_html": serialize_html(make_flat_table(2, 2)),
                    "relevant_sentence_ids": [0],
                }
            ],
        )
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "d", "sentences": ["five words in this one."]}])
        assert run(["stats", "--triples", triples, "--docs", docs]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_triples"] == 1
        assert report["mean_rows"] == 2.0
        assert report["mean_input_tokens"] == 5.0
        assert report["n_flat"] == 1

    def test_unknown_doc_id_names_triples_line(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "other", "sentences": ["Revenue was 100."]}])
        questions = PIPELINE / "questions.jsonl"
        assert run(["stats", "--triples", questions, "--docs", docs]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(questions), 1, "doc_id")
        assert "acme_beta_h1_2023" in error["message"]

    def test_invalid_utf8_document_line_is_input_error(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        first, second = (PIPELINE / "docs.jsonl").read_bytes().splitlines(keepends=True)
        docs.write_bytes(first + second.replace(b"revenue", b"r\xe9venue"))
        questions = PIPELINE / "questions.jsonl"
        assert run(["stats", "--triples", questions, "--docs", docs]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["file"], error["line"], error["field"]) == (str(docs), 2, "<json>")
        assert error["message"].startswith("invalid UTF-8: ")


class TestRetrieveCommand:
    def test_corpus_recall_matches_golden(self, tmp_path):
        out = tmp_path / "out"
        config = write_corpus_config(tmp_path, k=30, embedder={"mode": "hashing"})
        code = run(["retrieve", "--config", config, "--out", out])
        assert code == 0
        golden = json.loads((CORPUS / "golden_ranking.json").read_text())
        recall = json.loads((out / "recall.json").read_text())
        by_id = {row["id"]: row["recall_at_k"] for row in recall["per_item"]}
        for item in golden:
            assert by_id[item["id"]] == item["recall"]

    def test_rerun_byte_identical(self, tmp_path):
        config = write_corpus_config(tmp_path, k=10)
        args = ["retrieve", "--config", config, "--out", tmp_path / "out"]
        assert run(args) == 0
        first = (tmp_path / "out" / "retrieval.jsonl").read_bytes()
        assert run(args) == 0
        assert (tmp_path / "out" / "retrieval.jsonl").read_bytes() == first

    def test_unreferenced_documents_cost_nothing(self, tmp_path):
        rewrites = []

        def rewrite(request):
            rewrites.append(request["mode"])
            return {"outputs": [request["text"]]}

        class CountingEmbedder(HashingEmbedder):
            def __init__(self):
                self.batches = []

            def embed(self, texts):
                self.batches.append(list(texts))
                return super().embed(texts)

        documents = read_documents(PIPELINE / "docs.jsonl")
        triples = [t for t in read_triples(PIPELINE / "questions.jsonl") if t.triple_id == "gamma"]
        embedder = CountingEmbedder()
        built = BuiltProviders(None, Rewriter(ScriptedProvider(rewrite)), embedder, [])
        retrieve_stage(triples, documents, built, RunConfig(k=10), tmp_path)
        gamma = documents[triples[0].doc_id]
        assert len(gamma) == 6 and len(documents) == 2
        assert rewrites == ["sentence"] * 6 + ["question"]
        assert embedder.batches == [gamma, [triples[0].question]]


    def test_document_referenced_again_later_is_embedded_once(self, tmp_path):
        class CountingEmbedder(HashingEmbedder):
            def __init__(self):
                self.batches = []

            def embed(self, texts):
                self.batches.append(list(texts))
                return super().embed(texts)

        documents = read_documents(PIPELINE / "docs.jsonl")
        acme, gamma = read_triples(PIPELINE / "questions.jsonl")
        again = dataclasses.replace(acme, triple_id="acme_again", question="Acme revenue again?")
        embedder = CountingEmbedder()
        rewriter = Rewriter(ScriptedProvider(lambda request: {"outputs": [request["text"]]}))
        built = BuiltProviders(None, rewriter, embedder, [])
        records, _ = retrieve_stage(
            [acme, gamma, again], documents, built, RunConfig(k=10), tmp_path
        )
        assert embedder.batches == [
            documents[acme.doc_id],
            [acme.question],
            documents[gamma.doc_id],
            [gamma.question],
            [again.question],
        ]
        assert records["acme_again"].merged

    @pytest.mark.parametrize("k", [30, 75])
    def test_rows_hold_max_k_60_ranks_and_generate_reads_full_depth_files_alike(
        self, tmp_path, monkeypatch, k
    ):
        triples = read_triples(CORPUS / "triples.jsonl")
        make_fixtures = _load_make_fixtures()
        handler = make_fixtures.make_chat_handler({t.question: t.table for t in triples})
        transcript = Transcript()
        config = write_corpus_config(
            tmp_path, k=k, chat={"mode": "replay", "transcript": str(tmp_path / "chat.jsonl")}
        )
        assert run(["retrieve", "--config", config, "--out", tmp_path / "kept"]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(retrieval, "RANKING_DEPTH", 10**6)  # the full-depth file older runs wrote
            assert run(["retrieve", "--config", config, "--out", tmp_path / "full"]) == 0
        kept = read_jsonl_rows(tmp_path / "kept" / "retrieval.jsonl")
        full = read_jsonl_rows(tmp_path / "full" / "retrieval.jsonl")
        n_sentences = len(read_documents(CORPUS / "docs.jsonl")["fin_reports_2022"])
        assert n_sentences > max(k, 60)
        for short, whole in zip(kept, full):
            assert [len(ranked) for ranked in short["per_question"]] == [max(k, 60)] * len(
                short["sub_questions"]
            )
            assert all(len(ranked) == n_sentences for ranked in whole["per_question"])
            assert short["per_question"] == [r[: max(k, 60)] for r in whole["per_question"]]
            assert short["merged"] == whole["merged"]

        generate_stage(
            triples,
            read_retrieval_records(tmp_path / "full" / "retrieval.jsonl"),
            ChatProvider(RecordingProvider(ScriptedProvider(handler), transcript)),
            RunConfig(),
            tmp_path / "recorded",
        )
        transcript.save(tmp_path / "chat.jsonl")
        for name in ("kept", "full"):
            retrieval_file = tmp_path / name / "retrieval.jsonl"
            out = tmp_path / name / "generated"
            assert run(["generate", "--config", config, "--retrieval", retrieval_file, "--out", out]) == 0
        tables = (tmp_path / "kept" / "generated" / "tables.jsonl").read_bytes()
        assert tables == (tmp_path / "full" / "generated" / "tables.jsonl").read_bytes()
        assert len(read_jsonl_rows(tmp_path / "kept" / "generated" / "tables.jsonl")) == len(triples)


def _load_make_fixtures():
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


    def test_no_relevant_ids_write_no_recall(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        rows = read_jsonl_rows(PIPELINE / "questions.jsonl")
        write_jsonl(questions, [{**row, "relevant_sentence_ids": []} for row in rows])
        out = tmp_path / "out"
        path = write_pipeline_config(tmp_path, questions=str(questions))
        assert run(["retrieve", "--config", path, "--out", out]) == 0
        assert [p.name for p in out.iterdir()] == ["retrieval.jsonl"]
        golden = PIPELINE / "golden" / "retrieval.jsonl"
        assert (out / "retrieval.jsonl").read_bytes() == golden.read_bytes()
        assert capsys.readouterr().out == f"retrieved for {len(rows)} questions\n"


class TestPipelineCommand:
    def test_replay_pipeline_writes_where_out_names(self, tmp_path):
        out = tmp_path / "run"
        code = run(["pipeline", "--config", PIPELINE / "config.json", "--out", out])
        assert code == 0
        for name in ("retrieval.jsonl", "tables.jsonl", "traces.jsonl", "evaluation.json"):
            assert (out / name).exists()

    def test_generate_from_committed_retrieval(self, tmp_path):
        # Split pipeline: retrieve first, then generate against the replay
        # transcript, both from the committed config; outputs must match the
        # ground truth tables, and each stage's files must equal the ones the
        # one-call pipeline wrote.
        retrieval_out, gen_out = split_run(tmp_path, PIPELINE / "config.json")
        generated = {
            json.loads(l)["id"]: json.loads(l)["table_html"]
            for l in (gen_out / "tables.jsonl").read_text().splitlines()
        }
        groundtruth = {
            json.loads(l)["id"]: json.loads(l)["table_html"]
            for l in (PIPELINE / "questions.jsonl").read_text().splitlines()
        }
        assert generated == groundtruth
        golden = PIPELINE / "golden"
        for stage_out, name in [
            (retrieval_out, "retrieval.jsonl"),
            (retrieval_out, "recall.json"),
            (gen_out, "tables.jsonl"),
            (gen_out, "traces.jsonl"),
        ]:
            assert (stage_out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_split_run_at_three_workers_matches_golden(self, tmp_path):
        retrieval_out, gen_out = split_run(tmp_path, write_pipeline_config(tmp_path, parallel=3))
        for stage_out, name in [
            (retrieval_out, "retrieval.jsonl"),
            (retrieval_out, "recall.json"),
            (gen_out, "tables.jsonl"),
            (gen_out, "traces.jsonl"),
        ]:
            golden = PIPELINE / "golden" / name
            assert (stage_out / name).read_bytes() == golden.read_bytes(), name

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pipeline_writes_the_golden_directory(self, tmp_path, monkeypatch, workers):
        pools = []
        build_pool = ThreadPoolExecutor.__init__

        def counting_init(pool, *args, **kwargs):
            pools.append(pool)
            build_pool(pool, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counting_init)
        if workers == 1:  # one worker starts no thread at all
            monkeypatch.setattr(threading.Thread, "start", no_thread_may_start)
        out = tmp_path / "out"
        config = write_pipeline_config(tmp_path, parallel=workers)
        assert run(["pipeline", "--config", config, "--out", out]) == 0
        assert [pool._max_workers for pool in pools] == ([] if workers == 1 else [2 * workers])
        golden = PIPELINE / "golden"
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        for path in golden.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_sentence_with_a_lone_surrogate_is_embedded(self, tmp_path):
        # The JSON escape "\ud800" decodes to a lone surrogate, which strict
        # UTF-8 cannot encode. The new sentence has no recorded rewrite, so it
        # is embedded as its raw text; it ranks below the top k, so every
        # chat prompt still replays.
        rows = read_jsonl_rows(PIPELINE / "docs.jsonl")
        rows[0]["sentences"].append("Footnote \ud800 marker.")
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert "\\ud800" in docs.read_text()
        out = tmp_path / "out"
        config = write_pipeline_config(tmp_path, docs=str(docs))
        assert run(["pipeline", "--config", config, "--out", out]) == 0
        golden = PIPELINE / "golden"
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        for name in ("tables.jsonl", "evaluation.json", "recall.json"):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_unprintable_question_id_is_summarized_by_its_escape(self, tmp_path, capsys):
        # a lone surrogate has no UTF-8 encoding; the other characters split a line
        rows = read_jsonl_rows(PIPELINE / "questions.jsonl")
        rows[0]["id"] = "acme\nbeta\t\x85\u2028é"
        rows[1]["id"] = "gamma\ud800"
        questions = tmp_path / "questions.jsonl"
        questions.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert "\\ud800" in questions.read_text()
        out = tmp_path / "out"
        config = write_pipeline_config(tmp_path, questions=str(questions))
        assert run(["pipeline", "--config", config, "--out", out]) == 0
        golden = PIPELINE / "golden"
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "\nacme\\nbeta\\t\\x85\\u2028é  1.0000  1.0000" in summary
        assert "\ngamma\\ud800              1.0000  1.0000" in summary
        assert len(summary.splitlines()) == 6
        assert summary in capsys.readouterr().out


class TestRecordedTranscripts:
    """What record mode paid for reaches its transcript file, whatever the run does after."""

    @pytest.fixture
    def http(self, monkeypatch):
        """Route every HTTP call by endpoint: chat and rewrite replay the pipeline
        fixture's transcripts, the embedder rejects every request."""
        transcripts = {
            "http://stub/chat": Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl"),
            "http://stub/rewrite": Transcript.load(PIPELINE / "transcripts" / "rewrite.jsonl"),
        }
        calls = {endpoint: [] for endpoint in transcripts}

        def call(provider, request):
            if provider.endpoint not in transcripts:
                raise ProviderError(f"HTTP 400 from {provider.endpoint}")
            calls[provider.endpoint].append(request)
            return transcripts[provider.endpoint].lookup(request)

        monkeypatch.setattr(HttpProvider, "call", call)
        return transcripts, calls

    @staticmethod
    def assert_holds_exactly(path, requests, source: Transcript):
        saved = Transcript.load(path)
        assert requests
        assert saved.entries == {fp: source.entries[fp] for fp in map(request_fingerprint, requests)}

    def test_record_into_a_missing_directory_keeps_every_response(self, tmp_path, http):
        transcripts, calls = http
        path = tmp_path / "missing" / "deeper" / "chat.jsonl"
        chat = {"mode": "record", "endpoint": "http://stub/chat", "transcript": str(path)}
        config = write_pipeline_config(tmp_path, chat=chat)
        out = tmp_path / "out"
        assert run(["pipeline", "--config", config, "--out", out]) == 0
        golden = PIPELINE / "golden" / "tables.jsonl"
        assert (out / "tables.jsonl").read_bytes() == golden.read_bytes()
        chat_url = "http://stub/chat"
        self.assert_holds_exactly(path, calls[chat_url], transcripts[chat_url])

    @pytest.mark.parametrize("command", ["retrieve", "pipeline"])
    def test_failed_run_keeps_the_rewrites_it_paid_for(self, tmp_path, capsys, http, command):
        transcripts, calls = http
        rewrite_url = "http://stub/rewrite"
        config = write_pipeline_config(
            tmp_path,
            rewriter={"mode": "record", "endpoint": rewrite_url, "transcript": "rewrite.jsonl"},
            embedder={"mode": "live", "endpoint": "http://stub/embed"},
        )
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ProviderError"
        self.assert_holds_exactly(tmp_path / "rewrite.jsonl", calls[rewrite_url], transcripts[rewrite_url])


class TestGenerateCommand:
    def test_oneshot_config_sends_one_prompt_per_question(self, tmp_path, monkeypatch):
        triples = read_triples(PIPELINE / "questions.jsonl")
        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        golden_html = {
            row["id"]: row["table_html"] for row in read_jsonl_rows(PIPELINE / "golden" / "tables.jsonl")
        }
        prompts = []

        def handler(request):
            (message,) = request["messages"]
            prompts.append(message["content"])
            (triple,) = [t for t in triples if t.question in message["content"]]
            return {"content": f"```table\n{golden_html[triple.triple_id]}\n```"}

        chat = ChatProvider(ScriptedProvider(handler))
        monkeypatch.setattr(
            "doc2table.cli.build_providers",
            lambda *args, **kwargs: BuiltProviders(chat, None, None, []),
        )
        config = write_pipeline_config(tmp_path, oneshot=True)
        out = tmp_path / "out"
        retrieval = PIPELINE / "golden" / "retrieval.jsonl"
        assert run(["generate", "--config", config, "--retrieval", retrieval, "--out", out]) == 0
        expected = []
        for triple in triples:
            record = records[triple.triple_id]
            sentences = [(sid, record.sentence_texts[sid]) for sid in record.merged_ids()]
            expected.append(build_oneshot_prompt(triple.question, sentences))
        assert prompts == expected
        tables = read_jsonl_rows(out / "tables.jsonl")
        assert tables == [{"id": t.triple_id, "table_html": golden_html[t.triple_id]} for t in triples]
        traces = read_jsonl_rows(out / "traces.jsonl")
        assert [(t["id"], t["structure_retries"], t["fill_retries"]) for t in traces] == [
            (t.triple_id, 0, 0) for t in triples
        ]


class TestPerQuestionFailures:
    """A question whose evidence or provider fails gets one error row; the others go on."""

    def test_empty_document_fails_only_its_questions(self, tmp_path, capsys, caplog):
        docs = tmp_path / "docs.jsonl"
        docs.write_text(
            (PIPELINE / "docs.jsonl").read_text() + json.dumps({"doc_id": "empty", "sentences": []}) + "\n"
        )
        gamma = read_jsonl_rows(PIPELINE / "questions.jsonl")[1]
        questions = tmp_path / "questions.jsonl"
        hollow = {**gamma, "doc_id": "empty", "relevant_sentence_ids": []}
        questions.write_text(
            (PIPELINE / "questions.jsonl").read_text()
            + "".join(json.dumps({**hollow, "id": i}) + "\n" for i in ("hollow", "hollow_again"))
        )
        out = tmp_path / "out"
        path = write_pipeline_config(tmp_path, docs=str(docs), questions=str(questions))
        with caplog.at_level(logging.WARNING, logger="doc2table.cli"):
            assert run(["pipeline", "--config", path, "--out", out]) == 1
        assert [r.getMessage() for r in caplog.records if r.name == "doc2table.cli"] == [
            "document 'empty' has no sentences to retrieve"
        ]
        assert read_jsonl_rows(out / "errors.jsonl") == [
            {"id": i, "stage": "input", "error": "no evidence sentences"}
            for i in ("hollow", "hollow_again")
        ]
        for name in ("tables.jsonl", "traces.jsonl", "evaluation.jsonl", "evaluation.json"):
            assert (out / name).read_bytes() == (PIPELINE / "golden" / name).read_bytes(), name

    def test_question_without_a_retrieval_record_fails_only_that_question(self, tmp_path, capsys):
        retrieval = tmp_path / "retrieval.jsonl"
        acme_beta = (PIPELINE / "golden" / "retrieval.jsonl").read_text().splitlines()[0]
        retrieval.write_text(acme_beta + "\n")
        out = tmp_path / "out"
        argv = ["generate", "--config", PIPELINE / "config.json", "--retrieval", retrieval]
        assert run(argv + ["--out", out]) == 1
        assert read_jsonl_rows(out / "errors.jsonl") == [
            {"id": "gamma", "stage": "input", "error": "no retrieval record"}
        ]
        golden_tables = read_jsonl_rows(PIPELINE / "golden" / "tables.jsonl")
        assert read_jsonl_rows(out / "tables.jsonl") == golden_tables[:1]
        assert "generated 1 tables, 1 failures" in capsys.readouterr().out

    def test_replay_miss_fails_each_question_and_the_run_goes_on(self, tmp_path, capsys):
        empty = tmp_path / "chat.jsonl"
        empty.write_text("")
        out = tmp_path / "out"
        path = write_pipeline_config(tmp_path, chat={"mode": "replay", "transcript": str(empty)})
        assert run(["pipeline", "--config", path, "--out", out]) == 1
        errors = read_jsonl_rows(out / "errors.jsonl")
        assert [(e["id"], e["stage"]) for e in errors] == [
            ("acme_beta", "structure"), ("gamma", "structure")
        ]
        assert all("no recorded response" in e["error"] for e in errors)
        assert (out / "tables.jsonl").read_text() == ""
        assert (out / "recall.json").read_bytes() == (PIPELINE / "golden" / "recall.json").read_bytes()
        assert "pipeline complete: 0 tables, 2 failures" in capsys.readouterr().out

    def test_non_object_chat_reply_fails_only_that_question(self, tmp_path):
        transcript = Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl")
        gamma = read_triples(PIPELINE / "questions.jsonl")[1]

        class Transport:
            def post(self, body, headers, timeout):
                request = json.loads(body)
                if gamma.question in request["messages"][0]["content"]:
                    return 200, b'["not", "an", "object"]'
                return 200, json.dumps(transcript.lookup(request)).encode()

        backend = HttpProvider("http://stub/chat", max_retries=2, backoff=0.0, transport=Transport())
        chat = ChatProvider(backend)
        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        generated, errors = generate_stage(
            read_triples(PIPELINE / "questions.jsonl"), records, chat, RunConfig(), tmp_path
        )
        assert [item_id for item_id, _ in generated] == ["acme_beta"]
        assert [(e["id"], e["stage"]) for e in errors] == [("gamma", "structure")]
        assert "not a JSON object (got list)" in errors[0]["error"]
        golden_tables = read_jsonl_rows(PIPELINE / "golden" / "tables.jsonl")
        assert read_jsonl_rows(tmp_path / "tables.jsonl") == golden_tables[:1]

    def test_non_string_chat_content_fails_only_that_question(self, tmp_path, capsys, monkeypatch):
        transcript = Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl")
        questions = read_jsonl_rows(PIPELINE / "questions.jsonl")
        retrieval = read_jsonl_rows(PIPELINE / "golden" / "retrieval.jsonl")
        bad = {"null_reply": None, "number_reply": 42}
        for item_id in bad:
            questions.append({**questions[1], "id": item_id, "question": f"{item_id}?"})
            retrieval.append({**retrieval[1], "id": item_id})
        write_jsonl(tmp_path / "questions.jsonl", questions)
        write_jsonl(tmp_path / "retrieval.jsonl", retrieval)

        def handler(request):
            prompt = request["messages"][0]["content"]
            for item_id, content in bad.items():
                if f"{item_id}?" in prompt:
                    return {"content": content}
            return transcript.lookup(request)

        chat = ChatProvider(ScriptedProvider(handler))
        monkeypatch.setattr(
            "doc2table.cli.build_providers",
            lambda *args, **kwargs: BuiltProviders(chat, None, None, []),
        )
        config = write_config(tmp_path, questions="questions.jsonl")
        out = tmp_path / "out"
        args = ["generate", "--config", config, "--retrieval", tmp_path / "retrieval.jsonl"]
        assert run(args + ["--out", out]) == 1
        assert "Traceback" not in capsys.readouterr().err
        errors = read_jsonl_rows(out / "errors.jsonl")
        assert [(e["id"], e["stage"]) for e in errors] == [
            ("null_reply", "structure"), ("number_reply", "structure")
        ]
        assert all("no string 'content'" in e["error"] for e in errors)
        golden = PIPELINE / "golden"
        assert (out / "tables.jsonl").read_bytes() == (golden / "tables.jsonl").read_bytes()

    def test_provider_error_on_one_fill_prompt_fails_only_that_question(self, tmp_path):
        transcript = Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl")
        gamma = read_triples(PIPELINE / "questions.jsonl")[1]

        def handler(request):
            prompt = request["messages"][0]["content"]
            if "You fill specific body cells" in prompt and gamma.question in prompt:
                raise ProviderError("connection reset")
            return transcript.lookup(request)

        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        generated, errors = generate_stage(
            read_triples(PIPELINE / "questions.jsonl"),
            records,
            ChatProvider(ScriptedProvider(handler)),
            RunConfig(),
            tmp_path,
        )
        assert [item_id for item_id, _ in generated] == ["acme_beta"]
        assert errors == [
            {"id": "gamma", "stage": "fill", "error": "fill stage failed: connection reset"}
        ]
        golden_tables = read_jsonl_rows(PIPELINE / "golden" / "tables.jsonl")
        assert read_jsonl_rows(tmp_path / "tables.jsonl") == golden_tables[:1]
        assert read_jsonl_rows(tmp_path / "errors.jsonl") == errors


    def test_too_deep_structure_reply_fails_only_that_question(self, tmp_path):
        transcript = Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl")
        gamma = read_triples(PIPELINE / "questions.jsonl")[1]
        deep_reply = f"```html\n{stacked_header_html(1100)}\ndimensions: 1 x 1\n```"

        def handler(request):
            prompt = request["messages"][0]["content"]
            if gamma.question in prompt and "You fill specific body cells" not in prompt:
                return {"content": deep_reply}
            return transcript.lookup(request)

        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        generated, errors = generate_stage(
            read_triples(PIPELINE / "questions.jsonl"),
            records,
            ChatProvider(ScriptedProvider(handler)),
            RunConfig(),
            tmp_path,
        )
        assert [item_id for item_id, _ in generated] == ["acme_beta"]
        assert errors == [
            {
                "id": "gamma",
                "stage": "structure",
                "error": "structure stage failed: header skeleton is not a usable table:"
                " header has 1100 levels, more than the 100 supported",
            }
        ]
        assert read_jsonl_rows(tmp_path / "errors.jsonl") == errors
        golden_tables = read_jsonl_rows(PIPELINE / "golden" / "tables.jsonl")
        assert read_jsonl_rows(tmp_path / "tables.jsonl") == golden_tables[:1]

    def test_too_deeply_nested_fill_reply_fails_only_that_question(self, tmp_path):
        transcript = Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl")
        gamma = read_triples(PIPELINE / "questions.jsonl")[1]

        def handler(request):
            prompt = request["messages"][0]["content"]
            if "You fill specific body cells" in prompt and gamma.question in prompt:
                return {"content": "```json\n" + "[" * 100_000 + "\n```"}
            return transcript.lookup(request)

        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        with run_map(2) as mapper:
            generated, errors = generate_stage(
                read_triples(PIPELINE / "questions.jsonl"),
                records,
                ChatProvider(ScriptedProvider(handler)),
                RunConfig(),
                tmp_path,
                mapper,
            )
        assert [item_id for item_id, _ in generated] == ["acme_beta"]
        assert [(row["id"], row["stage"]) for row in errors] == [("gamma", "fill")]
        assert errors[0]["error"].startswith(
            "fill stage failed: fenced block is not valid JSON: maximum recursion depth exceeded"
        )
        assert read_jsonl_rows(tmp_path / "errors.jsonl") == errors
        golden = PIPELINE / "golden"
        for name in ("tables.jsonl", "traces.jsonl"):
            assert read_jsonl_rows(tmp_path / name) == read_jsonl_rows(golden / name)[:1], name

    def test_fill_replies_citing_a_number_fail_only_that_question(self, tmp_path):
        transcript = Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl")
        gamma = read_triples(PIPELINE / "questions.jsonl")[1]

        bad_fills = []

        def handler(request):
            prompt = request["messages"][0]["content"]
            if "You fill specific body cells" in prompt and gamma.question in prompt:
                bad_fills.append(prompt)
                return {"content": '```json\n[{"cell": 1, "value": "x", "sentences": 2}]\n```'}
            return transcript.lookup(request)

        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        generated, errors = generate_stage(
            read_triples(PIPELINE / "questions.jsonl"),
            records,
            ChatProvider(ScriptedProvider(handler)),
            RunConfig(),
            tmp_path,
        )
        assert [item_id for item_id, _ in generated] == ["acme_beta"]
        assert errors == [
            {
                "id": "gamma",
                "stage": "fill",
                "error": 'fill stage failed: "sentences" of cell 1 must be a list of'
                " sentence numbers or null",
            }
        ]
        assert len(bad_fills) == 2  # the first fill prompt and its one retry
        assert read_jsonl_rows(tmp_path / "errors.jsonl") == errors
        golden = PIPELINE / "golden"
        for name in ("tables.jsonl", "traces.jsonl"):
            assert read_jsonl_rows(tmp_path / name) == read_jsonl_rows(golden / name)[:1], name


class TestRunMap:
    """Work mapped through a pool comes back in input order, whatever order it finishes in."""

    def test_rewrites_keep_sentence_order_when_later_ones_answer_first(self, caplog):
        sentences = [f"Sentence number {n}." for n in range(7)]

        def handler(request):
            if request["text"] == sentences[3]:
                raise ProviderError("rewrite backend down")
            return {"outputs": [request["text"].upper()]}

        later_first = LaterFirst(handler, lambda request: sentences.index(request["text"]), 7)
        rewriter = Rewriter(ScriptedProvider(later_first))
        with caplog.at_level(logging.WARNING, logger="doc2table.retrieval"):
            with run_map(2) as mapper:
                texts = list(retrieval.rewrite_sentences(sentences, rewriter, mapper))
        assert texts == [s.upper() if n != 3 else s for n, s in enumerate(sentences)]
        assert later_first.returned.index(1) < later_first.returned.index(0)
        assert later_first.returned.index(3) < later_first.returned.index(2)
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["sentence 3 rewrite failed, keeping raw text: rewrite backend down"]

    def test_recording_through_eight_workers_loses_no_entry(self):
        transcript = Transcript()
        backend = ScriptedProvider(lambda request: {"outputs": [request["text"][::-1]]})
        rewriter = Rewriter(RecordingProvider(backend, transcript))
        sentences = [f"Sentence number {n}." for n in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with run_map(8) as mapper:
                texts = list(retrieval.rewrite_sentences(sentences, rewriter, mapper))
        finally:
            sys.setswitchinterval(interval)
        assert texts == [s[::-1] for s in sentences]
        assert len(transcript.entries) == len(transcript.requests) == len(sentences)

    def test_generate_writes_in_input_order_when_later_questions_finish_first(
        self, tmp_path, monkeypatch
    ):
        transcript = Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl")
        acme_beta, gamma = read_triples(PIPELINE / "questions.jsonl")
        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        failing = [
            dataclasses.replace(gamma, triple_id=f"fail_{n}", question=f"fail {n}?") for n in (0, 1)
        ]
        triples = [*failing, acme_beta, gamma]
        records.update({t.triple_id: records["gamma"] for t in failing})

        def handler(request):
            if "fail " in request["messages"][0]["content"]:
                raise ProviderError("chat backend down")
            return transcript.lookup(request)

        questions = [t.question for t in triples]
        later_first = LaterFirst(cli.run_tabtalk, questions.index, len(triples))
        monkeypatch.setattr(cli, "run_tabtalk", later_first)
        chat = ChatProvider(ScriptedProvider(handler))
        with run_map(2) as mapper:
            generated, errors = generate_stage(
                triples, records, chat, RunConfig(), tmp_path, mapper
            )
        assert later_first.returned.index(1) < later_first.returned.index(0)
        assert later_first.returned.index(3) < later_first.returned.index(2)
        assert [item_id for item_id, _ in generated] == ["acme_beta", "gamma"]
        golden = PIPELINE / "golden"
        for name in ("tables.jsonl", "traces.jsonl"):
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
        error = "structure stage failed: chat backend down"
        assert read_jsonl_rows(tmp_path / "errors.jsonl") == errors == [
            {"id": f"fail_{n}", "stage": "structure", "error": error} for n in (0, 1)
        ]


class TimedTransport:
    """Answers each post after ``latency`` seconds and records its (start, end, request).

    ``answer(role, request)`` gives the reply, the role being ``"chat"`` for
    a request with messages and ``"rewrite"`` otherwise. The first post of
    the ``fail_once`` request gets a 503.
    Counts the posts in flight at once, whatever the role.
    """

    def __init__(self, answer, latency: float, fail_once: dict | None = None):
        self.answer, self.latency, self.fail_once = answer, latency, fail_once
        self.lock = threading.Lock()
        self.in_flight = self.max_in_flight = 0
        self.posts: list[tuple[float, float, dict]] = []

    def post(self, body, headers, timeout):
        request = json.loads(body)
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        start = time.perf_counter()
        time.sleep(self.latency)
        with self.lock:
            self.in_flight -= 1
            fail = request == self.fail_once and all(r != request for _, _, r in self.posts)
            self.posts.append((start, time.perf_counter(), request))
        if fail:
            return 503, b"{}"
        role = "chat" if "messages" in request else "rewrite"
        return 200, json.dumps(self.answer(role, request)).encode()


class TestSchedule:
    """One schedule per run: every rewrite queued at the start, each question's
    TabTalk as soon as its record exists, and at most ``parallel`` requests in flight."""

    @pytest.fixture
    def live(self, monkeypatch):
        """Install ``transport`` (and a ``backoff``) under every live provider the run builds."""

        def install(transport, backoff: float = 0.5):
            provider = functools.partial(HttpProvider, backoff=backoff, transport=transport)
            monkeypatch.setattr("doc2table.config.HttpProvider", provider)

        return install

    def test_requests_in_flight_never_exceed_parallel_and_a_backoff_frees_its_slot(
        self, tmp_path, live
    ):
        transcripts = {
            "chat": Transcript.load(PIPELINE / "transcripts" / "chat_perfect.jsonl"),
            "rewrite": Transcript.load(PIPELINE / "transcripts" / "rewrite.jsonl"),
        }
        first = read_documents(PIPELINE / "docs.jsonl")["acme_beta_h1_2023"][0]
        failing = {"mode": "sentence", "text": first}
        transport = TimedTransport(
            lambda role, request: transcripts[role].lookup(request), 0.005, failing
        )
        live(transport, backoff=0.2)
        config = write_pipeline_config(
            tmp_path,
            parallel=2,
            chat={"mode": "live", "endpoint": "http://stub/chat"},
            rewriter={"mode": "live", "endpoint": "http://stub/rewrite"},
        )
        out = tmp_path / "out"
        assert run(["pipeline", "--config", config, "--out", out]) == 0
        golden = PIPELINE / "golden"
        for path in golden.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        assert transport.max_in_flight == 2
        # While the failed rewrite waited out its backoff, two other posts were in flight at once.
        failed, retried = [(start, end) for start, end, r in transport.posts if r == failing]
        starts = [start for start, _, _ in transport.posts if failed[1] < start < retried[0]]
        assert max(sum(s <= at < e for s, e, _ in transport.posts) for at in starts) == 2

    def test_parallel_one_keeps_the_call_order(self, tmp_path, monkeypatch):
        calls = []

        class LoggedReplay(ReplayProvider):
            def call(self, request):
                calls.append(request)
                return super().call(request)

        embed = HashingEmbedder.embed
        monkeypatch.setattr("doc2table.config.ReplayProvider", LoggedReplay)
        monkeypatch.setattr(
            HashingEmbedder,
            "embed",
            lambda self, texts: calls.append({"embed": len(texts)}) or embed(self, texts),
        )
        monkeypatch.setattr(threading.Thread, "start", no_thread_may_start)
        config = write_pipeline_config(tmp_path)
        assert run(["pipeline", "--config", config, "--out", tmp_path / "out"]) == 0
        # Retrieval first, question by question: the document's sentence
        # rewrites and their embedding at its first question, then the
        # question's rewrite and its sub-questions' embedding.
        documents = read_documents(PIPELINE / "docs.jsonl")
        triples = read_triples(PIPELINE / "questions.jsonl")
        records = read_retrieval_records(PIPELINE / "golden" / "retrieval.jsonl")
        expected = []
        for triple in triples:
            sentences = documents[triple.doc_id]
            expected += [{"mode": "sentence", "text": s} for s in sentences]
            expected += [{"embed": len(sentences)}, {"mode": "question", "text": triple.question}]
            expected.append({"embed": len(records[triple.triple_id].sub_questions)})
        assert calls[: len(expected)] == expected
        # Then generation, one question's calls after another's.
        owners = [
            next(t.triple_id for t in triples if t.question in call["messages"][0]["content"])
            for call in calls[len(expected) :]
        ]
        assert owners == sorted(owners, key=[t.triple_id for t in triples].index)
        assert set(owners) == {t.triple_id for t in triples}

    def test_failed_run_sends_no_queued_rewrite_and_keeps_those_it_paid_for(
        self, tmp_path, capsys, monkeypatch, live
    ):
        transport = TimedTransport(lambda role, request: {"outputs": [request["text"]]}, 0.001)
        live(transport)

        def embed(self, texts):
            raise ProviderError("embedder down")

        monkeypatch.setattr(HashingEmbedder, "embed", embed)
        short = [f"Short document sentence {n}." for n in range(3)]
        long = [f"Long document sentence {n}." for n in range(400)]
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{"doc_id": "short", "sentences": short}, {"doc_id": "long", "sentences": long}])
        rows = read_jsonl_rows(PIPELINE / "questions.jsonl")
        questions = tmp_path / "questions.jsonl"
        write_jsonl(
            questions,
            [
                {**row, "doc_id": doc, "relevant_sentence_ids": []}
                for row, doc in zip(rows, ("short", "long"))
            ],
        )
        rewriter = {"mode": "record", "endpoint": "http://stub/rewrite", "transcript": "rewrite.jsonl"}
        config = write_pipeline_config(
            tmp_path, parallel=2, docs=str(docs), questions=str(questions), rewriter=rewriter
        )
        assert run(["pipeline", "--config", config, "--out", tmp_path / "out"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ProviderError", "message": "embedder down"
        }
        sent = [request for _, _, request in transport.posts]
        assert all({"mode": "sentence", "text": s} in sent for s in short)
        assert len(sent) < len(long) // 4  # the queued rest were cancelled, not sent
        saved = Transcript.load(tmp_path / "rewrite.jsonl")
        assert saved.entries.keys() == set(map(request_fingerprint, sent))
