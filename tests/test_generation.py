from __future__ import annotations

import json
import logging
import re
import threading
from pathlib import Path

import pytest

from doc2table.cli import generate_stage, run_map
from doc2table.config import RunConfig
from doc2table.data import RetrievalRecord
from doc2table.generation import (
    ResponseParseError,
    StageFailure,
    build_fill_prompt,
    build_oneshot_prompt,
    build_structure_prompt,
    extract_fenced_block,
    parse_fill_response,
    parse_structure_response,
    run_tabtalk,
    trace_to_dict,
)
from doc2table.html_io import parse_html_table, serialize_html
from doc2table.metrics import table_scores
from doc2table.model import CoordTree, HierarchicalTable, flatten_to_kv
from doc2table.providers import (
    ChatProvider,
    ProviderError,
    RecordingProvider,
    ScriptedProvider,
    Transcript,
)
from doc2table.treedist import teds

PROMPTS = Path(__file__).parent / "fixtures" / "prompts"

QUESTION = "What was the revenue of Acme Corp in Q1 2023 and Q2 2023?"
SENTENCES = [
    (0, "Acme Corp reported revenue of $12.1 billion for Q1 2023."),
    (1, "Management highlighted strong demand across all regions."),
    (2, "For Q2 2023, Acme Corp posted revenue of $13.4 billion."),
    (3, "Operating expenses rose modestly year over year."),
    (4, "The board declared a quarterly dividend of $0.62 per share."),
]


def simple_plan() -> HierarchicalTable:
    return HierarchicalTable(
        "Metric",
        CoordTree.from_nested([("Acme Corp", ["Revenue"])]),
        CoordTree.from_nested(["Q1 2023", "Q2 2023"]),
        (("", ""),),
    )


STRUCTURE_RESPONSE = """Thinking it through, the table needs one row and two columns.

```table
dimensions: 1 x 2
<table>
<thead>
<tr><th>Metric</th><th>Q1 2023</th><th>Q2 2023</th></tr>
</thead>
<tbody>
<tr><th>Revenue</th><td></td><td></td></tr>
</tbody>
</table>
```

That should cover it."""


def upper_tags(text: str) -> str:
    """``text`` with every HTML tag name in capitals, which HTML allows."""
    return re.sub(r"</?[a-z]+", lambda tag: tag.group().upper(), text)


class TestPrompts:
    def test_structure_prompt_matches_golden(self):
        golden = (PROMPTS / "structure_prompt.txt").read_text(encoding="utf-8")
        assert build_structure_prompt(QUESTION, SENTENCES) + "\n" == golden

    def test_fill_prompt_matches_golden(self):
        golden = (PROMPTS / "fill_prompt.txt").read_text(encoding="utf-8")
        assert build_fill_prompt(QUESTION, SENTENCES, flatten_to_kv(simple_plan())) + "\n" == golden

    def test_oneshot_prompt_matches_golden(self):
        golden = (PROMPTS / "oneshot_prompt.txt").read_text(encoding="utf-8")
        assert build_oneshot_prompt(QUESTION, SENTENCES) + "\n" == golden

    def test_prompt_determinism(self):
        a = build_structure_prompt(QUESTION, SENTENCES)
        b = build_structure_prompt(QUESTION, SENTENCES)
        assert a == b

    def test_thirty_sentences_all_numbered(self):
        sentences = [(i, f"Fact number {i} holds.") for i in range(30)]
        prompt = build_structure_prompt(QUESTION, sentences)
        for n in range(1, 31):
            assert f"{n}. Fact number {n - 1} holds." in prompt

    def test_fill_prompt_names_cell_paths(self):
        cell = flatten_to_kv(simple_plan())[1]
        assert (cell.left_coord, cell.top_coord) == ((0, 0), (1,))
        prompt = build_fill_prompt(QUESTION, SENTENCES, [cell])
        assert "cell 1: row = Acme Corp > Revenue; column = Q2 2023" in prompt

    def test_fill_prompt_full_table_row_major(self):
        left, top = CoordTree.from_nested(["r1", "r2"]), CoordTree.from_nested(["c1", "c2"])
        plan = HierarchicalTable("", left, top, (("", ""), ("", "")))
        prompt = build_fill_prompt(QUESTION, SENTENCES, flatten_to_kv(plan))
        assert prompt.index("row = r1; column = c1") < prompt.index("row = r1; column = c2")
        assert prompt.index("row = r1; column = c2") < prompt.index("row = r2; column = c1")
        assert "cell 4" in prompt


class TestParseStructure:
    def test_well_formed_response(self):
        skeleton = parse_structure_response(STRUCTURE_RESPONSE)
        assert skeleton.left.leaf_count == 1
        assert skeleton.top.leaf_count == 2
        assert skeleton.stub_header == "Metric"
        assert skeleton.body == (("", ""),)

    def test_prose_around_block_is_ignored(self):
        assert parse_structure_response(STRUCTURE_RESPONSE).left.leaf_count == 1

    def test_dimension_mismatch_names_both_numbers(self):
        bad = STRUCTURE_RESPONSE.replace("dimensions: 1 x 2", "dimensions: 4 x 2")
        with pytest.raises(ResponseParseError) as excinfo:
            parse_structure_response(bad)
        assert "4 x 2" in str(excinfo.value)
        assert "1 row leaves" in str(excinfo.value)

    def test_no_fenced_block(self):
        with pytest.raises(ResponseParseError):
            parse_structure_response("no block at all")

    def test_missing_dimensions_line(self):
        bad = STRUCTURE_RESPONSE.replace("dimensions: 1 x 2", "")
        with pytest.raises(ResponseParseError):
            parse_structure_response(bad)

    def test_last_block_wins(self):
        response = "```table\ngarbage\n```\n" + STRUCTURE_RESPONSE
        assert parse_structure_response(response).left.leaf_count == 1

    def test_extract_fenced_block_requires_block(self):
        with pytest.raises(ResponseParseError):
            extract_fenced_block("plain text")


def fill_response(entries) -> str:
    return "```json\n" + json.dumps(entries) + "\n```"


class TestParseFill:
    def test_complete_response(self):
        batch = flatten_to_kv(simple_plan())
        response = fill_response(
            [
                {"cell": 1, "value": "$12.1 billion", "sentences": [1], "note": None},
                {"cell": 2, "value": "$13.4 billion", "sentences": [3], "note": "none needed"},
            ]
        )
        records = parse_fill_response(response, batch, [10, 11, 12])
        assert [r.value for r in records] == ["$12.1 billion", "$13.4 billion"]
        assert records[0].sentence_ids == (10,)
        assert records[1].sentence_ids == (12,)
        assert records[1].note == "none needed"
        assert all(r.filled for r in records)

    def test_missing_cell_flagged_unfilled(self, caplog):
        batch = flatten_to_kv(simple_plan())
        response = fill_response([{"cell": 1, "value": "x", "sentences": []}])
        with caplog.at_level(logging.WARNING, logger="doc2table.generation"):
            records = parse_fill_response(response, batch, [0])
        assert records[1].filled is False
        assert records[1].value == ""

    def test_out_of_range_citation_dropped_with_warning(self, caplog):
        batch = flatten_to_kv(simple_plan())
        response = fill_response(
            [
                {"cell": 1, "value": "x", "sentences": [99]},
                {"cell": 2, "value": "y", "sentences": [1]},
            ]
        )
        with caplog.at_level(logging.WARNING, logger="doc2table.generation"):
            records = parse_fill_response(response, batch, [7])
        assert records[0].sentence_ids == ()
        assert any("citation" in r.message for r in caplog.records)

    def test_null_value_is_empty_and_booleans_are_not_numbers(self, caplog):
        batch = flatten_to_kv(simple_plan())
        response = fill_response(
            [
                {"cell": 1, "value": None, "sentences": [True, 2]},
                {"cell": True, "value": "from a boolean cell number"},
            ]
        )
        with caplog.at_level(logging.WARNING, logger="doc2table.generation"):
            records = parse_fill_response(response, batch, [7, 8])
        assert records[0].value == "" and records[0].filled
        assert records[0].sentence_ids == (8,)
        assert records[1].filled is False and records[1].value == ""
        assert any("citation True" in r.message for r in caplog.records)

    def test_unparseable_block(self):
        with pytest.raises(ResponseParseError):
            parse_fill_response("```json\nnot json\n```", flatten_to_kv(simple_plan()), [0])

    def test_non_list_json(self):
        with pytest.raises(ResponseParseError):
            parse_fill_response('```json\n{"cell": 1}\n```', flatten_to_kv(simple_plan()), [0])

    @pytest.mark.parametrize("sentences", [1, True, "1", {"1": 1}])
    def test_sentences_that_are_not_a_list_reject_the_reply(self, sentences):
        response = fill_response([{"cell": 1, "value": "x", "sentences": sentences}])
        with pytest.raises(ResponseParseError, match='"sentences" of cell 1'):
            parse_fill_response(response, flatten_to_kv(simple_plan()), [0])

    def test_null_sentences_cite_nothing(self):
        response = fill_response([{"cell": 1, "value": "x", "sentences": None}])
        records = parse_fill_response(response, flatten_to_kv(simple_plan()), [0])
        assert records[0].sentence_ids == () and records[0].filled


def make_gt() -> HierarchicalTable:
    return HierarchicalTable(
        "Metric",
        CoordTree.from_nested([("Acme Corp", ["Revenue"])]),
        CoordTree.from_nested(["Q1 2023", "Q2 2023"]),
        (("$12.1 billion", "$13.4 billion"),),
    )


def perfect_handler(gt: HierarchicalTable, wrong_value: str | None = None, garbage_first: bool = False):
    state = {"structure_calls": 0}

    def handler(request):
        prompt = request["messages"][0]["content"]
        if "you only design" in prompt:
            state["structure_calls"] += 1
            if garbage_first and "could not be used" not in prompt:
                return {"content": "sorry, no table"}
            skeleton = HierarchicalTable(
                gt.stub_header, gt.left, gt.top, tuple(tuple("" for _ in r) for r in gt.body)
            )
            body = serialize_html(skeleton)
            rows, cols = len(gt.body), len(gt.body[0])
            return {"content": f"```table\ndimensions: {rows} x {cols}\n{body}\n```"}

        cells = re.findall(r"cell (\d+): row = (.*?); column = (.*?)\n", prompt + "\n")
        values = {
            (" > ".join(lp), " > ".join(tp)): value
            for (_, lp), row in zip(gt.left.leaves, gt.body)
            for (_, tp), value in zip(gt.top.leaves, row)
        }
        entries = []
        for n, row_path, col_path in cells:
            value = values[(row_path, col_path)]
            if wrong_value and col_path == "Q1 2023":
                value = wrong_value
            entries.append({"cell": int(n), "value": value, "sentences": [1], "note": None})
        return {"content": fill_response(entries)}

    return handler


class TestRunTabTalk:
    def test_perfect_replay_reproduces_groundtruth(self):
        gt = make_gt()
        chat = ChatProvider(ScriptedProvider(perfect_handler(gt)))
        result = run_tabtalk(QUESTION, SENTENCES, chat)
        assert result.table == gt
        assert teds(result.table, gt) == 1.0
        assert table_scores([(result.table, gt)])[0]["content_f1"] == 1.0
        assert result.structure_retries == 0 and result.fill_retries == 0

    def test_one_wrong_value_keeps_structure(self):
        gt = make_gt()
        chat = ChatProvider(ScriptedProvider(perfect_handler(gt, wrong_value="$99.9 billion")))
        result = run_tabtalk(QUESTION, SENTENCES, chat)
        assert teds(result.table, gt) == 1.0
        assert table_scores([(result.table, gt)])[0]["content_f1"] < 1.0

    def test_malformed_structure_then_valid_retry(self):
        gt = make_gt()
        chat = ChatProvider(ScriptedProvider(perfect_handler(gt, garbage_first=True)))
        result = run_tabtalk(QUESTION, SENTENCES, chat)
        assert result.table == gt
        assert result.structure_retries == 1

    def test_exhausted_retries_fail_the_stage(self):
        chat = ChatProvider(ScriptedProvider(lambda req: {"content": "never a block"}))
        with pytest.raises(StageFailure) as excinfo:
            run_tabtalk(QUESTION, SENTENCES, chat)
        assert excinfo.value.stage == "structure"
        assert "no fenced code block" in str(excinfo.value)

    def test_gate_soundness_table_always_validates(self):
        gt = make_gt()
        chat = ChatProvider(ScriptedProvider(perfect_handler(gt)))
        # HierarchicalTable raises on a body that does not fit its header trees.
        run_tabtalk(QUESTION, SENTENCES, chat)

    def test_citation_closure(self):
        gt = make_gt()
        chat = ChatProvider(ScriptedProvider(perfect_handler(gt)))
        result = run_tabtalk(QUESTION, SENTENCES, chat)
        retrieved = {sid for sid, _ in SENTENCES}
        for record in result.trace.records:
            assert set(record.sentence_ids) <= retrieved

    def test_rows_fill_one_after_another_on_the_calling_thread(self):
        # Two body rows: two fill prompts, sent in row order from one thread.
        gt = HierarchicalTable(
            "Metric",
            CoordTree.from_nested([("Acme Corp", ["Revenue", "Net income"])]),
            CoordTree.from_nested(["Q1 2023", "Q2 2023"]),
            (("$12.1 billion", "$13.4 billion"), ("$2.0 billion", "$2.2 billion")),
        )
        inner = perfect_handler(gt)
        calls = []

        def handler(request):
            calls.append((threading.get_ident(), request["messages"][0]["content"]))
            return inner(request)

        result = run_tabtalk(QUESTION, SENTENCES, ChatProvider(ScriptedProvider(handler)))
        assert result.table == gt
        fill_rows = [
            re.search(r"row = (.*?);", prompt).group(1)
            for _, prompt in calls
            if "You fill specific body cells" in prompt
        ]
        assert fill_rows == ["Acme Corp > Revenue", "Acme Corp > Net income"]
        assert {ident for ident, _ in calls} == {threading.get_ident()}

    def test_oneshot_baseline(self):
        gt = make_gt()

        def handler(request):
            return {"content": f"```table\n{serialize_html(gt)}\n```"}

        result = run_tabtalk(
            QUESTION, SENTENCES, ChatProvider(ScriptedProvider(handler)), oneshot=True
        )
        assert result.table == gt
        assert len(result.trace.records) == 2

    def test_uppercase_structure_reply_needs_no_retry(self):
        gt = make_gt()
        inner = perfect_handler(gt)

        def handler(request):
            return {"content": upper_tags(inner(request)["content"])}

        result = run_tabtalk(QUESTION, SENTENCES, ChatProvider(ScriptedProvider(handler)))
        assert result.table == gt
        assert result.structure_retries == 0

    def test_uppercase_oneshot_reply_needs_no_retry(self):
        gt = make_gt()
        reply = f"```table\n{upper_tags(serialize_html(gt))}\n```"
        chat = ChatProvider(ScriptedProvider(lambda request: {"content": reply}))
        result = run_tabtalk(QUESTION, SENTENCES, chat, oneshot=True)
        assert result.table == gt
        assert result.structure_retries == 0
        assert [r.value for r in result.trace.records] == ["$12.1 billion", "$13.4 billion"]

    def test_trace_serialization(self):
        gt = make_gt()
        chat = ChatProvider(ScriptedProvider(perfect_handler(gt)))
        result = run_tabtalk(QUESTION, SENTENCES, chat)
        payload = trace_to_dict(result.table, result.trace)
        assert payload["plan"]["rows"] == 1
        assert len(payload["cells"]) == 2
        json.dumps(payload)  # JSON-serializable

    @pytest.mark.parametrize(
        "block, reason",
        [
            ("dimensions: 1 x 1\n<p>no table</p>", "no <table> element in the fenced block"),
            (
                'dimensions: 1 x 1\n<table><tr><th>a</th><th rowspan="2">b</th></tr>'
                '<tr><th colspan="2">c</th></tr></table>',
                "header skeleton is not a usable table: overlapping spans at row 1, column 1",
            ),
        ],
        ids=["no-table", "overlapping-spans"],
    )
    def test_unusable_skeleton_gets_one_retry_then_a_structure_error_row(
        self, tmp_path, block, reason
    ):
        prompts = []

        def handler(request):
            prompts.append(request["messages"][0]["content"])
            return {"content": f"```table\n{block}\n```"}

        record = RetrievalRecord(
            QUESTION, [QUESTION], [], [(sid, 1.0) for sid, _ in SENTENCES], 5,
            sentence_texts=dict(SENTENCES),
        )
        generated, errors = generate_stage(
            {"q": record}, ChatProvider(ScriptedProvider(handler)), RunConfig(), tmp_path
        )
        assert generated == []
        assert errors == [{"id": "q", "stage": "structure", "error": f"structure stage failed: {reason}"}]
        assert len(prompts) == 2 and f"could not be used: {reason}" in prompts[1]
        assert json.loads((tmp_path / "errors.jsonl").read_text()) == errors[0]

    def test_provider_error_fails_the_stage_without_retry(self):
        gt = make_gt()
        inner = perfect_handler(gt)
        fill_calls = []

        def handler(request):
            prompt = request["messages"][0]["content"]
            if "You fill specific body cells" in prompt:
                fill_calls.append(prompt)
                raise ProviderError("upstream down")
            return inner(request)

        with pytest.raises(StageFailure) as excinfo:
            run_tabtalk(QUESTION, SENTENCES, ChatProvider(ScriptedProvider(handler)))
        assert excinfo.value.stage == "fill"
        assert "upstream down" in str(excinfo.value)
        assert len(fill_calls) == 1


def omitting_handler(gt: HierarchicalTable, row_path: str, col_path: str):
    """A perfect model whose fill reply leaves out the one cell at (row_path, col_path)."""
    inner = perfect_handler(gt)

    def handler(request):
        response = inner(request)
        prompt = request["messages"][0]["content"]
        if "You fill specific body cells" not in prompt:
            return response
        target = f"row = {row_path}; column = {col_path}\n"
        entries = json.loads(extract_fenced_block(response["content"]))
        kept = [e for e in entries if f"cell {e['cell']}: {target}" not in prompt]
        return {"content": fill_response(kept)}

    return handler


class TestAssemble:
    """The body is the fill values, in cell order, reshaped by the column count."""

    def test_complete_trace_round_trips(self):
        gt = make_gt()
        result = run_tabtalk(QUESTION, SENTENCES, ChatProvider(ScriptedProvider(perfect_handler(gt))))
        assert parse_html_table(serialize_html(result.table)) == result.table

    def test_unfilled_cell_preserved_as_empty(self):
        gt = make_gt()
        chat = ChatProvider(ScriptedProvider(omitting_handler(gt, "Acme Corp > Revenue", "Q2 2023")))
        result = run_tabtalk(QUESTION, SENTENCES, chat)
        assert result.table.body == (("$12.1 billion", ""),)
        assert [
            (r.cell.left_key, r.cell.top_key, r.value) for r in result.trace.unfilled
        ] == [(("Acme Corp", "Revenue"), ("Q2 2023",), "")]

    def test_fill_reproduces_the_hierarchical_table(self, example_table):
        # 5 x 6 cells: five one-row fill prompts.
        chat = ChatProvider(ScriptedProvider(perfect_handler(example_table)))
        result = run_tabtalk(QUESTION, SENTENCES, chat)
        assert result.table == example_table
        row_major = [
            (lc, tc) for lc, _ in example_table.left.leaves for tc, _ in example_table.top.leaves
        ]
        assert [(r.cell.left_coord, r.cell.top_coord) for r in result.trace.records] == row_major


class TestQuestionsThroughTheRunMap:
    """``generate_stage`` maps whole questions through ``cli.run_map``; fills stay serial."""

    def generate(self, tmp_path, table: HierarchicalTable, workers: int) -> Path:
        """Six questions answered by ``table`` through a map of ``workers``; their output dir."""
        html = serialize_html(table)
        records = {
            f"q{n}": RetrievalRecord(
                f"{QUESTION} ({n})", [QUESTION], [], [(sid, 1.0) for sid, _ in SENTENCES], 5,
                sentence_texts=dict(SENTENCES),
            )
            for n in range(6)
        }
        transcript = Transcript()
        chat = ChatProvider(RecordingProvider(ScriptedProvider(perfect_handler(table)), transcript))
        out = tmp_path / f"workers-{workers}"
        with run_map(workers) as mapper:
            generated, errors = generate_stage(records, chat, RunConfig(), out, mapper)
        assert errors == []
        assert [serialize_html(t) for _, t in generated] == [html] * len(records)
        transcript.save(out / "transcript.jsonl")
        return out

    def test_three_workers_write_the_serial_bytes_and_transcript(self, tmp_path, example_table):
        serial = self.generate(tmp_path, example_table, 1)
        pooled = self.generate(tmp_path, example_table, 3)
        for name in ("tables.jsonl", "traces.jsonl", "transcript.jsonl"):
            assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name
        row_major = [
            [list(lc), list(tc)]
            for lc, _ in example_table.left.leaves
            for tc, _ in example_table.top.leaves
        ]
        for trace in map(json.loads, (pooled / "traces.jsonl").read_text().splitlines()):
            assert [[cell["left"], cell["top"]] for cell in trace["cells"]] == row_major
