from __future__ import annotations

import json
import os
import re
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doc2table.data import (
    InputFormatError,
    atomic_write_text,
    read_documents,
    read_generated_tables,
    read_jsonl,
    read_retrieval_records,
    read_review,
    read_tables,
    read_triples,
    split_sentences,
    write_json,
    write_jsonl,
)
from doc2table.html_io import serialize_html
from doc2table.providers import Transcript

from conftest import make_flat_table
from oracles import reference_split_sentences

# Words, abbreviations, punctuation runs, brackets, quotes and Unicode spaces
# that the splitter's rules turn on.
SPLITTER_PIECES = [
    "Revenue", "it", "5", "10.5", "Q4", "vs.", "Fig.", "U.S.", "e.g.", "(vs.", "\"Dr.", "[etc.",
    ".", "..", "?", "!", "?!", "(", ")", "'", " ", "  ", "\n", "\u00a0", "\u2028", "\t", "A", "z",
]


class TestAtomicWrites:
    def test_write_and_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "sub" / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        leftovers = [p for p in path.parent.iterdir() if p.name != "out.txt"]
        assert leftovers == []

    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "a lone \ud800 surrogate")  # strict UTF-8 cannot encode it
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "old\n"

    def test_write_json_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"z": 1, "a": [1.5, 2]})
        write_json(b, {"a": [1.5, 2], "z": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_write_jsonl_single_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"b": 1, "a": 2}, {"x": "y"}])
        lines = path.read_text().splitlines()
        assert lines == ['{"a":2,"b":1}', '{"x":"y"}']

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_outputs_and_transcripts_get_the_mode_the_umask_allows(self, tmp_path, umask, mode):
        transcript = Transcript(provider="p")
        transcript.record({"x": 1}, {"y": 1})
        previous = os.umask(umask)
        try:
            write_jsonl(tmp_path / "rows.jsonl", [{"a": 1}])
            transcript.save(tmp_path / "transcript.jsonl")
        finally:
            os.umask(previous)
        for name in ("rows.jsonl", "transcript.jsonl"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


class TestSplitSentences:
    def test_two_sentences(self):
        assert split_sentences("Revenue was $10. It grew 5%.") == [
            "Revenue was $10.",
            "It grew 5%.",
        ]

    def test_protected_abbreviations(self):
        text = "Q2 rev. grew vs. Q1."
        assert split_sentences(text) == [text]

    def test_empty_input(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_no_split_inside_parentheses(self):
        text = "The total (see $5. Notes) was fine. Next topic."
        assert split_sentences(text) == [
            "The total (see $5. Notes) was fine.",
            "Next topic.",
        ]

    def test_decimal_numbers_not_split(self):
        assert split_sentences("Revenue hit $10.5 million.") == ["Revenue hit $10.5 million."]

    def test_split_requires_capital_or_digit(self):
        assert split_sentences("it grew. then it fell.") == ["it grew. then it fell."]
        assert split_sentences("It grew. 5 analysts agreed.") == [
            "It grew.",
            "5 analysts agreed.",
        ]

    def test_question_and_exclamation(self):
        assert split_sentences("Why? Because. Growth!") == ["Why?", "Because.", "Growth!"]

    @given(st.lists(st.sampled_from(SPLITTER_PIECES), max_size=40).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_same_sentences_as_the_whole_text_search_reference(self, text):
        assert split_sentences(text) == reference_split_sentences(text)

    def test_long_text_splits_in_linear_time(self):
        # The whole-text search took minutes on this; the walk back takes well under a second.
        text = " ".join(f"Sales in unit {n} (see Fig. {n}) rose vs. Q3. Costs fell." for n in range(20000))
        started = time.perf_counter()
        assert len(split_sentences(text)) == 40000
        assert time.perf_counter() - started < 10


class TestDocuments:
    def test_sentences_form(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"doc_id": "d", "sentences": ["One.", "Two."]}) + "\n")
        docs = read_documents(path)
        assert docs["d"] == ["One.", "Two."]

    def test_raw_text_is_segmented(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"doc_id": "d", "text": "First one. Second one."}) + "\n")
        docs = read_documents(path)
        assert docs["d"] == ["First one.", "Second one."]

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        row = json.dumps({"doc_id": "d", "sentences": ["x"]})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(InputFormatError) as excinfo:
            read_documents(path)
        assert excinfo.value.line == 2
        assert excinfo.value.field == "doc_id"

    def test_missing_field_names_file_line_field(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"doc_id": "d"}) + "\n")
        with pytest.raises(InputFormatError) as excinfo:
            read_documents(path)
        assert excinfo.value.field == "sentences"
        assert str(path) in str(excinfo.value)
        report = excinfo.value.to_dict()
        assert report["line"] == 1 and report["type"] == "input_format"

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(InputFormatError) as excinfo:
            read_documents(path)
        assert excinfo.value.line == 1


    def test_non_string_sentence_is_named(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"doc_id": "d", "sentences": ["One.", 2]}) + "\n")
        with pytest.raises(InputFormatError) as excinfo:
            read_documents(path)
        assert (excinfo.value.line, excinfo.value.field) == (1, "sentences[1]")
        assert excinfo.value.reason == "expected str"


class TestLineReading:
    """Lines end at "\\n" only, the JSON Lines separator; a CRLF line reads as its LF form."""

    SEPARATORS = "\u2028\u2029\x85"  # str.splitlines() breaks at each of these

    def test_unicode_line_separators_inside_strings_read_intact(self, tmp_path):
        sentences = [f"Revenue{sep}rose." for sep in self.SEPARATORS]
        docs = tmp_path / "docs.jsonl"
        docs.write_text(
            json.dumps({"doc_id": "d", "sentences": sentences}, ensure_ascii=False) + "\n"
            + json.dumps({"doc_id": "e", "sentences": ["After."]}) + "\n",
            encoding="utf-8",
        )
        assert "\u2028".encode() in docs.read_bytes()  # raw, not escaped
        assert read_documents(docs) == {
            "d": sentences, "e": ["After."]
        }

        question = f"What{self.SEPARATORS}rose?"
        row = {"id": "t", "doc_id": "d", "question": question,
               "table_html": serialize_html(make_flat_table(1, 1)), "relevant_sentence_ids": [0]}
        triples = tmp_path / "triples.jsonl"
        triples.write_text(
            "".join(json.dumps({**row, "id": i}, ensure_ascii=False) + "\n" for i in "tu"),
            encoding="utf-8",
        )
        assert [(t.triple_id, t.question) for t in read_triples(triples)] == [
            ("t", question), ("u", question)
        ]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_crlf_lines_read_and_errors_keep_their_line_numbers(self, tmp_path, newline):
        rows = [json.dumps({"doc_id": d, "sentences": [d]}) for d in "ab"]
        path = tmp_path / "docs.jsonl"
        path.write_bytes(newline.join([rows[0], "", rows[1], ""]).encode())
        assert read_documents(path) == {"a": ["a"], "b": ["b"]}
        for bad, field in [("{not json", "<json>"), (rows[0], "doc_id")]:
            path.write_bytes(newline.join([rows[0], "", rows[1], bad, ""]).encode())
            with pytest.raises(InputFormatError) as excinfo:
                read_documents(path)
            assert (excinfo.value.line, excinfo.value.field) == (4, field)

        transcript = tmp_path / "transcript.jsonl"
        lines = ['{"meta":{"provider":"p"}}', '{"fingerprint":"f","response":{}}', "[1]", ""]
        transcript.write_bytes(newline.join(lines).encode())
        with pytest.raises(ValueError, match=f"^{re.escape(str(transcript))}, line 3: "):
            Transcript.load(transcript)

    def test_invalid_utf8_names_its_line(self, tmp_path):
        rows = [json.dumps({"doc_id": d, "sentences": [f"Revenue in {d}."]}).encode() for d in "abc"]
        path = tmp_path / "docs.jsonl"
        path.write_bytes(b"\n".join([rows[0], rows[1].replace(b"Revenue", b"R\xe9venue"), rows[2], b""]))
        with pytest.raises(InputFormatError) as excinfo:
            read_documents(path)
        assert (excinfo.value.line, excinfo.value.field) == (2, "<json>")
        assert excinfo.value.reason.startswith("invalid UTF-8: ")
        # a bad line before it is still the first error
        path.write_bytes(b"\n".join([b"{not json", rows[1].replace(b"Revenue", b"R\xe9venue"), b""]))
        with pytest.raises(InputFormatError, match="invalid JSON") as excinfo:
            read_documents(path)
        assert excinfo.value.line == 1

        transcript = tmp_path / "transcript.jsonl"
        transcript.write_bytes(b'{"meta":{"provider":"p"}}\n{"fingerprint":"\xe9","response":{}}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(transcript))}, line 2: invalid UTF-8"):
            Transcript.load(transcript)

    def test_invalid_utf8_after_thousands_of_long_lines_names_its_line(self, tmp_path):
        # 2,000 lines of 1 kB each: far past any decoder's read-ahead
        row = json.dumps({"doc_id": "d", "sentences": ["Revenue rose. " * 70]}).encode()
        path = tmp_path / "docs.jsonl"
        bad = row.replace(b"Revenue", b"R\xe9venue", 1)
        path.write_bytes(b"\n".join([row] * 2000 + [bad, row, b""]))
        read = []
        with pytest.raises(InputFormatError) as excinfo:
            for number, _ in read_jsonl(path):
                read.append(number)
        assert read == list(range(1, 2001))
        assert (excinfo.value.line, excinfo.value.field) == (2001, "<json>")
        assert excinfo.value.reason.startswith("invalid UTF-8: ")


class TestTriples:
    def test_round_trip(self, tmp_path):
        table = make_flat_table(2, 2)
        path = tmp_path / "triples.jsonl"
        write_jsonl(
            path,
            [
                {
                    "id": "t1",
                    "doc_id": "d",
                    "question": "Q?",
                    "table_html": serialize_html(table),
                    "relevant_sentence_ids": [0, 3],
                }
            ],
        )
        triples = read_triples(path)
        assert triples[0].triple_id == "t1"
        assert triples[0].table == table
        assert triples[0].relevant_sentence_ids == (0, 3)

    def test_bad_table_html_names_field(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        write_jsonl(
            path,
            [{"id": "t", "doc_id": "d", "question": "q", "table_html": "<p>no table</p>"}],
        )
        with pytest.raises(InputFormatError) as excinfo:
            read_triples(path)
        assert excinfo.value.field == "table_html"

    def test_non_string_question_is_named(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        write_jsonl(path, [{"id": "t", "doc_id": "d", "question": 5,
                            "table_html": serialize_html(make_flat_table(1, 1))}])
        with pytest.raises(InputFormatError) as excinfo:
            read_triples(path)
        assert (excinfo.value.field, excinfo.value.reason) == ("question", "expected str, got int")

    def test_non_string_id_rejected(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        write_jsonl(path, [{"id": 7, "doc_id": "d", "question": "q", "table_html": "x"}])
        with pytest.raises(InputFormatError) as excinfo:
            read_triples(path)
        assert excinfo.value.field == "id"

    @pytest.mark.parametrize("ids", [[True, 2], [0, -4], [False], [1, "2"], {"0": 1}, 3])
    def test_relevant_ids_must_be_non_negative_integers(self, tmp_path, ids):
        path = tmp_path / "triples.jsonl"
        row = {"id": "t", "doc_id": "d", "question": "q",
               "table_html": serialize_html(make_flat_table(1, 1))}
        write_jsonl(path, [{**row, "relevant_sentence_ids": [0]},
                           {**row, "id": "u", "relevant_sentence_ids": ids}])
        with pytest.raises(InputFormatError) as excinfo:
            read_triples(path)
        assert (excinfo.value.line, excinfo.value.field) == (2, "relevant_sentence_ids")

    def test_duplicate_id_names_its_second_line(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        row = {"id": "t", "doc_id": "d", "question": "q",
               "table_html": serialize_html(make_flat_table(1, 1))}
        write_jsonl(path, [row, {**row, "id": "u"}, {**row, "doc_id": "e"}])
        with pytest.raises(InputFormatError) as excinfo:
            read_triples(path)
        assert (excinfo.value.line, excinfo.value.field) == (3, "id")
        assert excinfo.value.reason == "duplicate id 't'"


class TestTables:
    def test_duplicate_table_id_names_its_second_line(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        row = {"table_id": "t1", "doc_id": "d", "table_html": serialize_html(make_flat_table(1, 1))}
        write_jsonl(path, [row, {**row, "table_id": "t2"}, {**row, "doc_id": "e"}])
        with pytest.raises(InputFormatError) as excinfo:
            read_tables(path, {"d": ["x"]})
        assert (excinfo.value.line, excinfo.value.field) == (3, "table_id")
        assert excinfo.value.reason == "duplicate table_id 't1'"


    def test_non_string_question_is_named(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        row = {"table_id": "t1", "doc_id": "d", "table_html": serialize_html(make_flat_table(1, 1))}
        write_jsonl(path, [row, {**row, "table_id": "t2", "question": ["q"]}])
        with pytest.raises(InputFormatError) as excinfo:
            read_tables(path, {"d": ["x"]})
        assert (excinfo.value.line, excinfo.value.field) == (2, "question")
        assert excinfo.value.reason == "expected str"


class TestGeneratedTables:
    def test_duplicate_id_names_its_second_line(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        html = serialize_html(make_flat_table(1, 1))
        write_jsonl(path, [{"id": "a", "table_html": html}, {"id": "a", "table_html": html}])
        with pytest.raises(InputFormatError) as excinfo:
            read_generated_tables(path, {"a"})
        assert (excinfo.value.line, excinfo.value.field) == (2, "id")
        assert excinfo.value.reason == "duplicate id 'a'"


class TestRetrievalRecords:
    ROW = {
        "question": "q",
        "sub_questions": ["q"],
        "per_question": [[[1, 0.5], [0, 0.25]]],
        "merged": [[1, 0.5], [0, 0.25]],
        "k": 2,
        "sentences": [{"id": 1, "text": "One."}, {"id": 0, "text": "Zero."}],
    }

    def test_duplicate_id_names_its_second_line(self, tmp_path):
        path = tmp_path / "retrieval.jsonl"
        write_jsonl(path, [{"id": item_id, **self.ROW} for item_id in ("a", "b", "a")])
        with pytest.raises(InputFormatError) as excinfo:
            read_retrieval_records(path)
        assert (excinfo.value.line, excinfo.value.field) == (3, "id")
        assert excinfo.value.reason == "duplicate id 'a'"

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"merged": [[1.9, 0.5], [0, 0.25]]}, "merged"),
            ({"merged": [[True, 0.5], [0, 0.25]]}, "merged"),
            ({"merged": [[-3, 0.5], [0, 0.25]]}, "merged"),
            ({"merged": [[1, True], [0, 0.25]]}, "merged"),
            ({"merged": [[1, 0.5, 2], [0, 0.25]]}, "merged"),
            ({"per_question": [[[1, 0.5], [True, 0.25]]]}, "per_question"),
            ({"per_question": [[1, 0.5]]}, "per_question"),
            ({"sentences": [{"id": 1.9, "text": "One."}, {"id": 0, "text": "Zero."}]}, "sentences"),
            ({"sentences": [{"id": True, "text": "One."}, {"id": 0, "text": "Zero."}]}, "sentences"),
            ({"sentences": [{"id": -3, "text": "One."}, {"id": 0, "text": "Zero."}]}, "sentences"),
            ({"sentences": [{"id": 1, "text": 1}, {"id": 0, "text": "Zero."}]}, "sentences"),
            ({"degraded": "false"}, "degraded"),
            ({"degraded": 0}, "degraded"),
            ({"sub_questions": "qq"}, "sub_questions"),
            ({"sub_questions": ["q", 1]}, "sub_questions"),
            ({"question": ["q"]}, "question"),
            ({"k": "10"}, "k"),
            ({"k": -1}, "k"),
            ({"k": 0}, "k"),
            ({"k": 2.0}, "k"),
            ({"k": True}, "k"),
        ],
        ids=[
            "float id", "bool id", "negative id", "bool score", "triple", "bool id in per_question",
            "per_question not nested", "float sentence id", "bool sentence id",
            "negative sentence id", "int sentence text", "degraded as a string",
            "degraded as an int", "sub_questions as a string", "int sub_question",
            "question as a list", "k as a string", "negative k", "zero k", "float k", "bool k",
        ],
    )
    def test_a_mistyped_field_is_named_not_converted(self, tmp_path, change, field):
        path = tmp_path / "retrieval.jsonl"
        write_jsonl(path, [{"id": "a", **self.ROW, **change}])
        with pytest.raises(InputFormatError) as excinfo:
            read_retrieval_records(path)
        assert (excinfo.value.line, excinfo.value.field) == (1, field)
        assert excinfo.value.reason.startswith("expected ")

    @pytest.mark.parametrize("field", ["question", "sub_questions", "per_question", "merged", "k"])
    def test_a_missing_required_field_is_named(self, tmp_path, field):
        row = {"id": "a", **self.ROW}
        del row[field]
        path = tmp_path / "retrieval.jsonl"
        write_jsonl(path, [row])
        with pytest.raises(InputFormatError) as excinfo:
            read_retrieval_records(path)
        assert (excinfo.value.line, excinfo.value.field) == (1, field)
        assert excinfo.value.reason == "missing required field"

    def test_optional_fields_default_and_values_keep_their_types(self, tmp_path):
        path = tmp_path / "retrieval.jsonl"
        write_jsonl(path, [{"id": "a", **self.ROW, "merged": [[1, 1], [0, 0.25]]}])
        record = read_retrieval_records(path)["a"]
        assert record.degraded is False
        assert record.merged == [(1, 1), (0, 0.25)]
        assert type(record.merged[0][1]) is int
        assert record.sentence_texts == {1: "One.", 0: "Zero."}

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"question": ""}, "question"),
            ({"question": " \t\n"}, "question"),
            ({"merged": [[1, 0.5], [0, 0.25], [1, 0.5]]}, "merged"),
            ({"merged": [[0, 0.5], [0, 0.25]]}, "merged"),
        ],
        ids=["empty question", "whitespace question", "merged id repeated", "merged id twice, scores differ"],
    )
    def test_a_blank_question_or_a_repeated_merged_id_names_its_line_and_field(
        self, tmp_path, change, field
    ):
        path = tmp_path / "retrieval.jsonl"
        write_jsonl(path, [{"id": "a", **self.ROW}, {"id": "b", **self.ROW, **change}])
        with pytest.raises(InputFormatError) as excinfo:
            read_retrieval_records(path)
        assert (excinfo.value.line, excinfo.value.field) == (2, field)
        assert excinfo.value.reason == {
            "question": "expected a string that is not blank",
            "merged": "expected a list of [sentence id, score] pairs, no id twice",
        }[field]

    @pytest.mark.parametrize("sentences", [None, [{"id": 1, "text": "One."}]])
    def test_merged_id_without_text_names_sentences(self, tmp_path, sentences):
        row = {"id": "a", **self.ROW, "sentences": sentences}
        if sentences is None:
            del row["sentences"]
        path = tmp_path / "retrieval.jsonl"
        write_jsonl(path, [row])
        with pytest.raises(InputFormatError) as excinfo:
            read_retrieval_records(path)
        assert (excinfo.value.line, excinfo.value.field) == (1, "sentences")
        assert excinfo.value.reason == f"no text for merged sentence id {0 if sentences else 1}"


class TestKeyedReaders:
    """Every keyed format checks a line's key, then its other fields, then repeats,
    then the ids it refers to in the file it is read against.

    Each format's repeat check has its own test above.
    """

    HTML = serialize_html(make_flat_table(1, 1))
    # name: (reader, key, a valid row without its key, a field-level defect, the field it names)
    READERS = {
        "documents": (read_documents, "doc_id", {"sentences": ["x"]}, {"sentences": 3}, "sentences"),
        "tables": (
            partial(read_tables, documents={"d": ["x"]}), "table_id",
            {"doc_id": "d", "table_html": HTML}, {"table_html": 3}, "table_html",
        ),
        "triples": (
            partial(read_triples, documents={"d": ["x"]}), "id",
            {"doc_id": "d", "question": "q", "table_html": HTML}, {"table_html": 3}, "table_html",
        ),
        "retrieval": (
            read_retrieval_records, "id", TestRetrievalRecords.ROW, {"merged": [[9, 0.1]]},
            "sentences",
        ),
        "generated": (
            partial(read_generated_tables, known={"a"}), "id", {"table_html": HTML},
            {"table_html": 3}, "table_html",
        ),
    }

    def fail(self, tmp_path, name: str, rows: list[dict]) -> InputFormatError:
        path = tmp_path / f"{name}.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(InputFormatError) as excinfo:
            self.READERS[name][0](path)
        assert excinfo.value.path == str(path)
        return excinfo.value

    @pytest.mark.parametrize("name", sorted(READERS))
    @pytest.mark.parametrize(
        "key_value, reason", [(None, "missing required field"), (7, "expected str, got int")]
    )
    def test_bad_key_is_reported_before_a_bad_field(self, tmp_path, name, key_value, reason):
        _, key, row, defect, _ = self.READERS[name]
        bad = {**row, **defect} if key_value is None else {**row, **defect, key: key_value}
        error = self.fail(tmp_path, name, [{key: "a", **row}, bad])
        assert (error.line, error.field, error.reason) == (2, key, reason)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_bad_field_is_reported_before_a_repeated_key(self, tmp_path, name):
        _, key, row, defect, field = self.READERS[name]
        error = self.fail(tmp_path, name, [{key: "a", **row}, {key: "a", **row, **defect}])
        assert (error.line, error.field) == (2, field)

    @pytest.mark.parametrize("name", ["tables", "triples"])
    def test_repeated_key_is_reported_before_an_unknown_reference(self, tmp_path, name):
        _, key, row, _, _ = self.READERS[name]
        error = self.fail(tmp_path, name, [{key: "a", **row}, {key: "a", **row, "doc_id": "e"}])
        assert (error.line, error.field, error.reason) == (2, key, f"duplicate {key} 'a'")

    @pytest.mark.parametrize("name", ["tables", "triples", "generated"])
    def test_unknown_reference_is_reported_before_a_later_bad_line(self, tmp_path, name):
        _, key, row, defect, _ = self.READERS[name]
        unknown = {key: "b", **row} if name == "generated" else {key: "b", **row, "doc_id": "e"}
        error = self.fail(tmp_path, name, [{key: "a", **row}, unknown, {key: "c", **row, **defect}])
        field = "id" if name == "generated" else "doc_id"
        assert (error.line, error.field) == (2, field)
        assert error.reason == f"unknown {field} {unknown[field]!r}"


class TestReview:
    # bodies of 3 x 2 and 1 x 1 cells
    TABLES = {"t1": make_flat_table(3, 2), "t2": make_flat_table(1, 1)}

    def test_decisions_grouped_by_table(self, tmp_path):
        path = tmp_path / "review.jsonl"
        write_jsonl(
            path,
            [
                {"table_id": "t1", "match_id": "0,0", "status": "confirmed"},
                {"table_id": "t1", "match_id": "2,1", "status": "rejected"},
                {"table_id": "t2", "match_id": "0,0", "status": "rejected"},
            ],
        )
        decisions = read_review(path, self.TABLES)
        assert decisions == {
            "t1": {"0,0": "confirmed", "2,1": "rejected"},
            "t2": {"0,0": "rejected"},
        }

    def test_unknown_status_rejected(self, tmp_path):
        path = tmp_path / "review.jsonl"
        write_jsonl(path, [{"table_id": "t1", "match_id": "0,0", "status": "maybe"}])
        with pytest.raises(InputFormatError) as excinfo:
            read_review(path, self.TABLES)
        assert excinfo.value.field == "status"

    def test_repeated_match_names_its_line(self, tmp_path):
        path = tmp_path / "review.jsonl"
        write_jsonl(
            path,
            [
                {"table_id": "t1", "match_id": "0,0", "status": "confirmed"},
                {"table_id": "t2", "match_id": "0,0", "status": "rejected"},
                {"table_id": "t1", "match_id": "0,0", "status": "rejected"},
            ],
        )
        with pytest.raises(InputFormatError) as excinfo:
            read_review(path, self.TABLES)
        assert (excinfo.value.line, excinfo.value.field) == (3, "match_id")
        assert excinfo.value.reason == "duplicate match_id '0,0' for table_id 't1'"

    def test_unknown_table_id_names_its_line(self, tmp_path):
        path = tmp_path / "review.jsonl"
        write_jsonl(
            path,
            [
                {"table_id": "t1", "match_id": "0,0", "status": "confirmed"},
                {"table_id": "no_such_table", "match_id": "0,0", "status": "rejected"},
            ],
        )
        with pytest.raises(InputFormatError) as excinfo:
            read_review(path, self.TABLES)
        assert (excinfo.value.line, excinfo.value.field) == (2, "table_id")
        assert excinfo.value.reason == "unknown table_id 'no_such_table'"

    @pytest.mark.parametrize("match_id", ["9,9", "3,0", "0,2", "2, 1", "02,1", "a,b", "2", "2,1,0", "٢,1"])
    def test_match_id_that_names_no_body_cell_names_its_line(self, tmp_path, match_id):
        path = tmp_path / "review.jsonl"
        write_jsonl(
            path,
            [
                {"table_id": "t1", "match_id": "2,1", "status": "confirmed"},
                {"table_id": "t1", "match_id": match_id, "status": "rejected"},
            ],
        )
        with pytest.raises(InputFormatError) as excinfo:
            read_review(path, self.TABLES)
        assert (excinfo.value.line, excinfo.value.field) == (2, "match_id")
        assert excinfo.value.reason == (
            f"match_id {match_id!r} names no body cell of table 't1', whose body is 3 x 2"
        )

    def test_format_fault_is_reported_before_the_references(self, tmp_path):
        path = tmp_path / "review.jsonl"
        write_jsonl(path, [{"table_id": "no_such_table", "match_id": "a,b", "status": "maybe"}])
        with pytest.raises(InputFormatError) as excinfo:
            read_review(path, self.TABLES)
        assert (excinfo.value.line, excinfo.value.field) == (1, "status")
