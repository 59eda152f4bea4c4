"""On-disk dataset formats (JSONL) and atomic file writing.

Formats, each with the key that no two of its lines may share:
  documents  {"doc_id": str, "sentences": [str]}  (or {"doc_id", "text"},
             which is segmented with the rule-based splitter); unique doc_id
  tables     {"table_id": str, "doc_id": str, "table_html": str,
              "question": str (optional)}; unique table_id
  triples    {"id": str, "doc_id": str, "question": str, "table_html": str,
              "relevant_sentence_ids": [int]}; unique id
  review     {"table_id": str, "match_id": "row,col",
              "status": "confirmed" | "rejected"}; a repeated
             (table_id, match_id) pair keeps its last status
  retrieval  one RetrievalRecord per line, as ``retrieve`` writes it
             ({"id": str, "question", "sub_questions", "per_question",
              "merged", "k", "degraded", "sentences"}); unique id
  generated  {"id": str, "table_html": str}; unique id

Malformed lines, and a line that repeats an earlier line's unique key,
raise :class:`InputFormatError` naming the file, line and field. All
writes go through a temp file and rename so partial output is never
observed.
"""
from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

from .annotate import QaTriple
from .html_io import TableInputError, TableStructureError, parse_html_table
from .model import HierarchicalTable, TableModelError
from .retrieval import DocumentStore, RetrievalRecord, split_sentences


class InputFormatError(ValueError):
    """An input file violates its declared schema."""

    def __init__(self, path, line: int, field: str, message: str):
        super().__init__(f"{path}:{line}: field {field!r}: {message}")
        self.path = str(path)
        self.line = line
        self.field = field
        self.reason = message

    def to_dict(self) -> dict:
        return {
            "type": "input_format",
            "file": self.path,
            "line": self.line,
            "field": self.field,
            "message": self.reason,
        }


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    lines = [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    rows = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputFormatError(path, number, "<json>", f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InputFormatError(path, number, "<json>", "each line must be a JSON object")
        rows.append((number, obj))
    return rows


def _require(obj: dict, field: str, kind, path, line: int):
    if field not in obj:
        raise InputFormatError(path, line, field, "missing required field")
    value = obj[field]
    if not isinstance(value, kind):
        raise InputFormatError(
            path, line, field, f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def read_documents(path: str | Path) -> dict[str, DocumentStore]:
    """Load documents keyed by doc_id, segmenting raw text when needed."""
    documents: dict[str, DocumentStore] = {}
    for line, obj in read_jsonl(path):
        doc_id = _require(obj, "doc_id", str, path, line)
        if "sentences" in obj:
            sentences = _require(obj, "sentences", list, path, line)
            for i, s in enumerate(sentences):
                if not isinstance(s, str):
                    raise InputFormatError(path, line, f"sentences[{i}]", "expected str")
        elif "text" in obj:
            sentences = split_sentences(_require(obj, "text", str, path, line))
        else:
            raise InputFormatError(path, line, "sentences", "need 'sentences' or 'text'")
        if doc_id in documents:
            raise InputFormatError(path, line, "doc_id", f"duplicate doc_id {doc_id!r}")
        documents[doc_id] = DocumentStore(doc_id, list(sentences))
    return documents


def read_tables(path: str | Path) -> list[dict]:
    """Annotation inputs: table records with ids, the parsed ``table`` and optional questions."""
    records = []
    seen: set[str] = set()
    for line, obj in read_jsonl(path):
        record = {
            "table_id": _require(obj, "table_id", str, path, line),
            "doc_id": _require(obj, "doc_id", str, path, line),
            "table": _require_table(obj, path, line),
            "question": obj.get("question", ""),
        }
        if not isinstance(record["question"], str):
            raise InputFormatError(path, line, "question", "expected str")
        if record["table_id"] in seen:
            raise InputFormatError(
                path, line, "table_id", f"duplicate table_id {record['table_id']!r}"
            )
        seen.add(record["table_id"])
        records.append(record)
    return records


def _require_table(obj: dict, path, line: int) -> HierarchicalTable:
    """The parsed ``table_html`` field; a table that does not parse is an input error."""
    html = _require(obj, "table_html", str, path, line)
    try:
        return parse_html_table(html)
    except (TableInputError, TableStructureError, TableModelError) as exc:
        raise InputFormatError(path, line, "table_html", str(exc)) from exc


def _require_id(obj: dict, path, line: int) -> str:
    item_id = obj.get("id")
    if not isinstance(item_id, str):
        raise InputFormatError(path, line, "id", "missing or non-string id")
    return item_id


def read_triples(path: str | Path) -> list[QaTriple]:
    triples = []
    seen: set[str] = set()
    for line, obj in read_jsonl(path):
        triple_id = _require_id(obj, path, line)
        table = _require_table(obj, path, line)
        ids = obj.get("relevant_sentence_ids", [])
        if not isinstance(ids, list) or any(not isinstance(i, int) for i in ids):
            raise InputFormatError(path, line, "relevant_sentence_ids", "expected [int]")
        triple = QaTriple(
            triple_id=triple_id,
            doc_id=_require(obj, "doc_id", str, path, line),
            question=_require(obj, "question", str, path, line),
            table=table,
            relevant_sentence_ids=tuple(ids),
        )
        if triple_id in seen:
            raise InputFormatError(path, line, "id", f"duplicate id {triple_id!r}")
        seen.add(triple_id)
        triples.append(triple)
    return triples


def read_review(path: str | Path) -> dict[str, dict[str, str]]:
    """Review decisions: table_id -> match_id -> confirmed/rejected."""
    decisions: dict[str, dict[str, str]] = {}
    for line, obj in read_jsonl(path):
        table_id = _require(obj, "table_id", str, path, line)
        match_id = _require(obj, "match_id", str, path, line)
        status = _require(obj, "status", str, path, line)
        if status not in ("confirmed", "rejected"):
            raise InputFormatError(path, line, "status", f"unknown status {status!r}")
        decisions.setdefault(table_id, {})[match_id] = status
    return decisions


def read_retrieval_records(path: str | Path) -> dict[str, RetrievalRecord]:
    """Saved retrieval output: id -> record, each merged sentence id with its text."""
    records: dict[str, RetrievalRecord] = {}
    for line, obj in read_jsonl(path):
        item_id = _require_id(obj, path, line)
        try:
            record = RetrievalRecord.from_dict(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(path, line, "<record>", f"malformed record: {exc}") from exc
        missing = [sid for sid in record.merged_ids() if sid not in record.sentence_texts]
        if missing:
            raise InputFormatError(
                path, line, "sentences", f"no text for merged sentence id {missing[0]}"
            )
        if item_id in records:
            raise InputFormatError(path, line, "id", f"duplicate id {item_id!r}")
        records[item_id] = record
    return records


def read_generated_tables(path: str | Path) -> dict[str, HierarchicalTable]:
    """Generated outputs: id -> parsed table_html."""
    tables: dict[str, HierarchicalTable] = {}
    for line, obj in read_jsonl(path):
        item_id = _require_id(obj, path, line)
        table = _require_table(obj, path, line)
        if item_id in tables:
            raise InputFormatError(path, line, "id", f"duplicate id {item_id!r}")
        tables[item_id] = table
    return tables
