"""Dataset records, their on-disk formats (JSONL) and atomic file writing.

A document is its list of raw sentences, a sentence's id its index. The
other records live beside their readers: :class:`QaTriple` is a triples
line, :class:`RetrievalRecord` a retrieval line (its ``to_dict`` writes
one). Only ``model`` and ``html_io`` are imported: reading loads no stage.

Formats, each with the key that no two of its lines may share and, after
the ";", what a line must refer to in the file it is read against:
  documents  {"doc_id": str, "sentences": [str]}  (or {"doc_id", "text"},
             which :func:`split_sentences` segments); unique doc_id
  tables     {"table_id": str, "doc_id": str, "table_html": str,
              "question": str, not blank}; unique table_id; a known doc_id
  triples    {"id": str, "doc_id": str, "question": str, not blank,
              "table_html": str, "relevant_sentence_ids": [int >= 0]};
             unique id; given the documents, a known doc_id and relevant
             ids below that document's sentence count
  review     {"table_id": str, "match_id": "row,col",
              "status": "confirmed" | "rejected"}; unique
             (table_id, match_id) pair; a known table_id, and a match_id
             "row,col" ("2,1", not "2, 1") naming a body cell of that table,
             with or without a candidate match (then it changes nothing)
  retrieval  one RetrievalRecord per line, as ``retrieve`` writes it:
             {"id": str, "question": str, "sub_questions": [str],
              "per_question": [[[sid, score]]], "merged": [[sid, score]],
              "k": int >= 1, "degraded": bool (optional, false),
              "sentences": [{"id": sid, "text": str}] (optional)}, where a
             sid is an int >= 0 and a score an int or float; unique id; a
             non-blank question, and each merged sid once, with its text
  generated  {"id": str, "table_html": str}; unique id; an id of a
             ground-truth triple

Every file is read by :func:`read_jsonl`, one line at a time. Lines end at
"\\n" only, the JSON Lines separator: a raw U+2028, U+2029 or U+0085 stays
inside its string, and the "\\r" of a CRLF line is stripped. Malformed
lines (invalid UTF-8 or JSON, or a bad field), and a line that repeats
an earlier line's unique key, raise :class:`InputFormatError` naming the
file, line and field; a repeated review pair names its ``match_id``.
Types are exact and nothing is converted: ``true`` is not an int, nor
``1.0``. Every format but review is read through ``_read_keyed``, which
checks a line's key, then its other fields, then whether an earlier line
used the key, then what the line refers to (an :class:`InputFormatError`
too); :func:`read_review` checks its lines in the same order. A line is
checked in full before the next is read, so a file's first bad line is the
one reported, whatever its fault. All writes go through a temp file and
rename so partial output is never observed.
"""
from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .html_io import parse_html_table
from .model import HierarchicalTable, TableError


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


@dataclass(frozen=True)
class QaTriple:
    """One triples line: a question, its document and its ground-truth table."""

    triple_id: str
    doc_id: str
    question: str
    table: HierarchicalTable
    relevant_sentence_ids: tuple[int, ...]


@dataclass
class RetrievalRecord:
    """One retrieval line: the ranked sentences of one question."""

    question: str
    sub_questions: list[str]
    # Per sub-question, the first max(k, retrieval.RANKING_DEPTH) (sentence_id,
    # score) pairs of the full ranking by (-score, id); all of them if fewer.
    per_question: list[list[tuple[int, float]]]
    merged: list[tuple[int, float]]  # deduplicated merged ranking, length <= k
    k: int
    degraded: bool = False
    sentence_texts: dict[int, str] = field(default_factory=dict)  # raw text per merged id

    def merged_ids(self) -> list[int]:
        return [sid for sid, _ in self.merged]

    def to_dict(self) -> dict:
        """The line :func:`read_retrieval_records` reads back, without its ``id``."""
        # Scores are already quantized by retrieve_top_k: stable bytes across BLAS variants.
        return {
            "question": self.question,
            "sub_questions": list(self.sub_questions),
            "per_question": [[list(pair) for pair in ranked] for ranked in self.per_question],
            "merged": [list(pair) for pair in self.merged],
            "k": self.k,
            "degraded": self.degraded,
            "sentences": [{"id": sid, "text": self.sentence_texts[sid]} for sid in self.merged_ids()],
        }


DEFAULT_ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "prof.", "st.", "vs.", "etc.", "inc.", "ltd.",
        "co.", "corp.", "no.", "nos.", "fig.", "figs.", "est.", "approx.", "dept.",
        "rev.", "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
        "sept.", "oct.", "nov.", "dec.", "u.s.", "e.g.", "i.e.", "cf.", "al.",
    }
)
_SPLIT_CANDIDATE = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")


def split_sentences(text: str) -> list[str]:
    """Deterministic rule-based sentence segmentation of a document's ``text``.

    Splits after sentence-final punctuation followed by whitespace and a
    capital letter or digit, except when the preceding token is one of
    :data:`DEFAULT_ABBREVIATIONS` or when parentheses opened earlier are
    still unclosed. The token before a candidate cut is found by walking
    back from the cut, not by searching all the text before it.
    """
    cut_points = [0]
    balance_upto = 0
    balance = 0
    for match in _SPLIT_CANDIDATE.finditer(text):
        end = match.end()
        for ch in text[balance_upto:end]:
            if ch == "(":
                balance += 1
            elif ch == ")":
                balance = max(0, balance - 1)
        balance_upto = end
        if balance > 0:
            continue
        if "." in match.group(0):
            start = end  # back to the start of the token the candidate ends
            while start and not text[start - 1].isspace():
                start -= 1
            if text[start:end].lstrip("(\"'[").lower() in DEFAULT_ABBREVIATIONS:
                continue
        cut_points.append(end)
    cut_points.append(len(text))
    pieces = (text[cut:next_cut].strip() for cut, next_cut in zip(cut_points, cut_points[1:]))
    return [piece for piece in pieces if piece]


def canonical_json(payload) -> str:
    """The one-line JSON encoding of ``payload``: sorted keys, no spaces, ASCII only."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    # mode 0o666 less the umask, as open(path, "w") gives; mkstemp would give 0o600
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
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
    lines = [canonical_json(row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(1-based line number, JSON object) for each non-blank line, read and decoded one at a time."""
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise InputFormatError(path, number, "<json>", f"invalid UTF-8: {exc}") from None
            if line:
                yield number, _json_object(line, path, number)


def _json_object(line: str, path, number: int) -> dict:
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InputFormatError(path, number, "<json>", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputFormatError(path, number, "<json>", "expected a JSON object")
    return obj


def _require(obj: dict, field: str, kind, path, line: int):
    if field not in obj:
        raise InputFormatError(path, line, field, "missing required field")
    value = obj[field]
    if not isinstance(value, kind):
        raise InputFormatError(
            path, line, field, f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _is_id(value) -> bool:
    """A sentence id: a non-negative int; JSON true and false decode to bool, which is not one."""
    return type(value) is int and value >= 0


def _is_ranking(value) -> bool:
    """A list of [sentence id, score] pairs; a score is an int or a float, not a bool."""
    return type(value) is list and all(
        type(p) is list and len(p) == 2 and _is_id(p[0]) and type(p[1]) in (int, float) for p in value
    )


# Each field of a retrieval line: what it must be, and the test for that.
_RETRIEVAL_FIELDS = {
    "question": ("a string that is not blank", lambda v: type(v) is str and v.strip()),
    "sub_questions": ("a list of strings", lambda v: type(v) is list and all(type(q) is str for q in v)),
    "per_question": ("a list of rankings", lambda v: type(v) is list and all(map(_is_ranking, v))),
    "merged": ("a list of [sentence id, score] pairs, no id twice",
               lambda v: _is_ranking(v) and len({sid for sid, _ in v}) == len(v)),
    "k": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "degraded": ("true or false", lambda v: type(v) is bool),
    "sentences": ('a list of {"id": sentence id, "text": string}', lambda v: type(v) is list and all(
        type(s) is dict and _is_id(s.get("id")) and type(s.get("text")) is str for s in v
    )),
}


def _read_keyed(path: str | Path, key: str, parse, check) -> dict:
    """Each line of ``path`` parsed by ``parse(obj, line)``, keyed by its str ``key`` field.

    Per line the key is checked first, then ``parse`` checks the other
    fields, then a key that an earlier line already used is rejected, and
    last ``check(key, item, line)``, unless None, checks the line's references.
    """
    items: dict = {}
    for line, obj in read_jsonl(path):
        item_key = _require(obj, key, str, path, line)
        item = parse(obj, line)
        if item_key in items:
            raise InputFormatError(path, line, key, f"duplicate {key} {item_key!r}")
        if check is not None:
            check(item_key, item, line)
        items[item_key] = item
    return items


def _require_known(value: str, field: str, known, path, line: int) -> None:
    if value not in known:
        raise InputFormatError(path, line, field, f"unknown {field} {value!r}")


def read_documents(path: str | Path) -> dict[str, list[str]]:
    """Each document's sentences keyed by doc_id, segmenting raw text when needed."""

    def parse(obj: dict, line: int) -> list[str]:
        if "sentences" in obj:
            sentences = _require(obj, "sentences", list, path, line)
            for i, s in enumerate(sentences):
                if not isinstance(s, str):
                    raise InputFormatError(path, line, f"sentences[{i}]", "expected str")
            return sentences
        if "text" in obj:
            return split_sentences(_require(obj, "text", str, path, line))
        raise InputFormatError(path, line, "sentences", "need 'sentences' or 'text'")

    return _read_keyed(path, "doc_id", parse, None)


def read_tables(path: str | Path, documents: dict[str, list[str]]) -> list[dict]:
    """Annotation inputs: table records with ids, the parsed ``table`` and their questions.

    The question is required and not blank, as in a triples line: each
    retained table is written out as one.
    """

    def parse(obj: dict, line: int) -> dict:
        record = {
            "table_id": obj["table_id"],
            "doc_id": _require(obj, "doc_id", str, path, line),
            "table": _require_table(obj, path, line),
            "question": _require(obj, "question", str, path, line),
        }
        if not record["question"].strip():
            raise InputFormatError(path, line, "question", "question is blank")
        return record

    def check(_, record: dict, line: int) -> None:
        _require_known(record["doc_id"], "doc_id", documents, path, line)

    return list(_read_keyed(path, "table_id", parse, check).values())


def _require_table(obj: dict, path, line: int) -> HierarchicalTable:
    """The parsed ``table_html`` field; a table that does not parse is an input error."""
    html = _require(obj, "table_html", str, path, line)
    try:
        return parse_html_table(html)
    except TableError as exc:
        raise InputFormatError(path, line, "table_html", str(exc)) from exc


def read_triples(path: str | Path, documents: dict[str, list[str]] | None = None) -> list[QaTriple]:
    """Question-table triples in file order; their references are checked if ``documents`` is given."""

    def parse(obj: dict, line: int) -> QaTriple:
        table = _require_table(obj, path, line)
        ids = obj.get("relevant_sentence_ids", [])
        if type(ids) is not list or not all(map(_is_id, ids)):
            raise InputFormatError(
                path, line, "relevant_sentence_ids", "expected a list of non-negative integers"
            )
        doc_id = _require(obj, "doc_id", str, path, line)
        question = _require(obj, "question", str, path, line)
        if not question.strip():
            raise InputFormatError(path, line, "question", "question is blank")
        return QaTriple(obj["id"], doc_id, question, table, tuple(ids))

    def check(_, triple: QaTriple, line: int) -> None:
        _require_known(triple.doc_id, "doc_id", documents, path, line)
        count, last = len(documents[triple.doc_id]), max(triple.relevant_sentence_ids, default=-1)
        if last >= count:
            message = f"no sentence {last} in document {triple.doc_id!r}, which has {count}"
            raise InputFormatError(path, line, "relevant_sentence_ids", message)

    return list(_read_keyed(path, "id", parse, None if documents is None else check).values())


def read_review(path: str | Path, tables: dict[str, HierarchicalTable]) -> dict[str, dict[str, str]]:
    """Review decisions: table_id -> match_id -> confirmed/rejected, checked against ``tables`` by id."""
    decisions: dict[str, dict[str, str]] = {}
    for line, obj in read_jsonl(path):
        table_id = _require(obj, "table_id", str, path, line)
        match_id = _require(obj, "match_id", str, path, line)
        status = _require(obj, "status", str, path, line)
        if status not in ("confirmed", "rejected"):
            raise InputFormatError(path, line, "status", f"unknown status {status!r}")
        table = decisions.setdefault(table_id, {})
        if match_id in table:
            raise InputFormatError(
                path, line, "match_id", f"duplicate match_id {match_id!r} for table_id {table_id!r}"
            )
        _require_known(table_id, "table_id", tables, path, line)
        body = tables[table_id].body
        cell = re.fullmatch(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", match_id)  # as CellMatch writes it
        if not (cell and int(cell[1]) < len(body) and int(cell[2]) < len(body[0])):
            message = f"names no body cell of table {table_id!r}, whose body is {len(body)} x {len(body[0])}"
            raise InputFormatError(path, line, "match_id", f"match_id {match_id!r} {message}")
        table[match_id] = status
    return decisions


def read_retrieval_records(path: str | Path) -> dict[str, RetrievalRecord]:
    """Saved retrieval output: id -> record, each merged sentence id with its text."""

    def parse(obj: dict, line: int) -> RetrievalRecord:
        obj = {"degraded": False, "sentences": [], **obj}
        for field, (expected, valid) in _RETRIEVAL_FIELDS.items():
            if not valid(obj.get(field)):
                reason = f"expected {expected}" if field in obj else "missing required field"
                raise InputFormatError(path, line, field, reason)
        record = RetrievalRecord(
            obj["question"],
            obj["sub_questions"],
            [list(map(tuple, ranked)) for ranked in obj["per_question"]],
            list(map(tuple, obj["merged"])),
            obj["k"],
            obj["degraded"],
            {s["id"]: s["text"] for s in obj["sentences"]},
        )
        missing = [sid for sid in record.merged_ids() if sid not in record.sentence_texts]
        if missing:
            raise InputFormatError(
                path, line, "sentences", f"no text for merged sentence id {missing[0]}"
            )
        return record

    return _read_keyed(path, "id", parse, None)


def read_generated_tables(path: str | Path, known) -> dict[str, HierarchicalTable]:
    """Generated outputs: id -> parsed table_html; each id must be in ``known``."""

    def check(item_id: str, _, line: int) -> None:
        _require_known(item_id, "id", known, path, line)

    return _read_keyed(path, "id", lambda obj, line: _require_table(obj, path, line), check)
