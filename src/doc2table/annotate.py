"""Dataset annotation: match table cells to document sentences and filter.

Numeric cells are matched by a normalized-number rule: currency symbols
and thousands separators ("," and " ") are stripped and parenthesized
negatives unify to a minus sign, then the full normalized number must
appear as a token in the sentence. Sign-only differences still match but
the flip is recorded. Textual cells match by case-insensitive whole-phrase
containment after whitespace normalization. Every candidate sentence is
kept: multiple matches per cell are expected and resolved by manual
review, which this module models as a status field (auto / confirmed /
rejected) edited through a JSONL review file.

Each document is scanned once per run: ``annotate`` wraps every
referenced document in a :class:`SentenceIndex`, whose one scan
(:func:`scan_sentences`) runs lazily, at the document's first table, and
answers every cell of every later table. The matching rule above is the
same whichever table triggers the scan.

Two shortcuts keep the scan and the lookups cheap without changing a
match. The number pattern opens with a lookahead for the characters a
token can start with (whitespace, "(", a minus, a currency symbol or a
digit), so the regex engine skips every other position at once, and a
sentence without a ``\\d`` digit is not searched at all. A textual cell is
looked up with ``str.find`` in the lowered sentences joined by "\\n", the
scan's one copy of them; an occurrence inside one sentence counts when
neither character around it is a word character, the test the
whole-phrase pattern makes, so no pattern is compiled per cell.
Normalized sentences and body cells hold no "\\n", so a find never spans
two sentences.

A table stays in the dataset only while fewer than 30% of its body cells
lack a non-rejected match; the 30.0% boundary itself is excluded. Header
and stub cells are not counted. Coverage and exclusion are decided once
per table, by :func:`coverage`, after review has been applied.

A document is its sentence list. This module imports only ``model``, so
annotating loads neither retrieval code nor numpy.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .model import HierarchicalTable, normalize_text

if TYPE_CHECKING:
    from .data import QaTriple

UNCOVERED_EXCLUSION_NUM = 3  # exclude iff uncovered/total >= 3/10, compared exactly
UNCOVERED_EXCLUSION_DEN = 10

_CURRENCY = "$€£¥"

_NUMBER_TOKEN = re.compile(
    r"""
    (?=[\s(\-−{cur}\d])                      # every match starts with one of these
    (\()?                                   # parenthesized negative, open
    \s*(-|−)?\s*                       # explicit minus
    [{cur}]?\s?
    (
        \d{{1,3}}(?:,\s?\d{{3}})+(?:\.\d+)? # comma-grouped, tolerate ", " spacing
        | \d{{1,3}}(?:\ \d{{3}})+(?:\.\d+)? # space-grouped thousands
        | \d+(?:\.\d+)?                     # plain integer / decimal
    )
    \s*(\))?
    """.format(cur=_CURRENCY),
    re.VERBOSE,
)
_DIGIT = re.compile(r"\d")  # the pattern's own digit class: a text without one has no token
_SEPARATOR = re.compile(r"[,\s]")


def canonical_magnitude(digits: str) -> str:
    """Canonical unsigned form: separators removed, zero-padding trimmed."""
    plain = _SEPARATOR.sub("", digits)
    if "." in plain:
        integer, fraction = plain.split(".", 1)
        fraction = fraction.rstrip("0")
        integer = integer.lstrip("0") or "0"
        return f"{integer}.{fraction}" if fraction else integer
    return plain.lstrip("0") or "0"


def parse_cell_number(cell_text: str) -> tuple[str, bool] | None:
    """(canonical magnitude, is_negative) when the whole cell is one number."""
    text = normalize_text(cell_text)
    if not text:
        return None
    negative = False
    if text.startswith("(") and text.endswith(")"):
        negative = True
        text = text[1:-1].strip()
    if text.startswith(("-", "−")):
        negative = True
        text = text[1:].strip()
    text = text.lstrip(_CURRENCY).strip()
    if text.endswith("%"):
        text = text[:-1].strip()
    match = _NUMBER_TOKEN.fullmatch(text)
    if not match or match.group(1) or match.group(2) or match.group(4):
        return None
    return canonical_magnitude(match.group(3)), negative


def sentence_numbers(sentence: str) -> list[tuple[str, bool]]:
    """All (canonical magnitude, is_negative) tokens in a sentence."""
    return _normalized_numbers(normalize_text(sentence))


def _normalized_numbers(text: str) -> list[tuple[str, bool]]:
    """:func:`sentence_numbers` of an already normalized text."""
    if not _DIGIT.search(text):
        return []
    tokens = []
    for match in _NUMBER_TOKEN.finditer(text):
        negative = bool(match.group(2)) or bool(match.group(1) and match.group(4))
        tokens.append((canonical_magnitude(match.group(3)), negative))
    return tokens


@dataclass
class CellMatch:
    """Sentences matching one body cell, plus its review status."""

    row: int
    col: int
    kind: str  # "numeric" | "textual"
    sentence_ids: tuple[int, ...]
    matched_token: str | None = None  # canonical magnitude, numeric cells only
    sign_flip_ids: tuple[int, ...] = ()  # matched with opposite sign
    status: str = "auto"  # auto | confirmed | rejected

    @property
    def match_id(self) -> str:
        return f"{self.row},{self.col}"


Magnitudes = dict[str, dict[int, set[bool]]]


def scan_sentences(sentences: list[str]) -> tuple[str, list[int], Magnitudes]:
    """The lowered normalized sentences joined by "\\n", each one's start
    offset plus an end sentinel, and canonical magnitude -> {sentence id:
    signs it appears with}, each inner dict in ascending id order.

    Each sentence is normalized once; one without a digit skips the number
    pattern, and the pattern's leading lookahead skips positions no token
    can start at. Offsets come from the lowered texts, since ``str.lower()``
    can change a string's length.
    """
    lowered: list[str] = []
    starts = [0]
    magnitudes: Magnitudes = {}
    for sid, sentence in enumerate(sentences):
        text = normalize_text(sentence)
        lowered.append(text.lower())
        starts.append(starts[-1] + len(lowered[-1]) + 1)
        for magnitude, negative in _normalized_numbers(text):
            magnitudes.setdefault(magnitude, {}).setdefault(sid, set()).add(negative)
    return "\n".join(lowered), starts, magnitudes


class SentenceIndex:
    """One document's sentences, scanned once for every table that cites it.

    The scan (:func:`scan_sentences`) runs on first use, inside the first
    :func:`match_cells_to_sentences` call for the document, so a document
    no table references is never scanned. ``len()`` is the sentence count.
    """

    def __init__(self, sentences: list[str]):
        self.sentences = sentences

    def __len__(self) -> int:
        return len(self.sentences)

    @cached_property
    def scan(self) -> tuple[str, list[int], Magnitudes]:
        return scan_sentences(self.sentences)


def match_cells_to_sentences(table: HierarchicalTable, index: SentenceIndex) -> list[CellMatch]:
    """Locate candidate sentences for every body cell; empty cells match nothing."""
    joined, starts, magnitudes = index.scan
    matches: list[CellMatch] = []
    for r, row in enumerate(table.body):
        for c, cell in enumerate(row):
            if not cell:
                continue
            number = parse_cell_number(cell)
            if number is not None:
                magnitude, negative = number
                signs_by_id = magnitudes.get(magnitude)
                if signs_by_id:
                    flips = tuple(sid for sid, signs in signs_by_id.items() if negative not in signs)
                    matches.append(
                        CellMatch(r, c, "numeric", tuple(signs_by_id), magnitude, flips)
                    )
            else:
                hit_ids = _phrase_sentences(cell.lower(), joined, starts)
                if hit_ids:
                    matches.append(CellMatch(r, c, "textual", tuple(hit_ids)))
    return matches


def _phrase_sentences(needle: str, joined: str, starts: list[int]) -> list[int]:
    """Ids of the sentences of ``joined`` holding ``needle`` as a whole phrase.

    The same sentences as searching each one for ``(?<!\\w)needle(?!\\w)``:
    an occurrence counts when it lies inside one sentence and the
    characters around it are not word characters (``\\w`` is
    :func:`_is_word`). Sentences are separated by "\\n", so what lies just
    outside a sentence is never a word character.
    """
    hit_ids = []
    width = len(needle)
    at = joined.find(needle)
    while at != -1:
        sid = bisect_right(starts, at) - 1
        end = starts[sid + 1] - 1  # the sentence's "\n", or the end of ``joined``
        while at != -1 and at + width <= end:
            before, after = joined[max(at - 1, 0) : at], joined[at + width : at + width + 1]
            if not _is_word(before) and not _is_word(after):
                hit_ids.append(sid)
                break
            at = joined.find(needle, at + 1, end)
        at = joined.find(needle, starts[sid + 1])
    return hit_ids


def _is_word(char: str) -> bool:
    """Whether ``char`` is a character ``\\w`` matches in a str pattern ("" is not)."""
    return char.isalnum() or char == "_"


def apply_review(matches: list[CellMatch], decisions: dict[str, str]) -> None:
    """Apply review decisions (match_id -> confirmed/rejected) in place."""
    for match in matches:
        match.status = decisions.get(match.match_id, match.status)


def coverage(table: HierarchicalTable, matches: list[CellMatch]) -> tuple[float, bool]:
    """(fraction of body cells with a non-rejected match, whether the table is excluded).

    Exclusion is the exact integer form of the rule: uncovered/total >= 30%.
    """
    covered = len({(m.row, m.col) for m in matches if m.status != "rejected"})
    total = len(table.body) * len(table.body[0])
    excluded = (total - covered) * UNCOVERED_EXCLUSION_DEN >= UNCOVERED_EXCLUSION_NUM * total
    return covered / total, excluded


def relevant_ids(matches: list[CellMatch]) -> tuple[int, ...]:
    """Union of matched sentence ids over non-rejected matches, sorted."""
    ids: set[int] = set()
    for match in matches:
        if match.status != "rejected":
            ids.update(match.sentence_ids)
    return tuple(sorted(ids))


def corpus_stats(
    triples: list[QaTriple],
    documents: dict[str, list[str]] | None = None,
) -> dict:
    """Dataset-level statistics: sizes, mean dimensions, flat/hierarchical split.

    ``mean_input_tokens`` (whitespace tokens of the triple's document) is
    reported only when the documents are supplied and there are triples;
    otherwise it is None. An empty corpus has mean dimensions 0.0.
    """
    n = len(triples)
    n_flat = sum(1 for t in triples if t.table.is_flat)
    mean_tokens: float | None = None
    if documents is not None and n:
        tokens = sum(len(s.split()) for t in triples for s in documents[t.doc_id])
        mean_tokens = tokens / n
    return {
        "n_triples": n,
        "mean_input_tokens": mean_tokens,
        "mean_rows": sum(len(t.table.body) for t in triples) / n if n else 0.0,
        "mean_cols": sum(len(t.table.body[0]) for t in triples) / n if n else 0.0,
        "n_flat": n_flat,
        "n_hierarchical": n - n_flat,
    }
