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

Each document is prepared once per run: ``annotate`` wraps every
referenced document in a :class:`SentenceIndex`, whose preparation
(:func:`scan_sentences`) runs lazily, at the document's first table. It
normalizes each sentence once and keeps two texts with one line per
sentence, joined by "\\n": the lowered sentences, for textual cells, and
a *digit-run text*, for numeric ones. A digit-run line is its normalized
sentence with every "," and " " removed and every other run of characters
that are neither ``\\d`` digits nor "." replaced by one " ".

A numeric cell's magnitude M is looked up by ``str.find`` in the
digit-run text. Only the sentences whose lines hold M are candidates; each
candidate the index has not number-scanned yet is scanned now, with the
number pattern, and all of its tokens go into one magnitude -> {sentence
id: signs} map that every later table of the document shares. So each
sentence is number-scanned at most once per document, and only if some
cell's magnitude occurs in its line. Once every line holding a digit has
been scanned, lookups read the map without the find.

The filter is exact. A token's magnitude is its digit group with "," and
whitespace removed and zeros trimmed at its two ends, so it is a substring
of that group with the separators removed. A normalized sentence holds no
whitespace but " ", so that group, separators removed, lies inside one run
of digits and "." in the sentence's line. Every sentence holding M is
therefore a candidate, and each candidate gets the full scan: the matches,
their sign flips and their order are those of scanning every sentence.

Two more shortcuts keep the scan and the lookups cheap without changing a
match. The number pattern opens with a lookahead for a run of the
characters a token's prefix is made of (whitespace, "(", a minus, a
currency symbol) followed by a digit, so the regex engine leaves every
other position at once. A textual cell is looked up with ``str.find`` in
the lowered text; an occurrence inside one sentence counts when neither
character around it is a word character, the test the whole-phrase
pattern makes, so no pattern is compiled per cell. Normalized sentences
and body cells hold no "\\n", so a find never spans two sentences.

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
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .model import HierarchicalTable, normalize_text

if TYPE_CHECKING:
    from .data import QaTriple

UNCOVERED_EXCLUSION_NUM = 3  # exclude iff uncovered/total >= 3/10, compared exactly
UNCOVERED_EXCLUSION_DEN = 10

_CURRENCY = "$€£¥"

_NUMBER_TOKEN = re.compile(
    r"""
    (?=[\s(\-−{cur}]*\d)                     # every match is a run of these, then a digit
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
_SEPARATOR = re.compile(r"[,\s]")
_NOT_DIGIT_RUN = re.compile(r"[^\d.\n]+")  # "\n" ends a digit-run line


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


class DocumentScan(NamedTuple):
    """A document prepared for matching by :func:`scan_sentences`."""

    normalized: list[str]  # each sentence, normalized
    lowered: str  # the lowered normalized sentences joined by "\n"
    starts: list[int]  # each sentence's offset in ``lowered``, plus an end sentinel
    digit_runs: str  # the digit-run text: one line per sentence
    run_starts: list[int]  # each line's offset in ``digit_runs``, plus an end sentinel
    digit_lines: int  # lines holding a digit; a line of "." runs holds none


def scan_sentences(sentences: list[str]) -> DocumentScan:
    """Normalize each sentence once and build both joined texts.

    Offsets come from the lowered texts, since ``str.lower()`` can change a
    string's length. The digit-run text is built from the normalized,
    unlowered sentences in one pass over their join; it has one line per
    sentence because normalized text holds no "\\n".
    """
    normalized = [normalize_text(sentence) for sentence in sentences]
    lowered = [text.lower() for text in normalized]
    joined = "\n".join(normalized).replace(",", "").replace(" ", "")
    runs = _NOT_DIGIT_RUN.sub(" ", joined).split("\n") if sentences else []
    return DocumentScan(
        normalized,
        "\n".join(lowered),
        list(accumulate((len(text) + 1 for text in lowered), initial=0)),
        "\n".join(runs),
        list(accumulate((len(line) + 1 for line in runs), initial=0)),
        sum(1 for line in runs if line.strip(" .")),
    )


class SentenceIndex:
    """One document's sentences, prepared once for every table that cites it.

    Lazy: the preparation (:func:`scan_sentences`, cached as ``scan``) runs
    on first use, inside the first :func:`match_cells_to_sentences` call for
    the document, so a document no table references is never prepared; a
    sentence is number-scanned only when a looked-up magnitude occurs in its
    digit-run line. Cached: ``scan``, and the tokens of every
    number-scanned sentence in ``magnitudes`` (canonical magnitude ->
    {sentence id: signs it appears with}), which later lookups share.
    ``numbers_scanned`` holds the ids of those sentences. ``len()`` is the
    sentence count.
    """

    def __init__(self, sentences: list[str]):
        self.sentences = sentences
        self.magnitudes: Magnitudes = {}
        self.numbers_scanned: set[int] = set()

    def __len__(self) -> int:
        return len(self.sentences)

    @cached_property
    def scan(self) -> DocumentScan:
        return scan_sentences(self.sentences)

    def signs_by_id(self, magnitude: str) -> dict[int, set[bool]]:
        """Sentence id -> the signs ``magnitude`` appears with there, ids ascending.

        The candidates are the digit-run lines holding ``magnitude``; each
        not yet number-scanned is scanned, and its tokens are added to
        ``magnitudes``. Once every line with a digit is scanned, the find
        walk is skipped.
        """
        scan = self.scan
        if len(self.numbers_scanned) < scan.digit_lines:
            text, starts = scan.digit_runs, scan.run_starts
            at = text.find(magnitude)
            while at != -1:
                sid = bisect_right(starts, at) - 1
                if sid not in self.numbers_scanned:
                    self.numbers_scanned.add(sid)
                    for token, negative in _normalized_numbers(scan.normalized[sid]):
                        self.magnitudes.setdefault(token, {}).setdefault(sid, set()).add(negative)
                at = text.find(magnitude, starts[sid + 1])
        return dict(sorted(self.magnitudes.get(magnitude, {}).items()))


def match_cells_to_sentences(table: HierarchicalTable, index: SentenceIndex) -> list[CellMatch]:
    """Locate candidate sentences for every body cell; empty cells match nothing."""
    scan = index.scan
    matches: list[CellMatch] = []
    for r, row in enumerate(table.body):
        for c, cell in enumerate(row):
            if not cell:
                continue
            number = parse_cell_number(cell)
            if number is not None:
                magnitude, negative = number
                signs_by_id = index.signs_by_id(magnitude)
                if signs_by_id:
                    flips = tuple(sid for sid, signs in signs_by_id.items() if negative not in signs)
                    matches.append(
                        CellMatch(r, c, "numeric", tuple(signs_by_id), magnitude, flips)
                    )
            else:
                hit_ids = _phrase_sentences(cell.lower(), scan.lowered, scan.starts)
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
        per_doc = {d: sum(len(s.split()) for s in documents[d]) for d in {t.doc_id for t in triples}}
        mean_tokens = sum(per_doc[t.doc_id] for t in triples) / n
    return {
        "n_triples": n,
        "mean_input_tokens": mean_tokens,
        "mean_rows": sum(len(t.table.body) for t in triples) / n if n else 0.0,
        "mean_cols": sum(len(t.table.body[0]) for t in triples) / n if n else 0.0,
        "n_flat": n_flat,
        "n_hierarchical": n - n_flat,
    }
