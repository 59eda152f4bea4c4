"""Question decomposition, sentence rewriting and top-K cosine retrieval.

A document is its raw sentences; a sentence's id is its index. A rewrite
provider (anything with the ``rewrite(mode, text)`` method of
:class:`doc2table.providers.Rewriter`) turns questions into sub-questions
and sentences into a data-as-subject form. Each document's retrieval texts
are embedded once by the caller (``cli.retrieve_stage``, per referenced document);
:func:`retrieve_top_k` embeds only the sub-questions, scores them against
the sentences through the embeddings' ``scores`` (exact integer dot
products over posting lists for the hashing embedder, one matrix product
for a live one), keeps each sub-question's first :data:`RANKING_DEPTH`
(or k, if larger) sentences by cosine and merges those rankings round
robin into one top-K budget.
Records cite the raw text: the rewritten form is a retrieval aid only.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_TOP_K = 30
# Ranks kept per sub-question: max(k, RANKING_DEPTH). The round-robin merge
# reads at most k of each list; the top 60 is what rankings are checked on.
RANKING_DEPTH = 60
# Rounding to 9 decimals moves a score by at most 5e-10, so a sentence whose
# raw score is more than 1e-9 below the D-th largest cannot reach the top D.
# The slack is doubled to cover float error in rounding and in the subtraction.
_ROUNDING_SLACK = 2e-9

DEFAULT_ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "prof.", "st.", "vs.", "etc.", "inc.", "ltd.",
        "co.", "corp.", "no.", "nos.", "fig.", "figs.", "est.", "approx.", "dept.",
        "rev.", "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
        "sept.", "oct.", "nov.", "dec.", "u.s.", "e.g.", "i.e.", "cf.", "al.",
    }
)


class RetrievalConfigError(ValueError):
    """Provider configuration produced unusable embeddings."""


class Embeddings(Protocol):
    """What an embedder's ``embed(texts)`` returns: one vector per text.

    ``scores(queries)`` is the cosine of every query (rows) against every
    text of ``self`` (columns), for ``queries`` from the same embedder.
    """

    dim: int

    def scores(self, queries: Embeddings) -> np.ndarray: ...


@dataclass
class DocumentStore:
    """A document as its ordered raw sentences; a sentence's id is its index."""

    doc_id: str
    sentences: list[str]

    def __len__(self) -> int:
        return len(self.sentences)


_SPLIT_CANDIDATE = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")
_LAST_TOKEN = re.compile(r"(\S+)$")


def split_sentences(text: str) -> list[str]:
    """Deterministic rule-based sentence segmentation.

    Splits after sentence-final punctuation followed by whitespace and a
    capital letter or digit, except when the preceding token is one of
    :data:`DEFAULT_ABBREVIATIONS` or when parentheses opened earlier are
    still unclosed.
    """
    if not text.strip():
        return []
    cut_points = []
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
            token_match = _LAST_TOKEN.search(text[:end])
            if token_match:
                token = token_match.group(1).lstrip("(\"'[").lower()
                if token in DEFAULT_ABBREVIATIONS:
                    continue
        cut_points.append(end)

    sentences = []
    start = 0
    for cut in cut_points:
        sentences.append(text[start:cut].strip())
        start = cut
    sentences.append(text[start:].strip())
    return [s for s in sentences if s]


@dataclass(frozen=True)
class QuestionRewrite:
    sub_questions: tuple[str, ...]
    degraded: bool = False


def rewrite_question(question: str, rewriter) -> QuestionRewrite:
    """Decompose a question into sub-questions; never fails.

    On provider failure or an empty decomposition the original question is
    the single sub-question and the result is flagged degraded.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    try:
        outputs = [o.strip() for o in rewriter.rewrite("question", question)]
        outputs = [o for o in outputs if o]
    except Exception as exc:
        logger.warning("question rewrite failed, falling back to the original: %s", exc)
        return QuestionRewrite((question,), degraded=True)
    if not outputs:
        logger.warning("question rewrite returned nothing, falling back to the original")
        return QuestionRewrite((question,), degraded=True)
    return QuestionRewrite(tuple(outputs), degraded=False)


def rewrite_sentences(store: DocumentStore, rewriter, mapper=map) -> Callable[[], list[str]]:
    """Queue each sentence's data-as-subject rewrite; return the gather of them.

    The gather takes no argument and returns the retrieval text per
    sentence, in sentence order. The rewrite calls go through ``mapper``,
    the run's order-preserving map: a thread pool's map queues them all
    now, and the builtin ``map`` makes them one by one when gathered.
    Per-sentence provider failures degrade that sentence to its raw text;
    the batch never aborts.
    """

    def rewrite_one(sid: int) -> tuple[str, bool]:
        raw = store.sentences[sid]
        try:
            outputs = rewriter.rewrite("sentence", raw)
            return (outputs[0].strip() if outputs and outputs[0].strip() else raw), False
        except Exception as exc:
            logger.warning("sentence %d rewrite failed, keeping raw text: %s", sid, exc)
            return raw, True

    queued = mapper(rewrite_one, range(len(store)))

    def gather() -> list[str]:
        rewrites = list(queued)
        failures = sum(failed for _, failed in rewrites)
        if failures:
            logger.warning("sentence rewriting degraded for %d/%d sentences", failures, len(store))
        return [text for text, _ in rewrites]

    return gather


@dataclass
class RetrievalRecord:
    """Ranked retrieval output for one question."""

    question: str
    sub_questions: list[str]
    # Per sub-question, the first max(k, RANKING_DEPTH) (sentence_id, score)
    # pairs of the full ranking by (-score, id); all of them if fewer.
    per_question: list[list[tuple[int, float]]]
    merged: list[tuple[int, float]]  # deduplicated merged ranking, length <= k
    k: int
    degraded: bool = False
    sentence_texts: dict[int, str] = field(default_factory=dict)  # raw text per merged id

    def merged_ids(self) -> list[int]:
        return [sid for sid, _ in self.merged]

    def to_dict(self) -> dict:
        # Scores are already quantized by retrieve_top_k: stable bytes across BLAS variants.
        return {
            "question": self.question,
            "sub_questions": list(self.sub_questions),
            "per_question": [
                [[sid, score] for sid, score in ranked] for ranked in self.per_question
            ],
            "merged": [[sid, score] for sid, score in self.merged],
            "k": self.k,
            "degraded": self.degraded,
            "sentences": [
                {"id": sid, "text": self.sentence_texts[sid]} for sid, _ in self.merged
            ],
        }


def merge_round_robin(ranked_lists: list[list[tuple[int, float]]], k: int) -> list[tuple[int, float]]:
    """Interleave per-sub-question rankings, deduplicating by sentence id.

    The interleaving order does not depend on k, so the merged list for a
    larger budget is a prefix extension of the smaller one. Only the first k
    ranks of each list can be read: the first k ranks of any one list alone
    already give k distinct ids, so rankings cut at depth k or deeper merge
    to the same result as full ones.
    """
    merged: list[tuple[int, float]] = []
    seen: set[int] = set()
    for rank in range(max((len(r) for r in ranked_lists), default=0)):
        for ranked in ranked_lists:
            if rank < len(ranked):
                sid, score = ranked[rank]
                if sid not in seen:
                    seen.add(sid)
                    merged.append((sid, score))
    return merged[:k]


def retrieve_top_k(
    store: DocumentStore,
    sub_questions: list[str],
    sentence_vectors: Embeddings | None,
    embedder,
    k: int = DEFAULT_TOP_K,
    question: str = "",
    degraded: bool = False,
) -> RetrievalRecord:
    """Rank sentences by cosine against each sub-question; merge top-K round robin.

    ``sentence_vectors`` is ``embedder.embed`` of one retrieval text per
    sentence; None if the store is empty. The sub-questions are embedded by
    the same embedder; a dimension other than the sentences' raises
    :class:`RetrievalConfigError`. Each sub-question keeps its first
    max(k, :data:`RANKING_DEPTH`) sentences, an exact prefix of the full
    ranking by (-score, id).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not store.sentences:
        logger.warning("retrieval over an empty document store: %s", store.doc_id)
        return RetrievalRecord(question, list(sub_questions), [], [], k, degraded)

    query_vectors = embedder.embed(list(sub_questions))
    if query_vectors.dim != sentence_vectors.dim:
        raise RetrievalConfigError(
            f"embedding dimension mismatch: questions {query_vectors.dim}, "
            f"sentences {sentence_vectors.dim}"
        )

    n = len(store)
    depth = min(max(k, RANKING_DEPTH), n)
    scores = sentence_vectors.scores(query_vectors)  # one row per sub-question
    # Only sentences within the rounding slack of the depth-th largest raw
    # score can rank in the top depth once rounded.
    floors = np.partition(scores, n - depth, axis=1)[:, n - depth] - _ROUNDING_SLACK
    per_question: list[list[tuple[int, float]]] = []
    for row, floor in zip(scores, floors):
        # Quantize to 9 decimals so equal-by-construction scores tie exactly
        # and ordering is bit-stable across numeric backends.
        candidates = [(i, round(float(row[i]), 9)) for i in np.flatnonzero(row >= floor).tolist()]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        per_question.append(candidates[:depth])

    merged = merge_round_robin(per_question, k)
    return RetrievalRecord(
        question=question,
        sub_questions=list(sub_questions),
        per_question=per_question,
        merged=merged,
        k=k,
        degraded=degraded,
        sentence_texts={sid: store.sentences[sid] for sid, _ in merged},
    )
