"""Question decomposition, sentence rewriting and top-K cosine retrieval.

A document is its list of raw sentences; a sentence's id is its index. A
rewrite provider (anything with the ``rewrite(mode, text)`` method of
:class:`doc2table.providers.Rewriter`) turns questions into sub-questions
and sentences into a data-as-subject form. Each document's retrieval texts
are embedded once by the caller (``cli.retrieve_stage``, per referenced document);
:func:`retrieve_top_k` embeds only the sub-questions, scores them against
the sentences through the embeddings' ``scores`` (exact integer dot
products over posting lists for the hashing embedder, one matrix product
for a live one), keeps each sub-question's first :data:`RANKING_DEPTH`
(or k, if larger) sentences by cosine and merges those rankings round
robin into one top-K budget, a :class:`~doc2table.data.RetrievalRecord`.
Records cite the raw text: the rewritten form is a retrieval aid only.
"""
from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .data import RetrievalRecord

logger = logging.getLogger(__name__)

DEFAULT_TOP_K = 30
# Ranks kept per sub-question: max(k, RANKING_DEPTH). The round-robin merge
# reads at most k of each list; the top 60 is what rankings are checked on.
RANKING_DEPTH = 60
# Rounding to 9 decimals moves a score by at most 5e-10, so a sentence whose
# raw score is more than 1e-9 below the D-th largest cannot reach the top D.
# The slack is doubled to cover float error in rounding and in the subtraction.
_ROUNDING_SLACK = 2e-9


class RetrievalConfigError(ValueError):
    """Provider configuration produced unusable embeddings."""


class Embeddings(Protocol):
    """What an embedder's ``embed(texts)`` returns: one vector per text.

    ``scores(queries)`` is the cosine of every query (rows) against every
    text of ``self`` (columns), for ``queries`` from the same embedder.
    """

    dim: int

    def scores(self, queries: Embeddings) -> np.ndarray: ...


@dataclass(frozen=True)
class QuestionRewrite:
    sub_questions: tuple[str, ...]
    degraded: bool = False


def rewrite_question(question: str, rewriter) -> QuestionRewrite:
    """Decompose a question into sub-questions; never fails.

    On provider failure or an empty decomposition the original question is
    the single sub-question and the result is flagged degraded.
    """
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


def rewrite_sentences(sentences: list[str], rewriter, mapper=map) -> Iterator[str]:
    """Each sentence's retrieval text, in sentence order: its data-as-subject rewrite.

    The rewrite calls go through ``mapper``, the run's order-preserving map,
    whose iterator this returns: a thread pool's map queues them all now,
    and the builtin ``map`` makes each one when its text is read. A sentence
    whose rewrite fails degrades to its raw text, with a warning naming it;
    the batch never aborts.
    """

    def rewrite_one(sid: int, raw: str) -> str:
        try:
            outputs = rewriter.rewrite("sentence", raw)
            return outputs[0].strip() if outputs and outputs[0].strip() else raw
        except Exception as exc:
            logger.warning("sentence %d rewrite failed, keeping raw text: %s", sid, exc)
            return raw

    return mapper(rewrite_one, range(len(sentences)), sentences)


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
    store: list[str],
    sub_questions: list[str],
    sentence_vectors: Embeddings | None,
    embedder,
    k: int,
    question: str,
    degraded: bool = False,
) -> RetrievalRecord:
    """Rank sentences by cosine against each sub-question; merge top-K round robin.

    ``store`` is the document's sentences and ``sentence_vectors`` is
    ``embedder.embed`` of one retrieval text per sentence; None if it has none. The sub-questions are embedded by
    the same embedder; a dimension other than the sentences' raises
    :class:`RetrievalConfigError`. Each sub-question keeps its first
    max(k, :data:`RANKING_DEPTH`) sentences, an exact prefix of the full
    ranking by (-score, id).
    """
    if not store:
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
        sentence_texts={sid: store[sid] for sid, _ in merged},
    )
