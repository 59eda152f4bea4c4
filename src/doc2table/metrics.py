"""Deterministic evaluation metrics for generated tables and retrieval.

Structure similarity lives in :mod:`doc2table.treedist`; this module adds
the character n-gram F-score, key-value content similarity, header
similarity and top-K recall, plus assembly of the JSON evaluation report.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import HierarchicalTable, flatten_to_kv, leaf_label_paths
from .treedist import teds

CHRF_MAX_ORDER = 6
CHRF_BETA = 2.0
KEY_MATCH_THRESHOLD = 0.5
KEY_JOIN = " / "


class UndefinedMetricError(ValueError):
    """The metric is undefined for the given inputs."""


def _char_ngrams(text: str, n: int) -> Counter:
    chars = "".join(text.split())
    return Counter(chars[i : i + n] for i in range(len(chars) - n + 1))


def chrf(candidate: str, reference: str) -> float:
    """Character n-gram F-score in [0, 100].

    Whitespace is removed before n-gram extraction; n-gram orders 1..6 are
    scored with an F-score at beta=2 and macro-averaged. Orders where
    neither string has any n-grams are skipped; if every order is skipped
    (both strings empty) the score is 100, and a single empty side scores 0.
    """
    beta_sq = CHRF_BETA**2
    f_sum = 0.0
    orders = 0
    for n in range(1, CHRF_MAX_ORDER + 1):
        cand = _char_ngrams(candidate, n)
        ref = _char_ngrams(reference, n)
        total_cand = sum(cand.values())
        total_ref = sum(ref.values())
        if total_cand == 0 and total_ref == 0:
            continue
        orders += 1
        matched = sum((cand & ref).values())
        precision = matched / total_cand if total_cand else 0.0
        recall = matched / total_ref if total_ref else 0.0
        if precision + recall != 0.0:
            # orders are summed left to right (``sum`` of floats is compensated
            # from Python 3.12 on); ``chrf_matrix`` adds them in the same order
            f_sum += (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)
    if not orders:
        return 100.0
    return 100.0 * f_sum / orders


def chrf_matrix(candidates: Sequence[str], references: Sequence[str]) -> np.ndarray:
    """chrF of every candidate against every reference, in [0, 100].

    Entry ``[i, j]`` equals ``chrf(candidates[i], references[j])`` bit for
    bit. Per order n, every n-gram of every string gets an integer id
    (the id of its (n-1)-gram prefix paired with its last character), and
    the matched count ``sum(min(c_g, r_g))`` is one matrix product of
    occurrence-indexed binary features: feature ``(g, k)`` is set when a
    string holds more than k copies of n-gram g. The totals are
    ``max(len(chars) - n + 1, 0)``, and precision, recall, F-score, order
    skipping and the average take the same float operations in the same
    order as :func:`chrf`. The feature matrices are built one order at a
    time, over the n-grams that both sides hold.
    """
    chars = ["".join(text.split()) for text in (*candidates, *references)]
    n_cand = len(candidates)
    lengths = np.array([len(c) for c in chars], dtype=np.int64)
    codes = np.fromiter(map(ord, "".join(chars)), dtype=np.int64)
    owner = np.repeat(np.arange(len(chars)), lengths)
    # characters from each position to the end of its string, itself included
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
    base = int(codes.max(initial=0)) + 1

    shape = (n_cand, len(chars) - n_cand)
    beta_sq = CHRF_BETA**2
    f_sum = np.zeros(shape)
    orders = np.zeros(shape, dtype=np.int64)
    gram = np.zeros_like(codes)
    for n in range(1, CHRF_MAX_ORDER + 1):
        # ids at positions with room < n span two strings and are never read
        ahead = np.zeros_like(codes)
        ahead[: max(len(codes) - n + 1, 0)] = codes[n - 1 :]
        gram = np.unique(gram * base + ahead, return_inverse=True)[1]
        starts = room >= n
        grams, strings = gram[starts], owner[starts]
        is_cand = strings < n_cand
        shared = (np.bincount(grams[is_cand], minlength=len(codes)) > 0) & (
            np.bincount(grams[~is_cand], minlength=len(codes)) > 0
        )
        column = np.cumsum(shared) - 1
        kept = shared[grams]
        n_shared = int(shared.sum())
        counts = np.bincount(
            strings[kept] * n_shared + column[grams[kept]], minlength=len(chars) * n_shared
        ).reshape(len(chars), n_shared)
        levels = np.arange(int(counts.max(initial=0)))
        # feature (g, k) is set when a string holds more than k copies of gram g
        features = (counts[:, :, None] > levels).reshape(len(chars), n_shared * len(levels))
        features = features[:, features[:n_cand].any(0) & features[n_cand:].any(0)]
        # float32 sums of 0/1 products are exact integers below 2**24; numpy's
        # own single-threaded loop, since a threaded BLAS call on matrices this
        # small costs more in thread hand-off than the product itself
        matched = np.einsum(
            "ik,jk->ij", features[:n_cand].astype(np.float32), features[n_cand:].astype(np.float32)
        )

        totals = np.maximum(lengths - n + 1, 0).astype(np.float64)
        total_cand, total_ref = totals[:n_cand, None], totals[None, n_cand:]
        orders += (total_cand > 0) | (total_ref > 0)
        precision = np.divide(matched, total_cand, out=np.zeros(shape), where=total_cand > 0)
        recall = np.divide(matched, total_ref, out=np.zeros(shape), where=total_ref > 0)
        f_sum += np.divide(
            (1 + beta_sq) * precision * recall,
            beta_sq * precision + recall,
            out=np.zeros(shape),
            where=precision + recall != 0.0,
        )
    scores = np.full(shape, 100.0)
    np.divide(100.0 * f_sum, orders, out=scores, where=orders > 0)
    return scores


@dataclass(frozen=True)
class PairScore:
    """Per ground-truth cell: its key, the matched generated key (if any),
    and the value score of the match."""

    gt_key: tuple[tuple[str, ...], tuple[str, ...]]
    gen_key: tuple[tuple[str, ...], tuple[str, ...]] | None
    score: float


@dataclass(frozen=True)
class ContentReport:
    pairs: tuple[PairScore, ...]
    precision: float
    recall: float
    f1: float
    n_generated: int
    n_groundtruth: int


def _joined_key(left: tuple[str, ...], top: tuple[str, ...]) -> str:
    return KEY_JOIN.join(left) + KEY_JOIN + KEY_JOIN.join(top)


def content_similarity(
    generated: HierarchicalTable,
    groundtruth: HierarchicalTable,
) -> ContentReport:
    """Key-value content similarity between two tables.

    Both tables are flattened to key-value triples. Pairs are matched
    greedily by descending key similarity: exact key equality first, then
    chrF over the joined key strings with a 0.5 floor; ties break by
    document order (ground truth first). Each side is matched at most
    once. The matched pair's score is :func:`chrf` over the two cell texts,
    rescaled to [0, 1]; precision divides the score sum by the generated pair
    count, recall by the ground-truth pair count.

    The greedy order is computed in two phases. Exact keys: each
    ground-truth cell, in document order, takes the first unused generated
    cell with an equal key, and both drop out. The remaining keys: one
    :func:`chrf_matrix` over their joined strings gives every similarity,
    and the pairs at or above the floor are taken in ``(-similarity,
    ground-truth index, generated index)`` order. The report equals the
    one of scoring every key pair with :func:`chrf` and sorting them all,
    floats included, bit for bit.
    """
    gen = flatten_to_kv(generated)
    gt = flatten_to_kv(groundtruth)

    unused: dict[tuple, deque[int]] = {}
    for g_idx, g in enumerate(gen):
        unused.setdefault((g.left_key, g.top_key), deque()).append(g_idx)
    gt_match: dict[int, int] = {}
    for t_idx, t in enumerate(gt):
        same_key = unused.get((t.left_key, t.top_key))
        if same_key:
            gt_match[t_idx] = same_key.popleft()

    matched_gen = set(gt_match.values())
    rest_gt = [t_idx for t_idx in range(len(gt)) if t_idx not in gt_match]
    rest_gen = [g_idx for g_idx in range(len(gen)) if g_idx not in matched_gen]
    sims = chrf_matrix(
        [_joined_key(gen[g_idx].left_key, gen[g_idx].top_key) for g_idx in rest_gen],
        [_joined_key(gt[t_idx].left_key, gt[t_idx].top_key) for t_idx in rest_gt],
    ) / 100.0
    g_pos, t_pos = np.nonzero(sims >= KEY_MATCH_THRESHOLD)
    candidates = sorted(
        zip(
            (-sims[g_pos, t_pos]).tolist(),
            [rest_gt[i] for i in t_pos.tolist()],
            [rest_gen[i] for i in g_pos.tolist()],
        )
    )
    for _, t_idx, g_idx in candidates:
        if t_idx in gt_match or g_idx in matched_gen:
            continue
        gt_match[t_idx] = g_idx
        matched_gen.add(g_idx)

    pairs = []
    total = 0.0
    for t_idx, t in enumerate(gt):
        g_idx = gt_match.get(t_idx)
        if g_idx is None:
            pairs.append(PairScore((t.left_key, t.top_key), None, 0.0))
        else:
            score = chrf(gen[g_idx].value, t.value) / 100.0
            total += score
            pairs.append(
                PairScore(
                    (t.left_key, t.top_key),
                    (gen[g_idx].left_key, gen[g_idx].top_key),
                    score,
                )
            )

    precision = total / len(gen)
    recall = total / len(gt)
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return ContentReport(tuple(pairs), precision, recall, f1, len(gen), len(gt))


@dataclass(frozen=True)
class HeaderScore:
    precision: float
    recall: float
    f1: float


def header_similarity(generated, groundtruth, side: str) -> HeaderScore:
    """Header content score for one side ("left" or "top").

    Leaf key paths are aligned by position and scored with chrF over the
    joined paths; precision divides by the generated leaf count, recall by
    the ground-truth leaf count. This is an interpretation choice: no
    canonical definition of header-only content scoring exists.
    """
    gen_tree = generated.left if side == "left" else generated.top
    gt_tree = groundtruth.left if side == "left" else groundtruth.top
    gen_paths = [KEY_JOIN.join(p) for p in leaf_label_paths(gen_tree)]
    gt_paths = [KEY_JOIN.join(p) for p in leaf_label_paths(gt_tree)]
    total = sum(
        chrf(g, t) / 100.0 for g, t in zip(gen_paths, gt_paths)
    )
    precision = total / len(gen_paths)
    recall = total / len(gt_paths)
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return HeaderScore(precision, recall, f1)


def recall_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    """Fraction of relevant ids appearing in the first k of the ranking."""
    relevant_set = set(relevant)
    if not relevant_set:
        raise UndefinedMetricError("recall@k is undefined for an empty relevant set")
    if k < 1:
        raise UndefinedMetricError(f"k must be >= 1, got {k}")
    hits = relevant_set.intersection(ranked[:k])
    return len(hits) / len(relevant_set)


def table_scores(
    generated: HierarchicalTable,
    groundtruth: HierarchicalTable,
) -> dict:
    """All per-pair table metrics as a JSON-ready mapping."""
    content = content_similarity(generated, groundtruth)
    return {
        "teds": teds(generated, groundtruth),
        "content_precision": content.precision,
        "content_recall": content.recall,
        "content_f1": content.f1,
        "header_f1": {
            "left": header_similarity(generated, groundtruth, "left").f1,
            "top": header_similarity(generated, groundtruth, "top").f1,
        },
    }


def aggregate_scores(items: list[dict]) -> dict:
    """Corpus aggregate: ``n_items`` and the plain mean of every per-item numeric field.

    Nested fields are averaged field by field; each mean is over the items
    that have the field. Non-numeric fields, such as an item's ``id``, are
    left out. No items give ``{}``.
    """
    if not items:
        return {}
    return {"n_items": len(items), **_field_means(items)}


def _field_means(items: list[dict]) -> dict:
    columns: dict[str, list] = {}
    for item in items:
        for field, value in item.items():
            if isinstance(value, (dict, int, float)):
                columns.setdefault(field, []).append(value)
    return {
        field: _field_means(column) if isinstance(column[0], dict) else sum(column) / len(column)
        for field, column in columns.items()
    }
