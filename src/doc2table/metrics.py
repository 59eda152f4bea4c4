"""Deterministic evaluation metrics for generated tables and retrieval.

Structure similarity lives in :mod:`doc2table.treedist`; this module adds
the character n-gram F-score (chrF), key-value content similarity, header
similarity and top-K recall, plus assembly of the JSON evaluation report.

chrF has one implementation, :func:`_chrf`, with two entry points that
differ only in how they count matched n-grams: :func:`chrf` scores aligned
pairs (cell values, header paths) through a sparse join, and
:func:`chrf_matrix` scores every pair (keys) through one matrix product
per n-gram order.

:func:`table_scores` is the one scorer: it takes a corpus of (generated,
ground truth) pairs and returns every table metric of each pair. Keys are
matched pair by pair, and :func:`chrf_matrix` runs only for a pair whose
unmatched keys are left on both sides. Then one :func:`chrf` call scores
every matched value and every aligned header path, left and top, of the
corpus. A chrF score does not depend on what else is in its batch, and
each score sum is added left to right, one pair's on its own, so a pair's
floats depend neither on the corpus around it nor on the Python version.
"""
from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .model import HierarchicalTable, flatten_to_kv
from .treedist import teds

CHRF_MAX_ORDER = 6
CHRF_BETA = 2.0
KEY_MATCH_THRESHOLD = 0.5
KEY_JOIN = " / "

TablePair = tuple[HierarchicalTable, HierarchicalTable]  # (generated, ground truth)


def chrf(candidates: Sequence[str], references: Sequence[str]) -> np.ndarray:
    """chrF of each candidate against the reference at its position, in [0, 100].

    Whitespace is removed before n-gram extraction; n-gram orders 1..6 are
    scored with an F-score at beta=2 and macro-averaged. Orders where
    neither string has any n-grams are skipped; if every order is skipped
    (both strings empty) the score is 100, and a single empty side scores 0.
    Time and memory grow with the total length of the strings. Raises
    ``ValueError`` when the two lists differ in length.
    """
    if len(candidates) != len(references):
        raise ValueError(f"chrf scores aligned pairs, got {len(candidates)} and {len(references)}")
    return _chrf(candidates, references, _aligned_matches)


def chrf_matrix(candidates: Sequence[str], references: Sequence[str]) -> np.ndarray:
    """chrF, as :func:`chrf` defines it, of every candidate against every reference.

    Entry ``[i, j]`` scores ``candidates[i]`` against ``references[j]``.
    """
    return _chrf(candidates, references, _all_pair_matches)


def _chrf(candidates: Sequence[str], references: Sequence[str], count_matches) -> np.ndarray:
    """chrF with the matched n-gram counts taken by ``count_matches``.

    Per order n, every n-gram of every string gets an integer id (the id
    of its (n-1)-gram prefix paired with its last character), and each
    string's n-gram total is ``max(len(chars) - n + 1, 0)``.
    ``count_matches(grams, strings, n_cand, totals)`` gets the id and the
    string of every n-gram (candidates first) and returns the matched
    counts ``sum(min(c_g, r_g))`` with the candidate and reference totals
    shaped to broadcast against them. Precision, recall and the F-score
    are element-wise float64 operations, and the orders are added one at
    a time, so a score does not depend on what else is in the batch.
    """
    chars = ["".join(text.split()) for text in (*candidates, *references)]
    lengths = np.array([len(c) for c in chars], dtype=np.int64)
    codes = np.fromiter(map(ord, "".join(chars)), dtype=np.int64)
    owner = np.repeat(np.arange(len(chars)), lengths)
    # characters from each position to the end of its string, itself included
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
    base = int(codes.max(initial=0)) + 1
    beta_sq = CHRF_BETA**2
    f_sum = orders = 0
    gram = np.zeros(len(codes) + 1, dtype=np.int64)
    for n in range(1, CHRF_MAX_ORDER + 1):
        # one id per window of n characters; windows with room < n span two
        # strings and are never read
        gram = np.unique(gram[:-1] * base + codes[n - 1 :], return_inverse=True)[1]
        starts = np.flatnonzero(room[: len(gram)] >= n)
        totals = np.maximum(lengths - n + 1, 0).astype(np.float64)
        matched, total_cand, total_ref = count_matches(
            gram[starts], owner[starts], len(candidates), totals
        )
        orders = orders + ((total_cand > 0) | (total_ref > 0))
        # a side with no n-grams matched none of them: 0 / 1 gives a score of 0
        precision = matched / np.maximum(total_cand, 1.0)
        recall = matched / np.maximum(total_ref, 1.0)
        # the denominator is 0 only where precision and recall (and so the F-score) are
        denom = beta_sq * precision + recall
        f_sum = f_sum + (1 + beta_sq) * precision * recall / np.where(denom > 0, denom, 1.0)
    return np.where(orders > 0, 100.0 * f_sum / np.maximum(orders, 1), 100.0)


def _aligned_matches(grams, strings, n_cand, totals):
    """Matched counts of candidate i against reference i, one per pair.

    One sort of the (pair, n-gram, side) keys: an n-gram that both sides of
    a pair hold shows as a candidate key directly followed by its reference
    key. No array grows with the number of pairs times distinct n-grams.
    """
    is_ref = strings >= n_cand
    width = 2 * (int(grams.max(initial=0)) + 1)
    pair = np.where(is_ref, strings - n_cand, strings)
    keys, counts = np.unique(pair * width + grams * 2 + is_ref, return_counts=True)
    shared = (keys[1:] - keys[:-1] == 1) & (keys[:-1] % 2 == 0)
    # float64 sums of integer weights are exact below 2**53
    weights = np.minimum(counts[:-1], counts[1:])[shared]
    matched = np.bincount(keys[:-1][shared] // width, weights=weights, minlength=n_cand)
    return matched, totals[:n_cand], totals[n_cand:]


def _all_pair_matches(grams, strings, n_cand, totals):
    """Matched counts of every candidate against every reference.

    One matrix product of occurrence-indexed binary features: feature
    ``(g, k)`` is set when a string holds more than k copies of n-gram g.
    Only n-grams that both sides hold get features.
    """
    is_cand = strings < n_cand
    shared = _shared_grams(grams, is_cand)
    kept = shared[grams]
    n_shared = int(shared.sum())
    cells = strings[kept] * n_shared + (np.cumsum(shared) - 1)[grams[kept]]
    counts = np.bincount(cells, minlength=len(totals) * n_shared).reshape(len(totals), n_shared)
    levels = np.arange(int(counts.max(initial=0)))
    features = (counts[:, :, None] > levels).reshape(len(totals), n_shared * len(levels))
    features = features[:, features[:n_cand].any(0) & features[n_cand:].any(0)]
    # float32 sums of 0/1 products are exact integers below 2**24; numpy's
    # own single-threaded loop, since a threaded BLAS call on matrices this
    # small costs more in thread hand-off than the product itself
    cand, ref = features[:n_cand].astype(np.float32), features[n_cand:].astype(np.float32)
    return np.einsum("ik,jk->ij", cand, ref), totals[:n_cand, None], totals[None, n_cand:]


def _shared_grams(grams, is_cand):
    """Mask over n-gram ids: True for each id that both a candidate and a reference hold.

    Two occurrence counts, not ``np.intersect1d``: its ``np.unique`` asks
    ``np.ma.is_masked``, which imports ``numpy.ma`` (about 9 ms) on the
    first call of a run.
    """
    size = int(grams.max(initial=0)) + 1
    in_cand = np.bincount(grams[is_cand], minlength=size) > 0
    return in_cand & (np.bincount(grams[~is_cand], minlength=size) > 0)


def _prf(total: float, n_generated: int, n_groundtruth: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of a score ``total`` over the generated and ground-truth counts."""
    precision = total / n_generated
    recall = total / n_groundtruth
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _joined_key(left: tuple[str, ...], top: tuple[str, ...]) -> str:
    return KEY_JOIN.join(left) + KEY_JOIN + KEY_JOIN.join(top)


def _match_keys(gen_keys: list[tuple], gt_keys: list[tuple]) -> dict[int, int]:
    """The generated index matched to each matched ground-truth index, in ground-truth order.

    Pairs are matched greedily by descending key similarity: exact key
    equality first, then chrF over the joined key strings with a floor of
    ``KEY_MATCH_THRESHOLD``; ties break by document order (ground truth
    first), and each side is matched at most once. The greedy order is
    computed in two phases, with the same result as scoring every key pair
    on its own and sorting them all.

    Exact keys first: each ground-truth cell, in document order, takes the
    first unused generated cell with an equal key, and both drop out. The
    remaining keys: one :func:`chrf_matrix` over their joined strings gives
    every similarity, and the pairs at or above the floor are taken in
    ``(-similarity, ground-truth index, generated index)`` order. When
    either side has no key left, no pair can form and the matrix is not
    computed.
    """
    unused: dict[tuple, deque[int]] = {}
    for g_idx, key in enumerate(gen_keys):
        unused.setdefault(key, deque()).append(g_idx)
    gt_match: dict[int, int] = {}
    for t_idx, key in enumerate(gt_keys):
        same_key = unused.get(key)
        if same_key:
            gt_match[t_idx] = same_key.popleft()

    matched_gen = set(gt_match.values())
    rest_gt = [t_idx for t_idx in range(len(gt_keys)) if t_idx not in gt_match]
    rest_gen = [g_idx for g_idx in range(len(gen_keys)) if g_idx not in matched_gen]
    if rest_gt and rest_gen:
        sims = chrf_matrix(
            [_joined_key(*gen_keys[g_idx]) for g_idx in rest_gen],
            [_joined_key(*gt_keys[t_idx]) for t_idx in rest_gt],
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
    return dict(sorted(gt_match.items()))


def recall_at_k(ranked: Sequence[int], relevant: Iterable[int], k: int) -> float:
    """Fraction of relevant ids in the first k of the ranking; ``ValueError`` where undefined."""
    relevant_set = set(relevant)
    if not relevant_set:
        raise ValueError("recall@k is undefined for an empty relevant set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = relevant_set.intersection(ranked[:k])
    return len(hits) / len(relevant_set)


def _sum_in_order(values: Iterable[float]) -> float:
    """The float sum of ``values``, added one at a time, left to right.

    Not :func:`sum`, which compensates float rounding since Python 3.12, so
    that its last digit would depend on the Python that runs it.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _score_groups(groups: list[tuple[list[str], list[str], int, int]]) -> list[tuple]:
    """Precision, recall and F1 of each ``(candidates, references, n_generated, n_groundtruth)``.

    One :func:`chrf` call scores every aligned string pair of every group,
    group after group. A group's scores, rescaled to [0, 1], are added left
    to right and :func:`_prf` divides the total by the group's two counts.
    """
    values = chrf(
        [text for candidates, _, _, _ in groups for text in candidates],
        [text for _, references, _, _ in groups for text in references],
    )
    scores = iter((values / 100.0).tolist())
    return [
        _prf(_sum_in_order(islice(scores, len(candidates))), n_generated, n_groundtruth)
        for candidates, _, n_generated, n_groundtruth in groups
    ]


def table_scores(pairs: Sequence[TablePair]) -> list[dict]:
    """Every table metric of each (generated, ground truth) pair, as JSON-ready mappings.

    One mapping per pair, in order: TEDS, the key-value content precision,
    recall and F1, and the header F1 of each side. A pair gives three
    groups of aligned strings to :func:`_score_groups`:

    - content: both tables flattened to key-value triples and their keys
      matched (:func:`_match_keys`); the matched cell texts in ground-truth
      order, over the generated and ground-truth cell counts;
    - left header, then top header: the joined leaf key paths aligned by
      position, over the generated and ground-truth leaf counts. This is an
      interpretation choice: no canonical definition of header-only content
      scoring exists.

    The corpus costs one :func:`chrf` call, plus a :func:`chrf_matrix` per
    pair with unmatched keys on both sides, and every score sum is added
    left to right. A chrF score does not depend on what else is in its
    batch, so a pair scores the same in any corpus.
    """
    groups = []
    for generated, groundtruth in pairs:
        gen, gt = flatten_to_kv(generated), flatten_to_kv(groundtruth)
        gt_match = _match_keys(
            [(g.left_key, g.top_key) for g in gen], [(t.left_key, t.top_key) for t in gt]
        )
        values = [gen[g_idx].value for g_idx in gt_match.values()]
        groups.append((values, [gt[t_idx].value for t_idx in gt_match], len(gen), len(gt)))
        sides = ((generated.left, groundtruth.left), (generated.top, groundtruth.top))
        for gen_tree, gt_tree in sides:
            gen_paths = [KEY_JOIN.join(p) for _, p in gen_tree.leaves]
            gt_paths = [KEY_JOIN.join(p) for _, p in gt_tree.leaves]
            n = min(len(gen_paths), len(gt_paths))
            groups.append((gen_paths[:n], gt_paths[:n], len(gen_paths), len(gt_paths)))
    prfs = iter(_score_groups(groups))
    # each pair takes its three groups' results from the one iterator: content, left, top
    return [
        {
            "teds": teds(generated, groundtruth),
            "content_precision": precision,
            "content_recall": recall,
            "content_f1": f1,
            "header_f1": {"left": left[2], "top": top[2]},
        }
        for (generated, groundtruth), (precision, recall, f1), left, top in zip(
            pairs, prfs, prfs, prfs
        )
    ]


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
        field: _field_means(column)
        if isinstance(column[0], dict)
        else _sum_in_order(column) / len(column)
        for field, column in columns.items()
    }
