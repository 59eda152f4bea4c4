"""Independent oracles the implementation is checked against.

These deliberately avoid the production code paths: tree edit distance is
computed by exhaustive enumeration of valid edit mappings (not a dynamic
program), chrF by a separate dict-based reimplementation, retrieval
rankings by a pure-Python cosine scan, and key-value content similarity by
the reference chrF over every generated x ground-truth key pair. The slow forms of
optimized paths are kept here too: the Zhang–Shasha program run for every
key-root pair, table scoring pair by pair, in four chrF
kernel calls per pair, the shared n-gram mask by ``np.intersect1d``, the
full-sort retrieval ranking, the
hash-per-gram embedder loop (as dense rows, and as ``Counter`` cosines),
the per-table sentence re-scan of annotation matching (with its own copy
of the number-token pattern, tried at every character of every sentence),
the node-by-node HTML serializer, the stub text joined by cell origin, and
the sentence splitter that searches the whole text before each candidate
cut for the token ending there. The transcript file layout is spelled out
here once more, with its own JSON encoding and fingerprints.
"""
from __future__ import annotations

import hashlib
import html
import json
import math
import re
from collections import Counter, deque
from typing import NamedTuple

import numpy as np

from doc2table.annotate import CellMatch
from doc2table.data import DEFAULT_ABBREVIATIONS
from doc2table.metrics import (
    KEY_JOIN,
    KEY_MATCH_THRESHOLD,
    _joined_key,
    _prf,
    chrf,
    chrf_matrix,
)
from doc2table.model import (
    CoordTree,
    HeaderNode,
    HierarchicalTable,
    flatten_to_kv,
    normalize_text,
)
from doc2table.providers import EMBED_DIM
from doc2table.treedist import teds


def _postorder(root: HeaderNode) -> tuple[list[str], list[int]]:
    """Labels in postorder plus descendant bitmasks per node."""
    labels: list[str] = []
    desc: list[int] = []

    def walk(node: HeaderNode) -> int:
        mask = 0
        for child in node.children:
            child_index = walk(child)
            mask |= desc[child_index] | (1 << child_index)
        labels.append(node.label)
        desc.append(mask)
        return len(labels) - 1

    walk(root)
    return labels, desc


def brute_tree_edit_distance(a: HeaderNode, b: HeaderNode) -> int:
    """Minimum edit-mapping cost by exhaustive enumeration.

    A valid mapping pairs nodes one-to-one preserving postorder order and
    the ancestor/descendant relation. Its cost is one per unmapped node on
    either side plus one per mapped pair with differing labels, which
    equals: |a| + |b| - (2 per exact pair + 1 per relabeled pair). The
    search maximizes those savings with a simple branch-and-bound.
    """
    labels_a, desc_a = _postorder(a)
    labels_b, desc_b = _postorder(b)
    n, m = len(labels_a), len(labels_b)
    best_savings = 0
    pairs: list[tuple[int, int]] = []

    def extend(i: int, next_j: int, savings: int) -> None:
        nonlocal best_savings
        if savings > best_savings:
            best_savings = savings
        remaining = min(n - i, m - next_j)
        if savings + 2 * remaining <= best_savings:
            return
        if i == n or next_j == m:
            return
        # Option: leave node i unmapped.
        extend(i + 1, next_j, savings)
        # Option: map node i to any later-ordered j, keeping ancestry consistent.
        for j in range(next_j, m):
            ok = True
            for pi, pj in pairs:
                if bool(desc_a[i] & (1 << pi)) != bool(desc_b[j] & (1 << pj)):
                    ok = False
                    break
            if not ok:
                continue
            pairs.append((i, j))
            gain = 2 if labels_a[i] == labels_b[j] else 1
            extend(i + 1, j + 1, savings + gain)
            pairs.pop()

    extend(0, 0, 0)
    return n + m - best_savings


class _ReferencePostOrder(NamedTuple):
    labels: list[str]
    lml: list[int]  # index of the leftmost leaf descendant, per node
    keyroots: list[int]


def _reference_postorder(root: HeaderNode) -> _ReferencePostOrder:
    labels: list[str] = []
    lml: list[int] = []

    def walk(node: HeaderNode) -> int:
        first_leaf = -1
        for child in node.children:
            child_first = walk(child)
            if first_leaf == -1:
                first_leaf = child_first
        index = len(labels)
        if first_leaf == -1:
            first_leaf = index
        labels.append(node.label)
        lml.append(first_leaf)
        return first_leaf

    walk(root)
    keyroots = [
        i for i in range(len(labels)) if all(lml[k] != lml[i] for k in range(i + 1, len(labels)))
    ]
    return _ReferencePostOrder(labels, lml, keyroots)


def reference_tree_distance(a: HeaderNode, b: HeaderNode) -> int:
    """Zhang–Shasha with the forest program run for every key-root pair,
    leaves included, and no shortcut for equal trees."""
    ta, tb = _reference_postorder(a), _reference_postorder(b)
    n, m = len(ta.labels), len(tb.labels)
    td = [[0] * m for _ in range(n)]

    for i in ta.keyroots:
        for j in tb.keyroots:
            _reference_forest_distance(ta, tb, i, j, td)
    return td[n - 1][m - 1]


def _reference_forest_distance(ta, tb, i: int, j: int, td: list[list[int]]) -> None:
    li, lj = ta.lml[i], tb.lml[j]
    rows = i - li + 2
    cols = j - lj + 2
    fd = [[0] * cols for _ in range(rows)]
    for x in range(1, rows):
        fd[x][0] = fd[x - 1][0] + 1
    for y in range(1, cols):
        fd[0][y] = fd[0][y - 1] + 1

    for x in range(1, rows):
        di = li + x - 1  # postorder index in a
        for y in range(1, cols):
            dj = lj + y - 1
            if ta.lml[di] == li and tb.lml[dj] == lj:
                rename = 0 if ta.labels[di] == tb.labels[dj] else 1
                fd[x][y] = min(
                    fd[x - 1][y] + 1,
                    fd[x][y - 1] + 1,
                    fd[x - 1][y - 1] + rename,
                )
                td[di][dj] = fd[x][y]
            else:
                fd[x][y] = min(
                    fd[x - 1][y] + 1,
                    fd[x][y - 1] + 1,
                    fd[ta.lml[di] - li][tb.lml[dj] - lj] + td[di][dj],
                )


def reference_chrf(candidate: str, reference: str, max_order: int = 6, beta: float = 2.0) -> float:
    """Reference chrF: per-order F at the given beta, macro-averaged.

    Whitespace is stripped before n-gram extraction; orders with no
    n-grams on either side are skipped; all orders skipped means both
    strings were empty and the score is 100.
    """
    cand_chars = [ch for ch in candidate if not ch.isspace()]
    ref_chars = [ch for ch in reference if not ch.isspace()]

    def gram_counts(chars: list[str], order: int) -> dict[tuple[str, ...], int]:
        counts: dict[tuple[str, ...], int] = {}
        for i in range(len(chars) - order + 1):
            gram = tuple(chars[i : i + order])
            counts[gram] = counts.get(gram, 0) + 1
        return counts

    per_order = []
    for order in range(1, max_order + 1):
        cand_grams = gram_counts(cand_chars, order)
        ref_grams = gram_counts(ref_chars, order)
        total_cand = sum(cand_grams.values())
        total_ref = sum(ref_grams.values())
        if total_cand == 0 and total_ref == 0:
            continue
        overlap = 0
        for gram, count in cand_grams.items():
            other = ref_grams.get(gram, 0)
            overlap += count if count < other else other
        precision = overlap / total_cand if total_cand else 0.0
        recall = overlap / total_ref if total_ref else 0.0
        if precision + recall == 0.0:
            per_order.append(0.0)
        else:
            per_order.append(
                (1 + beta**2) * precision * recall / (beta**2 * precision + recall)
            )
    if not per_order:
        return 100.0
    # left to right, one order at a time: ``sum`` of floats compensates
    # from Python 3.12 on, which would break bit-equality with the program
    f_sum = 0.0
    for f in per_order:
        f_sum += f
    return 100.0 * f_sum / len(per_order)


def brute_cosine_ranking(query_vector, sentence_vectors) -> list[tuple[int, float]]:
    """Rank all sentences by a pure-Python dot product, ties by id.

    Scores are quantized to 9 decimals, matching the retrieval contract.
    """
    scored = []
    for sid, vector in enumerate(sentence_vectors):
        dot = 0.0
        for x, y in zip(query_vector, vector):
            dot += float(x) * float(y)
        scored.append((sid, round(dot, 9)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def reference_rankings(
    sentence_vectors: np.ndarray, query_vectors: np.ndarray
) -> list[list[tuple[int, float]]]:
    """Full ranking per query: one matrix-vector product each, every score
    rounded to 9 decimals, every sentence sorted by (-score, id)."""
    rankings = []
    for q_vec in query_vectors:
        scores = [round(float(s), 9) for s in sentence_vectors @ q_vec]
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        rankings.append([(i, scores[i]) for i in order])
    return rankings


def reference_transcript_text(provider: str, captured: str, pairs: list[tuple[dict, dict]]) -> str:
    """The transcript file of the (request, response) ``pairs``.

    The meta line comes first, then one line per distinct request in
    fingerprint order, its last response kept. Each line is a compact,
    key-sorted, ASCII-only JSON object; escaping every non-ASCII character
    also keeps U+2028 and U+0085, which ``str.splitlines`` splits on, out
    of the file.
    """

    def line(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"

    by_fingerprint = {}
    for request, response in pairs:
        fingerprint = hashlib.sha256(line(request)[:-1].encode("utf-8")).hexdigest()
        by_fingerprint[fingerprint] = (request, response)
    text = line({"meta": {"provider": provider, "captured": captured}})
    for fingerprint in sorted(by_fingerprint):
        request, response = by_fingerprint[fingerprint]
        text += line({"fingerprint": fingerprint, "request": request, "response": response})
    return text


def _reference_gram_bucket(gram: str) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8", "surrogatepass"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % EMBED_DIM


def _reference_grams(text: str) -> list[str]:
    """The character 3-grams of the whitespace-collapsed, space-padded text."""
    padded = " " + " ".join(text.split()) + " "
    return [padded[j : j + 3] for j in range(len(padded) - 2)]


def reference_hashing_embed(texts: list[str]) -> np.ndarray:
    """The hashing embedder as dense unit rows, one blake2b digest and one
    increment per 3-gram."""
    out = np.zeros((len(texts), EMBED_DIM), dtype=np.float64)
    for i, text in enumerate(texts):
        for gram in _reference_grams(text):
            out[i, _reference_gram_bucket(gram)] += 1.0
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


def reference_hashing_scores(sentences: list[str], queries: list[str]) -> list[list[float]]:
    """Hashing-embedder cosine of each query (rows) against each sentence:
    a ``Counter`` of 3-gram buckets per text, the integer dot product of
    two counters divided by the product of their L2 norms, 0.0 where
    either text has no gram."""
    sentence_counts = [Counter(map(_reference_gram_bucket, _reference_grams(s))) for s in sentences]
    query_counts = [Counter(map(_reference_gram_bucket, _reference_grams(q))) for q in queries]

    def norm(counts: Counter) -> float:
        return math.sqrt(sum(c * c for c in counts.values()))

    rows = []
    for q in query_counts:
        row = []
        for s in sentence_counts:
            dot = sum(count * s[bucket] for bucket, count in q.items())
            denominator = norm(q) * norm(s)
            row.append(dot / denominator if denominator else 0.0)
        rows.append(row)
    return rows


_REFERENCE_NUMBER_TOKEN = re.compile(
    r"""
    (\()?                                   # parenthesized negative, open
    \s*(-|−)?\s*                            # explicit minus
    [$€£¥]?\s?
    (
        \d{1,3}(?:,\s?\d{3})+(?:\.\d+)?       # comma-grouped, tolerate ", " spacing
        | \d{1,3}(?:\ \d{3})+(?:\.\d+)?       # space-grouped thousands
        | \d+(?:\.\d+)?                       # plain integer / decimal
    )
    \s*(\))?
    """,
    re.VERBOSE,
)


def _reference_magnitude(digits: str) -> str:
    plain = re.sub(r"[,\s]", "", digits)
    if "." in plain:
        integer, fraction = plain.split(".", 1)
        fraction = fraction.rstrip("0")
        integer = integer.lstrip("0") or "0"
        return f"{integer}.{fraction}" if fraction else integer
    return plain.lstrip("0") or "0"


def reference_parse_cell_number(cell_text: str) -> tuple[str, bool] | None:
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
    text = text.lstrip("$€£¥").strip()
    if text.endswith("%"):
        text = text[:-1].strip()
    match = _REFERENCE_NUMBER_TOKEN.fullmatch(text)
    if not match or match.group(1) or match.group(2) or match.group(4):
        return None
    return _reference_magnitude(match.group(3)), negative


def reference_sentence_numbers(sentence: str) -> list[tuple[str, bool]]:
    """Every (canonical magnitude, is_negative) token of the normalized
    sentence, one ``finditer`` over it with no pre-filter."""
    tokens = []
    for match in _REFERENCE_NUMBER_TOKEN.finditer(normalize_text(sentence)):
        negative = bool(match.group(2)) or bool(match.group(1) and match.group(4))
        tokens.append((_reference_magnitude(match.group(3)), negative))
    return tokens


def reference_match_cells(table: HierarchicalTable, store) -> list[CellMatch]:
    """Candidate sentences for every body cell, re-scanning every sentence of
    ``store`` (anything with ``.sentences``) on each call."""
    normalized_sentences = [normalize_text(s) for s in store.sentences]
    numbers_per_sentence = [reference_sentence_numbers(s) for s in normalized_sentences]
    lowered_sentences = [s.lower() for s in normalized_sentences]

    matches: list[CellMatch] = []
    for r, row in enumerate(table.body):
        for c, cell in enumerate(row):
            if not cell:
                continue
            number = reference_parse_cell_number(cell)
            if number is not None:
                magnitude, negative = number
                hit_ids: list[int] = []
                flips: list[int] = []
                for sid, tokens in enumerate(numbers_per_sentence):
                    signs = {neg for mag, neg in tokens if mag == magnitude}
                    if not signs:
                        continue
                    hit_ids.append(sid)
                    if negative not in signs:
                        flips.append(sid)
                if hit_ids:
                    matches.append(
                        CellMatch(r, c, "numeric", tuple(hit_ids), magnitude, tuple(flips))
                    )
            else:
                phrase = re.escape(cell.lower())
                pattern = re.compile(rf"(?<!\w){phrase}(?!\w)")
                hit_ids = [
                    sid for sid, text in enumerate(lowered_sentences) if pattern.search(text)
                ]
                if hit_ids:
                    matches.append(CellMatch(r, c, "textual", tuple(hit_ids)))
    return matches


def brute_round_robin(ranked_lists: list[list[tuple[int, float]]], k: int) -> list[tuple[int, float]]:
    """Independent restatement of the merge rule for golden computation."""
    out: list[tuple[int, float]] = []
    seen: set[int] = set()
    longest = max((len(lst) for lst in ranked_lists), default=0)
    for position in range(longest):
        for lst in ranked_lists:
            if position < len(lst):
                sid, score = lst[position]
                if sid not in seen:
                    seen.add(sid)
                    out.append((sid, score))
    return out[:k]


class ReferenceContent(NamedTuple):
    """The ground-truth index -> generated index map, in ground-truth order,
    and the content precision, recall and F1 it gives."""

    matches: dict[int, int]
    precision: float
    recall: float
    f1: float


def reference_content_similarity(
    generated: HierarchicalTable,
    groundtruth: HierarchicalTable,
) -> ReferenceContent:
    """Key-value content similarity between two tables.

    Both tables are flattened to key-value triples. Pairs are matched
    greedily by descending key similarity: exact key equality first, then
    chrF over the joined key strings with a 0.5 floor; ties break by
    document order (ground truth first). Each side is matched at most
    once. The matched pair's score is ``reference_chrf`` over the two
    cell texts, rescaled to [0, 1]; precision divides the score sum by the generated pair
    count, recall by the ground-truth pair count.
    """
    gen = flatten_to_kv(generated)
    gt = flatten_to_kv(groundtruth)

    candidates: list[tuple[int, float, int, int]] = []
    for t_idx, t in enumerate(gt):
        t_key = (t.left_key, t.top_key)
        t_joined = _joined_key(*t_key)
        for g_idx, g in enumerate(gen):
            g_key = (g.left_key, g.top_key)
            if g_key == t_key:
                candidates.append((0, 0.0, t_idx, g_idx))
                continue
            sim = reference_chrf(_joined_key(*g_key), t_joined) / 100.0
            if sim >= KEY_MATCH_THRESHOLD:
                candidates.append((1, -sim, t_idx, g_idx))
    candidates.sort()

    matched_gen: set[int] = set()
    gt_match: dict[int, int] = {}
    for _, _, t_idx, g_idx in candidates:
        if t_idx in gt_match or g_idx in matched_gen:
            continue
        gt_match[t_idx] = g_idx
        matched_gen.add(g_idx)

    matches = dict(sorted(gt_match.items()))
    total = 0.0
    for t_idx, g_idx in matches.items():
        total += reference_chrf(gen[g_idx].value, gt[t_idx].value) / 100.0

    precision = total / len(gen) if gen else 0.0
    recall = total / len(gt) if gt else 0.0
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return ReferenceContent(matches, precision, recall, f1)


def reference_table_scores(generated: HierarchicalTable, groundtruth: HierarchicalTable) -> dict:
    """The metrics of one pair in four chrF kernel calls of its own: a
    :func:`chrf_matrix` over the unmatched keys (even when a side has none),
    a :func:`chrf` over the matched values and one over each header side's
    aligned leaf paths, each sum added left to right. The batched
    ``table_scores`` must equal it float for float."""
    gen = flatten_to_kv(generated)
    gt = flatten_to_kv(groundtruth)
    gen_keys = [(g.left_key, g.top_key) for g in gen]
    gt_keys = [(t.left_key, t.top_key) for t in gt]

    unused: dict[tuple, deque[int]] = {}
    for g_idx, key in enumerate(gen_keys):
        unused.setdefault(key, deque()).append(g_idx)
    gt_match: dict[int, int] = {}
    for t_idx, key in enumerate(gt_keys):
        same_key = unused.get(key)
        if same_key:
            gt_match[t_idx] = same_key.popleft()

    matched_gen = set(gt_match.values())
    rest_gt = [t_idx for t_idx in range(len(gt)) if t_idx not in gt_match]
    rest_gen = [g_idx for g_idx in range(len(gen)) if g_idx not in matched_gen]
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

    def left_to_right(values) -> float:
        total = 0.0
        for score in (values / 100.0).tolist():
            total += score
        return total

    matched_gt = sorted(gt_match)
    values = chrf([gen[gt_match[i]].value for i in matched_gt], [gt[i].value for i in matched_gt])
    content_precision, content_recall, content_f1 = _prf(left_to_right(values), len(gen), len(gt))

    def header_f1(gen_tree: CoordTree, gt_tree: CoordTree) -> float:
        gen_paths = [KEY_JOIN.join(p) for _, p in gen_tree.leaves]
        gt_paths = [KEY_JOIN.join(p) for _, p in gt_tree.leaves]
        aligned = min(len(gen_paths), len(gt_paths))
        total = left_to_right(chrf(gen_paths[:aligned], gt_paths[:aligned]))
        return _prf(total, len(gen_paths), len(gt_paths))[2]

    return {
        "teds": teds(generated, groundtruth),
        "content_precision": content_precision,
        "content_recall": content_recall,
        "content_f1": content_f1,
        "header_f1": {
            "left": header_f1(generated.left, groundtruth.left),
            "top": header_f1(generated.top, groundtruth.top),
        },
    }


def reference_shared_grams(grams: np.ndarray, is_cand: np.ndarray) -> np.ndarray:
    """Mask over n-gram ids 0..max: True for the ids both sides hold, by ``np.intersect1d``."""
    shared = np.zeros(int(grams.max(initial=0)) + 1, dtype=bool)
    shared[np.intersect1d(grams[is_cand], grams[~is_cand])] = True
    return shared


def reference_stub_header(grid, h: int, w: int) -> str:
    """The stub text by the rule of origins: every cell whose top-left slot
    lies in the first h rows and w columns, joined in (row, column) order of
    those slots."""
    cells = {id(cell): cell for row in grid.slots for cell in row}.values()
    inside = sorted((c.origin, c.text) for c in cells if c.origin[0] < h and c.origin[1] < w)
    return normalize_text(" ".join(text for _, text in inside))


def _subtree_leaves(node: HeaderNode) -> int:
    if node.is_leaf:
        return 1
    return sum(_subtree_leaves(c) for c in node.children)


def _nodes_by_depth(tree: CoordTree) -> list[list[HeaderNode]]:
    levels: list[list[HeaderNode]] = []

    def walk(node: HeaderNode, depth: int) -> None:
        if depth == len(levels):
            levels.append([])
        levels[depth].append(node)
        for child in node.children:
            walk(child, depth + 1)

    for root in tree.roots:
        walk(root, 0)
    return levels


def _span_attrs(row_span: int, col_span: int) -> str:
    attrs = ""
    if row_span > 1:
        attrs += f' rowspan="{row_span}"'
    if col_span > 1:
        attrs += f' colspan="{col_span}"'
    return attrs


def reference_serialize_html(table: HierarchicalTable) -> str:
    """Canonical HTML built node by node: the header rows level by level,
    the row-header cells assigned to the body row where their subtree starts,
    and every span counted by recursion over the subtree."""
    top_levels = _nodes_by_depth(table.top)
    h = len(top_levels)
    w = len(_nodes_by_depth(table.left))
    esc = html.escape

    lines = ["<table>", "<thead>"]
    for depth, level in enumerate(top_levels):
        cells = []
        if depth == 0:
            cells.append(f"<th{_span_attrs(h, w)}>{esc(table.stub_header)}</th>")
        for node in level:
            row_span = h - depth if node.is_leaf else 1
            cells.append(f"<th{_span_attrs(row_span, _subtree_leaves(node))}>{esc(node.label)}</th>")
        lines.append("<tr>" + "".join(cells) + "</tr>")
    lines.append("</thead>")

    lines.append("<tbody>")
    starts: dict[int, list[tuple[int, HeaderNode]]] = {}

    def assign(node: HeaderNode, depth: int, first_row: int) -> int:
        starts.setdefault(first_row, []).append((depth, node))
        if node.is_leaf:
            return first_row + 1
        row = first_row
        for child in node.children:
            row = assign(child, depth + 1, row)
        return row

    row = 0
    for root in table.left.roots:
        row = assign(root, 0, row)

    for r in range(len(table.body)):
        cells = []
        for depth, node in starts.get(r, []):
            col_span = w - depth if node.is_leaf else 1
            cells.append(f"<th{_span_attrs(_subtree_leaves(node), col_span)}>{esc(node.label)}</th>")
        for value in table.body[r]:
            cells.append(f"<td>{esc(value)}</td>")
        lines.append("<tr>" + "".join(cells) + "</tr>")
    lines.append("</tbody>")
    lines.append("</table>")
    return "\n".join(lines)


def reference_split_sentences(text: str) -> list[str]:
    """The rule-based splitter, finding each candidate's last token with a
    regex search over the whole text before it (quadratic in the text)."""
    if not text.strip():
        return []
    cut_points = []
    balance_upto = 0
    balance = 0
    for match in re.finditer(r"[.!?]+(?=\s+[A-Z0-9])", text):
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
            token_match = re.search(r"(\S+)$", text[:end])
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
