"""Correctness gates: each run's outputs against independent references.

The references come from the workload specs and from ``tests/oracles.py``
(``reference_chrf``, ``brute_cosine_ranking``, ``brute_round_robin``),
never from the program's own code paths. Each check returns the list of
problems it found (an empty list means the outputs are correct), the number
of items that failed, which must be exactly the injected ones, and the
quality scores of its workload kind, computed from the per-item rows it
checked.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from oracles import brute_cosine_ranking, brute_round_robin, reference_chrf

EMBED_DIM = 4096
TOLERANCE = 1e-9
KEY_JOIN = " / "


def read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every output file, to show that repeated runs agree to the byte."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _check_summary(path: Path, expected: dict[str, float], n_items: int) -> list[str]:
    """The aggregate file must hold the means of the per-item rows the gate checked."""
    summary = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    found = {"teds": summary.get("teds"), "content_f1": summary.get("content_f1")}
    if "recall_at_10" in expected:
        found["recall_at_10"] = summary.get("recall_at_k", {}).get("10")
    if summary.get("n_items") != n_items or any(
        found[key] is None or not _close(found[key], value) for key, value in expected.items()
    ):
        return [f"{path.name} {found} does not aggregate the {n_items} checked rows {expected}"]
    return []


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def hashing_vector(text: str) -> dict[int, float]:
    """Sparse form of the documented hashing embedder: character 3-grams of
    the whitespace-collapsed, space-padded text, blake2b-bucketed, L2-normalized."""
    padded = " " + " ".join(text.split()) + " "
    counts: dict[int, float] = {}
    for j in range(len(padded) - 2):
        digest8 = hashlib.blake2b(padded[j : j + 3].encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest8, "big") % EMBED_DIM
        counts[bucket] = counts.get(bucket, 0.0) + 1.0
    norm = math.sqrt(sum(v * v for v in counts.values()))
    return {b: v / norm for b, v in counts.items()} if norm else {}


def reference_ranking(query: dict[int, float], sentences: list[dict[int, float]]):
    """``brute_cosine_ranking`` over the query's non-zero dimensions only.

    The omitted terms are products with zero, which leave the oracle's
    running sums unchanged, so the scores are the oracle's to the bit.
    """
    dims = sorted(query)
    return brute_cosine_ranking(
        [query[d] for d in dims], [[vector.get(d, 0.0) for d in dims] for vector in sentences]
    )


def reference_content_f1(generated, truth) -> float:
    """Key-value content F1 by the documented rule, on ``Grid`` specs.

    Pairs are matched greedily: equal keys first, then by descending chrF
    of the joined keys with a 0.5 floor, ties by ground-truth then
    generated order; a matched pair scores chrF of its two values.
    """
    gen, gt = generated.kv(), truth.kv()

    def joined(left, top):
        return KEY_JOIN.join(left) + KEY_JOIN + KEY_JOIN.join(top)

    if [(left, top) for left, top, _ in gen] == [(left, top) for left, top, _ in gt]:
        candidates = [(0, 0.0, i, i) for i in range(len(gt))]  # each key's only equal partner
    else:
        candidates = []
        for ti, (t_left, t_top, _) in enumerate(gt):
            for gi, (g_left, g_top, _) in enumerate(gen):
                if (g_left, g_top) == (t_left, t_top):
                    candidates.append((0, 0.0, ti, gi))
                    continue
                sim = reference_chrf(joined(g_left, g_top), joined(t_left, t_top)) / 100.0
                if sim >= 0.5:
                    candidates.append((1, -sim, ti, gi))
        candidates.sort()
    match: dict[int, int] = {}
    used: set[int] = set()
    for _, _, ti, gi in candidates:
        if ti not in match and gi not in used:
            match[ti] = gi
            used.add(gi)
    total = 0.0
    for ti in range(len(gt)):
        if ti in match:
            total += reference_chrf(gen[match[ti]][2], gt[ti][2]) / 100.0
    precision, recall = total / len(gen), total / len(gt)
    return 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def check_pipeline(work, out: Path) -> tuple[list[str], int, dict[str, float]]:
    problems: list[str] = []
    questions = work.questions
    errors = {row["id"]: row for row in read_jsonl(out / "errors.jsonl")}
    tables = [row["id"] for row in read_jsonl(out / "tables.jsonl")]
    failing = [q.item_id for q in questions if q.role == "fail"]
    if sorted(errors) != failing or any(row["stage"] != "structure" for row in errors.values()):
        problems.append(f"error rows {sorted(errors)} are not the injected structure failures {failing}")
    expected_tables = [q.item_id for q in questions if q.role != "fail"]
    if tables != expected_tables:
        problems.append(f"tables.jsonl ids {tables} != {expected_tables}")
    failed = len(errors) + len(set(q.item_id for q in questions) - set(tables) - set(errors))

    # Retrieval against the brute-force cosine scan and round-robin merge.
    retrieval = {row["id"]: row for row in read_jsonl(out / "retrieval.jsonl")}
    vectors = {
        doc.doc_id: [hashing_vector(doc.rewrites.get(s, s)) for s in doc.sentences]
        for doc in work.documents
    }
    recall_expected: dict[str, dict[str, float]] = {}
    for q in questions:
        row = retrieval.get(q.item_id)
        if row is None:
            problems.append(f"{q.item_id}: no retrieval record")
            continue
        ranked = [reference_ranking(hashing_vector(s), vectors[q.doc_id]) for s in q.sub_questions]
        merged = [sid for sid, _ in brute_round_robin(ranked, work.k)]
        if [sid for sid, _ in row["merged"]] != merged:
            problems.append(f"{q.item_id}: merged ranking differs from the brute-force reference")
        for produced, reference in zip(row["per_question"], ranked):
            if [sid for sid, _ in produced[:60]] != [sid for sid, _ in reference[:60]]:
                problems.append(f"{q.item_id}: a sub-question ranking differs in its top 60")
        recall_expected[q.item_id] = {
            str(k): len(set(q.relevant) & set(merged[:k])) / len(q.relevant) for k in (10, 20, 30)
        }
    recall_file = out / "recall.json"
    if not recall_file.exists():
        problems.append("recall.json is missing")
    recall = json.loads(recall_file.read_text()) if recall_file.exists() else {"per_item": [], "mean": {}}
    recall_rows = {item["id"]: item["recall_at_k"] for item in recall["per_item"]}
    question_ids = [q.item_id for q in questions]
    if sorted(recall_rows) != sorted(question_ids):
        problems.append(f"recall.json ids {sorted(recall_rows)} != {sorted(question_ids)}")
    for item_id, expected in recall_expected.items():
        produced = recall_rows.get(item_id, {})
        if any(k not in produced or not _close(produced[k], v) for k, v in expected.items()):
            problems.append(f"{item_id}: recall@k {produced} != {expected}")
    recall_at_10 = _mean([recall_rows[i]["10"] for i in question_ids if i in recall_rows])
    if not _close(recall.get("mean", {}).get("10", -1.0), recall_at_10):
        problems.append(f"recall.json mean {recall.get('mean')} does not aggregate its rows")

    # Scores against the expected answer tables.
    evaluation = {row["id"]: row for row in read_jsonl(out / "evaluation.jsonl")}
    if sorted(evaluation) != sorted(expected_tables):
        problems.append(f"evaluation.jsonl ids {sorted(evaluation)} != {sorted(expected_tables)}")
    for q in questions:
        row = evaluation.get(q.item_id)
        if row is None or q.answer is None:
            continue
        if q.role in ("perfect", "retry"):
            if row["teds"] != 1.0 or row["content_f1"] != 1.0:
                problems.append(f"{q.item_id}: a perfect answer scored {row['teds']}, {row['content_f1']}")
        elif not _close(row["content_f1"], reference_content_f1(q.answer, q.truth)):
            problems.append(f"{q.item_id}: content F1 {row['content_f1']} differs from the reference")
        if q.role == "wrong" and row["teds"] != 1.0:
            problems.append(f"{q.item_id}: wrong values changed TEDS to {row['teds']}")
        if q.role == "renamed" and not 0.0 <= row["teds"] < 1.0:
            problems.append(f"{q.item_id}: renamed headers scored TEDS {row['teds']}")
        if row.get("recall_at_k") != recall_rows.get(q.item_id):
            problems.append(f"{q.item_id}: evaluation.jsonl recall@k differs from recall.json")
    scored = [evaluation[i] for i in expected_tables if i in evaluation]
    scores = {
        "teds": _mean([row["teds"] for row in scored]),
        "content_f1": _mean([row["content_f1"] for row in scored]),
    }
    problems += _check_summary(
        out / "evaluation.json",
        {**scores, "recall_at_10": _mean([recall_rows.get(row["id"], {}).get("10", 0.0) for row in scored])},
        len(scored),
    )
    scores["recall_at_10"] = recall_at_10
    traces = {row["id"]: row for row in read_jsonl(out / "traces.jsonl")}
    for q in questions:
        retries = traces.get(q.item_id, {}).get("structure_retries")
        if q.role != "fail" and retries != (q.role == "retry"):
            problems.append(f"{q.item_id}: {retries} structure retries for a {q.role} reply")
    return problems, failed, scores


def check_eval(work, out: Path) -> tuple[list[str], int, dict[str, float]]:
    problems: list[str] = []
    rows = read_jsonl(out / "evaluation.jsonl")
    scored = [p for p in work.pairs if p.generated is not None]
    if [row["id"] for row in rows] != [p.item_id for p in scored]:
        problems.append(f"evaluated ids {[row['id'] for row in rows]} != {[p.item_id for p in scored]}")
    by_id = {row["id"]: row for row in rows}
    for pair in scored:
        row = by_id.get(pair.item_id)
        if row is None:
            continue
        if pair.kind == "altered":
            if row["teds"] != 1.0:
                problems.append(f"{pair.item_id}: equal headers scored TEDS {row['teds']}")
        elif not 0.0 <= row["teds"] < 1.0:
            problems.append(f"{pair.item_id}: changed headers scored TEDS {row['teds']}")
        if not _close(row["content_f1"], reference_content_f1(pair.generated, pair.truth)):
            problems.append(f"{pair.item_id}: content F1 {row['content_f1']} differs from the reference")
    scores = {
        "teds": _mean([row["teds"] for row in rows]),
        "content_f1": _mean([row["content_f1"] for row in rows]),
    }
    problems += _check_summary(out / "evaluation.json", scores, len(rows))
    return problems, len(work.pairs) - len(rows), scores


def check_annotate(work, out: Path) -> tuple[list[str], int, dict[str, float]]:
    problems: list[str] = []
    covered = [t for t in work.tables if t.covered]
    excluded = [row["table_id"] for row in read_jsonl(out / "exclusions.jsonl")]
    if excluded != [t.table_id for t in work.tables if not t.covered]:
        problems.append(f"excluded tables {excluded} are not the injected uncovered ones")
    triples = {row["id"]: row for row in read_jsonl(out / "triples.jsonl")}
    if list(triples) != [t.table_id for t in covered]:
        problems.append(f"retained tables {list(triples)} != {[t.table_id for t in covered]}")
    matches = {row["table_id"]: row for row in read_jsonl(out / "matches.jsonl")}
    for table in work.tables:
        row = matches.get(table.table_id)
        if row is None:
            problems.append(f"{table.table_id}: no match record")
            continue
        found = {(m["row"], m["col"]): (m["kind"], m["sentence_ids"]) for m in row["matches"]}
        if found != table.expected:
            problems.append(f"{table.table_id}: cell matches differ from the planted sentences")
        triple = triples.get(table.table_id)
        if triple is not None:
            planted = sorted({sid for _, ids in table.expected.values() for sid in ids})
            if triple["relevant_sentence_ids"] != planted:
                problems.append(f"{table.table_id}: relevant sentence ids differ from the planted ones")
    return problems, len(work.tables) - len(triples), {}


def check(work, out: Path) -> tuple[list[str], int, dict[str, float]]:
    """Problems found in one run's outputs, the number of failed items, and
    the quality scores: TEDS and content F1 for ``pipeline`` and
    ``evaluate``, and recall@10 for ``pipeline``."""
    if work.name == "eval_large_tables":
        return check_eval(work, out)
    if work.name == "annotate_corpus":
        return check_annotate(work, out)
    return check_pipeline(work, out)
