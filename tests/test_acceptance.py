"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion. Tolerances are pinned here, not configurable.
"""
from __future__ import annotations

import json
import random
import time

import pytest

from doc2table.cli import main as cli_main
from doc2table.data import read_documents, read_triples
from doc2table.html_io import parse_html_table, serialize_html
from doc2table.metrics import chrf, recall_at_k
from doc2table.model import CoordTree, HierarchicalTable, flatten_to_kv
from doc2table.providers import HashingEmbedder, ReplayProvider, Rewriter, Transcript
from doc2table.retrieval import retrieve_top_k, rewrite_question, rewrite_sentences
from doc2table.treedist import teds, tree_edit_distance
from doc2table.annotate import CellMatch, coverage

import strategies as sts
from conftest import FIXTURES, make_flat_table
from oracles import brute_tree_edit_distance, reference_chrf

CORPUS = FIXTURES / "corpus"
PIPELINE = FIXTURES / "pipeline"


def report(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_tree_edit_distance_matches_bruteforce_oracle():
    """Exhaustive ordered tree shapes up to 6 nodes, 3-label alphabet."""
    start = time.time()
    alphabet = ["a", "b", "c"]
    shapes = sts.all_tree_shapes(6)
    assert len(shapes) == 65  # catalan(0..5): 1+1+2+5+14+42

    checked = 0
    for shape_a in shapes:
        for shape_b in shapes:
            for rot_a, rot_b in ((0, 0), (0, 1), (1, 2)):
                a = sts.label_shape(shape_a, alphabet, rot_a)
                b = sts.label_shape(shape_b, alphabet, rot_b)
                assert tree_edit_distance(a, b) == brute_tree_edit_distance(a, b)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"
    report(
        f"tree edit distance equals brute-force mapping oracle on {checked} "
        f"labeled pairs over all {len(shapes)} shapes <= 6 nodes ({elapsed:.1f}s)"
    )


def test_teds_bounds_and_identity_on_1000_random_tables():
    rng = random.Random(42)
    tables = [sts.random_table(rng, max_dim=6, max_depth=3) for _ in range(1000)]
    for table in tables:
        assert teds(table, table) == 1.0
    pair_rng = random.Random(43)
    for _ in range(300):
        a, b = pair_rng.choice(tables), pair_rng.choice(tables)
        score = teds(a, b)
        assert 0.0 <= score <= 1.0
    report("teds(T, T) == 1.0 for 1000 random tables; teds in [0, 1] on 300 pairs")


def test_chrf_matches_reference_oracle_on_500_pairs():
    rng = random.Random(7)
    pool = [
        "", " ", "61,276", "61, 276", "abc", "xyz", "naïve", "北京 2023",
        "$1,234.56", "revenue grew 5%", "Ω≈ç√∫", "a", "ab", "tab\tand\nnewline",
    ]
    pairs = []
    for _ in range(250):
        pairs.append((rng.choice(pool), rng.choice(pool)))
    alphabet = "abcdefg 123,.$%é漢"
    for _ in range(250):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 25)))
        pairs.append((a, b))
    assert len(pairs) == 500
    scores = chrf([c for c, _ in pairs], [r for _, r in pairs]).tolist()
    assert scores == [reference_chrf(candidate, reference) for candidate, reference in pairs]
    report("batched chrF equals the independent reference implementation bit for bit on 500 pairs")


def test_example_table_fixture_fidelity():
    html = (FIXTURES / "cancer_stats.html").read_text(encoding="utf-8")
    table = parse_html_table(html)
    triple = (
        ("Urinary tract", "Kidney and renal pelvis"),
        ("Mortality", "Females"),
        "61, 276",
    )
    assert triple in [(t.left_key, t.top_key, t.value) for t in flatten_to_kv(table)]
    left, top = dict(table.left.leaves), dict(table.top.leaves)
    row = list(left).index((2, 0))
    col = list(top).index((2, 1))
    assert (left[(2, 0)], top[(2, 1)]) == triple[:2]
    assert table.body[row][col] == "61, 276"
    report("committed example table yields the exact key-value triple and coordinates")


def test_html_round_trip_identity_on_1000_random_tables():
    rng = random.Random(99)
    for _ in range(1000):
        table = sts.random_table(rng, max_dim=6, max_depth=3)
        assert parse_html_table(serialize_html(table)) == table
    committed = parse_html_table((FIXTURES / "cancer_stats.html").read_text(encoding="utf-8"))
    assert parse_html_table(serialize_html(committed)) == committed
    for triple in read_triples(PIPELINE / "questions.jsonl"):
        assert parse_html_table(serialize_html(triple.table)) == triple.table
    for triple in read_triples(CORPUS / "triples.jsonl"):
        assert parse_html_table(serialize_html(triple.table)) == triple.table
    report("parse(serialize(T)) == T on 1000 random tables and all committed fixtures")


def test_retrieval_golden_ranking_and_recall():
    documents = read_documents(CORPUS / "docs.jsonl")
    triples = read_triples(CORPUS / "triples.jsonl")
    rewriter = Rewriter(ReplayProvider(Transcript.load(CORPUS / "rewrite_transcript.jsonl")))
    embedder = HashingEmbedder()
    golden = {item["id"]: item for item in json.loads((CORPUS / "golden_ranking.json").read_text())}

    document = documents["fin_reports_2022"]
    vectors = embedder.embed(list(rewrite_sentences(document, rewriter)))
    for triple in triples:
        expected = golden[triple.triple_id]
        rewrite = rewrite_question(triple.question, rewriter)
        assert list(rewrite.sub_questions) == expected["sub_questions"]
        record = retrieve_top_k(document, list(rewrite.sub_questions), vectors, embedder, k=30)

        assert record.merged_ids() == expected["merged_ids"]
        for produced, (sid, score) in zip(record.merged, zip(expected["merged_ids"], expected["merged_scores"])):
            assert produced[0] == sid
            assert produced[1] == pytest.approx(score, abs=1e-9)
        for ranked, expected_top in zip(record.per_question, expected["per_question_top60"]):
            assert [sid for sid, _ in ranked[:60]] == [sid for sid, _ in expected_top]

        relevant = triple.relevant_sentence_ids
        for k in (10, 20, 30):
            assert recall_at_k(record.merged_ids(), relevant, k) == expected["recall"][str(k)]
        curve = [recall_at_k(record.merged_ids(), relevant, k) for k in range(1, 31)]
        assert all(a <= b for a, b in zip(curve, curve[1:]))
    report("retrieval ranking, recall@{10,20,30} equal brute-force goldens; recall non-decreasing")


def test_annotation_filter_on_20_hand_labeled_tables():
    # Twenty tables with planned coverage; the hand-applied rule is
    # "uncovered >= 30% => exclude", including the exact 30.0% boundary.
    def with_matches(rows: int, cols: int, covered: int):
        table = make_flat_table(rows, cols)
        cells = [(r, c) for r in range(rows) for c in range(cols)][:covered]
        return table, [CellMatch(r, c, "numeric", (0,), "1") for r, c in cells]

    plans = [
        (2, 5, 10),  # 0% uncovered -> keep
        (2, 5, 9),   # 10% -> keep
        (2, 5, 8),   # 20% -> keep
        (2, 5, 7),   # exactly 30% -> exclude (boundary)
        (2, 5, 6),   # 40% -> exclude
        (2, 5, 0),   # 100% -> exclude
        (1, 3, 3),   # 0% -> keep
        (1, 3, 2),   # 33.3% -> exclude
        (3, 3, 9),   # keep
        (3, 3, 7),   # 22.2% -> keep
        (3, 3, 6),   # 33.3% -> exclude
        (4, 5, 14),  # 30% exactly -> exclude (boundary again)
        (4, 5, 15),  # 25% -> keep
        (2, 2, 3),   # 25% -> keep
        (2, 2, 2),   # 50% -> exclude
        (5, 4, 20),  # keep
        (5, 4, 14),  # 30% exactly -> exclude
        (5, 4, 15),  # 25% -> keep
        (1, 10, 7),  # 30% exactly -> exclude
        (1, 10, 8),  # 20% -> keep
    ]
    expected_excluded = [3, 4, 5, 7, 10, 11, 14, 16, 18]
    candidates = [with_matches(*plan) for plan in plans]
    assert len(candidates) == 20
    excluded = [coverage(table, matches)[1] for table, matches in candidates]
    assert [i for i, e in enumerate(excluded) if e] == expected_excluded
    assert excluded.count(False) == 20 - len(expected_excluded)
    report("annotation filter matches the hand-applied 30%-uncovered rule on 20 tables")


def test_end_to_end_replay_reproduces_golden_directory(tmp_path):
    out = tmp_path / "run"
    code = cli_main(["pipeline", "--config", str(PIPELINE / "config.json"), "--out", str(out)])
    assert code == 0
    golden = PIPELINE / "golden"
    golden_files = sorted(p.name for p in golden.iterdir())
    run_files = sorted(p.name for p in out.iterdir())
    assert run_files == golden_files
    for name in golden_files:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    evaluation = [json.loads(l) for l in (out / "evaluation.jsonl").read_text().splitlines()]
    assert all(item["teds"] == 1.0 for item in evaluation)
    assert all(item["content_f1"] == 1.0 for item in evaluation)
    report("replayed pipeline reproduces the golden directory byte for byte; perfect scores")


def test_end_to_end_one_wrong_value_transcript(tmp_path):
    out = tmp_path / "run"
    code = cli_main(
        ["pipeline", "--config", str(PIPELINE / "config_onewrong.json"), "--out", str(out)]
    )
    assert code == 0
    evaluation = {
        json.loads(l)["id"]: json.loads(l)
        for l in (out / "evaluation.jsonl").read_text().splitlines()
    }
    assert evaluation["acme_beta"]["teds"] == 1.0
    assert evaluation["acme_beta"]["content_f1"] < 1.0
    assert evaluation["gamma"]["teds"] == 1.0 and evaluation["gamma"]["content_f1"] == 1.0
    report("one-wrong-value transcript: teds stays 1.0 while content_f1 drops below 1.0")


def test_end_to_end_retry_transcript(tmp_path):
    out = tmp_path / "run"
    code = cli_main(["pipeline", "--config", str(PIPELINE / "config_retry.json"), "--out", str(out)])
    assert code == 0
    traces = {
        json.loads(l)["id"]: json.loads(l)
        for l in (out / "traces.jsonl").read_text().splitlines()
    }
    assert traces["acme_beta"]["structure_retries"] == 1
    evaluation = [json.loads(l) for l in (out / "evaluation.jsonl").read_text().splitlines()]
    assert all(item["teds"] == 1.0 for item in evaluation)
    report("malformed-then-valid structure transcript succeeds with exactly one retry")


def test_corpus_stats_hand_computed(tmp_path, capsys):
    # Hand computation: tokens per doc 7, 5, 8 -> mean 20/3;
    # rows (2+4+3)/3 = 3.0; cols (2+3+2)/3 = 7/3; 2 flat + 1 hierarchical.
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        "\n".join(
            json.dumps(row)
            for row in [
                {"doc_id": "d1", "sentences": ["one two three.", "four five six seven."]},
                {"doc_id": "d2", "sentences": ["a b c d e."]},
                {"doc_id": "d3", "sentences": ["x y.", "z w v u t s."]},
            ]
        )
        + "\n"
    )
    hier = HierarchicalTable(
        "",
        CoordTree.from_nested([("A", ["a1", "a2"]), "B"]),
        CoordTree.from_nested(["c1", "c2"]),
        (("1", "2"), ("3", "4"), ("5", "6")),
    )
    triples = tmp_path / "triples.jsonl"
    rows = [
        {"id": "t1", "doc_id": "d1", "question": "q", "table_html": serialize_html(make_flat_table(2, 2)), "relevant_sentence_ids": [0]},
        {"id": "t2", "doc_id": "d2", "question": "q", "table_html": serialize_html(make_flat_table(4, 3)), "relevant_sentence_ids": [0]},
        {"id": "t3", "doc_id": "d3", "question": "q", "table_html": serialize_html(hier), "relevant_sentence_ids": [0]},
    ]
    triples.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    code = cli_main(["stats", "--triples", str(triples), "--docs", str(docs)])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_triples"] == 3
    assert stats["mean_input_tokens"] == pytest.approx(20 / 3)
    assert stats["mean_rows"] == pytest.approx(3.0)
    assert stats["mean_cols"] == pytest.approx(7 / 3)
    assert stats["n_flat"] == 2 and stats["n_hierarchical"] == 1
    report("corpus stats reproduce the hand-computed means on the 3-triple fixture")
