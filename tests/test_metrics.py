from __future__ import annotations

import builtins
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doc2table.metrics import (
    KEY_JOIN,
    _match_keys,
    _shared_grams,
    aggregate_scores,
    chrf,
    chrf_matrix,
    recall_at_k,
    table_scores,
)
from doc2table.model import (
    CoordTree,
    HeaderNode,
    HierarchicalTable,
    flatten_to_kv,
)

from conftest import make_flat_table
from oracles import (
    reference_chrf,
    reference_content_similarity,
    reference_shared_grams,
    reference_table_scores,
)
from strategies import cells, coord_trees, labels, tables

TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)


class TestChrf:
    def test_identity(self):
        assert chrf(["61,276"], ["61,276"]).tolist() == [100.0]

    def test_disjoint_characters(self):
        assert chrf(["abc"], ["xyz"]).tolist() == [0.0]

    def test_both_empty(self):
        # whitespace-only is empty
        assert chrf(["", "  \t "], ["", "\n"]).tolist() == [100.0, 100.0]

    def test_one_empty(self):
        assert chrf(["abc", ""], ["", "abc"]).tolist() == [0.0, 0.0]

    def test_whitespace_invariance(self):
        assert chrf(["6 1 , 2 7 6"], ["61,276"]).tolist() == [100.0]
        spaced, plain = chrf(["a b c", "abc"], ["abc", "abc"]).tolist()
        assert spaced == plain

    def test_partial_overlap_between_bounds(self):
        (score,) = chrf(["61,276"], ["61,500"]).tolist()
        assert 0.0 < score < 100.0

    @given(candidate=TEXTS, reference=TEXTS)
    @settings(max_examples=300)
    def test_matches_reference_oracle(self, candidate, reference):
        assert chrf([candidate], [reference]).tolist() == [reference_chrf(candidate, reference)]

    @given(candidate=TEXTS, reference=TEXTS)
    @settings(max_examples=100)
    def test_bounds(self, candidate, reference):
        (score,) = chrf([candidate], [reference]).tolist()
        assert 0.0 <= score <= 100.0 + 1e-12

    def test_unicode(self):
        same, accented = chrf(["北京 2023", "naïve"], ["北京 2023", "naive"]).tolist()
        assert same == 100.0
        assert accented < 100.0


# empty, whitespace-only, repeated n-grams (counts above 1), BMP and
# astral-plane characters
BATCH_TEXTS = (
    st.sampled_from(["", " ", "\t\n", "aaaaaaa", "abab abab", "𝄞𝄞𝄞", "😀 😀a"])
    | st.text(alphabet="ab \t.é漢𝄞😀", max_size=12)
    | TEXTS
)


class TestBatchedChrf:
    @given(pairs=st.lists(st.tuples(BATCH_TEXTS, BATCH_TEXTS), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_every_pair_equals_reference_bit_for_bit(self, pairs):
        candidates = [c for c, _ in pairs]
        references = [r for _, r in pairs]
        scores = chrf(candidates, references)
        assert scores.shape == (len(pairs),)
        assert scores.tolist() == [reference_chrf(c, r) for c, r in pairs]

    def test_empty_batch(self):
        scores = chrf([], [])
        assert scores.shape == (0,)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            chrf(["a", "b"], ["a"])


def table_with_values(rows, values, stub=""):
    left = CoordTree.from_nested([f"r{i}" for i in range(rows)])
    top = CoordTree.from_nested([f"c{j}" for j in range(len(values[0]))])
    return HierarchicalTable(stub, left, top, tuple(tuple(v) for v in values))


def content(generated: HierarchicalTable, groundtruth: HierarchicalTable) -> tuple:
    """The content precision, recall and F1 of one pair, scored as a one-pair corpus."""
    scores = table_scores([(generated, groundtruth)])[0]
    return scores["content_precision"], scores["content_recall"], scores["content_f1"]


def table_keys(table: HierarchicalTable) -> list[tuple]:
    return [(kv.left_key, kv.top_key) for kv in flatten_to_kv(table)]


def key_matches(generated: HierarchicalTable, groundtruth: HierarchicalTable) -> dict[int, int]:
    """The generated cell matched to each matched ground-truth cell, by index."""
    return _match_keys(table_keys(generated), table_keys(groundtruth))


class TestContentSimilarity:
    def test_identical_tables(self, example_table):
        assert content(example_table, example_table) == (1.0, 1.0, 1.0)
        n_cells = len(flatten_to_kv(example_table))
        assert key_matches(example_table, example_table) == {i: i for i in range(n_cells)}

    def test_missing_half_of_groundtruth(self):
        gt = table_with_values(2, [["1,234", "5,678"], ["9,012", "3,456"]])
        gen = HierarchicalTable(
            "",
            CoordTree.from_nested(["r0"]),
            gt.top,
            (("1,234", "5,678"),),
        )
        precision, recall, _ = content(gen, gt)
        assert precision == 1.0
        assert recall == 0.5

    def test_hand_computed_3x2_fixture(self):
        # Ground truth 3x2; generated misses row r2 and gets one value wrong
        # ("zzz" vs "aaa" shares no characters, so its chrF is 0):
        # matched score sum = 0 + 1 + 1 + 1 = 3
        # precision = 3/4, recall = 3/6, f1 = 2*0.75*0.5/1.25 = 0.6
        gt = table_with_values(3, [["aaa", "bbb"], ["ccc", "ddd"], ["eee", "fff"]])
        gen = table_with_values(2, [["zzz", "bbb"], ["ccc", "ddd"]])
        assert content(gen, gt) == pytest.approx((0.75, 0.5, 0.6))
        matches = key_matches(gen, gt)
        unmatched = [key for t_idx, key in enumerate(table_keys(gt)) if t_idx not in matches]
        assert [left for left, _ in unmatched] == [("r2",), ("r2",)]

    def test_score_sum_invariant(self):
        gt = table_with_values(2, [["10", "20"], ["30", "40"]])
        gen = table_with_values(2, [["10", "99"], ["30", "40"]])
        gen_kv, gt_kv = flatten_to_kv(gen), flatten_to_kv(gt)
        matches = key_matches(gen, gt)
        scores = chrf([gen_kv[g].value for g in matches.values()], [gt_kv[t].value for t in matches])
        total = sum(scores.tolist()) / 100.0
        precision, recall, _ = content(gen, gt)
        assert precision * len(gen_kv) == pytest.approx(total)
        assert recall * len(gt_kv) == pytest.approx(total)

    def test_fuzzy_key_match_above_threshold(self):
        gt = HierarchicalTable(
            "",
            CoordTree.from_nested(["Total revenue"]),
            CoordTree.from_nested(["c0"]),
            (("42",),),
        )
        gen = HierarchicalTable(
            "",
            CoordTree.from_nested(["Total revenues"]),  # close but not exact key
            CoordTree.from_nested(["c0"]),
            (("42",),),
        )
        assert key_matches(gen, gt) == {0: 0}
        assert content(gen, gt)[1] == 1.0

    def test_dissimilar_keys_do_not_match(self):
        gt = table_with_values(1, [["42"]])
        gen = HierarchicalTable(
            "",
            CoordTree.from_nested(["profit margin history"]),
            CoordTree.from_nested(["実績"]),
            (("42",),),
        )
        assert key_matches(gen, gt) == {}
        assert content(gen, gt)[1] == 0.0

    def test_key_similarity_at_the_floor_matches(self):
        # "a / /" against "/ / a": chrF is exactly 50, so the similarity is the 0.5 floor
        gt = HierarchicalTable(
            "", CoordTree.from_nested(["a"]), CoordTree.from_nested(["/"]), (("42",),)
        )
        gen = HierarchicalTable(
            "", CoordTree.from_nested(["/"]), CoordTree.from_nested(["a"]), (("42",),)
        )
        assert key_matches(gen, gt) == {0: 0}
        assert content(gen, gt)[1] == 1.0

    def test_adding_correct_pair_never_decreases_recall(self):
        gt = table_with_values(3, [["aaa", "bbb"], ["ccc", "ddd"], ["eee", "fff"]])
        gen_small = table_with_values(2, [["aaa", "bbb"], ["ccc", "ddd"]])
        gen_big = table_with_values(3, [["aaa", "bbb"], ["ccc", "ddd"], ["eee", "fff"]])
        assert content(gen_big, gt)[1] >= content(gen_small, gt)[1]


LABEL_EDITS = (
    lambda label: label,
    lambda label: label + " (adjusted)",
    lambda label: label.replace(" ", "") or label,
    lambda label: " ".join(label),  # same characters once whitespace is removed
    lambda label: label[::-1],
    lambda label: label[:-1] or label,
)


def leaf_total(node: HeaderNode) -> int:
    return 1 if node.is_leaf else sum(leaf_total(c) for c in node.children)


def transpose(table: HierarchicalTable) -> HierarchicalTable:
    return HierarchicalTable(
        table.stub_header, table.top, table.left, tuple(zip(*table.body))
    )


@st.composite
def perturbed(
    draw, table: HierarchicalTable, kinds=("rename", "transpose", "duplicate", "crop", "values")
) -> HierarchicalTable:
    """A copy of ``table`` with renamed labels, swapped header sides,
    duplicated keys, fewer rows or blanked values (one of ``kinds``)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "rename":
        def walk(node: HeaderNode) -> HeaderNode:
            label = draw(st.sampled_from(LABEL_EDITS))(node.label)
            return HeaderNode(label, tuple(walk(c) for c in node.children))

        side = draw(st.sampled_from(["left", "top"]))
        tree = CoordTree(tuple(walk(r) for r in getattr(table, side).roots))
        if side == "left":
            return HierarchicalTable(table.stub_header, tree, table.top, table.body)
        return HierarchicalTable(table.stub_header, table.left, tree, table.body)
    if kind == "transpose":
        return transpose(table)
    if kind == "duplicate":
        # repeat the first row subtree: its keys occur twice, with new values
        first = table.left.roots[0]
        extra = tuple(
            tuple(draw(cells) for _ in row) for row in table.body[: leaf_total(first)]
        )
        left = CoordTree(table.left.roots + (first,))
        return HierarchicalTable(table.stub_header, left, table.top, table.body + extra)
    if kind == "crop":
        # all remaining keys match exactly, so one side has no residual keys
        if len(table.left.roots) == 1:
            return table
        first = table.left.roots[0]
        left = CoordTree(table.left.roots[1:])
        return HierarchicalTable(
            table.stub_header, left, table.top, table.body[leaf_total(first) :]
        )
    blank = st.sampled_from(["", " ", "\t\n", "\u3000", "é", "漢字 2023", "naïve"]) | cells
    body = tuple(tuple(draw(blank) if draw(st.booleans()) else c for c in row) for row in table.body)
    return HierarchicalTable(table.stub_header, table.left, table.top, body)


@st.composite
def perturbed_pairs(draw) -> tuple[HierarchicalTable, HierarchicalTable]:
    truth = draw(tables(max_dim=5))
    copy = draw(perturbed(truth))
    if draw(st.booleans()):
        copy = draw(perturbed(copy))
    return (copy, truth) if draw(st.booleans()) else (truth, copy)


@st.composite
def level_swapped_pairs(draw) -> tuple[HierarchicalTable, HierarchicalTable]:
    """A two-level column header and its copy with the levels swapped."""
    rows = draw(st.lists(labels, min_size=1, max_size=4))
    outer = draw(st.lists(labels, min_size=1, max_size=3))
    inner = draw(st.lists(labels, min_size=1, max_size=3))
    body = [[draw(cells) for _ in range(len(outer) * len(inner))] for _ in rows]
    truth = HierarchicalTable(
        "",
        CoordTree.from_nested(rows),
        CoordTree.from_nested([(o, inner) for o in outer]),
        tuple(tuple(r) for r in body),
    )
    swapped = HierarchicalTable(
        "",
        truth.left,
        CoordTree.from_nested([(i, outer) for i in inner]),
        tuple(
            tuple(r[o * len(inner) + i] for i in range(len(inner)) for o in range(len(outer)))
            for r in body
        ),
    )
    return (swapped, truth) if draw(st.booleans()) else (truth, swapped)


def sixty_cell_pair(kind: str) -> tuple[HierarchicalTable, HierarchicalTable]:
    """A 60-cell table (5 companies x 3 metrics by 2 years x 2 quarters) and a
    copy of it with no key left exactly equal.

    ``renamed``: every metric row label is renamed. ``reordered``: the two
    column-header levels are swapped (quarter over year).
    """
    rng = random.Random(20240501)
    metrics = ["Revenue", "Net income", "Operating margin"]
    renamed = {"Revenue": "Total revenue", "Net income": "Net earnings",
               "Operating margin": "Operating margin (%)"}
    companies = ["Acme Corp", "Beta Industries", "Gamma Holdings", "Delta Partners", "Epsilon Group"]
    years, quarters = ["FY2020", "FY2021"], ["Q1", "Q2"]
    body = [[f"{rng.randrange(1000, 999999) / 10:,.1f}" for _ in range(4)] for _ in range(15)]
    truth = HierarchicalTable(
        "Metric",
        CoordTree.from_nested([(c, metrics) for c in companies]),
        CoordTree.from_nested([(y, quarters) for y in years]),
        tuple(tuple(row) for row in body),
    )
    if kind == "renamed":
        left = CoordTree.from_nested([(c, [renamed[m] for m in metrics]) for c in companies])
        return HierarchicalTable("Metric", left, truth.top, truth.body), truth
    top = CoordTree.from_nested([(q, years) for q in quarters])
    swapped = tuple(tuple(row[y * 2 + q] for q in range(2) for y in range(2)) for row in body)
    return HierarchicalTable("Metric", truth.left, top, swapped), truth


# Small label pools: keys repeat inside a table, and equal joined keys tie in similarity.
ROW_POOL = ["Revenue", "Revenues", "Net revenue", "Net income", "Income"]
COLUMN_POOL = ["FY2022", "FY2023", "Q1"]


@st.composite
def repeated_key_tables(draw) -> HierarchicalTable:
    rows = draw(st.lists(st.sampled_from(ROW_POOL), min_size=1, max_size=6))
    columns = draw(st.lists(st.sampled_from(COLUMN_POOL), min_size=1, max_size=3))
    body = tuple(tuple(draw(cells) for _ in columns) for _ in rows)
    return HierarchicalTable("", CoordTree.from_nested(rows), CoordTree.from_nested(columns), body)


def assert_equals_reference(generated: HierarchicalTable, groundtruth: HierarchicalTable):
    expected = reference_content_similarity(generated, groundtruth)
    assert content(generated, groundtruth) == (expected.precision, expected.recall, expected.f1)
    assert list(key_matches(generated, groundtruth).items()) == list(expected.matches.items())


class TestContentSimilarityMatchesReference:
    """The two-phase matcher equals the all-pairs greedy reference: the same
    ground truth -> generated map, and the same floats bit for bit."""

    @pytest.mark.parametrize("kind", ["renamed", "reordered"])
    def test_sixty_cell_pair_with_no_equal_key(self, kind):
        generated, groundtruth = sixty_cell_pair(kind)
        keys = [set(table_keys(table)) for table in (generated, groundtruth)]
        assert not keys[0] & keys[1]
        assert_equals_reference(generated, groundtruth)

    @given(
        pair=st.tuples(tables(max_dim=5), tables(max_dim=5))
        | perturbed_pairs()
        | level_swapped_pairs()
    )
    @settings(max_examples=135, deadline=None)
    def test_random_perturbed_and_level_swapped_pairs(self, pair):
        assert_equals_reference(*pair)

    @given(
        corpus=st.lists(
            st.tuples(repeated_key_tables(), repeated_key_tables()), min_size=1, max_size=4
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_corpora_with_repeated_keys_and_tied_similarities(self, corpus):
        expected = [reference_content_similarity(*pair) for pair in corpus]
        assert [list(key_matches(*pair).items()) for pair in corpus] == [
            list(reference.matches.items()) for reference in expected
        ]
        assert [
            (s["content_precision"], s["content_recall"], s["content_f1"])
            for s in table_scores(corpus)
        ] == [(r.precision, r.recall, r.f1) for r in expected]

    def test_chrf_runs_once_per_matched_pair(self, monkeypatch):
        # 10 x 6 = 60 cells, every row header renamed, so no key is exactly
        # equal; the all-pairs reference calls chrf 3,600 times for the keys
        def grid(suffix: str) -> HierarchicalTable:
            return HierarchicalTable(
                "Metric",
                CoordTree.from_nested(
                    [(f"Segment {g}", [f"Line {g}.{i}{suffix}" for i in range(5)]) for g in "AB"]
                ),
                CoordTree.from_nested([(f"FY{y}", ["Q1", "Q2", "Q3"]) for y in (2022, 2023)]),
                tuple(tuple(f"{r * 6 + c:,}" for c in range(6)) for r in range(10)),
            )

        calls = []

        def counting(candidates, references):
            calls.append((list(candidates), list(references)))
            return chrf(candidates, references)

        generated, truth = grid(" (adjusted)"), grid("")
        matches = key_matches(generated, truth)
        assert len(matches) == 60
        monkeypatch.setattr("doc2table.metrics.chrf", counting)
        table_scores([(generated, truth)])
        # one call: the matched values first, then the header paths
        assert len(calls) == 1
        gen_values, gt_values = ([kv.value for kv in flatten_to_kv(t)] for t in (generated, truth))
        candidates, references = calls[0]
        assert (candidates[:60], references[:60]) == (
            [gen_values[g_idx] for g_idx in matches.values()],
            [gt_values[t_idx] for t_idx in matches],
        )


def renamed_rows(table: HierarchicalTable) -> HierarchicalTable:
    """``table`` with every row label suffixed by a character no drawn label holds,
    so no key equals one of ``table``'s."""
    def walk(node: HeaderNode) -> HeaderNode:
        return HeaderNode(node.label + " ±", tuple(walk(c) for c in node.children))

    left = CoordTree(tuple(walk(root) for root in table.left.roots))
    return HierarchicalTable(table.stub_header, left, table.top, table.body)


@st.composite
def mixed_corpora(draw) -> list[tuple[HierarchicalTable, HierarchicalTable]]:
    """A shuffled corpus holding one pair of each kind below, plus random pairs."""
    truth = draw(tables(max_dim=5))
    kinds = [
        # every key matches exactly: the unmatched-key lists are both empty
        (truth, truth),
        # fewer rows: every generated key matches, so one side of chrf_matrix is empty
        (draw(perturbed(truth, kinds=("crop",))), truth),
        # no key matches exactly
        (renamed_rows(truth), truth),
        # duplicate keys, so the row leaf counts differ
        (draw(perturbed(truth, kinds=("duplicate",))), truth),
        # whitespace-only and non-ASCII values under equal keys
        (draw(perturbed(truth, kinds=("values",))), truth),
        # header sides swapped: unequal leaf counts on both sides unless square
        (transpose(truth), truth),
    ]
    extra = draw(
        st.lists(st.tuples(tables(max_dim=4), tables(max_dim=4)) | perturbed_pairs(), max_size=3)
    )
    return draw(st.permutations(kinds + extra))


class TestTableScores:
    @given(corpus=mixed_corpora())
    @settings(max_examples=60, deadline=None)
    def test_corpus_equals_pair_by_pair_reference(self, corpus):
        scores = table_scores(corpus)
        expected = [reference_table_scores(generated, truth) for generated, truth in corpus]
        assert scores == expected
        # and by their text, as evaluation.jsonl writes them, which tells -0.0 from 0.0
        assert json.dumps(scores) == json.dumps(expected)

    def test_corpus_costs_one_chrf_call_and_a_matrix_only_where_keys_remain(self, monkeypatch):
        calls = []

        def counting(kernel):
            def call(candidates, references):
                calls.append(kernel.__name__)
                return kernel(candidates, references)

            return call

        monkeypatch.setattr("doc2table.metrics.chrf", counting(chrf))
        monkeypatch.setattr("doc2table.metrics.chrf_matrix", counting(chrf_matrix))
        truth = make_flat_table(3, 2)
        corpus = [(truth, truth), (make_flat_table(2, 2), truth), (renamed_rows(truth), truth)]
        assert len(table_scores(corpus)) == 3
        assert sorted(calls) == ["chrf", "chrf_matrix"]


class TestSharedGrams:
    @given(
        grams=st.lists(st.integers(0, 40), max_size=60),
        sides=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_intersect1d(self, grams, sides):
        grams = np.array(grams, dtype=np.int64)
        is_cand = np.array(sides[: len(grams)], dtype=bool)
        expected = reference_shared_grams(grams, is_cand)
        assert _shared_grams(grams, is_cand).tolist() == expected.tolist()


STRINGS = st.text(alphabet="ab /\t\n.é漢", max_size=8) | TEXTS


class TestChrfMatrix:
    @given(
        candidates=st.lists(STRINGS, max_size=6),
        references=st.lists(STRINGS, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_entry_is_scalar_chrf(self, candidates, references):
        matrix = chrf_matrix(candidates, references)
        assert matrix.shape == (len(candidates), len(references))
        assert matrix.tolist() == [
            [reference_chrf(candidate, reference) for reference in references]
            for candidate in candidates
        ]

    def test_edge_strings(self):
        texts = ["", " ", "\t\n", "a", "ab", "aaaaaa", "a a a", "漢字", "abcdefg", "a/b / c"]
        matrix = chrf_matrix(texts, texts)
        assert matrix.tolist() == [[reference_chrf(c, r) for r in texts] for c in texts]


def header_f1(generated: HierarchicalTable, groundtruth: HierarchicalTable) -> dict:
    return table_scores([(generated, groundtruth)])[0]["header_f1"]


class TestHeaderSimilarity:
    def test_identity(self, example_table):
        assert header_f1(example_table, example_table) == {"left": 1.0, "top": 1.0}

    def test_extra_generated_leaf_lowers_f1(self):
        # two of three generated row paths match: precision 2/3, recall 1
        gt = make_flat_table(2, 2)
        gen = make_flat_table(3, 2)
        assert header_f1(gen, gt) == {"left": pytest.approx(0.8), "top": 1.0}

    @given(
        trees=st.lists(coord_trees(), min_size=4, max_size=4),
        side=st.sampled_from(["left", "top"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_formula_on_reference_chrf(self, trees, side):
        # header scores read only the header trees, so the body is filler
        generated, groundtruth = (
            HierarchicalTable("", left, top, (("x",) * top.leaf_count,) * left.leaf_count)
            for left, top in (trees[:2], trees[2:])
        )
        gen_paths, gt_paths = (
            [KEY_JOIN.join(p) for _, p in getattr(table, side).leaves]
            for table in (generated, groundtruth)
        )
        assume(len(gen_paths) != len(gt_paths))
        total = sum(reference_chrf(g, t) / 100.0 for g, t in zip(gen_paths, gt_paths))
        precision = total / len(gen_paths)
        recall = total / len(gt_paths)
        f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
        assert header_f1(generated, groundtruth)[side] == f1


class TestRecallAtK:
    def test_all_relevant_in_top_k(self):
        assert recall_at_k([1, 2, 3, 4], {2, 3}, 4) == 1.0

    def test_direct_count(self):
        assert recall_at_k([5, 2, 9, 1], {2, 1}, 2) == 0.5

    def test_macro_average_hand_computed(self):
        # (0.5 + 1.0 + 1.0) / 3 = 0.8333...
        items = [
            recall_at_k([5, 2, 9, 1], {2, 1}, 2),
            recall_at_k([3, 1], {3}, 2),
            recall_at_k([8, 9, 7], {7, 8}, 3),
        ]
        assert sum(items) / len(items) == pytest.approx(0.8333333333333334)

    def test_empty_relevant_is_undefined(self):
        with pytest.raises(ValueError, match="^recall@k is undefined for an empty relevant set$"):
            recall_at_k([1, 2], set(), 1)

    @given(
        ranked=st.lists(st.integers(0, 30), unique=True, min_size=1, max_size=20),
        relevant=st.sets(st.integers(0, 30), min_size=1, max_size=8),
    )
    @settings(max_examples=100)
    def test_non_decreasing_in_k(self, ranked, relevant):
        values = [recall_at_k(ranked, relevant, k) for k in range(1, len(ranked) + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestReports:
    def test_table_scores_fields(self, example_table):
        (scores,) = table_scores([(example_table, example_table)])
        assert scores["teds"] == 1.0
        assert scores["content_f1"] == 1.0
        assert scores["header_f1"] == {"left": 1.0, "top": 1.0}

    def test_aggregate_means(self):
        items = [
            {
                "teds": 1.0,
                "content_precision": 1.0,
                "content_recall": 1.0,
                "content_f1": 1.0,
                "header_f1": {"left": 1.0, "top": 0.5},
                "recall_at_k": {"10": 1.0},
            },
            {
                "teds": 0.5,
                "content_precision": 0.0,
                "content_recall": 0.0,
                "content_f1": 0.0,
                "header_f1": {"left": 0.0, "top": 0.5},
            },
        ]
        agg = aggregate_scores(items)
        assert agg["teds"] == pytest.approx(0.75)
        assert agg["header_f1"]["top"] == pytest.approx(0.5)
        assert agg["recall_at_k"] == {"10": 1.0}


REAL_SUM = sum


def compensated_sum(values, start=0):
    """A float sum compensated for rounding, as Python 3.12's ``sum`` is; other sums unchanged."""
    values = list(values)
    if any(isinstance(value, float) for value in values):
        return math.fsum([start, *values])
    return REAL_SUM(values, start)


class TestSumsDoNotDependOnPython:
    """Every score sum and mean is added left to right, so a compensated
    builtin ``sum`` (Python 3.12 on) gives the same floats as a plain one."""

    def test_mean_of_ten_tenths(self, monkeypatch):
        items = [{"x": 0.1}] * 10
        plain = aggregate_scores(items)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert aggregate_scores(items) == plain == {"n_items": 10, "x": 0.09999999999999999}

    def test_renamed_sixty_cell_pair(self, monkeypatch):
        # its left-header chrF scores sum to a different float when compensated
        corpus = [sixty_cell_pair("renamed")]

        def scored() -> tuple[str, str]:
            scores = table_scores(corpus)
            return json.dumps(scores), json.dumps(aggregate_scores(scores))

        plain = scored()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert scored() == plain
