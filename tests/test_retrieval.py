from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doc2table.data import (
    read_documents,
    read_retrieval_records,
    read_triples,
    write_jsonl,
)
from doc2table.providers import (
    DenseVectors,
    HashingEmbedder,
    ReplayProvider,
    Rewriter,
    ScriptedProvider,
    Transcript,
)
from doc2table.retrieval import (
    RANKING_DEPTH,
    RetrievalConfigError,
    merge_round_robin,
    retrieve_top_k,
    rewrite_question,
    rewrite_sentences,
)

from conftest import FIXTURES
from oracles import (
    brute_round_robin,
    reference_hashing_embed,
    reference_hashing_scores,
    reference_rankings,
)


def scripted_rewriter(handler) -> Rewriter:
    return Rewriter(ScriptedProvider(handler))


class TestRewriteQuestion:
    def test_decomposition(self):
        rewriter = scripted_rewriter(
            lambda req: {"outputs": ["What was X for A?", "What was X for B?"]}
        )
        result = rewrite_question("What was X for A and B?", rewriter)
        assert result.sub_questions == ("What was X for A?", "What was X for B?")
        assert not result.degraded

    def test_echo_provider(self):
        rewriter = scripted_rewriter(lambda req: {"outputs": [req["text"]]})
        result = rewrite_question("Plain question?", rewriter)
        assert result.sub_questions == ("Plain question?",)
        assert not result.degraded

    def test_provider_failure_falls_back(self, caplog):
        def boom(req):
            raise RuntimeError("transport down")

        with caplog.at_level(logging.WARNING, logger="doc2table.retrieval"):
            result = rewrite_question("Q?", scripted_rewriter(boom))
        assert result.sub_questions == ("Q?",)
        assert result.degraded
        assert any("falling back" in r.message for r in caplog.records)

    def test_empty_outputs_fall_back(self):
        result = rewrite_question("Q?", scripted_rewriter(lambda req: {"outputs": []}))
        assert result.sub_questions == ("Q?",)
        assert result.degraded

    def test_non_string_output_falls_back(self):
        rewriter = scripted_rewriter(lambda req: {"outputs": [None]})
        result = rewrite_question("What?", rewriter)
        assert result.sub_questions == ("What?",)
        assert result.degraded

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            rewrite_question("  ", scripted_rewriter(lambda req: {"outputs": []}))


class TestRewriteSentences:
    def test_identity_keeps_raw(self):
        document = ["One.", "Two."]
        rewriter = scripted_rewriter(lambda req: {"outputs": [req["text"]]})
        assert list(rewrite_sentences(document, rewriter)) == ["One.", "Two."]
        assert document == ["One.", "Two."]

    def test_rewrite_changes_retrieval_text_only(self):
        document = ["The company reported revenue of $56.2 billion."]
        rewriter = scripted_rewriter(
            lambda req: {"outputs": ["Revenue of the company was $56.2 billion."]}
        )
        assert list(rewrite_sentences(document, rewriter)) == ["Revenue of the company was $56.2 billion."]
        assert document == ["The company reported revenue of $56.2 billion."]

    def test_non_string_output_keeps_raw_text(self):
        document = ["One.", "Two."]
        rewriter = scripted_rewriter(
            lambda req: {"outputs": [None if req["text"] == "One." else "Second."]}
        )
        assert list(rewrite_sentences(document, rewriter)) == ["One.", "Second."]

    def test_partial_outage_degrades_per_sentence(self, caplog):
        calls = {"n": 0}

        def flaky(req):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("outage")
            return {"outputs": [req["text"].upper()]}

        document = [f"Sentence {i}." for i in range(6)]
        with caplog.at_level(logging.WARNING, logger="doc2table.retrieval"):
            texts = list(rewrite_sentences(document, scripted_rewriter(flaky)))
        assert len(texts) == 6
        assert all(texts)  # all still retrievable
        degraded = [text for text, raw in zip(texts, document) if text == raw]
        assert len(degraded) == 3
        assert [r.getMessage().split(",")[0] for r in caplog.records] == [
            "sentence 1 rewrite failed", "sentence 3 rewrite failed", "sentence 5 rewrite failed"
        ]

    def test_builtin_map_rewrites_each_sentence_when_its_text_is_read(self):
        calls = []
        rewriter = scripted_rewriter(lambda req: calls.append(req["text"]) or {"outputs": ["x"]})
        texts = rewrite_sentences(["One.", "Two."], rewriter)
        assert calls == []
        assert next(texts) == "x" and calls == ["One."]
        assert list(texts) == ["x"] and calls == ["One.", "Two."]


class FixedEmbedder:
    """Maps known texts to fixed unit vectors; everything else to zero."""

    def __init__(self, mapping, dim=4):
        self.mapping = mapping
        self.dim = dim

    def embed(self, texts):
        out = np.zeros((len(texts), self.dim))
        for i, text in enumerate(texts):
            if text in self.mapping:
                out[i, self.mapping[text]] = 1.0
        return DenseVectors(out)


def rank(document, sub_questions, embedder, **kwargs):
    """retrieve_top_k over the raw sentences of ``document``, embedded by the same embedder."""
    vectors = embedder.embed(document) if document else None
    return retrieve_top_k(document, sub_questions, vectors, embedder, **kwargs)


class TestRetrieveTopK:
    def test_identical_sentence_ranked_first_with_score_one(self):
        document = ["alpha beta gamma", "totally different words"]
        record = rank(document, ["alpha beta gamma"], HashingEmbedder(), k=2)
        assert record.merged[0] == (0, 1.0)

    def test_orthogonal_vectors_score_zero_and_rank_last(self):
        embedder = FixedEmbedder({"q": 0, "hit": 0, "miss": 1})
        document = ["miss", "hit"]
        record = rank(document, ["q"], embedder, k=2)
        assert record.merged == [(1, 1.0), (0, 0.0)]

    def test_empty_document_returns_empty_record(self):
        record = rank([], ["q"], HashingEmbedder(), k=5)
        assert record.merged == [] and record.per_question == []

    def test_dimension_mismatch_is_configuration_error(self):
        document = ["a", "b"]
        with pytest.raises(RetrievalConfigError):
            retrieve_top_k(document, ["q"], DenseVectors(np.ones((2, 5))), FixedEmbedder({}, dim=4), k=1)
        with pytest.raises(RetrievalConfigError, match="questions 4, sentences 4096"):
            retrieve_top_k(document, ["q"], HashingEmbedder().embed(document), FixedEmbedder({}), k=1)

    def test_embeds_only_the_sub_questions(self):
        class CountingEmbedder(HashingEmbedder):
            def __init__(self):
                self.batches = []

            def embed(self, texts):
                self.batches.append(list(texts))
                return super().embed(texts)

        document = ["alpha", "beta"]
        embedder = CountingEmbedder()
        retrieve_top_k(document, ["alpha", "beta"], HashingEmbedder().embed(document), embedder)
        assert embedder.batches == [["alpha", "beta"]]

    def test_same_store_ranks_with_two_embedders(self):
        document = ["miss", "hit"]
        fixed = rank(document, ["q"], FixedEmbedder({"q": 0, "hit": 0, "miss": 1}), k=2)
        hashed = rank(document, ["miss"], HashingEmbedder(), k=2)
        assert fixed.merged == [(1, 1.0), (0, 0.0)]
        assert hashed.merged[0] == (0, 1.0)

    def test_records_cite_raw_text_ranked_by_retrieval_text(self):
        document = ["raw zero", "raw one"]
        embedder = HashingEmbedder()
        vectors = embedder.embed(["unrelated words", "revenue was high"])
        record = retrieve_top_k(document, ["revenue was high"], vectors, embedder, k=1)
        assert record.merged == [(1, 1.0)]
        assert record.sentence_texts == {1: "raw one"}

    def test_scores_non_increasing_and_no_duplicate_ids(self):
        document = [f"sentence number {i}" for i in range(20)]
        record = rank(document, ["sentence number 3", "sentence number 7"], HashingEmbedder(), k=10)
        for ranked in record.per_question:
            scores = [s for _, s in ranked]
            assert scores == sorted(scores, reverse=True)
        ids = record.merged_ids()
        assert len(ids) == len(set(ids))

    def test_determinism_across_runs(self):
        def run():
            document = [f"item {i} value {i*i}" for i in range(30)]
            return rank(document, ["item 7", "value 49"], HashingEmbedder(), k=10)

        assert run().to_dict() == run().to_dict()

    def test_cosine_bounds(self):
        document = [f"word{i}" for i in range(15)]
        record = rank(document, ["word1 word2"], HashingEmbedder(), k=15)
        for _, score in record.per_question[0]:
            assert -1.0 <= score <= 1.0

    def test_k_validation(self):
        document = ["a"]
        with pytest.raises(ValueError):
            rank(document, ["q"], HashingEmbedder(), k=0)

    def test_record_round_trips_through_dict(self, tmp_path):
        document = [f"text {i}" for i in range(5)]
        records = {
            "plain": rank(document, ["text 1"], HashingEmbedder(), k=3, question="Q?"),
            "degraded": rank(
                document, ["text 1", "text 4"], HashingEmbedder(), k=3, question="Q2?", degraded=True
            ),
        }
        path = tmp_path / "retrieval.jsonl"
        write_jsonl(path, [{"id": key, **record.to_dict()} for key, record in records.items()])
        assert read_retrieval_records(path) == records


ranked_lists_strategy = st.lists(
    st.lists(
        st.tuples(st.integers(0, 15), st.floats(0, 1, allow_nan=False)),
        min_size=1,
        max_size=12,
    ).map(lambda lst: sorted(lst, key=lambda t: -t[1])),
    min_size=1,
    max_size=4,
)


class TestMerging:
    @given(lists=ranked_lists_strategy, k=st.integers(1, 12))
    @settings(max_examples=150)
    def test_round_robin_prefix_extension(self, lists, k):
        smaller = merge_round_robin(lists, k)
        bigger = merge_round_robin(lists, k + 1)
        assert bigger[:k] == smaller

    @given(lists=ranked_lists_strategy, k=st.integers(1, 12))
    @settings(max_examples=100)
    def test_merged_has_no_duplicates(self, lists, k):
        merged = merge_round_robin(lists, k)
        ids = [sid for sid, _ in merged]
        assert len(ids) == len(set(ids))

    def test_single_question_top_k_subset_of_top_k_plus_one(self):
        document = [f"entry {i} alpha" for i in range(12)]
        base = rank(document, ["entry 3 alpha"], HashingEmbedder(), k=12)
        ranked = base.per_question[0]
        for k in range(1, 12):
            assert set(r[0] for r in ranked[:k]) <= set(r[0] for r in ranked[: k + 1])

    def test_round_robin_each_question_contributes(self):
        lists = [[(0, 0.9), (1, 0.8)], [(5, 0.2), (6, 0.1)]]
        merged = merge_round_robin(lists, 2)
        assert merged == [(0, 0.9), (5, 0.2)]


class MatrixEmbedder:
    """Embeds the i-th sub-question as the i-th row of a fixed matrix."""

    def __init__(self, vectors):
        self.vectors = np.asarray(vectors, dtype=np.float64)

    def embed(self, texts):
        assert len(texts) == len(self.vectors)
        return DenseVectors(self.vectors)


# Dyadic entries make every dot product exact, so per-row and whole-matrix
# products agree to the bit, and the small set gives many ties, duplicate
# rows and zero vectors.
DYADIC = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 0.25, -0.125])


@st.composite
def ranking_cases(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2 * RANKING_DEPTH + 10))
    pool = draw(st.lists(st.lists(DYADIC, min_size=dim, max_size=dim), min_size=1, max_size=8))
    sentences = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    queries = draw(st.lists(st.lists(DYADIC, min_size=dim, max_size=dim), min_size=1, max_size=4))
    k = draw(st.integers(1, 2 * RANKING_DEPTH + 20))
    return np.array(sentences), np.array(queries), k


@st.composite
def near_rounding_cases(draw):
    """One-dimensional scores packed within a few 1e-10 of a 9-decimal rounding
    boundary, so that rounding reorders raw scores and ties them."""
    base = draw(st.sampled_from([0.5, 0.1234567885, -0.25, 0.0]))
    n = draw(st.integers(1, 2 * RANKING_DEPTH + 10))
    offsets = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    sentences = np.array([[base + o * 1e-10] for o in offsets])
    k = draw(st.integers(1, RANKING_DEPTH + 5))
    return sentences, np.array([[1.0]]), k


# Few distinct texts, so long documents repeat them and tie; zero vectors,
# one-character and non-BMP texts and a lone surrogate among them.
HASHED_SENTENCES = ["alpha beta", "beta", "gamma alpha", "", " ", "7", "\U0001f600 b", "a\ud800"]


def check_against_reference(sentences, queries, k):
    document = [f"s{i}" for i in range(len(sentences))]
    subs = [f"q{j}" for j in range(len(queries))]
    record = retrieve_top_k(document, subs, DenseVectors(sentences), MatrixEmbedder(queries), k=k)
    reference = reference_rankings(sentences, queries)
    depth = max(k, RANKING_DEPTH)
    assert record.per_question == [ranked[:depth] for ranked in reference]
    assert record.merged == brute_round_robin(reference, k)
    return record


class TestRankingDepth:
    @given(ranking_cases())
    @settings(max_examples=200, deadline=None)
    def test_prefix_of_full_sort_with_ties_duplicates_and_zero_vectors(self, case):
        check_against_reference(*case)

    @given(near_rounding_cases())
    @settings(max_examples=200, deadline=None)
    def test_prefix_exact_where_rounding_reorders_raw_scores(self, case):
        check_against_reference(*case)

    @pytest.mark.parametrize("n, k", [(5, 1), (5, 9), (60, 30), (61, 30), (200, 30), (200, 75), (70, 75)])
    def test_depth_is_max_k_and_60_capped_by_sentence_count(self, n, k):
        rng = np.random.default_rng(n * 1000 + k)
        sentences = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
        queries = rng.integers(-2, 3, size=(2, 3)).astype(np.float64)
        record = check_against_reference(sentences, queries, k)
        assert [len(ranked) for ranked in record.per_question] == [min(n, max(k, 60))] * 2

    @given(
        st.lists(st.sampled_from(HASHED_SENTENCES), min_size=1, max_size=2 * RANKING_DEPTH + 10),
        st.lists(st.sampled_from(["alpha", "beta gamma", "7", "\ud800", "zeta"]), min_size=1, max_size=3),
        st.integers(1, RANKING_DEPTH + 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_hashing_ranking_is_a_prefix_of_the_counter_reference(self, sentences, subs, k):
        embedder = HashingEmbedder()
        record = retrieve_top_k(sentences, subs, embedder.embed(sentences), embedder, k=k)
        reference = []
        for row in reference_hashing_scores(sentences, subs):
            scores = [round(score, 9) for score in row]
            reference.append(sorted(enumerate(scores), key=lambda item: (-item[1], item[0])))
        assert record.per_question == [ranked[: max(k, RANKING_DEPTH)] for ranked in reference]
        assert record.merged == brute_round_robin(reference, k)

    def test_corpus_rankings_equal_the_dense_reference(self):
        corpus = FIXTURES / "corpus"
        rewriter = Rewriter(ReplayProvider(Transcript.load(corpus / "rewrite_transcript.jsonl")))
        embedder = HashingEmbedder()
        document = read_documents(corpus / "docs.jsonl")["fin_reports_2022"]
        texts = list(rewrite_sentences(document, rewriter))
        vectors, dense = embedder.embed(texts), reference_hashing_embed(texts)
        for triple in read_triples(corpus / "triples.jsonl"):
            subs = list(rewrite_question(triple.question, rewriter).sub_questions)
            record = retrieve_top_k(document, subs, vectors, embedder, k=30)
            reference = reference_rankings(dense, reference_hashing_embed(subs))
            assert record.per_question == [ranked[:RANKING_DEPTH] for ranked in reference]
