from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doc2table.annotate import (
    CellMatch,
    SentenceIndex,
    apply_review,
    canonical_magnitude,
    corpus_stats,
    coverage,
    match_cells_to_sentences,
    parse_cell_number,
    relevant_ids,
    sentence_numbers,
)
from doc2table.data import QaTriple
from doc2table.model import CoordTree, HierarchicalTable

from conftest import make_flat_table
from oracles import reference_match_cells, reference_sentence_numbers


class TestNumberNormalization:
    def test_canonical_magnitude(self):
        assert canonical_magnitude("61,276") == "61276"
        assert canonical_magnitude("61, 276") == "61276"
        assert canonical_magnitude("1 234") == "1234"
        assert canonical_magnitude("056.20") == "56.2"
        assert canonical_magnitude("000") == "0"

    def test_parse_cell_number(self):
        assert parse_cell_number("61,276") == ("61276", False)
        assert parse_cell_number("(1,234)") == ("1234", True)
        assert parse_cell_number("-42") == ("42", True)
        assert parse_cell_number("$56.2") == ("56.2", False)
        assert parse_cell_number("12%") == ("12", False)
        assert parse_cell_number("Total") is None
        assert parse_cell_number("$56.2 billion") is None  # number plus words
        assert parse_cell_number("") is None

    def test_sentence_numbers(self):
        tokens = sentence_numbers("A decrease of $1,234 million, versus 61, 276 earlier.")
        assert ("1234", False) in tokens
        assert ("61276", False) in tokens

    def test_sentence_negative_forms(self):
        assert ("500", True) in sentence_numbers("The swing was -500 in total.")
        assert ("500", True) in sentence_numbers("A result of (500) was booked.")

    @pytest.mark.parametrize("sentence", [
        "The Q4 2022 filing shows Gimate Holdings operating margin at $247,187.6 million.",
        "In Q1 2023, the revenue of Godeze Labs reached $82,637.7 million.",
        "The Revenue of Socopi Media in Q2 2023 was 986,627.8 million dollars.",
        "A result of (500) was booked.",
        "The swing was - 1 234 in total.",
        "Costs of € 1 234.50 and (¥ -12, 345) then −0.5%.",
        "Arabic-Indic digits: (٣) and ١,٢٣٤.",
        "Ginike Group management discussed supply chain risks during the investor day.",
    ])
    def test_same_tokens_as_reference(self, sentence):
        tokens = sentence_numbers(sentence)
        assert tokens == reference_sentence_numbers(sentence)
        assert tokens or not any(ch.isdigit() for ch in sentence)

    def test_money_string_tokens(self):
        assert sentence_numbers("The margin was $247,187.6 million.") == [("247187.6", False)]
        assert sentence_numbers("The swing was - 1 234 in total.") == [("1234", True)]


def one_cell_table(value: str) -> HierarchicalTable:
    return HierarchicalTable(
        "", CoordTree.from_nested(["r"]), CoordTree.from_nested(["c"]), ((value,),)
    )


class TestCellMatching:
    def test_separator_spacing_collapses(self):
        table = one_cell_table("61,276")
        index = SentenceIndex(["Deaths reached 61, 276 in total."])
        matches = match_cells_to_sentences(table, index)
        assert len(matches) == 1
        assert matches[0].kind == "numeric"
        assert matches[0].sentence_ids == (0,)
        assert matches[0].matched_token == "61276"
        assert matches[0].sign_flip_ids == ()

    def test_parenthesized_negative_matches_magnitude_with_flag(self):
        table = one_cell_table("(1,234)")
        index = SentenceIndex(["A decrease of $1,234 million was booked."])
        matches = match_cells_to_sentences(table, index)
        assert len(matches) == 1
        assert matches[0].matched_token == "1234"
        assert matches[0].sign_flip_ids == (0,)

    def test_no_sentence_no_match(self):
        table = one_cell_table("Total")
        index = SentenceIndex(["Nothing relevant here.", "Still nothing."])
        assert match_cells_to_sentences(table, index) == []

    def test_textual_whole_phrase_case_insensitive(self):
        table = one_cell_table("Net Income")
        index = SentenceIndex(
            [
                "Growth in net income was strong.",
                "The incomes of households rose.",
                "NET   INCOME stayed flat.",
            ],
        )
        matches = match_cells_to_sentences(table, index)
        assert matches[0].sentence_ids == (0, 2)
        assert matches[0].kind == "textual"

    def test_word_boundaries_respected(self):
        table = one_cell_table("Total")
        index = SentenceIndex(["Totally different subject."])
        assert match_cells_to_sentences(table, index) == []

    def test_multiple_sentences_preserved_for_review(self):
        table = one_cell_table("500")
        index = SentenceIndex(
            ["First mention of 500 here.", "Another 500 there."]
        )
        matches = match_cells_to_sentences(table, index)
        assert matches[0].sentence_ids == (0, 1)

    def test_empty_cells_skipped(self):
        table = HierarchicalTable(
            "", CoordTree.from_nested(["r"]), CoordTree.from_nested(["c1", "c2"]), (("", "7"),)
        )
        index = SentenceIndex(["Value 7 appears."])
        matches = match_cells_to_sentences(table, index)
        assert [(m.row, m.col) for m in matches] == [(0, 1)]

    def test_determinism(self):
        table = make_flat_table(2, 2)
        index = SentenceIndex(["v00 and v01.", "then v10, v11."])
        first = match_cells_to_sentences(table, index)
        second = match_cells_to_sentences(table, index)
        assert [(m.row, m.col, m.sentence_ids) for m in first] == [
            (m.row, m.col, m.sentence_ids) for m in second
        ]


# "٣" and "١٢٣٤" are Arabic-Indic decimal digits, which the pattern's \d accepts
MAGNITUDES = ["0", "7", "42", "500", "1234", "61276", "1234567", "56.2", "0.5", "٣", "١٢٣٤"]
# "İ".lower() is two characters long; "\x00" is a NUL
WORDS = ["Revenue", "net income", "Net Income", "NET INCOME", "totally", "Total",
         "a+b", "(x)", "[note]", "c.e.o", "R&D", "Q1 2023", "$", "income.",
         "İstanbul", "İİ income", "nul\x00byte", "\x00"]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
DIGITLESS_WORDS = [word for word in WORDS if not any(ch.isdigit() for ch in word)]
WHITESPACE = [" ", "  ", "\t", "\n ", " \u00a0", "\n", "\t\n", "\r\n"]


@st.composite
def printed_numbers(draw) -> str:
    """A number as a document or a cell may print it: currency, sign, grouping,
    padding and percent varied independently."""
    integer, _, fraction = draw(st.sampled_from(MAGNITUDES)).partition(".")
    separator = draw(st.sampled_from(["", ",", ", ", " "]))
    if separator and len(integer) > 3:
        head = len(integer) % 3 or 3
        integer = separator.join([integer[:head]] + [
            integer[i : i + 3] for i in range(head, len(integer), 3)
        ])
    integer = draw(st.sampled_from(["", "0", "00"])) + integer
    fraction += draw(st.sampled_from(["", "0", "00"]))
    digits = f"{integer}.{fraction}" if fraction else integer
    text = draw(st.sampled_from(["", "$", "€", "£ ", "¥"])) + digits
    text += draw(st.sampled_from(["", "", "%"]))
    sign = draw(st.sampled_from(["", "", "-", "−", "- ", "()"]))
    return f"({text})" if sign == "()" else sign + text


@st.composite
def sentences(draw, digits: bool = True) -> str:
    """Fragments joined by whitespace runs that may hold tabs and newlines;
    without ``digits``, words only and no decimal digit anywhere."""
    if digits:
        fragments = st.one_of(printed_numbers(), st.sampled_from(WORDS))
    else:
        fragments = st.sampled_from(DIGITLESS_WORDS)
    parts = draw(st.lists(fragments, min_size=1, max_size=6))
    text = ""
    for part in parts:
        spaced = part.replace(" ", draw(st.sampled_from(WHITESPACE)))
        text += spaced + draw(st.sampled_from(WHITESPACE))
    return draw(st.sampled_from(["", " ", "\t"])) + text


@st.composite
def cell_tables(draw, phrases: tuple[str, ...] = ()) -> HierarchicalTable:
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = st.one_of(printed_numbers(), st.sampled_from(WORDS + ["", "income", *phrases]))
    body = tuple(tuple(draw(cell) for _ in range(cols)) for _ in range(rows))
    return HierarchicalTable(
        "",
        CoordTree.from_nested([f"r{i}" for i in range(rows)]),
        CoordTree.from_nested([f"c{j}" for j in range(cols)]),
        body,
    )


@st.composite
def documents_and_tables(draw) -> tuple[list[str], list[HierarchicalTable]]:
    """A document, with ASCII, Arabic-Indic or no digits, and tables whose cells
    may also be one of its words, or a phrase straddling two sentences: the
    last word of sentence i and the first word of sentence i + 1, which no
    single sentence need contain."""
    digits = draw(st.sampled_from(["ascii", "arabic-indic", "none"]))
    document = draw(st.lists(sentences(digits=digits != "none"), max_size=8))
    if digits == "arabic-indic":
        document = [sentence.translate(ARABIC_INDIC) for sentence in document]
    words = [sentence.split() for sentence in document]
    straddles = [f"{a[-1]} {b[0]}" for a, b in zip(words, words[1:]) if a and b]
    phrases = (*straddles, *(word for sentence in words for word in sentence))
    return document, draw(st.lists(cell_tables(phrases), min_size=1, max_size=3))


# Characters met at a textual cell's two ends: "_", digits ("٣" Arabic-Indic,
# "²" superscript), non-ASCII letters and CJK are word characters to \w;
# punctuation, spaces and the no-break space are not
NEIGHBOURS = ["", " ", "_", "7", "٣", "²", "é", "ß", "漢", "x", ".", "-", "(", ")", "/", "\u00a0"]
PHRASES = ["total", "R&D", "a_b", "é", "c.e.o", "(x)", "net income", "_", "漢字"]


@st.composite
def phrases_among_neighbours(draw) -> tuple[list[str], str]:
    """A phrase and sentences that hold it zero or more times, each occurrence
    between drawn neighbours, so one sentence can hold a bounded and an
    unbounded occurrence in either order."""
    phrase = draw(st.sampled_from(PHRASES))
    neighbour = st.sampled_from(NEIGHBOURS)
    document = [
        "".join(
            draw(neighbour) + draw(st.sampled_from([phrase, phrase.upper()])) + draw(neighbour)
            for _ in range(draw(st.integers(0, 3)))
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return document, phrase


class TestIndexAgainstReference:
    @given(case=documents_and_tables())
    @settings(max_examples=300, deadline=None)
    def test_same_matches_as_rescanning_reference(self, case):
        document, tables = case
        index = SentenceIndex(document)
        for table in tables:
            assert match_cells_to_sentences(table, index) == reference_match_cells(table, index)

    @given(case=phrases_among_neighbours())
    @settings(max_examples=300, deadline=None)
    def test_phrase_ends_are_tested_as_the_word_pattern_tests_them(self, case):
        document, phrase = case
        table = one_cell_table(phrase)
        assert match_cells_to_sentences(table, SentenceIndex(document)) == reference_match_cells(
            table, SentenceIndex(document)
        )

    def test_magnitude_with_both_signs_in_one_sentence_is_no_flip(self):
        document = ["It swung from 500 to (500).", "A loss of -500 then."]
        index = SentenceIndex(document)
        for cell, flips in (("500", (1,)), ("-500", ())):
            table = one_cell_table(cell)
            [match] = match_cells_to_sentences(table, index)
            assert (match.sentence_ids, match.sign_flip_ids) == ((0, 1), flips)
            assert [match] == reference_match_cells(table, index)

    def test_phrase_straddling_two_sentences_matches_neither(self):
        document = ["Sales rose in Total", "Revenue fell.", "total revenue was flat."]
        index = SentenceIndex(document)
        table = one_cell_table("Total Revenue")
        assert [m.sentence_ids for m in match_cells_to_sentences(table, index)] == [(2,)]
        assert match_cells_to_sentences(table, index) == reference_match_cells(table, index)

    def test_lowering_that_lengthens_text_keeps_sentence_ids(self):
        # "İ".lower() is two characters, so each "İ" shifts later offsets by one
        document = ["İİİİ first", "x total", "İ", "Total again"]
        index = SentenceIndex(document)
        table = one_cell_table("total")
        assert [m.sentence_ids for m in match_cells_to_sentences(table, index)] == [(1, 3)]
        assert match_cells_to_sentences(table, index) == reference_match_cells(table, index)

    def test_index_length_is_sentence_count_and_scan_is_lazy(self):
        index = SentenceIndex(["One 1.", "Two 2.", "Three 3."])
        assert len(index) == 3
        assert "scan" not in vars(index)
        match_cells_to_sentences(one_cell_table("2"), index)
        assert "scan" in vars(index)


def synthetic_matches(covered_cells: list[tuple[int, int]]):
    return [CellMatch(r, c, "numeric", (0,), "1") for r, c in covered_cells]


class TestCoverageAndFilter:
    def test_all_cells_matched(self):
        table = make_flat_table(2, 2)
        matches = synthetic_matches([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert coverage(table, matches) == (1.0, False)

    def test_seven_of_ten_is_boundary_and_excluded(self):
        # 30.0% uncovered is the inclusive exclusion boundary.
        table = make_flat_table(2, 5)
        matches = synthetic_matches([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1)])
        ratio, excluded = coverage(table, matches)
        assert ratio == pytest.approx(0.7)
        assert excluded

    def test_six_of_ten_excluded(self):
        table = make_flat_table(2, 5)
        matches = synthetic_matches([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)])
        ratio, excluded = coverage(table, matches)
        assert ratio == pytest.approx(0.6)
        assert excluded

    def test_eight_of_ten_retained(self):
        table = make_flat_table(2, 5)
        matches = synthetic_matches([(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2)])
        assert not coverage(table, matches)[1]

    def test_rejected_matches_do_not_count(self):
        table = make_flat_table(1, 2)
        matches = synthetic_matches([(0, 0), (0, 1)])
        matches[0].status = "rejected"
        ratio, excluded = coverage(table, matches)
        assert ratio == pytest.approx(0.5)
        assert excluded

    def test_filter_tables_listwise_with_exclusion_log(self):
        tables = [make_flat_table(2, 5) for _ in range(3)]
        candidates = [
            (tables[0], synthetic_matches([(r, c) for r in range(2) for c in range(5)])),
            (tables[1], synthetic_matches([(0, c) for c in range(5)] + [(1, 0), (1, 1)])),
            (tables[2], synthetic_matches([(0, 0)])),
        ]
        decisions = [coverage(table, matches) for table, matches in candidates]
        assert [i for i, (_, excluded) in enumerate(decisions) if not excluded] == [0]
        assert [i for i, (_, excluded) in enumerate(decisions) if excluded] == [1, 2]
        assert decisions[1][0] == pytest.approx(0.7)
        assert 1.0 - decisions[1][0] == pytest.approx(0.3)

    def test_confirming_more_matches_never_excludes(self):
        table = make_flat_table(2, 5)
        base = [(0, c) for c in range(5)] + [(1, 0), (1, 1), (1, 2)]
        matches = synthetic_matches(base)
        assert not coverage(table, matches)[1]
        more = synthetic_matches(base + [(1, 3)])
        assert not coverage(table, more)[1]

    def test_apply_review(self):
        table = make_flat_table(1, 2)
        matches = synthetic_matches([(0, 0), (0, 1)])
        apply_review(matches, {"0,0": "rejected", "0,1": "confirmed"})
        assert matches[0].status == "rejected"
        assert matches[1].status == "confirmed"
        assert relevant_ids(matches) == (0,)


class TestCorpusStats:
    def triples(self):
        docs = {
            "d1": ["one two three.", "four five six seven."],
            "d2": ["a b c d e."],
            "d3": ["x y.", "z w v u t s."],
        }
        hier = HierarchicalTable(
            "",
            CoordTree.from_nested([("A", ["a1", "a2"]), "B"]),
            CoordTree.from_nested(["c1", "c2"]),
            (("1", "2"), ("3", "4"), ("5", "6")),
        )
        triples = [
            QaTriple("t1", "d1", "q1", make_flat_table(2, 2), (0,)),
            QaTriple("t2", "d2", "q2", make_flat_table(4, 3), (0,)),
            QaTriple("t3", "d3", "q3", hier, (0, 1)),
        ]
        return triples, docs

    def test_three_triple_fixture_hand_computed(self):
        # tokens: d1 = 3 + 4 = 7, d2 = 5, d3 = 2 + 6 = 8 -> mean 20/3
        # rows: (2 + 4 + 3)/3 = 3; cols: (2 + 3 + 2)/3 = 7/3; flat 2, hierarchical 1
        triples, docs = self.triples()
        stats = corpus_stats(triples, docs)
        assert stats["n_triples"] == 3
        assert stats["mean_input_tokens"] == pytest.approx(20 / 3)
        assert stats["mean_rows"] == pytest.approx(3.0)
        assert stats["mean_cols"] == pytest.approx(7 / 3)
        assert stats["n_flat"] == 2
        assert stats["n_hierarchical"] == 1

    def test_single_flat_table(self):
        triples = [QaTriple("t", "d", "q", make_flat_table(2, 2), (0,))]
        stats = corpus_stats(triples)
        assert stats["mean_rows"] == 2.0
        assert stats["mean_cols"] == 2.0
        assert stats["n_flat"] == 1 and stats["n_hierarchical"] == 0
        assert stats["mean_input_tokens"] is None

    def test_empty_corpus(self):
        assert corpus_stats([]) == {
            "n_triples": 0,
            "mean_input_tokens": None,
            "mean_rows": 0.0,
            "mean_cols": 0.0,
            "n_flat": 0,
            "n_hierarchical": 0,
        }
