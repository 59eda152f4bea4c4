from __future__ import annotations

import logging
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doc2table.html_io import (
    MAX_COLSPAN,
    MAX_HEADER_DEPTH,
    GridCell,
    parse_grid,
    parse_html_table,
    serialize_html,
)
from doc2table.model import CoordTree, HierarchicalTable, TableError, flatten_to_kv

import strategies as sts
from conftest import stacked_header_html
from oracles import reference_serialize_html, reference_stub_header

def distinct_cells(grid) -> list[GridCell]:
    """The grid's cells, each once, in row-major order of their first slot."""
    return list({id(cell): cell for row in grid.slots for cell in row}.values())


def tiled_stub_html(rng: random.Random, h: int, w: int) -> tuple[str, list[str]]:
    """A table whose h x w stub region is tiled by random spans, and their labels in placement order.

    Each header row but the last holds one column header over both body
    columns, so that no row is empty; one row header per body row spans the
    w header columns.
    """
    owned = [[False] * w for _ in range(h)]
    rows: list[list[str]] = [[] for _ in range(h)]
    labels: list[str] = []
    for r in range(h):
        for c in range(w):
            if owned[r][c]:
                continue
            width = 1
            while c + width < w and not owned[r][c + width] and rng.random() < 0.5:
                width += 1
            height = rng.randint(1, h - r)
            for dr in range(height):
                owned[r + dr][c : c + width] = [True] * width
            labels.append(f"s{len(labels)}")
            rows[r].append(f'<th rowspan="{height}" colspan="{width}">{labels[-1]}</th>')
    for r in range(h - 1):
        rows[r].append(f'<th colspan="2">t{r}</th>')
    rows[-1] += ["<th>c0</th>", "<th>c1</th>"]
    head = "".join(f"<tr>{''.join(row)}</tr>" for row in rows)
    body = "".join(f'<tr><th colspan="{w}">r{i}</th><td>1</td><td>2</td></tr>' for i in range(2))
    return f"<table><thead>{head}</thead><tbody>{body}</tbody></table>", labels


@st.composite
def tiled_tables(draw):
    """HTML of a table whose grid random rectangular spans tile, and the parse it must give.

    The h header rows are the ``thead``, and a body row's first w cells are
    ``th``. No span crosses from the header rows into the body rows, nor, in
    the body rows, from the row-header columns into the body columns. A span
    over the last column is one row high, so every row holds a cell. Every
    ``th`` has its own label.
    """
    n_rows, n_cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    h, w = draw(st.integers(1, n_rows - 1)), draw(st.integers(1, n_cols - 1))
    owner = [[""] * n_cols for _ in range(n_rows)]  # each slot's covering cell text
    rows: list[list[str]] = [[] for _ in range(n_rows)]
    stub = []
    for r in range(n_rows):
        for c in range(n_cols):
            if owner[r][c]:
                continue
            free = 1
            while (
                c + free < n_cols and not owner[r][c + free] and (r < h or (c + free < w) == (c < w))
            ):
                free += 1
            width = draw(st.integers(1, free))
            height = 1 if c + width == n_cols else draw(st.integers(1, (h if r < h else n_rows) - r))
            text = f"{'h' if r < h or c < w else 'v'}{sum(map(len, rows))}"
            for dr in range(height):
                owner[r + dr][c : c + width] = [text] * width
            if r < h and c < w:
                stub.append(text)
            tag = "td" if text[0] == "v" else "th"
            rows[r].append(f'<{tag} rowspan="{height}" colspan="{width}">{text}</{tag}>')
    head, body = (["<tr>" + "".join(row) + "</tr>" for row in part] for part in (rows[:h], rows[h:]))
    html = f"<table><thead>{''.join(head)}</thead><tbody>{''.join(body)}</tbody></table>"

    def chain(slots) -> tuple[str, ...]:
        return tuple(text for i, text in enumerate(slots) if i == 0 or slots[i - 1] != text)

    top = [chain([owner[r][c] for r in range(h)]) for c in range(w, n_cols)]
    left = [chain(owner[r][:w]) for r in range(h, n_rows)]
    return html, " ".join(stub), left, top, tuple(tuple(row[w:]) for row in owner[h:])


MINIMAL = "<table><tr><th></th><th>c</th></tr><tr><th>r</th><td>v</td></tr></table>"


class TestParseMinimal:
    def test_minimal_table(self):
        table = parse_html_table(MINIMAL)
        assert table.stub_header == ""
        assert table.left.to_nested() == ["r"]
        assert table.top.to_nested() == ["c"]
        assert table.body == (("v",),)

    def test_parse_is_deterministic(self):
        assert parse_html_table(MINIMAL) == parse_html_table(MINIMAL)

    def test_fallback_without_header_markup(self):
        html = "<table><tr><td>h0</td><td>h1</td></tr><tr><td>r</td><td>v</td></tr></table>"
        table = parse_html_table(html)
        assert table.stub_header == "h0"
        assert table.top.to_nested() == ["h1"]
        assert table.left.to_nested() == ["r"]
        assert table.body == (("v",),)

    def test_entities_decoded_and_whitespace_normalized(self):
        html = (
            "<table><tr><th></th><th>A &amp; B</th></tr>"
            "<tr><th>r</th><td>61,&nbsp;276</td></tr></table>"
        )
        table = parse_html_table(html)
        assert table.top.to_nested() == ["A & B"]
        assert table.body == (("61, 276",),)

    def test_cell_before_any_row_opens_one(self):
        html = "<table><th></th><th>c</th><tr><th>r</th><td>v</td></tr></table>"
        assert parse_html_table(html) == parse_html_table(MINIMAL)

    @pytest.mark.parametrize("head_end", ["</tr><tbody>", "</tr><tfoot>", "<tbody>"])
    def test_tbody_or_tfoot_ends_an_open_thead(self, head_end):
        head = "<table><thead><tr><th>x</th><th>a</th><th>b</th>"
        body = "<tr><th>r</th><td>1</td><td>2</td></tr></tbody></table>"
        closed = parse_html_table(head + "</tr></thead><tbody>" + body)
        assert closed.body == (("1", "2"),)
        assert parse_html_table(head + head_end + body) == closed

    @pytest.mark.parametrize("span", ['rowspan="two"', 'rowspan=""', "rowspan", 'colspan="1.5"'])
    def test_span_that_is_not_an_integer_reads_as_one(self, span):
        html = MINIMAL.replace("<th>c</th>", f"<th {span}>c</th>")
        assert [(c.row_span, c.col_span) for c in distinct_cells(parse_grid(html))] == [(1, 1)] * 4
        assert parse_html_table(html) == parse_html_table(MINIMAL)

    @pytest.mark.parametrize(
        "value, span",
        [
            ("2", 2),
            (" \t\n\f\r+2", 2),
            ("2.5", 2),
            ("3px", 3),
            ("007", 7),
            ("1_0", 1),
            ("\u0663", 1),  # ARABIC-INDIC DIGIT THREE
            ("\xa02", 1),  # no-break space is not ASCII whitespace
            ("\v2", 1),
            ("px3", 1),
            ("-2", 1),
            ("+-2", 1),
            ("++2", 1),
            ("0", 1),
            ("", 1),
            ("9" * 5000, MAX_COLSPAN),
        ],
    )
    def test_span_reads_by_the_html_integer_rules(self, value, span):
        # WHATWG "rules for parsing non-negative integers"; colspan is then clamped
        grid = parse_grid(f'<table><tr><td colspan="{value}">a</td></tr></table>')
        assert [cell.col_span for cell in distinct_cells(grid)] == [span]

    @pytest.mark.parametrize(
        "html, spans",
        [
            ('<table><tr><th colspan="2.5">a</th></tr><tr><td>x</td><td>y</td></tr></table>', (1, 2)),
            ('<table><tr><th rowspan="2.5">a</th><td>x</td></tr><tr><td>y</td></tr></table>', (2, 1)),
        ],
    )
    def test_fractional_span_makes_a_rectangular_grid(self, html, spans):
        cell = distinct_cells(parse_grid(html))[0]
        assert (cell.row_span, cell.col_span) == spans

    def test_nested_markup_stripped_to_text(self):
        html = (
            "<table><tr><th></th><th><b>bold</b> head</th></tr>"
            "<tr><th>r</th><td><span>a</span><br>b</td></tr></table>"
        )
        table = parse_html_table(html)
        assert table.top.to_nested() == ["bold head"]
        assert table.body == (("a b",),)


class TestHierarchyFromSpans:
    def test_colspan_parent_over_two_subheaders(self):
        # Hand expansion: the 2-row header region gives column chains
        # [Sales, 2022], [Sales, 2023], [Total]; "Item" spans the stub.
        html = (
            "<table>"
            '<tr><th rowspan="2">Item</th><th colspan="2">Sales</th><th rowspan="2">Total</th></tr>'
            "<tr><th>2022</th><th>2023</th></tr>"
            "<tr><th>Widgets</th><td>10</td><td>20</td><td>30</td></tr>"
            "</table>"
        )
        table = parse_html_table(html)
        assert table.stub_header == "Item"
        assert table.top.to_nested() == [["Sales", ["2022", "2023"]], "Total"]
        assert table.left.to_nested() == ["Widgets"]
        assert table.body == (("10", "20", "30"),)

    def test_stub_region_of_several_spanning_cells_joins_in_origin_order(self):
        # Origins: A (0,0), B (0,1), C (1,1), D (1,2), E (2,0), F (2,2).
        html = (
            "<table><thead>"
            '<tr><th rowspan="2">A</th><th colspan="2">B</th><th rowspan="3">x</th></tr>'
            '<tr><th rowspan="2">C</th><th>D</th></tr>'
            "<tr><th>E</th><th>F</th></tr>"
            '</thead><tbody><tr><th colspan="3">r</th><td>1</td></tr></tbody></table>'
        )
        assert parse_html_table(html).stub_header == "A B C D E F"
        assert reference_stub_header(parse_grid(html), 3, 3) == "A B C D E F"

    def test_randomly_tiled_stub_regions_match_the_origin_rule(self):
        rng = random.Random(11)
        for _ in range(60):
            h, w = rng.randint(1, 4), rng.randint(1, 4)
            html, labels = tiled_stub_html(rng, h, w)
            table = parse_html_table(html)
            assert table.stub_header == reference_stub_header(parse_grid(html), h, w)
            assert table.stub_header == " ".join(labels)
            assert table.body == (("1", "2"), ("1", "2"))

    def test_rowspan_parent_in_left_region(self, example_table_html, example_table):
        assert example_table.left.to_nested()[2] == [
            "Urinary tract",
            ["Kidney and renal pelvis", "Bladder"],
        ]

    def test_example_kv_triple(self, example_table):
        triples = flatten_to_kv(example_table)
        assert (
            ("Urinary tract", "Kidney and renal pelvis"),
            ("Mortality", "Females"),
            "61, 276",
        ) in [(t.left_key, t.top_key, t.value) for t in triples]

    def test_bottom_boundary_colspan_duplicates_leaf(self):
        html = (
            "<table><tr><th></th><th colspan=\"2\">Pair</th></tr>"
            "<tr><th>r</th><td>1</td><td>2</td></tr></table>"
        )
        table = parse_html_table(html)
        assert table.top.to_nested() == ["Pair", "Pair"]
        assert table.body == (("1", "2"),)


class TestParseErrors:
    def test_zero_tables(self):
        with pytest.raises(TableError, match="^expected exactly one table element, found 0$"):
            parse_html_table("<div>no table here</div>")

    def test_multiple_tables(self):
        with pytest.raises(TableError, match="^expected exactly one table element, found 2$"):
            parse_html_table(MINIMAL + MINIMAL)

    def test_non_rectangular_names_coordinates(self):
        html = "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td></tr></table>"
        with pytest.raises(TableError) as excinfo:
            parse_html_table(html)
        assert "row 1, column 1" in str(excinfo.value)

    def test_overlapping_spans(self):
        html = (
            "<table><tr><td>a</td><td rowspan=\"2\">b</td></tr>"
            "<tr><td colspan=\"2\">c</td></tr></table>"
        )
        with pytest.raises(TableError) as excinfo:
            parse_html_table(html)
        assert "overlap" in str(excinfo.value)

    def test_huge_colspan_is_clamped_and_fails_fast(self):
        html = '<table><tr><td colspan="100000000">a</td></tr><tr><td>b</td></tr></table>'
        start = time.perf_counter()
        with pytest.raises(TableError) as excinfo:
            parse_grid(html)
        assert time.perf_counter() - start < 2.0
        assert "row 1, column 1" in str(excinfo.value)
        one_row = parse_grid('<table><tr><td colspan="100000000">a</td></tr></table>')
        assert len(one_row.slots[0]) == MAX_COLSPAN == 1000
        assert [cell.col_span for cell in distinct_cells(one_row)] == [MAX_COLSPAN]

    def test_header_only_table(self):
        with pytest.raises(TableError, match="^no body rows below the column-header region$"):
            parse_html_table("<table><tr><th>a</th><th>b</th></tr></table>")

    def test_table_without_rows(self):
        with pytest.raises(TableError, match="^table has no rows$"):
            parse_html_table("<table></table>")

    def test_all_header_table_with_a_thead_has_no_body_columns(self):
        html = (
            "<table><thead><tr><th>a</th><th>b</th></tr></thead>"
            "<tr><th>c</th><th>d</th></tr></table>"
        )
        with pytest.raises(TableError, match="^no body columns right of the row-header region$"):
            parse_html_table(html)

    def test_empty_header_label(self):
        html = "<table><tr><th></th><th></th></tr><tr><th>r</th><td>v</td></tr></table>"
        with pytest.raises(TableError) as excinfo:
            parse_html_table(html)
        assert "empty header label" in str(excinfo.value)

    def test_header_at_the_limit_parses(self):
        table = parse_html_table(stacked_header_html(MAX_HEADER_DEPTH))
        assert table.top.depth == MAX_HEADER_DEPTH == 100

    @pytest.mark.parametrize(
        "html, levels",
        [
            (stacked_header_html(101), 101),
            # 1,100 levels would exhaust the interpreter's recursion limit
            (stacked_header_html(1100), 1100),
            (
                "<table><thead><tr>" + "<th></th>" * 1100 + "<th>c</th></tr></thead><tbody><tr>"
                + "".join(f"<th>l{i}</th>" for i in range(1100)) + "<td>1</td></tr></tbody></table>",
                1100,
            ),
        ],
        ids=["column-101", "column-1100", "row-1100"],
    )
    def test_header_deeper_than_the_limit(self, html, levels):
        with pytest.raises(TableError, match=f"^header has {levels} levels, more than the 100 supported$"):
            parse_html_table(html)

    def test_indentation_warning(self, caplog):
        html = (
            "<table><tr><th></th><th>c</th></tr>"
            "<tr><th>Parent</th><td>1</td></tr>"
            "<tr><th>&nbsp;&nbsp;Child</th><td>2</td></tr></table>"
        )
        with caplog.at_level(logging.WARNING, logger="doc2table.html_io"):
            table = parse_html_table(html)
        assert any("indentation" in r.message for r in caplog.records)
        assert table.left.depth == 1  # parsed flat, not nested


class TestTiledTables:
    @given(tiled_tables())
    @settings(max_examples=300, deadline=None)
    def test_every_rectangular_tiling_parses_to_its_chains(self, case):
        html, stub, left, top, body = case
        table = parse_html_table(html)
        assert (table.left.leaf_count, table.top.leaf_count) == (len(body), len(body[0]))
        assert [labels for _, labels in table.left.leaves] == left
        assert [labels for _, labels in table.top.leaves] == top
        assert (table.stub_header, table.body) == (stub, body)


class TestSpanConservation:
    def test_on_example_table(self, example_table_html):
        grid = parse_grid(example_table_html)
        covered = sum(c.row_span * c.col_span for c in distinct_cells(grid))
        assert covered == grid.n_rows * grid.n_cols

    def test_on_random_tables(self):
        rng = random.Random(5)
        for _ in range(50):
            html = serialize_html(sts.random_table(rng))
            grid = parse_grid(html)
            covered = sum(c.row_span * c.col_span for c in distinct_cells(grid))
            assert covered == grid.n_rows * grid.n_cols


class TestRoundTrip:
    def test_minimal(self):
        table = parse_html_table(MINIMAL)
        assert parse_html_table(serialize_html(table)) == table

    def test_example_preserves_kv(self, example_table):
        again = parse_html_table(serialize_html(example_table))
        assert again == example_table
        assert flatten_to_kv(again) == flatten_to_kv(example_table)

    def test_committed_html_is_canonical(self, example_table_html, example_table):
        assert serialize_html(example_table) + "\n" == example_table_html

    @given(table=sts.tables())
    @settings(max_examples=150, deadline=None)
    def test_property_round_trip(self, table):
        assert parse_html_table(serialize_html(table)) == table

    def test_escaping_round_trip(self):
        table = HierarchicalTable(
            "a<b>&\"quote\"",
            CoordTree.from_nested(["r & <d>"]),
            CoordTree.from_nested(["c>1"]),
            (("<script>'v'&amp;",),),
        )
        assert parse_html_table(serialize_html(table)) == table

    def test_leaf_order_stable_through_round_trip(self, example_table):
        again = parse_html_table(serialize_html(example_table))
        assert again.left.leaves == example_table.left.leaves
        assert again.top.leaves == example_table.top.leaves


REPEATED_SIBLINGS = [("A", ["x", "x"]), "A"]


def table_of(left_spec, top_spec) -> HierarchicalTable:
    left, top = CoordTree.from_nested(left_spec), CoordTree.from_nested(top_spec)
    return HierarchicalTable(
        "s",
        left,
        top,
        tuple(tuple(f"{r}.{c}" for c in range(top.leaf_count)) for r in range(left.leaf_count)),
    )


class TestSerializeMatchesReference:
    """The leaf-run serializer writes the node-by-node reference's bytes."""

    @given(table=sts.tables(max_dim=8, max_depth=4))
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, table):
        assert serialize_html(table) == reference_serialize_html(table)

    @pytest.mark.parametrize(
        "left_spec, top_spec",
        [
            (REPEATED_SIBLINGS, REPEATED_SIBLINGS),
            (["a", ("B", ["b1", ("b2", ["x", "y"])]), "c"], [("T", [("U", ["u1"]), "v"]), "w"]),
            ([("A", [("B", [("C", ["d"])])])], ["e", ("F", ["g", ("H", ["i", "i"])]), "e"]),
        ],
        ids=["repeated-sibling-labels", "uneven-depth", "deep-chain-and-repeats"],
    )
    def test_explicit_shapes(self, left_spec, top_spec):
        table = table_of(left_spec, top_spec)
        assert serialize_html(table) == reference_serialize_html(table)
        assert parse_html_table(serialize_html(table)) == table

    def test_repeated_sibling_labels_stay_separate_cells(self):
        assert serialize_html(table_of(REPEATED_SIBLINGS, ["c"])) == "\n".join(
            [
                "<table>",
                "<thead>",
                '<tr><th colspan="2">s</th><th>c</th></tr>',
                "</thead>",
                "<tbody>",
                '<tr><th rowspan="2">A</th><th>x</th><td>0.0</td></tr>',
                "<tr><th>x</th><td>1.0</td></tr>",
                '<tr><th colspan="2">A</th><td>2.0</td></tr>',
                "</tbody>",
                "</table>",
            ]
        )
