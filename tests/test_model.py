from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doc2table.model import (
    CoordTree,
    HeaderNode,
    HierarchicalTable,
    KeyValueTriple,
    TableError,
    flatten_to_kv,
    normalize_text,
)
from doc2table.html_io import parse_html_table, serialize_html

import strategies as sts


class TestNormalization:
    def test_collapses_internal_whitespace(self):
        assert normalize_text("  61,\t 276 \n") == "61, 276"

    def test_case_preserved(self):
        assert normalize_text("Urinary  Tract") == "Urinary Tract"

    def test_cells_and_stub_normalized_at_construction(self, flat_2x2):
        table = HierarchicalTable(
            "  stub  text ", flat_2x2.left, flat_2x2.top, ((" a  b ", "c"), ("d", "e"))
        )
        assert table.stub_header == "stub text"
        assert table.body[0][0] == "a b"

    def test_empty_header_label_rejected(self):
        with pytest.raises(TableError, match="^header label is empty after normalization$"):
            HeaderNode("   ")


def coords_of(tree: CoordTree) -> list[tuple[int, ...]]:
    return [coord for coord, _ in tree.leaves]


def label_paths(tree: CoordTree) -> tuple[tuple[str, ...], ...]:
    return tuple(labels for _, labels in tree.leaves)


class TestLeafCoords:
    def test_depth_one_tree(self):
        tree = CoordTree.from_nested(["a", "b", "c", "d"])
        assert coords_of(tree) == [(0,), (1,), (2,), (3,)]

    def test_single_level_second_root(self):
        tree = CoordTree.from_nested(["x", "y", "z"])
        assert dict(tree.leaves)[(1,)] == ("y",)

    def test_two_level_preorder(self):
        tree = CoordTree.from_nested([("A", ["a1", "a2"]), ("B", ["b1"])])
        assert coords_of(tree) == [(0, 0), (0, 1), (1, 0)]

    def test_three_level_manual_walk(self):
        # Hand walk: root 0 is A, its child 1 is a2, a2's child 0 is x.
        tree = CoordTree.from_nested([("A", ["a1", ("a2", ["x", "y"])]), ("B", ["b1"])])
        assert dict(tree.leaves)[(0, 1, 0)] == ("A", "a2", "x")

    def test_example_table_coordinates(self, example_table):
        # The committed example: left <2,0> and top <2,1> meet at "61, 276".
        row = coords_of(example_table.left).index((2, 0))
        col = coords_of(example_table.top).index((2, 1))
        assert label_paths(example_table.left)[row] == (
            "Urinary tract",
            "Kidney and renal pelvis",
        )
        assert label_paths(example_table.top)[col] == ("Mortality", "Females")
        assert example_table.body[row][col] == "61, 276"

    def test_example_left_tree_matches_body_rows(self, example_table):
        assert example_table.left.leaf_count == len(example_table.body)

    def test_stable_across_calls(self, example_table):
        # computed once per tree; an equal tree built anew walks to the same leaves
        assert example_table.top.leaves is example_table.top.leaves
        assert CoordTree(example_table.top.roots).leaves == example_table.top.leaves

    @given(tree=sts.coord_trees(max_depth=4, max_roots=3))
    @settings(max_examples=150)
    def test_coords_walk_to_label_paths_in_preorder(self, tree):
        # Reference: every node's coordinate in preorder, by brute-force recursion.
        def preorder(nodes, prefix):
            out = []
            for i, node in enumerate(nodes):
                out.append(prefix + (i,))
                out.extend(preorder(node.children, prefix + (i,)))
            return out

        def follow(path):
            labels, level = [], tree.roots
            for index in path:
                node = level[index]
                labels.append(node.label)
                level = node.children
            return tuple(labels), node

        leaf_paths = [path for path in preorder(tree.roots, ()) if follow(path)[1].is_leaf]
        assert coords_of(tree) == leaf_paths
        assert label_paths(tree) == tuple(follow(path)[0] for path in leaf_paths)
        assert tree.depth == max(len(path) for path in preorder(tree.roots, ()))


class TestFlatten:
    def test_minimal_1x1(self):
        table = HierarchicalTable(
            "", CoordTree.from_nested(["r"]), CoordTree.from_nested(["c"]), (("v",),)
        )
        assert flatten_to_kv(table) == (KeyValueTriple(("r",), ("c",), "v", (0,), (0,)),)

    def test_2x2_manual_enumeration(self, flat_2x2):
        triples = flatten_to_kv(flat_2x2)
        assert [(t.left_key, t.top_key, t.value) for t in triples] == [
            (("r1",), ("c1",), "a"),
            (("r1",), ("c2",), "b"),
            (("r2",), ("c1",), "c"),
            (("r2",), ("c2",), "d"),
        ]

    def test_example_cell_triple(self, example_table):
        triples = flatten_to_kv(example_table)
        expected = KeyValueTriple(
            ("Urinary tract", "Kidney and renal pelvis"), ("Mortality", "Females"), "61, 276",
            (2, 0), (2, 1),
        )
        assert expected in triples

    def test_stub_never_in_keys(self, example_table):
        for triple in flatten_to_kv(example_table):
            assert example_table.stub_header not in triple.left_key
            assert example_table.stub_header not in triple.top_key

    @given(table=sts.tables())
    @settings(max_examples=100)
    def test_bijection(self, table):
        triples = flatten_to_kv(table)
        rows, cols = len(table.body), len(table.body[0])
        assert len(triples) == rows * cols
        coords = [
            (lc, tc)
            for lc in coords_of(table.left)
            for tc in coords_of(table.top)
        ]
        assert len(set(coords)) == rows * cols
        # each triple carries its own cell's coordinates, in row-major order
        assert [(t.left_coord, t.top_coord) for t in triples] == coords


class TestValidate:
    """Construction rejects a body that does not fit its header trees."""

    def test_example_table_passes(self, example_table):
        assert HierarchicalTable(
            example_table.stub_header, example_table.left, example_table.top, example_table.body
        ) == example_table

    def test_tree_without_roots(self):
        with pytest.raises(TableError, match="^coordinate tree needs at least one root node$"):
            CoordTree(())

    def test_dimension_mismatch(self):
        left = CoordTree.from_nested(["r1", "r2"])
        top = CoordTree.from_nested(["c1", "c2"])
        with pytest.raises(TableError) as excinfo:
            HierarchicalTable("", left, top, (("a", "b"), ("c", "d"), ("e", "f")))
        assert "3 rows" in str(excinfo.value) and "2 leaves" in str(excinfo.value)

    def test_ragged_row_reported(self):
        left = CoordTree.from_nested(["r1"])
        top = CoordTree.from_nested(["c1", "c2"])
        with pytest.raises(TableError) as excinfo:
            HierarchicalTable("", left, top, (("a",),))
        assert "body row 0 has 1 cells, top tree has 2 leaves" in str(excinfo.value)

    def test_every_mismatch_named(self):
        left = CoordTree.from_nested(["r1", "r2"])
        top = CoordTree.from_nested(["c1", "c2"])
        with pytest.raises(TableError) as excinfo:
            HierarchicalTable("", left, top, (("a", "b"), ("c",), ("d", "e", "f")))
        assert str(excinfo.value) == "; ".join(
            [
                "dimension mismatch: body has 3 rows, left tree has 2 leaves",
                "dimension mismatch: body row 1 has 1 cells, top tree has 2 leaves",
                "dimension mismatch: body row 2 has 3 cells, top tree has 2 leaves",
            ]
        )

    def test_duplicate_key_paths_construct(self):
        left = CoordTree.from_nested(["Total", "Total"])
        top = CoordTree.from_nested(["c"])
        table = HierarchicalTable("", left, top, (("1",), ("2",)))
        assert label_paths(table.left) == (("Total",), ("Total",))

    @given(
        left=sts.coord_trees(),
        top=sts.coord_trees(),
        fault=st.sampled_from(["extra row", "missing row", "short row"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_only_the_exact_shape_constructs(self, left, top, fault):
        body = [["v"] * top.leaf_count for _ in range(left.leaf_count)]
        if fault == "extra row":
            bad = body + [body[0]]
        elif fault == "missing row":
            bad = body[:-1]
        else:
            bad = body[:-1] + [body[-1][:-1]]
        with pytest.raises(TableError, match="^dimension mismatch: "):
            HierarchicalTable("", left, top, bad)
        table = HierarchicalTable("stub", left, top, body)
        assert parse_html_table(serialize_html(table)) == table


class TestClassification:
    def test_flat(self, flat_2x2):
        assert flat_2x2.is_flat

    def test_hierarchical(self, example_table):
        assert not example_table.is_flat

    @given(table=sts.tables())
    @settings(max_examples=60)
    def test_matches_depth_definition(self, table):
        assert table.is_flat == (table.left.depth == 1 and table.top.depth == 1)


class TestNestedSerialization:
    @given(tree=sts.coord_trees())
    @settings(max_examples=60)
    def test_to_nested_round_trip(self, tree):
        assert CoordTree.from_nested(tree.to_nested()) == tree

    def test_leaf_label_paths(self):
        tree = CoordTree.from_nested([("A", ["a1", "a2"]), "B"])
        assert label_paths(tree) == (("A", "a1"), ("A", "a2"), ("B",))
