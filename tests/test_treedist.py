from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doc2table.model import CoordTree, HeaderNode, HierarchicalTable
from doc2table.treedist import (
    LEFT_SENTINEL,
    ROOT_SENTINEL,
    TOP_SENTINEL,
    structure_tree,
    teds,
    tree_edit_distance,
)

import strategies as sts
from conftest import make_flat_table
from oracles import _postorder, brute_tree_edit_distance, reference_tree_distance


# Two-letter labels, so that equal labels and free relabels both occur often.
_small_nodes = st.recursive(
    st.builds(HeaderNode, st.sampled_from("ab")),
    lambda children: st.builds(
        HeaderNode, st.sampled_from("ab"), st.lists(children, min_size=1, max_size=2).map(tuple)
    ),
    max_leaves=3,
)
_small_trees = st.lists(_small_nodes, min_size=1, max_size=2).map(lambda roots: CoordTree(tuple(roots)))


def header_only_table(left: CoordTree, top: CoordTree) -> HierarchicalTable:
    return HierarchicalTable("", left, top, (("",) * top.leaf_count,) * left.leaf_count)


# Three labels, so that a label often occurs in the other tree more than once.
_abc = st.sampled_from("abc")
_abc_nodes = st.recursive(
    st.builds(HeaderNode, _abc),
    lambda children: st.builds(
        HeaderNode, _abc, st.lists(children, min_size=1, max_size=4).map(tuple)
    ),
    max_leaves=12,
)


@st.composite
def relabeled(draw, node: HeaderNode) -> HeaderNode:
    """``node``'s shape with each label kept or redrawn."""
    label = draw(_abc) if draw(st.booleans()) else node.label
    return HeaderNode(label, tuple(draw(relabeled(child)) for child in node.children))


@st.composite
def chains(draw) -> HeaderNode:
    labels = draw(st.lists(_abc, min_size=1, max_size=15))
    node = HeaderNode(labels[0])
    for label in labels[1:]:
        node = HeaderNode(label, (node,))
    return node


@st.composite
def flat_structure_trees(draw) -> HeaderNode:
    """The structure tree of a table whose two headers are flat: leaf-only forests."""
    left, top = (
        CoordTree(tuple(map(HeaderNode, draw(st.lists(_abc, min_size=1, max_size=8)))))
        for _ in range(2)
    )
    return structure_tree(header_only_table(left, top))


@st.composite
def tree_pairs(draw) -> tuple[HeaderNode, HeaderNode]:
    """Two trees: random, identical, one relabeled from the other, two leaf-only
    forests, or chains against chains and random trees."""
    kind = draw(st.sampled_from(["random", "identical", "relabeled", "flat", "chain"]))
    if kind == "flat":
        return draw(flat_structure_trees()), draw(flat_structure_trees())
    if kind == "chain":
        return draw(chains()), draw(chains() | _abc_nodes)
    a = draw(_abc_nodes)
    if kind == "random":
        return a, draw(_abc_nodes)
    return a, a if kind == "identical" else draw(relabeled(a))


def relabeled_row_pair(groups: int, rows_per_group: int) -> tuple[HeaderNode, HeaderNode]:
    """Structure trees of a 12-column table with ``groups`` x ``rows_per_group`` rows
    (flat when ``groups`` is 0) and of its copy with every third row label changed."""
    def left(suffix: str) -> CoordTree:
        def rows(prefix: str, count: int) -> list[str]:
            return [f"{prefix}{i}{suffix if i % 3 == 0 else ''}" for i in range(count)]

        if not groups:
            return CoordTree.from_nested(rows("row ", rows_per_group))
        return CoordTree.from_nested(
            [(f"group {g}", rows(f"row {g}.", rows_per_group)) for g in range(groups)]
        )

    top = CoordTree.from_nested([f"col {j}" for j in range(12)])
    a, b = (header_only_table(left(suffix), top) for suffix in ("", " (restated)"))
    return structure_tree(a), structure_tree(b)


def small_tree_pair(seed: int) -> tuple[HeaderNode, HeaderNode]:
    rng = random.Random(seed)
    shapes = sts.all_tree_shapes(6)
    a = sts.label_shape(rng.choice(shapes), ["a", "b", "c"], rng.randrange(3))
    b = sts.label_shape(rng.choice(shapes), ["a", "b", "c"], rng.randrange(3))
    return a, b


class TestTreeEditDistance:
    def test_identical_trees_zero(self):
        tree = HeaderNode("r", (HeaderNode("a"), HeaderNode("b", (HeaderNode("c"),))))
        assert tree_edit_distance(tree, tree) == 0

    def test_single_relabel_costs_one(self):
        a = HeaderNode("r", (HeaderNode("a"), HeaderNode("b", (HeaderNode("c"), HeaderNode("d")))))
        b = HeaderNode("r", (HeaderNode("a"), HeaderNode("X", (HeaderNode("c"), HeaderNode("d")))))
        assert tree_edit_distance(a, b) == 1

    def test_single_insert_costs_one(self):
        a = HeaderNode("r", (HeaderNode("a"),))
        b = HeaderNode("r", (HeaderNode("a"), HeaderNode("b")))
        assert tree_edit_distance(a, b) == 1

    def test_same_postorder_labels_in_another_shape(self):
        # both list a, b, c in postorder; only the leftmost-leaf arrays differ
        star = HeaderNode("c", (HeaderNode("a"), HeaderNode("b")))
        chain = HeaderNode("c", (HeaderNode("b", (HeaderNode("a"),)),))
        assert tree_edit_distance(star, chain) == brute_tree_edit_distance(star, chain) == 2

    def test_chain_versus_star(self):
        chain = HeaderNode("a", (HeaderNode("b", (HeaderNode("c"),)),))
        star = HeaderNode("a", (HeaderNode("b"), HeaderNode("c")))
        assert tree_edit_distance(chain, star) == brute_tree_edit_distance(chain, star)

    def test_matches_oracle_on_seeded_pairs(self):
        for seed in range(300):
            a, b = small_tree_pair(seed)
            assert tree_edit_distance(a, b) == brute_tree_edit_distance(a, b)

    @given(a=sts.header_nodes(max_depth=3), b=sts.header_nodes(max_depth=3))
    @settings(max_examples=80)
    def test_matches_oracle_on_random_trees(self, a, b):
        if len(_postorder(a)[0]) > 6 or len(_postorder(b)[0]) > 6:
            return
        assert tree_edit_distance(a, b) == brute_tree_edit_distance(a, b)

    @given(pair=tree_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_zhang_shasha_program(self, pair):
        a, b = pair
        assert tree_edit_distance(a, b) == reference_tree_distance(a, b)

    @given(pair=tree_pairs())
    @settings(max_examples=150, deadline=None)
    def test_equals_exhaustive_search_on_small_trees(self, pair):
        a, b = pair
        assume(len(_postorder(a)[0]) <= 7 and len(_postorder(b)[0]) <= 7)
        assert tree_edit_distance(a, b) == brute_tree_edit_distance(a, b)

    @pytest.mark.parametrize(
        "groups, rows_per_group", [(0, 400), (20, 20)], ids=["flat-400", "groups-20x20"]
    )
    def test_large_relabeled_pair_equals_the_full_program(self, groups, rows_per_group):
        a, b = relabeled_row_pair(groups, rows_per_group)
        relabels = sum(x != y for x, y in zip(_postorder(a)[0], _postorder(b)[0]))
        assert tree_edit_distance(a, b) == reference_tree_distance(a, b) == relabels

    def test_metric_properties_on_random_triples(self):
        for seed in range(80):
            rng = random.Random(1000 + seed)
            shapes = sts.all_tree_shapes(5)
            trees = [
                sts.label_shape(rng.choice(shapes), ["a", "b"], rng.randrange(2))
                for _ in range(3)
            ]
            a, b, c = trees
            dab = tree_edit_distance(a, b)
            assert dab == tree_edit_distance(b, a)  # symmetry
            assert (dab == 0) == (a == b)  # identity of indiscernibles
            assert tree_edit_distance(a, c) <= dab + tree_edit_distance(b, c)  # triangle


class TestStructureTree:
    def test_sentinel_skeleton_and_node_count(self, example_table):
        tree = structure_tree(example_table)
        assert tree.label == ROOT_SENTINEL
        assert [c.label for c in tree.children] == [LEFT_SENTINEL, TOP_SENTINEL]
        # Three sentinels, left tree 3 roots + 5 leaves, top tree 3 roots + 6 leaves.
        assert len(_postorder(tree)[0]) == 3 + 8 + 9


class TestTeds:
    def test_identity(self, example_table, flat_2x2):
        assert teds(example_table, example_table) == 1.0
        assert teds(flat_2x2, flat_2x2) == 1.0

    def test_one_relabel_on_3x3_flat(self):
        # Structure trees have 3 sentinels + 3 + 3 = 9 nodes; one renamed
        # header is one edit, so the score is 1 - 1/9.
        a = make_flat_table(3, 3)
        b = HierarchicalTable(
            a.stub_header,
            CoordTree.from_nested(["r0", "r1", "CHANGED"]),
            a.top,
            a.body,
        )
        distance = brute_tree_edit_distance(structure_tree(a), structure_tree(b))
        assert distance == 1
        assert teds(a, b) == pytest.approx(1 - 1 / 9)

    def test_disjoint_single_headers_share_sentinels(self):
        a = HierarchicalTable(
            "", CoordTree.from_nested(["A"]), CoordTree.from_nested(["B"]), (("1",),)
        )
        b = HierarchicalTable(
            "", CoordTree.from_nested(["X"]), CoordTree.from_nested(["Y"]), (("2",),)
        )
        distance = brute_tree_edit_distance(structure_tree(a), structure_tree(b))
        assert distance == 2  # two relabels inside the shared 5-node skeleton
        score = teds(a, b)
        assert score == pytest.approx(1 - distance / 5)
        assert score > 0.0

    def test_body_content_never_affects_score(self, flat_2x2):
        other = HierarchicalTable(
            flat_2x2.stub_header, flat_2x2.left, flat_2x2.top, (("x", "y"), ("z", "w"))
        )
        assert teds(flat_2x2, other) == 1.0

    @given(a_left=_small_trees, a_top=_small_trees, b_left=_small_trees, b_top=_small_trees)
    @settings(max_examples=100)
    def test_equals_the_formula_over_the_oracle_distance(self, a_left, a_top, b_left, b_top):
        a, b = header_only_table(a_left, a_top), header_only_table(b_left, b_top)
        sa, sb = structure_tree(a), structure_tree(b)
        size_a, size_b = len(_postorder(sa)[0]), len(_postorder(sb)[0])
        assume(size_a <= 8 and size_b <= 8)
        distance = brute_tree_edit_distance(sa, sb)
        assert teds(a, b) == max(0.0, 1.0 - distance / max(size_a, size_b))

    @given(a=sts.tables(), b=sts.tables())
    @settings(max_examples=60)
    def test_bounds(self, a, b):
        score = teds(a, b)
        assert 0.0 <= score <= 1.0

    @given(table=sts.tables())
    @settings(max_examples=60)
    def test_self_similarity_is_one(self, table):
        assert teds(table, table) == 1.0
