"""Ordered-tree edit distance and the structure-similarity score built on it.

The distance is the classic Zhang–Shasha dynamic program over postorder
node numbering with unit insert/delete costs and a 0/1 relabel cost
(0 iff the normalized labels are equal). The program runs only for pairs
of key roots that both have children: a leaf key root's distances have a
closed form, and equal trees are at distance 0 without it.

Structure similarity compares header trees only: both coordinate trees of
a table hang under a synthetic root so one number reflects both regions,
and body content never leaks into the structural score. Each tree is walked
once, into postorder arrays whose length is the tree's size in the score.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import HeaderNode, HierarchicalTable

ROOT_SENTINEL = "[table]"
LEFT_SENTINEL = "[rows]"
TOP_SENTINEL = "[columns]"


def structure_tree(table: HierarchicalTable) -> HeaderNode:
    """Combined header tree: sentinel root over the left and top trees.

    Node count is always 3 + left nodes + top nodes.
    """
    return HeaderNode(
        ROOT_SENTINEL,
        (
            HeaderNode(LEFT_SENTINEL, table.left.roots),
            HeaderNode(TOP_SENTINEL, table.top.roots),
        ),
    )


@dataclass
class _PostOrder:
    """Postorder arrays for the Zhang–Shasha dynamic program."""

    labels: list[str]
    lml: list[int]  # index of the leftmost leaf descendant, per node
    parent: list[int]  # index of the parent, -1 at the root
    keyroots: list[int]

    @classmethod
    def build(cls, root: HeaderNode) -> _PostOrder:
        labels: list[str] = []
        lml: list[int] = []
        parent: list[int] = []

        def walk(node: HeaderNode) -> int:
            children = [walk(child) for child in node.children]
            index = len(labels)
            labels.append(node.label)
            lml.append(lml[children[0]] if children else index)
            parent.append(-1)
            for child in children:
                parent[child] = index
            return index

        walk(root)
        seen: set[int] = set()
        keyroots = []
        for i in range(len(labels) - 1, -1, -1):
            if lml[i] not in seen:
                keyroots.append(i)
                seen.add(lml[i])
        keyroots.reverse()
        return cls(labels, lml, parent, keyroots)

    @cached_property
    def sizes(self) -> list[int]:
        """Node count of the subtree rooted at each node."""
        return [index - first + 1 for index, first in enumerate(self.lml)]

    @cached_property
    def occurrences(self) -> dict[str, list[int]]:
        """Postorder indices of each label."""
        where: dict[str, list[int]] = {}
        for index, label in enumerate(self.labels):
            where.setdefault(label, []).append(index)
        return where


def tree_edit_distance(a: HeaderNode, b: HeaderNode) -> int:
    """Minimum number of node inserts, deletes and relabels turning a into b."""
    return _distance(_PostOrder.build(a), _PostOrder.build(b))


def _distance(ta: _PostOrder, tb: _PostOrder) -> int:
    """Zhang–Shasha over the key-root pairs whose key roots both have children.

    Equal postorder arrays are equal trees, at distance 0. A key root that
    is a leaf is one node, and the dynamic program would give its distance
    to every subtree of the other tree: the subtree's size, less one where
    the node's label occurs in it (the node maps to that occurrence and the
    rest is inserted). Those rows and columns of ``td`` are filled in that
    closed form first; every other pair reads them as the program would.
    """
    if ta.labels == tb.labels and ta.lml == tb.lml:
        return 0
    n, m = len(ta.labels), len(tb.labels)
    td = [[0] * m for _ in range(n)]
    for i in ta.keyroots:
        if ta.lml[i] == i:
            td[i] = _single_node_distances(ta.labels[i], tb)
    for j in tb.keyroots:
        if tb.lml[j] == j:
            for row, cost in zip(td, _single_node_distances(tb.labels[j], ta)):
                row[j] = cost

    for i in ta.keyroots:
        if ta.lml[i] != i:
            for j in tb.keyroots:
                if tb.lml[j] != j:
                    _forest_distance(ta, tb, i, j, td)
    return td[n - 1][m - 1]


def _single_node_distances(label: str, tree: _PostOrder) -> list[int]:
    """Edit distance from one node labelled ``label`` to each subtree of ``tree``.

    A subtree holds ``label`` exactly when it is rooted at an occurrence of
    the label or at one of that occurrence's ancestors.
    """
    costs = list(tree.sizes)
    holders = set()
    for index in tree.occurrences.get(label, ()):
        while index != -1 and index not in holders:
            holders.add(index)
            costs[index] -= 1
            index = tree.parent[index]
    return costs


def _forest_distance(ta: _PostOrder, tb: _PostOrder, i: int, j: int, td: list[list[int]]) -> None:
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


def teds(a: HierarchicalTable, b: HierarchicalTable) -> float:
    """Structure similarity in [0, 1]: 1 - distance / max tree size.

    Sibling-order and ancestry constraints can make the edit distance
    exceed the larger tree's node count for heavily disjoint shapes, which
    would push the raw formula below zero; the score is clamped at 0 so
    the documented [0, 1] range always holds.
    """
    ta = _PostOrder.build(structure_tree(a))
    tb = _PostOrder.build(structure_tree(b))
    return max(0.0, 1.0 - _distance(ta, tb) / max(len(ta.labels), len(tb.labels)))

