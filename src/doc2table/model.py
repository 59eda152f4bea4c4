"""Data model for hierarchical tables addressed by paired header-tree coordinates.

A table is a stub header, an ordered tree of row-header cells (the *left*
tree), an ordered tree of column-header cells (the *top* tree), and a dense
body grid. Leaves of the left tree correspond 1:1 with body rows, leaves of
the top tree with body columns, so every body cell has exactly one pair of
tree coordinates and every cell can be flattened to a key-value triple
(row label path, column label path, cell text). A body cell's row and
column are its two leaves' positions in :attr:`CoordTree.leaves`, the
tree's one preorder walk. Every bad table, whether a model that breaks
these rules or HTML that does not parse into one, raises :class:`TableError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


def normalize_text(text: str) -> str:
    """Collapse whitespace runs to single spaces and strip the ends.

    Case is preserved. This is the one normalization applied to header
    labels, stub text and body cells, so "61, 276" and "61,  276" compare
    equal while "61,276" stays distinct.
    """
    return " ".join(text.split())


class TableError(ValueError):
    """A table that breaks the model's construction rules or does not parse into it."""


@dataclass(frozen=True)
class HeaderNode:
    """One header cell: a normalized label plus ordered children."""

    label: str
    children: tuple[HeaderNode, ...] = ()

    def __post_init__(self) -> None:
        norm = normalize_text(self.label)
        if not norm:
            raise TableError("header label is empty after normalization")
        object.__setattr__(self, "label", norm)
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class CoordTree:
    """Ordered forest of header cells; child order is significant."""

    roots: tuple[HeaderNode, ...]

    def __post_init__(self) -> None:
        roots = tuple(self.roots)
        if not roots:
            raise TableError("coordinate tree needs at least one root node")
        object.__setattr__(self, "roots", roots)

    @classmethod
    def from_nested(cls, spec) -> CoordTree:
        """Build a tree from a literal-friendly nested form.

        Each entry is either a label string (a leaf) or a
        ``(label, [children...])`` pair. Example::

            CoordTree.from_nested([("Incidence", ["Males", "Females"]), "Total"])
        """

        def build(entry) -> HeaderNode:
            if isinstance(entry, str):
                return HeaderNode(entry)
            label, children = entry
            return HeaderNode(label, tuple(build(c) for c in children))

        return cls(tuple(build(e) for e in spec))

    def to_nested(self):
        """Inverse of :meth:`from_nested` (children as lists, JSON-friendly)."""

        def dump(node: HeaderNode):
            if node.is_leaf:
                return node.label
            return [node.label, [dump(c) for c in node.children]]

        return [dump(r) for r in self.roots]

    def _walk_leaves(self) -> tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]:
        """(coordinate, label path) of every leaf, left to right (preorder).

        A coordinate is the 0-based child-index path from the root level
        down. This is the tree's one walk, run once per tree as :attr:`leaves`.
        """

        def walk(nodes: tuple[HeaderNode, ...], path: tuple[int, ...], labels: tuple[str, ...]):
            for i, node in enumerate(nodes):
                coord, names = path + (i,), labels + (node.label,)
                if node.is_leaf:
                    yield coord, names
                else:
                    yield from walk(node.children, coord, names)

        return tuple(walk(self.roots, (), ()))

    leaves = cached_property(_walk_leaves)

    @property
    def depth(self) -> int:
        """Header levels: the length of the longest leaf coordinate."""
        return max(len(coord) for coord, _ in self.leaves)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


class KeyValueTriple(NamedTuple):
    """A body cell: row and column label paths, text, and row and column leaf coordinates."""

    left_key: tuple[str, ...]
    top_key: tuple[str, ...]
    value: str
    left_coord: tuple[int, ...]
    top_coord: tuple[int, ...]


@dataclass(frozen=True)
class HierarchicalTable:
    """Stub header + left/top coordinate trees + dense body grid.

    Construction normalizes text and raises :class:`TableError`, naming
    every mismatch, unless the body has one row per left leaf and one cell
    per top leaf in every row. Repeated key paths (e.g. two "Total" rows)
    are allowed, since real tables have them.
    """

    stub_header: str
    left: CoordTree
    top: CoordTree
    body: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stub_header", normalize_text(self.stub_header))
        body = tuple(tuple(normalize_text(c) for c in row) for row in self.body)
        object.__setattr__(self, "body", body)
        n_left = self.left.leaf_count
        n_top = self.top.leaf_count
        errors = []
        if len(body) != n_left:
            errors.append(
                f"dimension mismatch: body has {len(body)} rows, left tree has {n_left} leaves"
            )
        errors += [
            f"dimension mismatch: body row {i} has {len(row)} cells, top tree has {n_top} leaves"
            for i, row in enumerate(body)
            if len(row) != n_top
        ]
        if errors:
            raise TableError("; ".join(errors))

    @property
    def is_flat(self) -> bool:
        """True iff both header trees are single-level."""
        return self.left.depth == 1 and self.top.depth == 1


def flatten_to_kv(table: HierarchicalTable) -> tuple[KeyValueTriple, ...]:
    """One triple per body cell in row-major order: the one body-cell walk.

    Keys are the label paths of the cell's leaf coordinates; the stub
    header never appears in a key.
    """
    return tuple(
        KeyValueTriple(left_path, top_path, value, left_coord, top_coord)
        for (left_coord, left_path), row in zip(table.left.leaves, table.body)
        for (top_coord, top_path), value in zip(table.top.leaves, row)
    )
