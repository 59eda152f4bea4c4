"""doc2table: answer questions over long documents with hierarchical tables.

The pipeline retrieves relevant sentences (question decomposition,
rewriting, embedding cosine top-K), generates a table in two stages
(header structure, then cell filling) through pluggable chat providers
with record/replay, and evaluates results deterministically (tree-edit
structure similarity, key-value content similarity with chrF, recall@K).
"""

from .html_io import parse_html_table, serialize_html
from .metrics import chrf, content_similarity, recall_at_k, table_scores
from .model import (
    CoordTree,
    HeaderNode,
    HierarchicalTable,
    KeyValueTriple,
    TreeCoord,
    flatten_to_kv,
    leaf_coords,
)
from .treedist import structure_tree, teds, tree_edit_distance

__all__ = [
    "CoordTree",
    "HeaderNode",
    "HierarchicalTable",
    "KeyValueTriple",
    "TreeCoord",
    "chrf",
    "content_similarity",
    "flatten_to_kv",
    "leaf_coords",
    "parse_html_table",
    "recall_at_k",
    "serialize_html",
    "structure_tree",
    "table_scores",
    "teds",
    "tree_edit_distance",
]
