"""doc2table: answer questions over long documents with hierarchical tables.

The pipeline retrieves relevant sentences (question decomposition,
rewriting, embedding cosine top-K), generates a table in two stages
(header structure, then cell filling) through pluggable chat providers
with record/replay, and evaluates results deterministically (tree-edit
structure similarity, key-value content similarity with chrF, recall@K).
"""
