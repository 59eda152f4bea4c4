"""Two-stage table generation: header structure first, then cell filling.

Stage one asks the chat model for the table's header skeleton (row-header
tree, column-header tree, dimensions) as an HTML fragment inside a fenced
block; it parses to a :class:`HierarchicalTable`, the skeleton, whose
shape the declared dimensions must match. That skeleton is the plan: its
body cells, walked by :func:`~doc2table.model.flatten_to_kv`, form one
row-major list of :class:`~doc2table.model.KeyValueTriple`, each carrying
its two leaf coordinates and their label paths. Stage two fills that list one
body row per prompt, with per-cell queries, sentence citations and unit
notes, and the answer is the skeleton with each fill reply's values as one
body row. Each stage gets at most :data:`MAX_RETRIES` retries with the
parse error appended to the prompt; a stage that runs out of retries, or
whose provider fails, raises :class:`StageFailure`, which the CLI turns
into one ``errors.jsonl`` row for that question only. One question's
calls run one after another on the thread that generates it; the CLI may
generate several questions at once (``RunConfig.parallel``).

A one-shot baseline (single prompt producing the whole table) is kept
for comparison runs: pass ``oneshot=True`` to :func:`run_tabtalk`, whose
keywords the CLI fills from ``RunConfig``.
"""
from __future__ import annotations

import json
import logging
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .html_io import parse_html_table
from .model import HierarchicalTable, KeyValueTriple, TableError, flatten_to_kv
from .providers import ChatProvider, ProviderError

logger = logging.getLogger(__name__)

MAX_RETRIES = 1  # per stage: one more prompt after a rejected reply


class ResponseParseError(RuntimeError):
    """The model reply could not be parsed or failed a check; worth one retry."""


class StageFailure(RuntimeError):
    """A stage exhausted its retries or its provider failed."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage} stage failed: {message}")
        self.stage = stage


@dataclass(frozen=True)
class CellFill:
    cell: KeyValueTriple
    sentence_ids: tuple[int, ...]
    value: str
    note: str | None = None
    filled: bool = True


@dataclass(frozen=True)
class FillTrace:
    records: tuple[CellFill, ...]

    @property
    def unfilled(self) -> tuple[CellFill, ...]:
        return tuple(r for r in self.records if not r.filled)


@dataclass
class TabTalkResult:
    table: HierarchicalTable
    trace: FillTrace
    structure_retries: int = 0
    fill_retries: int = 0


_FENCED_BLOCK = re.compile(r"```[a-zA-Z]*[ \t]*\n(.*?)```", re.DOTALL)
# From the first <table to the last </table>, in any letter case, as the HTML parser reads tags.
_TABLE_ELEMENT = re.compile(r"<table.*</table>", re.DOTALL | re.IGNORECASE)
_DIMENSIONS = re.compile(r"dimensions\s*:\s*(\d+)\s*[x×*]\s*(\d+)", re.IGNORECASE)


def extract_fenced_block(response: str) -> str:
    """Return the last fenced code block; prose around it is ignored."""
    blocks = _FENCED_BLOCK.findall(response)
    if not blocks:
        raise ResponseParseError("no fenced code block found in the reply")
    return blocks[-1]


def _parse_block_table(block: str, what: str) -> HierarchicalTable:
    """Parse the ``<table>`` element inside a fenced block."""
    element = _TABLE_ELEMENT.search(block)
    if element is None:
        raise ResponseParseError("no <table> element in the fenced block")
    try:
        return parse_html_table(element.group())
    except TableError as exc:
        raise ResponseParseError(f"{what} is not a usable table: {exc}") from exc


def _question_and_evidence(question: str, sentences: list[tuple[int, str]]) -> list[str]:
    """Every prompt's question block and numbered evidence block, each followed by a blank line."""
    numbered = "\n".join(f"{i + 1}. {text}" for i, (_, text) in enumerate(sentences))
    return ["Question:", question, "", "Evidence sentences:", numbered, ""]


def _path_str(path: tuple[str, ...]) -> str:
    return " > ".join(path)


def _query(cell: KeyValueTriple) -> str:
    """The question a fill prompt asks about one cell, from its row and column label paths."""
    return f"What is {_path_str(cell.top_key)} for {_path_str(cell.left_key)}?"


def build_structure_prompt(question: str, sentences: list[tuple[int, str]]) -> str:
    """Stage-one prompt: design the header skeleton, no values yet."""
    parts = [
        "You answer a question by designing a table. In this step you only design",
        "the table's structure; the cells are filled later.",
        "",
        *_question_and_evidence(question, sentences),
        "Think step by step before answering: list the separate pieces of",
        "information the question asks for, answer those sub-queries first, then",
        "build up to the main query and decide the complete layout, working from",
        "parts to the whole. Choose the row headers, the column headers and their",
        "nesting so that every asked-for fact has exactly one cell.",
        "",
        "Reply with exactly one fenced code block in this form:",
        "",
        "```table",
        "dimensions: <rows> x <columns>",
        "<table>",
        "<thead>",
        '<tr><th></th><th>column header</th></tr>',
        "</thead>",
        "<tbody>",
        "<tr><th>row header</th><td></td></tr>",
        "</tbody>",
        "</table>",
        "```",
        "",
        "Rules:",
        "- mark every header cell as <th> and every body cell as <td>",
        "- express nested headers with rowspan/colspan on <th> cells",
        "- leave every <td> empty",
        "- dimensions counts body rows x body columns and must match the skeleton",
    ]
    return "\n".join(parts)


def parse_structure_response(response: str) -> HierarchicalTable:
    """The stage-one header skeleton as a table, once its declared dimensions match its shape."""
    block = extract_fenced_block(response)
    dims = _DIMENSIONS.search(block)
    if not dims:
        raise ResponseParseError('no "dimensions: <rows> x <columns>" line in the fenced block')
    skeleton = _parse_block_table(block, "header skeleton")
    rows, cols = int(dims.group(1)), int(dims.group(2))
    n_left, n_top = skeleton.left.leaf_count, skeleton.top.leaf_count
    if (rows, cols) != (n_left, n_top):
        raise ResponseParseError(
            f"declared dimensions {rows} x {cols} do not match the "
            f"header skeleton ({n_left} row leaves, {n_top} column leaves)"
        )
    return skeleton


def build_fill_prompt(
    question: str, sentences: list[tuple[int, str]], batch: Sequence[KeyValueTriple]
) -> str:
    """Stage-two prompt: fill the given cells, citing evidence sentences."""
    cell_lines = [
        f"cell {i + 1}: row = {_path_str(cell.left_key)}; column = {_path_str(cell.top_key)}\n"
        f"  query: {_query(cell)}"
        for i, cell in enumerate(batch)
    ]
    parts = [
        "You fill specific body cells of a table that answers a question.",
        "",
        *_question_and_evidence(question, sentences),
        "Cells to fill:",
        "\n".join(cell_lines),
        "",
        "For each cell: answer its query from the evidence sentences only. Search",
        "the sentences, verify any numeric value against the sentence you cite,",
        "and perform unit conversions explicitly, describing them in \"note\".",
        "Cite the sentence numbers you used. If the evidence does not contain the",
        "value, use an empty string and cite nothing.",
        "",
        "Reply with exactly one fenced code block in this form:",
        "",
        "```json",
        '[{"cell": 1, "value": "<text>", "sentences": [1], "note": null}]',
        "```",
    ]
    return "\n".join(parts)


def parse_fill_response(
    response: str, batch: Sequence[KeyValueTriple], sentence_ids: list[int]
) -> list[CellFill]:
    """One record per batch cell, in batch order; absent cells are flagged unfilled.

    Citations are prompt-local numbers (1-based into the evidence list) and
    are mapped back to sentence ids; numbers outside the evidence list are
    dropped with a warning. A ``null`` value is the empty cell the prompt
    asks for, and ``true``/``false`` are not cell or sentence numbers. A
    ``sentences`` field that is neither a list nor ``null`` rejects the reply.
    """
    block = extract_fenced_block(response)
    try:
        entries = json.loads(block)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ResponseParseError(f"fenced block is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ResponseParseError("fenced JSON must be a list of cell objects")

    by_number: dict[int, dict] = {}
    for entry in entries:
        if isinstance(entry, dict) and type(entry.get("cell")) is int:
            by_number[entry["cell"]] = entry

    records: list[CellFill] = []
    for i, cell in enumerate(batch):
        entry = by_number.get(i + 1)
        if entry is None:
            logger.warning("cell %d missing from fill reply; left unfilled", i + 1)
            records.append(CellFill(cell, (), "", None, filled=False))
            continue
        numbers = entry.get("sentences")
        if numbers is not None and not isinstance(numbers, list):
            raise ResponseParseError(
                f'"sentences" of cell {i + 1} must be a list of sentence numbers or null'
            )
        cited: list[int] = []
        for number in numbers or []:
            if type(number) is int and 1 <= number <= len(sentence_ids):
                cited.append(sentence_ids[number - 1])
            else:
                logger.warning(
                    "dropping citation %r for cell %d: outside the retrieved set", number, i + 1
                )
        note = entry.get("note")
        value = entry.get("value")
        records.append(
            CellFill(
                cell,
                tuple(cited),
                "" if value is None else str(value),
                note if isinstance(note, str) and note else None,
            )
        )
    return records


def build_oneshot_prompt(question: str, sentences: list[tuple[int, str]]) -> str:
    """Single-prompt baseline: produce the complete table in one go."""
    parts = [
        "Answer the question with a complete HTML table built from the evidence.",
        "",
        *_question_and_evidence(question, sentences),
        "Mark header cells as <th> (with rowspan/colspan for nesting) and body",
        "cells as <td>. Reply with exactly one fenced code block:",
        "",
        "```table",
        "<table>...</table>",
        "```",
    ]
    return "\n".join(parts)


def _retry_prompt(prompt: str, error: Exception) -> str:
    return (
        prompt
        + "\n\nYour previous reply could not be used: "
        + str(error)
        + "\nReply again with only the required fenced block, following the format exactly."
    )


def _complete_with_retry(chat: ChatProvider, prompt: str, parse, stage: str):
    """Complete and parse, retrying rejected replies; provider errors are not retried.

    The HTTP backend already retries transient failures, and a replay miss
    never heals, so a :class:`ProviderError` fails the stage at once.
    """
    retries = 0
    current = prompt
    while True:
        try:
            response = chat.complete([{"role": "user", "content": current}])
        except ProviderError as exc:
            raise StageFailure(stage, str(exc)) from exc
        try:
            return parse(response), retries
        except ResponseParseError as exc:
            if retries >= MAX_RETRIES:
                raise StageFailure(stage, str(exc)) from exc
            retries += 1
            logger.warning("%s stage reply rejected (%s); retrying", stage, exc)
            current = _retry_prompt(prompt, exc)


def run_tabtalk(
    question: str,
    sentences: list[tuple[int, str]],
    chat: ChatProvider,
    *,
    oneshot: bool = False,
) -> TabTalkResult:
    """Run the full generation stage over retrieved sentences.

    ``sentences`` are (sentence_id, raw text) pairs in retrieval order; the
    prompt numbers them 1..n and citations are mapped back to the ids.
    The parsed header skeleton is the plan and, with the fill values as its
    body, the answer. Each fill prompt covers one body row, and the rows are
    filled one after another, so their records come in cell order. A run may
    generate several questions at once, each on its own thread; one
    question's calls never overlap. Each stage gets at most
    :data:`MAX_RETRIES` retries.
    """
    if oneshot:
        return _run_oneshot(question, sentences, chat)

    prompt = build_structure_prompt(question, sentences)
    skeleton, structure_retries = _complete_with_retry(
        chat, prompt, parse_structure_response, "structure"
    )

    cells = flatten_to_kv(skeleton)
    n_cols = skeleton.top.leaf_count
    batches = [cells[i : i + n_cols] for i in range(0, len(cells), n_cols)]
    sentence_ids = [sid for sid, _ in sentences]

    results = [
        _complete_with_retry(
            chat,
            build_fill_prompt(question, sentences, batch),
            lambda resp, batch=batch: parse_fill_response(resp, batch, sentence_ids),
            "fill",
        )
        for batch in batches
    ]
    trace = FillTrace(tuple(r for fragment, _ in results for r in fragment))
    body = tuple(tuple(r.value for r in fragment) for fragment, _ in results)
    table = replace(skeleton, body=body)
    return TabTalkResult(table, trace, structure_retries, sum(n for _, n in results))


def _run_oneshot(
    question: str, sentences: list[tuple[int, str]], chat: ChatProvider
) -> TabTalkResult:
    prompt = build_oneshot_prompt(question, sentences)
    table, retries = _complete_with_retry(
        chat,
        prompt,
        lambda resp: _parse_block_table(extract_fenced_block(resp), "reply"),
        "oneshot",
    )
    records = tuple(CellFill(cell, (), cell.value) for cell in flatten_to_kv(table))
    return TabTalkResult(table, FillTrace(records), retries, 0)


def trace_to_dict(table: HierarchicalTable, trace: FillTrace) -> dict:
    """JSON-ready run artifacts: the answer's header skeleton (the plan) and its fill trace."""
    return {
        "plan": {
            "stub_header": table.stub_header,
            "left": table.left.to_nested(),
            "top": table.top.to_nested(),
            "rows": table.left.leaf_count,
            "cols": table.top.leaf_count,
        },
        "cells": [
            {
                "left": list(record.cell.left_coord),
                "top": list(record.cell.top_coord),
                "query": _query(record.cell),
                "sentences": list(record.sentence_ids),
                "value": record.value,
                "note": record.note,
                "filled": record.filled,
            }
            for record in trace.records
        ],
    }
