"""Two-stage table generation: header structure first, then cell filling.

Stage one asks the chat model for the table's header skeleton (row-header
tree, column-header tree, dimensions) as an HTML fragment inside a fenced
block, verified against the declared dimensions. Stage two fills body
cells batch by batch with per-cell queries, sentence citations and unit
notes, then the table is assembled and validated. Each stage gets at most
one retry with the parse/verification error appended to the prompt.

A one-shot baseline (single prompt producing the whole table) is kept
for comparison runs: pass ``oneshot=True`` to :func:`run_tabtalk`, which
takes all its settings as keywords that the CLI fills from ``RunConfig``.
"""
from __future__ import annotations

import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .html_io import TableInputError, TableStructureError, parse_html_table
from .model import (
    CoordTree,
    HierarchicalTable,
    TableModelError,
    TreeCoord,
    leaf_coords,
    resolve_coord,
    validate,
)
from .providers import ChatProvider

logger = logging.getLogger(__name__)


class GenerationError(RuntimeError):
    pass


class ResponseParseError(GenerationError):
    """The model reply could not be parsed; worth one retry."""


class PlanVerificationError(GenerationError):
    """The reply parsed but failed a verification gate; worth one retry."""


class AssemblyError(GenerationError):
    """The fill trace cannot be assembled into a valid table."""


class StageFailure(GenerationError):
    """A stage exhausted its retries; carries partial artifacts."""

    def __init__(self, stage: str, message: str, partial: dict):
        super().__init__(f"{stage} stage failed: {message}")
        self.stage = stage
        self.partial = partial


@dataclass(frozen=True)
class StructurePlan:
    left: CoordTree
    top: CoordTree
    stub_header: str
    rows: int
    cols: int

    def verify(self) -> None:
        n_left = self.left.leaf_count
        n_top = self.top.leaf_count
        if (self.rows, self.cols) != (n_left, n_top):
            raise PlanVerificationError(
                f"declared dimensions {self.rows} x {self.cols} do not match the "
                f"header skeleton ({n_left} row leaves, {n_top} column leaves)"
            )


@dataclass(frozen=True)
class CellFill:
    left_coord: TreeCoord
    top_coord: TreeCoord
    query: str
    sentence_ids: tuple[int, ...]
    value: str
    note: str | None = None
    filled: bool = True


@dataclass(frozen=True)
class FillTrace:
    records: tuple[CellFill, ...]

    def by_coords(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], CellFill]:
        index: dict[tuple[tuple[int, ...], tuple[int, ...]], CellFill] = {}
        for record in self.records:
            key = (record.left_coord.path, record.top_coord.path)
            if key in index:
                raise AssemblyError(f"duplicate fill record for coordinates {key}")
            index[key] = record
        return index

    @property
    def unfilled(self) -> tuple[CellFill, ...]:
        return tuple(r for r in self.records if not r.filled)


@dataclass
class TabTalkResult:
    table: HierarchicalTable
    plan: StructurePlan
    trace: FillTrace
    structure_retries: int = 0
    fill_retries: int = 0


_FENCED_BLOCK = re.compile(r"```[a-zA-Z]*[ \t]*\n(.*?)```", re.DOTALL)
_DIMENSIONS = re.compile(r"dimensions\s*:\s*(\d+)\s*[x×*]\s*(\d+)", re.IGNORECASE)


def extract_fenced_block(response: str) -> str:
    """Return the last fenced code block; prose around it is ignored."""
    blocks = _FENCED_BLOCK.findall(response)
    if not blocks:
        raise ResponseParseError("no fenced code block found in the reply")
    return blocks[-1]


def _numbered(sentences: list[tuple[int, str]]) -> str:
    return "\n".join(f"{i + 1}. {text}" for i, (_, text) in enumerate(sentences))


def _path_str(path: tuple[str, ...]) -> str:
    return " > ".join(path)


def cell_query(left_path: tuple[str, ...], top_path: tuple[str, ...]) -> str:
    return f"What is {_path_str(top_path)} for {_path_str(left_path)}?"


def build_structure_prompt(
    question: str,
    sentences: list[tuple[int, str]],
    exemplar: tuple[str, str] | None = None,
) -> str:
    """Stage-one prompt: design the header skeleton, no values yet."""
    if not sentences:
        raise ValueError("at least one evidence sentence is required")
    parts = [
        "You answer a question by designing a table. In this step you only design",
        "the table's structure; the cells are filled later.",
        "",
        "Question:",
        question,
        "",
        "Evidence sentences:",
        _numbered(sentences),
        "",
    ]
    if exemplar is not None:
        ex_question, ex_table = exemplar
        parts += [
            "Worked example.",
            "Example question:",
            ex_question,
            "Example table:",
            ex_table,
            "",
        ]
    parts += [
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


def parse_structure_response(response: str) -> StructurePlan:
    """Extract and verify the stage-one header skeleton."""
    block = extract_fenced_block(response)
    dims = _DIMENSIONS.search(block)
    if not dims:
        raise ResponseParseError('no "dimensions: <rows> x <columns>" line in the fenced block')
    start = block.find("<table")
    end = block.rfind("</table>")
    if start == -1 or end == -1:
        raise ResponseParseError("no <table> element in the fenced block")
    try:
        skeleton = parse_html_table(block[start : end + len("</table>")])
    except (TableInputError, TableStructureError, TableModelError) as exc:
        raise ResponseParseError(f"header skeleton is not a usable table: {exc}") from exc
    plan = StructurePlan(
        left=skeleton.left,
        top=skeleton.top,
        stub_header=skeleton.stub_header,
        rows=int(dims.group(1)),
        cols=int(dims.group(2)),
    )
    plan.verify()
    return plan


def build_fill_prompt(
    plan: StructurePlan,
    question: str,
    sentences: list[tuple[int, str]],
    batch: list[tuple[TreeCoord, TreeCoord]],
) -> str:
    """Stage-two prompt: fill the given cells, citing evidence sentences."""
    cell_lines = []
    for i, (left_coord, top_coord) in enumerate(batch):
        left_path = resolve_coord(plan.left, left_coord)  # raises on invalid coords
        top_path = resolve_coord(plan.top, top_coord)
        cell_lines.append(
            f"cell {i + 1}: row = {_path_str(left_path)}; column = {_path_str(top_path)}\n"
            f"  query: {cell_query(left_path, top_path)}"
        )
    parts = [
        "You fill specific body cells of a table that answers a question.",
        "",
        "Question:",
        question,
        "",
        "Evidence sentences:",
        _numbered(sentences),
        "",
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
    response: str,
    plan: StructurePlan,
    batch: list[tuple[TreeCoord, TreeCoord]],
    sentence_ids: list[int],
) -> list[CellFill]:
    """Per-cell extraction; absent cells are flagged unfilled.

    Citations are prompt-local numbers (1-based into the evidence list) and
    are mapped back to sentence ids; numbers outside the evidence list are
    dropped with a warning.
    """
    block = extract_fenced_block(response)
    try:
        entries = json.loads(block)
    except json.JSONDecodeError as exc:
        raise ResponseParseError(f"fenced block is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ResponseParseError("fenced JSON must be a list of cell objects")

    by_number: dict[int, dict] = {}
    for entry in entries:
        if isinstance(entry, dict) and isinstance(entry.get("cell"), int):
            by_number[entry["cell"]] = entry

    records: list[CellFill] = []
    for i, (left_coord, top_coord) in enumerate(batch):
        left_path = resolve_coord(plan.left, left_coord)
        top_path = resolve_coord(plan.top, top_coord)
        query = cell_query(left_path, top_path)
        entry = by_number.get(i + 1)
        if entry is None:
            logger.warning("cell %d missing from fill reply; left unfilled", i + 1)
            records.append(CellFill(left_coord, top_coord, query, (), "", None, filled=False))
            continue
        cited: list[int] = []
        for number in entry.get("sentences") or []:
            if isinstance(number, int) and 1 <= number <= len(sentence_ids):
                cited.append(sentence_ids[number - 1])
            else:
                logger.warning(
                    "dropping citation %r for cell %d: outside the retrieved set", number, i + 1
                )
        note = entry.get("note")
        records.append(
            CellFill(
                left_coord,
                top_coord,
                query,
                tuple(cited),
                str(entry.get("value", "")),
                note if isinstance(note, str) and note else None,
                filled=True,
            )
        )
    return records


def assemble_table(plan: StructurePlan, trace: FillTrace) -> HierarchicalTable:
    """Build the final table; every cell must have a record (unfilled is fine)."""
    index = trace.by_coords()
    left_cs = leaf_coords(plan.left)
    top_cs = leaf_coords(plan.top)
    missing = [
        (lc.path, tc.path)
        for lc in left_cs
        for tc in top_cs
        if (lc.path, tc.path) not in index
    ]
    if missing:
        raise AssemblyError(f"fill trace has no record for coordinates: {missing}")
    body = tuple(
        tuple(index[(lc.path, tc.path)].value for tc in top_cs) for lc in left_cs
    )
    table = HierarchicalTable(plan.stub_header, plan.left, plan.top, body)
    report = validate(table)
    if not report.ok:
        raise AssemblyError("assembled table failed validation: " + "; ".join(report.errors))
    return table


def build_oneshot_prompt(
    question: str,
    sentences: list[tuple[int, str]],
    exemplar: tuple[str, str] | None = None,
) -> str:
    """Single-prompt baseline: produce the complete table in one go."""
    parts = [
        "Answer the question with a complete HTML table built from the evidence.",
        "",
        "Question:",
        question,
        "",
        "Evidence sentences:",
        _numbered(sentences),
        "",
    ]
    if exemplar is not None:
        ex_question, ex_table = exemplar
        parts += [
            "Worked example.",
            "Example question:",
            ex_question,
            "Example table:",
            ex_table,
            "",
        ]
    parts += [
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


def _complete_with_retry(chat: ChatProvider, prompt: str, parse, stage: str, max_retries: int, partial: dict):
    retries = 0
    current = prompt
    while True:
        response = chat.complete([{"role": "user", "content": current}])
        try:
            return parse(response), retries
        except (ResponseParseError, PlanVerificationError) as exc:
            if retries >= max_retries:
                partial = dict(partial)
                partial["last_response"] = response
                raise StageFailure(stage, str(exc), partial) from exc
            retries += 1
            logger.warning("%s stage reply rejected (%s); retrying", stage, exc)
            current = _retry_prompt(prompt, exc)


def _fill_batches(plan: StructurePlan, batch_size: int | None) -> list[list[tuple[TreeCoord, TreeCoord]]]:
    left_cs = leaf_coords(plan.left)
    top_cs = leaf_coords(plan.top)
    if batch_size is None:
        return [[(lc, tc) for tc in top_cs] for lc in left_cs]
    cells = [(lc, tc) for lc in left_cs for tc in top_cs]
    return [cells[i : i + batch_size] for i in range(0, len(cells), batch_size)]


def run_tabtalk(
    question: str,
    sentences: list[tuple[int, str]],
    chat: ChatProvider,
    *,
    fill_batch_size: int | None = None,
    max_retries: int = 1,
    oneshot: bool = False,
    parallel: int = 1,
) -> TabTalkResult:
    """Run the full generation stage over retrieved sentences.

    ``sentences`` are (sentence_id, raw text) pairs in retrieval order; the
    prompt numbers them 1..n and citations are mapped back to the ids.
    ``fill_batch_size`` None fills one body row per prompt; ``parallel``
    fill prompts run at once; each stage gets ``max_retries`` retries.
    """
    if oneshot:
        return _run_oneshot(question, sentences, chat, max_retries)

    prompt = build_structure_prompt(question, sentences)
    plan, structure_retries = _complete_with_retry(
        chat, prompt, parse_structure_response, "structure", max_retries, {}
    )

    sentence_ids = [sid for sid, _ in sentences]
    batches = _fill_batches(plan, fill_batch_size)
    partial = {"plan": plan}

    def fill_one(batch: list[tuple[TreeCoord, TreeCoord]]) -> tuple[list[CellFill], int]:
        fill_prompt = build_fill_prompt(plan, question, sentences, batch)
        return _complete_with_retry(
            chat,
            fill_prompt,
            lambda resp: parse_fill_response(resp, plan, batch, sentence_ids),
            "fill",
            max_retries,
            partial,
        )

    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(fill_one, batches))
    else:
        results = [fill_one(batch) for batch in batches]
    fill_retries = sum(retries for _, retries in results)

    trace = FillTrace(tuple(r for fragment, _ in results for r in fragment))
    partial["trace"] = trace
    try:
        table = assemble_table(plan, trace)
    except AssemblyError as exc:
        raise StageFailure("assemble", str(exc), partial) from exc
    return TabTalkResult(table, plan, trace, structure_retries, fill_retries)


def _parse_oneshot_response(response: str) -> HierarchicalTable:
    block = extract_fenced_block(response)
    start = block.find("<table")
    end = block.rfind("</table>")
    if start == -1 or end == -1:
        raise ResponseParseError("no <table> element in the fenced block")
    try:
        return parse_html_table(block[start : end + len("</table>")])
    except (TableInputError, TableStructureError, TableModelError) as exc:
        raise ResponseParseError(f"reply is not a usable table: {exc}") from exc


def _run_oneshot(
    question: str,
    sentences: list[tuple[int, str]],
    chat: ChatProvider,
    max_retries: int,
) -> TabTalkResult:
    prompt = build_oneshot_prompt(question, sentences)
    table, retries = _complete_with_retry(
        chat, prompt, _parse_oneshot_response, "oneshot", max_retries, {}
    )
    plan = StructurePlan(
        left=table.left,
        top=table.top,
        stub_header=table.stub_header,
        rows=table.left.leaf_count,
        cols=table.top.leaf_count,
    )
    records = []
    left_cs = leaf_coords(plan.left)
    top_cs = leaf_coords(plan.top)
    for r, lc in enumerate(left_cs):
        for c, tc in enumerate(top_cs):
            left_path = resolve_coord(plan.left, lc)
            top_path = resolve_coord(plan.top, tc)
            records.append(
                CellFill(lc, tc, cell_query(left_path, top_path), (), table.body[r][c])
            )
    return TabTalkResult(table, plan, FillTrace(tuple(records)), retries, 0)


def trace_to_dict(plan: StructurePlan, trace: FillTrace) -> dict:
    """JSON-ready serialization of a generation run's artifacts."""
    return {
        "plan": {
            "stub_header": plan.stub_header,
            "left": plan.left.to_nested(),
            "top": plan.top.to_nested(),
            "rows": plan.rows,
            "cols": plan.cols,
        },
        "cells": [
            {
                "left": list(record.left_coord.path),
                "top": list(record.top_coord.path),
                "query": record.query,
                "sentences": list(record.sentence_ids),
                "value": record.value,
                "note": record.note,
                "filled": record.filled,
            }
            for record in trace.records
        ],
    }
