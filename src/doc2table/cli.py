"""Command-line pipeline over the on-disk dataset formats.

Subcommands: annotate, retrieve, generate, evaluate, stats, pipeline.
``retrieve`` runs :func:`retrieve_stage`, ``generate`` runs
:func:`generate_stage` over a saved ``retrieval.jsonl``, ``evaluate`` runs
:func:`evaluate_stage` over saved tables, and ``pipeline`` runs all three,
handing records and tables over in memory. The first two and ``pipeline``
read their settings and providers from one ``RunConfig`` file
(``--config``), ``retrieve`` and ``pipeline`` their inputs too. ``generate``
reads only ``retrieval.jsonl``, whose lines pick the questions and their
order. Every subcommand but ``stats`` writes to the directory that its
required ``--out`` names, the one output setting.

The stages pass the records of :mod:`doc2table.data`: a document is its
sentence list, a question a ``QaTriple``, its evidence a ``RetrievalRecord``.
Every stage module is imported with this one, whichever subcommand runs.

Each config subcommand is one schedule over one :func:`run_map`, built from
``RunConfig.parallel``. Its tasks are leaves, and no task waits on
another: one sentence rewrite, one question rewrite, or one question's
TabTalk. Every referenced document's sentence rewrites are queued first,
then every question's rewrite. :func:`retrieve_stage` yields each record
as soon as its document's rewrites and its own are in, and
:func:`generate_stage`, the one generation path, queues each record's
TabTalk as it is handed over: ``generate`` hands it the retrieval file's
records, ``pipeline`` the records as retrieval yields them. Each output
file has one writer, which reads results in input order; ``pipeline``
writes the retrieval files before it reads any TabTalk result.

All outputs are written atomically and deterministically (sorted JSON
keys, input order preserved), so a replayed run reproduces its output
directory byte for byte: ``doc2table pipeline --config
tests/fixtures/pipeline/config.json --out DIR`` replays the committed
fixture, no network needed, into a DIR equal to its ``golden`` directory.
Each command reads every input before it builds a provider, and a file
before the files that refer to it: documents before triples or tables,
ground truth before generated tables, tables before the review, whose
lines name a table and one of its body cells. A reader stops at its file's
first bad line, references included, so of two bad files the referenced
one is reported. Exit codes: 0 success; 1 a runtime failure, a bad run
config or transcript included, or a failed question; 2 a bad line in a
dataset file (documents, tables, triples, review, retrieval or generated
tables): a malformed line, an unknown id or body cell, a blank question, a
repeated merged sentence id, or a relevant sentence id that its document
does not have. Failures print a machine-readable JSON report to stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

from . import annotate as ann
from . import data
from .config import BuiltProviders, RunConfig, build_providers
from .data import QaTriple, RetrievalRecord
from .generation import StageFailure, TabTalkResult, run_tabtalk, trace_to_dict
from .html_io import serialize_html
from .metrics import aggregate_scores, recall_at_k, table_scores
from .model import HierarchicalTable
from .providers import ChatProvider, ProviderError
from .retrieval import retrieve_top_k, rewrite_question, rewrite_sentences

logger = logging.getLogger(__name__)

RECALL_KS = (10, 20, 30)


@contextmanager
def run_map(parallel: int):
    """The order-preserving map every task of a run goes through.

    At ``parallel`` 1 it is the builtin ``map``: no thread starts, and each
    call is made when its result is read, so a run makes its provider calls
    in input order, all of retrieval before any of generation (no TabTalk
    result is read before retrieval has yielded its last record). Above 1
    it is the ``map`` of one pool of ``2 * parallel`` threads, which queues
    every task as soon as it is mapped. The run's live providers let at
    most ``parallel`` requests be in flight (see
    :func:`~doc2table.config.build_providers`), so each slot has a spare
    thread that runs another task while a call waits out a retry backoff.
    Either way results come back in input order. The pool is shut down when
    the run ends; a run that fails cancels its queued tasks first, so it
    pays only for the requests already in flight.
    """
    if parallel == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=2 * parallel) as pool:
        try:
            yield pool.map
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@contextmanager
def _providers_and_map(config: RunConfig, roles: tuple[str, ...]):
    """The providers of ``roles`` and the run's :func:`run_map`.

    Transcripts recorded by the run are saved when it ends, failed or not.
    """
    built = build_providers(config, roles=roles)
    try:
        with run_map(config.parallel) as mapper:
            yield built, mapper
    finally:
        for transcript, path in built.pending_transcripts:
            transcript.save(path)


def retrieve_stage(
    triples: list[QaTriple],
    documents: dict[str, list[str]],
    built: BuiltProviders,
    config: RunConfig,
    mapper=map,
) -> Iterator[tuple[str, RetrievalRecord]]:
    """Stage one: rewrite, then rank top-k per question; yield each (id, record).

    A generator that writes nothing. When it is first read, every
    referenced document's sentence rewrites are queued through ``mapper``
    (see :func:`run_map`), then every question's rewrite; each record is
    yielded, in input order, as soon as it is ranked. Sentence embeddings
    (the embedder's :class:`~doc2table.retrieval.Embeddings`) are computed
    once per document, at its first question, and dropped after its last.
    The triples must have been read against ``documents``
    (:func:`~doc2table.data.read_triples`).
    """
    sentence_texts = {
        doc_id: rewrite_sentences(documents[doc_id], built.rewriter, mapper)
        for doc_id in dict.fromkeys(t.doc_id for t in triples)
    }
    rewrites = mapper(rewrite_question, [t.question for t in triples], repeat(built.rewriter))
    last_use = {triple.doc_id: n for n, triple in enumerate(triples)}
    vectors = {}
    for n, triple in enumerate(triples):
        if triple.doc_id in sentence_texts:
            texts = list(sentence_texts.pop(triple.doc_id))
            if not texts:
                logger.warning("document %r has no sentences to retrieve", triple.doc_id)
            vectors[triple.doc_id] = built.embedder.embed(texts) if texts else None
        rewrite = next(rewrites)
        record = retrieve_top_k(
            documents[triple.doc_id],
            list(rewrite.sub_questions),
            vectors[triple.doc_id],
            built.embedder,
            k=config.k,
            question=triple.question,
            degraded=rewrite.degraded,
        )
        if last_use[triple.doc_id] == n:
            del vectors[triple.doc_id]
        yield triple.triple_id, record


def write_retrieval(triples: list[QaTriple], records: dict[str, RetrievalRecord], k: int, out: Path) -> dict:
    """Write retrieval.jsonl, a row per record in order, and recall.json; return the recall report.

    The report is recall@{10,20,30} (capped at k) per triple with relevant
    ids, plus means; with no relevant ids in any triple it is {} and
    recall.json is not written.
    """
    # One row per triple, each built only while writing: a row holds
    # max(k, RANKING_DEPTH) ranks per sub-question.
    data.write_jsonl(
        out / "retrieval.jsonl", ({"id": item_id, **r.to_dict()} for item_id, r in records.items())
    )
    ks = [x for x in RECALL_KS if x <= k] or [k]
    rows = []
    for triple in triples:
        if triple.relevant_sentence_ids:
            ranked = records[triple.triple_id].merged_ids()
            at_k = {str(x): recall_at_k(ranked, triple.relevant_sentence_ids, x) for x in ks}
            rows.append({"id": triple.triple_id, "recall_at_k": at_k})
    if not rows:
        return {}
    recall = {"per_item": rows, "mean": aggregate_scores(rows)["recall_at_k"]}
    data.write_json(out / "recall.json", recall)
    return recall


def _generate(
    item_id: str, record: RetrievalRecord, chat: ChatProvider, oneshot: bool
) -> TabTalkResult | dict:
    """The TabTalk result of the record's question, or its error row."""
    sentences = [(sid, record.sentence_texts[sid]) for sid in record.merged_ids()]
    if not sentences:
        return {"id": item_id, "stage": "input", "error": "no evidence sentences"}
    try:
        return run_tabtalk(record.question, sentences, chat, oneshot=oneshot)
    except StageFailure as exc:
        return {"id": item_id, "stage": exc.stage, "error": str(exc)}


def generate_stage(
    ranked: Iterable[tuple[str, RetrievalRecord]], chat: ChatProvider, config: RunConfig, mapper=map
) -> tuple[dict[str, RetrievalRecord], dict[str, Iterator[TabTalkResult | dict]]]:
    """Stage two: queue the TabTalk of each (id, record) of ``ranked`` as it is handed over.

    Each question is mapped on its own through ``mapper`` (see
    :func:`run_map`): a pool queues it at once, the builtin ``map`` runs it
    when its result is read (by :func:`write_generation`). Returns the
    records and their queued results, by id in the order handed over.
    """
    records, tabtalks = {}, {}
    for item_id, record in ranked:
        records[item_id] = record
        tabtalks[item_id] = mapper(_generate, [item_id], [record], [chat], [config.oneshot])
    return records, tabtalks


def write_generation(
    tabtalks: dict[str, Iterator], out: Path
) -> tuple[list[tuple[str, HierarchicalTable]], list[dict]]:
    """Read each queued TabTalk in input order; write tables.jsonl, traces.jsonl, errors.jsonl.

    A record with no evidence sentences or a failed stage (its provider
    failing included) is one error row and the others go on. Returns the
    (id, table) pairs generated, in input order, and the error rows;
    errors.jsonl is written only when there are any.
    """
    generated, traces, errors = [], [], []
    for item_id, tabtalk in tabtalks.items():
        (result,) = tabtalk
        if isinstance(result, dict):
            errors.append(result)
            continue
        generated.append((item_id, result.table))
        traces.append(
            {
                "id": item_id,
                "structure_retries": result.structure_retries,
                "fill_retries": result.fill_retries,
                **trace_to_dict(result.table, result.trace),
            }
        )
    data.write_jsonl(
        out / "tables.jsonl",
        [{"id": item_id, "table_html": serialize_html(table)} for item_id, table in generated],
    )
    data.write_jsonl(out / "traces.jsonl", traces)
    if errors:
        data.write_jsonl(out / "errors.jsonl", errors)
    return generated, errors


def cmd_annotate(args) -> int:
    """One pass over the tables: each one's matches row, then its triple or its exclusion."""
    documents = data.read_documents(args.docs)
    records = data.read_tables(args.tables, documents)
    tables = {record["table_id"]: record["table"] for record in records}
    decisions = data.read_review(args.review, tables) if args.review else {}

    # One index per referenced document; each scans its sentences at its first table.
    indexes = {
        doc_id: ann.SentenceIndex(documents[doc_id])
        for doc_id in {record["doc_id"] for record in records}
    }
    triples_out, matches_out, exclusions_out = [], [], []
    for record in records:
        table_id, table = record["table_id"], record["table"]
        matches = ann.match_cells_to_sentences(table, indexes[record["doc_id"]])
        ann.apply_review(matches, decisions.get(table_id, {}))
        coverage, excluded = ann.coverage(table, matches)
        matches_out.append(
            {
                "table_id": table_id,
                "coverage": coverage,
                "matches": [{"match_id": m.match_id, **vars(m)} for m in matches],
            }
        )
        if excluded:
            exclusions_out.append(
                {"table_id": table_id, "coverage": coverage, "uncovered": 1.0 - coverage}
            )
        else:
            triples_out.append(
                {
                    "id": table_id,
                    "doc_id": record["doc_id"],
                    "question": record["question"],
                    "table_html": serialize_html(table),
                    "relevant_sentence_ids": list(ann.relevant_ids(matches)),
                }
            )

    out = Path(args.out)
    data.write_jsonl(out / "triples.jsonl", triples_out)
    data.write_jsonl(out / "matches.jsonl", matches_out)
    data.write_jsonl(out / "exclusions.jsonl", exclusions_out)
    print(f"retained {len(triples_out)} tables, excluded {len(exclusions_out)}")
    return 0


def _load_config(args, *inputs: str) -> tuple[RunConfig, Path]:
    """The checked run config named by ``--config``, and the ``--out`` directory.

    Each config field named in ``inputs`` (``questions``, ``docs``) must be set.
    """
    config = RunConfig.from_file(args.config)
    for name in inputs:
        if not getattr(config, name):
            raise ValueError(f"config field {name} is required")
    return config, Path(args.out)


def cmd_retrieve(args) -> int:
    config, out = _load_config(args, "questions", "docs")
    documents = data.read_documents(config.docs)
    triples = data.read_triples(config.questions, documents)
    with _providers_and_map(config, ("rewriter", "embedder")) as (built, mapper):
        records = dict(retrieve_stage(triples, documents, built, config, mapper))
    recall = write_retrieval(triples, records, config.k, out)
    if recall:
        print("recall " + "  ".join(f"@{k}={mean:.4f}" for k, mean in recall["mean"].items()))
    print(f"retrieved for {len(triples)} questions")
    return 0


def cmd_generate(args) -> int:
    config, out = _load_config(args)
    records = data.read_retrieval_records(args.retrieval)
    with _providers_and_map(config, ("chat",)) as (built, mapper):
        _, tabtalks = generate_stage(records.items(), built.chat, config, mapper)
        generated, errors = write_generation(tabtalks, out)
    print(f"generated {len(generated)} tables, {len(errors)} failures")
    return 0 if not errors else 1


# Characters of an id that the summary shows as their backslash escapes: a
# line break, tab or other control character would split its row, and a lone
# surrogate has no UTF-8 encoding.
_ESCAPED_IN_SUMMARY = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")


def _summary_id(text: str) -> str:
    return _ESCAPED_IN_SUMMARY.sub(lambda m: m.group().encode("unicode_escape").decode("ascii"), text)


def _summary_table(items: list[dict], aggregate: dict) -> str:
    columns = [
        ("id", lambda row: _summary_id(row["id"])),
        ("TEDS", lambda row: f"{row['teds']:.4f}"),
        ("Body-P", lambda row: f"{row['content_precision']:.4f}"),
        ("Body-R", lambda row: f"{row['content_recall']:.4f}"),
        ("Body-F1", lambda row: f"{row['content_f1']:.4f}"),
        ("R-Header-F1", lambda row: f"{row['header_f1']['left']:.4f}"),
        ("C-Header-F1", lambda row: f"{row['header_f1']['top']:.4f}"),
    ]
    rows = [[name for name, _ in columns]]
    for item in items:
        rows.append([fmt(item) for _, fmt in columns])
    if aggregate:
        rows.append([fmt({**aggregate, "id": "mean"}) for _, fmt in columns])
    widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    if aggregate:
        lines.insert(-1, "-" * len(lines[0]))
    return "\n".join(lines)


def evaluate_stage(
    generated: dict[str, HierarchicalTable],
    groundtruth: dict[str, QaTriple],
    out: Path,
    recall_rows: dict[str, dict] | None = None,
) -> str:
    """Stage three: score each generated table; write evaluation.jsonl and evaluation.json.

    Every table is scored in one :func:`~doc2table.metrics.table_scores`
    call over the whole corpus, so the chrF kernels run a few times per
    run, not per table. Items come in ``generated`` order, and an item with
    a row in ``recall_rows`` carries that row as its ``recall_at_k``.
    Returns the summary table.
    """
    pairs = [(table, groundtruth[item_id].table) for item_id, table in generated.items()]
    items = []
    for item_id, scores in zip(generated, table_scores(pairs)):
        entry = {"id": item_id, **scores}
        if recall_rows and item_id in recall_rows:
            entry["recall_at_k"] = recall_rows[item_id]
        items.append(entry)
    aggregate = aggregate_scores(items)
    data.write_jsonl(out / "evaluation.jsonl", items)
    data.write_json(out / "evaluation.json", aggregate)
    return _summary_table(items, aggregate)


def cmd_evaluate(args) -> int:
    groundtruth = {t.triple_id: t for t in data.read_triples(args.groundtruth)}
    generated = data.read_generated_tables(args.generated, groundtruth)
    print(evaluate_stage(generated, groundtruth, Path(args.out)))
    return 0


def cmd_stats(args) -> int:
    documents = data.read_documents(args.docs) if args.docs else None
    triples = data.read_triples(args.triples, documents)
    print(json.dumps(ann.corpus_stats(triples, documents), sort_keys=True, indent=2))
    return 0


def cmd_pipeline(args) -> int:
    config, out = _load_config(args, "questions", "docs")
    documents = data.read_documents(config.docs)
    triples = data.read_triples(config.questions, documents)
    with _providers_and_map(config, ("chat", "rewriter", "embedder")) as (built, mapper):
        ranked = retrieve_stage(triples, documents, built, config, mapper)
        records, tabtalks = generate_stage(ranked, built.chat, config, mapper)
        # Written before any TabTalk is read: a failed generation leaves them for ``generate``.
        recall = write_retrieval(triples, records, config.k, out)
        generated, errors = write_generation(tabtalks, out)
    if generated:
        recall_rows = {row["id"]: row["recall_at_k"] for row in recall.get("per_item", [])}
        groundtruth = {t.triple_id: t for t in triples}
        summary = evaluate_stage(dict(generated), groundtruth, out, recall_rows)
        data.atomic_write_text(out / "summary.txt", summary + "\n")
        print(summary)

    print(f"pipeline complete: {len(generated)} tables, {len(errors)} failures -> {out}")
    return 0 if not errors else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doc2table",
        description="Answer questions over documents with hierarchical tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="match table cells to sentences and filter")
    p.add_argument("--docs", required=True)
    p.add_argument("--tables", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--review", default="", help="JSONL of review decisions")
    p.set_defaults(func=cmd_annotate)

    def config_parser(name: str, summary: str, func):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="run config JSON: providers, settings, inputs")
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
        return p

    config_parser("retrieve", "stage one: rank relevant sentences per question", cmd_retrieve)
    p = config_parser("generate", "stage two: tables from retrieved sentences", cmd_generate)
    p.add_argument("--retrieval", required=True, help="retrieval.jsonl written by retrieve")

    p = sub.add_parser("evaluate", help="score generated tables against ground truth")
    p.add_argument("--generated", required=True)
    p.add_argument("--groundtruth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="corpus statistics over a triples file")
    p.add_argument("--triples", required=True)
    p.add_argument("--docs", default="", help="documents file for token statistics")
    p.set_defaults(func=cmd_stats)

    config_parser("pipeline", "retrieve, generate and evaluate in one run", cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    try:
        return args.func(args)
    except data.InputFormatError as exc:
        print(json.dumps({"error": exc.to_dict()}, sort_keys=True), file=sys.stderr)
        return 2
    except (ValueError, OSError, ProviderError) as exc:
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
