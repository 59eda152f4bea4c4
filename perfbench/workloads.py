"""Seeded inputs for the benchmark workloads, and the outcomes they must give.

The seed picks names, values and which requests carry injected faults.
Sizes and the schedule of item behaviours are fixed, so the work a run
does is nearly the same for every seed. The program under test sees only
the files written here; the expectations stay in the benchmark process
and are computed from the specs, never from the program's outputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from doc2table.html_io import serialize_html
from doc2table.model import CoordTree, HierarchicalTable
from doc2table.providers import Transcript
from make_fixtures import (
    COMPANIES,
    FACT_TEMPLATES,
    FILLER_AREAS,
    FILLER_TOPICS,
    METRICS,
    make_chat_handler,
    make_rewrite_handler,
)
from stub import fingerprint

QUARTERS = [f"Q{q} {year}" for year in (2022, 2023) for q in range(1, 5)]
COMPANY_KINDS = [name.split()[-1] for name in COMPANIES]
METRIC_LABELS = {m: m[0].upper() + m[1:] for m in METRICS}
RENAMED_METRICS = {
    "Revenue": "Total revenue",
    "Net income": "Net earnings",
    "Operating margin": "Operating margin (%)",
    "Free cash flow": "Free cash flow (FCF)",
}
GARBAGE_REPLY = {"content": "I am not sure how to lay this out, sorry."}

# Question shapes: (companies, metrics, quarters); 4 to 16 body cells.
PIPELINE_SHAPES = [(1, 2, 2), (2, 1, 3), (2, 2, 2), (1, 3, 4), (2, 2, 3), (2, 2, 4)]
# What the scripted chat model does per question, in question order.
ROLE_SCHEDULE = [
    "fail", "retry", "wrong", "perfect", "renamed", "perfect",
    "perfect", "wrong", "renamed", "retry", "perfect", "perfect",
]
# Annotation table shapes: (companies, quarters); one more "Segment" column.
ANNOTATE_SHAPES = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1),
                   (3, 3), (4, 2), (2, 3), (4, 3), (3, 2), (2, 2)]
ANNOTATE_UNCOVERED_INDEX = 5  # per document, this table's cells are absent from it
# Evaluation shapes: (groups, items per group, years, measures per year).
EVAL_SHAPES = {"small": (2, 5, 3, 2), "large": (3, 4, 3, 2)}  # 60 and 72 cells


@dataclass(frozen=True)
class Sizes:
    pipeline_docs: int = 2
    pipeline_sentences: int = 2000
    pipeline_questions: int = 6  # per document
    live_docs: int = 2
    live_sentences: int = 150
    live_questions: int = 3
    annotate_docs: int = 2
    annotate_sentences: int = 2000
    annotate_tables: int = 12  # per document
    eval_shapes: tuple = (EVAL_SHAPES["small"], EVAL_SHAPES["large"])


FULL = Sizes()
TINY = Sizes(
    pipeline_docs=2, pipeline_sentences=120, pipeline_questions=3,
    live_docs=2, live_sentences=100, live_questions=3,
    annotate_docs=1, annotate_sentences=200, annotate_tables=6,
    eval_shapes=((2, 2, 2, 1),),
)


# ---------------------------------------------------------------------------
# Tables as plain specs
# ---------------------------------------------------------------------------

def leaf_paths(spec, prefix: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    """Leaf label paths of a nested header spec, in document order."""
    paths = []
    for node in spec:
        if isinstance(node, str):
            paths.append(prefix + (node,))
        else:
            paths.extend(leaf_paths(node[1], prefix + (node[0],)))
    return paths


@dataclass
class Grid:
    """A table as nested header specs (``CoordTree.from_nested`` form) and a body."""

    stub: str
    left: list
    top: list
    body: list[list[str]]

    def kv(self) -> list[tuple[tuple[str, ...], tuple[str, ...], str]]:
        lefts, tops = leaf_paths(self.left), leaf_paths(self.top)
        return [(lp, tp, self.body[r][c]) for r, lp in enumerate(lefts) for c, tp in enumerate(tops)]

    def table(self) -> HierarchicalTable:
        return HierarchicalTable(
            self.stub,
            CoordTree.from_nested(self.left),
            CoordTree.from_nested(self.top),
            tuple(tuple(row) for row in self.body),
        )

    def html(self) -> str:
        return serialize_html(self.table())


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"


class NameSource:
    """Unique pseudo-words, so names never collide or appear by accident."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        while True:
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(3)
            ).capitalize()
            if word not in self.used:
                self.used.add(word)
                return word

    def company(self) -> str:
        return f"{self.word()} {self.rng.choice(COMPANY_KINDS)}"


def money(units: int) -> str:
    """A tenths count as ``12,345.6``."""
    return f"{units // 10:,}.{units % 10}"


@dataclass
class Document:
    doc_id: str
    sentences: list[str]
    companies: list[str]
    facts: dict[tuple[str, str, str], tuple[int, str]]  # (company, metric, quarter) -> (id, value)
    segments: dict[str, tuple[int, str]]  # company -> (sentence id, segment name)
    rewrites: dict[str, str]  # fact sentence -> its data-as-subject rewrite


def build_document(rng: random.Random, names: NameSource, doc_id: str, n_sentences: int) -> Document:
    """Fact, segment and filler sentences; every value and segment name is unique."""
    per_company = len(METRICS) * len(QUARTERS) + 1
    n_companies = max(1, (n_sentences * 2 // 3) // per_company)
    companies = [names.company() for _ in range(n_companies)]
    values = rng.sample(range(10_000, 10_000_000), n_companies * len(METRICS) * len(QUARTERS))
    texts: list[str] = []
    fact_of: dict[str, tuple[str, str, str, str]] = {}
    segment_of: dict[str, tuple[str, str]] = {}
    rewrites: dict[str, str] = {}
    for company in companies:
        for metric in METRICS:
            for quarter in QUARTERS:
                value = money(values.pop())
                text = rng.choice(FACT_TEMPLATES).format(
                    company=company, metric=metric, quarter=quarter, value=value
                )
                texts.append(text)
                fact_of[text] = (company, metric, quarter, value)
                rewrites[text] = f"The {metric} of {company} in {quarter} was {value} million dollars."
        segment = names.word()
        text = f"{company} reports its results in the {segment} segment."
        texts.append(text)
        segment_of[text] = (company, segment)
    filler = [
        f"{company} management discussed {topic} during {area}."
        for company in companies
        for topic in FILLER_TOPICS
        for area in FILLER_AREAS
    ]
    texts += rng.sample(filler, n_sentences - len(texts))
    rng.shuffle(texts)

    facts, segments = {}, {}
    for sid, text in enumerate(texts):
        if text in fact_of:
            company, metric, quarter, value = fact_of[text]
            facts[(company, metric, quarter)] = (sid, value)
        elif text in segment_of:
            company, segment = segment_of[text]
            segments[company] = (sid, segment)
    return Document(doc_id, texts, companies, facts, segments, rewrites)


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")


def _pick(rng: random.Random, population: list[str], n: int) -> list[str]:
    """``n`` distinct entries, kept in population order."""
    chosen = set(rng.sample(population, n))
    return [x for x in population if x in chosen]


def _and(words: list[str]) -> str:
    return words[0] if len(words) == 1 else ", ".join(words[:-1]) + " and " + words[-1]


# ---------------------------------------------------------------------------
# Pipeline workloads (replay_corpus, live_latency)
# ---------------------------------------------------------------------------

@dataclass
class Question:
    item_id: str
    doc_id: str
    text: str
    sub_questions: list[str]
    relevant: list[int]
    truth: Grid
    role: str  # perfect | retry | wrong | renamed | fail
    answer: Grid | None  # the table the chat model's replies describe; None when it fails


@dataclass
class PipelineWorkload:
    name: str
    documents: list[Document]
    questions: list[Question]
    k: int
    parallel: int
    rewrite_fail_once: set[str]  # rewrite request fingerprints that get one 503

    @property
    def items(self) -> int:
        return len(self.questions)

    def rewrites(self) -> dict[str, str]:
        return {s: r for doc in self.documents for s, r in doc.rewrites.items()}

    def decompositions(self) -> dict[str, list[str]]:
        return {q.text: q.sub_questions for q in self.questions}

    def rewrite_handler(self):
        return make_rewrite_handler(self.rewrites(), self.decompositions()).call

    def chat_handler(self):
        """The scripted model: answers from each question's answer table."""
        answers = {q.text: q.answer.table() for q in self.questions if q.answer is not None}
        retry = {q.text for q in self.questions if q.role == "retry"}
        failing = [f"Question:\n{q.text}\n" for q in self.questions if q.role == "fail"]
        inner = make_chat_handler(answers, garbage_first_structure=retry)

        def handler(request: dict) -> dict:
            prompt = request["messages"][0]["content"]
            if any(marker in prompt for marker in failing):
                return GARBAGE_REPLY
            return inner(request)

        return handler

    def write_inputs(self, work: Path) -> None:
        _write_jsonl(
            work / "docs.jsonl",
            [{"doc_id": d.doc_id, "sentences": d.sentences} for d in self.documents],
        )
        _write_jsonl(
            work / "questions.jsonl",
            [
                {
                    "id": q.item_id,
                    "doc_id": q.doc_id,
                    "question": q.text,
                    "table_html": q.truth.html(),
                    "relevant_sentence_ids": q.relevant,
                }
                for q in self.questions
            ],
        )

    def write_rewrite_transcript(self, path: Path) -> None:
        """Every request the rewriter will get, answered by the scripted rewriter."""
        handler = self.rewrite_handler()
        transcript = Transcript(provider="perfbench-rewriter", captured="synthetic")
        requests = [{"mode": "sentence", "text": s} for d in self.documents for s in d.sentences]
        requests += [{"mode": "question", "text": q.text} for q in self.questions]
        for request in requests:
            transcript.record(request, handler(request))
        transcript.save(path)

    def write_config(self, path: Path, chat: dict, rewriter: dict) -> None:
        config = {
            "chat": chat,
            "rewriter": rewriter,
            "embedder": {"mode": "hashing"},
            "k": self.k,
            "parallel": self.parallel,
            "docs": "docs.jsonl",
            "questions": "questions.jsonl",
        }
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _question(rng: random.Random, doc: Document, item_id: str, shape, role: str) -> Question:
    n_companies, n_metrics, n_quarters = shape
    companies = rng.sample(doc.companies, n_companies)
    metrics = _pick(rng, METRICS, n_metrics)
    quarters = _pick(rng, QUARTERS, n_quarters)
    text = f"What were the {_and(metrics)} of {_and(companies)} in {_and(quarters)}?"
    subs = [
        f"What was the {metric} of {company} in {quarter}?"
        for company in companies
        for metric in metrics
        for quarter in quarters
    ]
    relevant = sorted(doc.facts[(c, m, q)][0] for c in companies for m in metrics for q in quarters)
    body = [
        [f"${doc.facts[(c, m, q)][1]} million" for q in quarters]
        for c in companies
        for m in metrics
    ]

    def grid(renames: dict[str, str] | None = None) -> Grid:
        labels = [METRIC_LABELS[m] for m in metrics]
        left = [(c, [(renames or {}).get(label, label) for label in labels]) for c in companies]
        return Grid("Company", left, list(quarters), [list(row) for row in body])

    truth = grid()
    answer: Grid | None = truth
    if role == "renamed":
        answer = grid(RENAMED_METRICS)
    elif role == "wrong":
        answer = grid()
        for r, c in sorted({(0, 0), (len(body) - 1, n_quarters - 1)}):
            answer.body[r][c] = f"${money(rng.randrange(10_000, 10_000_000))} million"
    elif role == "fail":
        answer = None
    return Question(item_id, doc.doc_id, text, subs, relevant, truth, role, answer)


def pipeline_workload(name: str, seed: int, sizes: Sizes = FULL) -> PipelineWorkload:
    live = name == "live_latency"
    n_docs = sizes.live_docs if live else sizes.pipeline_docs
    n_sentences = sizes.live_sentences if live else sizes.pipeline_sentences
    n_questions = sizes.live_questions if live else sizes.pipeline_questions
    rng = random.Random(f"{name}:{seed}")
    names = NameSource(rng)
    documents = [build_document(rng, names, f"doc{d}", n_sentences) for d in range(n_docs)]
    questions = []
    for d, doc in enumerate(documents):
        for j in range(n_questions):
            index = d * n_questions + j
            role = ROLE_SCHEDULE[index % len(ROLE_SCHEDULE)]
            questions.append(
                _question(rng, doc, f"q{index:02d}", PIPELINE_SHAPES[j % len(PIPELINE_SHAPES)], role)
            )
    fail_once = set()
    if live:
        for doc in documents:
            sid = rng.choice(sorted(sid for sid, _ in doc.facts.values()))
            fail_once.add(fingerprint({"mode": "sentence", "text": doc.sentences[sid]}))
    return PipelineWorkload(name, documents, questions, k=30, parallel=2 if live else 1,
                            rewrite_fail_once=fail_once)


# ---------------------------------------------------------------------------
# eval_large_tables
# ---------------------------------------------------------------------------

@dataclass
class EvalPair:
    item_id: str
    kind: str  # altered | renamed | reordered | missing
    truth: Grid
    generated: Grid | None


@dataclass
class EvalWorkload:
    name: str
    pairs: list[EvalPair]

    @property
    def items(self) -> int:
        return len(self.pairs)

    def write_inputs(self, work: Path) -> None:
        _write_jsonl(
            work / "groundtruth.jsonl",
            [
                {"id": p.item_id, "doc_id": "eval", "question": f"Table {p.item_id}",
                 "table_html": p.truth.html(), "relevant_sentence_ids": []}
                for p in self.pairs
            ],
        )
        _write_jsonl(
            work / "generated.jsonl",
            [{"id": p.item_id, "table_html": p.generated.html()}
             for p in self.pairs if p.generated is not None],
        )


def _eval_truth(rng: random.Random, names: NameSource, shape) -> Grid:
    groups, items, years, measures = shape
    left = [(f"{names.word()} region", [f"{names.word()} line" for _ in range(items)])
            for _ in range(groups)]
    measure_labels = [f"{names.word()} units" for _ in range(measures)]
    top = [(f"FY{2015 + y}", list(measure_labels)) for y in range(years)]
    body = [[money(rng.randrange(10_000, 10_000_000)) for _ in range(years * measures)]
            for _ in range(groups * items)]
    return Grid("Segment", left, top, body)


def eval_workload(seed: int, sizes: Sizes = FULL) -> EvalWorkload:
    """Half of the pairs keep their keys and alter values; half rename or reorder headers."""
    rng = random.Random(f"eval_large_tables:{seed}")
    names = NameSource(rng)
    pairs = []
    for shape in sizes.eval_shapes:
        truth = _eval_truth(rng, names, shape)
        altered = Grid(truth.stub, truth.left, truth.top, [list(row) for row in truth.body])
        for r, row in enumerate(altered.body):
            for c in range(len(row)):
                if (r * len(row) + c) % 3 == 0:
                    row[c] = money(rng.randrange(10_000, 10_000_000))
        pairs.append(EvalPair(f"p{len(pairs)}", "altered", truth, altered))
    for shape, kind in zip(sizes.eval_shapes, ("renamed", "reordered")):
        truth = _eval_truth(rng, names, shape)
        if kind == "renamed":
            left = [(g, [f"{item} (adjusted)" for item in items]) for g, items in truth.left]
            generated = Grid(truth.stub, left, truth.top, [list(row) for row in truth.body])
        else:
            years = [year for year, _ in truth.top]
            measures = truth.top[0][1]
            top = [(m, list(years)) for m in measures]
            body = [[row[y * len(measures) + m] for m in range(len(measures)) for y in range(len(years))]
                    for row in truth.body]
            generated = Grid(truth.stub, truth.left, top, body)
        pairs.append(EvalPair(f"p{len(pairs)}", kind, truth, generated))
    truth = _eval_truth(rng, names, sizes.eval_shapes[0])
    pairs.append(EvalPair(f"p{len(pairs)}", "missing", truth, None))
    return EvalWorkload("eval_large_tables", pairs)


# ---------------------------------------------------------------------------
# annotate_corpus
# ---------------------------------------------------------------------------

@dataclass
class AnnotateTable:
    table_id: str
    doc_id: str
    grid: Grid
    expected: dict[tuple[int, int], tuple[str, list[int]]]  # (row, col) -> (kind, sentence ids)
    covered: bool


@dataclass
class AnnotateWorkload:
    name: str
    documents: list[Document]
    tables: list[AnnotateTable]

    @property
    def items(self) -> int:
        return len(self.tables)

    def write_inputs(self, work: Path) -> None:
        _write_jsonl(
            work / "docs.jsonl",
            [{"doc_id": d.doc_id, "sentences": d.sentences} for d in self.documents],
        )
        _write_jsonl(
            work / "tables.jsonl",
            [{"table_id": t.table_id, "doc_id": t.doc_id, "table_html": t.grid.html(),
              "question": f"Which figures does table {t.table_id} report?"}
             for t in self.tables],
        )


def annotate_workload(seed: int, sizes: Sizes = FULL) -> AnnotateWorkload:
    """Numeric and textual cells planted in exactly one sentence each."""
    rng = random.Random(f"annotate_corpus:{seed}")
    names = NameSource(rng)
    documents = [build_document(rng, names, f"doc{d}", sizes.annotate_sentences)
                 for d in range(sizes.annotate_docs)]
    tables = []
    for doc in documents:
        for j in range(sizes.annotate_tables):
            n_companies, n_quarters = ANNOTATE_SHAPES[j % len(ANNOTATE_SHAPES)]
            companies = rng.sample(doc.companies, n_companies)
            metric = rng.choice(METRICS)
            quarters = _pick(rng, QUARTERS, n_quarters)
            covered = j != ANNOTATE_UNCOVERED_INDEX
            body, expected = [], {}
            for r, company in enumerate(companies):
                row = []
                for c, quarter in enumerate(quarters):
                    sid, value = doc.facts[(company, metric, quarter)]
                    if not covered:  # absent: document values stay below 1,000,000
                        value = money(rng.randrange(10_000_000, 20_000_000))
                    row.append(value)
                    expected[(r, c)] = ("numeric", [sid])
                sid, segment = doc.segments[company]
                row.append(segment if covered else names.word())
                expected[(r, len(quarters))] = ("textual", [sid])
                body.append(row)
            if not covered:
                expected = {}
            top = [(METRIC_LABELS[metric], quarters), ("Profile", ["Segment"])]
            tables.append(AnnotateTable(f"t{len(tables):02d}", doc.doc_id,
                                        Grid("Company", companies, top, body), expected, covered))
    return AnnotateWorkload("annotate_corpus", documents, tables)


WORKLOADS = ("replay_corpus", "live_latency", "eval_large_tables", "annotate_corpus")


def build(name: str, seed: int, sizes: Sizes = FULL):
    if name in ("replay_corpus", "live_latency"):
        return pipeline_workload(name, seed, sizes)
    if name == "eval_large_tables":
        return eval_workload(seed, sizes)
    if name == "annotate_corpus":
        return annotate_workload(seed, sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
