#!/usr/bin/env python3
"""Regenerate every committed test fixture and golden file.

Deterministic by construction: rerunning this script reproduces the
committed bytes. Retrieval goldens are computed by the brute-force cosine
scan and round-robin merge of ``tests/oracles.py``, plain Python loops
independent of the package's retrieval path; the script cross-checks that
the production path agrees before writing anything.
"""
from __future__ import annotations

import json
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "tests"))

from doc2table.cli import generate_stage, main as cli_main, retrieve_stage, write_generation
from doc2table.config import BuiltProviders, RunConfig
from doc2table.generation import (
    build_fill_prompt,
    build_oneshot_prompt,
    build_structure_prompt,
)
from doc2table.html_io import serialize_html
from doc2table.model import CoordTree, HierarchicalTable, flatten_to_kv
from doc2table.providers import (
    ChatProvider,
    HashingEmbedder,
    RecordingProvider,
    Rewriter,
    ScriptedProvider,
    Transcript,
)
from doc2table.retrieval import retrieve_top_k, rewrite_sentences
from oracles import brute_cosine_ranking, brute_round_robin, reference_hashing_embed


# ---------------------------------------------------------------------------
# Example table (hierarchical cancer statistics)
# ---------------------------------------------------------------------------

def example_table() -> HierarchicalTable:
    left = CoordTree.from_nested(
        [
            ("Digestive system", ["Stomach", "Colon"]),
            ("Respiratory system", ["Lung"]),
            ("Urinary tract", ["Kidney and renal pelvis", "Bladder"]),
        ]
    )
    top = CoordTree.from_nested(
        [
            ("Incidence", ["Males", "Females"]),
            ("Prevalence", ["Males", "Females"]),
            ("Mortality", ["Males", "Females"]),
        ]
    )
    values = [
        ["121,270", "84,550", "310,440", "265,780", "52,280", "37,190"],
        ["79,520", "73,610", "402,310", "398,750", "28,470", "24,530"],
        ["117,910", "118,830", "287,550", "311,270", "68,820", "59,910"],
        ["52,380", "29,440", "301,090", "179,880", "91,450", "61, 276"],
        ["62,420", "19,480", "519,240", "178,630", "12,160", "4,980"],
    ]
    return HierarchicalTable(
        "Cancer type", left, top, tuple(tuple(row) for row in values)
    )


def write_example_table() -> None:
    path = FIXTURES / "cancer_stats.html"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_html(example_table()) + "\n", encoding="utf-8")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Golden prompt files
# ---------------------------------------------------------------------------

PROMPT_QUESTION = "What was the revenue of Acme Corp in Q1 2023 and Q2 2023?"
PROMPT_SENTENCES = [
    (0, "Acme Corp reported revenue of $12.1 billion for Q1 2023."),
    (1, "Management highlighted strong demand across all regions."),
    (2, "For Q2 2023, Acme Corp posted revenue of $13.4 billion."),
    (3, "Operating expenses rose modestly year over year."),
    (4, "The board declared a quarterly dividend of $0.62 per share."),
]


def write_prompt_goldens() -> None:
    out = FIXTURES / "prompts"
    out.mkdir(parents=True, exist_ok=True)
    (out / "structure_prompt.txt").write_text(
        build_structure_prompt(PROMPT_QUESTION, PROMPT_SENTENCES) + "\n", encoding="utf-8"
    )
    # The fill prompt reads only the cells' label paths, not their values.
    table = HierarchicalTable(
        "Metric",
        CoordTree.from_nested([("Acme Corp", ["Revenue"])]),
        CoordTree.from_nested(["Q1 2023", "Q2 2023"]),
        (("$12.1 billion", "$13.4 billion"),),
    )
    (out / "fill_prompt.txt").write_text(
        build_fill_prompt(PROMPT_QUESTION, PROMPT_SENTENCES, flatten_to_kv(table)) + "\n",
        encoding="utf-8",
    )
    (out / "oneshot_prompt.txt").write_text(
        build_oneshot_prompt(PROMPT_QUESTION, PROMPT_SENTENCES) + "\n", encoding="utf-8"
    )
    print(f"wrote {out}/*.txt")


# ---------------------------------------------------------------------------
# Retrieval corpus: 200 sentences, aligned rewrites, oracle goldens
# ---------------------------------------------------------------------------

COMPANIES = [
    "Acme Corp", "Beta Industries", "Gamma Holdings", "Delta Partners",
    "Epsilon Group", "Zeta Labs", "Eta Energy", "Theta Logistics",
    "Iota Health", "Kappa Media",
]
METRICS = ["revenue", "net income", "operating margin", "free cash flow"]
QUARTERS = ["Q1 2022", "Q2 2022", "Q3 2022", "Q4 2022"]

FACT_TEMPLATES = [
    "{company} reported {metric} of ${value} million in {quarter}.",
    "In {quarter}, the {metric} of {company} reached ${value} million.",
    "{company} said its {metric} grew to ${value} million during {quarter}.",
    "The {quarter} filing shows {company} {metric} at ${value} million.",
]
RESTATED_TEMPLATE = "An amended filing restated {company} {metric} for {quarter} at ${value} million."
FILLER_TOPICS = [
    "market conditions", "the competitive landscape", "supply chain risks",
    "hiring plans", "capital allocation", "regulatory developments",
    "customer retention", "product roadmaps",
]
FILLER_AREAS = [
    "the earnings call", "the annual review", "the investor day",
    "the strategy session", "the board meeting",
]


def build_corpus():
    rng = random.Random(20240501)
    facts = []  # (company, metric, quarter, value, sentence)
    for company in COMPANIES:
        for metric in METRICS:
            for quarter in QUARTERS:
                value = f"{rng.randrange(1000, 999999) / 10:,.1f}"
                template = rng.choice(FACT_TEMPLATES)
                sentence = template.format(
                    company=company, metric=metric, quarter=quarter, value=value
                )
                facts.append((company, metric, quarter, value, sentence))

    restated = []
    for company, metric, quarter, value, _ in facts[:4]:  # Acme revenue/net income
        restated.append(
            (company, metric, quarter, value, RESTATED_TEMPLATE.format(
                company=company, metric=metric, quarter=quarter, value=value
            ))
        )

    filler = []
    for topic in FILLER_TOPICS:
        for area in FILLER_AREAS:
            filler.append(f"Management discussed {topic} during {area}.")
    # 160 facts + 4 restatements + 36 filler = 200 sentences
    sentences = [f[4] for f in facts] + [r[4] for r in restated] + filler[:36]
    assert len(sentences) == 200 and len(set(sentences)) == 200
    rng.shuffle(sentences)

    index = {s: i for i, s in enumerate(sentences)}
    fact_ids = {}
    for company, metric, quarter, value, sentence in facts + restated:
        fact_ids.setdefault((company, metric, quarter), []).append(index[sentence])
    for key in fact_ids:
        fact_ids[key].sort()

    rewrites = {}
    for company, metric, quarter, value, sentence in facts:
        rewrites[sentence] = (
            f"The {metric} of {company} in {quarter} was {value} million dollars."
        )
    for company, metric, quarter, value, sentence in restated:
        # Deliberately modest alignment: these relevant sentences should rank
        # mid-list so the recall curve actually grows with k.
        rewrites[sentence] = (
            f"An amendment changed the reported {metric} figure of {company}."
        )
    values = {(c, m, q): v for c, m, q, v, _ in facts}
    return sentences, fact_ids, rewrites, values


def sub_question(company: str, metric: str, quarter: str) -> str:
    return f"What was the {metric} of {company} in {quarter}?"


def corpus_questions(fact_ids, values):
    """(id, question, sub-questions, relevant ids, gt table) per item."""

    def table_for(company, metric, quarters):
        left = CoordTree.from_nested([(company, [metric])])
        top = CoordTree.from_nested(list(quarters))
        body = (tuple(f"${values[(company, metric, q)]} million" for q in quarters),)
        return HierarchicalTable("Metric", left, top, body)

    items = []

    def add(item_id, question, subs, keys, table):
        relevant = sorted({sid for key in keys for sid in fact_ids[key]})
        items.append((item_id, question, subs, relevant, table))

    add(
        "q1",
        "What was the revenue of Acme Corp in Q1 2022 and Q2 2022?",
        [sub_question("Acme Corp", "revenue", "Q1 2022"), sub_question("Acme Corp", "revenue", "Q2 2022")],
        [("Acme Corp", "revenue", "Q1 2022"), ("Acme Corp", "revenue", "Q2 2022")],
        table_for("Acme Corp", "revenue", ["Q1 2022", "Q2 2022"]),
    )
    add(
        "q2",
        "Compare the net income of Beta Industries and Gamma Holdings in Q3 2022.",
        [sub_question("Beta Industries", "net income", "Q3 2022"), sub_question("Gamma Holdings", "net income", "Q3 2022")],
        [("Beta Industries", "net income", "Q3 2022"), ("Gamma Holdings", "net income", "Q3 2022")],
        HierarchicalTable(
            "Company",
            CoordTree.from_nested(["Beta Industries", "Gamma Holdings"]),
            CoordTree.from_nested([("Net income", ["Q3 2022"])]),
            (
                (f"${values[('Beta Industries', 'net income', 'Q3 2022')]} million",),
                (f"${values[('Gamma Holdings', 'net income', 'Q3 2022')]} million",),
            ),
        ),
    )
    add(
        "q3",
        "How did the free cash flow of Delta Partners evolve across 2022?",
        [sub_question("Delta Partners", "free cash flow", q) for q in QUARTERS],
        [("Delta Partners", "free cash flow", q) for q in QUARTERS],
        table_for("Delta Partners", "free cash flow", QUARTERS),
    )
    add(
        "q4",
        "What was the operating margin of Epsilon Group in Q4 2022?",
        [sub_question("Epsilon Group", "operating margin", "Q4 2022")],
        [("Epsilon Group", "operating margin", "Q4 2022")],
        table_for("Epsilon Group", "operating margin", ["Q4 2022"]),
    )
    add(
        "q5",
        "What were the revenue and net income of Zeta Labs in Q1 2022?",
        [sub_question("Zeta Labs", "revenue", "Q1 2022"), sub_question("Zeta Labs", "net income", "Q1 2022")],
        [("Zeta Labs", "revenue", "Q1 2022"), ("Zeta Labs", "net income", "Q1 2022")],
        HierarchicalTable(
            "Metric",
            CoordTree.from_nested([("Zeta Labs", ["Revenue", "Net income"])]),
            CoordTree.from_nested(["Q1 2022"]),
            (
                (f"${values[('Zeta Labs', 'revenue', 'Q1 2022')]} million",),
                (f"${values[('Zeta Labs', 'net income', 'Q1 2022')]} million",),
            ),
        ),
    )
    add(
        "q6",
        "What was the operating margin of Theta Logistics in Q2 2022 and Q4 2022?",
        [sub_question("Theta Logistics", "operating margin", "Q2 2022"), sub_question("Theta Logistics", "operating margin", "Q4 2022")],
        [("Theta Logistics", "operating margin", "Q2 2022"), ("Theta Logistics", "operating margin", "Q4 2022")],
        table_for("Theta Logistics", "operating margin", ["Q2 2022", "Q4 2022"]),
    )
    return items


def make_rewrite_handler(rewrites: dict[str, str], decompositions: dict[str, list[str]]):
    def handler(request: dict) -> dict:
        if request["mode"] == "sentence":
            return {"outputs": [rewrites.get(request["text"], request["text"])]}
        return {"outputs": decompositions.get(request["text"], [request["text"]])}

    return ScriptedProvider(handler)


def write_corpus() -> None:
    out = FIXTURES / "corpus"
    out.mkdir(parents=True, exist_ok=True)
    sentences, fact_ids, rewrites, values = build_corpus()
    items = corpus_questions(fact_ids, values)
    decompositions = {question: subs for _, question, subs, _, _ in items}

    doc_id = "fin_reports_2022"
    (out / "docs.jsonl").write_text(
        json.dumps({"doc_id": doc_id, "sentences": sentences}, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    triple_lines = [
        json.dumps(
            {
                "id": item_id,
                "doc_id": doc_id,
                "question": question,
                "table_html": serialize_html(table),
                "relevant_sentence_ids": relevant,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for item_id, question, _, relevant, table in items
    ]
    (out / "triples.jsonl").write_text("\n".join(triple_lines) + "\n", encoding="utf-8")

    # Record the rewrite transcript by issuing exactly the requests the
    # pipeline will replay: every sentence once, every question once.
    transcript = Transcript(provider="aligned-rewriter", captured="2024-05-01")
    backend = RecordingProvider(make_rewrite_handler(rewrites, decompositions), transcript)
    for sentence in sentences:
        backend.call({"mode": "sentence", "text": sentence})
    for _, question, _, _, _ in items:
        backend.call({"mode": "question", "text": question})
    transcript.save(out / "rewrite_transcript.jsonl")

    # Oracle golden: brute-force cosine scan over the rewritten corpus.
    embedder = HashingEmbedder()
    rewritten = [rewrites.get(s, s) for s in sentences]
    sentence_vectors = [list(v) for v in reference_hashing_embed(rewritten)]

    golden = []
    rewriter = Rewriter(make_rewrite_handler(rewrites, decompositions))
    texts = list(rewrite_sentences(sentences, rewriter))
    vectors = embedder.embed(texts)
    for item_id, question, subs, relevant, _ in items:
        query_vectors = [list(v) for v in reference_hashing_embed(subs)]
        ranked_lists = []
        for vector in query_vectors:
            ranked_lists.append(brute_cosine_ranking(vector, sentence_vectors))
        merged = brute_round_robin(ranked_lists, 30)
        merged_ids = [sid for sid, _ in merged]
        recall = {
            str(k): len(set(relevant) & set(merged_ids[:k])) / len(relevant)
            for k in (10, 20, 30)
        }

        # Cross-check the production path against the oracle before freezing.
        record = retrieve_top_k(sentences, subs, vectors, embedder, k=30, question=question)
        assert record.merged_ids() == merged_ids, f"ranking mismatch for {item_id}"
        for ranked, prod in zip(ranked_lists, record.per_question):
            assert [sid for sid, _ in ranked[:60]] == [sid for sid, _ in prod[:60]]

        golden.append(
            {
                "id": item_id,
                "sub_questions": subs,
                "per_question_top60": [
                    [[sid, round(score, 12)] for sid, score in ranked[:60]]
                    for ranked in ranked_lists
                ],
                "merged_ids": merged_ids,
                "merged_scores": [round(score, 12) for _, score in merged],
                "relevant": relevant,
                "recall": recall,
            }
        )
    (out / "golden_ranking.json").write_text(
        json.dumps(golden, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out}/docs.jsonl triples.jsonl rewrite_transcript.jsonl golden_ranking.json")


# ---------------------------------------------------------------------------
# End-to-end pipeline fixture: replay transcripts and golden output dir
# ---------------------------------------------------------------------------

PIPE_Q1 = "Compare the revenue and net income of Acme Corp and Beta Inc for Q1 2023 and Q2 2023."
PIPE_Q2 = "What were the revenue and net income of Gamma Holdings in Q3 2023?"


def pipeline_tables() -> dict[str, HierarchicalTable]:
    table1 = HierarchicalTable(
        "Metric",
        CoordTree.from_nested(
            [("Acme Corp", ["Revenue", "Net income"]), ("Beta Inc", ["Revenue", "Net income"])]
        ),
        CoordTree.from_nested(["Q1 2023", "Q2 2023"]),
        (
            ("$12.1 billion", "$13.4 billion"),
            ("$3.2 billion", "$3.9 billion"),
            ("$9.8 billion", "$10.2 billion"),
            ("$2.1 billion", "$2.4 billion"),
        ),
    )
    table2 = HierarchicalTable(
        "Metric",
        CoordTree.from_nested(["Revenue", "Net income"]),
        CoordTree.from_nested(["Q3 2023"]),
        (("$5.5 billion",), ("$1.2 billion",)),
    )
    return {PIPE_Q1: table1, PIPE_Q2: table2}


def pipeline_documents():
    acme_beta = [
        "Acme Corp reported revenue of $12.1 billion for Q1 2023.",
        "Acme Corp revenue climbed to $13.4 billion in Q2 2023.",
        "Net income at Acme Corp was $3.2 billion in Q1 2023.",
        "Acme Corp posted net income of $3.9 billion for Q2 2023.",
        "Beta Inc reported revenue of $9.8 billion for Q1 2023.",
        "Beta Inc revenue reached $10.2 billion in Q2 2023.",
        "Net income at Beta Inc was $2.1 billion in Q1 2023.",
        "Beta Inc posted net income of $2.4 billion for Q2 2023.",
        "Both companies cited foreign exchange headwinds in their filings.",
        "Analysts expect the cloud segment to drive growth next year.",
        "Acme Corp repurchased $1.0 billion of shares during the half.",
        "Beta Inc completed the acquisition of a logistics startup.",
        "Headcount remained roughly flat across both organizations.",
        "Gross margins were stable quarter over quarter.",
        "The companies will report Q3 2023 results in October.",
        "No changes to full-year guidance were announced.",
    ]
    gamma = [
        "Gamma Holdings reported revenue of $5.5 billion for Q3 2023.",
        "Net income at Gamma Holdings came in at $1.2 billion for Q3 2023.",
        "The company completed a refinancing of its credit facility.",
        "Gamma Holdings opened two distribution centers during the quarter.",
        "Management reiterated its medium-term margin targets.",
        "A dividend of $0.45 per share was declared.",
    ]
    return {"acme_beta_h1_2023": acme_beta, "gamma_q3_2023": gamma}


def pipeline_rewrites(documents):
    fact_re = re.compile(
        r"^(?:(?P<company1>Acme Corp|Beta Inc|Gamma Holdings).*?"
        r"(?P<metric1>revenue|net income).*?"
        r"|Net income at (?P<company2>Acme Corp|Beta Inc|Gamma Holdings).*?)"
        r"\$(?P<value>[\d.]+) billion.*?(?P<quarter>Q\d 2023)\.$"
    )
    rewrites = {}
    for sentences in documents.values():
        for sentence in sentences:
            match = fact_re.match(sentence)
            if not match:
                continue
            company = match.group("company1") or match.group("company2")
            metric = match.group("metric1") or "net income"
            rewrites[sentence] = (
                f"The {metric} of {company} in {match.group('quarter')} "
                f"was ${match.group('value')} billion."
            )
    return rewrites


def pipeline_decompositions():
    return {
        PIPE_Q1: [
            "What was the revenue of Acme Corp in Q1 2023 and Q2 2023?",
            "What was the net income of Acme Corp in Q1 2023 and Q2 2023?",
            "What was the revenue of Beta Inc in Q1 2023 and Q2 2023?",
            "What was the net income of Beta Inc in Q1 2023 and Q2 2023?",
        ],
        PIPE_Q2: [
            "What was the revenue of Gamma Holdings in Q3 2023?",
            "What was the net income of Gamma Holdings in Q3 2023?",
        ],
    }


_QUESTION_IN_PROMPT = re.compile(r"Question:\n(.+?)\n\nEvidence", re.DOTALL)
_EVIDENCE_LINE = re.compile(r"^(\d+)\. (.+)$", re.MULTILINE)
_CELL_LINE = re.compile(r"cell (\d+): row = (.*?); column = (.*?)\n")


def make_chat_handler(
    tables: dict[str, HierarchicalTable],
    corrupt: dict[tuple[str, str, str], str] | None = None,
    garbage_first_structure: set[str] | None = None,
):
    """Answer structure/fill prompts perfectly from the ground-truth table."""

    def handler(request: dict) -> dict:
        prompt = request["messages"][0]["content"]
        question = _QUESTION_IN_PROMPT.search(prompt).group(1)
        table = tables[question]
        if "you only design" in prompt:
            if (
                garbage_first_structure
                and question in garbage_first_structure
                and "could not be used" not in prompt
            ):
                return {"content": "I am not sure how to lay this out, sorry."}
            skeleton = HierarchicalTable(
                table.stub_header,
                table.left,
                table.top,
                tuple(tuple("" for _ in row) for row in table.body),
            )
            rows, cols = len(table.body), len(table.body[0])
            return {
                "content": (
                    "Working from the sub-queries up to the full layout:\n"
                    "```table\n"
                    f"dimensions: {rows} x {cols}\n"
                    f"{serialize_html(skeleton)}\n"
                    "```\n"
                )
            }
        if "You fill specific body cells" in prompt:
            evidence = [text for _, text in _EVIDENCE_LINE.findall(prompt)]
            value_at = {
                (" > ".join(lp), " > ".join(tp)): value
                for (_, lp), row in zip(table.left.leaves, table.body)
                for (_, tp), value in zip(table.top.leaves, row)
            }
            entries = []
            for number, row_path, col_path in _CELL_LINE.findall(prompt + "\n"):
                value = value_at[(row_path, col_path)]
                if corrupt and (question, row_path, col_path) in corrupt:
                    value = corrupt[(question, row_path, col_path)]
                cites = [i + 1 for i, s in enumerate(evidence) if value and value in s][:1]
                entries.append(
                    {"cell": int(number), "value": value, "sentences": cites, "note": None}
                )
            return {"content": "```json\n" + json.dumps(entries) + "\n```\n"}
        raise AssertionError(f"unexpected prompt: {prompt[:80]}")

    return handler


def record_pipeline_transcripts(out: Path) -> None:
    from doc2table.data import read_documents, read_triples

    documents = read_documents(out / "docs.jsonl")
    triples = read_triples(out / "questions.jsonl", documents)
    rewrites = pipeline_rewrites(pipeline_documents())
    decos = pipeline_decompositions()
    tables = pipeline_tables()

    def record_run(chat_handler, chat_path: Path, rewrite_path: Path | None) -> None:
        rewrite_transcript = Transcript(provider="aligned-rewriter", captured="2024-05-01")
        chat_transcript = Transcript(provider="tab-generator", captured="2024-05-01")
        built = BuiltProviders(
            chat=ChatProvider(RecordingProvider(ScriptedProvider(chat_handler), chat_transcript)),
            rewriter=Rewriter(
                RecordingProvider(make_rewrite_handler(rewrites, decos), rewrite_transcript)
            ),
            embedder=HashingEmbedder(),
            pending_transcripts=[],
        )
        config = RunConfig(k=10)
        with tempfile.TemporaryDirectory() as scratch:
            ranked = retrieve_stage(triples, documents, built, config)
            _, tabtalks = generate_stage(ranked, built.chat, config)
            generated, errors = write_generation(tabtalks, Path(scratch))
        assert not errors, errors
        assert len(generated) == len(triples)
        chat_transcript.save(chat_path)
        if rewrite_path is not None:
            rewrite_transcript.save(rewrite_path)

    transcripts = out / "transcripts"
    transcripts.mkdir(parents=True, exist_ok=True)
    record_run(make_chat_handler(tables), transcripts / "chat_perfect.jsonl", transcripts / "rewrite.jsonl")
    record_run(
        make_chat_handler(
            tables,
            corrupt={(PIPE_Q1, "Acme Corp > Revenue", "Q1 2023"): "$99.9 billion"},
        ),
        transcripts / "chat_onewrong.jsonl",
        None,
    )
    record_run(
        make_chat_handler(tables, garbage_first_structure={PIPE_Q1}),
        transcripts / "chat_retry.jsonl",
        None,
    )
    print(f"wrote {transcripts}/*.jsonl")


def write_pipeline_fixture() -> None:
    out = FIXTURES / "pipeline"
    out.mkdir(parents=True, exist_ok=True)
    documents = pipeline_documents()
    tables = pipeline_tables()

    doc_lines = [
        json.dumps({"doc_id": doc_id, "sentences": sentences}, sort_keys=True)
        for doc_id, sentences in documents.items()
    ]
    (out / "docs.jsonl").write_text("\n".join(doc_lines) + "\n", encoding="utf-8")

    relevant = {
        PIPE_Q1: list(range(8)),  # the eight fact sentences lead the document
        PIPE_Q2: [0, 1],
    }
    question_lines = [
        json.dumps(
            {
                "id": item_id,
                "doc_id": doc_id,
                "question": question,
                "table_html": serialize_html(tables[question]),
                "relevant_sentence_ids": relevant[question],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for item_id, doc_id, question in [
            ("acme_beta", "acme_beta_h1_2023", PIPE_Q1),
            ("gamma", "gamma_q3_2023", PIPE_Q2),
        ]
    ]
    (out / "questions.jsonl").write_text("\n".join(question_lines) + "\n", encoding="utf-8")

    base_config = {
        "chat": {"mode": "replay", "transcript": "transcripts/chat_perfect.jsonl"},
        "rewriter": {"mode": "replay", "transcript": "transcripts/rewrite.jsonl"},
        "embedder": {"mode": "hashing"},
        "k": 10,
        "docs": "docs.jsonl",
        "questions": "questions.jsonl",
    }
    (out / "config.json").write_text(json.dumps(base_config, indent=2) + "\n", encoding="utf-8")
    for name, transcript in [
        ("config_onewrong.json", "transcripts/chat_onewrong.jsonl"),
        ("config_retry.json", "transcripts/chat_retry.jsonl"),
    ]:
        config = dict(base_config)
        config["chat"] = {"mode": "replay", "transcript": transcript}
        (out / name).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    record_pipeline_transcripts(out)

    golden = out / "golden"
    if golden.exists():
        for path in sorted(golden.rglob("*"), reverse=True):
            path.unlink() if path.is_file() else path.rmdir()
    code = cli_main(["pipeline", "--config", str(out / "config.json"), "--out", str(golden)])
    assert code == 0, f"golden pipeline run failed with exit code {code}"
    print(f"wrote {golden}/")


# ---------------------------------------------------------------------------
# Annotation fixture: two documents, six tables, a review file, golden output
# ---------------------------------------------------------------------------

ANNOTATE_DOCUMENTS = {
    "harbor_2023": [
        "Harbor Freight revenue was $1,250 million in 2023.",
        "Operating costs fell to (340) million after the restructuring.",
        "Net income reached 910 million, up from 1 250 million.",
        "The Northern region grew fastest, while the Southern region lagged.",
        "Capital spending was 75 million in 2023 and 60 million in 2022.",
        "Headcount stood at 4,200 at year end.",
        "A one-time charge of -45.5 million was booked in Q4.",
        "Dividends of 12% of earnings were paid.",
    ],
    "orchard_2023": [
        "Orchard Labs revenue rose to 3,400 thousand in 2023.",
        "Research spending was 820 thousand, against 640 thousand in 2022.",
        "The Europe segment contributed 1,100 thousand.",
        "A loss of 45.50 thousand was recorded in Asia.",
        "Margins were 18% for the year.",
        "Employees numbered 210.",
    ],
}


def annotate_tables() -> list[tuple[str, str, str, HierarchicalTable]]:
    """(table_id, doc_id, question, table), alternating between the two documents.

    Planned outcomes: t1 retained with one match rejected by review; t2
    retained at 25% uncovered; t3 excluded at 33%; t4 retained with a sign
    flip; t5 excluded at exactly 30%; t6 excluded once review rejects a match.
    """

    def table(left, top, body, stub="Metric"):
        return HierarchicalTable(
            stub, CoordTree.from_nested(left), CoordTree.from_nested(top), body
        )

    return [
        ("t1", "harbor_2023", "What were Harbor's results in 2023 and 2022?", table(
            [("Harbor", ["Revenue", "Net income"]), "Capital spending"],
            ["2023", "2022"],
            (("$1,250", "1 250"), ("910", "1,250"), ("75", "60")),
        )),
        ("t2", "orchard_2023", "What did Orchard Labs earn and spend?", table(
            ["Revenue", "Research"], ["2023", "2022"], (("3,400", "n/a"), ("820", "640")),
        )),
        ("t3", "harbor_2023", "How did each region perform?", table(
            ["Northern region", "Southern region", "Western region"],
            ["Status"],
            (("grew fastest",), ("lagged",), ("unknown",)),
            stub="Region",
        )),
        ("t4", "orchard_2023", "What did each Orchard segment report?", table(
            ["Europe", "Asia"], ["Result"], (("1,100",), ("(45.5)",)), stub="Segment",
        )),
        ("t5", "harbor_2023", "Which Harbor figures were reported?", table(
            ["Reported", "Other"],
            ["a", "b", "c", "d", "e"],
            (("1,250", "910", "75", "60", "4,200"), ("12%", "-45.5", "999", "888", "777")),
        )),
        ("t6", "orchard_2023", "What were Orchard's margin and headcount?", table(
            ["Margin", "Employees"], ["2023"], (("18%",), ("210",)),
        )),
    ]


ANNOTATE_REVIEW = [
    {"table_id": "t1", "match_id": "0,0", "status": "confirmed"},
    {"table_id": "t1", "match_id": "2,1", "status": "rejected"},
    {"table_id": "t3", "match_id": "2,0", "status": "confirmed"},  # no such match
    {"table_id": "t6", "match_id": "0,0", "status": "confirmed"},
    {"table_id": "t6", "match_id": "1,0", "status": "rejected"},
]


def write_annotate_fixture() -> None:
    out = FIXTURES / "annotate"
    out.mkdir(parents=True, exist_ok=True)

    def write_lines(name: str, rows: list[dict]) -> None:
        lines = [json.dumps(row, sort_keys=True) for row in rows]
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    write_lines(
        "docs.jsonl",
        [{"doc_id": d, "sentences": s} for d, s in ANNOTATE_DOCUMENTS.items()],
    )
    write_lines(
        "tables.jsonl",
        [
            {"table_id": t, "doc_id": d, "question": q, "table_html": serialize_html(table)}
            for t, d, q, table in annotate_tables()
        ],
    )
    write_lines("review.jsonl", ANNOTATE_REVIEW)

    golden = out / "golden"
    if golden.exists():
        for path in sorted(golden.rglob("*"), reverse=True):
            path.unlink() if path.is_file() else path.rmdir()
    code = cli_main(
        [
            "annotate",
            "--docs", str(out / "docs.jsonl"),
            "--tables", str(out / "tables.jsonl"),
            "--review", str(out / "review.jsonl"),
            "--out", str(golden),
        ]
    )
    assert code == 0, f"golden annotate run failed with exit code {code}"
    print(f"wrote {out}/*.jsonl and {golden}/")


def main() -> int:
    write_example_table()
    write_prompt_goldens()
    write_corpus()
    write_pipeline_fixture()
    write_annotate_fixture()
    return 0


if __name__ == "__main__":
    sys.exit(main())
