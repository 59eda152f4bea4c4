#!/usr/bin/env python3
"""Time key-value content similarity against its quadratic reference.

Builds ground-truth tables of 60, 240 and 480 cells (companies x metrics
by years x quarters, as in ``make_fixtures.py``) and two perturbed
generated copies of each, which leave no key exactly equal:

* renamed: every metric row label is renamed ("Revenue" -> "Total revenue");
* reordered: the two column-header levels are swapped (quarter over year).

For each pair it checks that ``content_similarity`` returns the same
report as ``reference_content_similarity`` (scalar chrF on every key pair),
then prints both times and the speed-up. The reference takes about a
minute per 480-cell pair; pass sizes to run fewer::

    PYTHONPATH=src python scripts/bench_content_similarity.py [60 240 480]
"""
from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "scripts")]

from doc2table.metrics import content_similarity  # noqa: E402
from doc2table.model import CoordTree, HierarchicalTable  # noqa: E402
from make_fixtures import COMPANIES, METRICS  # noqa: E402
from oracles import reference_content_similarity  # noqa: E402

# cells -> (companies, metrics, years, quarters per year)
SHAPES = {60: (5, 3, 2, 2), 240: (10, 4, 3, 2), 480: (10, 4, 3, 4)}
RENAMED = {"Revenue": "Total revenue", "Net income": "Net earnings",
           "Operating margin": "Operating margin (%)", "Free cash flow": "Free cash flow (FCF)"}


def value(rng: random.Random) -> str:
    return f"{rng.randrange(1000, 999999) / 10:,.1f}"


def pairs(cells: int, rng: random.Random) -> dict[str, tuple[HierarchicalTable, HierarchicalTable]]:
    companies, metrics, years, quarters = SHAPES[cells]
    labels = [m[0].upper() + m[1:] for m in METRICS[:metrics]]
    year_labels = [f"FY{2020 + y}" for y in range(years)]
    quarter_labels = [f"Q{q + 1}" for q in range(quarters)]
    left = [(company, labels) for company in COMPANIES[:companies]]
    body = [[value(rng) for _ in range(years * quarters)] for _ in range(companies * metrics)]
    truth = HierarchicalTable(
        "Metric",
        CoordTree.from_nested(left),
        CoordTree.from_nested([(y, quarter_labels) for y in year_labels]),
        tuple(tuple(row) for row in body),
    )
    renamed = HierarchicalTable(
        truth.stub_header,
        CoordTree.from_nested([(c, [RENAMED[m] for m in ms]) for c, ms in left]),
        truth.top,
        truth.body,
    )
    reordered = HierarchicalTable(
        truth.stub_header,
        truth.left,
        CoordTree.from_nested([(q, year_labels) for q in quarter_labels]),
        tuple(
            tuple(row[y * quarters + q] for q in range(quarters) for y in range(years))
            for row in body
        ),
    )
    return {"renamed": (renamed, truth), "reordered": (reordered, truth)}


def timed(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or sorted(SHAPES)
    rng = random.Random(20240501)
    print(f"{'case':<10} {'cells':>5} {'reference_s':>12} {'new_s':>8} {'speed-up':>9}")
    for cells in sizes:
        for kind, (generated, truth) in pairs(cells, rng).items():
            ref_s, expected = timed(reference_content_similarity, generated, truth)
            runs = [timed(content_similarity, generated, truth) for _ in range(3)]
            if any(report != expected for _, report in runs):
                print(f"{kind} {cells}: report differs from the reference", file=sys.stderr)
                return 1
            new_s = statistics.median(t for t, _ in runs)
            print(f"{kind:<10} {cells:>5} {ref_s:>12.3f} {new_s:>8.3f} {ref_s / new_s:>8.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
