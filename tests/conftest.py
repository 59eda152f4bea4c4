from __future__ import annotations

from pathlib import Path

import pytest

from doc2table.html_io import parse_html_table
from doc2table.model import CoordTree, HierarchicalTable

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def example_table_html() -> str:
    """Committed HTML for the cancer-statistics example table."""
    return (FIXTURES / "cancer_stats.html").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def example_table(example_table_html) -> HierarchicalTable:
    return parse_html_table(example_table_html)


@pytest.fixture
def flat_2x2() -> HierarchicalTable:
    return HierarchicalTable(
        "",
        CoordTree.from_nested(["r1", "r2"]),
        CoordTree.from_nested(["c1", "c2"]),
        (("a", "b"), ("c", "d")),
    )


def make_flat_table(rows: int, cols: int, stub: str = "") -> HierarchicalTable:
    left = CoordTree.from_nested([f"r{i}" for i in range(rows)])
    top = CoordTree.from_nested([f"c{j}" for j in range(cols)])
    body = tuple(tuple(f"v{i}{j}" for j in range(cols)) for i in range(rows))
    return HierarchicalTable(stub, left, top, body)


def stacked_header_html(levels: int) -> str:
    """A one-cell table under ``levels`` stacked column-header rows, one header level each."""
    head = "".join(f"<tr><th>s{i}</th><th>h{i}</th></tr>" for i in range(levels))
    return f"<table><thead>{head}</thead><tbody><tr><th>r</th><td>1</td></tr></tbody></table>"
