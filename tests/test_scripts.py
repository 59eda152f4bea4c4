"""Every script imports: a name a script takes from the package or the tests must exist.

The content-similarity bench also runs at its smallest size, so its check
against the quadratic reference runs with the tests.
"""
from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def restore_sys_path(monkeypatch):
    # scripts put tests/ and scripts/ on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))


def test_bench_content_similarity_imports_and_builds_its_pairs():
    bench = load("bench_content_similarity")
    cases = bench.pairs(60, random.Random(0))
    assert sorted(cases) == ["renamed", "reordered"]
    for generated, truth in cases.values():
        assert len(generated.body) * len(generated.body[0]) == 60
        assert generated.left != truth.left or generated.top != truth.top


def test_bench_content_similarity_reports_no_difference_at_60_cells(capsys):
    bench = load("bench_content_similarity")
    assert bench.main(["60"]) == 0
    assert "differs" not in capsys.readouterr().err


def test_run_replay_demo_imports_and_names_the_committed_config():
    demo = load("run_replay_demo")
    assert demo.CONFIG.is_file()
    assert callable(demo.main)
