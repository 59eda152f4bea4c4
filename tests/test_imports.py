"""Every module imports on its own, with no import cycle, and none loads an HTTP client.

Each import runs in a fresh interpreter, so no module is loaded beforehand
and a cycle shows whichever module it is entered from. ``http.client`` is
imported only when a live HTTP provider is built, so offline runs never pay
for it, and ``requests`` is not a dependency at all. The data layer
(``model``, ``html_io``, ``treedist``, ``data`` and ``annotate``) loads
neither numpy nor any pipeline stage. No command loads ``numpy.ma``, which
costs about 9 ms and which some numpy set operations import on first use.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PIPELINE = Path(__file__).resolve().parent / "fixtures" / "pipeline"
MODULES = sorted(path.stem for path in (SRC / "doc2table").glob("*.py") if path.stem != "__init__")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_every_module_is_checked():
    assert {"cli", "config", "data", "providers", "retrieval"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_without_an_http_client(module):
    code = (
        f"import sys, doc2table.{module}\n"
        "assert 'requests' not in sys.modules, 'requests was imported'\n"
        "assert 'http.client' not in sys.modules, 'http.client was imported'\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_data_layer_loads_no_stage_and_no_numpy():
    unwanted = ["numpy"] + [
        f"doc2table.{stage}"
        for stage in ("retrieval", "providers", "generation", "metrics", "config", "cli")
    ]
    code = (
        "import sys\n"
        "import doc2table.model, doc2table.html_io, doc2table.treedist\n"
        "import doc2table.data, doc2table.annotate\n"
        f"loaded = [name for name in {unwanted!r} if name in sys.modules]\n"
        "assert not loaded, f'loaded {loaded}'\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_evaluate_and_pipeline_never_load_numpy_ma(tmp_path):
    evaluate = [
        "evaluate",
        "--generated", str(PIPELINE / "golden" / "tables.jsonl"),
        "--groundtruth", str(PIPELINE / "questions.jsonl"),
        "--out", str(tmp_path / "evaluate"),
    ]
    pipeline = ["pipeline", "--config", str(PIPELINE / "config.json"), "--out", str(tmp_path / "run")]
    code = (
        "import sys\n"
        "from doc2table.cli import main\n"
        f"assert main({evaluate!r}) == 0\n"
        f"assert main({pipeline!r}) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr
