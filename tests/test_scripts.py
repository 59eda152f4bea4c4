"""Every script imports: a name a script takes from the package or the tests must exist."""
from __future__ import annotations

import importlib.util
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


def test_run_replay_demo_imports_and_names_the_committed_config():
    demo = load("run_replay_demo")
    assert demo.CONFIG.is_file()
    assert callable(demo.main)
