from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def fixture_files(root: Path) -> dict[Path, bytes]:
    """Every file under ``root`` by relative path; run outputs in ``out/`` are not fixtures."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file() and "out" not in path.relative_to(root).parts
    }


def test_script_regenerates_every_fixture_byte_for_byte(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    assert script.main() == 0
    written, committed = fixture_files(tmp_path), fixture_files(FIXTURES)
    assert sorted(written) == sorted(committed)
    assert [name for name in sorted(written) if written[name] != committed[name]] == []
