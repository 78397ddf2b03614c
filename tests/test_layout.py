"""The session container layout has one owner: only ``session.py`` names the
files of the trial and synced containers, the ``.npy`` sidecars that cache
their CSVs included, calls the manifest codec or imports the private helpers
of ``session.py``. Every other module goes through ``read_manifest``,
``trial_dirs``, ``read_dialogues``, ``load_synced`` and friends."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sessionforge"
OWNER = "session.py"
OWNED = (
    "manifest.json",
    "dialogue.jsonl",
    "streams/",
    ".timestamps.csv",
    ".wav",
    ".npy",
    "_sidecar",
    "_manifest_from_dict",
    "_manifest_to_dict",
    "grid.json",
    "grid.csv",
    "selections/",
    "sync_report.json",
)
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != OWNER)


def test_owner_exists():
    assert (SRC / OWNER).is_file()
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_layout_named_only_in_session(module):
    text = module.read_text(encoding="utf-8")
    assert [name for name in OWNED if name in text] == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_private_session_import(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("session", "sessionforge.session")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_recorder_applies_the_whole_session_rule():
    """``transport.py`` checks what it records with ``session_checks``, the
    rule save applies, and imports none of its parts, so it cannot keep a
    subset of the rule of its own."""
    tree = ast.parse((SRC / "transport.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("session", "sessionforge.session")
        for alias in node.names
    }
    parts = {"descriptor_violations", "series_violations", "audio_checks", "validate_session"}
    assert "session_checks" in imported
    assert imported & parts == set()


def test_grid_stage_takes_what_the_native_stage_left():
    """``cli`` sends the grid-rate stage every stream ``denoise_raw`` left, and
    classifies none itself: the filter stages own which stream each filters."""
    assert "classify_stream" not in (SRC / "cli.py").read_text(encoding="utf-8")


def test_one_manifest_reader():
    """``read_manifest`` is the only manifest reader, so every command and
    both loaders check a manifest by one rule."""
    tree = ast.parse((SRC / OWNER).read_text(encoding="utf-8"))
    readers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "read" in node.name and "manifest" in node.name
    ]
    assert readers == ["read_manifest"]
