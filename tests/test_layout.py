"""The session container layout has one owner: only ``session.py`` names the
container's files, the ``.npy`` sidecars that cache its CSVs included, or
calls the manifest codec. Every other module goes through ``read_manifest``,
``trial_dirs``, ``read_dialogues`` and friends."""

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
)
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != OWNER)


def test_owner_exists():
    assert (SRC / OWNER).is_file()
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_layout_named_only_in_session(module):
    text = module.read_text(encoding="utf-8")
    assert [name for name in OWNED if name in text] == []
