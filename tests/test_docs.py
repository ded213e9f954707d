"""Traceability: every report anchor must appear in the docs matrix, and the
package version matches the project metadata."""

import re
from pathlib import Path

import qfb
from qfb import ANCHORS, CHECK_IDS

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "checks.md"


def test_docs_page_exists():
    assert DOC.is_file()


def test_every_anchor_appears_verbatim():
    text = DOC.read_text(encoding="utf-8")
    for check_id, anchor in ANCHORS.items():
        assert anchor in text, f"anchor for {check_id!r} missing from docs"


def test_every_check_id_has_a_section():
    text = DOC.read_text(encoding="utf-8")
    for check_id in CHECK_IDS:
        assert f"## `{check_id}`" in text


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"', text, re.MULTILINE)
    assert match and qfb.__version__ == match.group(1)
