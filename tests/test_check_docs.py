"""Tests for the link and source-path checks of ``scripts/check_docs.py``."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "scripts" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_broken_source_path_is_reported(tmp_path):
    (tmp_path / "src" / "repro" / "engine").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "engine" / "layout.py").write_text("")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "tool.py").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "Run `python scripts/tool.py --x`; the walk is `engine/layout.py`.\n")
    (tmp_path / "docs" / "guide.md").write_text(
        "See `harness/parallel.py` and `tests/test_gone.py::TestX`.\n")
    problems = []
    checked = check_docs.check_source_paths(problems, repo_root=tmp_path)
    assert checked == 4
    assert problems == [
        "docs/guide.md: no such source file -> harness/parallel.py",
        "docs/guide.md: no such source file -> tests/test_gone.py",
    ]


def test_repository_docs_name_only_existing_files():
    problems = []
    assert check_docs.check_source_paths(problems) > 0
    assert problems == []


def test_broken_anchor_is_reported(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text(
        "# Guide\n"
        "## 10. Fleet trainer (`repro.executors.RetrainPool`)\n"
        "## Notes\n"
        "```\n"
        "## not a heading\n"
        "```\n"
        "## Notes\n")
    (tmp_path / "README.md").write_text(
        "[a](docs/guide.md#10-fleet-trainer-reproexecutorsretrainpool) "
        "[b](docs/guide.md#notes-1) [c](docs/guide.md#notes-2) "
        "[d](docs/guide.md#not-a-heading) [e](#anywhere)\n")
    (tmp_path / "ROADMAP.md").write_text("")
    problems = []
    assert check_docs.check_links(problems, repo_root=tmp_path) == 4
    assert problems == [
        "README.md: no heading for anchor -> docs/guide.md#notes-2",
        "README.md: no heading for anchor -> docs/guide.md#not-a-heading",
    ]


def test_repository_docs_links_and_anchors_resolve():
    problems = []
    assert check_docs.check_links(problems) > 0
    assert problems == []
