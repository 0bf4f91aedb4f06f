#!/usr/bin/env python
"""Documentation consistency checks (run by the CI docs job).

Three guarantees keep the docs from drifting away from the code:

1. **Links resolve** — every intra-repo markdown link in README.md,
   ROADMAP.md, and docs/*.md points at a file that exists, and a
   ``file.md#anchor`` link names a heading of that file under GitHub's slug
   rules (external http(s) links and pure #anchors are skipped).
2. **The CLI reference is live** — every ``repro <command>`` heading in
   docs/cli.md names a real subcommand (``repro <command> --help`` must
   exit 0), and every subcommand the CLI actually exposes is documented.
3. **Named source files exist** — every ``*.py`` path inside a backticked
   span of README.md or docs/*.md resolves as given, under ``src/``, or
   under ``src/repro/``.

Exit code 0 when everything checks out; 1 with a per-problem report
otherwise.  Run from the repository root:

    python scripts/check_docs.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from collections import Counter
from typing import List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose intra-repo links must resolve.
LINKED_DOCS = ["README.md", "ROADMAP.md"]

#: Matches markdown inline links: [text](target).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Matches a markdown heading line, capturing its text (closing #s dropped).
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)(?:\s+#+)?\s*$")

#: Matches an inline link inside heading text, capturing the link text.
LINK_TEXT_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")

#: Matches CLI reference headings: ## `repro <command>`
CLI_HEADING_RE = re.compile(r"^##\s+`repro\s+([a-z][a-z0-9-]*)`", re.MULTILINE)

#: Matches inline code spans: `...`.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")

#: Matches a ``*.py`` path inside a code span, e.g. tests/test_cli.py.
PY_PATH_RE = re.compile(r"(?<![\w./-])([\w./-]+\.py)(?!\w)")

#: Where a named source file may live, relative to the repository root.
PY_PATH_ROOTS = (".", "src", "src/repro")


def heading_anchors(text: str) -> Set[str]:
    """The anchors GitHub gives a markdown file's headings.

    A heading's slug is its rendered text lowercased, with punctuation
    other than ``-`` and ``_`` dropped and spaces turned into ``-``; the
    second and later headings with the same slug get ``-1``, ``-2``, ...
    Lines inside fenced code blocks are not headings.
    """
    anchors: Set[str] = set()
    seen: Counter = Counter()
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith(("```", "~~~")):
            in_fence = not in_fence
            continue
        match = HEADING_RE.match(line)
        if in_fence or match is None:
            continue
        title = LINK_TEXT_RE.sub(r"\1", match.group(1)).lower()
        slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
        anchors.add(f"{slug}-{seen[slug]}" if seen[slug] else slug)
        seen[slug] += 1
    return anchors


def check_links(problems: List[str], repo_root: Path = REPO_ROOT) -> int:
    """Verify every relative markdown link target (and the heading a
    ``file.md#anchor`` link names) exists; returns #links."""
    files = [repo_root / name for name in LINKED_DOCS]
    files.extend(sorted((repo_root / "docs").glob("*.md")))
    checked = 0
    for doc in files:
        if not doc.exists():
            problems.append(f"{doc.relative_to(repo_root)}: file missing")
            continue
        for match in LINK_RE.finditer(doc.read_text(encoding="utf-8")):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path, _, anchor = target.partition("#")
            if not path:
                continue
            checked += 1
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(repo_root)}: broken link -> {target}"
                )
            elif anchor and resolved.suffix == ".md" and anchor not in \
                    heading_anchors(resolved.read_text(encoding="utf-8")):
                problems.append(
                    f"{doc.relative_to(repo_root)}: no heading for anchor "
                    f"-> {target}"
                )
    return checked


def check_source_paths(problems: List[str],
                       repo_root: Path = REPO_ROOT) -> int:
    """Verify every backticked ``*.py`` path in README.md and docs/*.md
    names a file that exists; returns #paths checked."""
    files = [repo_root / "README.md"]
    files.extend(sorted((repo_root / "docs").glob("*.md")))
    checked = 0
    for doc in files:
        if not doc.exists():
            continue
        for span in CODE_SPAN_RE.finditer(doc.read_text(encoding="utf-8")):
            for path in PY_PATH_RE.findall(span.group(1)):
                checked += 1
                if not any((repo_root / root / path).is_file()
                           for root in PY_PATH_ROOTS):
                    problems.append(
                        f"{doc.relative_to(repo_root)}: no such source "
                        f"file -> {path}"
                    )
    return checked


def check_cli_reference(problems: List[str]) -> List[str]:
    """Verify docs/cli.md and the real CLI agree; returns documented cmds."""
    cli_doc = REPO_ROOT / "docs" / "cli.md"
    if not cli_doc.exists():
        problems.append("docs/cli.md is missing")
        return []
    documented = CLI_HEADING_RE.findall(cli_doc.read_text(encoding="utf-8"))
    if not documented:
        problems.append("docs/cli.md documents no `repro <command>` headings")
        return []

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for command in documented:
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", command, "--help"],
            capture_output=True, env=env, cwd=REPO_ROOT,
        )
        if result.returncode != 0:
            problems.append(
                f"docs/cli.md documents `repro {command}` but "
                f"`repro {command} --help` exits "
                f"{result.returncode}: {result.stderr.decode().strip()[:200]}"
            )

    # The reverse direction: every real subcommand must be documented.
    sys.path.insert(0, src)
    try:
        from repro.cli import _COMMANDS
    finally:
        sys.path.pop(0)
    for command in sorted(_COMMANDS):
        if command not in documented:
            problems.append(
                f"`repro {command}` exists but is not documented in "
                f"docs/cli.md (add a `## \\`repro {command}\\`` section)"
            )
    return documented


def main() -> int:
    problems: List[str] = []
    num_links = check_links(problems)
    num_paths = check_source_paths(problems)
    documented = check_cli_reference(problems)
    if problems:
        print(f"docs check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"docs check OK: {num_links} intra-repo links resolve, "
          f"{num_paths} named source files exist, "
          f"{len(documented)} CLI subcommands documented and live "
          f"({', '.join(documented)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
