#!/usr/bin/env python
"""Regenerate ``tests/data/cli_flags.json``.

One entry per ``repro`` subcommand (``trace *`` and ``bench *`` included):
every argument's option strings, dest, default, choices, ``nargs``,
``required``, metavar and type, read off ``repro.cli.build_parser()``.
``tests/test_cli.py`` rebuilds it on every tier-1 run, so "no flag lost, none
added, no default moved" is a standing gate.  Help text and declaration order
are not part of the surface and are not recorded.

A change that reorganises how the parser is built must leave the checked-in
file untouched.  Regenerate it only when a change *intends* to alter the
command line, and say so in that change.

Run from the repository root::

    PYTHONPATH=src python scripts/make_cli_flag_snapshot.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

SNAPSHOT = REPO_ROOT / "tests" / "data" / "cli_flags.json"


def _plain(value: object) -> object:
    """JSON-safe form of a default (paths and the like become their repr)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _describe(action: argparse.Action) -> Dict[str, object]:
    return {
        "strings": list(action.option_strings),
        "dest": action.dest,
        "default": _plain(action.default),
        "choices": None if action.choices is None
        else [_plain(choice) for choice in action.choices],
        "nargs": action.nargs,
        "required": action.required,
        "metavar": action.metavar,
        "type": getattr(action.type, "__name__", None),
    }


def snapshot_parser(parser: argparse.ArgumentParser, path: str = "repro",
                    into: Dict[str, dict] = None) -> Dict[str, dict]:
    """``{subcommand path: {first option string or dest: description}}``."""
    into = {} if into is None else into
    arguments = into.setdefault(path, {})
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                snapshot_parser(subparser, f"{path} {name}", into)
            continue
        key = action.option_strings[0] if action.option_strings \
            else action.dest
        arguments[key] = _describe(action)
    return into


def main() -> int:
    snapshot = snapshot_parser(build_parser())
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    flags = sum(len(arguments) for arguments in snapshot.values())
    print(f"wrote {SNAPSHOT}: {len(snapshot)} parsers, {flags} arguments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
