#!/usr/bin/env python
"""CI gate: every CLI example and cross-link in docs/*.md must be real.

Two checks over every markdown file in the docs directory:

1. **CLI commands parse.** Each ``python -m repro ...`` (or bare
   ``repro ...``) command inside a fenced code block is fed to the real
   ``repro.cli.build_parser()``, and the names argparse leaves to the
   registries (figure id, scenario families, sweep backend) are looked up
   there. A renamed flag, removed subcommand, or stale scenario/figure/
   backend name fails the build instead of rotting on the page.
   Commands that carry ``--dry-run`` are additionally *executed*
   through ``repro.cli.main`` (dry runs stop at spec validation, so this
   is cheap) and must exit 0 -- which also validates their
   ``--scenario-param`` grids at spec time.
2. **Relative links resolve.** Every ``[text](target)`` markdown link
   whose target is not an absolute URL or in-page anchor must point at an
   existing file relative to the doc (anchors stripped). Repo-root
   references like ``ROADMAP.md`` are resolved against the docs dir's
   parent as a fallback.

Shell niceties inside fenced blocks are understood: ``\\`` line
continuations, ``#`` comments, leading ``VAR=value`` environment
assignments, trailing ``&`` backgrounding, and ``$VAR`` placeholders
(treated as opaque strings). Non-repro lines (plain shell like ``wait``
or ``export``) are ignored.

Usage::

    PYTHONPATH=src python tools/check_docs.py [--docs-dir docs]

Exits non-zero listing every violation (the CI step also runs it against
a deliberately broken page to prove the gate trips).
"""

from __future__ import annotations

import argparse
import re
import shlex
import sys
from pathlib import Path

FENCE_RE = re.compile(r"^```")
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
ENV_ASSIGN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


def extract_fenced_blocks(text: str) -> list[list[str]]:
    """Return the lines of each fenced code block, in order."""
    blocks: list[list[str]] = []
    current: list[str] | None = None
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            if current is None:
                current = []
            else:
                blocks.append(current)
                current = None
            continue
        if current is not None:
            current.append(line)
    return blocks


def join_continuations(lines: list[str]) -> list[str]:
    """Merge backslash-continued lines into single logical commands."""
    logical: list[str] = []
    buffer = ""
    for line in lines:
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            buffer += stripped[:-1] + " "
            continue
        logical.append(buffer + stripped)
        buffer = ""
    if buffer.strip():
        logical.append(buffer.rstrip())
    return logical


def repro_argv(command: str) -> list[str] | None:
    """Extract the repro CLI argv from one logical shell command.

    Returns None if the command is not a repro invocation (plain shell,
    pytest calls, variable assignments, ...).
    """
    try:
        tokens = shlex.split(command, comments=True)
    except ValueError:
        return None
    while tokens and ENV_ASSIGN_RE.match(tokens[0]):
        tokens = tokens[1:]
    if tokens and tokens[-1] == "&":
        tokens = tokens[:-1]
    if tokens[:3] == ["python", "-m", "repro"]:
        return tokens[3:]
    if tokens[:1] == ["repro"]:
        return tokens[1:]
    return None


def iter_doc_commands(text: str):
    """Yield every repro CLI argv found in the fenced blocks of a doc."""
    for block in extract_fenced_blocks(text):
        for command in join_continuations(block):
            argv = repro_argv(command)
            if argv:
                yield command.strip(), argv


def check_names(args: argparse.Namespace) -> None:
    """Raise ``ValueError`` for a name the parser leaves to the registries:
    a figure id, scenario family or sweep backend that does not exist."""
    from repro.experiments import PAPER_EXPERIMENTS, get_scenario_family
    from repro.experiments.executors import make_executor

    if args.command == "figure" and args.name not in {*PAPER_EXPERIMENTS, "fig3"}:
        raise ValueError(f"unknown figure {args.name!r}")
    for kind in getattr(args, "scenarios", None) or [getattr(args, "scenario", None)]:
        if kind is not None:
            get_scenario_family(kind)
    if getattr(args, "backend", None) is not None:
        make_executor(args.backend, queue_dir=args.queue_dir)


def check_commands(doc: Path, errors: list[str]) -> int:
    """Parse (and dry-run where marked) every CLI example in one doc."""
    from repro.cli import build_parser, main

    parser = build_parser()
    checked = 0
    for command, argv in iter_doc_commands(doc.read_text()):
        checked += 1
        try:
            check_names(parser.parse_args(argv))
        except SystemExit:
            errors.append(f"{doc}: does not parse: {command}")
            continue
        except ValueError as error:
            errors.append(f"{doc}: does not parse: {command} ({error})")
            continue
        if "--dry-run" in argv:
            import contextlib
            import io

            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            except SystemExit as exc:  # argparse or CLI-level exit
                code = exc.code or 0
            if code != 0:
                errors.append(
                    f"{doc}: --dry-run exited {code}: {command}"
                )
    return checked


def check_links(doc: Path, docs_dir: Path, errors: list[str]) -> int:
    """Every relative link target must exist on disk."""
    checked = 0
    for match in LINK_RE.finditer(doc.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        checked += 1
        path = target.split("#", 1)[0]
        if not path:
            continue
        candidates = (doc.parent / path, docs_dir.parent / path)
        if not any(c.exists() for c in candidates):
            errors.append(f"{doc}: broken link: {target}")
    return checked


def main_check(argv: list[str] | None = None) -> int:
    args_parser = argparse.ArgumentParser(description=__doc__)
    args_parser.add_argument(
        "--docs-dir", default="docs",
        help="directory of markdown files to check (default: docs)",
    )
    args = args_parser.parse_args(argv)
    docs_dir = Path(args.docs_dir)
    docs = sorted(docs_dir.glob("*.md"))
    if not docs:
        print(f"check_docs: no markdown files under {docs_dir}/", file=sys.stderr)
        return 2

    errors: list[str] = []
    commands = links = 0
    for doc in docs:
        commands += check_commands(doc, errors)
        links += check_links(doc, docs_dir, errors)

    if errors:
        print("check_docs: FAILED", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(
        f"check_docs: ok -- {len(docs)} doc(s), {commands} CLI command(s) "
        f"parsed, {links} relative link(s) resolved"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main_check())
