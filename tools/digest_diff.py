#!/usr/bin/env python
"""Do the ledger's results digests move without a CACHE_VERSION bump?

Every cached sweep cell is keyed on ``CACHE_VERSION``
(``src/repro/experiments/sweeps.py``): a change that moves any trainer's
numbers must bump it, or a stale cached result passes for a fresh one.
repro-lint's RPL031 guesses this from the paths a diff touches. This tool
checks it: it checks ``REF`` out with ``git worktree add --detach`` into a
temporary directory, runs each tree's own ``benchmarks/ledger/run.py
--smoke`` (``PYTHONPATH=<tree>/src``), prints every workload's
``results_digest`` and both ``CACHE_VERSION``\\ s side by side, and removes
the worktree::

    python tools/digest_diff.py --base origin/main

Exits 1 only when a digest differs while ``CACHE_VERSION`` did not move --
a numerics change, wherever it lives in the tree -- and 2 when a tree's
ledger smoke writes no report. A workload only one tree has is shown and
not compared.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_VERSION = re.compile(r"^CACHE_VERSION = (\d+)$", re.MULTILINE)


def cache_version(tree: Path) -> int:
    """The ``CACHE_VERSION`` that ``tree``'s sweeps module declares."""
    source = (tree / "src" / "repro" / "experiments" / "sweeps.py").read_text()
    return int(_VERSION.search(source).group(1))


def smoke_digests(tree: Path, out_dir: Path) -> dict[str, str]:
    """``workload -> results_digest`` of ``tree``'s own ledger smoke run."""
    out = out_dir / "BENCH_ledger.json"
    subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "ledger" / "run.py"),
         "--smoke", "--out", str(out)],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        stdout=subprocess.DEVNULL, check=False,
    )
    if not out.is_file():
        raise RuntimeError(f"the ledger smoke of {tree} wrote no report")
    workloads = json.loads(out.read_text())["workloads"]
    return {name: report["results_digest"] for name, report in workloads.items()}


def unversioned_drift(
    base: dict[str, str], head: dict[str, str], base_version: int, head_version: int
) -> list[str]:
    """The workloads both trees run whose digest moved while
    ``CACHE_VERSION`` stayed put (none when the version moved)."""
    if base_version != head_version:
        return []
    return [name for name in base if name in head and base[name] != head[name]]


def render(base, head, base_version, head_version, base_label) -> str:
    """The side-by-side table: one row per workload, then the versions."""
    names = list(dict.fromkeys([*base, *head]))
    width = max(len(name) for name in [*names, "CACHE_VERSION"])
    lines = [f"{'':{width}}  {base_label[:16]:16}  {'this tree':16}"]
    for name in names:
        old, new = base.get(name, "-"), head.get(name, "-")
        mark = "" if old == new else "  differs"
        lines.append(f"{name:{width}}  {old[:16]:16}  {new[:16]:16}{mark}")
    lines.append(f"{'CACHE_VERSION':{width}}  {base_version:<16}  {head_version}")
    return "\n".join(line.rstrip() for line in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="the git ref to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        worktree = scratch / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), args.base],
            cwd=REPO_ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        try:
            (scratch / "base-out").mkdir()
            (scratch / "head-out").mkdir()
            base = smoke_digests(worktree, scratch / "base-out")
            head = smoke_digests(REPO_ROOT, scratch / "head-out")
            base_version = cache_version(worktree)
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(worktree)],
                cwd=REPO_ROOT, check=False,
            )
    head_version = cache_version(REPO_ROOT)
    print(render(base, head, base_version, head_version, args.base))
    drift = unversioned_drift(base, head, base_version, head_version)
    if drift:
        print(f"error: results digest of {', '.join(drift)} moved but "
              f"CACHE_VERSION stayed {head_version}: bump it", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
