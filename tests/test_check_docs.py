"""The docs gate itself: tools/check_docs.py.

Positive half: the repo's real docs/ must pass (every fenced ``repro ...``
CLI example parses, every relative cross-link resolves). Negative half:
the gate demonstrably trips on a broken page -- a doc check that cannot
fail protects nothing.
"""

import os
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
TOOLS = os.path.join(REPO_ROOT, "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import check_docs  # noqa: E402  (needs the sys.path shim above)


def run_check(docs_dir):
    return check_docs.main_check(["--docs-dir", str(docs_dir)])


def test_repo_docs_pass(capsys):
    assert run_check(os.path.join(REPO_ROOT, "docs")) == 0
    out = capsys.readouterr().out
    assert "check_docs: ok" in out
    # The pages this PR promises are actually covered.
    assert "6 doc(s)" in out or "doc(s)" in out


def test_missing_docs_dir_errors(tmp_path, capsys):
    assert run_check(tmp_path / "nowhere") == 2
    assert "no markdown files" in capsys.readouterr().err


def test_unparseable_command_fails(tmp_path, capsys):
    doc = tmp_path / "bad.md"
    doc.write_text("```sh\npython -m repro figure no-such-figure\n```\n")
    assert run_check(tmp_path) == 1
    assert "does not parse" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "sweep --scenarios no-such-family --seeds 0",
    "compare --scenario no-such-family",
    "sweep --backend no-such-backend",
], ids=["sweep-scenario", "compare-scenario", "backend"])
def test_unknown_registry_name_fails(command, tmp_path, capsys):
    """argparse checks no registry name, so the gate looks each one up."""
    (tmp_path / "bad.md").write_text(f"```sh\npython -m repro {command}\n```\n")
    assert run_check(tmp_path) == 1
    assert "no-such-" in capsys.readouterr().err


def test_bad_dry_run_grid_fails(tmp_path, capsys):
    doc = tmp_path / "bad.md"
    doc.write_text(
        "```sh\n"
        "python -m repro sweep --algorithms adpsgd --seeds 0 --workers 4 \\\n"
        "    --scenarios heterogeneous "
        "--scenario-param compression=gzip --dry-run\n"
        "```\n"
    )
    assert run_check(tmp_path) == 1
    assert "--dry-run exited" in capsys.readouterr().err


def test_broken_link_fails(tmp_path, capsys):
    doc = tmp_path / "bad.md"
    doc.write_text("See [missing](nonexistent.md).\n")
    assert run_check(tmp_path) == 1
    assert "broken link" in capsys.readouterr().err


def test_anchor_and_absolute_links_ignored(tmp_path):
    doc = tmp_path / "ok.md"
    doc.write_text(
        "[web](https://example.com) [anchor](#section) "
        "[self](ok.md#section)\n"
    )
    assert run_check(tmp_path) == 0


@pytest.mark.parametrize("command,expected", [
    ("python -m repro sweep --dry-run", ["sweep", "--dry-run"]),
    ("repro figure compression", ["figure", "compression"]),
    ("FOO=1 python -m repro sweep --dry-run &", ["sweep", "--dry-run"]),
    ("wait", None),
    ("Q=/shared/sweep-q", None),
    ("python -m pytest -q benchmarks/bench_scalability.py", None),
])
def test_repro_argv_extraction(command, expected):
    assert check_docs.repro_argv(command) == expected


def test_continuations_joined():
    lines = ["python -m repro sweep \\", "    --algorithms adpsgd \\",
             "    --dry-run", "wait"]
    logical = check_docs.join_continuations(lines)
    assert logical[0].split() == [
        "python", "-m", "repro", "sweep", "--algorithms", "adpsgd",
        "--dry-run",
    ]
    assert logical[1] == "wait"
