"""The comparison behind tools/digest_diff.py: a results digest may move
only together with CACHE_VERSION."""

import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
TOOLS = os.path.join(REPO_ROOT, "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import digest_diff  # noqa: E402  (needs the sys.path shim above)

BASE = {"event-loop": "a287b6cf", "policy-adaptive": "8bb240de"}


def test_equal_digests_pass():
    assert digest_diff.unversioned_drift(BASE, dict(BASE), 6, 6) == []


def test_a_moved_digest_without_a_bump_is_named():
    head = {**BASE, "policy-adaptive": "00000000"}
    assert digest_diff.unversioned_drift(BASE, head, 6, 6) == ["policy-adaptive"]


def test_a_bump_licenses_any_move():
    head = {name: "00000000" for name in BASE}
    assert digest_diff.unversioned_drift(BASE, head, 6, 7) == []


def test_a_workload_one_tree_lacks_is_not_compared():
    head = {**BASE, "new-workload": "11111111"}
    del head["event-loop"]
    assert digest_diff.unversioned_drift(BASE, head, 6, 6) == []


def test_the_table_marks_what_differs():
    head = {**BASE, "event-loop": "00000000"}
    table = digest_diff.render(BASE, head, 6, 6, "origin/main")
    lines = table.splitlines()
    assert "origin/main" in lines[0]
    assert lines[1].startswith("event-loop") and lines[1].endswith("differs")
    assert not lines[2].endswith("differs")
    assert lines[3].split() == ["CACHE_VERSION", "6", "6"]


def test_this_tree_declares_its_cache_version():
    from repro.experiments.sweeps import CACHE_VERSION

    assert digest_diff.cache_version(digest_diff.REPO_ROOT) == CACHE_VERSION
