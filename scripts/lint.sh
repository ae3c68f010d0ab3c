#!/usr/bin/env bash
# Local mirror of CI's static gates: ruff + repro-lint + mypy.
#
#   ./scripts/lint.sh
#
# ruff and mypy are skipped with a warning when not installed (the dev
# container may not carry them; CI installs both from requirements-ci.txt).
# repro-lint always runs -- it is vendored in tools/ and needs only the
# standard library. Exit status is non-zero if any gate that ran failed.
set -u

cd "$(dirname "$0")/.."
status=0

if command -v ruff > /dev/null 2>&1; then
    echo "== ruff check ."
    ruff check . || status=1
else
    echo "== ruff not installed; skipping (CI runs it)"
fi

echo "== repro-lint src/"
PYTHONPATH=tools python -m repro_lint src/ --json repro_lint_findings.json \
    || status=1

if python -c "import mypy" > /dev/null 2>&1; then
    echo "== mypy (typed islands)"
    python -m mypy src/repro/graph/__init__.py src/repro/graph/topology.py \
        src/repro/simulation/records.py src/repro/algorithms/gossip.py \
        src/repro/experiments/cache.py \
        || status=1
else
    echo "== mypy not installed; skipping (CI runs it)"
fi

exit $status
