#!/usr/bin/env python3
"""Compare two ledger result files under the bounds of BENCHMARK.json.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two run sets of one
commit), ``B`` the candidate. One row per (workload, end-to-end metric):
both medians, the ratio ``B / A``, the metric's bound, and a verdict --

- ``regressed``: ``B`` is worse than ``A`` by more than the bound;
- ``unresolved``: the two sides' min-max ranges over their passes overlap by
  more than the bound (as a share of ``A``'s median): the passes scatter
  wider than the bound, so "no regression" cannot be told from one;
- ``ok`` otherwise.

Exits 1 on any regression, on a ``results_digest`` that differs (the two
files must be the same seed and size, so the simulated results must be
bit-identical), and on any exact-count metric that differs.
"""

import json
import sys
from pathlib import Path

import layers

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def worse_by(base, candidate, better):
    """How much worse ``candidate`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    change = (candidate - base) / base
    return change if better == "lower" else -change


def verdict(a, b, bound, better):
    if worse_by(a["median"], b["median"], better) > bound:
        return "regressed"
    overlap = min(a["max"], b["max"]) - max(a["min"], b["min"])
    if overlap / a["median"] > bound:
        return "unresolved"
    return "ok"


def compare(base, candidate, declared):
    """Rows for the table plus the list of hard failures."""
    rows, failures = [], []
    for key in ("seed", "size"):
        if base[key] != candidate[key]:
            failures.append(f"{key} differs: {base[key]} vs {candidate[key]}")
    for name, a in base["workloads"].items():
        b = candidate["workloads"].get(name)
        if b is None:
            failures.append(f"{name}: missing from the candidate file")
            continue
        for metric in declared["end_to_end"]:
            cell_a = a["end_to_end"][metric["name"]]
            cell_b = b["end_to_end"][metric["name"]]
            outcome = verdict(cell_a, cell_b, metric["bound"], metric["better"])
            rows.append((name, metric["name"], metric["unit"], cell_a["median"],
                         cell_b["median"], metric["bound"], outcome))
            if outcome == "regressed":
                failures.append(f"{name}: {metric['name']} regressed")
        if a["results_digest"] != b["results_digest"]:
            failures.append(f"{name}: results_digest differs")
        for count in layers.EXACT_COUNTS:
            if a["per_layer"][count] != b["per_layer"][count]:
                failures.append(
                    f"{name}: {count} differs: "
                    f"{a['per_layer'][count]:.0f} vs {b['per_layer'][count]:.0f}"
                )
        if b["failed"]:
            failures.append(f"{name}: {b['failed']} failed op(s) in the candidate")
    return rows, failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        candidate = json.load(handle)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    rows, failures = compare(base, candidate, declared)
    print(f"{'workload':<18}{'metric':<14}{'A median':>12}{'B median':>12}"
          f"{'B / A':>9}{'bound':>7}  verdict")
    for name, metric, unit, a, b, bound, outcome in rows:
        print(f"{name:<18}{metric:<14}{a:>12.4f}{b:>12.4f}"
              f"{b / a:>9.3f}{bound:>7.2f}  {outcome} [{unit}]")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
