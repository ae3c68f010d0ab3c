"""Tier-1 smoke test of the benchmark: ``run.py --smoke`` twice, side by side.

Checks the contract between ``BENCHMARK.json`` and what the ledger emits
(same workload and metric names, all well-formed), that the exact-count
metrics and the ``results_digest`` repeat from one run to the next, and that
tracing on and off yield the same digest. Values are not asserted: the toy
sizes measure nothing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import layers

LEDGER_DIR = Path(__file__).resolve().parent
DECLARED = json.loads(
    (LEDGER_DIR.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _smoke_runs(tmp_path, count=2):
    outs = [tmp_path / f"run{index}" / "BENCH_ledger.json" for index in range(count)]
    procs = [
        subprocess.Popen(
            [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for out in outs
    ]
    results = []
    for proc, out in zip(procs, outs):
        output, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, output[-4000:]
        results.append((json.loads(out.read_text(encoding="utf-8")), output))
        assert out.with_name("BENCH_ledger_trace.json").exists()
    return results


def test_smoke_matches_benchmark_json_and_repeats(tmp_path):
    (first, printed), (second, _) = _smoke_runs(tmp_path)
    declared_workloads = [w["name"] for w in DECLARED["workloads"]]
    declared_e2e = [m["name"] for m in DECLARED["end_to_end"]]
    declared_layers = [m["name"] for m in DECLARED["per_layer"]]
    for name in declared_workloads + declared_e2e + declared_layers:
        assert NAME.fullmatch(name), name
    assert list(first["workloads"]) == declared_workloads
    for name, report in first["workloads"].items():
        assert list(report["end_to_end"]) == declared_e2e, name
        assert list(report["per_layer"]) == declared_layers, name
        assert report["correct"] and report["failed"] == 0, report["failures"]
        # tracing on vs off, one digest
        assert report["digest_stable"], name
        again = second["workloads"][name]
        assert again["results_digest"] == report["results_digest"], name
        for metric in layers.EXACT_COUNTS:
            assert again["per_layer"][metric] == report["per_layer"][metric], (
                name, metric,
            )
    # one command prints every metric by name
    for name in declared_e2e + declared_layers:
        assert f"  {name} " in printed, name
