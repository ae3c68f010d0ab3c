"""Shared benchmark fixtures.

``bench_paper.py`` regenerates each of the paper's tables and figures at
reduced scale (small synthetic datasets, minutes of virtual time), prints
the same rows/series the paper reports and asserts their shape; the other
modules measure throughput. ``benchmark.pedantic(..., rounds=1)`` is used
throughout: these are macro-benchmarks of whole experiments, not
micro-benchmarks to be repeated.

Run with:  pytest benchmarks/ --benchmark-only

Machine-readable output (the CI perf trajectory): benchmarks record named
metrics through the ``bench_record`` fixture, and a session-finish hook
writes one ``BENCH_<group>.json`` per recorded group into
``$BENCH_JSON_DIR`` (default: current directory)::

    {
      "bench": "simulator",
      "commit": "<$BENCH_COMMIT or $GITHUB_SHA or 'unknown'>",
      "timestamp": <$BENCH_TIMESTAMP or $SOURCE_DATE_EPOCH or wall clock>,
      "metrics": {"trainer_adpsgd_events_per_s": 80123.4, ...}
    }

CI uploads these as artifacts and gates them against the committed floors
in ``benchmarks/baselines.json`` via ``benchmarks/check_bench_json.py``.
"""

import json
import os
import time

import pytest

# group -> metric name -> value; filled by the bench_record fixture and
# flushed to BENCH_<group>.json files at session end.
_RECORDED_METRICS: dict = {}


@pytest.fixture
def report(capsys):
    """Print an ExperimentOutput so it lands in the bench log."""

    def _report(output):
        with capsys.disabled():
            print()
            print(output.render())
        return output

    return _report


@pytest.fixture
def bench_record():
    """Record one machine-readable metric for the BENCH_<group>.json files.

    ``keep`` decides how repeated recordings of the same metric combine
    (pytest-benchmark may call the timed function several rounds): ``max``
    for throughputs (best observed), ``min`` for latencies, ``last`` for
    counts that are identical every round.
    """

    def _record(group: str, name: str, value: float, keep: str = "last"):
        metrics = _RECORDED_METRICS.setdefault(group, {})
        value = float(value)
        if keep == "max" and name in metrics:
            value = max(value, metrics[name])
        elif keep == "min" and name in metrics:
            value = min(value, metrics[name])
        elif keep not in ("max", "min", "last"):
            raise ValueError(f"unknown keep mode {keep!r}")
        metrics[name] = value

    return _record


def _bench_provenance() -> dict:
    """Commit + timestamp from the CI environment (envs win over guesses,
    so re-running the gate locally reproduces the committed artifact)."""
    commit = (
        os.environ.get("BENCH_COMMIT")
        or os.environ.get("GITHUB_SHA")
        or "unknown"
    )
    stamp = os.environ.get("BENCH_TIMESTAMP") or os.environ.get("SOURCE_DATE_EPOCH")
    timestamp = int(stamp) if stamp and stamp.isdigit() else int(time.time())
    return {"commit": commit, "timestamp": timestamp}


def pytest_sessionfinish(session, exitstatus):
    """Write one BENCH_<group>.json per recorded metric group."""
    if not _RECORDED_METRICS:
        return
    out_dir = os.environ.get("BENCH_JSON_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    provenance = _bench_provenance()
    for group, metrics in sorted(_RECORDED_METRICS.items()):
        payload = {
            "bench": group,
            **provenance,
            "metrics": {name: metrics[name] for name in sorted(metrics)},
        }
        path = os.path.join(out_dir, f"BENCH_{group}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
