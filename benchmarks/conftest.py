"""Shared benchmark fixtures.

``bench_paper.py`` regenerates each of the paper's tables and figures at
reduced scale (small synthetic datasets, minutes of virtual time), prints
the same rows/series the paper reports and asserts their shape;
``bench_scalability.py`` prints trainer throughput as the worker count
grows. ``benchmark.pedantic(..., rounds=1)`` is used throughout: these are
macro-benchmarks of whole experiments, not micro-benchmarks to be
repeated. Nothing here is gated on a timing: the measured performance of
each layer is the ledger's (``benchmarks/ledger/``, ``BENCHMARK.json``).

Run with:  pytest benchmarks/ --benchmark-only
"""

import pytest


@pytest.fixture
def report(capsys):
    """Print an ExperimentOutput so it lands in the bench log."""

    def _report(output):
        with capsys.disabled():
            print()
            print(output.render())
        return output

    return _report


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
