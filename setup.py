"""Legacy setup shim.

The offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs (which build a wheel) fail. This shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` (and plain
``pip install -e .``, which falls back to it) use the classic
``setup.py develop`` path instead. The repo ships no ``pyproject.toml`` and
this file carries no metadata: everything (the CLI, the tests, the benchmarks)
runs from the source tree with ``PYTHONPATH=src``, and CI installs its
dependencies from ``requirements-ci.txt``.
"""

from setuptools import setup

setup()
