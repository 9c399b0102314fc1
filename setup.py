"""Minimal setup shim carrying no project metadata.

The tree is not installed: it is used in place with ``src/`` on the path,
for example ``PYTHONPATH=src python -m repro.experiments.runner --help``
for the CLI and ``PYTHONPATH=src python -m pytest -q tests`` for the tests.
No console script is declared.
"""

from setuptools import setup

setup()
