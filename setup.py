"""Optional extras for an installed copy of the package.

The repo is run from a checkout with ``PYTHONPATH=src`` (there is no
``pyproject.toml`` and nothing to build); this file exists only to name the
``native`` extra for environments that do ``pip install .[native]``.
"""

from setuptools import setup

setup(
    # Optional extras.  ``native`` pulls in numba for the jitted traversal
    # kernels (``repro engine-bench --engine numba``); the package runs
    # fully — and byte-identically — without it on the numpy backend.
    extras_require={"native": ["numba"]},
)
