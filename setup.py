"""Packaging for the :mod:`repro` distribution.

Metadata lives here (not in a ``pyproject.toml`` build table) because
the offline environment lacks the ``wheel`` package, which modern
``pip install -e .`` (PEP 660) requires; ``python setup.py develop``
installs an editable egg-link without it.

Every subpackage is enumerated explicitly — ``find_packages`` silently
drops a package whose ``__init__.py`` goes missing, and an incomplete
wheel is exactly the kind of failure that only surfaces downstream.
The ``py.typed`` marker ships so type checkers consume the inline
annotations (PEP 561).
"""

import pathlib
import re

from setuptools import setup

_HERE = pathlib.Path(__file__).parent
_VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (_HERE / "src" / "repro" / "_version.py").read_text(),
).group(1)

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.backend",
    "repro.core",
    "repro.data",
    "repro.distributed",
    "repro.experiments",
    "repro.hashing",
    "repro.join",
    "repro.mechanisms",
    "repro.privacy",
    "repro.reliability",
    "repro.service",
    "repro.sketches",
    "repro.temporal",
    "repro.transform",
]

setup(
    name="repro-ldp-join-sketch",
    version=_VERSION,
    description=(
        "Sketches-based join size estimation under local differential "
        "privacy (ICDE 2024 reproduction, grown into a sharded "
        "estimation library)"
    ),
    long_description=(_HERE / "README.md").read_text(),
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    package_dir={"": "src"},
    packages=PACKAGES,
    package_data={"repro": ["py.typed"]},
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.experiments.cli:main",
            "repro-lint = repro.analysis.runner:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Typing :: Typed",
    ],
)
