"""Package metadata and installation.

Metadata is declared directly in ``setup.py`` (rather than ``pyproject.toml``) so
that the package installs in editable mode (``pip install -e .``) on machines
without network access: pip's PEP 517 editable path needs to fetch the ``wheel``
build backend, while the legacy ``setup.py develop`` route only needs the
setuptools already baked into the environment.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_here = Path(__file__).parent
_readme = _here / "README.md"
# Single-source the version from the package itself.
_version = re.search(
    r'^__version__ = "([^"]+)"',
    (_here / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-selfish-mining-ethereum",
    version=_version,
    description=(
        "Reproduction of 'Selfish Mining in Ethereum' (Niu & Feng, ICDCS 2019): "
        "analytical Markov model, discrete-event simulator, pluggable mining strategies"
    ),
    long_description=_readme.read_text(encoding="utf-8") if _readme.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # Every paper artifact needs numpy alone.  scipy is loaded only by the
    # generic sparse LU solve (markov.stationary.stationary_distribution), which
    # the test oracles call, so it is a test dependency.
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["scipy", "pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "License :: OSI Approved :: MIT License",
        "Intended Audience :: Science/Research",
        "Topic :: Scientific/Engineering",
    ],
)
