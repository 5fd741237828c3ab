"""Legacy setup shim.

The execution environment's setuptools predates PEP 660 editable installs
(no ``bdist_wheel``), so ``pip install -e . --no-build-isolation
--no-use-pep517`` goes through this file instead.  All metadata lives in
``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="3.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={"console_scripts": ["repro-kcds = repro.cli:main"]},
)
