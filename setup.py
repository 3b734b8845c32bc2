"""Setup shim for environments whose setuptools predates PEP 660 editable
installs; configuration lives in pyproject.toml."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    python_requires=">=3.9",
    entry_points={"console_scripts": ["chipvqa-repro=repro.cli:main"]},
)
