"""Legacy setup shim.

The canonical metadata lives in pyproject.toml. This file exists so the
package can be installed in editable mode (``python setup.py develop``)
on environments whose setuptools predates PEP 660 editable-wheel support
(e.g. offline boxes without the ``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    extras_require={
        # Lint layer used by the CI static-analysis job; pinned so a new
        # ruff release cannot change what the gate enforces.
        "dev": ["ruff==0.5.7", "pytest>=7"],
    },
)
