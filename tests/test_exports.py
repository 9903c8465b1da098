"""Every name a framekit module exports resolves, and pyproject.toml names
the version the package reports."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import framekit

MODULES = ["framekit"] + [
    f"framekit.{m.name}" for m in pkgutil.iter_modules(framekit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_export_lists_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_pyproject_version_is_the_package_version():
    # read with a regex: tomllib is missing on Python 3.10
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    versions = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project.group(1), re.M)
    assert versions == [framekit.__version__]
