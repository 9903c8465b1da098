"""Every name a framekit module exports resolves, pyproject.toml names the
version the package reports, and no computing module imports the modules
that judge, report and run."""

import ast
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


def test_computing_modules_import_neither_verify_nor_cli():
    # frames, spaces, sums and catalog compute; verify judges and reports,
    # and cli runs both.  No import of theirs points up, not even one
    # under TYPE_CHECKING.
    upward = {}
    for name in ("frames", "spaces", "sums", "catalog"):
        path = pathlib.Path(framekit.__file__).with_name(f"{name}.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                parts = [p for alias in node.names for p in alias.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            else:
                continue
            if {"verify", "cli"} & set(parts):
                upward.setdefault(name, []).append(node.lineno)
    assert upward == {}
