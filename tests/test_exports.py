"""Every name a framekit module exports resolves."""

import importlib
import pkgutil

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
