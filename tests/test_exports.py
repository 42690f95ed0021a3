"""Every public name of each module resolves on that module and, as the
same object, on the package: the package exports each module's __all__."""

import importlib
import pkgutil

import pytest

import braidact

MODULES = sorted(m.name for m in pkgutil.iter_modules(braidact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"braidact.{name}")
    for entry in getattr(module, "__all__", ()):
        assert hasattr(module, entry), f"braidact.{name}.__all__ lists missing {entry!r}"
        assert getattr(braidact, entry, None) is getattr(module, entry), entry
