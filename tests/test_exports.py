"""Every name that a u4class module lists in ``__all__`` exists, so an
export left behind by a deleted function fails here."""

import importlib
import pkgutil

import pytest

import u4class

MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(u4class.__path__, "u4class."))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing
